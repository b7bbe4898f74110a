"""What a result was measured on: code, interpreter, BLAS and CPUs."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess

import numpy as np

import env

_BLAS_GET_THREADS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")


def git_sha():
    """HEAD of the checkout, or None outside a git repository."""
    git_dir = os.path.join(env.ROOT, ".git")
    if not os.path.exists(git_dir):
        return None
    try:
        done = subprocess.run(["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _src_files():
    for folder, dirs, files in os.walk(env.SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            yield os.path.join(folder, name)


def src_digest_and_lines():
    """sha256 over src/ (paths and bytes) and the line count of its .py files."""
    digest, lines = hashlib.sha256(), 0
    for path in _src_files():
        with open(path, "rb") as f:
            blob = f.read()
        digest.update(os.path.relpath(path, env.SRC).encode() + b"\0" + blob)
        if path.endswith(".py"):
            lines += blob.count(b"\n")
    return digest.hexdigest(), lines


def blas_threads_in_use():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in _BLAS_GET_THREADS:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def collect(blas_threads_requested: int) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    src_sha, src_lines = src_digest_and_lines()
    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha,
        "src_py_lines": src_lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": blas_threads_requested,
        "blas_threads_in_use": blas_threads_in_use(),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }
