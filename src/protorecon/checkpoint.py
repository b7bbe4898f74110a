"""Versioned binary container for named numeric arrays plus config and seed.

Layout: magic, format version, u32 header length, JSON header (config,
vocab hash, seed, array descriptors in a fixed order), then raw row-major
array payloads.  Writing the same model twice yields byte-identical files.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .errors import CheckpointError

MAGIC = b"PRCKPT\x00\x00"
FORMAT_VERSION = 1

_DTYPES = {"float64": "<f8", "float32": "<f4", "int64": "<i8"}


def write_checkpoint(path, arrays: dict, config: dict, vocab_hash: str, seed: int):
    names = list(arrays)
    descriptors = []
    payloads = []
    for name in names:
        arr = np.ascontiguousarray(arrays[name])
        if arr.dtype.name not in _DTYPES:
            raise CheckpointError(f"unsupported dtype {arr.dtype} for array {name!r}")
        descriptors.append({"name": name, "dtype": arr.dtype.name, "shape": list(arr.shape)})
        payloads.append(arr.astype(_DTYPES[arr.dtype.name]).tobytes())
    header = json.dumps(
        {"config": config, "vocab_hash": vocab_hash, "seed": seed, "arrays": descriptors},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", FORMAT_VERSION))
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        for payload in payloads:
            f.write(payload)


def read_checkpoint(path):
    """Returns (arrays, config, vocab_hash, seed); any other layout, or an array name given
    twice, is a CheckpointError."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    off = len(MAGIC)
    try:
        version, hlen = struct.unpack_from("<II", blob, off)
        if version != FORMAT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        off += 8
        header = json.loads(blob[off : off + hlen].decode("utf-8"))
        off += hlen
        arrays = {}
        for desc in header["arrays"]:
            if desc["name"] in arrays:  # a second payload would silently replace the first
                raise CheckpointError(f"duplicate array name {desc['name']!r}")
            if desc["dtype"] not in _DTYPES:
                raise CheckpointError(f"unsupported dtype {desc['dtype']!r} "
                                      f"for array {desc['name']!r}")
            shape = desc["shape"]  # a negative dimension would move the read offset back
            if not all(type(d) is int and d >= 0 for d in shape):  # bool is an int too
                raise CheckpointError(f"array {desc['name']!r} has shape {shape!r}: each "
                                      f"dimension must be an int >= 0")
            dtype = np.dtype(_DTYPES[desc["dtype"]])
            nbytes = math.prod(shape) * dtype.itemsize
            if off + nbytes > len(blob):
                raise CheckpointError(f"truncated payload for array {desc['name']!r}")
            arr = np.frombuffer(blob[off : off + nbytes], dtype=dtype).reshape(shape)
            arrays[desc["name"]] = arr.astype(desc["dtype"])
            off += nbytes
        result = arrays, header["config"], header["vocab_hash"], header["seed"]
    except KeyError as exc:
        raise CheckpointError(f"checkpoint header lacks {exc}") from None
    except (TypeError, ValueError, struct.error) as exc:  # includes invalid UTF-8 and JSON
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from None
    if off != len(blob):
        raise CheckpointError("trailing bytes after last array payload")
    return result
