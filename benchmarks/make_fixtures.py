"""Train the two checkpoints the ``infer`` workload loads and record their sha256.

    python3 benchmarks/make_fixtures.py

Acceptance-criterion-6 settings, 12 epochs, on the seed-0 family and its
seed-0 split, with BLAS on one thread.  Writes ``fixtures/recon.ckpt``,
``fixtures/reflex.ckpt`` and ``fixtures/SHA256SUMS``.  The benchmark only
verifies these hashes; it never retrains.
"""

import os
import sys
import time

import env

env.cap_blas_threads(1)
env.use_checkout_src()

from protorecon import models  # noqa: E402
from protorecon.corpus import build_vocabulary  # noqa: E402

import workloads as wl  # noqa: E402


def main():
    dataset = wl.family(0)
    vocab = build_vocabulary(dataset)
    lines = []
    for kind, config in wl.fixture_configs().items():
        start = time.perf_counter()
        model = models.train(models.new_model(kind, config, vocab), dataset)
        path = os.path.join(wl.FIXTURE_DIR, wl.FIXTURES[kind])
        model.save(path)
        print(f"{kind}: {time.perf_counter() - start:.1f} s, validations "
              f"{model.history.validations}, best epoch {model.history.best_epoch}, "
              f"{os.path.getsize(path)} bytes", file=sys.stderr)
        lines.append(f"{wl.sha256(path)}  {wl.FIXTURES[kind]}\n")
    with open(os.path.join(wl.FIXTURE_DIR, wl.SHA_FILE), "w", encoding="utf-8") as f:
        f.writelines(lines)


if __name__ == "__main__":
    main()
