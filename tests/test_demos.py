"""Every script in demos/ runs to completion against the current library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", [
    "01_corpus_and_vocabulary.py",
    "02_beam_search.py",
    "03_reranking_arithmetic.py",
    pytest.param("04_train_on_synthetic_family.py", marks=pytest.mark.slow),
    "05_metrics.py",
    "06_significance_and_correlation.py",
])
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
