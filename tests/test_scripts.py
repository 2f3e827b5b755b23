"""Smoke tests of the experiment scripts: each runs to completion on a small
input and reports what it should."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, timeout=120,
    )


def test_run_pools_passes_every_pool():
    done = run_script("run_pools.py", "--horizon", "200")
    assert done.returncode == 0, done.stdout + done.stderr
    for summary in ("24/24", "12/12", "18/18"):
        assert f"{summary} scenarios passed" in done.stdout


def test_kolmogorov_mc_runs():
    done = run_script("kolmogorov_mc.py", "--seeds", "20", "--horizon", "200")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "fraction of paths" in done.stdout and "nonzero-move count" in done.stdout


def test_readme_price_example_runs():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "gtpsim.cli", "price", "scenarios/price_majority.yaml"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == "upper: 0.500000000000\nlower: 0.500000000000\n"
