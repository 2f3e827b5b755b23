"""Smoke tests of the experiment scripts and the documented CLI commands: each
runs to completion on a small input and reports what it should."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, timeout=120,
    )


def test_kolmogorov_mc_runs():
    done = run_script("kolmogorov_mc.py", "--seeds", "20", "--horizon", "200")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "fraction of paths" in done.stdout and "nonzero-move count" in done.stdout


def run_cli(*args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "gtpsim.cli", *args],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("pool, summary", [
    ("coin_comply", "24/24"), ("ufg", "12/12"), ("ufgh", "18/18"),
])
def test_verify_passes_each_pool_manifest(pool, summary):
    done = run_cli("verify", f"scenarios/{pool}_pool.yaml", "--horizon", "200")
    assert done.returncode == 0, done.stdout + done.stderr
    assert f"{summary} scenarios passed" in done.stdout


def test_readme_price_example_runs():
    done = run_cli("price", "scenarios/price_majority.yaml")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == "upper: 0.500000000000\nlower: 0.500000000000\n"
