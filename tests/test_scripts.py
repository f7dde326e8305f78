"""Smoke runs of the scripts under scripts/, each in its own interpreter."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *map(str, argv[1:])],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_order_probe_prints_both_curves():
    done = run_script("order_probe.py", "--pairs", 4, "--epochs", 5)
    assert done.returncode == 0, done.stderr
    assert "bow acc" in done.stdout and "gru acc" in done.stdout


def test_overfit_demo_drives_every_subcommand(tmp_path):
    done = run_script("overfit_demo.py", tmp_path)
    assert done.returncode == 0, done.stderr
    assert "metric=acc tau=-1 value=1.000000" in done.stdout
    assert (tmp_path / "pred.txt").exists()
