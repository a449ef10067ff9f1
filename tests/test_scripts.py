"""The scripts under scripts/ still run against the package's public names."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trisched import Schedule, ThreeDMInstance

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("qptas_quality.py", ["--instances", "2", "--n", "4", "--eps", "1"]),
        ("reduction_roundtrip.py", ["--trials", "4", "--max-slots", "4"]),
    ],
)
def test_script_runs(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def reduction_roundtrip():
    """scripts/reduction_roundtrip.py, imported as a module."""
    spec = importlib.util.spec_from_file_location("reduction_roundtrip", ROOT / "scripts" / "reduction_roundtrip.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_failed_check_exits_with_one_line():
    # a check that `python -O` keeps: exit status 1 and one line on stderr
    script = reduction_roundtrip()
    script.check(True, "not printed")
    with pytest.raises(SystemExit) as caught:
        script.check(False, "trial 3: certificate is infeasible")
    assert caught.value.code == "error: trial 3: certificate is infeasible"


def test_refused_decode_exits_with_one_line():
    script = reduction_roundtrip()
    tdm = ThreeDMInstance(D=10, a=(3,), b=(3,), c=(4,))
    with pytest.raises(SystemExit) as caught:
        script.decoded(tdm, 13, Schedule(((154, 0),)), "trial 3: the oracle's schedule")
    assert caught.value.code == (
        "error: trial 3: the oracle's schedule does not decode: schedule job sizes do not match the encoded instance"
    )
