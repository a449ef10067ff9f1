"""The scripts under scripts/ still run against the package's public names."""

import functools
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trisched import Schedule, ThreeDMInstance, optimal_makespan

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


def load(name):
    """scripts/<name>.py, imported as a module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def reduction_roundtrip():
    return load("reduction_roundtrip")


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


@pytest.mark.parametrize("refused", ["optimal_makespan", "qptas_solve"])
def test_refused_search_exits_with_one_line(refused, monkeypatch):
    # a traceback ended the sweep; either search past its budget now ends
    # it with one line and exit status 1
    script = load("qptas_quality")
    if refused == "optimal_makespan":
        monkeypatch.setattr(script, "optimal_makespan", functools.partial(optimal_makespan, limit=10))
    else:
        monkeypatch.setattr("trisched.exact.WORK_BUDGET", 10)
    monkeypatch.setattr(sys, "argv", ["qptas_quality.py", "--instances", "40", "--n", "12", "--eps", "1"])
    with pytest.raises(SystemExit) as caught:
        script.main()
    assert caught.value.code == "error: search refused past its work budget of 10 units"
