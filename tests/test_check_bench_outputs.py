"""tools/check_bench_outputs.py: the CI gate on a benchmark run's verdict."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location(
        "check_bench_outputs", REPO_ROOT / "tools" / "check_bench_outputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _printing(*lines):
    """A command that prints ``lines`` and exits 0."""
    return [sys.executable, "-c", f"print({chr(10).join(lines)!r})"]


@pytest.mark.parametrize(
    "verdict, ok",
    [
        ({"correct": True, "attempted": 5, "failed": 0}, True),
        ({"correct": False, "attempted": 5, "failed": 0}, False),
        ({"correct": True, "attempted": 5, "failed": 1}, False),
        ({"attempted": 5, "failed": 0}, False),
    ],
)
def test_verdict_line(gate, verdict, ok):
    assert (gate.verdict_problem(json.dumps(verdict)) is None) is ok


def test_non_json_last_line_fails(gate):
    assert "not JSON" in gate.verdict_problem("report table")


def test_runs_command_and_reads_last_line(gate, capsys):
    good = json.dumps({"correct": True, "failed": 0})
    assert gate.main(["--", *_printing("report", good, "")]) == 0
    bad = json.dumps({"correct": False, "failed": 0})
    assert gate.main(["--", *_printing(good, bad)]) == 1
    assert "report" in capsys.readouterr().out


def test_failing_command_fails(gate):
    assert gate.main([sys.executable, "-c", "raise SystemExit(3)"]) == 1
