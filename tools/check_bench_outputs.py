#!/usr/bin/env python
"""Fail unless a benchmark run's outputs all checked out.

``perfbench/run.py`` checks every operation against ``expected.jsonl``
but exits 0 either way; its verdict is the last line of standard
output, one JSON object with ``correct``, ``attempted`` and ``failed``.
This wrapper runs the given command, passes its output through, and
exits non-zero unless the command succeeded and that last line reads
``"correct": true`` with ``"failed": 0``::

    python tools/check_bench_outputs.py -- \\
        python3 perfbench/run.py --workload all --seconds 1 --trace 0
"""

from __future__ import annotations

import json
import subprocess
import sys
from typing import List, Optional


def verdict_problem(last_line: str) -> Optional[str]:
    """Why ``last_line`` is not a passing verdict, or ``None`` if it is."""
    try:
        verdict = json.loads(last_line)
    except ValueError:
        return f"last output line is not JSON: {last_line!r}"
    if not isinstance(verdict, dict):
        return f"last output line is not a JSON object: {last_line!r}"
    if verdict.get("correct") is not True:
        return f"outputs not correct: correct={verdict.get('correct')!r}"
    if verdict.get("failed") != 0:
        return f"{verdict.get('failed')!r} operation(s) failed"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args[:1] == ["--"]:
        args = args[1:]
    if not args:
        print("usage: check_bench_outputs.py -- COMMAND [ARGS...]", file=sys.stderr)
        return 2
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        print(f"error: command exited {proc.returncode}", file=sys.stderr)
        return 1
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    problem = verdict_problem(lines[-1]) if lines else "command printed nothing"
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 1
    print("benchmark outputs: correct, 0 failed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
