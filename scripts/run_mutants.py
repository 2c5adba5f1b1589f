#!/usr/bin/env python3
"""Run the mutant registry: check that the differential tests kill each mutant.

Each row of ``scripts/mutants.json`` names a file, an exact old text, the
new text that replaces it, a label (``unsound``: the mutant gives a wrong
answer; ``pinned``: it is still sound, and a test pins the code's choice)
and the pytest ids expected to kill it. Every row runs on one temporary
copy of ``src/``, ``tests/`` and ``bench/``, never on the checkout: its
tests must first pass unmutated, and then the mutant is applied, its tests
run again, and the file is restored. Each list of test ids runs unmutated
once, and the rows that name the same list share its exit code. A row is
*killed* when its tests fail, *survived* when they pass, and *stale* when
its old text does not occur exactly once. Prints one line per row and a
total line; exits nonzero on any survivor, stale row or other failure.

    python scripts/run_mutants.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REGISTRY = ROOT / "scripts" / "mutants.json"
COPIED = ("src", "tests", "bench")


def run_tests(copy: Path, tests: list) -> int:
    """Pytest's exit code on the tests in the copy: 0 all passed, 1 some failed."""
    # No bytecode is written, so a restored file is never read from a mutant's cache.
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(
        command, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    ).returncode


def verdict(copy: Path, row: dict, unmutated: dict) -> str:
    """The row's verdict; ``unmutated`` maps each test-id tuple run on the restored copy
    to its exit code."""
    path = copy / row["file"]
    original = path.read_text(encoding="utf-8")
    if original.count(row["old"]) != 1:
        return "stale"
    tests = tuple(row["tests"])
    if tests not in unmutated:
        unmutated[tests] = run_tests(copy, row["tests"])
    code = unmutated[tests]
    if code != 0:
        return f"fails unmutated (pytest exit {code})"
    path.write_text(original.replace(row["old"], row["new"]), encoding="utf-8")
    try:
        code = run_tests(copy, row["tests"])
    finally:
        path.write_text(original, encoding="utf-8")
    return {0: "survived", 1: "killed"}.get(code, f"broken (pytest exit {code})")


def main() -> int:
    rows = json.loads(REGISTRY.read_text(encoding="utf-8"))
    counts, unmutated = {}, {}
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in COPIED:
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        for row in rows:
            tick = time.perf_counter()
            result = verdict(copy, row, unmutated)
            counts[result] = counts.get(result, 0) + 1
            print(
                f"{row['name']:<32} {row['label']:<8} {result}"
                f"  ({time.perf_counter() - tick:.1f}s)  {row['what']}"
            )
    killed = counts.pop("killed", 0)
    others = ", ".join(f"{count} {result}" for result, count in counts.items()) or "0 survived"
    print(
        f"total: {time.perf_counter() - started:.1f}s, {len(rows)} mutants, "
        f"{killed} killed, {others}"
    )
    return 1 if counts else 0


if __name__ == "__main__":
    sys.exit(main())
