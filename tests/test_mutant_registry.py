"""The mutant registry of ``scripts/run_mutants.py`` stays applicable.

Each row's old text must occur exactly once in its file, and each test it
names must still be defined, so a change that moves the code or renames
the test fails here, not only when the registry is next run.
"""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
ROWS = json.loads((ROOT / "scripts" / "mutants.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row["name"])
def test_row_applies_once(row):
    assert (ROOT / row["file"]).read_text(encoding="utf-8").count(row["old"]) == 1
    assert row["new"] != row["old"]
    assert row["label"] in ("unsound", "pinned")
    assert row["tests"]
    for test in row["tests"]:
        path, cls, function = test.split("[")[0].split("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        assert f"class {cls}" in source and f"def {function}(" in source
