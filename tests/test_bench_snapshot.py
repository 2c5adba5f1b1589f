"""``scripts/bench_snapshot.py``'s per-layer rows still reach the library.

The snapshot's other rows run the suite, the scripts and ``bench/run.py`` as
subprocesses; its per-layer rows call into ``src/`` directly, so a rename
there fails here, not only when the next snapshot is taken.
"""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_snapshot.py"
SPEC = importlib.util.spec_from_file_location("bench_snapshot", SCRIPT)
bench_snapshot = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_snapshot)


def test_every_per_layer_row_is_timed():
    rows = bench_snapshot.per_layer_rows(repeats=1)
    # 4 fixed-instance rows, 3 searches, 3 enumerations, 6 constructions.
    assert len(rows) == 16
    assert all(value > 0 for value in rows.values())
    assert sum(key.startswith("reductions.apply ") for key in rows) == len(
        bench_snapshot.CONSTRUCTIONS
    )
