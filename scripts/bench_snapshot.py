#!/usr/bin/env python3
"""Write a benchmark snapshot: end-to-end, per-layer and wall-time rows in one JSON file.

    python scripts/bench_snapshot.py BENCH_1.json

Run it from anywhere; it reads and changes nothing under ``bench/`` and needs
only the standard library. The file holds:

- ``workloads``: each of ``bench/run.py``'s three workloads at seed 1,
  untraced, run as a subprocess for its default 20 s: its end-to-end metrics
  scaled by the yardstick (``metrics``), the same figures as timed, the pass-0
  digest, and whether every item was correct;
- ``per_layer``: the median over repeats of one call, in µs, timed by direct
  calls on a fixed 4-candidate, 4-ballot plurality instance (a one-off
  ``winners``, one fill of each winner table, one ``verify_solution``, one
  ``brute_force_search`` per action), ``iter_instances`` over <=4/<=4 per
  system, and one ``TransferRule.apply`` per construction;
- ``wall_s``: the wall time of tier-1, of each acceptance criterion (pytest's
  call time), and of the three ``scripts/run_*.py`` at their defaults and at
  a larger budget, each with its last output line;
- ``src_lines``, the mutant registry's kill count (``scripts/run_mutants.py``),
  the Python version and the CPUs the process may run on (``nproc``).

A whole snapshot takes several minutes. Times depend on the host, so compare
a snapshot only with one taken on the same machine.
"""

import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from controlforge import (  # noqa: E402  (the checkout's src/ comes first)
    ControlInstance,
    ControlTypeId,
    Partition,
    System,
    make_election,
    verify_solution,
    winners,
)
from controlforge.elections import SubsetWinners, subset_winners  # noqa: E402
from controlforge import reductions  # noqa: E402
from controlforge.reductions import ALL_TRANSFER_RULES  # noqa: E402
from controlforge.solvers import (  # noqa: E402
    Universe,
    brute_force_search,
    iter_instances,
    verifying_partitions,
)

REPEATS = 201
WORKLOADS = ("scan", "transfer", "cli")
SCRIPTS = (
    ("run_collapse_matrix.py", ()),
    ("run_collapse_matrix.py", ("--max-votes", "4")),
    ("run_transfer_audit.py", ()),
    ("run_transfer_audit.py", ("--max-votes", "4")),
    ("run_hardness_sweep.py", ()),
    ("run_hardness_sweep.py", ("--max-elements", "4", "--max-sets", "4")),
)
CONSTRUCTIONS = (
    "focus_lost_round", "pass_through", "keep_or_empty_voters",
    "empty_block", "isolate_focus", "split_off_vetoers",
)
ENV = dict(os.environ, PYTHONPATH="src")
T = ControlTypeId.parse
# ``nproc``: the CPUs this process may run on.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def median_us(call, fresh=lambda: None, repeats=REPEATS) -> float:
    """The median time of ``call(fresh())`` in µs; ``fresh`` runs untimed before each call."""
    times = []
    for _ in range(repeats):
        arg = fresh()
        start = time.perf_counter_ns()
        call(arg)
        times.append(time.perf_counter_ns() - start)
    return round(statistics.median(times) / 1000, 3)


def _transfer_inputs():
    """One (rule, instance, verified input) per construction: the first rule built on
    it, and the first input of the <=3/<=3 universe that the rule transfers."""
    found = {}
    for name in CONSTRUCTIONS:
        construction = getattr(reductions, name)
        rule = next(rule for rule in ALL_TRANSFER_RULES if rule.construction is construction)
        for instance in iter_instances(Universe(rule.system, 3, 3)):
            solution = next(verifying_partitions(rule.target_type, instance), None)
            if solution is not None and rule.apply(instance, solution).found:
                found[name] = (rule, instance, solution)
                break
    return found


def per_layer_rows(repeats=REPEATS) -> dict:
    """Each row: the median µs of one operation over ``repeats`` direct calls."""
    candidates = ("a", "b", "c", "d")
    election = make_election(
        "plurality", candidates, [("abcd", 1), ("bacd", 1), ("cabd", 1), ("dabc", 1)]
    )
    instance = ControlInstance(election, "b")
    votes, cleared = election.votes, subset_winners.cache_clear

    def fresh_by_voters():
        table = SubsetWinners(election)
        table.voter_blocks()  # builds the voter masks, untimed
        return table.by_voters

    rows = {
        "elections.winners (one-off, cleared table cache)": median_us(
            lambda _: winners(System.PLURALITY, candidates, votes), cleared, repeats
        ),
        "elections.by_candidates fill (fresh table)": median_us(
            lambda won: won[0b1110], lambda: SubsetWinners(election).by_candidates, repeats
        ),
        "elections.by_voters fill (fresh table)": median_us(
            lambda won: won[0b0110], fresh_by_voters, repeats
        ),
    }
    partition = Partition.of_candidates({"a", "c"}, {"b", "d"})
    rows["control.verify_solution (filled tables)"] = median_us(
        lambda _: verify_solution(T("DC-PC-TP-NUW"), instance, partition), repeats=repeats
    )
    for action in ("PC", "RPC", "PV"):
        control_type = T(f"DC-{action}-TP-NUW")
        rows[f"solvers.brute_force_search {control_type} (cleared table cache)"] = median_us(
            lambda _: brute_force_search(control_type, instance), cleared, repeats
        )
    for system in System:
        universe = Universe(system, 4, 4)
        count = sum(1 for _ in iter_instances(universe))
        total = median_us(
            lambda _: sum(1 for _ in iter_instances(universe)), repeats=min(3, repeats)
        )
        key = f"solvers.iter_instances {system.value} <=4/<=4, per instance of {count}"
        rows[key] = round(total / count, 3)
    for name, (rule, given, solution) in _transfer_inputs().items():
        rows[f"reductions.apply {name} ({rule.describe()})"] = median_us(
            lambda _: rule.apply(given, solution), repeats=repeats
        )
    return rows


def run(command) -> tuple[float, subprocess.CompletedProcess]:
    """Wall time and result of one command run from the checkout's root."""
    start = time.perf_counter()
    done = subprocess.run(
        command, cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=3600
    )
    return round(time.perf_counter() - start, 2), done


def last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def workload_row(workload: str) -> dict:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1"]
    seconds, done = run(command + ["--trace", "0"])
    result = json.loads(last_line(done.stdout))
    timed = re.search(r"as timed: ([\d.]+) items/s, p50 ([\d.]+) us, p99 ([\d.]+) us", done.stdout)
    as_timed = dict(zip(("items_per_s", "item_p50_us", "item_p99_us"), map(float, timed.groups())))
    digest = re.search(r"pass 0 output digest ([0-9a-f]+)", done.stdout)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "pass0_digest": digest.group(1),
        "metrics": {key: entry["value"] for key, entry in result["metrics"].items()},
        "as_timed": as_timed,
        "wall_s": seconds,
    }


def criteria_rows() -> dict:
    """Each acceptance criterion's call time (pytest's durations, none hidden) and the
    line it prints, from one pytest run."""
    command = [sys.executable, "-m", "pytest", "-s", "-vv", "-p", "no:cacheprovider"]
    _, done = run(command + ["--durations=0", "tests/test_acceptance.py"])
    pattern = r"([\d.]+)s call\s+tests/test_acceptance.py::test_criterion_(\d+)\w*"
    seconds = dict((number, float(value)) for value, number in re.findall(pattern, done.stdout))
    printed = dict(re.findall(r"\[criterion (\d+)\] (.*)", done.stdout))
    rows = {number: {"s": seconds[number], "line": printed[number]} for number in sorted(seconds)}
    return rows | {"summary": last_line(done.stdout).strip("= ")}


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = Path(sys.argv[1])
    snapshot = {
        "python": platform.python_version(),
        "nproc": NPROC,
        "src_lines": sum(
            len(path.read_text(encoding="utf-8").splitlines())
            for path in sorted((ROOT / "src" / "controlforge").glob("*.py"))
        ),
        "per_layer": per_layer_rows(),
        "workloads": {workload: workload_row(workload) for workload in WORKLOADS},
    }
    tier1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    seconds, done = run(tier1 + ["-p", "no:cacheprovider"])
    wall = {"tier1": {"s": seconds, "summary": last_line(done.stdout)}}
    wall["criteria"] = criteria_rows()
    for script, options in SCRIPTS:
        seconds, done = run([sys.executable, f"scripts/{script}", *options])
        key = " ".join((script, *options))
        wall[key] = {"s": seconds, "exit": done.returncode, "last_line": last_line(done.stdout)}
    snapshot["wall_s"] = wall
    _, done = run([sys.executable, "scripts/run_mutants.py"])
    total = last_line(done.stdout)
    killed = re.search(r"(\d+) mutants, (\d+) killed", total)
    snapshot["mutants"] = {
        "rows": int(killed.group(1)), "killed": int(killed.group(2)), "total_line": total
    }
    out.write_text(json.dumps(snapshot, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
