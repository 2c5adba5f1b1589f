#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as a JSON line.

    python3 bench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the library is imported from ``src/``
of the checkout this file sits in. With ``--trace 0`` the last line carries
the end-to-end metrics, with ``--trace 1`` the per-layer ones (see
``bench/README.md``). Exits 2 without a result when the library is missing.
"""

import argparse
import hashlib
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array

import reference
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
# The main process's own set-up is one sample; these child processes each
# repeat the set-up from a fresh interpreter and then time the yardstick
# once, and setup_s is the median.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60
# With fewer samples than this, p99 has fewer than 10 beyond it; the report warns.
MIN_SAMPLES_FOR_P99 = 1000


class PassTimes:
    """Each item's mean time over the passes run, and the overall rate.

    Every pass runs the same units, renamed, in the same order, so an item
    is known by its position in the pass.
    """

    def __init__(self):
        self.sums = array("q")
        self.counts = array("l")
        self.unit_ns = 0
        self.unit_items = 0
        self._first = True
        self._item = 0

    def start_pass(self, first):
        self._first = first
        self._item = 0

    def add(self, ns):
        """One item's time; called by the workloads."""
        if self._first:
            self.sums.append(ns)
            self.counts.append(1)
        elif self._item < len(self.sums):
            self.sums[self._item] += ns
            self.counts[self._item] += 1
        self._item += 1

    def add_unit(self, ns, items):
        self.unit_ns += ns
        self.unit_items += items

    def quantile_us(self, q):
        ordered = sorted(total / count for total, count in zip(self.sums, self.counts))
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))] / 1000

    def items_per_s(self):
        return self.unit_items / (self.unit_ns / 1e9)


class Yardstick:
    """The machine's speed, read from a fixed job run between units.

    The host's CPU speed drifts by 10-40% over spells of seconds to minutes,
    and a whole run can fall inside one spell. The job is the independent
    evaluator in ``reference.py`` deciding fixed instances: the same kind of
    interpreted work as the library's (tuples, frozensets, dicts, small
    calls), which no change to the library can move. Each pass runs every
    task once, spread evenly between its units, so the job meets the same
    spells as the items. Means, not least times, are compared: a short item
    can catch a brief fast moment that a longer task averages away, while
    a mean over the same spells is the same for both.
    """

    TASKS = 48
    TAGS = tuple(
        "-".join(parts)
        for parts in itertools.product(("CC", "DC"), ("RPC", "PC", "PV"), ("TE", "TP"),
                                       ("UW", "NUW"))
    )

    def __init__(self):
        rng = random.Random("yardstick")
        candidates = ("a", "b", "c", "d")
        self.tasks = []
        for system in ("plurality", "veto", "approval") * (self.TASKS // 3):
            ballots = tuple(
                (tuple(c for c in candidates if rng.random() < 0.5)
                 if system == "approval" else tuple(rng.sample(candidates, 4)), 1)
                for _ in range(4)
            )
            self.tasks.append((system, candidates, ballots, rng.choice(candidates)))
        self.sums = [0] * len(self.tasks)
        self.counts = [0] * len(self.tasks)

    def schedule(self, units):
        """For each of ``units`` units, the tasks to run before it."""
        due = [[] for _ in range(units)]
        for index in range(len(self.tasks)):
            due[index * units // len(self.tasks)].append(index)
        return due

    def run(self, index):
        start = time.perf_counter_ns()
        for tag in self.TAGS:
            reference.verifying_codes(self.tasks[index], tag)
        self.sums[index] += time.perf_counter_ns() - start
        self.counts[index] += 1

    def seconds(self):
        """The job's time: the sum of its tasks' mean times."""
        return sum(total / count for total, count in zip(self.sums, self.counts)) / 1e9

    def speed(self, baseline):
        """How much faster the machine ran than when the reference was taken."""
        return baseline["yardstick_s"] / self.seconds()


def load_baseline():
    """The recorded seeds, output digests and reference figures."""
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as handle:
        return json.load(handle)


def import_library():
    """Import ``controlforge`` from this checkout's ``src/``, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "controlforge", "__init__.py")):
        print(f"error: no controlforge package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import controlforge

    if not os.path.abspath(controlforge.__file__).startswith(SRC + os.sep):
        print(f"error: controlforge imported from {controlforge.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return controlforge


def set_up(name, seed, workdir):
    """Import the library and build the workload; returns (workload, seconds)."""
    start = time.perf_counter()
    import_library()
    import workloads

    workload = workloads.WORKLOADS[name](seed, workdir)
    return workload, time.perf_counter() - start


def cache_counts():
    """(hits, misses) of the winner cache, if the elections layer has one."""
    from controlforge import elections

    for value in vars(elections).values():
        if callable(getattr(value, "cache_info", None)):
            info = value.cache_info()
            return info.hits, info.misses
    return None


def run_pass(workload, units, times, yardstick, base, budget_s, spent_s):
    """Run one pass; stop early once the window has used ``budget_s``.

    Returns (records per unit, items, failed items, wall seconds). With
    ``base`` given, each unit's records are compared with pass 0's.
    """
    records, items, failed = [], 0, 0
    times.start_pass(base is None)
    due = yardstick.schedule(len(units)) if yardstick else [()] * len(units)
    start = time.perf_counter()
    for index, unit in enumerate(units):
        if base is not None and spent_s + time.perf_counter() - start >= budget_s:
            break
        for task in due[index]:
            yardstick.run(task)
        unit_start = time.perf_counter_ns()
        unit_records = workload.run_unit(unit, times)
        times.add_unit(time.perf_counter_ns() - unit_start, len(unit_records))
        items += len(unit_records)
        failed += sum(record.startswith("error") for record in unit_records)
        if base is not None and unit_records != base[index]:
            want = base[index]
            failed += sum(
                not got.startswith("error")
                for got, expected in zip(unit_records, want)
                if got != expected
            ) + abs(len(unit_records) - len(want))
        records.append(unit_records)
    return records, items, failed, time.perf_counter() - start


def digest(records):
    text = "\n".join("\n".join(unit) for unit in records)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def measure(name, seed, seconds, trace, workdir):
    """Set up, then run passes until ``seconds`` of window time are spent.

    Pass 0 always runs to the end. In a traced run pass 0 runs untraced and
    pass 1 traced, and the run stops there.
    """
    workload, setup_s = set_up(name, seed, workdir)
    times = PassTimes()
    yardstick = None if trace else Yardstick()
    base = None
    items = failed = 0
    wall = 0.0
    walls, digests = [], []
    layer = None
    while True:
        units = workload.units(len(walls))
        traced = trace and len(walls) == 1
        if traced:
            spans = tracer.Tracer(sys.modules["controlforge"])
            spans.install()
            cache_before = cache_counts()
        budget = seconds if base is not None and not trace else float("inf")
        records, done, bad, spent = run_pass(workload, units, times, yardstick, base, budget, wall)
        if traced:
            spans.uninstall()
            layer = (spans, cache_before, cache_counts(), spent)
        if base is None:
            base = records
            # Pass 0 is the same work on every commit, however fast it runs.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if len(records) == len(units):
            digests.append(digest(records))
        walls.append(spent)
        items += done
        failed += bad
        wall += spent
        if len(walls) == 2 if trace else wall >= seconds:
            break
    failed += workload.check(base)
    return {
        "workload": workload,
        "setup_s": setup_s,
        "times": times,
        "yardstick": yardstick,
        "items": items,
        "failed": failed,
        "wall": wall,
        "walls": walls,
        "digests": digests,
        "peak_rss_mb": peak_rss_mb,
        "layer": layer,
    }


def probe_setup(name, seed):
    """(set-up time, yardstick time) of ``SETUP_PROBES`` fresh child processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT, check=True,
        )
        sample = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append((sample["setup_s"], sample["yardstick_s"]))
    return samples


def per_layer_metrics(result):
    traced, before, after, traced_s = result["layer"]
    spans = traced.spans

    def calls(name):
        return spans[name].calls if name in spans else 0

    def self_us(name):
        span = spans.get(name)
        return span.self_ns / span.calls / 1000 if span and span.calls else 0.0

    def extra(name, key):
        return spans[name].extra.get(key, 0) if name in spans else 0

    def ratio(part, whole):
        return part / whole if whole else 0.0

    hits = misses = 0
    if before is not None and after is not None:
        hits, misses = after[0] - before[0], after[1] - before[1]
    values = {
        "elections.winners.calls": (calls("elections.winners"), "count"),
        "elections.winners.self_us_per_call": (self_us("elections.winners"), "us"),
        "elections.winner_cache.hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "elections.masked.calls": (calls("elections.masked"), "count"),
        "elections.masked.self_us_per_call": (self_us("elections.masked"), "us"),
        "elections.select_voters.calls": (calls("elections.select_voters"), "count"),
        "elections.select_voters.self_us_per_call": (self_us("elections.select_voters"), "us"),
        "elections.elections_built": (calls("elections.election_init"), "count"),
        "control.check_solution.calls": (calls("control.check_solution"), "count"),
        "control.check_solution.self_us_per_call": (self_us("control.check_solution"), "us"),
        "control.verify_solution.calls": (calls("control.verify_solution"), "count"),
        "control.verify_solution.true_ratio": (
            ratio(extra("control.verify_solution", "true"), calls("control.verify_solution")),
            "ratio",
        ),
        "solvers.brute_force_search.calls": (calls("solvers.brute_force_search"), "count"),
        "solvers.brute_force_search.self_us_per_call": (
            self_us("solvers.brute_force_search"), "us"),
        "solvers.partitions_per_search": (
            ratio(extra("control.verify_solution", "in_search"),
                  calls("solvers.brute_force_search")),
            "count",
        ),
        "solvers.oracle.calls": (calls("solvers.oracle"), "count"),
        "solvers.oracle.self_us_per_call": (self_us("solvers.oracle"), "us"),
        "solvers.iter_instances.s": (getattr(result["workload"], "enumeration_s", 0.0), "s"),
        "reductions.apply.calls": (calls("reductions.apply"), "count"),
        "reductions.apply.self_us_per_call": (self_us("reductions.apply"), "us"),
        "reductions.fallback_ratio": (
            ratio(extra("reductions.apply", "fallback"), calls("reductions.apply")), "ratio"),
        "hardness.encode.self_us_per_call": (self_us("hardness.encode"), "us"),
        "hardness.extract.self_us_per_call": (self_us("hardness.extract"), "us"),
        "cli.run_command.self_us_per_call": (self_us("cli.run_command"), "us"),
        "cli.render.self_us_per_call": (self_us("cli.render"), "us"),
    }
    traced_ns = traced_s * 1e9
    for layer in tracer.LAYERS:
        own = sum(span.self_ns for name, span in spans.items() if tracer.layer_of(name) == layer)
        values[f"{layer}.self_share"] = (ratio(own, traced_ns), "ratio")
    values["trace_overhead_ratio"] = (traced_s / result["walls"][0], "ratio")
    return values


def report(name, seed, trace, result, setup_samples, baseline):
    lat = result["times"]
    items, failed = result["items"], result["failed"]
    lines = [
        f"workload {name}, seed {seed}, {len(result['walls'])} passes, "
        f"{items} items in {result['wall']:.3f} s, {len(lat.sums)} items per pass; "
        "each item's time is its mean over the passes",
        f"error_ratio {failed / max(items, 1):.6f} ({failed} of {items})",
        f"pass 0 output digest {result['digests'][0]}"
        + baseline_note(baseline, name, seed, result["digests"][0]),
        "digests of complete passes " + " ".join(result["digests"]),
    ]
    if len(lat.sums) < MIN_SAMPLES_FOR_P99:
        lines.append(f"warning: p99 from only {len(lat.sums)} items")
    if not trace:
        # Times are scaled to the machine's speed when the reference was
        # taken (``yardstick_s`` in baseline.json); rates inversely.
        speed = result["yardstick"].speed(baseline)
        setups = [seconds * baseline["yardstick_s"] / yard for seconds, yard in setup_samples]
        lines += [
            f"yardstick {result['yardstick'].seconds():.6f} s, so speed {speed:.4f} "
            f"of the reference's {baseline['yardstick_s']} s",
            f"as timed: {lat.items_per_s():.2f} items/s, p50 {lat.quantile_us(0.50):.2f} us, "
            f"p99 {lat.quantile_us(0.99):.2f} us, set-up "
            + " ".join(f"{seconds:.4f}" for seconds, _ in setup_samples) + " s",
            "set-up scaled " + " ".join(f"{seconds:.4f}" for seconds in setups) + " s",
        ]
        metrics = {
            "items_per_s": (lat.items_per_s() / speed, "1/s"),
            "item_p50_us": (lat.quantile_us(0.50) * speed, "us"),
            "item_p99_us": (lat.quantile_us(0.99) * speed, "us"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    else:
        metrics = per_layer_metrics(result)
        for span_name, span in sorted(result["layer"][0].spans.items()):
            if span.calls:
                lines.append(
                    f"span {span_name}: {span.calls} calls, "
                    f"{span.total_ns / 1e6:.1f} ms total, {span.self_ns / 1e6:.1f} ms self"
                )
    lines += [f"{key} = {value:.6g} {unit}" for key, (value, unit) in metrics.items()]
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(items, 1),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))


def baseline_note(baseline, name, seed, value):
    recorded = baseline["digests"].get(name)
    if seed != baseline["default_seed"] or recorded is None:
        return ""
    same = "matches" if value == recorded else "differs from"
    return f" ({same} the baseline digest {recorded})"


def main(argv=None):
    baseline = load_baseline()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("scan", "transfer", "cli"))
    parser.add_argument("--seed", type=int, default=baseline["default_seed"])
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        if args.setup_only:
            _, seconds = set_up(args.workload, args.seed, workdir)
            yardstick = Yardstick()
            for index in range(len(yardstick.tasks)):
                yardstick.run(index)
            print(json.dumps({"setup_s": seconds, "yardstick_s": yardstick.seconds()}))
            return 0
        result = measure(args.workload, args.seed, args.seconds, args.trace, workdir)
        samples = []
        if not args.trace:
            samples = [(result["setup_s"], result["yardstick"].seconds())]
            samples += probe_setup(args.workload, args.seed)
        report(args.workload, args.seed, args.trace, result, samples, baseline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
