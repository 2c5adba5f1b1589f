"""The benchmark's three workloads: ``scan``, ``transfer`` and ``cli``.

Each workload is built from a seed at set-up and then replayed in passes.
Pass 0 uses the sampled inputs as drawn; pass ``k > 0`` uses the same inputs
with every candidate (and Hitting-Set element) name suffixed ``_k``. The
renamed inputs are new to every cache in the library, so repeating a pass
costs what the first one did, and their outputs, with the suffix stripped,
must equal pass 0's. Only pass 0 is checked against the independent
evaluator in ``reference.py``; later passes are checked against pass 0.

A workload turns each unit of a pass into one output record per item, a
string free of names that would differ between passes, and ``check`` counts
the items of pass 0 whose records the evaluator disagrees with.
"""

import itertools
import json
import os
import random
import re
import time

from controlforge import cli, control, reductions, solvers
from controlforge.control import ALL_CONTROL_TYPES, ControlInstance, PartitionKind
from controlforge.elections import Election, System, Vote, VoteCollection

import reference

clock = time.perf_counter_ns

SYSTEMS = (System.PLURALITY, System.VETO, System.APPROVAL)


def renamed(name, k):
    return name if k == 0 else f"{name}_{k}"


def error_record(err):
    return f"error:{type(err).__name__}"


def relabel(instance, k):
    """The instance with every candidate name suffixed for pass ``k``."""
    if k == 0:
        return instance
    election = instance.election
    name = {c: renamed(c, k) for c in election.candidates}
    groups = tuple(
        (Vote(vote.kind, tuple(name[c] for c in vote.entries)), count)
        for vote, count in election.votes.groups
    )
    votes = VoteCollection(tuple(name[c] for c in election.candidates), groups)
    return ControlInstance(Election(election.system, votes), name[instance.focus])


def plain(instance):
    """The instance in the evaluator's plain form."""
    election = instance.election
    ballots = tuple((vote.entries, count) for vote, count in election.votes.groups)
    return (election.system.value, election.candidates, ballots, instance.focus)


def partition_bits(partition, instance):
    if partition is None:
        return "-"
    if partition.kind is PartitionKind.CANDIDATE:
        items = instance.election.candidates
    else:
        items = range(instance.voter_count)
    return reference.bits(items, partition.first)


def reference_bits(instance, tag, code):
    if code is None:
        return "-"
    items = reference.items_of(instance, tag)
    return reference.bits(items, reference.partition_of_code(items, code)[0])


def sample_universe(system, max_candidates, max_votes, count, rng):
    """A seeded sample of ``count`` instances, and the enumeration time in s."""
    universe = solvers.Universe(system, max_candidates, max_votes)
    wanted = set(rng.sample(range(solvers.instance_count(universe)), count))
    picked = []
    start = time.perf_counter()
    for index, instance in enumerate(solvers.iter_instances(universe)):
        if index in wanted:
            picked.append(instance)
    return picked, time.perf_counter() - start


# ---------------------------------------------------------------------------


class Scan:
    """Decide all 24 types by brute force on sampled desk-universe instances.

    Item: one (type, instance) decision.
    """

    name = "scan"
    MAX_CANDIDATES = 4
    MAX_VOTES = 4
    PER_SYSTEM = 300

    def __init__(self, seed, workdir):
        rng = random.Random(f"{seed}:scan")
        self.instances = []
        self.enumeration_s = 0.0
        for system in SYSTEMS:
            picked, seconds = sample_universe(
                system, self.MAX_CANDIDATES, self.MAX_VOTES, self.PER_SYSTEM, rng
            )
            self.instances += picked
            self.enumeration_s += seconds
        rng.shuffle(self.instances)

    def units(self, k):
        return [relabel(instance, k) for instance in self.instances]

    def run_unit(self, instance, latencies):
        records = []
        for control_type in ALL_CONTROL_TYPES:
            start = clock()
            try:
                outcome = solvers.brute_force_search(control_type, instance)
            except Exception as err:
                latencies.add(clock() - start)
                records.append(error_record(err))
                continue
            latencies.add(clock() - start)
            records.append(partition_bits(outcome.solution, instance))
        return records

    def check(self, records):
        failed = 0
        for instance, unit in zip(self.instances, records):
            data = plain(instance)
            for control_type, record in zip(ALL_CONTROL_TYPES, unit):
                if record.startswith("error"):
                    continue
                tag = str(control_type)
                if record != reference_bits(data, tag, reference.least_code(data, tag)):
                    failed += 1
        return failed


class Transfer:
    """Apply every registered transfer rule to every verifying input.

    A unit is one (rule, instance) pair: enumerate the partitions of the
    rule's target type, keep the verifying ones, and transfer each.
    Item: one ``TransferRule.apply``.
    """

    name = "transfer"
    MAX_CANDIDATES = 4
    MAX_VOTES = 3
    PER_SYSTEM = 600

    def __init__(self, seed, workdir):
        rng = random.Random(f"{seed}:transfer")
        self.instances = []
        self.enumeration_s = 0.0
        for system in SYSTEMS:
            picked, seconds = sample_universe(
                system, self.MAX_CANDIDATES, self.MAX_VOTES, self.PER_SYSTEM, rng
            )
            self.instances += picked
            self.enumeration_s += seconds
        self.pairs = [
            (rule, index)
            for index, instance in enumerate(self.instances)
            for rule in reductions.ALL_TRANSFER_RULES
            if rule.system is instance.election.system
        ]
        rng.shuffle(self.pairs)

    def units(self, k):
        instances = [relabel(instance, k) for instance in self.instances]
        return [(rule, instances[index]) for rule, index in self.pairs]

    def run_unit(self, unit, latencies):
        rule, instance = unit
        target = rule.target_type
        records = []
        for partition in solvers.enumerate_partitions(instance, target.partition_kind):
            if not control.verify_solution(target, instance, partition):
                continue
            start = clock()
            try:
                outcome = rule.apply(instance, partition)
            except Exception as err:
                latencies.add(clock() - start)
                records.append(error_record(err))
                continue
            latencies.add(clock() - start)
            records.append(
                partition_bits(partition, instance)
                + ">"
                + partition_bits(outcome.solution, instance)
                + ("*" if outcome.via_fallback else "")
            )
        return records

    def check(self, records):
        failed = 0
        for (rule, index), unit in zip(self.pairs, records):
            data = plain(self.instances[index])
            target, source = str(rule.target_type), str(rule.source_type)
            inputs = [
                reference_bits(data, target, code)
                for code in reference.verifying_codes(data, target)
            ]
            if [record.split(">")[0] for record in unit] != inputs:
                failed += max(1, len(unit))
                continue
            items = reference.items_of(data, source)
            for record in unit:
                output = record.split(">")[1].rstrip("*")
                first = frozenset(i for i, bit in zip(items, output) if bit == "1")
                second = frozenset(items) - first
                if output == "-" or not reference.verifies(data, source, first, second):
                    failed += 1
        return failed


# ---------------------------------------------------------------------------


class Cli:
    """A stream of single-instance requests through ``cli.run_command``.

    Every request names files written before its pass. Creating files is
    left out of set-up time: it is the harness's work, not the library's,
    and its cost varies widely between runs on a shared filesystem.
    Item: one request, including rendering its report.
    """

    name = "cli"
    # Request sizes: candidates and voters grow together, 4-6 and 4-8.
    LEVELS = ((4, 4), (5, 6), (6, 8))
    ALGORITHMS = ("auto", "brute", "oracle")
    HS_ELEMENTS = (4, 5)
    HS_SETS = (2, 3, 4)
    # Requests per (system, size) for reduce and per HS shape for encode/decode.
    REPEATS = 24

    def __init__(self, seed, workdir):
        rng = random.Random(f"{seed}:cli")
        self.workdir = workdir
        self.routes = {
            system: [
                (str(one), str(two))
                for a, b in solvers.collapse_pairs(system)
                for one, two in ((a, b), (b, a))
                if reductions.find_transfer_chain(system, two, one) is not None
            ]
            for system in SYSTEMS
        }
        self.requests = [self._draw(rng, *spec) for spec in self._schedule()]
        rng.shuffle(self.requests)

    def _schedule(self):
        """The request mix: every kind crossed with every shape it takes.

        Only the contents (ballots, focus, partitions, sets) are drawn from
        the seed, so every seed sends the same number of each request shape.
        """
        types = [str(t) for t in ALL_CONTROL_TYPES]
        for system, tag, algorithm, level in itertools.product(
            SYSTEMS, types, self.ALGORITHMS, self.LEVELS
        ):
            yield "solve", system, level, tag, algorithm
        for system, tag, level in itertools.product(SYSTEMS, types, self.LEVELS):
            yield "verify", system, level, tag, None
        for system, level, _ in itertools.product(SYSTEMS, self.LEVELS, range(self.REPEATS)):
            yield "reduce", system, level, None, None
        for kind, elements, sets, _ in itertools.product(
            ("encode-hs", "decode-hs"), self.HS_ELEMENTS, self.HS_SETS, range(self.REPEATS)
        ):
            yield kind, None, (elements, sets), None, None

    # -- request generation -------------------------------------------------

    @staticmethod
    def _election(rng, system, shape):
        candidates = tuple("abcdef"[: shape[0]])
        ballots = []
        for _ in range(shape[1]):
            if system is System.APPROVAL:
                ballots.append(tuple(c for c in candidates if rng.random() < 0.5))
            else:
                ballots.append(tuple(rng.sample(candidates, len(candidates))))
        return (system.value, candidates, tuple((b, 1) for b in ballots), rng.choice(candidates))

    @staticmethod
    def _hitting_set(rng, shape):
        elements = tuple(f"e{i + 1}" for i in range(shape[0]))
        sets = tuple(
            frozenset(rng.sample(elements, rng.randint(1, len(elements))))
            for _ in range(shape[1])
        )
        return elements, sets, rng.randint(1, len(elements) - 1)

    @staticmethod
    def _random_partition(rng, items):
        first = frozenset(item for item in items if rng.random() < 0.5)
        return first, frozenset(items) - first

    def _draw(self, rng, kind, system, shape, tag, algorithm):
        if kind == "solve":
            election = self._election(rng, system, shape)
            return {"kind": kind, "election": election, "type": tag, "algorithm": algorithm}
        if kind == "verify":
            election = self._election(rng, system, shape)
            partition = self._random_partition(rng, reference.items_of(election, tag))
            return {"kind": kind, "election": election, "type": tag, "partition": partition}
        if kind == "reduce":
            while True:
                election = self._election(rng, system, shape)
                source, target = rng.choice(self.routes[system])
                codes = reference.verifying_codes(election, source)
                if codes:
                    break
            items = reference.items_of(election, source)
            partition = reference.partition_of_code(items, rng.choice(codes))
            return {"kind": kind, "election": election, "from": source, "to": target,
                    "partition": partition}
        elements, sets, bound = self._hitting_set(rng, shape)
        request = {"kind": kind, "elements": elements, "sets": sets, "bound": bound}
        if kind == "decode-hs":
            chosen = reference.least_hitting_set(elements, sets, bound)
            if chosen is None:
                chosen = frozenset(elements[:bound])
            encoded = reference.hs_instance(elements, sets, bound)
            first = chosen | {reference.HS_FOCUS, reference.HS_SPOILER}
            request["partition"] = (first, frozenset(encoded[1]) - first)
        return request

    # -- documents ----------------------------------------------------------

    @staticmethod
    def _election_text(election, k):
        system, candidates, ballots, focus = election
        lines = [
            f"system: {system}",
            "candidates: " + " ".join(renamed(c, k) for c in candidates),
            f"distinguished: {renamed(focus, k)}",
        ]
        for entries, _ in ballots:
            names = [renamed(c, k) for c in entries]
            lines.append("{" + ",".join(names) + "}" if system == "approval" else ">".join(names))
        return "\n".join(lines) + "\n"

    @staticmethod
    def _partition_text(partition, k, fixed=()):
        """A partition document; names in ``fixed`` are never suffixed."""

        def block(items):
            ordered = sorted(items, key=str)
            return " ".join(
                str(i) if isinstance(i, int) or i in fixed else renamed(i, k) for i in ordered
            )

        return f"block1: {block(partition[0])} | block2: {block(partition[1])}\n"

    @staticmethod
    def _hitting_set_text(request, k):
        lines = [
            "elements: " + " ".join(renamed(e, k) for e in request["elements"]),
            f"k: {request['bound']}",
        ]
        for subset in request["sets"]:
            lines.append("set: " + " ".join(renamed(e, k) for e in sorted(subset)))
        return "\n".join(lines) + "\n"

    def units(self, k):
        """Write pass ``k``'s files, over the last pass's, and return the argvs."""
        folder = self.workdir
        os.makedirs(folder, exist_ok=True)
        argvs = []
        for index, request in enumerate(self.requests):
            kind = request["kind"]
            doc = os.path.join(folder, f"r{index}.txt")
            part = os.path.join(folder, f"r{index}.part")
            if kind in ("encode-hs", "decode-hs"):
                text = self._hitting_set_text(request, k)
            else:
                text = self._election_text(request["election"], k)
            with open(doc, "w", encoding="utf-8") as handle:
                handle.write(text)
            if "partition" in request:
                fixed = (reference.HS_FOCUS, reference.HS_SPOILER) if kind == "decode-hs" else ()
                with open(part, "w", encoding="utf-8") as handle:
                    handle.write(self._partition_text(request["partition"], k, fixed))
            if kind == "solve":
                argv = ["solve", "--type", request["type"],
                        "--algorithm", request["algorithm"], doc]
            elif kind == "verify":
                argv = ["verify", "--type", request["type"], "--partition", part, "--trace", doc]
            elif kind == "reduce":
                argv = ["reduce", "--from", request["from"], "--to", request["to"],
                        "--solution", part, doc]
            elif kind == "encode-hs":
                argv = ["encode-hs", doc]
            else:
                argv = ["decode-hs", "--solution", part, doc]
            argvs.append((argv, k))
        return argvs

    # -- running and checking -----------------------------------------------

    def run_unit(self, unit, latencies):
        argv, k = unit
        start = clock()
        try:
            code, report = cli.run_command(argv)
            rendered = report.render()
        except Exception as err:
            latencies.add(clock() - start)
            return [error_record(err)]
        latencies.add(clock() - start)
        if code == 2:
            return ["error:exit-2 " + rendered.splitlines()[-1]]
        *text, machine = rendered.split("\n")
        payload = json.loads(machine)
        del payload["command"]
        record = "\n".join([str(code), *text, json.dumps(payload, sort_keys=True)])
        if k:
            record = re.sub(rf"\b([A-Za-z0-9]+)_{k}\b", r"\1", record)
        return [record]

    def check(self, records):
        return sum(
            not self._correct(request, unit[0])
            for request, unit in zip(self.requests, records)
            if not unit[0].startswith("error")
        )

    @staticmethod
    def _read_partition(text, voter):
        left, right = text.split("|")
        blocks = [side.split(":", 1)[1].split() for side in (left, right)]
        if voter:
            blocks = [[int(token) for token in block] for block in blocks]
        return frozenset(blocks[0]), frozenset(blocks[1])

    def _correct(self, request, record):
        code = int(record.split("\n", 1)[0])
        payload = json.loads(record.rsplit("\n", 1)[1])
        outcome = payload["outcome"]
        kind = request["kind"]
        if kind in ("encode-hs", "decode-hs"):
            return self._correct_hs(request, code, outcome, payload)
        election = request["election"]
        if kind == "verify":
            want = reference.verifies(election, request["type"], *request["partition"])
            return (code, outcome) == ((0, "verified-true") if want else (1, "verified-false"))
        tag = request["type"] if kind == "solve" else request["to"]
        items = reference.items_of(election, tag)
        if kind == "reduce":
            if (code, outcome) != (0, "transfer-solution"):
                return False
            found = self._read_partition(payload["solution"], "-PV-" in tag)
            return reference.verifies(election, tag, *found)
        least = reference.least_code(election, tag)
        if (code, outcome) == (1, "no-solution"):
            return least is None
        if (code, outcome) != (0, "solution-found"):
            return False
        found = self._read_partition(payload["solution"], "-PV-" in tag)
        if payload["algorithm"] in ("brute-force", "oracle-binary-search"):
            return reference.bits(items, found[0]) == reference_bits(election, tag, least)
        return reference.verifies(election, tag, *found)

    @staticmethod
    def _correct_hs(request, code, outcome, payload):
        elements, sets, bound = request["elements"], request["sets"], request["bound"]
        if request["kind"] == "encode-hs":
            want = [
                {"label": label, "count": count, "ballot": ">".join(entries)}
                for label, entries, count in reference.hs_blocks(elements, sets, bound)
            ]
            return (code, outcome) == (0, "encoded") and payload["blocks"] == want
        if reference.least_hitting_set(elements, sets, bound) is None:
            encoded = reference.hs_instance(elements, sets, bound)
            return (code, outcome) == (1, "extraction-rejected") and not reference.verifies(
                encoded, reference.HS_TYPE, *request["partition"]
            )
        chosen = frozenset(payload["extracted"] or ())
        return (
            (code, outcome) == (0, "extracted")
            and len(chosen) <= bound
            and all(subset & chosen for subset in sets)
        )


WORKLOADS = {workload.name: workload for workload in (Scan, Transfer, Cli)}
