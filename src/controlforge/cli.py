"""Command-line surface: text formats and subcommands wiring every module.

Formats (UTF-8, ``#`` starts a comment anywhere on a line):

* election documents::

      system: plurality          # or veto / approval
      candidates: a b c
      distinguished: a           # optional; each header at most once
      2 x a>b>c                  # optional "<mult> x " prefix
      {a,c}                      # approval ballots use subset notation

  The parser reads the syntax; ``Election`` checks the rest, and a defect
  it finds is reported in its words with its line.
* partition documents: ``block1: a c | block2: b`` (candidates) or
  ``block1: 0 2 | block2: 1`` (canonical voter indices).
* hitting-set documents: one ``elements: b1 b2`` line, one ``k: 1`` line,
  and one ``set: b1`` line per set.

An item given twice in a partition block or a ``set:`` line is an error.

Every command prints a human-readable report followed by one JSON line that
alone suffices to re-verify the outcome; the exit code is a function of the
JSON ``outcome`` field (0 success / solution found / verified / no
counterexamples, 1 negative answer, 2 usage or parse error, 3 internal
error: a library invariant failed, such as an oracle whose answers lead to
a non-verifying partition).
"""

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass

from .control import (
    ControlInstance,
    ControlTypeId,
    Partition,
    PartitionKind,
    check_solution,
    mask_of_partition,
    partition_problems,
    verify_solution,
)
from .elections import (
    Election,
    ElectionError,
    System,
    Vote,
    VoteCollection,
    VoteKind,
    scores,
    subset_winners,
    winners,
)
from .hardness import (
    HittingSetInstance,
    InvalidInstanceError,
    encode_hitting_set,
    extract_hitting_set,
)
from .reductions import TransferError, compose, find_transfer_chain
from .solvers import (
    DEFAULT_MAX_EVALS,
    POLYNOMIAL_SEARCHES,
    SEARCHES,
    BruteForceOracle,
    InvariantError,
    Universe,
    UniverseTooLargeError,
    brute_force_search,
    collapse_scan,
    encoding_length,
    lex_min_search_with_oracle,
    polynomial_search,
)


class DocumentParseError(ValueError):
    def __init__(self, message: str, line: "int | None" = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Election documents


@dataclass(frozen=True)
class ElectionDocument:
    """A parsed election plus the optional distinguished candidate."""

    election: Election
    distinguished: "str | None" = None


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def _in_order(items, names) -> list:
    """The members of the set ``items`` in their order in ``names``."""
    return [name for name in names if name in items]


def _unrepeated(items: list, what: str, lineno: "int | None" = None) -> frozenset:
    """The items as a set; an item given twice is a parse error naming it."""
    held = set()
    for item in items:
        if item in held:
            raise DocumentParseError(f"{what} repeats {item!r}", lineno)
        held.add(item)
    return frozenset(held)


# Each document reader's line patterns, compiled once.
_HEADER_RE = re.compile(r"^(system|candidates|distinguished)\s*:\s*(.*)$")
_BALLOT_RE = re.compile(r"^(?:(\d+)\s*x\s+)?(.*)$")  # "[<mult> x ]<ballot>"
_BLOCKS_RE = re.compile(r"^block1\s*:(.*)\|\s*block2\s*:(.*)$")
_HITTING_SET_LINE_RE = re.compile(r"^(elements|k|set)\s*:\s*(.*)$")


def _ballot(text: str, lineno: int) -> Vote:
    """The ballot a line spells: ``{a,c}`` approves, ``a>b>c`` ranks."""
    if not text.startswith("{"):
        return Vote(VoteKind.ORDER, tuple(map(str.strip, text.split(">"))))
    if not text.endswith("}"):
        raise DocumentParseError(f"unterminated approval ballot {text!r}", lineno)
    body = text[1:-1].strip()
    names = body.split(",") if body else ()
    return Vote(VoteKind.APPROVAL, tuple(map(str.strip, names)))


def _build_at_line(build, whole, trials, errors):
    """``build(*whole)``; if the model refuses it, ``build(*args)`` for each
    ``(lineno, args)`` in ``trials``, raising the first refusal at its line,
    and the whole value's refusal, without a line, if none refuses."""
    try:
        return build(*whole)
    except errors as err:
        for lineno, args in trials:
            try:
                build(*args)
            except errors as at_line:
                raise DocumentParseError(str(at_line), lineno) from at_line
        raise DocumentParseError(str(err)) from err


def parse_election(text: str) -> ElectionDocument:
    """Read the document's syntax, then let ``Election`` check the whole value.

    Only a refused document is searched for its line: the election is
    rebuilt from the ``candidates:`` line alone, then from each ballot line
    alone, in document order, and the first refusal is raised with its line.
    """
    system = None
    candidates = None
    distinguished = None
    declared = {}
    groups: list[tuple[Vote, int]] = []
    ballot_lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        header = _HEADER_RE.match(line)
        if header:
            key, value = header.group(1), header.group(2).strip()
            if key in declared:
                raise DocumentParseError(f"duplicate '{key}:' line", lineno)
            declared[key] = lineno
            if key == "system":
                try:
                    system = System(value.lower())
                except ValueError:
                    raise DocumentParseError(f"unknown system {value!r}", lineno) from None
            elif key == "candidates":
                candidates = tuple(value.split())
            else:
                distinguished = value
            continue
        if system is None or candidates is None:
            raise DocumentParseError(
                "system and candidates must be declared before ballots", lineno
            )
        matched = _BALLOT_RE.match(line)
        mult = int(matched.group(1) or 1)
        groups.append((_ballot(matched.group(2).strip(), lineno), mult))
        ballot_lines.append(lineno)
    if system is None or candidates is None:
        raise DocumentParseError("document declares no system or candidates")
    trials = [(declared["candidates"], ((),))]
    trials += [(lineno, ((group,),)) for lineno, group in zip(ballot_lines, groups)]
    build = lambda alone: Election(system, VoteCollection(candidates, alone))
    election = _build_at_line(build, (tuple(groups),), trials, ElectionError)
    if distinguished is not None and distinguished not in candidates:
        message = f"distinguished candidate {distinguished!r} is not running"
        raise DocumentParseError(message, declared["distinguished"])
    return ElectionDocument(election, distinguished)


def serialize_election(doc: ElectionDocument) -> str:
    election = doc.election
    lines = [
        f"system: {election.system.value}",
        f"candidates: {' '.join(election.candidates)}",
    ]
    if doc.distinguished is not None:
        lines.append(f"distinguished: {doc.distinguished}")
    for vote, count in election.votes.groups:
        lines.append(str(vote) if count == 1 else f"{count} x {vote}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Partition documents


def parse_partition(text: str, kind: PartitionKind, election: Election) -> Partition:
    content = " ".join(filter(None, (_strip(line) for line in text.splitlines())))
    matched = _BLOCKS_RE.match(content)
    if not matched:
        raise DocumentParseError(
            "expected 'block1: ... | block2: ...'"
        )
    blocks = (matched.group(1).split(), matched.group(2).split())
    if kind is PartitionKind.VOTER:
        for token in blocks[0] + blocks[1]:
            if not token.isdecimal():
                raise DocumentParseError(f"voter index {token!r} is not a number")
        blocks = tuple([int(token) for token in tokens] for tokens in blocks)
    partition = Partition(
        kind, _unrepeated(blocks[0], "block1"), _unrepeated(blocks[1], "block2")
    )
    if mask_of_partition(subset_winners(election), kind, partition) < 0:
        raise DocumentParseError(partition_problems(partition, kind, election)[0])
    return partition


def serialize_partition(partition: Partition, election: Election) -> str:
    if partition.kind is PartitionKind.CANDIDATE:
        fmt = lambda block: " ".join(_in_order(block, election.candidates))
    else:
        fmt = lambda block: " ".join(str(i) for i in sorted(block))
    first, second = fmt(partition.first), fmt(partition.second)
    return f"block1:{' ' if first else ''}{first} | block2:{' ' if second else ''}{second}\n"


# ---------------------------------------------------------------------------
# Hitting-set documents


def parse_hitting_set(text: str) -> HittingSetInstance:
    """Read the document's syntax, then let ``HittingSetInstance`` check the whole value.

    As for election documents, only a refused document is searched for its
    line: the instance is rebuilt from ``elements:`` alone, then with ``k:``,
    then with each ``set:`` line alone, and the first refusal is raised with
    its line.
    """
    elements = None
    bound = None
    declared = {}
    sets: list[frozenset[str]] = []
    set_lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        matched = _HITTING_SET_LINE_RE.match(line)
        if not matched:
            raise DocumentParseError(f"unrecognized line {line!r}", lineno)
        key, value = matched.group(1), matched.group(2).strip()
        if key != "set" and key in declared:
            raise DocumentParseError(f"duplicate '{key}:' line", lineno)
        declared[key] = lineno
        if key == "elements":
            elements = tuple(value.split())
        elif key == "k":
            try:
                bound = int(value)
            except ValueError:
                raise DocumentParseError(f"k must be an integer, got {value!r}", lineno) from None
        else:
            sets.append(_unrepeated(value.split(), "set", lineno))
            set_lines.append(lineno)
    if elements is None:
        raise DocumentParseError("missing 'elements:' line")
    if bound is None:
        raise DocumentParseError("missing 'k:' line")
    trials = [(declared["elements"], ((), 1)), (declared["k"], ((), bound))]
    trials += [(lineno, ((subset,), bound)) for lineno, subset in zip(set_lines, sets)]
    build = lambda chosen, k: HittingSetInstance(elements, chosen, k)
    refusals = (InvalidInstanceError, ElectionError)
    return _build_at_line(build, (tuple(sets), bound), trials, refusals)


def serialize_hitting_set(hs: HittingSetInstance) -> str:
    lines = [f"elements: {' '.join(hs.elements)}", f"k: {hs.bound}"]
    for subset in hs.sets:
        lines.append(f"set: {' '.join(_in_order(subset, hs.elements))}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class RunReport:
    command: tuple[str, ...]
    outcome: str
    payload: dict
    lines: tuple[str, ...]

    def machine_section(self) -> dict:
        return {"command": list(self.command), "outcome": self.outcome, **self.payload}

    def render(self) -> str:
        text = "\n".join(self.lines)
        machine = json.dumps(self.machine_section(), sort_keys=True)
        return f"{text}\n{machine}" if text else machine


_EXIT_BY_OUTCOME = {
    "winners": 0,
    "goal-satisfied": 0,
    "goal-not-satisfied": 1,
    "verified-true": 0,
    "verified-false": 1,
    "solution-found": 0,
    "no-solution": 1,
    "transfer-solution": 0,
    "transfer-rejected": 1,
    "collapse-agree": 0,
    "collapse-counterexamples": 1,
    "encoded": 0,
    "extracted": 0,
    "extraction-rejected": 1,
    "error": 2,
    "internal-error": 3,
}


def exit_code_for(outcome: str) -> int:
    return _EXIT_BY_OUTCOME[outcome]


def _fmt_set(ordered) -> str:
    return "{" + ",".join(ordered) + "}"


def _trace_payload(trace, election: Election) -> dict:
    in_order = lambda items: _in_order(items, election.candidates)
    return {
        "first_rounds": [
            {
                "label": stage.label,
                "candidates": in_order(stage.candidates),
                "winners": in_order(stage.winners),
                "survivors": in_order(stage.survivors),
            }
            for stage in trace.first_rounds
        ],
        "final_candidates": in_order(trace.final_candidates),
        "final_winners": in_order(trace.final_winners),
    }


def _trace_lines(payload: dict) -> list[str]:
    """The report lines of a trace, rendered from its ``_trace_payload``."""
    lines = [
        f"  {stage['label']}: candidates {_fmt_set(stage['candidates'])}, "
        f"winners {_fmt_set(stage['winners'])}, "
        f"survivors {_fmt_set(stage['survivors'])}"
        for stage in payload["first_rounds"]
    ]
    lines.append(
        f"  final: candidates {_fmt_set(payload['final_candidates'])}, "
        f"winners {_fmt_set(payload['final_winners'])}"
    )
    return lines


# ---------------------------------------------------------------------------
# Command implementations


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's "invalid int value" message reads it
    return parse


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The one parser of the process, built on the first request; parsing
    never changes it, so every later request reuses it. Its ``commands``
    map each subcommand name to that subcommand's own parser."""
    parser = _Parser(prog="controlforge", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("winners", help="winner set of an election file")
    p.add_argument("election")

    for name in ("evaluate", "verify"):
        p = sub.add_parser(
            name,
            help="run a partition through the two-stage election"
            + ("" if name == "evaluate" else " and report the verdict"),
        )
        p.add_argument("--type", required=True, help="control type tag, e.g. DC-RPC-TE-UW")
        p.add_argument("--partition", required=True, help="partition file")
        p.add_argument("--candidate", help="distinguished candidate (overrides the file)")
        if name == "verify":
            p.add_argument("--trace", action="store_true", help="print the full trace")
        p.add_argument("election")

    p = sub.add_parser("solve", help="search for a verifying partition")
    p.add_argument("--type", required=True)
    p.add_argument(
        "--algorithm",
        choices=("auto", "brute", "poly", "oracle"),
        default="auto",
    )
    p.add_argument("--candidate")
    p.add_argument("--max-evals", type=_at_least(0), default=DEFAULT_MAX_EVALS)
    p.add_argument("election")

    p = sub.add_parser("reduce", help="transfer a solution between collapsing types")
    p.add_argument("--from", dest="from_type", required=True, metavar="TYPE")
    p.add_argument("--to", dest="to_type", required=True, metavar="TYPE")
    p.add_argument("--solution", required=True, help="partition file verifying --from")
    p.add_argument("--candidate")
    p.add_argument("--trace", action="store_true")
    p.add_argument("election")

    p = sub.add_parser("collapse-scan", help="compare two types as sets over a universe")
    p.add_argument("--pair", required=True, metavar="T1,T2")
    p.add_argument("--system", required=True, choices=[s.value for s in System])
    p.add_argument("--max-candidates", type=_at_least(1), required=True)
    p.add_argument("--max-votes", type=_at_least(0), required=True)
    p.add_argument(
        "--sequences",
        action="store_true",
        help="enumerate ballot sequences instead of multisets",
    )
    p.add_argument("--max-evals", type=_at_least(0), default=DEFAULT_MAX_EVALS)

    p = sub.add_parser("encode-hs", help="encode a hitting-set file as an election")
    p.add_argument("hitting_set")

    p = sub.add_parser("decode-hs", help="extract a hitting set from a partition")
    p.add_argument("--solution", required=True)
    p.add_argument("hitting_set")

    parser.commands = sub.choices
    return parser


def _parse_args(argv: list) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``, with the subcommand's own parser.

    The full parse hands everything after the subcommand name to that
    subcommand's parser, so calling it directly gives the same namespace,
    usage errors and ``--help`` text for less work. An argv that does not
    start with a subcommand name goes through the full parser, whose
    messages name the subcommands.
    """
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args = command.parse_args(argv[1:])
    args.subcommand = argv[0]
    return args


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        raise UsageError(f"cannot read {path}: {err.strerror}") from err


def _control_type(tag: str) -> ControlTypeId:
    try:
        return ControlTypeId.parse(tag)
    except ValueError as err:
        raise UsageError(str(err)) from err


def _instance_from(args) -> tuple[ElectionDocument, ControlInstance]:
    doc = parse_election(_read(args.election))
    focus = getattr(args, "candidate", None)
    if focus is None:
        focus = doc.distinguished
    if focus is None:
        raise UsageError(
            "control commands need a distinguished candidate: add a "
            "'distinguished:' line or pass --candidate"
        )
    if focus not in doc.election.candidates:
        raise UsageError(f"distinguished candidate {focus!r} is not running")
    return doc, ControlInstance(doc.election, focus)


# Ends both refusals of an exhaustive search: solve's and collapse-scan's.
_RAISE_CAP = " (pass --max-evals to raise it)"


def _cmd_winners(args, argv) -> RunReport:
    doc = parse_election(_read(args.election))
    election = doc.election
    tally = scores(election.system, election.candidates, election.votes)
    won = winners(election.system, election.candidates, election.votes)
    won = _in_order(won, election.candidates)
    lines = [
        f"winners: {_fmt_set(won)}",
        "scores: " + ", ".join(f"{c}={tally[c]}" for c in election.candidates),
    ]
    payload = {
        "election": serialize_election(doc),
        "scores": tally,
        "winners": won,
    }
    return RunReport(tuple(argv), "winners", payload, tuple(lines))


def _cmd_evaluate(args, argv) -> RunReport:
    control_type = _control_type(args.type)
    doc, instance = _instance_from(args)
    partition = parse_partition(
        _read(args.partition), control_type.partition_kind, doc.election
    )
    checked = check_solution(control_type, instance, partition)
    trace = _trace_payload(checked.trace, doc.election)
    satisfied = checked.ok
    if args.subcommand == "verify":
        outcome = "verified-true" if satisfied else "verified-false"
        lines = [f"verdict: {str(satisfied).lower()}"]
        if args.trace:
            lines += _trace_lines(trace)
    else:
        outcome = "goal-satisfied" if satisfied else "goal-not-satisfied"
        lines = [f"two-stage run of {control_type} for focus {instance.focus!r}:"]
        lines += _trace_lines(trace)
        lines.append(f"goal satisfied: {str(satisfied).lower()}")
    payload = {
        "type": str(control_type),
        "election": serialize_election(doc),
        "focus": instance.focus,
        "partition": serialize_partition(partition, doc.election),
        "verdict": satisfied,
        "trace": trace,
    }
    return RunReport(tuple(argv), outcome, payload, tuple(lines))


def _cmd_solve(args, argv) -> RunReport:
    control_type = _control_type(args.type)
    doc, instance = _instance_from(args)
    polynomial = POLYNOMIAL_SEARCHES.get((instance.election.system, control_type))
    payload = {
        "type": str(control_type),
        "election": serialize_election(doc),
        "focus": instance.focus,
    }
    if args.algorithm == "poly" or (args.algorithm == "auto" and polynomial is not None):
        # Off its table, polynomial_search refuses by naming the system and type.
        outcome = polynomial_search(control_type, instance)
        algorithm = polynomial[0]
    else:
        name = "oracle" if args.algorithm == "oracle" else "brute"
        algorithm, worst = SEARCHES[name]
        evaluations = worst(encoding_length(instance, control_type.partition_kind))
        if evaluations > args.max_evals:
            raise UsageError(
                f"{algorithm} needs up to {evaluations} two-stage evaluations, above "
                f"the cap of {args.max_evals}{_RAISE_CAP}"
            )
        if name == "brute":
            outcome = brute_force_search(control_type, instance)
        else:
            oracle = BruteForceOracle()
            outcome = lex_min_search_with_oracle(control_type, instance, oracle)
            payload["oracle_calls"] = oracle.calls
    payload["algorithm"] = algorithm
    if outcome.solution is None:
        payload["solution"] = None
        lines = [f"no solution ({algorithm})"]
        return RunReport(tuple(argv), "no-solution", payload, tuple(lines))
    payload["solution"] = serialize_partition(outcome.solution, doc.election)
    lines = [f"solution found ({algorithm}): " + payload["solution"].strip()]
    return RunReport(tuple(argv), "solution-found", payload, tuple(lines))


def _cmd_reduce(args, argv) -> RunReport:
    from_type = _control_type(args.from_type)
    to_type = _control_type(args.to_type)
    doc, instance = _instance_from(args)
    system = doc.election.system
    chain = find_transfer_chain(system, to_type, from_type)
    if chain is None:
        raise UsageError(
            f"no transfer route from {from_type} to {to_type} is registered "
            f"for {system.value}"
        )
    partition = parse_partition(
        _read(args.solution), from_type.partition_kind, doc.election
    )
    outcomes = compose(chain, instance, partition)
    if outcomes:
        solution = outcomes[-1].solution
    else:
        solution = partition if verify_solution(from_type, instance, partition) else None
    steps = [
        {"rule": rule.describe(), "rejected": not outcome.found}
        for rule, outcome in zip(chain, outcomes)
    ]
    lines = [f"route: {from_type} -> {to_type} in {len(chain)} step(s)"]
    lines += [f"  step {i + 1}: {s['rule']}" for i, s in enumerate(steps)]
    payload = {
        "from": str(from_type),
        "to": str(to_type),
        "election": serialize_election(doc),
        "focus": instance.focus,
        "input": serialize_partition(partition, doc.election),
        "steps": steps,
        "solution": None if solution is None else serialize_partition(solution, doc.election),
    }
    if solution is None:
        lines.append("rejected: the input does not verify for the source type")
        return RunReport(tuple(argv), "transfer-rejected", payload, tuple(lines))
    lines.append("solution: " + payload["solution"].strip())
    if args.trace:
        checked = check_solution(to_type, instance, solution)
        lines += _trace_lines(_trace_payload(checked.trace, doc.election))
    return RunReport(tuple(argv), "transfer-solution", payload, tuple(lines))


def _cmd_collapse_scan(args, argv) -> RunReport:
    tags = args.pair.split(",")
    if len(tags) != 2:
        raise UsageError("--pair takes two comma-separated type tags")
    pair = tuple(_control_type(t) for t in tags)
    universe = Universe(
        System(args.system),
        args.max_candidates,
        args.max_votes,
        as_multisets=not args.sequences,
    )
    try:
        report = collapse_scan(pair, universe, args.max_evals)
    except UniverseTooLargeError as err:
        raise UsageError(f"{err}{_RAISE_CAP}") from err
    lines = [report.summary()]
    shown = []
    for ce in report.counterexamples[:20]:
        doc = ElectionDocument(ce.instance.election, ce.instance.focus)
        lines.append(
            f"  in {ce.containing_type} only: focus {ce.instance.focus!r} of "
            + serialize_election(doc).replace("\n", "; ").rstrip("; ")
        )
        shown.append(
            {
                "election": serialize_election(doc),
                "focus": ce.instance.focus,
                "containing_type": str(ce.containing_type),
                "missing_type": str(ce.missing_type),
                "witness": serialize_partition(ce.witness, ce.instance.election),
            }
        )
    if len(report.counterexamples) > 20:
        lines.append(f"  ... and {len(report.counterexamples) - 20} more")
    payload = {
        "pair": [str(t) for t in report.types],
        "universe": report.universe.describe(),
        "instances_checked": report.instances_checked,
        "counterexample_count": len(report.counterexamples),
        "counterexamples": shown,
    }
    outcome = "collapse-agree" if report.agree else "collapse-counterexamples"
    return RunReport(tuple(argv), outcome, payload, tuple(lines))


def _cmd_encode_hs(args, argv) -> RunReport:
    hs = parse_hitting_set(_read(args.hitting_set))
    encoded = encode_hitting_set(hs)
    doc = ElectionDocument(encoded.election, encoded.instance.focus)
    lines = ["vote blocks:"]
    lines += [
        f"  {block.label}: {block.count} x {block.ballot}" for block in encoded.blocks
    ]
    lines.append("")
    lines.append(serialize_election(doc).rstrip("\n"))
    payload = {
        "hitting_set": serialize_hitting_set(hs),
        "election": serialize_election(doc),
        "focus": encoded.instance.focus,
        "blocks": [
            {"label": b.label, "count": b.count, "ballot": str(b.ballot)}
            for b in encoded.blocks
        ],
    }
    return RunReport(tuple(argv), "encoded", payload, tuple(lines))


def _cmd_decode_hs(args, argv) -> RunReport:
    hs = parse_hitting_set(_read(args.hitting_set))
    encoded = encode_hitting_set(hs)
    partition = parse_partition(
        _read(args.solution), PartitionKind.CANDIDATE, encoded.election
    )
    extracted = extract_hitting_set(encoded, partition)
    ordered = None if extracted is None else _in_order(extracted, hs.elements)
    payload = {
        "hitting_set": serialize_hitting_set(hs),
        "solution": serialize_partition(partition, encoded.election),
        "extracted": ordered,
    }
    if ordered is None:
        lines = ("rejected: the partition does not verify on the encoded instance",)
        return RunReport(tuple(argv), "extraction-rejected", payload, lines)
    lines = (f"hitting set: {_fmt_set(ordered)} (size {len(ordered)}, bound {hs.bound})",)
    return RunReport(tuple(argv), "extracted", payload, lines)


_HANDLERS = {
    "winners": _cmd_winners,
    "evaluate": _cmd_evaluate,
    "verify": _cmd_evaluate,
    "solve": _cmd_solve,
    "reduce": _cmd_reduce,
    "collapse-scan": _cmd_collapse_scan,
    "encode-hs": _cmd_encode_hs,
    "decode-hs": _cmd_decode_hs,
}


def run_command(argv) -> tuple[int, RunReport]:
    """Execute one CLI invocation, returning (exit code, report)."""
    argv = list(argv)
    try:
        args = _parse_args(argv)
        report = _HANDLERS[args.subcommand](args, argv)
    except (UsageError, DocumentParseError, ElectionError, TransferError, ValueError) as err:
        report = RunReport(
            tuple(argv), "error", {"message": str(err)}, (f"error: {err}",)
        )
    except InvariantError as err:
        report = RunReport(
            tuple(argv), "internal-error", {"message": str(err)}, (f"internal error: {err}",)
        )
    return exit_code_for(report.outcome), report


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        code, report = run_command(argv)
    except SystemExit as exit_request:  # argparse --help
        return 0 if exit_request.code in (0, None) else 2
    stream = sys.stderr if code >= 2 else sys.stdout
    print(report.render(), file=stream)
    return code


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
