import contextlib
import gc
import io
import itertools
import json
import os
import pathlib
import re
import string
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from controlforge import (
    ControlInstance,
    Election,
    System,
    Vote,
    VoteCollection,
    cli,
    make_election,
    solvers,
)
from controlforge.cli import (
    DocumentParseError,
    ElectionDocument,
    exit_code_for,
    parse_election,
    parse_hitting_set,
    parse_partition,
    run_command,
    serialize_election,
    serialize_hitting_set,
    serialize_partition,
)
from controlforge.control import ALL_CONTROL_TYPES, ControlTypeId, Partition, PartitionKind
from controlforge.elections import (
    InvalidCandidateError,
    check_candidate_name,
    subset_winners,
    vote_kind_for,
)
from controlforge.hardness import (
    FOCUS_NAME,
    SPOILER_NAME,
    HittingSetInstance,
    encode_hitting_set,
)

from election_strategies import ballots, partitions_for

PLURALITY_DOC = """\
# a small plurality race
system: plurality
candidates: a b
2 x a>b
b>a
"""

APPROVAL_DOC = """\
system: approval
candidates: p a
distinguished: p
{a}
"""

# Four candidates and four voters, so L = 4 for every type; some of the 24
# types have a solution here and some do not.
RACE_DOC = """\
system: plurality
candidates: a b c d
distinguished: b
a>b>c>d
b>a>c>d
c>a>b>d
d>a>b>c
"""


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return str(path)


class TestElectionDocuments:
    def test_parse_plurality_with_multiplicities(self):
        doc = parse_election(PLURALITY_DOC)
        assert doc.election == make_election(
            "plurality", "ab", [("ab", 2), ("ba", 1)]
        )
        assert doc.distinguished is None

    def test_parse_approval_subset_notation(self):
        doc = parse_election(APPROVAL_DOC)
        assert doc.election.votes.groups == ((Vote.approval("a"), 1),)
        assert doc.distinguished == "p"

    def test_empty_approval_ballot(self):
        doc = parse_election("system: approval\ncandidates: a\n{}\n")
        assert doc.election.votes.groups == ((Vote.approval(()), 1),)

    @pytest.mark.parametrize(
        "body,fragment",
        [
            ("a>a", "repeats"),
            ("a>z", "unknown candidate"),
            ("a", "is not a permutation"),
            ("{a}", "take order ballots, got approval"),
            ("a>", "unknown candidate ''"),
            ("0 x a>b", "multiplicity must be positive"),
            ("{a", "unterminated approval ballot"),
        ],
    )
    def test_ballot_errors_carry_line_numbers(self, body, fragment):
        text = f"system: plurality\ncandidates: a b\n{body}\n"
        with pytest.raises(DocumentParseError) as err:
            parse_election(text)
        assert fragment in str(err.value)
        assert "line 3" in str(err.value)
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "body, message",
        [
            ("{a,a}", "ballot {a,a} repeats a candidate"),
            ("{z}", "ballot names unknown candidate 'z'"),
            ("{a,}", "ballot names unknown candidate ''"),
            ("a>b", "approval elections take approval ballots, got order"),
            ("0 x {a}", "vote multiplicity must be positive"),
        ],
    )
    def test_approval_ballot_errors_name_their_line(self, body, message):
        # The defect sits on line 4, after a valid ballot on line 3.
        text = f"system: approval\ncandidates: a b\n{{b}}\n{body}\n"
        with pytest.raises(DocumentParseError) as err:
            parse_election(text)
        assert err.value.line == 4
        assert str(err.value) == f"line 4: {message}"

    @pytest.mark.parametrize(
        "names, message",
        [
            ("a b:c", "candidate name 'b:c' contains reserved character ':'"),
            ("a a", "duplicate candidate name 'a'"),
            ("", "an election needs at least one candidate"),
        ],
    )
    def test_candidate_list_errors_name_their_line(self, names, message):
        text = f"# comment\nsystem: plurality\ncandidates: {names}\na\n"
        with pytest.raises(DocumentParseError) as err:
            parse_election(text)
        assert err.value.line == 3
        assert str(err.value) == f"line 3: {message}"

    def test_votes_before_headers_rejected(self):
        with pytest.raises(DocumentParseError):
            parse_election("a>b\nsystem: plurality\ncandidates: a b\n")

    def test_unknown_distinguished_rejected(self):
        with pytest.raises(DocumentParseError) as err:
            parse_election("system: plurality\ncandidates: a b\ndistinguished: z\n")
        assert err.value.line == 3
        assert str(err.value) == "line 3: distinguished candidate 'z' is not running"

    @pytest.mark.parametrize(
        "text, key, line",
        [
            ("system: plurality\nsystem: veto\ncandidates: a b\n", "system", 2),
            ("system: plurality\ncandidates: a b c\na>b>c\ncandidates: b c a\n", "candidates", 4),
            (
                "system: plurality\ncandidates: a b\ndistinguished: a\ndistinguished: b\n",
                "distinguished",
                4,
            ),
        ],
        ids=["system", "candidates", "distinguished"],
    )
    def test_header_given_twice_names_its_second_line(self, text, key, line):
        with pytest.raises(DocumentParseError) as err:
            parse_election(text)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: duplicate '{key}:' line"

    def test_round_trip(self):
        for text in (PLURALITY_DOC, APPROVAL_DOC):
            doc = parse_election(text)
            again = parse_election(serialize_election(doc))
            assert again.election == doc.election
            assert again.distinguished == doc.distinguished


def _reference_parse(system, names, ballots):
    """The old per-ballot walk: (line of the first defect, None) or (None, election).

    The document is ``system:`` on line 1, ``candidates: names`` on line 2
    and one ballot per line from line 3; each check reads a single line.
    """
    candidates = tuple(names.split())
    if not candidates or len(set(candidates)) != len(candidates):
        return 2, None
    approval_election = system is System.APPROVAL
    groups = []
    for lineno, text in enumerate(ballots, start=3):
        mult = 1
        matched = re.match(r"^(\d+)\s*x\s+(.*)$", text)
        if matched:
            mult, text = int(matched.group(1)), matched.group(2).strip()
            if mult < 1:
                return lineno, None
        if text.startswith("{"):
            body = text[1:-1].strip()
            entries = [t.strip() for t in body.split(",")] if body else []
            if not approval_election:
                return lineno, None
        else:
            entries = [t.strip() for t in text.split(">")]
            if approval_election:
                return lineno, None
        if not all(entries) or not set(entries) <= set(candidates):
            return lineno, None
        if len(set(entries)) != len(entries):
            return lineno, None
        if not approval_election and len(entries) != len(candidates):
            return lineno, None
        groups.append((Vote(vote_kind_for(system), tuple(entries)), mult))
    return None, Election(system, VoteCollection(candidates, tuple(groups)))


def _ballot_pool(system, names):
    """Ballot lines over ``names``: valid ones first, then one of each defect."""
    if system is System.APPROVAL:
        valid = ["{}", "{" + ",".join(reversed(names)) + "}", "3 x {a}"]
        # A repeat, an unknown name, an empty name, a ranking, multiplicity 0.
        return valid + ["{a,a}", "{z}", "{a,}", ">".join(names), "0 x {a}"]
    ranking = ">".join(names)
    valid = [ranking, ">".join(reversed(names)), "2 x " + ranking]
    malformed = [
        ranking + ">a",  # a repeat
        ">".join(names[:-1] + ["z"]),  # an unknown name
        ranking + ">",  # an empty name
        "{a}",  # an approval ballot
        "0 x " + ranking,
    ]
    if len(names) > 1:
        malformed.append(">".join(names[:-1]))  # an incomplete ranking
    return valid + malformed


class TestElectionDocumentsMatchReference:
    """The parser refuses what the per-item walk refused, at its line, and builds the same election."""

    @pytest.mark.parametrize("system", list(System))
    def test_every_small_document(self, system):
        refused = 0
        for m in (1, 2, 3):
            names = list("abc"[:m])
            pool = _ballot_pool(system, names)
            for candidate_line in (" ".join(names), " ".join(names + ["a"]), ""):
                for count in range(4):
                    for ballots in itertools.product(pool, repeat=count):
                        text = f"system: {system.value}\ncandidates: {candidate_line}\n"
                        text += "".join(f"{ballot}\n" for ballot in ballots)
                        line, election = _reference_parse(system, candidate_line, ballots)
                        if line is None:
                            assert parse_election(text).election == election, text
                            continue
                        refused += 1
                        with pytest.raises(DocumentParseError) as err:
                            parse_election(text)
                        # Both name the first defective line in document
                        # order, so the lines agree for any number of defects.
                        assert err.value.line == line, text
        assert refused > 0


class TestPartitionDocuments:
    ELECTION = make_election("approval", "pa", [(("a",), 1)])

    def test_empty_first_block(self):
        partition = parse_partition(
            "block1: | block2: p a", PartitionKind.CANDIDATE, self.ELECTION
        )
        assert partition == Partition.of_candidates(set(), {"p", "a"})

    def test_overlap_rejected(self):
        with pytest.raises(DocumentParseError):
            parse_partition("block1: p | block2: p a", PartitionKind.CANDIDATE, self.ELECTION)

    def test_omission_rejected(self):
        with pytest.raises(DocumentParseError):
            parse_partition("block1: p | block2:", PartitionKind.CANDIDATE, self.ELECTION)

    def test_unknown_name_rejected(self):
        with pytest.raises(DocumentParseError):
            parse_partition("block1: z | block2: p a", PartitionKind.CANDIDATE, self.ELECTION)

    def test_voter_indices(self):
        election = make_election("plurality", "ab", [("ab", 2), ("ba", 1)])
        partition = parse_partition("block1: 0 2 | block2: 1", PartitionKind.VOTER, election)
        assert partition == Partition.of_voters({0, 2}, {1})
        with pytest.raises(DocumentParseError):
            parse_partition("block1: 0 | block2: 1 3", PartitionKind.VOTER, election)
        # "²" is a digit to str.isdigit but not a number to int.
        with pytest.raises(DocumentParseError):
            parse_partition("block1: 0 ² | block2: 1", PartitionKind.VOTER, election)

    @pytest.mark.parametrize(
        "text, kind, message",
        [
            ("block1: a a | block2: b c", PartitionKind.CANDIDATE, "block1 repeats 'a'"),
            ("block1: 0 0 | block2: 1", PartitionKind.VOTER, "block1 repeats 0"),
            ("block1: 0 | block2: 1 01", PartitionKind.VOTER, "block2 repeats 1"),
        ],
    )
    def test_repeated_item_rejected(self, text, kind, message):
        election = make_election("plurality", "abc", [("abc", 1), ("cab", 1)])
        with pytest.raises(DocumentParseError) as err:
            parse_partition(text, kind, election)
        assert str(err.value) == message

    def test_repeat_at_the_end_of_a_long_block_is_found_in_one_pass(self):
        # Searching the items before each item took seconds here.
        text = "block1: " + " ".join(map(str, range(20_000))) + " 19999 | block2:"
        election = make_election("plurality", "ab", [("ab", 20_000)])
        start = time.perf_counter()
        with pytest.raises(DocumentParseError) as err:
            parse_partition(text, PartitionKind.VOTER, election)
        assert time.perf_counter() - start < 0.5
        assert str(err.value) == "block1 repeats 19999"

    def test_round_trip(self):
        partition = Partition.of_candidates({"a"}, {"p"})
        text = serialize_partition(partition, self.ELECTION)
        assert parse_partition(text, PartitionKind.CANDIDATE, self.ELECTION) == partition


def _accepted(name):
    try:
        check_candidate_name(name)
    except InvalidCandidateError:
        return False
    return True


# Any name the model accepts, not just the tame ones the other tests use;
# punctuation is drawn often because the formats give some of it a meaning.
names = st.text(
    st.characters() | st.sampled_from(string.punctuation), min_size=1, max_size=3
).filter(_accepted)


@st.composite
def election_documents(draw):
    system = draw(st.sampled_from(list(System)))
    candidates = tuple(draw(st.lists(names, min_size=1, max_size=4, unique=True)))
    groups = draw(
        st.lists(st.tuples(ballots(system, candidates), st.integers(1, 3)), max_size=4)
    )
    distinguished = draw(st.none() | st.sampled_from(candidates))
    election = Election(system, VoteCollection(candidates, tuple(groups)))
    return ElectionDocument(election, distinguished)


@st.composite
def hitting_sets(draw):
    elements = draw(
        st.lists(
            names.filter(lambda n: n not in (FOCUS_NAME, SPOILER_NAME)),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    subsets = st.sets(st.sampled_from(elements), min_size=1).map(frozenset)
    sets = draw(st.lists(subsets, max_size=3))
    bound = draw(st.integers(1, len(elements)))
    return HittingSetInstance(tuple(elements), tuple(sets), bound)


class TestDocumentRoundTrips:
    @given(election_documents())
    def test_election_documents(self, doc):
        assert parse_election(serialize_election(doc)) == doc

    @given(election_documents(), st.sampled_from(list(PartitionKind)), st.data())
    def test_partition_documents(self, doc, kind, data):
        instance = ControlInstance(doc.election, doc.election.candidates[0])
        partition = data.draw(partitions_for(instance, kind))
        text = serialize_partition(partition, doc.election)
        assert parse_partition(text, kind, doc.election) == partition

    @given(hitting_sets())
    def test_hitting_set_documents(self, hs):
        assert parse_hitting_set(serialize_hitting_set(hs)) == hs

    def test_no_election_without_candidates(self):
        # It would serialize to a bare "candidates:" line, which no
        # document may carry.
        with pytest.raises(InvalidCandidateError):
            Election(System.PLURALITY, VoteCollection((), ()))
        with pytest.raises(DocumentParseError):
            parse_election("system: plurality\ncandidates:\n")


class TestHittingSetDocuments:
    def test_parse_and_round_trip(self):
        text = "elements: b1 b2\nk: 1\nset: b1 b2\nset: b1\n"
        hs = parse_hitting_set(text)
        assert hs == HittingSetInstance(
            ("b1", "b2"), (frozenset({"b1", "b2"}), frozenset({"b1"})), 1
        )
        assert parse_hitting_set(serialize_hitting_set(hs)) == hs

    # Each defect with the line it is reported on; a missing header has none.
    @pytest.mark.parametrize(
        "text, line",
        [
            ("k: 1\nset: b1\n", None),
            ("elements: b1\nset: b1\n", None),
            ("elements: b1\nk: 0\n", 2),
            ("elements: b1\nk: 1\nset:\n", 3),
            ("elements: b1\nk: one\n", 2),
            ("elements: b1\nk: \u00b2\n", 2),
            ("elements: b1\nk: --1\n", 2),
            ("elements: b1\nk: 1\nset: b1 b1\n", 3),
            ("elements:\nk: 1\n", 1),
            ("elements: b1\nk: 1\nset: b9\n", 3),
            ("elements: b1 b1\nk: 1\n", 1),
            ("elements: b1\nk: 5\nset: b1\n", 2),
            ("elements: c\nk: 1\n", 1),
            ("elements: b,1\nk: 1\n", 1),
            ("k: 1\nelements: b1 b2\nset: b1\nset: b3\n", 4),
            ("elements: b1 b2\nk: 3\nset: b3\n", 2),
        ],
    )
    def test_malformed_documents(self, text, line):
        with pytest.raises(DocumentParseError) as err:
            parse_hitting_set(text)
        assert err.value.line == line
        if line is not None:
            assert str(err.value).startswith(f"line {line}: ")

    def test_repeated_set_member_names_its_line(self):
        with pytest.raises(DocumentParseError) as err:
            parse_hitting_set("elements: b1 b2\nk: 1\nset: b2\nset: b1 b1\n")
        assert err.value.line == 4
        assert str(err.value) == "line 4: set repeats 'b1'"

    def test_empty_ground_set_refused_by_name(self):
        with pytest.raises(DocumentParseError) as err:
            parse_hitting_set("elements:\nk: 1\n")
        assert str(err.value) == "line 1: the ground set needs at least one element"

    @pytest.mark.parametrize(
        "text, key",
        [
            ("elements: b1 b2\nk: 1\nk: 2\nset: b1\n", "k"),
            ("elements: b1 b2\nk: 1\nelements: b1\n", "elements"),
        ],
        ids=["k", "elements"],
    )
    def test_header_given_twice_names_its_second_line(self, text, key):
        with pytest.raises(DocumentParseError) as err:
            parse_hitting_set(text)
        assert err.value.line == 3
        assert str(err.value) == f"line 3: duplicate '{key}:' line"

    @pytest.mark.parametrize("bound", ["one", "\u00b2", "--1", "1.0"])
    def test_non_integer_bound_names_its_line(self, bound):
        with pytest.raises(DocumentParseError) as err:
            parse_hitting_set(f"elements: b1\nk: {bound}\nset: b1\n")
        assert err.value.line == 2
        assert str(err.value) == f"line 2: k must be an integer, got {bound!r}"


def last_json(report):
    return json.loads(report.render().splitlines()[-1])


class TestRunCommand:
    def test_winners(self, tmp_path):
        path = write(tmp_path, "e.txt", PLURALITY_DOC)
        code, report = run_command(["winners", path])
        assert code == 0
        payload = last_json(report)
        assert payload["winners"] == ["a"]
        assert payload["scores"] == {"a": 2, "b": 1}

    def test_verify_true_and_false(self, tmp_path):
        election = write(tmp_path, "e.txt", APPROVAL_DOC)
        partition = write(tmp_path, "p.txt", "block1: | block2: p a\n")
        code, report = run_command(
            ["verify", "--type", "DC-PC-TE-UW", "--partition", partition, election]
        )
        assert code == 0
        assert last_json(report)["outcome"] == "verified-true"
        code, report = run_command(
            ["verify", "--type", "CC-PC-TP-NUW", "--partition", partition, election]
        )
        assert code == 1
        assert last_json(report)["outcome"] == "verified-false"

    def test_evaluate_prints_trace_and_agrees_with_verify(self, tmp_path):
        election = write(tmp_path, "e.txt", APPROVAL_DOC)
        partition = write(tmp_path, "p.txt", "block1: p | block2: a\n")
        code, report = run_command(
            ["evaluate", "--type", "DC-PC-TE-UW", "--partition", partition, election]
        )
        assert code == 0
        payload = last_json(report)
        assert payload["trace"]["final_winners"] == ["a"]
        code2, report2 = run_command(
            ["verify", "--type", "DC-PC-TE-UW", "--partition", partition, election]
        )
        assert payload["verdict"] == last_json(report2)["verdict"]
        assert (code == 0) == (code2 == 0)

    def test_candidate_flag_overrides_file(self, tmp_path):
        election = write(tmp_path, "e.txt", APPROVAL_DOC)
        partition = write(tmp_path, "p.txt", "block1: | block2: p a\n")
        code, report = run_command(
            [
                "verify",
                "--type",
                "DC-PC-TE-UW",
                "--partition",
                partition,
                "--candidate",
                "a",
                election,
            ]
        )
        # a is the unique winner, so dethroning it by doing nothing fails.
        assert code == 1
        assert last_json(report)["focus"] == "a"

    def test_empty_candidate_flag_is_a_usage_error(self, tmp_path):
        # Only a missing flag falls back to the document's distinguished: p.
        election = write(tmp_path, "e.txt", APPROVAL_DOC)
        code, report = run_command(
            ["solve", "--type", "DC-PC-TP-NUW", "--candidate", "", election]
        )
        assert code == 2
        assert last_json(report)["message"] == "distinguished candidate '' is not running"

    def test_solve_auto_uses_immunity_algorithm(self, tmp_path):
        election = write(tmp_path, "e.txt", APPROVAL_DOC)
        code, report = run_command(["solve", "--type", "DC-PC-TP-NUW", election])
        assert code == 0
        payload = last_json(report)
        assert payload["algorithm"] == "approval-immunity"
        assert payload["solution"] == "block1: | block2: p a\n"
        code, report = run_command(["solve", "--type", "CC-PC-TP-NUW", election])
        assert code == 1
        assert last_json(report)["algorithm"] == "approval-immunity"

    def test_solve_auto_uses_isolate_algorithm(self, tmp_path):
        election = write(tmp_path, "e.txt", APPROVAL_DOC)
        code, report = run_command(["solve", "--type", "CC-RPC-TE-NUW", election])
        assert code == 1
        assert last_json(report)["algorithm"] == "approval-isolate"
        tied = write(tmp_path, "tied.txt", APPROVAL_DOC + "{p}\n")
        code, report = run_command(["solve", "--type", "CC-RPC-TE-NUW", tied])
        assert code == 0
        payload = last_json(report)
        assert payload["algorithm"] == "approval-isolate"
        assert payload["solution"] == "block1: p | block2: a\n"

    def test_solve_oracle_reports_call_count(self, tmp_path):
        election = write(tmp_path, "e.txt", APPROVAL_DOC)
        code, report = run_command(
            ["solve", "--type", "DC-PC-TP-NUW", "--algorithm", "oracle", election]
        )
        assert code == 0
        payload = last_json(report)
        assert payload["algorithm"] == "oracle-binary-search"
        assert payload["oracle_calls"] <= 2 * 2 + 1

    def test_solve_poly_refused_off_scope(self, tmp_path):
        election = write(tmp_path, "e.txt", PLURALITY_DOC + "distinguished: a\n")
        code, report = run_command(
            ["solve", "--type", "DC-PC-TP-NUW", "--algorithm", "poly", election]
        )
        assert code == 2
        assert report.outcome == "error"
        message = report.payload["message"]
        assert "plurality" in message and "DC-PC-TP-NUW" in message

    def test_solve_requires_focus(self, tmp_path):
        election = write(tmp_path, "e.txt", PLURALITY_DOC)
        code, report = run_command(["solve", "--type", "DC-PC-TP-NUW", election])
        assert code == 2
        assert "distinguished" in report.payload["message"]

    def test_reduce_constructive_route(self, tmp_path):
        election = write(
            tmp_path,
            "e.txt",
            "system: plurality\ncandidates: p a b\ndistinguished: p\na>p>b\na>b>p\np>a>b\n",
        )
        solution = write(tmp_path, "s.txt", "block1: p | block2: a b\n")
        code, report = run_command(
            [
                "reduce",
                "--from",
                "DC-RPC-TP-NUW",
                "--to",
                "DC-PC-TP-NUW",
                "--solution",
                solution,
                election,
            ]
        )
        assert code == 0
        payload = last_json(report)
        assert payload["solution"] == "block1: p a | block2: b\n"
        assert "via_fallback" not in payload

    def test_reduce_rejects_non_solution(self, tmp_path):
        election = write(
            tmp_path,
            "e.txt",
            "system: plurality\ncandidates: p a\ndistinguished: p\np>a\n",
        )
        solution = write(tmp_path, "s.txt", "block1: | block2: p a\n")
        code, report = run_command(
            [
                "reduce",
                "--from",
                "DC-RPC-TP-NUW",
                "--to",
                "DC-PC-TP-NUW",
                "--solution",
                solution,
                election,
            ]
        )
        assert code == 1
        assert report.outcome == "transfer-rejected"

    @pytest.mark.parametrize(
        "document, given, source, steps",
        [
            ("system: plurality\ncandidates: p a b\ndistinguished: p\na>p>b\na>b>p\np>a>b\n",
             "block1: a | block2: p b\n", "DC-PC-TE-NUW", 2),
            (RACE_DOC, "block1: a | block2: b c d\n", "DC-PC-TE-UW", 3),
        ],
        ids=["two-rule", "three-rule"],
    )
    def test_reduce_chained_route(self, tmp_path, document, given, source, steps):
        election = write(tmp_path, "e.txt", document)
        solution = write(tmp_path, "s.txt", given)
        code, report = run_command(
            [
                "reduce",
                "--from",
                source,
                "--to",
                "DC-RPC-TE-UW",
                "--solution",
                solution,
                election,
            ]
        )
        assert code == 0
        payload = last_json(report)
        assert len(payload["steps"]) == steps
        assert not any(step["rejected"] for step in payload["steps"])
        output = write(tmp_path, "out.txt", payload["solution"])
        code, report = run_command(
            ["verify", "--type", "DC-RPC-TE-UW", "--partition", output, election]
        )
        assert code == 0
        assert last_json(report)["outcome"] == "verified-true"

    def test_reduce_zero_step_route_rejects_non_solution(self, tmp_path):
        election = write(
            tmp_path,
            "e.txt",
            "system: plurality\ncandidates: p a\ndistinguished: p\np>a\n",
        )
        solution = write(tmp_path, "s.txt", "block1: | block2: p a\n")
        code, report = run_command(
            [
                "reduce",
                "--from",
                "DC-PC-TE-NUW",
                "--to",
                "DC-PC-TE-NUW",
                "--solution",
                solution,
                election,
            ]
        )
        assert code == 1
        payload = last_json(report)
        assert payload["outcome"] == "transfer-rejected"
        assert payload["steps"] == []
        assert payload["solution"] is None

    def test_reduce_rejection_reports_the_first_step(self, tmp_path):
        # The chain decides its input once, so a rejection is step 1's.
        election = write(
            tmp_path,
            "e.txt",
            "system: plurality\ncandidates: p a\ndistinguished: p\np>a\n",
        )
        solution = write(tmp_path, "s.txt", "block1: | block2: p a\n")
        code, report = run_command(
            [
                "reduce",
                "--from",
                "DC-PC-TE-UW",
                "--to",
                "DC-RPC-TE-UW",
                "--solution",
                solution,
                election,
            ]
        )
        assert code == 1
        payload = last_json(report)
        assert payload["outcome"] == "transfer-rejected"
        assert payload["steps"] == [
            {"rule": "plurality: DC-PC-TE-NUW <- DC-PC-TE-UW [te_cycle_step]", "rejected": True}
        ]
        assert payload["solution"] is None

    def test_reduce_zero_step_route_keeps_a_solution(self, tmp_path):
        election = write(
            tmp_path,
            "e.txt",
            "system: plurality\ncandidates: p a b\ndistinguished: p\na>p>b\na>b>p\np>a>b\n",
        )
        solution = write(tmp_path, "s.txt", "block1: a | block2: p b\n")
        code, report = run_command(
            [
                "reduce",
                "--from",
                "DC-PC-TE-NUW",
                "--to",
                "DC-PC-TE-NUW",
                "--solution",
                solution,
                election,
            ]
        )
        assert code == 0
        payload = last_json(report)
        assert payload["steps"] == []
        assert payload["solution"] == payload["input"] == "block1: a | block2: p b\n"

    def test_reduce_without_route_is_usage_error(self, tmp_path):
        election = write(
            tmp_path,
            "e.txt",
            "system: plurality\ncandidates: p a\ndistinguished: p\np>a\n",
        )
        solution = write(tmp_path, "s.txt", "block1: | block2: p a\n")
        code, report = run_command(
            [
                "reduce",
                "--from",
                "CC-RPC-TE-UW",
                "--to",
                "CC-PC-TE-UW",
                "--solution",
                solution,
                election,
            ]
        )
        assert code == 2

    def test_collapse_scan_exit_codes(self):
        code, report = run_command(
            [
                "collapse-scan",
                "--pair",
                "DC-RPC-TP-NUW,DC-PC-TP-NUW",
                "--system",
                "plurality",
                "--max-candidates",
                "2",
                "--max-votes",
                "2",
            ]
        )
        assert code == 0
        assert last_json(report)["counterexample_count"] == 0
        code, report = run_command(
            [
                "collapse-scan",
                "--pair",
                "CC-PC-TE-UW,DC-PC-TE-UW",
                "--system",
                "approval",
                "--max-candidates",
                "2",
                "--max-votes",
                "2",
            ]
        )
        assert code == 1
        assert last_json(report)["counterexample_count"] > 0

    def test_collapse_scan_sequences(self):
        # Two ballots of different kinds are one multiset but two sequences.
        # A cap equal to the scan's estimate lets it run.
        pair = "DC-RPC-TP-NUW,DC-PC-TP-NUW"
        sequences = solvers.Universe("plurality", 2, 2, as_multisets=False)
        multisets = solvers.Universe("plurality", 2, 2)
        estimate = solvers.estimated_scan_evaluations(
            tuple(map(ControlTypeId.parse, pair.split(","))), sequences
        )
        code, report = run_command(
            ["collapse-scan", "--pair", pair, "--system", "plurality", "--max-candidates", "2",
             "--max-votes", "2", "--sequences", "--max-evals", str(estimate)]
        )
        assert code == 0
        payload = last_json(report)
        assert payload["universe"].endswith("(ballot sequences)")
        assert payload["instances_checked"] == solvers.instance_count(sequences)
        assert payload["instances_checked"] > solvers.instance_count(multisets)

    def test_collapse_scan_cap_flag(self):
        code, report = run_command(
            [
                "collapse-scan",
                "--pair",
                "DC-RPC-TP-NUW,DC-PC-TP-NUW",
                "--system",
                "plurality",
                "--max-candidates",
                "2",
                "--max-votes",
                "2",
                "--max-evals",
                "5",
            ]
        )
        assert code == 2
        assert "cap" in report.payload["message"]

    @pytest.mark.parametrize(
        "candidates, votes, flag",
        [("-1", "2", "--max-candidates"), ("0", "2", "--max-candidates"),
         ("2", "-1", "--max-votes")],
    )
    def test_collapse_scan_refuses_an_empty_universe(self, candidates, votes, flag):
        code, report = run_command(
            ["collapse-scan", "--pair", "DC-RPC-TP-NUW,DC-PC-TP-NUW", "--system", "plurality",
             "--max-candidates", candidates, "--max-votes", votes]
        )
        assert (code, report.outcome) == (2, "error")
        assert report.payload["message"].startswith(f"argument {flag}: must be at least")

    @pytest.mark.parametrize(
        "argv",
        [
            ["collapse-scan", "--pair", "DC-RPC-TP-NUW,DC-PC-TP-NUW", "--system", "plurality",
             "--max-candidates", "2", "--max-votes", "1"],
            ["solve", "--type", "DC-PC-TP-NUW", "--algorithm", "brute"],
            ["solve", "--type", "DC-PC-TP-NUW", "--algorithm", "oracle"],
        ],
        ids=["collapse-scan", "brute", "oracle"],
    )
    def test_negative_cap_flag_is_a_usage_error(self, argv, tmp_path):
        if argv[0] == "solve":
            argv = argv + [write(tmp_path, "e.txt", PLURALITY_DOC + "distinguished: a\n")]
        code, report = run_command(argv + ["--max-evals", "-1"])
        assert (code, report.outcome) == (2, "error")
        assert report.payload["message"] == "argument --max-evals: must be at least 0, got -1"

    @pytest.mark.parametrize("candidates, code", [("12", 0), ("27", 2)])
    def test_zero_ballot_scan_builds_no_ballot(self, candidates, code, monkeypatch):
        # 12! ballots would take minutes and gigabytes; 27 candidates have
        # no names and are refused before any instance is built.
        def no_ballots(*args):
            raise AssertionError("a universe without ballots built its ballots")

        monkeypatch.setattr(solvers, "all_ballots", no_ballots)
        got, report = run_command(
            ["collapse-scan", "--pair", "DC-PV-TE-UW,DC-PV-TE-NUW", "--system", "veto",
             "--max-candidates", candidates, "--max-votes", "0"]
        )
        assert got == code
        if code:
            assert report.payload["message"] == "scan universes support at most 26 candidates"
        else:
            assert report.payload["instances_checked"] == 78

    def test_zero_cap_refuses_the_scan(self):
        code, report = run_command(
            ["collapse-scan", "--pair", "DC-RPC-TP-NUW,DC-PC-TP-NUW", "--system", "plurality",
             "--max-candidates", "2", "--max-votes", "1", "--max-evals", "0"]
        )
        assert code == 2
        assert report.payload["message"].endswith(
            "above the cap of 0 (pass --max-evals to raise it)"
        )

    @pytest.mark.parametrize("algorithm, worst", [("brute", 4), ("oracle", 8)])
    def test_solve_cap_counts_each_algorithms_worst_case(self, tmp_path, algorithm, worst):
        # Two candidates: brute force evaluates up to 2^2 partitions, the
        # oracle search up to 2^3; a cap one below that refuses the search.
        election = write(tmp_path, "e.txt", PLURALITY_DOC + "distinguished: a\n")
        solve = ["solve", "--type", "DC-PC-TP-NUW", "--algorithm", algorithm, "--max-evals"]
        code, _ = run_command(solve + [str(worst), election])
        assert code in (0, 1)
        code, report = run_command(solve + [str(worst - 1), election])
        assert code == 2
        assert f"{worst} two-stage evaluations" in report.payload["message"]

    def test_solve_cap_read_only_for_exponential_searches(self, tmp_path):
        election = write(tmp_path, "e.txt", APPROVAL_DOC + "{p}\n")
        code, report = run_command(
            ["solve", "--type", "CC-RPC-TE-NUW", "--max-evals", "0", election]
        )
        assert code == 0
        assert last_json(report)["algorithm"] == "approval-isolate"
        code, report = run_command(
            ["solve", "--type", "CC-RPC-TE-NUW", "--algorithm", "brute", "--max-evals", "0",
             election]
        )
        assert code == 2
        assert "--max-evals" in report.payload["message"]

    VETO_DOC = "system: veto\ncandidates: a b c\ndistinguished: b\na>b>c\na>b>c\nc>b>a\n"

    def test_solve_cap_refusal_says_how_to_raise_it(self, tmp_path):
        election = write(tmp_path, "e.txt", self.VETO_DOC)
        code, solved = run_command(
            ["solve", "--type", "DC-PV-TE-NUW", "--algorithm", "brute", "--max-evals", "0",
             election]
        )
        assert (code, solved.outcome) == (2, "error")
        assert solved.payload["message"].endswith("(pass --max-evals to raise it)")

    @pytest.mark.parametrize("algorithm, exponent", [("brute", 10**12), ("oracle", 10**12 + 1)])
    def test_solve_cap_refuses_a_huge_electorate_building_nothing_per_voter(
        self, tmp_path, algorithm, exponent
    ):
        # 10^12 voters on one ballot line: the cap reads their count, a sum over
        # lines, and compares 2^L by its exponent, so neither the voters nor 2^L is built.
        election = write(
            tmp_path, "e.txt", "system: plurality\ncandidates: a b c\ndistinguished: a\n"
            "1000000000000 x a>b>c\n"
        )
        gc.collect()
        tracemalloc.start()
        try:
            code, report = run_command(
                ["solve", "--type", "DC-PV-TE-NUW", "--algorithm", algorithm, election]
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, report.outcome) == (2, "error")
        label = solvers.SEARCHES[algorithm][0]
        assert report.payload["message"] == (
            f"{label} needs up to 2^{exponent} two-stage evaluations, above the cap of "
            "10000000 (pass --max-evals to raise it)"
        )
        assert peak < 1 << 20

    HUGE_DOC = "system: {}\ncandidates: a b c\ndistinguished: {}\n1000000000000 x {}\n"

    @pytest.mark.parametrize(
        "document, argv, expected",
        [
            (("plurality", "b", "a>b>c"), ["winners"],
             {"outcome": "winners", "scores": {"a": 10**12, "b": 0, "c": 0}, "winners": ["a"]}),
            (("plurality", "b", "a>b>c"), ["verify", "--type", "DC-RPC-TE-UW", "--partition"],
             {"outcome": "verified-true", "verdict": True}),
            (("plurality", "b", "a>b>c"),
             ["reduce", "--from", "DC-PC-TE-UW", "--to", "DC-RPC-TE-UW", "--solution"],
             {"outcome": "transfer-solution", "solution": "block1: a b c | block2:\n"}),
            (("approval", "a", "{a,b}"), ["solve", "--type", "CC-PC-TE-NUW"],
             {"outcome": "solution-found", "algorithm": "approval-isolate"}),
            (("plurality", "a", "a>b>c"),
             ["solve", "--type", "DC-PC-TP-NUW", "--algorithm", "brute"],
             {"outcome": "no-solution", "solution": None}),
        ],
        ids=["winners", "verify", "reduce", "approval-row", "brute"],
    )
    def test_candidate_questions_on_a_huge_electorate_build_nothing_per_voter(
        self, tmp_path, document, argv, expected
    ):
        # 10^12 voters on one ballot line: a candidate question reads the
        # line's count, and no voter mask is built.
        election = write(tmp_path, "e.txt", self.HUGE_DOC.format(*document))
        if argv[-1] in ("--partition", "--solution"):
            argv = argv + [write(tmp_path, "p.txt", "block1: a | block2: b c\n")]
        gc.collect()
        tracemalloc.start()
        try:
            code, report = run_command(argv + [election])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        payload = last_json(report)
        assert code == exit_code_for(expected["outcome"])
        assert {key: payload.get(key) for key in expected} == expected
        assert peak < 1 << 20

    @pytest.mark.parametrize("algorithm", ["auto", "poly"])
    def test_solve_veto_row(self, tmp_path, algorithm):
        # The veto-vetoers row verifies one partition, so it reads no cap.
        election = write(tmp_path, "e.txt", self.VETO_DOC)
        code, report = run_command(
            ["solve", "--type", "DC-PV-TE-NUW", "--algorithm", algorithm, "--max-evals", "0",
             election]
        )
        assert (code, report.outcome) == (0, "solution-found")
        payload = last_json(report)
        assert payload["algorithm"] == "veto-vetoers"
        assert payload["solution"] == "block1: 2 | block2: 0 1\n"

    @pytest.mark.parametrize(
        "source, target, output",
        [
            # The identity rule hands the solution on unchanged.
            ("DC-PV-TE-NUW", "DC-PV-TE-UW", "block1: 0 1 | block2: 2\n"),
            # The NUW output splits off a's one vetoer, the c>b>a ballot.
            ("DC-PV-TE-UW", "DC-PV-TE-NUW", "block1: 2 | block2: 0 1\n"),
        ],
        ids=["NUW-to-UW", "UW-to-NUW"],
    )
    def test_reduce_reads_no_cap(self, tmp_path, source, target, output):
        # Every transfer constructs its output, so reduce takes no cap, and
        # every route runs, the veto DC-PV-TE rule included.
        election = write(tmp_path, "e.txt", self.VETO_DOC)
        solution = write(tmp_path, "s.txt", "block1: 0 1 | block2: 2\n")
        reduce = ["reduce", "--from", source, "--to", target, "--solution", solution]
        code, report = run_command(reduce + [election])
        assert (code, report.outcome) == (0, "transfer-solution")
        assert last_json(report)["solution"] == output
        code, refused = run_command(reduce + ["--max-evals", "0", election])
        assert code == 2
        assert refused.payload["message"].startswith("unrecognized arguments: --max-evals")

    def test_every_type_solves_alike_on_a_cleared_table_cache(self, tmp_path):
        # The types of one action and tie rule share the election's mask
        # sweep and winner tables within a process; a type solved after
        # subset_winners.cache_clear() must get the same report.
        election = write(tmp_path, "e.txt", RACE_DOC)

        def solve(control_type):
            argv = ["solve", "--type", str(control_type), "--algorithm", "brute", election]
            return run_command(argv)[1].render()

        shared = [solve(control_type) for control_type in ALL_CONTROL_TYPES]
        fresh = []
        for control_type in ALL_CONTROL_TYPES:
            subset_winners.cache_clear()
            fresh.append(solve(control_type))
        assert shared == fresh
        outcomes = {json.loads(report.splitlines()[-1])["outcome"] for report in shared}
        assert outcomes == {"solution-found", "no-solution"}

    @pytest.mark.parametrize("control_type", ALL_CONTROL_TYPES, ids=str)
    def test_oracle_search_finds_brute_forces_solution(self, tmp_path, control_type):
        # The oracle search finds the least verifying partition, brute force's
        # answer, in at most 2L + 1 = 9 oracle calls at L = 4.
        election = write(tmp_path, "e.txt", RACE_DOC)
        brute, oracle = (
            last_json(run_command(
                ["solve", "--type", str(control_type), "--algorithm", algorithm, election]
            )[1])
            for algorithm in ("brute", "oracle")
        )
        assert oracle["solution"] == brute["solution"]
        assert oracle["oracle_calls"] <= 2 * 4 + 1

    def test_lying_oracle_is_an_internal_error(self, tmp_path, monkeypatch):
        class LyingOracle:
            calls = 0

            def __call__(self, control_type, instance, prefix, bits):
                return True

        monkeypatch.setattr(cli, "BruteForceOracle", LyingOracle)
        election = write(tmp_path, "e.txt", APPROVAL_DOC)
        code, report = run_command(
            ["solve", "--type", "CC-PC-TP-NUW", "--algorithm", "oracle", election]
        )
        assert (code, report.outcome) == (3, "internal-error")
        assert "non-verifying partition" in last_json(report)["message"]

    def test_out_of_memory_is_an_internal_error(self, tmp_path, monkeypatch):
        # A question too large for the process is no negative answer (exit 1).
        def exhausted(args, argv):
            raise MemoryError

        monkeypatch.setitem(cli._HANDLERS, "winners", exhausted)
        code, report = run_command(["winners", write(tmp_path, "e.txt", PLURALITY_DOC)])
        assert (code, report.outcome) == (3, "internal-error")
        assert report.render().splitlines()[0] == "internal error: out of memory"
        assert last_json(report)["message"] == "out of memory"

    def test_encode_then_decode_hitting_set(self, tmp_path):
        hs_file = write(tmp_path, "hs.txt", "elements: b1\nk: 1\nset: b1\n")
        code, report = run_command(["encode-hs", hs_file])
        assert code == 0
        payload = last_json(report)
        doc = parse_election(payload["election"])
        hs = parse_hitting_set("elements: b1\nk: 1\nset: b1\n")
        assert doc.election == encode_hitting_set(hs).election
        assert doc.distinguished == "c"

        solution = write(tmp_path, "s.txt", "block1: b1 c w | block2:\n")
        code, report = run_command(["decode-hs", "--solution", solution, hs_file])
        assert code == 0
        assert last_json(report)["extracted"] == ["b1"]

    def test_decode_rejects_non_solution(self, tmp_path):
        hs_file = write(tmp_path, "hs.txt", "elements: b1\nk: 1\nset: b1\n")
        solution = write(tmp_path, "s.txt", "block1: b1 w | block2: c\n")
        code, report = run_command(["decode-hs", "--solution", solution, hs_file])
        assert code == 1
        assert report.outcome == "extraction-rejected"

    def test_parse_errors_exit_2(self, tmp_path):
        election = write(tmp_path, "e.txt", "system: plurality\ncandidates: a b\na>a\n")
        code, report = run_command(["winners", election])
        assert code == 2
        assert report.outcome == "error"
        code, _ = run_command(["winners", str(tmp_path / "missing.txt")])
        assert code == 2
        code, _ = run_command(["solve", "--type", "NOT-A-TYPE", election])
        assert code == 2

    def test_exit_code_is_a_function_of_the_outcome(self, tmp_path):
        election = write(tmp_path, "e.txt", APPROVAL_DOC)
        for args in (
            ["winners", election],
            ["solve", "--type", "DC-PC-TP-NUW", election],
            ["solve", "--type", "CC-PC-TP-NUW", election],
        ):
            code, report = run_command(args)
            assert code == exit_code_for(last_json(report)["outcome"])


# Each subcommand with its optional flags present and then absent, a usage
# error and a --help exit, each followed by a valid command.
_PARSER_SEQUENCE = [
    ["winners", "e.txt"],
    ["evaluate", "--type", "CC-PC-TE-UW", "--partition", "p.txt", "--candidate", "b", "e.txt"],
    ["evaluate", "--type", "CC-PC-TE-UW", "--partition", "p.txt", "e.txt"],
    ["verify", "--type", "DC-RPC-TP-NUW", "--partition", "p.txt", "--candidate", "a",
     "--trace", "e.txt"],
    ["verify", "--type", "DC-RPC-TP-NUW", "--partition", "p.txt", "e.txt"],
    ["solve", "--type", "CC-PV-TE-UW", "--algorithm", "oracle", "--candidate", "a",
     "--max-evals", "64", "e.txt"],
    ["solve", "--type", "CC-PV-TE-UW", "e.txt"],
    ["reduce", "--from", "CC-RPC-TE-NUW", "--to", "CC-PC-TE-NUW", "--solution", "s.txt",
     "--candidate", "p", "--trace", "e.txt"],
    ["reduce", "--from", "CC-RPC-TE-NUW", "--to", "CC-PC-TE-NUW", "--solution", "s.txt",
     "e.txt"],
    ["collapse-scan", "--pair", "DC-RPC-TP-NUW,DC-PC-TP-NUW", "--system", "veto",
     "--max-candidates", "3", "--max-votes", "0", "--sequences", "--max-evals", "100"],
    ["collapse-scan", "--pair", "DC-RPC-TP-NUW,DC-PC-TP-NUW", "--system", "plurality",
     "--max-candidates", "2", "--max-votes", "2"],
    ["encode-hs", "hs.txt"],
    ["decode-hs", "--solution", "s.txt", "hs.txt"],
    ["solve", "--algorithm", "fast", "e.txt"],
    ["solve", "--type", "CC-PV-TE-UW", "e.txt"],
    ["collapse-scan", "--pair", "DC-RPC-TP-NUW,DC-PC-TP-NUW", "--system", "plurality",
     "--max-candidates", "0", "--max-votes", "2"],
    ["collapse-scan", "--pair", "DC-RPC-TP-NUW,DC-PC-TP-NUW", "--system", "plurality",
     "--max-candidates", "2", "--max-votes", "2", "--sequences"],
    [],
    ["--help"],
    ["winners", "e.txt"],
    ["verify", "--help"],
    ["verify", "--type", "DC-RPC-TP-NUW", "--partition", "p.txt", "--trace", "e.txt"],
]


def _parse(parse_args, argv):
    """What ``parse_args(argv)`` gives: the namespace, the usage error, or the
    exit ``--help`` requests together with the text it prints."""
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            return ("namespace", vars(parse_args(argv)))
    except cli.UsageError as err:
        return ("usage-error", str(err))
    except SystemExit as err:
        return ("exit", err.code, printed.getvalue())


class TestSharedParser:
    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_reuse_parses_like_a_fresh_parser(self):
        shared = cli._build_parser()
        reused = [_parse(shared.parse_args, argv) for argv in _PARSER_SEQUENCE]
        fresh = [
            _parse(cli._build_parser.__wrapped__().parse_args, argv) for argv in _PARSER_SEQUENCE
        ]
        assert reused == fresh
        kinds = [outcome[0] for outcome in reused]
        assert kinds.count("usage-error") == 3
        assert kinds.count("exit") == 2


class TestDispatchMatchesReferenceParser:
    """``run_command`` hands an argv that starts with a subcommand name to that
    subcommand's parser; the full parser is the reference it must agree with."""

    ARGVS = _PARSER_SEQUENCE + [
        ["bogus"],
        ["winners", "--help"],
        ["solve", "--type", "X", "a", "b"],
    ]

    def test_same_namespace_error_or_help(self):
        parser = cli._build_parser()
        for argv in self.ARGVS:
            assert _parse(cli._parse_args, argv) == _parse(parser.parse_args, argv), argv

    def test_every_handler_has_its_parser(self):
        parser = cli._build_parser()
        assert set(parser.commands) == set(cli._HANDLERS)
        assert parser.commands["solve"].prog == "controlforge solve"


class TestSerializationDefaults:
    def test_serialize_election_document(self):
        election = make_election("approval", "pa", [(("p", "a"), 2), ((), 1)])
        text = serialize_election(ElectionDocument(election, "p"))
        assert text == "system: approval\ncandidates: p a\ndistinguished: p\n2 x {p,a}\n{}\n"


SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _run_python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def _run_script(name, *args):
    return _run_python(str(SCRIPTS / name), *args)


class TestScriptsRefuseEmptyUniverses:
    """The scripts type their universe budgets as the CLI does, so an empty
    universe is a usage error (exit 2), not a report of agreement."""

    @pytest.mark.parametrize("flag, value", [("--max-votes", "-1"), ("--max-candidates", "0")])
    def test_collapse_matrix(self, flag, value):
        done = _run_script("run_collapse_matrix.py", flag, value)
        assert done.returncode == 2
        assert f"argument {flag}: must be at least" in done.stderr

    def test_transfer_audit(self):
        done = _run_script("run_transfer_audit.py", "--max-votes", "-1")
        assert done.returncode == 2
        assert "argument --max-votes: must be at least 0, got -1" in done.stderr

    def test_transfer_audit_refuses_an_unregistered_tag(self):
        done = _run_script("run_transfer_audit.py", "--tag", "nosuchtag")
        assert done.returncode == 2
        assert "argument --tag: invalid choice: 'nosuchtag'" in done.stderr

    @pytest.mark.parametrize(
        "flag, value", [("--max-elements", "0"), ("--max-elements", "-2"), ("--max-sets", "-1")]
    )
    def test_hardness_sweep(self, flag, value):
        done = _run_script("run_hardness_sweep.py", flag, value)
        assert done.returncode == 2
        assert f"argument {flag}: must be at least" in done.stderr


def test_collapse_matrix_refuses_a_universe_above_the_cap():
    # Exit 1 reports a disagreeing pair, so a refused universe exits 2.
    done = _run_script("run_collapse_matrix.py", "--max-candidates", "6", "--system", "veto")
    assert done.returncode == 2
    assert re.fullmatch(
        r"error: scan needs an estimated \d+ two-stage evaluations, above the cap of 10000000\n",
        done.stderr,
    )


class TestModuleEntryPoint:
    """``python -m controlforge.cli`` runs the CLI."""

    def test_winners(self, tmp_path):
        election = write(tmp_path, "e.txt", PLURALITY_DOC)
        done = _run_python("-m", "controlforge.cli", "winners", election)
        assert done.returncode == 0
        assert json.loads(done.stdout.splitlines()[-1])["outcome"] == "winners"

    def test_unknown_subcommand_is_a_usage_error(self):
        done = _run_python("-m", "controlforge.cli", "bogus")
        assert done.returncode == 2
        assert "invalid choice: 'bogus'" in done.stderr


class TestMain:
    """``main`` prints the report, on stderr for a usage or internal error,
    and returns its exit code; a ``--help`` request returns 0."""

    @pytest.mark.parametrize(
        "argv, usage",
        [(["--help"], "usage: controlforge "),
         (["verify", "--help"], "usage: controlforge verify ")],
        ids=["top", "verify"],
    )
    def test_help_returns_0_on_stdout(self, argv, usage, capsys):
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert out.startswith(usage)
        assert err == ""

    def test_missing_subcommand_returns_2_on_stderr(self, capsys):
        assert cli.main([]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        message = "the following arguments are required: subcommand"
        assert lines[0] == f"error: {message}"
        assert json.loads(lines[-1]) == {"command": [], "message": message, "outcome": "error"}

    def test_negative_answer_returns_1_on_stdout(self, capsys):
        argv = ["collapse-scan", "--pair", "CC-PC-TE-UW,DC-PC-TE-UW", "--system", "approval",
                "--max-candidates", "2", "--max-votes", "2"]
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out.splitlines()[-1])["outcome"] == "collapse-counterexamples"
