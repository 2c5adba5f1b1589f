import contextlib
import io
import json
import os
import pathlib
import string
import subprocess
import sys

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
from controlforge.control import Partition, PartitionKind
from controlforge.elections import InvalidCandidateError, check_candidate_name
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
            ("a", "incomplete"),
            ("{a}", "approval ballot in a linear-order election"),
        ],
    )
    def test_ballot_errors_carry_line_numbers(self, body, fragment):
        text = f"system: plurality\ncandidates: a b\n{body}\n"
        with pytest.raises(DocumentParseError) as err:
            parse_election(text)
        assert fragment in str(err.value)
        assert "line 3" in str(err.value)

    def test_votes_before_headers_rejected(self):
        with pytest.raises(DocumentParseError):
            parse_election("a>b\nsystem: plurality\ncandidates: a b\n")

    def test_unknown_distinguished_rejected(self):
        with pytest.raises(DocumentParseError):
            parse_election("system: plurality\ncandidates: a b\ndistinguished: z\n")

    def test_round_trip(self):
        for text in (PLURALITY_DOC, APPROVAL_DOC):
            doc = parse_election(text)
            again = parse_election(serialize_election(doc))
            assert again.election == doc.election
            assert again.distinguished == doc.distinguished


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

    @pytest.mark.parametrize(
        "text",
        [
            "k: 1\nset: b1\n",
            "elements: b1\nset: b1\n",
            "elements: b1\nk: 0\n",
            "elements: b1\nk: 1\nset:\n",
            "elements: b1\nk: one\n",
            "elements: b1\nk: \u00b2\n",
            "elements: b1\nk: --1\n",
        ],
    )
    def test_malformed_documents(self, text):
        with pytest.raises(DocumentParseError):
            parse_hitting_set(text)

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

    def test_reduce_two_step_route(self, tmp_path):
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
                "DC-RPC-TE-UW",
                "--solution",
                solution,
                election,
            ]
        )
        assert code == 0
        payload = last_json(report)
        assert len(payload["steps"]) == 2
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

    def test_collapse_scan_cap_env(self, monkeypatch):
        monkeypatch.setenv("CONTROL_FORGE_MAX_EVALS", "5")
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

    def test_negative_cap_flag_is_a_usage_error(self):
        code, report = run_command(
            ["collapse-scan", "--pair", "DC-RPC-TP-NUW,DC-PC-TP-NUW", "--system", "plurality",
             "--max-candidates", "2", "--max-votes", "1", "--max-evals", "-1"]
        )
        assert (code, report.outcome) == (2, "error")
        assert report.payload["message"] == "argument --max-evals: must be at least 0, got -1"

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
    def test_negative_cap_env_is_a_usage_error(self, argv, tmp_path, monkeypatch):
        if argv[0] == "solve":
            argv = argv + [write(tmp_path, "e.txt", PLURALITY_DOC + "distinguished: a\n")]
        monkeypatch.setenv("CONTROL_FORGE_MAX_EVALS", "-5")
        code, report = run_command(argv)
        assert (code, report.outcome) == (2, "error")
        assert report.payload["message"] == (
            "the evaluation cap CONTROL_FORGE_MAX_EVALS must be at least 0, got -5"
        )

    def test_zero_cap_refuses_the_scan(self, monkeypatch):
        monkeypatch.setenv("CONTROL_FORGE_MAX_EVALS", "0")
        code, report = run_command(
            ["collapse-scan", "--pair", "DC-RPC-TP-NUW,DC-PC-TP-NUW", "--system", "plurality",
             "--max-candidates", "2", "--max-votes", "1"]
        )
        assert code == 2
        assert report.payload["message"].endswith("above the cap of 0")

    def test_solve_cap_counts_each_algorithms_worst_case(self, tmp_path, monkeypatch):
        # Two candidates: brute force evaluates up to 2^2 partitions, the
        # oracle search up to 2^3.
        election = write(tmp_path, "e.txt", PLURALITY_DOC + "distinguished: a\n")
        monkeypatch.setenv("CONTROL_FORGE_MAX_EVALS", "4")
        code, _ = run_command(
            ["solve", "--type", "DC-PC-TP-NUW", "--algorithm", "brute", election]
        )
        assert code in (0, 1)
        code, report = run_command(
            ["solve", "--type", "DC-PC-TP-NUW", "--algorithm", "oracle", election]
        )
        assert code == 2
        assert "8 two-stage evaluations" in report.payload["message"]

    def test_solve_cap_read_only_for_exponential_searches(self, tmp_path, monkeypatch):
        election = write(tmp_path, "e.txt", APPROVAL_DOC + "{p}\n")
        monkeypatch.setenv("CONTROL_FORGE_MAX_EVALS", "x")
        code, report = run_command(["solve", "--type", "CC-RPC-TE-NUW", election])
        assert code == 0
        assert last_json(report)["algorithm"] == "approval-isolate"
        code, report = run_command(
            ["solve", "--type", "CC-RPC-TE-NUW", "--algorithm", "brute", election]
        )
        assert code == 2
        assert "CONTROL_FORGE_MAX_EVALS" in report.payload["message"]

    VETO_DOC = "system: veto\ncandidates: a b c\ndistinguished: b\na>b>c\na>b>c\nc>b>a\n"

    def test_solve_cap_refusal_says_how_to_raise_it(self, tmp_path, monkeypatch):
        election = write(tmp_path, "e.txt", self.VETO_DOC)
        monkeypatch.setenv("CONTROL_FORGE_MAX_EVALS", "0")
        code, solved = run_command(
            ["solve", "--type", "DC-PV-TE-NUW", "--algorithm", "brute", election]
        )
        assert (code, solved.outcome) == (2, "error")
        assert solved.payload["message"].endswith("(set CONTROL_FORGE_MAX_EVALS to raise it)")

    @pytest.mark.parametrize("cap", ["x", "0"])
    def test_reduce_reads_no_cap(self, tmp_path, monkeypatch, cap):
        # Every transfer constructs its output, so neither a malformed cap nor
        # a cap of 0 refuses a route, the veto DC-PV-TE rule included.
        election = write(tmp_path, "e.txt", self.VETO_DOC)
        solution = write(tmp_path, "s.txt", "block1: 0 1 | block2: 2\n")
        monkeypatch.setenv("CONTROL_FORGE_MAX_EVALS", cap)
        for source, target in (("DC-PV-TE-NUW", "DC-PV-TE-UW"), ("DC-PV-TE-UW", "DC-PV-TE-NUW")):
            code, report = run_command(
                ["reduce", "--from", source, "--to", target, "--solution", solution, election]
            )
            assert (code, report.outcome) == (0, "transfer-solution")
        # The NUW output splits off a's one vetoer, the c>b>a ballot.
        assert last_json(report)["solution"] == "block1: 2 | block2: 0 1\n"

    def test_lying_oracle_is_an_internal_error(self, tmp_path, monkeypatch):
        class LyingOracle:
            calls = 0

            def __call__(self, control_type, instance, prefix):
                return True

        monkeypatch.setattr(cli, "BruteForceOracle", LyingOracle)
        election = write(tmp_path, "e.txt", APPROVAL_DOC)
        code, report = run_command(
            ["solve", "--type", "CC-PC-TP-NUW", "--algorithm", "oracle", election]
        )
        assert (code, report.outcome) == (3, "internal-error")
        assert "non-verifying partition" in last_json(report)["message"]

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
    ["solve", "--type", "CC-PV-TE-UW", "--algorithm", "oracle", "--candidate", "a", "e.txt"],
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


def _parse(parser, argv):
    """What parsing ``argv`` gives: the namespace, the usage error, or the
    exit ``--help`` requests together with the text it prints."""
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            return ("namespace", vars(parser.parse_args(argv)))
    except cli.UsageError as err:
        return ("usage-error", str(err))
    except SystemExit as err:
        return ("exit", err.code, printed.getvalue())


class TestSharedParser:
    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_reuse_parses_like_a_fresh_parser(self):
        shared = cli._build_parser()
        reused = [_parse(shared, argv) for argv in _PARSER_SEQUENCE]
        fresh = [_parse(cli._build_parser.__wrapped__(), argv) for argv in _PARSER_SEQUENCE]
        assert reused == fresh
        kinds = [outcome[0] for outcome in reused]
        assert kinds.count("usage-error") == 3
        assert kinds.count("exit") == 2


class TestSerializationDefaults:
    def test_serialize_election_document(self):
        election = make_election("approval", "pa", [(("p", "a"), 2), ((), 1)])
        text = serialize_election(ElectionDocument(election, "p"))
        assert text == "system: approval\ncandidates: p a\ndistinguished: p\n2 x {p,a}\n{}\n"


SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        env=env, capture_output=True, text=True, timeout=60,
    )


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
