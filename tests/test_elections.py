import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from controlforge import (
    Election,
    System,
    Vote,
    VoteCollection,
    make_election,
    mask_votes,
    scores,
    winners,
)
from controlforge.elections import (
    InvalidCandidateError,
    InvalidVoteError,
    check_candidate_name,
)

from election_strategies import elections


def linear(candidates, *rankings):
    return VoteCollection(
        tuple(candidates), tuple((Vote.order(r), m) for r, m in rankings)
    )


def approving(candidates, *approvals):
    return VoteCollection(
        tuple(candidates), tuple((Vote.approval(a), m) for a, m in approvals)
    )


class TestNames:
    def test_accepts_plain_tokens(self):
        for name in ("a", "b1", "x_y", "Zed"):
            assert check_candidate_name(name) == name

    @pytest.mark.parametrize(
        "name", ["", "a b", "a>b", "a,b", "{a", "a}", "a#b", "#", "system:x", ":"]
    )
    def test_rejects_bad_tokens(self, name):
        with pytest.raises(InvalidCandidateError):
            check_candidate_name(name)

    def test_rejects_duplicate_candidates(self):
        with pytest.raises(InvalidCandidateError):
            make_election("approval", ["a", "a"])


class TestMasking:
    def test_order_restriction(self):
        votes = linear("abc", ("abc", 1))
        masked = mask_votes(votes, {"b", "c"})
        assert masked.groups == ((Vote.order("bc"), 1),)

    def test_approval_bit_projection(self):
        votes = approving("abc", (("a", "c"), 1))
        masked = mask_votes(votes, {"a", "b"})
        assert masked.groups == ((Vote.approval("a"), 1),)

    def test_full_mask_is_identity(self):
        votes = linear("abc", ("abc", 2), ("cba", 1))
        assert mask_votes(votes, "abc") == votes

    def test_mask_to_empty_set_keeps_multiplicities(self):
        votes = linear("ab", ("ab", 2), ("ba", 1))
        masked = mask_votes(votes, ())
        assert masked.universe == ()
        assert masked.groups == ((Vote.order(""), 2), (Vote.order(""), 1))

    def test_unknown_candidate_rejected(self):
        with pytest.raises(InvalidCandidateError):
            mask_votes(linear("ab", ("ab", 1)), {"z"})

    @given(elections(max_candidates=4, max_votes=3), st.data())
    def test_masking_idempotent(self, election, data):
        outer = data.draw(st.sets(st.sampled_from(election.candidates)))
        inner = data.draw(st.sets(st.sampled_from(sorted(outer)))) if outer else set()
        once = mask_votes(election.votes, inner)
        twice = mask_votes(mask_votes(election.votes, outer), inner)
        assert once == twice


class TestScores:
    def test_plurality_counts_first_places(self):
        votes = linear("ab", ("ab", 2), ("ba", 1))
        assert scores(System.PLURALITY, "ab", votes) == {"a": 2, "b": 1}

    def test_veto_counts_last_places(self):
        votes = linear("abc", ("abc", 1), ("bac", 1))
        assert scores(System.VETO, "abc", votes) == {"a": 0, "b": 0, "c": 2}

    def test_approval_counts_approvals(self):
        votes = approving("ab", (("a", "b"), 1), (("b",), 1))
        assert scores(System.APPROVAL, "ab", votes) == {"a": 1, "b": 2}

    @given(elections(systems=(System.PLURALITY, System.VETO)), st.data())
    def test_rank_counts_sum_to_vote_total(self, election, data):
        subset = data.draw(st.sets(st.sampled_from(election.candidates), min_size=1))
        tally = scores(election.system, subset, election.votes)
        assert sum(tally.values()) == election.votes.total


class TestWinners:
    def test_plurality_majority(self):
        votes = linear("ab", ("ab", 2), ("ba", 1))
        assert winners(System.PLURALITY, "ab", votes) == {"a"}

    def test_veto_zero_vetoes_tie(self):
        votes = linear("abc", ("abc", 1), ("bac", 1))
        assert winners(System.VETO, "abc", votes) == {"a", "b"}

    def test_empty_candidate_set(self):
        votes = linear("ab", ("ab", 1))
        assert winners(System.PLURALITY, (), votes) == frozenset()

    @given(elections(), st.data())
    def test_winners_within_candidates_and_nonempty(self, election, data):
        subset = data.draw(st.sets(st.sampled_from(election.candidates), min_size=1))
        won = winners(election.system, subset, election.votes)
        assert won <= subset
        assert won

    @given(elections())
    def test_deterministic(self, election):
        first = winners(election.system, election.candidates, election.votes)
        second = winners(election.system, election.candidates, election.votes)
        assert first == second

    @given(elections(systems=(System.APPROVAL,)), st.data())
    def test_approval_count_mask_independent(self, election, data):
        outer = data.draw(st.sets(st.sampled_from(election.candidates), min_size=1))
        inner = data.draw(st.sets(st.sampled_from(sorted(outer)), min_size=1))
        wide = scores(System.APPROVAL, outer, election.votes)
        narrow = scores(System.APPROVAL, inner, election.votes)
        for candidate in inner:
            assert narrow[candidate] == wide[candidate]

    @given(elections(), st.data())
    def test_single_candidate_always_wins(self, election, data):
        lone = data.draw(st.sampled_from(election.candidates))
        assert winners(election.system, (lone,), election.votes) == {lone}


def test_election_pickled_in_another_process_hashes_here():
    # Elections keep their hash once computed; it must not travel with them,
    # because string hashes differ between processes.
    script = (
        "import pickle, sys\n"
        "from controlforge import make_election\n"
        "election = make_election('plurality', 'ab', [('ab', 2), ('ba', 1)])\n"
        "hash(election)\n"
        "sys.stdout.buffer.write(pickle.dumps(election))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345")
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, check=True, timeout=60
    )
    election = pickle.loads(done.stdout)
    assert election in {make_election("plurality", "ab", [("ab", 2), ("ba", 1)])}


class TestValidation:
    def test_incomplete_order_rejected(self):
        with pytest.raises(InvalidVoteError):
            linear("abc", ("ab", 1))

    def test_repeated_candidate_rejected(self):
        with pytest.raises(InvalidVoteError):
            linear("ab", ("aa", 1))

    def test_mixed_kinds_rejected(self):
        with pytest.raises(InvalidVoteError):
            VoteCollection(("a", "b"), ((Vote.order("ab"), 1), (Vote.approval("a"), 1)))

    def test_kind_must_match_system(self):
        with pytest.raises(InvalidVoteError):
            Election(System.PLURALITY, approving("ab", (("a",), 1)))

    def test_nonpositive_multiplicity_rejected(self):
        with pytest.raises(InvalidVoteError):
            linear("ab", ("ab", 0))

    def test_approval_entries_normalized_to_canonical_order(self):
        votes = VoteCollection(("a", "b", "c"), ((Vote.approval(("c", "a")), 1),))
        assert votes.groups[0][0].entries == ("a", "c")


class TestVoterSelection:
    def test_expansion_order_indexing(self):
        votes = linear("ab", ("ab", 2), ("ba", 1))
        assert votes.total == 3
        picked = votes.select_voters(frozenset({0, 2}))
        assert picked.groups == ((Vote.order("ab"), 1), (Vote.order("ba"), 1))

    def test_identical_ballots_split_apart(self):
        votes = linear("ab", ("ab", 2))
        one = votes.select_voters(frozenset({1}))
        assert one.groups == ((Vote.order("ab"), 1),)
        assert votes.select_voters(frozenset()).groups == ()

    @given(elections(max_votes=5), st.data())
    def test_selection_partitions_the_collection(self, election, data):
        n = election.votes.total
        chosen = data.draw(st.sets(st.sampled_from(range(n))) if n else st.just(set()))
        first = election.votes.select_voters(frozenset(chosen))
        second = election.votes.select_voters(frozenset(range(n)) - frozenset(chosen))
        assert first.total + second.total == n
