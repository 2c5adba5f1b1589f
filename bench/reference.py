"""An independent evaluator of the two-stage partition-control semantics.

The benchmark checks the library's answers against this module. It works on
plain data (strings, tuples, frozensets) and imports nothing from
``controlforge``, so a defect shared by the library's layers cannot hide
itself here.

An instance is a tuple ``(system, candidates, ballots, focus)``: ``system``
is ``"plurality"``, ``"veto"`` or ``"approval"``; ``candidates`` lists the
names in canonical order; ``ballots`` lists ``(entries, count)`` pairs,
where ``entries`` is a full ranking (best first) or the approved names.
A partition is a pair of frozensets: candidate names, or canonical voter
indices ``0..n-1`` for voter-partition (PV) types. Types are tags such as
``"DC-RPC-TE-UW"``.
"""

from itertools import combinations


def winners(system, keep, ballots):
    """Winner set of the election restricted to the candidates in ``keep``."""
    if not keep:
        return frozenset()
    tally = dict.fromkeys(keep, 0)
    for entries, count in ballots:
        if system == "approval":
            for name in entries:
                if name in keep:
                    tally[name] += count
            continue
        for name in entries if system == "plurality" else reversed(entries):
            if name in keep:
                tally[name] += count
                break
    best = min(tally.values()) if system == "veto" else max(tally.values())
    return frozenset(name for name, score in tally.items() if score == best)


def voter_ballots(ballots, indices):
    """The ballots of the canonical voters in ``indices``, one group each."""
    picked = []
    index = 0
    for entries, count in ballots:
        for _ in range(count):
            if index in indices:
                picked.append((entries, 1))
            index += 1
    return picked


def voter_count(ballots):
    return sum(count for _, count in ballots)


def items_of(instance, tag):
    """What a partition for the type splits: candidates or voter indices."""
    _, candidates, ballots, _ = instance
    if tag.split("-")[1] == "PV":
        return tuple(range(voter_count(ballots)))
    return tuple(candidates)


def final_winners(instance, tag, first, second):
    system, candidates, ballots, _ = instance
    _, action, tie_rule, _ = tag.split("-")

    def advancing(won):
        return won if tie_rule == "TP" or len(won) == 1 else frozenset()

    everyone = frozenset(candidates)
    if action == "PV":
        finalists = advancing(
            winners(system, everyone, voter_ballots(ballots, first))
        ) | advancing(winners(system, everyone, voter_ballots(ballots, second)))
    elif action == "RPC":
        finalists = advancing(winners(system, first, ballots)) | advancing(
            winners(system, second, ballots)
        )
    else:
        finalists = advancing(winners(system, first, ballots)) | second
    return winners(system, finalists, ballots)


def goal_holds(tag, focus, won):
    direction, _, _, model = tag.split("-")
    focus_wins = won == {focus} if model == "UW" else focus in won
    return focus_wins if direction == "CC" else not focus_wins


def verifies(instance, tag, first, second):
    """Whether (first, second) is a bipartition that achieves the type's goal."""
    items = frozenset(items_of(instance, tag))
    if first & second or first | second != items:
        return False
    return goal_holds(tag, instance[3], final_winners(instance, tag, first, second))


def partition_of_code(items, code):
    """The partition whose first block is given by the bit string ``code``.

    Item 0 is the most significant bit, as in the library's encoding.
    """
    length = len(items)
    first = frozenset(item for i, item in enumerate(items) if code >> (length - 1 - i) & 1)
    return first, frozenset(items) - first


def verifying_codes(instance, tag):
    """Every verifying partition's code, in increasing (lexicographic) order."""
    items = items_of(instance, tag)
    return [
        code
        for code in range(1 << len(items))
        if verifies(instance, tag, *partition_of_code(items, code))
    ]


def least_code(instance, tag):
    """The lexicographically least verifying code, or None."""
    items = items_of(instance, tag)
    for code in range(1 << len(items)):
        if verifies(instance, tag, *partition_of_code(items, code)):
            return code
    return None


def bits(items, first):
    return "".join("1" if item in first else "0" for item in items)


# ---------------------------------------------------------------------------
# The Hitting-Set encoding, rebuilt from its defining vote counts

HS_FOCUS = "c"
HS_SPOILER = "w"
HS_TYPE = "DC-PC-TP-NUW"


def hs_blocks(elements, sets, bound):
    """(label, ballot, count) triples of the encoded plurality election."""
    m, n, k = len(elements), len(sets), bound
    candidates = tuple(elements) + (HS_FOCUS, HS_SPOILER)

    def ballot(prefix):
        return tuple(prefix) + tuple(c for c in candidates if c not in prefix)

    blocks = [
        ("focus-first", ballot((HS_FOCUS, HS_SPOILER)), 2 * (m - k) + 2 * n * (k + 1) + 4),
        ("spoiler-first", ballot((HS_SPOILER, HS_FOCUS)), 2 * n * (k + 1) + 5),
    ]
    for i, subset in enumerate(sets):
        prefix = tuple(e for e in elements if e in subset) + (HS_FOCUS,)
        blocks.append((f"set-{i}", ballot(prefix), 2 * (k + 1)))
    for name in elements:
        blocks.append((f"element-{name}", ballot((name, HS_SPOILER)), 2))
    return blocks


def hs_instance(elements, sets, bound):
    """The encoded instance, in this module's plain form."""
    candidates = tuple(elements) + (HS_FOCUS, HS_SPOILER)
    ballots = [(entries, count) for _, entries, count in hs_blocks(elements, sets, bound)]
    return ("plurality", candidates, ballots, HS_FOCUS)


def least_hitting_set(elements, sets, bound):
    """A smallest hitting set of size at most ``bound``, or None."""
    for size in range(bound + 1):
        for chosen in combinations(elements, size):
            if all(subset & set(chosen) for subset in sets):
                return frozenset(chosen)
    return None
