"""Partition-based electoral control: systems, attacks, solvers, transfers.

Implements plurality, veto, and approval winner determination, the 24
partition control problems with solution verification, brute-force and
polynomial search algorithms, constructive solution transfers between
collapsing control types, and the Hitting-Set hardness reduction, together
with a text-format CLI (``controlforge``).
"""

from .control import (
    ALL_CONTROL_TYPES,
    Action,
    ControlInstance,
    ControlTypeId,
    Direction,
    Partition,
    PartitionKind,
    TieRule,
    TwoStageTrace,
    WinnerModel,
    check_solution,
    verify_solution,
)
from .elections import (
    Election,
    System,
    Vote,
    VoteCollection,
    make_election,
    mask_votes,
    scores,
    winners,
)
from .hardness import (
    EncodedInstance,
    HittingSetInstance,
    brute_force_hitting_set,
    encode_hitting_set,
    extract_hitting_set,
    forward_partition,
    iter_hitting_set_instances,
)
from .reductions import (
    ALL_TRANSFER_RULES,
    TransferRule,
    compose,
    find_transfer_chain,
    rules_for,
)
from .solvers import (
    BruteForceOracle,
    ScanReport,
    SolveOutcome,
    Universe,
    brute_force_search,
    collapse_pairs,
    collapse_scan,
    enumerate_partitions,
    iter_elections,
    iter_instances,
    lex_min_search_with_oracle,
    polynomial_search,
    verifying_partitions,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
