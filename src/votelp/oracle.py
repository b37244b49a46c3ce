"""Independent references for every rule the package computes.

Most are deliberately naive enumerations over committees or voter subsets;
Young scores on single-crossing profiles also have a median-voter rule.  None
shares code with the optimization path, so agreement between the two is
meaningful evidence; acceptance tests lean on them throughout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .model import Profile
from .formulate import ZERO, RuleSpec

MAX_COMMITTEE_SPACE = 10**6
MAX_YOUNG_VOTERS = 20


@dataclass(frozen=True)
class OracleResult:
    best_value: object
    argmax: tuple  # committees as frozensets, in enumeration order


def voter_value(rule: RuleSpec, election, voter: int, committee) -> object:
    """One voter's value for a committee under the rule semantics."""
    if rule.kind == "pav":
        approved = len(election.ballots[voter] & committee)
        return rule.owa.prefix_sums()[approved]
    order = election.voters[voter]
    if rule.kind == "cc":
        best = min(order.rank(c) for c in committee)
        return rule.weights.at_rank(best)
    scores = sorted((rule.weights.at_rank(order.rank(c)) for c in committee), reverse=True)
    total = ZERO
    for a, s in zip(rule.owa.entries, scores):
        total += a * s
    return total


def committee_value(rule: RuleSpec, election, committee) -> object:
    """Sum of voter values; the committee must have the rule's size."""
    committee = frozenset(committee)
    if len(committee) != rule.k:
        raise ValueError(f"committee has size {len(committee)}, expected {rule.k}")
    total = ZERO
    for i in range(election.n):
        total += voter_value(rule, election, i, committee)
    return total


def _enumerate_committees(rule: RuleSpec, election):
    m = election.m
    if rule.k > m:
        raise ValueError("committee size exceeds the number of alternatives")
    if math.comb(m, rule.k) > MAX_COMMITTEE_SPACE:
        raise ValueError("committee space too large for brute force")
    return itertools.combinations(election.alternatives, rule.k)


def brute_force_committee(rule: RuleSpec, election) -> OracleResult:
    """Exhaustive committee enumeration; returns the full argmax set."""
    best = None
    argmax = []
    for combo in _enumerate_committees(rule, election):
        value = committee_value(rule, election, combo)
        if best is None or value > best:
            best = value
            argmax = [frozenset(combo)]
        elif value == best:
            argmax.append(frozenset(combo))
    return OracleResult(best, tuple(argmax))


def brute_force_egalitarian(rule: RuleSpec, election) -> OracleResult:
    """Exhaustive max-min (worst-off voter) committee enumeration."""
    best = None
    argmax = []
    for combo in _enumerate_committees(rule, election):
        committee = frozenset(combo)
        value = min(
            voter_value(rule, election, i, committee) for i in range(election.n)
        )
        if best is None or value > best:
            best = value
            argmax = [committee]
        elif value == best:
            argmax.append(committee)
    return OracleResult(best, tuple(argmax))


def condorcet_winner(profile: Profile):
    """The alternative beating every other in pairwise majority, if any,
    counted voter by voter."""
    everyone = (1 << profile.n) - 1
    for c in profile.alternatives:
        if _mask_is_strict_win(everyone, _pair_masks(profile, c)):
            return c
    return None


def _pair_masks(profile: Profile, a: str) -> list:
    """Per challenger b, the voter bitmasks preferring b to ``a`` and ``a`` to b."""
    pair_masks = []
    for b in profile.alternatives:
        if b == a:
            continue
        over = under = 0
        for i, v in enumerate(profile.voters):
            if v.prefers(b, a):
                over |= 1 << i
            elif v.prefers(a, b):
                under |= 1 << i
        pair_masks.append((over, under))
    return pair_masks


def _mask_is_strict_win(mask: int, pair_masks) -> bool:
    for over, under in pair_masks:
        if (mask & over).bit_count() >= (mask & under).bit_count():
            return False
    return True


def young_score_bruteforce(profile: Profile, a: str) -> tuple[int, frozenset]:
    """Largest voter subset whose subprofile has ``a`` as strict Condorcet
    winner; (0, empty set) if no nonempty subset works."""
    if a not in profile.alternatives:
        raise ValueError(f"unknown alternative {a!r}")
    n = profile.n
    if n > MAX_YOUNG_VOTERS:
        raise ValueError("too many voters for brute force")
    pair_masks = _pair_masks(profile, a)
    best_size = 0
    witness = frozenset()
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if size <= best_size:
            continue
        if _mask_is_strict_win(mask, pair_masks):
            best_size = size
            witness = frozenset(i for i in range(n) if mask >> i & 1)
    return best_size, witness


def young_block_median(profile: Profile, ordering, a: str) -> tuple:
    """The voters, in ``ordering``'s order, of a largest subprofile with ``a``
    as strict Condorcet winner; empty when no voter ranks ``a`` first.
    ``ordering`` must certify single-crossingness of linear orders (checked).
    Every voter subset then has its median voters' majority relation (Gans and
    Smart, 1996), so the block is the longest window whose one or two median
    positions lie in the interval [p, q] of voters ranking ``a`` first."""
    if not profile.is_linear():
        raise ValueError("the median-voter rule requires linear orders")
    ordering = tuple(ordering)
    n = profile.n
    if sorted(ordering) != list(range(n)):
        raise ValueError("ordering must be a permutation of the voters")
    for x, y in itertools.permutations(profile.alternatives, 2):
        positions = [pos for pos, i in enumerate(ordering) if profile.voters[i].prefers(x, y)]
        if positions and positions[-1] - positions[0] + 1 != len(positions):
            raise ValueError("ordering does not certify single-crossing")
    tops = [pos for pos, i in enumerate(ordering) if profile.voters[i].rank(a) == 1]
    if not tops:
        return ()
    p, q = tops[0], tops[-1]
    c = min(max((n - 1) // 2, p), q)  # one median, at c
    half = min(c, n - 1 - c)
    block = ordering[c - half : c + half + 1]
    if q > p:  # two medians, at c and c + 1
        c = min(max((n - 2) // 2, p), q - 1)
        half = min(c, n - 2 - c)
        block = max(block, ordering[c - half : c + half + 2], key=len)
    return block


def young_score_median(profile: Profile, ordering, a: str) -> int:
    """Young score on a single-crossing profile: ``young_block_median``'s size."""
    return len(young_block_median(profile, ordering, a))
