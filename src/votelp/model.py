"""Preference profiles: data model, text format, derived quantities, generators.

A profile is an ordered list of voters' weak orders over a common set of
named alternatives.  Approval ballots are a specialization (at most two
indifference classes).  Everything here is immutable and pure, so values
can be shared freely across threads.

Text format (UTF-8, LF), ranked::

    3
    a b c
    1: a > b > c
    2: {a,b} > c

Line 1 is the number of alternatives, line 2 their names, and every further
line is ``<count>: <order>`` where the order is a ``>``-separated list of
groups; a group is a bare name or ``{n1,n2,...}``.  Approval format uses the
same header and one brace group per line: ``<count>: {n1,...}``.
Multiplicity counts are expanded eagerly into repeated voters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FORBIDDEN_NAME_CHARS = set(",>{}~:")

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class ProfileFormatError(ValueError):
    """Malformed profile text; ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _check_name(name: str, line: int | None = None) -> str:
    if not name:
        raise ProfileFormatError("empty alternative name", line)
    bad = set(name) & FORBIDDEN_NAME_CHARS
    if bad or any(ch.isspace() for ch in name):
        raise ProfileFormatError(f"illegal character in name {name!r}", line)
    return name


@dataclass(frozen=True)
class WeakOrder:
    """A complete, transitive preference: ordered disjoint indifference classes.

    ``indifference_classes[0]`` is the most-preferred class (rank 1).
    """

    indifference_classes: tuple[frozenset[str], ...]

    def __post_init__(self):
        seen: set[str] = set()
        if not self.indifference_classes:
            raise ValueError("weak order needs at least one class")
        for cls in self.indifference_classes:
            if not cls:
                raise ValueError("empty indifference class")
            if seen & cls:
                raise ValueError("indifference classes must be disjoint")
            seen |= cls
        ranks = {}
        for t, cls in enumerate(self.indifference_classes, start=1):
            for name in cls:
                ranks[name] = t
        object.__setattr__(self, "_ranks", ranks)

    @staticmethod
    def from_classes(classes) -> "WeakOrder":
        return WeakOrder(tuple(frozenset(c) for c in classes))

    @staticmethod
    def linear(names) -> "WeakOrder":
        return WeakOrder(tuple(frozenset((n,)) for n in names))

    @property
    def num_classes(self) -> int:
        return len(self.indifference_classes)

    def alternatives(self) -> frozenset[str]:
        return frozenset(self._ranks)

    def rank(self, alternative: str) -> int:
        """1-based indifference-class index; rank 1 is most preferred."""
        return self._ranks[alternative]

    def is_linear(self) -> bool:
        return all(len(c) == 1 for c in self.indifference_classes)

    def prefers(self, a: str, b: str) -> bool:
        """Strict preference of ``a`` over ``b``."""
        return self._ranks[a] < self._ranks[b]

    def top_segment(self, t: int) -> frozenset[str]:
        """All alternatives of rank at most ``t``."""
        if not 1 <= t <= self.num_classes:
            raise ValueError(f"rank threshold {t} out of range 1..{self.num_classes}")
        out: set[str] = set()
        for cls in self.indifference_classes[:t]:
            out |= cls
        return frozenset(out)

    def reversed_order(self) -> "WeakOrder":
        return WeakOrder(tuple(reversed(self.indifference_classes)))

    def as_linear_sequence(self) -> tuple[str, ...]:
        """The alternatives best-to-worst; defined only for linear orders."""
        if not self.is_linear():
            raise ValueError("order has ties")
        return tuple(next(iter(c)) for c in self.indifference_classes)


@dataclass(frozen=True)
class Profile:
    """An ordered list of voters' weak orders over named alternatives."""

    alternatives: tuple[str, ...]
    voters: tuple[WeakOrder, ...]

    def __post_init__(self):
        if not self.alternatives:
            raise ValueError("profile needs at least one alternative")
        if not self.voters:
            raise ValueError("profile needs at least one voter")
        for name in self.alternatives:
            _check_name(name)
        alt_set = frozenset(self.alternatives)
        if len(alt_set) != len(self.alternatives):
            raise ValueError("duplicate alternative names")
        for idx, order in enumerate(self.voters):
            if order.alternatives() != alt_set:
                raise ValueError(f"voter {idx} does not rank exactly the alternative set")

    @property
    def m(self) -> int:
        return len(self.alternatives)

    @property
    def n(self) -> int:
        return len(self.voters)

    def is_linear(self) -> bool:
        return all(v.is_linear() for v in self.voters)

    def reversed_voters(self) -> "Profile":
        return Profile(self.alternatives, tuple(v.reversed_order() for v in self.voters))


@dataclass(frozen=True)
class ApprovalProfile:
    """Approval ballots: each voter submits a subset of the alternatives."""

    alternatives: tuple[str, ...]
    ballots: tuple[frozenset[str], ...]

    def __post_init__(self):
        if not self.alternatives:
            raise ValueError("profile needs at least one alternative")
        if not self.ballots:
            raise ValueError("profile needs at least one ballot")
        for name in self.alternatives:
            _check_name(name)
        alt_set = frozenset(self.alternatives)
        if len(alt_set) != len(self.alternatives):
            raise ValueError("duplicate alternative names")
        for idx, ballot in enumerate(self.ballots):
            if not ballot <= alt_set:
                raise ValueError(f"ballot {idx} approves unknown alternatives")

    @property
    def m(self) -> int:
        return len(self.alternatives)

    @property
    def n(self) -> int:
        return len(self.ballots)

    def to_profile(self) -> Profile:
        """Dichotomous weak orders: approved class above the rest.

        An empty or full approval set collapses to a single-class order.
        """
        alt_set = frozenset(self.alternatives)
        voters = []
        for ballot in self.ballots:
            rest = alt_set - ballot
            if ballot and rest:
                voters.append(WeakOrder((ballot, rest)))
            else:
                voters.append(WeakOrder((alt_set,)))
        return Profile(self.alternatives, tuple(voters))


@dataclass(frozen=True)
class Axis:
    """A left-to-right ordering of the alternatives."""

    ordering: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.ordering)) != len(self.ordering):
            raise ValueError("axis must be a permutation")
        object.__setattr__(
            self, "_pos", {name: i for i, name in enumerate(self.ordering)}
        )

    def position(self, name: str) -> int:
        return self._pos[name]

    def is_interval(self, subset) -> bool:
        """True iff ``subset`` occupies contiguous positions (empty sets count)."""
        positions = sorted(self._pos[x] for x in subset)
        if not positions:
            return True
        return positions[-1] - positions[0] + 1 == len(positions)

    def canonical(self) -> "Axis":
        """The lexicographically smaller of this axis and its reverse."""
        rev = tuple(reversed(self.ordering))
        return Axis(min(self.ordering, rev))


# ---------------------------------------------------------------------------
# derived quantities


def rank_of(profile: Profile, voter: int, alternative: str) -> int:
    """Rank (1-based class index) of ``alternative`` in voter ``voter``'s order."""
    return profile.voters[voter].rank(alternative)


def top_initial_segment(profile: Profile, voter: int, t: int) -> frozenset[str]:
    """The set of alternatives voter ``voter`` ranks at ``t`` or better."""
    return profile.voters[voter].top_segment(t)


def majority_margin(profile: Profile, b: str, a: str) -> int:
    """#voters with b strictly above a, minus #voters with a strictly above b.

    Voters indifferent between the two count in neither term.
    """
    if a == b:
        raise ValueError("majority margin needs two distinct alternatives")
    margin = 0
    for order in profile.voters:
        ra, rb = order.rank(a), order.rank(b)
        if rb < ra:
            margin += 1
        elif ra < rb:
            margin -= 1
    return margin


# ---------------------------------------------------------------------------
# text format


def parse_profile(text: str, format: str = "ranked"):
    """Parse profile text; returns a Profile or, for ``format="approval"``,
    an ApprovalProfile.  Errors carry the offending 1-based line number."""
    if format not in ("ranked", "approval"):
        raise ValueError(f"unknown format {format!r}")
    lines = text.split("\n")
    numbered = [(i + 1, ln.strip()) for i, ln in enumerate(lines) if ln.strip()]
    if len(numbered) < 3:
        raise ProfileFormatError("expected a count line, a names line, and voters")
    lineno, head = numbered[0]
    try:
        m = int(head)
    except ValueError:
        raise ProfileFormatError(f"expected alternative count, got {head!r}", lineno)
    lineno, names_line = numbered[1]
    names = tuple(_check_name(n, lineno) for n in names_line.split())
    if len(names) != m:
        raise ProfileFormatError(f"expected {m} names, got {len(names)}", lineno)
    if len(set(names)) != m:
        raise ProfileFormatError("duplicate alternative names", lineno)
    alt_set = frozenset(names)

    voters: list[WeakOrder] = []
    ballots: list[frozenset[str]] = []
    for lineno, line in numbered[2:]:
        if ":" not in line:
            raise ProfileFormatError("expected '<count>: <order>'", lineno)
        count_part, _, order_part = line.partition(":")
        try:
            count = int(count_part.strip())
        except ValueError:
            raise ProfileFormatError(f"bad multiplicity {count_part.strip()!r}", lineno)
        if count < 1:
            raise ProfileFormatError("multiplicity must be at least 1", lineno)
        if format == "approval":
            ballot = _parse_group(order_part.strip(), alt_set, lineno, allow_empty=True)
            ballots.extend([frozenset(ballot)] * count)
        else:
            order = _parse_order(order_part, alt_set, lineno)
            voters.extend([order] * count)
    if format == "approval":
        return ApprovalProfile(names, tuple(ballots))
    return Profile(names, tuple(voters))


def _parse_group(token: str, alt_set, lineno: int, allow_empty: bool = False):
    token = token.strip()
    if token.startswith("{"):
        if not token.endswith("}"):
            raise ProfileFormatError(f"unterminated group {token!r}", lineno)
        inner = token[1:-1].strip()
        parts = [p.strip() for p in inner.split(",")] if inner else []
    else:
        if not token:
            raise ProfileFormatError("empty group", lineno)
        parts = [token]
    if not parts and not allow_empty:
        raise ProfileFormatError("empty indifference class", lineno)
    group = []
    for name in parts:
        _check_name(name, lineno)
        if name not in alt_set:
            raise ProfileFormatError(f"unknown alternative {name!r}", lineno)
        group.append(name)
    if len(set(group)) != len(group):
        raise ProfileFormatError("duplicate alternative in one order", lineno)
    return group


def _parse_order(body: str, alt_set, lineno: int) -> WeakOrder:
    classes = []
    seen: set[str] = set()
    for token in body.split(">"):
        group = _parse_group(token, alt_set, lineno)
        if seen & set(group):
            raise ProfileFormatError("duplicate alternative in one order", lineno)
        seen |= set(group)
        classes.append(frozenset(group))
    if seen != alt_set:
        missing = sorted(alt_set - seen)
        raise ProfileFormatError(f"order is missing {', '.join(missing)}", lineno)
    return WeakOrder(tuple(classes))


def _format_class(cls: frozenset[str]) -> str:
    members = sorted(cls)
    if len(members) == 1:
        return members[0]
    return "{" + ",".join(members) + "}"


def serialize_profile(profile) -> str:
    """Canonical text for a Profile or ApprovalProfile.

    Class members are sorted, consecutive identical voters are grouped under
    one multiplicity line, and counts of 1 are written explicitly, so the
    output is a normal form: parsing it back and re-serializing is the
    identity byte-for-byte.
    """
    lines = [str(profile.m), " ".join(profile.alternatives)]
    if isinstance(profile, ApprovalProfile):
        rendered = ["{" + ",".join(sorted(b)) + "}" for b in profile.ballots]
    else:
        rendered = [
            " > ".join(_format_class(c) for c in v.indifference_classes)
            for v in profile.voters
        ]
    idx = 0
    while idx < len(rendered):
        run = 1
        while idx + run < len(rendered) and rendered[idx + run] == rendered[idx]:
            run += 1
        lines.append(f"{run}: {rendered[idx]}")
        idx += run
    return "\n".join(lines) + "\n"


def normalize_profile_text(text: str, format: str = "ranked") -> str:
    return serialize_profile(parse_profile(text, format))


# ---------------------------------------------------------------------------
# seeded generators for structured profiles


def default_alternative_names(m: int) -> tuple[str, ...]:
    if m <= len(_LETTERS):
        return tuple(_LETTERS[:m])
    return tuple(f"c{i + 1}" for i in range(m))


def generate_single_peaked(m: int, n: int, seed: int) -> tuple[Profile, Axis]:
    """Random profile of linear orders single-peaked on a hidden random axis.

    Each voter repeatedly removes the leftmost or rightmost remaining
    alternative of the axis interval (fair coin) and gives it the worst
    remaining rank, which samples uniformly from the 2^(m-1) orders
    single-peaked on that axis.
    """
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    rng = random.Random(seed)
    names = default_alternative_names(m)
    axis_order = list(names)
    rng.shuffle(axis_order)
    voters = []
    for _ in range(n):
        lo, hi = 0, m - 1
        worst_to_best = []
        while lo < hi:
            if rng.random() < 0.5:
                worst_to_best.append(axis_order[lo])
                lo += 1
            else:
                worst_to_best.append(axis_order[hi])
                hi -= 1
        worst_to_best.append(axis_order[lo])
        voters.append(WeakOrder.linear(reversed(worst_to_best)))
    return Profile(names, tuple(voters)), Axis(tuple(axis_order))


def generate_single_crossing(m: int, n: int, seed: int) -> tuple[Profile, tuple[int, ...]]:
    """Random single-crossing profile, crossing in the listed voter order.

    Walks a maximal chain of m(m-1)/2 adjacent swaps from a random start
    order to its reverse (each unordered pair swaps exactly once), then
    samples n chain positions with replacement and emits them sorted.  The
    returned tuple is the certifying voter ordering (the identity).
    """
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    rng = random.Random(seed)
    names = default_alternative_names(m)
    current = list(names)
    rng.shuffle(current)
    chain = [tuple(current)]
    swapped: set[frozenset[str]] = set()
    for _ in range(m * (m - 1) // 2):
        options = [
            j
            for j in range(m - 1)
            if frozenset((current[j], current[j + 1])) not in swapped
        ]
        j = rng.choice(options)
        swapped.add(frozenset((current[j], current[j + 1])))
        current[j], current[j + 1] = current[j + 1], current[j]
        chain.append(tuple(current))
    positions = sorted(rng.randrange(len(chain)) for _ in range(n))
    voters = tuple(WeakOrder.linear(chain[p]) for p in positions)
    return Profile(names, voters), tuple(range(n))


def generate_candidate_interval(m: int, n: int, seed: int) -> tuple[ApprovalProfile, Axis]:
    """Random approval profile whose ballots are intervals of a hidden axis."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    rng = random.Random(seed)
    names = default_alternative_names(m)
    axis_order = list(names)
    rng.shuffle(axis_order)
    intervals = [(lo, hi) for lo in range(m) for hi in range(lo, m)]
    ballots = []
    for _ in range(n):
        lo, hi = intervals[rng.randrange(len(intervals))]
        ballots.append(frozenset(axis_order[lo : hi + 1]))
    return ApprovalProfile(names, tuple(ballots)), Axis(tuple(axis_order))


def generate_random_linear(m: int, n: int, seed: int) -> Profile:
    """Unstructured profile of uniformly random linear orders."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    rng = random.Random(seed)
    names = default_alternative_names(m)
    voters = []
    for _ in range(n):
        order = list(names)
        rng.shuffle(order)
        voters.append(WeakOrder.linear(order))
    return Profile(names, tuple(voters))
