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
Counts are expanded into repeated voters (a count too large to expand is a
format error on its line).  Each distinct order body is parsed once, so equal
lines share one object, and each distinct voter is rendered once; top
segments and groups of identical voters are derived once, here, for every
other module to read.  The seeded generators likewise build each distinct
order or ballot once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, groupby

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
            if not isinstance(cls, frozenset):
                raise ValueError("indifference classes must be frozensets")
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

    @cached_property
    def top_segments(self) -> tuple[frozenset[str], ...]:
        """The alternatives of rank at most t, for t = 1..num_classes.  Built
        on first use, so equal voters held as separate objects cost nothing."""
        return tuple(accumulate(self.indifference_classes, frozenset.union))

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
        return self.top_segments[t - 1]

    def as_linear_sequence(self) -> tuple[str, ...]:
        """The alternatives best-to-worst; defined only for linear orders."""
        if not self.is_linear():
            raise ValueError("order has ties")
        return tuple(next(iter(c)) for c in self.indifference_classes)


def _alternative_set(alternatives, items, what: str) -> frozenset:
    """A profile's checked alternative set: at least one alternative and one
    ``what`` (voter or ballot) in ``items``, legal names, no duplicates."""
    if not alternatives:
        raise ValueError("profile needs at least one alternative")
    if not items:
        raise ValueError(f"profile needs at least one {what}")
    for name in alternatives:
        _check_name(name)
    alt_set = frozenset(alternatives)
    if len(alt_set) != len(alternatives):
        raise ValueError("duplicate alternative names")
    return alt_set


def _groups(items) -> tuple:
    """Each distinct item with the indices where it occurs, by first occurrence."""
    groups: dict = {}
    for i, item in enumerate(items):
        groups.setdefault(item, []).append(i)
    return tuple((item, tuple(members)) for item, members in groups.items())


@dataclass(frozen=True)
class Profile:
    """An ordered list of voters' weak orders over named alternatives;
    ``groups`` (derived) pairs each distinct order with its voters' indices."""

    alternatives: tuple[str, ...]
    voters: tuple[WeakOrder, ...]

    def __post_init__(self):
        alt_set = _alternative_set(self.alternatives, self.voters, "voter")
        object.__setattr__(self, "groups", _groups(self.voters))
        for order, members in self.groups:
            if order.alternatives() != alt_set:
                raise ValueError(f"voter {members[0]} does not rank exactly the alternative set")

    @property
    def m(self) -> int:
        return len(self.alternatives)

    @property
    def n(self) -> int:
        return len(self.voters)

    def is_linear(self) -> bool:
        return all(order.is_linear() for order, _ in self.groups)


@dataclass(frozen=True)
class ApprovalProfile:
    """Approval ballots: each voter submits a subset of the alternatives;
    ``groups`` (derived) pairs each distinct ballot with its voters' indices."""

    alternatives: tuple[str, ...]
    ballots: tuple[frozenset[str], ...]

    def __post_init__(self):
        alt_set = _alternative_set(self.alternatives, self.ballots, "ballot")
        for i, ballot in enumerate(self.ballots):
            if not isinstance(ballot, frozenset):
                raise ValueError(f"ballot {i} is not a frozenset")
        object.__setattr__(self, "groups", _groups(self.ballots))
        for ballot, members in self.groups:
            if not ballot <= alt_set:
                raise ValueError(f"ballot {members[0]} approves unknown alternatives")

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
        voters = [None] * self.n
        for ballot, members in self.groups:
            rest = alt_set - ballot
            order = WeakOrder((ballot, rest) if ballot and rest else (alt_set,))
            for i in members:
                voters[i] = order
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


def majority_margin(profile: Profile, b: str, a: str) -> int:
    """#voters with b strictly above a, minus #voters with a strictly above b.

    Voters indifferent between the two count in neither term.
    """
    if a == b:
        raise ValueError("majority margin needs two distinct alternatives")
    margin = 0
    for order, members in profile.groups:
        ra, rb = order.rank(a), order.rank(b)
        if rb < ra:
            margin += len(members)
        elif ra < rb:
            margin -= len(members)
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

    parse_body = _parse_ballot if format == "approval" else _parse_order
    parsed: dict = {}  # body text -> its order or ballot, parsed on first sight
    items: list = []
    for lineno, line in numbered[2:]:
        if ":" not in line:
            raise ProfileFormatError("expected '<count>: <order>'", lineno)
        count_part, _, body = line.partition(":")
        try:
            count = int(count_part.strip())
        except ValueError:
            raise ProfileFormatError(f"bad multiplicity {count_part.strip()!r}", lineno)
        if count < 1:
            raise ProfileFormatError("multiplicity must be at least 1", lineno)
        item = _shared(parsed, body.strip(), parse_body, alt_set, lineno)
        try:
            items.extend([item] * count)
        except (MemoryError, OverflowError):
            raise ProfileFormatError(
                f"multiplicity {count} is too large to expand", lineno
            ) from None
    if format == "approval":
        return ApprovalProfile(names, tuple(items))
    return Profile(names, tuple(items))


def _shared(built: dict, key, make, *args):
    """``built[key]``, made by ``make(key, *args)`` the first time ``key`` is
    seen, so that equal keys share one object."""
    try:
        return built[key]
    except KeyError:
        value = built[key] = make(key, *args)
        return value


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


def _parse_ballot(body: str, alt_set, lineno: int) -> frozenset[str]:
    return frozenset(_parse_group(body, alt_set, lineno, allow_empty=True))


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


def _format_order(order: WeakOrder) -> str:
    return " > ".join(_format_class(c) for c in order.indifference_classes)


def _format_ballot(ballot: frozenset[str]) -> str:
    return "{" + ",".join(sorted(ballot)) + "}"


def serialize_profile(profile) -> str:
    """Canonical text for a Profile or ApprovalProfile.

    Class members are sorted, consecutive identical voters are grouped under
    one multiplicity line, and counts of 1 are written explicitly, so the
    output is a normal form: parsing it back and re-serializing is the
    identity byte-for-byte.
    """
    lines = [str(profile.m), " ".join(profile.alternatives)]
    render = _format_ballot if isinstance(profile, ApprovalProfile) else _format_order
    rendered = [""] * profile.n
    for item, members in profile.groups:  # each distinct voter rendered once
        text = render(item)
        for i in members:
            rendered[i] = text
    for text, run in groupby(rendered):
        lines.append(f"{sum(1 for _ in run)}: {text}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# seeded generators for structured profiles


def default_alternative_names(m: int) -> tuple[str, ...]:
    if m <= len(_LETTERS):
        return tuple(_LETTERS[:m])
    return tuple(f"c{i + 1}" for i in range(m))


def _seeded(m: int, n: int, seed: int):
    """Every generator's start: the sizes checked, the seeded random stream
    and the default names."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    return random.Random(seed), default_alternative_names(m)


def generate_single_peaked(m: int, n: int, seed: int) -> tuple[Profile, Axis]:
    """Random profile of linear orders single-peaked on a hidden random axis.

    Each voter repeatedly removes the leftmost or rightmost remaining
    alternative of the axis interval (fair coin) and gives it the worst
    remaining rank, which samples uniformly from the 2^(m-1) orders
    single-peaked on that axis.
    """
    rng, names = _seeded(m, n, seed)
    axis_order = list(names)
    rng.shuffle(axis_order)
    orders: dict = {}  # best-to-worst tuple -> its order, built once
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
        voters.append(_shared(orders, tuple(reversed(worst_to_best)), WeakOrder.linear))
    return Profile(names, tuple(voters)), Axis(tuple(axis_order))


def generate_single_crossing(m: int, n: int, seed: int) -> tuple[Profile, tuple[int, ...]]:
    """Random single-crossing profile, crossing in the listed voter order.

    Walks a maximal chain of m(m-1)/2 adjacent swaps from a random start
    order to its reverse (each unordered pair swaps exactly once), then
    samples n chain positions with replacement and emits them sorted.  The
    returned tuple is the certifying voter ordering (the identity).
    """
    rng, names = _seeded(m, n, seed)
    current = list(names)
    rng.shuffle(current)
    chain = [WeakOrder.linear(current)]
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
        chain.append(WeakOrder.linear(current))
    positions = sorted(rng.randrange(len(chain)) for _ in range(n))
    voters = tuple(chain[p] for p in positions)  # identical voters share one order
    return Profile(names, voters), tuple(range(n))


def generate_candidate_interval(m: int, n: int, seed: int) -> tuple[ApprovalProfile, Axis]:
    """Random approval profile whose ballots are intervals of a hidden axis."""
    rng, names = _seeded(m, n, seed)
    axis_order = list(names)
    rng.shuffle(axis_order)
    intervals = [(lo, hi) for lo in range(m) for hi in range(lo, m)]
    built: dict = {}  # interval -> its ballot, built once
    ballots = []
    for _ in range(n):
        lo, hi = intervals[rng.randrange(len(intervals))]
        ballots.append(_shared(built, (lo, hi), lambda _: frozenset(axis_order[lo : hi + 1])))
    return ApprovalProfile(names, tuple(ballots)), Axis(tuple(axis_order))


def generate_random_linear(m: int, n: int, seed: int) -> Profile:
    """Unstructured profile of uniformly random linear orders."""
    rng, names = _seeded(m, n, seed)
    orders: dict = {}  # best-to-worst tuple -> its order, built once
    voters = []
    for _ in range(n):
        order = list(names)
        rng.shuffle(order)
        voters.append(_shared(orders, tuple(order), WeakOrder.linear))
    return Profile(names, tuple(voters))
