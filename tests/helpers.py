"""Shared test fixtures and tiny builders.

The worked profiles below are the regression anchors used across the test
modules; expected values asserted against them were computed independently
(by hand or by the enumeration oracles in this directory) before the
optimization path existed.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from hypothesis import strategies as st

from votelp import ApprovalProfile, Profile, parse_profile


def ranked(names: str, *orders: str) -> Profile:
    """Build a ranked profile from compact strings like ``"2: {a,b}>c"``."""
    alts = names.split()
    lines = [str(len(alts)), names]
    for order in orders:
        if ":" in order:
            lines.append(order)
        else:
            lines.append(f"1: {order}")
    return parse_profile("\n".join(lines) + "\n")


def approval(names: str, *ballots) -> ApprovalProfile:
    alts = names.split()
    lines = [str(len(alts)), names]
    for ballot in ballots:
        lines.append("1: {" + ",".join(sorted(ballot)) + "}")
    return parse_profile("\n".join(lines) + "\n", format="approval")


def is_canonical(x) -> bool:
    """An exact number in canonical form: an ``int`` exactly when integral."""
    return (type(x) is int) == (x.denominator == 1)


# the example profiles referenced throughout the tests
def profile_e1() -> Profile:
    return ranked("a b c", "a>b>c", "b>a>c", "c>b>a")


def profile_e2() -> ApprovalProfile:
    return approval("a b c d", {"a", "b"}, {"b", "c"}, {"c", "d"})


def profile_e3() -> Profile:
    return ranked("a b c", "2: c>a>b", "b>a>c")


def profile_e4() -> Profile:
    return ranked("a b", "2: a>b", "b>a")


def profile_e5() -> Profile:
    return ranked("a b c", "a>b>c", "b>a>c", "b>c>a", "2: c>b>a")


def profile_cycle3() -> Profile:
    return ranked("a b c", "a>b>c", "b>c>a", "c>a>b")


def coverage_gap_profile() -> Profile:
    """Weak orders whose top classes are all pairs from four alternatives.

    With top-class-only scoring and committees of two this has a strict
    LP/IP gap (relaxation 6 versus best committee 5), so it reliably
    exercises the branch-and-bound path.
    """
    alts = "abcd"
    orders = []
    for pair in itertools.combinations(alts, 2):
        top = ",".join(sorted(pair))
        rest = ",".join(sorted(set(alts) - set(pair)))
        orders.append(f"{{{top}}} > {{{rest}}}")
    return ranked("a b c d", *orders)


def random_binary_matrix(rng: random.Random, max_rows: int, max_cols: int):
    from votelp import BinaryMatrix

    nrows = rng.randint(1, max_rows)
    ncols = rng.randint(1, max_cols)
    entries = tuple(
        tuple(rng.randint(0, 1) for _ in range(ncols)) for _ in range(nrows)
    )
    return BinaryMatrix(
        entries,
        tuple(f"r{i}" for i in range(nrows)),
        tuple(f"c{j}" for j in range(ncols)),
    )


def random_signed_matrix(rng: random.Random, max_rows: int, max_cols: int):
    from votelp import SignedMatrix

    nrows = rng.randint(1, max_rows)
    ncols = rng.randint(1, max_cols)
    entries = tuple(
        tuple(rng.choice((-1, 0, 0, 1)) for _ in range(ncols)) for _ in range(nrows)
    )
    return SignedMatrix(
        entries,
        tuple(f"r{i}" for i in range(nrows)),
        tuple(f"c{j}" for j in range(ncols)),
    )


def random_weak_profile(rng: random.Random, m: int, n: int) -> Profile:
    """Random profile of weak orders (random linear order, random class breaks)."""
    from votelp import WeakOrder
    from votelp.model import default_alternative_names

    names = default_alternative_names(m)
    voters = []
    for _ in range(n):
        order = list(names)
        rng.shuffle(order)
        classes = []
        current = [order[0]]
        for name in order[1:]:
            if rng.random() < 0.3:
                current.append(name)
            else:
                classes.append(current)
                current = [name]
        classes.append(current)
        voters.append(WeakOrder.from_classes(classes))
    return Profile(tuple(names), tuple(voters))


def random_approval_profile(
    rng: random.Random, m: int, n: int, allow_empty: bool = False
) -> ApprovalProfile:
    from votelp.model import default_alternative_names

    names = default_alternative_names(m)
    ballots = []
    for _ in range(n):
        while True:
            ballot = frozenset(c for c in names if rng.random() < 0.5)
            if ballot or allow_empty:
                break
        ballots.append(ballot)
    return ApprovalProfile(tuple(names), tuple(ballots))


def tu_by_determinant_enumeration(matrix) -> bool:
    """Independent total-unimodularity oracle: check every square minor."""
    from votelp.structure import _int_det

    entries = matrix.entries
    nrows, ncols = len(entries), len(entries[0]) if entries else 0
    for size in range(1, min(nrows, ncols) + 1):
        for rsub in itertools.combinations(range(nrows), size):
            for csub in itertools.combinations(range(ncols), size):
                det = _int_det([[entries[i][j] for j in csub] for i in rsub])
                if det not in (-1, 0, 1):
                    return False
    return True


def keeps_rows_contiguous(matrix, perm) -> bool:
    """Is ``perm`` (new position -> old column index) a permutation of the
    columns that puts every row's 1s next to each other?"""
    if sorted(perm) != list(range(len(matrix.col_labels))):
        return False
    for row in matrix.entries:
        ones = [pos for pos, j in enumerate(perm) if row[j]]
        if ones and ones[-1] - ones[0] + 1 != len(ones):
            return False
    return True


def first_c1p_permutation(matrix):
    """Independent consecutive-ones oracle: the first column permutation, in
    ``itertools.permutations`` order, that makes every row's 1s contiguous,
    or None."""
    for perm in itertools.permutations(range(len(matrix.col_labels))):
        if keeps_rows_contiguous(matrix, perm):
            return perm
    return None


def c1p_by_permutation_search(matrix) -> bool:
    """Does some column permutation make every row's 1s contiguous?"""
    return first_c1p_permutation(matrix) is not None


def cc_on_axis(profile, axis, weights, k):
    """Independent cc oracle for a profile of linear orders single-peaked on
    ``axis``: a left-to-right DP over the committee's members (Betzler,
    Slinko and Uhlmann, JAIR 2013), in O(k * m^2 * groups).

    Along one side of its peak a voter likes alternatives less the farther
    they are, so its best member is the nearest member on one side of the
    peak.  With members at axis positions i_1 < ... < i_k, voters peaking at
    or left of i_1 take i_1, voters peaking in (i_j, i_{j+1}] take the better
    of the two, and voters right of i_k take i_k."""
    line = axis.ordering
    m = len(line)
    groups = [
        (order, len(members), line.index(next(iter(order.indifference_classes[0]))))
        for order, members in profile.groups
    ]

    def served(peaks, value):
        # the score of the voters peaking in ``peaks``, each taking ``value(order)``
        return sum(
            (n * value(order) for order, n, peak in groups if peak in peaks), Fraction(0)
        )

    def score(order, pos):
        return weights.at_rank(order.rank(line[pos]))

    # best[b]: the most that the voters peaking at or left of b get from j
    # members, the rightmost at b (None if fewer than j positions are free)
    best = [served(range(b + 1), lambda o: score(o, b)) for b in range(m)]
    for _ in range(k - 1):
        best = [
            max(
                (
                    best[a] + served(range(a + 1, b + 1), lambda o: max(score(o, a), score(o, b)))
                    for a in range(b)
                    if best[a] is not None
                ),
                default=None,
            )
            for b in range(m)
        ]
    return max(
        best[b] + served(range(b + 1, m), lambda o: score(o, b))
        for b in range(m)
        if best[b] is not None
    )


def recount(text, factors):
    """Profile text with the count of each ``<count>:`` line multiplied by
    the next of ``factors``."""
    head, names, *lines = text.splitlines()
    out = [head, names]
    for line, factor in zip(lines, factors):
        count, _, body = line.partition(":")
        out.append(f"{int(count) * factor}:{body}")
    return "\n".join(out) + "\n"


@st.composite
def small_elections(draw):
    """A profile of linear orders, of weak orders or of approval ballots, with
    at most 5 alternatives and 7 voters, and its text format."""
    from votelp import WeakOrder
    from votelp.model import default_alternative_names

    names = default_alternative_names(draw(st.integers(1, 5)))
    kind = draw(st.sampled_from(("linear", "weak", "approval")))
    voters = []
    for _ in range(draw(st.integers(1, 7))):
        order = draw(st.permutations(names))
        if kind == "approval":
            voters.append(frozenset(order[: draw(st.integers(0, len(order)))]))
            continue
        if kind == "linear":
            cuts = range(len(order) + 1)
        else:
            cuts = sorted({0, len(order), *draw(st.lists(st.integers(1, len(order)), max_size=3))})
        voters.append(WeakOrder.from_classes(order[a:b] for a, b in zip(cuts, cuts[1:])))
    if kind == "approval":
        return ApprovalProfile(names, tuple(voters)), "approval"
    return Profile(names, tuple(voters)), "ranked"


# the tokens profile text is made of, besides counts and the header
_TEXT_TOKENS = ("a", "b", "c", "d", "{", "}", ",", ">", " ", ":")


@st.composite
def _well_formed_body(draw, names):
    """A ranked order or approval ballot over ``names``, spaced at random and
    with its members in drawn order (so equal bodies get different spellings)."""
    order = draw(st.permutations(names))
    if draw(st.booleans()):
        size = draw(st.integers(0, len(order)))
        return "{" + ",".join(order[:size]) + "}"
    classes, start = [], 0
    while start < len(order):
        end = draw(st.integers(start + 1, len(order)))
        cls = order[start:end]
        classes.append(cls[0] if len(cls) == 1 and draw(st.booleans()) else "{" + ",".join(cls) + "}")
        start = end
    return draw(st.sampled_from((" > ", ">", "  >  "))).join(classes)


@st.composite
def profile_texts(draw):
    """Profile text built from header, count, name, brace, ``,`` and ``>``
    tokens, valid or not, with counts of at most 10^3 and bodies drawn from a
    small pool so that lines repeat."""
    names = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4))
    m = draw(st.one_of(st.just(len(names)), st.integers(0, 5)))
    soup = st.lists(st.sampled_from(_TEXT_TOKENS), max_size=10).map("".join)
    bodies = draw(st.lists(st.one_of(soup, _well_formed_body(names)), min_size=1, max_size=3))
    lines = [str(m), " ".join(names)]
    for _ in range(draw(st.integers(0, 5))):
        count = draw(st.one_of(st.integers(-1, 1000).map(str), soup))
        lines.append(f"{count}:{draw(st.sampled_from(('', ' ')))}{draw(st.sampled_from(bodies))}")
    return "\n".join(lines) + "\n"
