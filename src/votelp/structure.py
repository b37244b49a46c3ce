"""Structural tests on profiles and 0/±1 matrices.

Builds the top-initial-segment incidence matrix (one row per voter/rank
pair) and the pairwise-comparison matrix (one column per voter), recognizes
the consecutive-ones property by an iterative backtracking column placement
that reads only the sets through the last placed column, and tests total
unimodularity by Ghouila-Houri row signings at desk scale, with a witness
from the first row set that has none.  Single-peaked and candidate-interval
recognition are one interval-axis check: the same search on the top
segments of the distinct orders, or on the distinct ballots, mapped to
index sets without building a matrix; each search ends in one contiguity
check of its certificate.  Single-crossing recognition sorts the distinct
orders by their disagreement with an end of the chain and checks
contiguity over that chain of distinct orders, not over the voters.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .model import ApprovalProfile, Axis, Profile


@dataclass(frozen=True)
class SignedMatrix:
    """Matrix over {-1, 0, +1} (the precondition of the TU definition)."""

    entries: tuple[tuple[int, ...], ...]
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]

    # the entries __post_init__ accepts; BinaryMatrix narrows them to 0/1
    _allowed = frozenset({-1, 0, 1})

    def __post_init__(self):
        if len(self.entries) != len(self.row_labels):
            raise ValueError("row label count does not match matrix")
        for row in self.entries:
            if len(row) != self.num_cols:
                raise ValueError("ragged matrix row")
            for v in row:
                if v not in self._allowed:
                    raise ValueError(f"entry {v!r} outside {sorted(self._allowed)}")

    @property
    def num_rows(self) -> int:
        return len(self.entries)

    @property
    def num_cols(self) -> int:
        return len(self.col_labels)


@dataclass(frozen=True)
class BinaryMatrix(SignedMatrix):
    """0/1 matrix with row and column labels: a ``SignedMatrix`` without -1."""

    _allowed = frozenset({0, 1})


# ---------------------------------------------------------------------------
# profile-derived matrices


def build_sp_matrix(profile: Profile) -> BinaryMatrix:
    """Top-initial-segment incidence matrix: one column per alternative, one
    row per (voter, rank threshold) pair, duplicates included.  Its distinct
    rows are the committee rows of the cc/owa programs: the rows after the
    cardinality row in ``formulate.committee_submatrix``."""
    cols = profile.alternatives
    entries = []
    labels = []
    for i, order in enumerate(profile.voters):
        for t, segment in enumerate(order.top_segments, start=1):
            entries.append(tuple(1 if c in segment else 0 for c in cols))
            labels.append(f"v{i + 1}:t{t}")
    return BinaryMatrix(tuple(entries), tuple(labels), cols)


def build_sc_matrix(profile: Profile) -> BinaryMatrix:
    """Pairwise-comparison matrix: one column per voter, one row per ordered
    pair (a, b) with a != b; entry 1 iff the voter strictly prefers a to b."""
    if not profile.is_linear():
        raise ValueError("single-crossing matrix requires linear orders")
    cols = tuple(f"v{i + 1}" for i in range(profile.n))
    entries = []
    labels = []
    for a in profile.alternatives:
        for b in profile.alternatives:
            if a == b:
                continue
            entries.append(
                tuple(1 if v.prefers(a, b) else 0 for v in profile.voters)
            )
            labels.append(f"{a}>{b}")
    return BinaryMatrix(tuple(entries), tuple(labels), cols)


# ---------------------------------------------------------------------------
# consecutive ones


def _consecutive_order(sets, ncols):
    """The lexicographically smallest order of ``range(ncols)`` in which every
    set of column indices is contiguous, or None.

    Columns are placed left to right by depth-first search.  A set split by
    the prefix (some members placed, some not) has its placed part flush
    against the prefix end, so it holds ``order[-1]`` and the next column
    must lie in it: the candidates are the unplaced columns common to every
    set through ``order[-1]`` not yet fully placed, which makes the search
    complete.  With no such set every unplaced column is a candidate, and
    the sets left to place must have an order of their own, so if that step
    fails no order exists.  Candidates are tried in ascending order, so the
    first order found is the smallest.  A backtrack resumes above the column
    it takes back, so no candidate list is kept and the depth is not bounded
    by the recursion limit.  Worst case is exponential; the order is checked
    against every set that constrains it before it is returned.
    """
    # sets with <2 members never constrain contiguity; full sets are always fine
    rows = [r for r in set(sets) if 1 < len(r) < ncols]
    through: dict = {}  # column -> indices of the rows holding it
    for i, r in enumerate(rows):
        for j in r:
            through.setdefault(j, []).append(i)
    unplaced = [len(r) for r in rows]  # per row: members not yet placed
    order, placed = [], bytearray(ncols)
    low, last = 0, -1  # the smallest unplaced column; the column last tried at this depth
    while len(order) < ncols:
        split = [rows[i] for i in through.get(order[-1], ()) if unplaced[i]] if order else ()
        col = max(last + 1, low)
        if split:
            common = split[0].intersection(*split[1:])
            col = min((j for j in common if j >= col and not placed[j]), default=ncols)
        while col < ncols and placed[col]:  # unconstrained: the next unplaced column
            col += 1
        if col < ncols:
            order.append(col)
            placed[col], last = 1, -1
            for i in through.get(col, ()):
                unplaced[i] -= 1
            while low < ncols and placed[low]:
                low += 1
        elif split:  # no candidate left at this depth: take back the last column
            last = order.pop()
            placed[last], low = 0, min(low, last)
            for i in through.get(last, ()):
                unplaced[i] += 1
        else:  # the sets left unplaced have no order, whatever the prefix
            return None
    position = {col: pos for pos, col in enumerate(order) if col in through}
    for r in rows:
        spots = [position[j] for j in r]
        if max(spots) - min(spots) + 1 != len(spots):  # pragma: no cover
            raise AssertionError("contiguity search produced an invalid order")
    return tuple(order)


def has_c1p(matrix: BinaryMatrix):
    """Search for a column permutation making every row's 1s contiguous:
    the lexicographically smallest one (new position -> old column index),
    or None."""
    sets = (frozenset(itertools.compress(range(matrix.num_cols), row)) for row in matrix.entries)
    return _consecutive_order(sets, matrix.num_cols)


def _interval_axis(alternatives, sets):
    """The canonical axis on which every set is an interval, or None.
    ``canonical`` only reverses the order, so every set stays an interval."""
    index = {c: j for j, c in enumerate(alternatives)}
    order = _consecutive_order(
        (frozenset(index[c] for c in s) for s in sets), len(alternatives)
    )
    if order is None:
        return None
    return Axis(tuple(alternatives[j] for j in order)).canonical()


def is_single_peaked(profile: Profile):
    """Return a certifying axis (canonical direction) or None.

    The axis certifies that every top-initial segment of every voter is an
    interval of it.  Identical voters give identical segments, so only the
    distinct orders are examined.
    """
    segments = tuple(segment for order, _ in profile.groups for segment in order.top_segments)
    return _interval_axis(profile.alternatives, segments)


def is_candidate_interval(approval: ApprovalProfile):
    """Return an axis on which every ballot is an interval, or None."""
    return _interval_axis(approval.alternatives, tuple(ballot for ballot, _ in approval.groups))


def is_single_crossing(profile: Profile):
    """Return a certifying voter ordering (0-based, canonical direction) or None.

    Along a single-crossing chain of distinct orders, the set of pairs on
    which an order disagrees with the first one only grows, so the chain is
    unique up to reversal, the order farthest from any order is one of its
    ends, and sorting by disagreement with that end recovers it.  Identical
    voters must sit together, so each group is expanded with ascending
    indices and the smaller of the two directions is returned: the
    lexicographically smallest certifying ordering.  Every group is one
    block of that ordering, so the final check that every pair's supporters
    are contiguous, which decides the answer, runs over the chain of
    distinct orders; only the expansion touches every voter.  Raises
    ValueError on weak orders.
    """
    if not profile.is_linear():
        raise ValueError("single-crossing recognition requires linear orders")
    groups = profile.groups
    pairs = list(itertools.combinations(profile.alternatives, 2))

    def disagreements(u, v) -> int:
        return sum(1 for a, b in pairs if u.prefers(a, b) != v.prefers(a, b))

    # max and sorted keep the first of equal keys: ties go to the first voter
    end, _ = max(groups, key=lambda g: disagreements(groups[0][0], g[0]))
    chain = sorted(groups, key=lambda g: disagreements(end, g[0]))
    for a, b in itertools.permutations(profile.alternatives, 2):
        positions = [pos for pos, (order, _) in enumerate(chain) if order.prefers(a, b)]
        if positions and positions[-1] - positions[0] + 1 != len(positions):
            return None
    forward = tuple(i for _, members in chain for i in members)
    backward = tuple(i for _, members in reversed(chain) for i in members)
    return min(forward, backward)


# ---------------------------------------------------------------------------
# total unimodularity


@dataclass(frozen=True)
class TUResult:
    """Verdict of the total-unimodularity test.

    ``kind`` is ``"tu"``, ``"not_tu"`` or ``"budget_exceeded"``.  For
    ``not_tu`` the witness fields name a square submatrix (row/column indices
    of the input matrix) whose determinant has absolute value at least 2.
    """

    kind: str
    witness_rows: tuple[int, ...] | None = None
    witness_cols: tuple[int, ...] | None = None
    witness_det: int | None = None

    @property
    def is_tu(self) -> bool:
        return self.kind == "tu"


def _int_det(rows) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    mat = [list(r) for r in rows]
    n = len(mat)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            for i in range(k + 1, n):
                if mat[i][k] != 0:
                    mat[k], mat[i] = mat[i], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[n - 1][n - 1]


def _has_gh_signing(rows, subset, ncols) -> bool:
    """Is there a +/-1 signing of ``subset`` with all column sums in {-1,0,1}?"""
    k = len(subset)
    # remaining[t][j]: how many of rows subset[t:] have a nonzero in column j
    remaining = [[0] * ncols for _ in range(k + 1)]
    for t in range(k - 1, -1, -1):
        row = rows[subset[t]]
        nxt = remaining[t + 1]
        remaining[t] = [nxt[j] + (1 if row[j] else 0) for j in range(ncols)]
    sums = [0] * ncols
    nonzero_cols = [
        [j for j in range(ncols) if rows[idx][j]] for idx in subset
    ]

    def assign(t: int) -> bool:
        if t == k:
            return True
        row = rows[subset[t]]
        bound = remaining[t + 1]
        signs = (1,) if t == 0 else (1, -1)  # global sign symmetry
        for sign in signs:
            ok = True
            for j in nonzero_cols[t]:
                sums[j] += sign * row[j]
                if abs(sums[j]) > 1 + bound[j]:
                    ok = False
            if ok and assign(t + 1):
                return True
            for j in nonzero_cols[t]:
                sums[j] -= sign * row[j]
        return False

    return assign(0)


def _det_witness(rows, subset, ncols):
    """A square submatrix with |det| >= 2 on all rows of ``subset``, the first
    row set without a signing: every smaller one has a signing, so (Ghouila-
    Houri) every proper row-submatrix is TU and a witness uses every row."""
    for csub in itertools.combinations(range(ncols), len(subset)):
        det = _int_det([[rows[i][j] for j in csub] for i in subset])
        if abs(det) >= 2:
            return subset, csub, det
    raise AssertionError("signing violation without a determinant witness")


def is_totally_unimodular(matrix, row_budget: int = 16) -> TUResult:
    """Ghouila-Houri test: TU iff every row subset admits a +/-1 signing with
    all column sums in {-1, 0, 1}.

    The test runs over the smaller dimension (transposing first if needed;
    TU is transpose-invariant), enumerating subsets by increasing size.  If
    that dimension exceeds ``row_budget`` the verdict is ``budget_exceeded``.
    """
    nrows, ncols = matrix.num_rows, matrix.num_cols
    transposed = nrows > ncols
    if transposed:
        nrows, ncols = ncols, nrows
    if nrows > row_budget:
        return TUResult("budget_exceeded")
    rows = [list(r) for r in (zip(*matrix.entries) if transposed else matrix.entries)]
    for size in range(1, nrows + 1):
        for subset in itertools.combinations(range(nrows), size):
            if not _has_gh_signing(rows, subset, ncols):
                wr, wc, det = _det_witness(rows, subset, ncols)
                if transposed:
                    wr, wc = wc, wr
                return TUResult("not_tu", tuple(wr), tuple(wc), det)
    return TUResult("tu")


# ---------------------------------------------------------------------------
# matrix text format: first line "rows cols", then space-separated entries


def parse_matrix(text: str) -> SignedMatrix:
    lines = [ln for ln in (s.strip() for s in text.split("\n")) if ln]
    if not lines:
        raise ValueError("empty matrix file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("first line must be '<rows> <cols>'")
    nrows, ncols = int(head[0]), int(head[1])
    if nrows < 0 or ncols < 0:
        raise ValueError(f"negative matrix size: {nrows} rows, {ncols} columns")
    if len(lines) != nrows + 1:
        raise ValueError(f"expected {nrows} matrix rows, got {len(lines) - 1}")
    entries = []
    for ln in lines[1:]:
        row = tuple(int(tok) for tok in ln.split())
        if len(row) != ncols:
            raise ValueError(f"expected {ncols} entries per row")
        entries.append(row)
    # with no rows the text does not bound the declared width: the labels are
    # asked for in one allocation, so a width no process can hold fails at once
    try:
        col_labels = [None] * ncols
        for j in range(ncols):
            col_labels[j] = f"c{j + 1}"
    except (MemoryError, OverflowError):
        raise ValueError(f"{ncols} columns are too many to hold") from None
    return SignedMatrix(
        tuple(entries),
        tuple(f"r{i + 1}" for i in range(nrows)),
        tuple(col_labels),
    )


def serialize_matrix(matrix) -> str:
    lines = [f"{matrix.num_rows} {matrix.num_cols}"]
    lines.extend(" ".join(str(v) for v in row) for row in matrix.entries)
    return "\n".join(lines) + "\n"
