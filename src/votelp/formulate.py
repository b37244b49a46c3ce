"""Integer-programming formulations of the committee and deletion problems.

Each builder translates a profile plus rule parameters into an explicit
sparse rational instance; ``extract_solution`` maps solver assignments back
to committees or deleted-voter sets.  ``cc_ip``, ``owa_ip`` and ``pav_ip``
are one program, built by ``_threshold_ip``: every voter reads one column
set per rank threshold r (its top segment) or its approval ballot, and each
distinct set S gets one row, in which slot l <= |S| is earned once l
committee members lie in the set.  The slot is worth alpha_l times the
summed w'_r of every (voter, threshold) reading the set, so repeated voters
add weight, not rows, and the program size is bounded by the distinct
segments or ballots (at most m(m+1)/2 on single-peaked or interval
profiles).  With the marginal weights w'_r each voter's total telescopes
back to the rule's score; cc is the single slot alpha = (1,), pav the single
threshold w' = (1,).  Only the committee variables are flagged integral:
once they are, each row's slots are unit columns under an integral bound,
so a vertex with an integral committee has integral slots.  The egalitarian
feasibility program reads the same column sets (the model's top segments or
ballots) as covering rows, one per voter.

Every number a program holds (bounds, coefficients, right-hand sides and
objective coefficients) is in canonical exact form: an ``int`` when it is
integral, a ``Fraction`` only when it is not.  The builders emit it that way,
and ``IPInstance`` puts hand-built data into that form, so a solver can read
a program's data as it is.  The rule vectors stay ``Fraction``s.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .model import ApprovalProfile, Profile, majority_margin
from .structure import BinaryMatrix, SignedMatrix

ZERO = Fraction(0)
ONE = Fraction(1)

COMMITTEE = "committee"
POINT = "point"
DELETION = "deletion"

CARDINALITY_LABEL = "cardinality"


def _exact(x):
    """``x`` in canonical form: an ``int`` when it is integral, else unchanged."""
    return x if x is None or x.denominator != 1 else x.numerator


def _exact_pairs(pairs: tuple) -> tuple:
    """Sparse ``(index, number)`` pairs, every number in canonical form."""
    if all(type(v) is int or v.denominator != 1 for _, v in pairs):
        return pairs
    return tuple((j, _exact(v)) for j, v in pairs)


def _exact_variable(var):
    lower, upper = _exact(var.lower), _exact(var.upper)
    if lower is var.lower and upper is var.upper:
        return var
    return replace(var, lower=lower, upper=upper)


def _exact_constraint(con):
    coeffs, rhs = _exact_pairs(con.coeffs), _exact(con.rhs)
    if coeffs is con.coeffs and rhs is con.rhs:
        return con
    return replace(con, coeffs=coeffs, rhs=rhs)


@dataclass(frozen=True)
class _Weights:
    """Non-empty, non-increasing, non-negative rationals; ``_what`` names the
    vector in error messages."""

    entries: tuple
    _what = "vector"

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(Fraction(v) for v in self.entries))
        if not self.entries:
            raise ValueError(f"{self._what} must be non-empty")
        for a, b in zip(self.entries, self.entries[1:]):
            if a < b:
                raise ValueError(f"{self._what} must be non-increasing")
        if self.entries[-1] < 0:
            raise ValueError(f"{self._what} must be non-negative")


@dataclass(frozen=True)
class ScoringVector(_Weights):
    """Non-increasing, non-negative positional scores indexed by rank."""

    _what = "scoring vector"

    @staticmethod
    def borda(m: int) -> "ScoringVector":
        return ScoringVector(tuple(Fraction(m - r) for r in range(m)))

    def padded(self, m: int) -> tuple:
        """Length-m view, repeating the last entry for missing ranks."""
        if len(self.entries) >= m:
            return self.entries[:m]
        return self.entries + (self.entries[-1],) * (m - len(self.entries))

    def at_rank(self, r: int):
        return self.entries[min(r, len(self.entries)) - 1]


@dataclass(frozen=True)
class OwaVector(_Weights):
    """Non-increasing, non-negative ordered-weighted-average weights."""

    _what = "OWA vector"

    @staticmethod
    def harmonic(k: int) -> "OwaVector":
        return OwaVector(tuple(Fraction(1, j) for j in range(1, k + 1)))

    @staticmethod
    def constant(k: int) -> "OwaVector":
        return OwaVector((ONE,) * k)

    def __len__(self) -> int:
        return len(self.entries)

    def prefix_sums(self) -> tuple:
        """(0, a1, a1+a2, ...) - the achievable per-voter approval values."""
        sums = [ZERO]
        for a in self.entries:
            sums.append(sums[-1] + a)
        return tuple(sums)


@dataclass(frozen=True)
class RuleSpec:
    """Which rule is being computed, plus the committee size."""

    kind: str  # "cc" | "pav" | "owa"
    k: int
    weights: ScoringVector | None = None
    owa: OwaVector | None = None

    def __post_init__(self):
        if self.kind not in ("cc", "pav", "owa"):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.k < 1:
            raise ValueError("committee size must be at least 1")
        if self.kind in ("cc", "owa") and self.weights is None:
            raise ValueError(f"{self.kind} needs a scoring vector")
        if self.kind in ("pav", "owa"):
            if self.owa is None:
                raise ValueError(f"{self.kind} needs an OWA vector")
            if len(self.owa) != self.k:
                raise ValueError("OWA vector length must equal the committee size")


@dataclass(frozen=True)
class Variable:
    name: str
    role: str  # COMMITTEE | POINT | DELETION
    lower: object
    upper: object  # None means unbounded above
    integral: bool
    voters: tuple = ()  # a deletion variable's voters, lowest index first


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple  # ((var_index, number), ...), strictly increasing indices
    sense: str  # "<=" | "=" | ">="
    rhs: object
    label: str


@dataclass(frozen=True)
class IPInstance:
    """Sparse exact optimization instance; every bound, coefficient and
    right-hand side is put into canonical form (see the module docstring)."""

    variables: tuple
    objective_sense: str  # "max" | "min"
    objective: tuple  # sparse ((var_index, number), ...)
    constraints: tuple

    def __post_init__(self):
        nvars = len(self.variables)
        if self.objective_sense not in ("max", "min"):
            raise ValueError("objective sense must be 'max' or 'min'")
        for idx, _ in self.objective:
            if not 0 <= idx < nvars:
                raise ValueError("objective references an undeclared variable")
        cardinality = 0
        for con in self.constraints:
            if con.sense not in ("<=", "=", ">="):
                raise ValueError(f"bad constraint sense {con.sense!r}")
            indices = [idx for idx, _ in con.coeffs]
            if indices and not (0 <= indices[0] and indices[-1] < nvars):
                raise ValueError(f"constraint {con.label} references an undeclared variable")
            if any(a >= b for a, b in zip(indices, indices[1:])):
                raise ValueError(f"constraint {con.label} must list strictly increasing indices")
            if con.label == CARDINALITY_LABEL:
                cardinality += 1
        if any(v.role == COMMITTEE for v in self.variables) and cardinality != 1:
            raise ValueError("committee formulations need exactly one cardinality constraint")
        object.__setattr__(self, "variables", tuple(map(_exact_variable, self.variables)))
        object.__setattr__(self, "objective", _exact_pairs(self.objective))
        object.__setattr__(self, "constraints", tuple(map(_exact_constraint, self.constraints)))

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    def committee_size(self) -> int:
        for con in self.constraints:
            if con.label == CARDINALITY_LABEL:
                return int(con.rhs)
        raise ValueError("instance has no cardinality constraint")

    def variables_by_role(self, role: str) -> tuple:
        return tuple(i for i, v in enumerate(self.variables) if v.role == role)


@dataclass(frozen=True, slots=True)
class ExtractedSolution:
    committee: frozenset | None
    deleted_voters: frozenset | None


def marginal_weights(w: ScoringVector, m: int) -> tuple:
    """Rank-marginal weights: w'_r = w_r - w_{r+1} (last entry kept as is).

    Non-negative because w is non-increasing, and suffix sums reconstruct w.
    """
    padded = w.padded(m)
    out = [padded[r] - padded[r + 1] for r in range(m - 1)]
    out.append(padded[m - 1])
    return tuple(out)


def _columns(election) -> list:
    """Per group of identical voters (``election.groups``), the sorted
    committee-variable indices read at each rank threshold r = 1..m, and the
    voters: an order's top segment at r (the full set once a weak order runs
    out of classes), or the ballot at every threshold."""
    y_index = {c: j for j, c in enumerate(election.alternatives)}
    out = []
    for item, members in election.groups:
        sets = (item,) if isinstance(election, ApprovalProfile) else item.top_segments
        cols = tuple(tuple(sorted(y_index[c] for c in s)) for s in sets)
        out.append((cols + cols[-1:] * (election.m - len(cols)), members))
    return out


def _committee_vars(election, k: int):
    """The committee variables and the cardinality row of a size-k program."""
    if not 1 <= k <= election.m:
        raise ValueError("committee size out of range")
    variables = [Variable(f"y_{c}", COMMITTEE, 0, 1, True) for c in election.alternatives]
    cardinality = Constraint(tuple((j, 1) for j in range(election.m)), "=", k, CARDINALITY_LABEL)
    return variables, [cardinality]


def _threshold_ip(election, rank_weights, slots, k: int) -> IPInstance:
    """The shared committee program: one row per distinct column set S that
    some (voter, threshold r) reads, with continuous slot variables
    x_1..x_L in [0, 1], L = min(len(slots), |S|), and the row
    x_1 + ... + x_L <= (committee members among S); a slot past |S| could
    never be earned, so it is left out, and an empty S (an empty ballot)
    gets no row at all.  Slot l is worth ``slots[l]`` times the summed
    ``rank_weights[r]`` of every (voter, threshold) reading S; the row and
    its point variables are named after the first reader."""
    variables, constraints = _committee_vars(election, k)
    ranked = not isinstance(election, ApprovalProfile)
    readers: dict = {}  # sorted column set -> [first reader's label, summed weight]
    for thresholds, members in _columns(election):
        first = f"v{members[0] + 1}"
        for r, (weight, cols) in enumerate(zip(rank_weights, thresholds), start=1):
            if not cols:
                continue
            weight *= len(members)
            if cols in readers:
                readers[cols][1] += weight
            else:
                readers[cols] = [f"{first}:r{r}" if ranked else first, weight]
    objective = []
    for cols, (row, weight) in readers.items():
        point = "x_" + row.replace(":", "_")
        coeffs = [(j, -1) for j in cols]
        for ell, slot in enumerate(slots[: len(cols)], start=1):
            worth = slot * weight
            if worth:
                objective.append((len(variables), _exact(worth)))
            coeffs.append((len(variables), 1))
            variables.append(Variable(f"{point}_l{ell}", POINT, 0, 1, False))
        constraints.append(Constraint(tuple(coeffs), "<=", 0, row))
    return IPInstance(tuple(variables), "max", tuple(objective), tuple(constraints))


def pav_ip(approval: ApprovalProfile, alpha: OwaVector, k: int) -> IPInstance:
    """Approval committee selection with decreasing marginal credit."""
    if len(alpha) != k:
        raise ValueError("OWA vector length must equal the committee size")
    return _threshold_ip(approval, (ONE,), alpha.entries, k)


def cc_ip(profile: Profile, w: ScoringVector, k: int) -> IPInstance:
    """Best-representative committee selection via rank-threshold points."""
    return _threshold_ip(profile, marginal_weights(w, profile.m), (ONE,), k)


def owa_ip(profile: Profile, w: ScoringVector, alpha: OwaVector, k: int) -> IPInstance:
    """Ordered-weighted-average committee selection (non-increasing weights).

    Generalizes both the best-representative and the approval-credit rules:
    the point variable for (top segment, slot) is earned when the committee
    contains at least that many members of the segment, and is worth the
    slot weight times the summed marginal weights of every (voter, rank)
    whose top segment it is.  A segment of size s gets min(k, s) slots, and
    the slots are continuous: an integral committee makes them integral.
    """
    if len(alpha) != k:
        raise ValueError("OWA vector length must equal the committee size")
    return _threshold_ip(profile, marginal_weights(w, profile.m), alpha.entries, k)


def young_ip(profile: Profile, a: str) -> IPInstance:
    """Fewest voter deletions leaving ``a`` the strict Condorcet winner.

    One integer variable per distinct order (``profile.groups``), named after
    its first voter, counts that group's deleted voters.  Each challenger b
    gets the signed row sum_{b>a} d - sum_{a>b} d >= margin(b, a) + 1, and a
    last row keeps at least one voter.  The matrix is not totally unimodular,
    even on single-crossing profiles: integral roots are measured, not proved.
    """
    if a not in profile.alternatives:
        raise ValueError(f"unknown alternative {a!r}")
    variables = [
        Variable(f"d_v{members[0] + 1}", DELETION, 0, len(members), True, members)
        for _, members in profile.groups
    ]
    constraints = []
    for b in profile.alternatives:
        if b == a:
            continue
        coeffs = tuple(
            (g, 1 if order.prefers(b, a) else -1)
            for g, (order, _) in enumerate(profile.groups)
            if order.rank(a) != order.rank(b)
        )
        rhs = majority_margin(profile, b, a) + 1
        constraints.append(Constraint(coeffs, ">=", rhs, f"{b}>{a}"))
    everyone = tuple((g, 1) for g in range(len(variables)))
    constraints.append(Constraint(everyone, "<=", profile.n - 1, "keep"))
    return IPInstance(tuple(variables), "min", everyone, tuple(constraints))


def egalitarian_feasibility_ip(election, rule: RuleSpec, level) -> IPInstance:
    """Committee-variables-only feasibility test: is there a size-k committee
    giving every voter value at least ``level``?

    Constraint rows are top-initial-segment rows (cc) or ballot incidence
    rows (pav), so single-peaked structure carries over to the matrix.
    """
    level = Fraction(level)
    if rule.kind not in ("cc", "pav"):
        raise ValueError("egalitarian instances exist for 'cc' and 'pav' only")
    variables, constraints = _committee_vars(election, rule.k)
    if rule.kind == "cc":
        # weights are non-increasing: the ranks worth at least ``level`` are 1..threshold
        threshold = sum(1 for w in rule.weights.padded(election.m) if w >= level)
        rhs, suffix = 1, ""
    else:
        # prefix sums are non-decreasing: ``needed`` approved members reach ``level``,
        # and needed = k + 1 means level exceeds the best achievable per-voter value
        needed = sum(1 for total in rule.owa.prefix_sums() if total < level)
        threshold, rhs = 1, needed
        suffix = ":infeasible" if needed > rule.k else ""
    # one row per voter, in voter order
    for i, thresholds in sorted((i, t) for t, members in _columns(election) for i in members):
        cols = thresholds[threshold - 1] if threshold else ()
        coeffs = tuple((j, 1) for j in cols)
        constraints.append(Constraint(coeffs, ">=", rhs, f"v{i + 1}{suffix}"))
    return IPInstance(tuple(variables), "max", (), tuple(constraints))


def egalitarian_levels(election, rule: RuleSpec) -> tuple:
    """Sorted distinct per-voter values achievable under the rule."""
    if rule.kind == "cc":
        return tuple(sorted(set(rule.weights.padded(election.m))))
    if rule.kind == "pav":
        return tuple(sorted(set(rule.owa.prefix_sums())))
    raise ValueError("egalitarian instances exist for 'cc' and 'pav' only")


@dataclass(frozen=True)
class EgalitarianResult:
    best_level: object
    committee: frozenset
    probes: tuple  # ((level, SolveReport), ...) in search order

    def all_relaxations_integral(self) -> bool:
        """Every feasible probe was solved by its relaxation alone
        (infeasible probes have no vertex, so they are vacuous here)."""
        return all(
            report.lp_integral
            for _, report in self.probes
            if report.lp.status == "optimal"
        )


def egalitarian_solve(election, rule: RuleSpec) -> EgalitarianResult:
    """Binary search over achievable levels for the max-min committee value."""
    from .simplex import solve_ip

    levels = egalitarian_levels(election, rule)
    probes = []
    lo, hi = 0, len(levels) - 1
    best = None  # (level index, report)
    while lo <= hi:
        mid = (lo + hi) // 2
        report = solve_ip(egalitarian_feasibility_ip(election, rule, levels[mid]))
        probes.append((levels[mid], report))
        if report.final.status == "optimal":
            best = (mid, report)
            lo = mid + 1
        else:
            hi = mid - 1
    if best is None:
        raise AssertionError("the lowest achievable level must be feasible")
    _, report = best
    return EgalitarianResult(
        levels[best[0]], report.extracted.committee, tuple(probes)
    )


# ---------------------------------------------------------------------------
# extraction


def extract_solution(inst: IPInstance, values) -> ExtractedSolution:
    """Read a committee or deleted-voter set off an assignment.

    The assignment must be integral on every integrality-flagged variable;
    committee extraction also checks the cardinality constraint, and a
    deletion count c deletes its group's c lowest voter indices.  The
    objective value is the solver's (``LPSolution.objective``).
    """
    values = tuple(values)
    if len(values) != inst.num_vars:
        raise ValueError("assignment length does not match the instance")
    for idx, var in enumerate(inst.variables):
        if var.integral and values[idx].denominator != 1:
            raise ValueError(f"non-integral value for variable {var.name}")
    committee_vars = inst.variables_by_role(COMMITTEE)
    deletion_vars = inst.variables_by_role(DELETION)
    committee = None
    deleted = None
    if committee_vars:
        chosen = []
        for idx in committee_vars:
            if values[idx] == 1:
                chosen.append(inst.variables[idx].name[len("y_") :])
            elif values[idx] != 0:
                raise ValueError(f"committee variable {inst.variables[idx].name} not 0/1")
        committee = frozenset(chosen)
        k = inst.committee_size()
        if len(committee) != k:
            raise ValueError(f"extracted committee has size {len(committee)}, expected {k}")
    if deletion_vars:
        deleted = frozenset(
            i for idx in deletion_vars for i in inst.variables[idx].voters[: int(values[idx])]
        )
    return ExtractedSolution(committee, deleted)


# ---------------------------------------------------------------------------
# views of the constraint matrix


def _coefficient_row(con: Constraint, cols) -> tuple:
    """``con``'s coefficients on the variables ``cols``, each in {-1, 0, 1}."""
    coefs = dict(con.coeffs)
    row = tuple(coefs.get(j, 0) for j in cols)
    if not all(v in (-1, 0, 1) for v in row):
        raise ValueError(f"constraint {con.label} has coefficients outside {{-1,0,1}}")
    return tuple(int(v) for v in row)


def constraint_matrix(inst: IPInstance):
    """Full signed constraint matrix (rows = constraints, all variables)."""
    return SignedMatrix(
        tuple(_coefficient_row(con, range(inst.num_vars)) for con in inst.constraints),
        tuple(con.label for con in inst.constraints),
        tuple(v.name for v in inst.variables),
    )


def committee_submatrix(inst: IPInstance):
    """|coefficients| of the committee columns, one row per constraint in
    program order: for cc/owa/pav the cardinality row, then one row per
    distinct top segment or ballot.  This strips the point-variable unit
    columns, which is the reduction that preserves total unimodularity in
    both directions, so its TU is what makes the relaxation integral."""
    cols = inst.variables_by_role(COMMITTEE)
    return BinaryMatrix(
        tuple(tuple(map(abs, _coefficient_row(con, cols))) for con in inst.constraints),
        tuple(con.label for con in inst.constraints),
        tuple(inst.variables[j].name for j in cols),
    )


# ---------------------------------------------------------------------------
# LP-style text serialization


def serialize_ip(inst: IPInstance) -> str:
    """Human-inspectable LP-style text (rationals as p/q) for cross checks."""

    def terms(coeffs):
        if not coeffs:
            return "0"
        parts = []
        for idx, coef in coeffs:
            sign = "-" if coef < 0 else "+"
            parts.append(f"{sign} {abs(coef)} {inst.variables[idx].name}")
        return " ".join(parts)

    lines = [inst.objective_sense, f"  obj: {terms(inst.objective)}", "subject to"]
    for con in inst.constraints:
        lines.append(f"  {con.label}: {terms(con.coeffs)} {con.sense} {con.rhs}")
    lines.append("bounds")
    for var in inst.variables:
        upper = str(var.upper) if var.upper is not None else "+inf"
        lines.append(f"  {var.lower} <= {var.name} <= {upper}")
    integral = [v.name for v in inst.variables if v.integral]
    if integral:
        lines.append("integer")
        lines.append("  " + " ".join(integral))
    lines.append("end")
    return "\n".join(lines) + "\n"
