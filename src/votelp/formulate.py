"""Integer-programming formulations of the committee and deletion problems.

Each builder translates a profile plus rule parameters into an explicit
sparse rational instance; ``extract_solution`` maps solver assignments back
to committees or deleted-voter sets.  ``cc_ip``, ``owa_ip`` and ``pav_ip``
are one program, built by ``_threshold_ip``: each voter has one row per
column set it reads (its top segment at every rank threshold r, or its
approval ballot), and in that row it earns slot l, worth alpha_l * w'_r,
once l committee members lie in the set.  With the marginal weights w'_r
the per-voter total telescopes back to the rule's score; cc is the single
slot alpha = (1,), pav the single threshold w' = (1,).  The egalitarian
feasibility program reads the same column sets as covering rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ApprovalProfile, Profile, majority_margin
from .rationals import ONE, ZERO, is_integer_valued, rat, rat_str

COMMITTEE = "committee"
POINT = "point"
DELETION = "deletion"

CARDINALITY_LABEL = "cardinality"


def _rat_tuple(values):
    return tuple(rat(v) for v in values)


def _check_non_increasing(entries, what: str):
    for a, b in zip(entries, entries[1:]):
        if a < b:
            raise ValueError(f"{what} must be non-increasing")
    if entries and entries[-1] < 0:
        raise ValueError(f"{what} must be non-negative")


@dataclass(frozen=True)
class ScoringVector:
    """Non-increasing, non-negative positional scores indexed by rank."""

    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", _rat_tuple(self.entries))
        if not self.entries:
            raise ValueError("scoring vector must be non-empty")
        _check_non_increasing(self.entries, "scoring vector")

    @staticmethod
    def borda(m: int) -> "ScoringVector":
        return ScoringVector(tuple(rat(m - r) for r in range(m)))

    def padded(self, m: int) -> tuple:
        """Length-m view, repeating the last entry for missing ranks."""
        if len(self.entries) >= m:
            return self.entries[:m]
        return self.entries + (self.entries[-1],) * (m - len(self.entries))

    def at_rank(self, r: int):
        return self.entries[min(r, len(self.entries)) - 1]


@dataclass(frozen=True)
class OwaVector:
    """Non-increasing, non-negative ordered-weighted-average weights."""

    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", _rat_tuple(self.entries))
        if not self.entries:
            raise ValueError("OWA vector must be non-empty")
        _check_non_increasing(self.entries, "OWA vector")

    @staticmethod
    def harmonic(k: int) -> "OwaVector":
        return OwaVector(tuple(rat(1, j) for j in range(1, k + 1)))

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


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple  # ((var_index, rational), ...) sorted by index
    sense: str  # "<=" | "=" | ">="
    rhs: object
    label: str


@dataclass(frozen=True)
class IPInstance:
    """Sparse rational optimization instance."""

    variables: tuple
    objective_sense: str  # "max" | "min"
    objective: tuple  # sparse ((var_index, rational), ...)
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
            for idx, _ in con.coeffs:
                if not 0 <= idx < nvars:
                    raise ValueError(f"constraint {con.label} references an undeclared variable")
            if con.label == CARDINALITY_LABEL:
                cardinality += 1
        if any(v.role == COMMITTEE for v in self.variables) and cardinality != 1:
            raise ValueError("committee formulations need exactly one cardinality constraint")

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


@dataclass(frozen=True)
class ExtractedSolution:
    committee: frozenset | None
    deleted_voters: frozenset | None
    objective: object


def _binary(name: str, role: str) -> Variable:
    return Variable(name, role, ZERO, ONE, True)


def marginal_weights(w: ScoringVector, m: int) -> tuple:
    """Rank-marginal weights: w'_r = w_r - w_{r+1} (last entry kept as is).

    Non-negative because w is non-increasing, and suffix sums reconstruct w.
    """
    padded = w.padded(m)
    out = [padded[r] - padded[r + 1] for r in range(m - 1)]
    out.append(padded[m - 1])
    for v in out:
        if v < 0:
            raise ValueError("scoring vector must be non-increasing")
    return tuple(out)


def _columns(election) -> list:
    """Per voter, the committee-variable indices its rows read: for a ranked
    voter the top segment at each rank threshold r = 1..m (the full set once
    a weak order runs out of classes), for an approval voter its ballot."""
    y_index = {c: j for j, c in enumerate(election.alternatives)}
    if isinstance(election, ApprovalProfile):
        return [[sorted(y_index[c] for c in ballot)] for ballot in election.ballots]
    per_voter = []
    for order in election.voters:
        cumulative: list[list[int]] = []
        current: list[int] = []
        for cls in order.indifference_classes:
            current = current + sorted(y_index[c] for c in cls)
            cumulative.append(current)
        per_voter.append(cumulative + [current] * (election.m - len(cumulative)))
    return per_voter


def _committee_vars(election, k: int):
    """The committee variables and the cardinality row of a size-k program."""
    if not 1 <= k <= election.m:
        raise ValueError("committee size out of range")
    variables = [_binary(f"y_{c}", COMMITTEE) for c in election.alternatives]
    cardinality = Constraint(
        tuple((j, ONE) for j in range(election.m)), "=", rat(k), CARDINALITY_LABEL
    )
    return variables, [cardinality]


def _threshold_ip(election, rank_weights, slots, k: int) -> IPInstance:
    """The shared committee program: per voter and threshold r, slot variables
    x_1..x_L worth ``slots[l] * rank_weights[r]`` and the row
    x_1 + ... + x_L <= (committee members among the threshold's columns)."""
    variables, constraints = _committee_vars(election, k)
    ranked = not isinstance(election, ApprovalProfile)
    objective = []
    for i, thresholds in enumerate(_columns(election)):
        for r, (weight, cols) in enumerate(zip(rank_weights, thresholds), start=1):
            row = f"v{i + 1}:r{r}" if ranked else f"v{i + 1}"
            point = "x_" + row.replace(":", "_")
            x_base = len(variables)
            for ell, slot in enumerate(slots, start=1):
                variables.append(_binary(f"{point}_l{ell}", POINT))
                if slot * weight != 0:
                    objective.append((x_base + ell - 1, slot * weight))
            coeffs = [(x_base + ell, ONE) for ell in range(len(slots))]
            coeffs += [(j, -ONE) for j in cols]
            constraints.append(Constraint(tuple(coeffs), "<=", ZERO, row))
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
    the point variable for (voter, rank, slot) is earned when the committee
    contains at least that many members at that rank or better.
    """
    if len(alpha) != k:
        raise ValueError("OWA vector length must equal the committee size")
    return _threshold_ip(profile, marginal_weights(w, profile.m), alpha.entries, k)


def young_ip(profile: Profile, a: str) -> IPInstance:
    """Minimum voter deletions driving every pairwise margin against ``a``
    below zero, as printed in the source formulation.

    The constraint for challenger b sums deletion variables only over voters
    with b above a; rows whose right-hand side is not positive are emitted
    anyway (labelled redundant) so the coefficient matrix stays exactly the
    pair-indexed block of the pairwise-comparison matrix.  Note this
    formulation can overstate what deletions achieve; reports surface the
    gap against the brute-force score.
    """
    if a not in profile.alternatives:
        raise ValueError(f"unknown alternative {a!r}")
    variables = [_binary(f"d_v{i + 1}", DELETION) for i in range(profile.n)]
    objective = [(i, ONE) for i in range(profile.n)]
    constraints = []
    for b in profile.alternatives:
        if b == a:
            continue
        rhs = rat(majority_margin(profile, b, a) + 1)
        coeffs = tuple(
            (i, ONE) for i, v in enumerate(profile.voters) if v.prefers(b, a)
        )
        label = f"{b}>{a}"
        if rhs <= 0:
            label += ":redundant"
        constraints.append(Constraint(coeffs, ">=", rhs, label))
    return IPInstance(tuple(variables), "min", tuple(objective), tuple(constraints))


def egalitarian_feasibility_ip(election, rule: RuleSpec, level) -> IPInstance:
    """Committee-variables-only feasibility test: is there a size-k committee
    giving every voter value at least ``level``?

    Constraint rows are top-initial-segment rows (cc) or ballot incidence
    rows (pav), so single-peaked structure carries over to the matrix.
    """
    level = rat(level)
    if rule.kind not in ("cc", "pav"):
        raise ValueError("egalitarian instances exist for 'cc' and 'pav' only")
    variables, constraints = _committee_vars(election, rule.k)
    columns = _columns(election)
    if rule.kind == "cc":
        # weights are non-increasing: the ranks worth at least ``level`` are 1..threshold
        threshold = sum(1 for w in rule.weights.padded(election.m) if w >= level)
        for i, segments in enumerate(columns):
            cols = segments[threshold - 1] if threshold >= 1 else []
            constraints.append(
                Constraint(tuple((j, ONE) for j in cols), ">=", ONE, f"v{i + 1}")
            )
    else:
        # prefix sums are non-decreasing: ``needed`` approved members reach ``level``,
        # and needed = k + 1 means level exceeds the best achievable per-voter value
        needed = sum(1 for total in rule.owa.prefix_sums() if total < level)
        suffix = ":infeasible" if needed > rule.k else ""
        for i, (ballot,) in enumerate(columns):
            coeffs = tuple((j, ONE) for j in ballot)
            constraints.append(Constraint(coeffs, ">=", rat(needed), f"v{i + 1}{suffix}"))
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
# assignments and extraction


def extract_solution(inst: IPInstance, values) -> ExtractedSolution:
    """Read a committee or deleted-voter set off an assignment.

    The assignment must be integral on every integrality-flagged variable;
    committee extraction also checks the cardinality constraint.
    """
    values = tuple(values)
    if len(values) != inst.num_vars:
        raise ValueError("assignment length does not match the instance")
    for idx, var in enumerate(inst.variables):
        if var.integral and not is_integer_valued(values[idx]):
            raise ValueError(f"non-integral value for variable {var.name}")
    objective = ZERO
    for idx, coef in inst.objective:
        objective += coef * values[idx]
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
            i for i, idx in enumerate(deletion_vars) if values[idx] == 1
        )
    return ExtractedSolution(committee, deleted, objective)


def committee_assignment(inst: IPInstance, committee) -> tuple:
    """The canonical maximal assignment encoding a given committee: committee
    variables set from the committee, every point variable filled greedily to
    the slack its row allows.  Used to audit that instance objectives agree
    with rule semantics on arbitrary committees, not only optima."""
    committee = frozenset(committee)
    if not inst.variables_by_role(COMMITTEE):
        raise ValueError("instance has no committee variables")
    values = [ZERO] * inst.num_vars
    for idx in inst.variables_by_role(COMMITTEE):
        name = inst.variables[idx].name[len("y_") :]
        values[idx] = ONE if name in committee else ZERO
    k = inst.committee_size()
    if sum(1 for idx in inst.variables_by_role(COMMITTEE) if values[idx] == ONE) != k:
        raise ValueError("committee does not match the cardinality constraint")
    roles = [v.role for v in inst.variables]
    for con in inst.constraints:
        if con.label == CARDINALITY_LABEL or con.sense != "<=":
            continue
        slack = con.rhs
        point_vars = []
        for idx, coef in con.coeffs:
            if roles[idx] == POINT:
                point_vars.append(idx)
            else:
                slack -= coef * values[idx]
        budget = int(slack) if slack >= 0 else 0
        for idx in point_vars:
            if budget <= 0:
                break
            values[idx] = ONE
            budget -= 1
    return tuple(values)


def relax_point_integrality(inst: IPInstance) -> IPInstance:
    """Copy of the instance with integrality dropped on point variables."""
    variables = tuple(
        Variable(v.name, v.role, v.lower, v.upper, False) if v.role == POINT else v
        for v in inst.variables
    )
    return IPInstance(variables, inst.objective_sense, inst.objective, inst.constraints)


# ---------------------------------------------------------------------------
# views of the constraint matrix


def constraint_matrix(inst: IPInstance):
    """Full signed constraint matrix (rows = constraints, all variables)."""
    from .structure import SignedMatrix

    entries = []
    for con in inst.constraints:
        row = [0] * inst.num_vars
        for idx, coef in con.coeffs:
            if coef not in (-1, 0, 1):
                raise ValueError("constraint coefficients outside {-1,0,1}")
            row[idx] = int(coef)
        entries.append(tuple(row))
    return SignedMatrix(
        tuple(entries),
        tuple(con.label for con in inst.constraints),
        tuple(v.name for v in inst.variables),
    )


def committee_submatrix(inst: IPInstance, include_cardinality: bool = False):
    """|coefficients| of committee/deletion columns, one row per constraint
    (the cardinality row excluded by default).  This strips the point-variable
    unit columns, which is the reduction that preserves total unimodularity
    in both directions."""
    from .structure import BinaryMatrix

    cols = inst.variables_by_role(COMMITTEE) or inst.variables_by_role(DELETION)
    entries = []
    labels = []
    for con in inst.constraints:
        if con.label == CARDINALITY_LABEL and not include_cardinality:
            continue
        coefs = dict(con.coeffs)
        row = []
        for idx in cols:
            v = coefs.get(idx, ZERO)
            if v not in (-1, 0, 1):
                raise ValueError("committee coefficients outside {-1,0,1}")
            row.append(abs(int(v)))
        entries.append(tuple(row))
        labels.append(con.label)
    return BinaryMatrix(
        tuple(entries), tuple(labels), tuple(inst.variables[j].name for j in cols)
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
            parts.append(f"{sign} {rat_str(abs(coef))} {inst.variables[idx].name}")
        return " ".join(parts)

    lines = [inst.objective_sense, f"  obj: {terms(inst.objective)}", "subject to"]
    for con in inst.constraints:
        lines.append(f"  {con.label}: {terms(con.coeffs)} {con.sense} {rat_str(con.rhs)}")
    lines.append("bounds")
    for var in inst.variables:
        upper = rat_str(var.upper) if var.upper is not None else "+inf"
        lines.append(f"  {rat_str(var.lower)} <= {var.name} <= {upper}")
    integral = [v.name for v in inst.variables if v.integral]
    if integral:
        lines.append("integer")
        lines.append("  " + " ".join(integral))
    lines.append("end")
    return "\n".join(lines) + "\n"
