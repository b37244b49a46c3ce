"""Exact rational LP solving and a relaxation-first integer-program driver.

The solver is a two-phase primal simplex on the bounded-variable standard
form, pivoting by Bland's rule (lowest favorable index enters; among minimal
ratios the basic variable with the lowest index leaves), so it terminates
without anti-cycling perturbations.  All arithmetic is exact, every returned
solution is a vertex, and optimal solutions are re-verified against the
original constraints before they are handed back.

``solve_ip`` first solves the relaxation and reports whether that alone
produced an integral vertex; only if it did not does depth-first
branch-and-bound start, branching on the most fractional committee or
deletion variable with exact-rational incumbent pruning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .formulate import COMMITTEE, DELETION, ONE, ZERO, IPInstance, extract_solution

_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2


@dataclass(frozen=True)
class LPSolution:
    """Outcome of one LP solve.

    ``values`` holds one exact rational per structural variable when the
    status is ``optimal`` (empty otherwise); ``pivots`` counts simplex
    iterations, bound flips included.
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    values: tuple
    objective: object | None
    pivots: int


@dataclass(frozen=True)
class SolveReport:
    """Relaxation-first IP solve: the root relaxation, whether it was already
    integral (in which case no branching happened), and the final solution."""

    lp: LPSolution
    lp_integral: bool
    branch_nodes: int
    final: LPSolution
    extracted: object | None


class _Tableau:
    """Mutable simplex state over structural + slack + artificial variables."""

    def __init__(self):
        self.lower: list = []
        self.upper: list = []
        self.rows: list = []  # per row: {var index: coefficient}, basic excluded
        self.basis: list = []
        self.stat: list = []
        self.xval: list = []  # bound value for nonbasic variables
        self.bval: list = []  # per row: current value of its basic variable
        self.col_rows: list = []  # var index -> set of candidate row indices
        self.d: list = []  # reduced costs
        self.pivots = 0

    # -- construction ------------------------------------------------------

    def add_var(self, lower, upper) -> int:
        self.lower.append(lower)
        self.upper.append(upper)
        self.col_rows.append(set())
        if lower is not None:
            self.stat.append(_AT_LOWER)
            self.xval.append(lower)
        elif upper is not None:
            self.stat.append(_AT_UPPER)
            self.xval.append(upper)
        else:
            raise NotImplementedError("free variables are not supported")
        return len(self.lower) - 1

    def add_row(self, coeffs: dict, basic: int, value) -> int:
        i = len(self.rows)
        self.rows.append(coeffs)
        for j in coeffs:
            self.col_rows[j].add(i)
        self.basis.append(basic)
        self.stat[basic] = _BASIC
        self.bval.append(value)
        return i

    # -- pivoting ----------------------------------------------------------

    def _shift_nonbasic(self, q: int, delta) -> None:
        if not delta:
            return
        for i in tuple(self.col_rows[q]):
            coef = self.rows[i].get(q)
            if coef is None:
                self.col_rows[q].discard(i)
                continue
            self.bval[i] -= coef * delta

    def change_basis(self, r: int, q: int, entering_value, delta, leave_to: int) -> None:
        self._shift_nonbasic(q, delta)
        p = self.basis[r]
        self.xval[p] = self.lower[p] if leave_to == _AT_LOWER else self.upper[p]
        self.stat[p] = leave_to
        piv = self.rows[r].pop(q)
        new_row = {j: v / piv for j, v in self.rows[r].items()}
        new_row[p] = ONE / piv
        self.rows[r] = new_row
        for j in new_row:
            self.col_rows[j].add(r)
        self.basis[r] = q
        self.stat[q] = _BASIC
        self.bval[r] = entering_value
        pending = self.col_rows[q]
        self.col_rows[q] = set()
        d = self.d
        dq = d[q]
        for i in sorted(pending):
            if i == r:
                continue
            t = self.rows[i].pop(q, None)
            if not t:
                continue
            row_i = self.rows[i]
            for j, v in new_row.items():
                cur = row_i.get(j)
                nv = (cur - t * v) if cur is not None else -t * v
                if nv:
                    row_i[j] = nv
                    self.col_rows[j].add(i)
                elif cur is not None:
                    del row_i[j]
        if dq:
            for j, v in new_row.items():
                d[j] -= dq * v
        d[q] = ZERO
        self.pivots += 1

    def bound_flip(self, q: int, direction: int, span) -> None:
        delta = span if direction > 0 else -span
        self._shift_nonbasic(q, delta)
        if direction > 0:
            self.stat[q] = _AT_UPPER
            self.xval[q] = self.upper[q]
        else:
            self.stat[q] = _AT_LOWER
            self.xval[q] = self.lower[q]
        self.pivots += 1

    # -- the main loop -----------------------------------------------------

    def recompute_costs(self, costs: list) -> None:
        d = list(costs)
        for i, row in enumerate(self.rows):
            cb = costs[self.basis[i]]
            if cb:
                for j, v in row.items():
                    d[j] -= cb * v
        for b in self.basis:
            d[b] = ZERO
        self.d = d

    def value_of(self, j: int):
        if self.stat[j] == _BASIC:
            return self.bval[self.basis.index(j)]
        return self.xval[j]

    def optimize(self, max_iter: int) -> str:
        nvars = len(self.lower)
        for _ in range(max_iter):
            enter = -1
            direction = 0
            for j in range(nvars):
                st = self.stat[j]
                if st == _BASIC:
                    continue
                lo, up = self.lower[j], self.upper[j]
                if lo is not None and up is not None and lo == up:
                    continue
                dj = self.d[j]
                if st == _AT_LOWER and dj > 0:
                    enter, direction = j, 1
                    break
                if st == _AT_UPPER and dj < 0:
                    enter, direction = j, -1
                    break
            if enter < 0:
                return "optimal"
            q = enter
            best_t = None
            best_row = -1
            best_leave = _AT_LOWER
            for i in tuple(self.col_rows[q]):
                coef = self.rows[i].get(q)
                if not coef:
                    self.col_rows[q].discard(i)
                    continue
                rate = -coef if direction > 0 else coef
                b = self.basis[i]
                if rate < 0:
                    bound = self.lower[b]
                    if bound is None:
                        continue
                    t = (self.bval[i] - bound) / (-rate)
                    leave = _AT_LOWER
                else:
                    bound = self.upper[b]
                    if bound is None:
                        continue
                    t = (bound - self.bval[i]) / rate
                    leave = _AT_UPPER
                if (
                    best_t is None
                    or t < best_t
                    or (t == best_t and b < self.basis[best_row])
                ):
                    best_t, best_row, best_leave = t, i, leave
            lo, up = self.lower[q], self.upper[q]
            span = (up - lo) if (lo is not None and up is not None) else None
            if best_t is None and span is None:
                return "unbounded"
            if span is not None and (best_t is None or span <= best_t):
                self.bound_flip(q, direction, span)
                continue
            delta = best_t if direction > 0 else -best_t
            self.change_basis(best_row, q, self.xval[q] + delta, delta, best_leave)
        raise RuntimeError("simplex iteration limit exceeded")  # pragma: no cover


def _clamp(value, lower, upper):
    if upper is not None and value > upper:
        return upper
    if lower is not None and value < lower:
        return lower
    return value


def solve_lp(inst: IPInstance, bound_overrides=None) -> LPSolution:
    """Solve the linear relaxation of an instance exactly.

    Optional ``bound_overrides`` maps variable index to a (lower, upper) pair;
    the branch-and-bound driver uses it to tighten bounds per node.
    """
    nstruct = inst.num_vars
    overrides = bound_overrides or {}
    bounds = []
    for j, var in enumerate(inst.variables):
        lo, up = overrides.get(j, (var.lower, var.upper))
        if lo is not None and up is not None and lo > up:
            return LPSolution("infeasible", (), None, 0)
        bounds.append((lo, up))

    maximize = inst.objective_sense == "max"
    costs_struct = [ZERO] * nstruct
    for idx, coef in inst.objective:
        costs_struct[idx] += coef if maximize else -coef

    # presolve: constraints with no coefficients are checked and dropped
    kept = []
    for con in inst.constraints:
        coeffs: dict = {}
        for idx, coef in con.coeffs:
            if coef:
                coeffs[idx] = coeffs.get(idx, ZERO) + coef
        coeffs = {j: v for j, v in coeffs.items() if v}
        if not coeffs:
            ok = (
                (con.sense == "<=" and 0 <= con.rhs)
                or (con.sense == ">=" and 0 >= con.rhs)
                or (con.sense == "=" and con.rhs == 0)
            )
            if not ok:
                return LPSolution("infeasible", (), None, 0)
            continue
        kept.append((coeffs, con.sense, con.rhs))

    tab = _Tableau()
    for lo, up in bounds:
        tab.add_var(lo, up)
    slack_bounds = {"<=": (ZERO, None), ">=": (None, ZERO), "=": (ZERO, ZERO)}
    slack_of_row = []
    for coeffs, sense, rhs in kept:
        lo, up = slack_bounds[sense]
        slack_of_row.append(tab.add_var(lo, up))

    artificials = []
    for i, (coeffs, sense, rhs) in enumerate(kept):
        value = rhs
        for j, coef in coeffs.items():
            value -= coef * tab.xval[j]
        slack = slack_of_row[i]
        lo, up = tab.lower[slack], tab.upper[slack]
        if (lo is None or value >= lo) and (up is None or value <= up):
            tab.add_row(dict(coeffs), slack, value)
        else:
            # start the slack at its violated bound and cover the residual
            # with a basic artificial; the row is stored normalized so the
            # basic variable keeps an implicit +1 coefficient
            rest = _clamp(value, lo, up)
            tab.stat[slack] = _AT_LOWER if rest == lo else _AT_UPPER
            tab.xval[slack] = rest
            art = tab.add_var(ZERO, None)
            artificials.append(art)
            if value - rest > 0:
                row = dict(coeffs)
                row[slack] = ONE
                tab.add_row(row, art, value - rest)
            else:
                row = {j: -v for j, v in coeffs.items()}
                row[slack] = -ONE
                tab.add_row(row, art, rest - value)

    max_iter = 20000 + 200 * (len(kept) + len(tab.lower))

    if artificials:
        phase1 = [ZERO] * len(tab.lower)
        for a in artificials:
            phase1[a] = -ONE
        tab.recompute_costs(phase1)
        status = tab.optimize(max_iter)
        if status != "optimal":  # pragma: no cover - phase 1 is bounded
            raise AssertionError("phase 1 cannot be unbounded")
        residue = ZERO
        for a in artificials:
            residue += tab.value_of(a)
        if residue > 0:
            return LPSolution("infeasible", (), None, tab.pivots)
        for a in artificials:
            tab.lower[a] = ZERO
            tab.upper[a] = ZERO
            if tab.stat[a] != _BASIC:
                tab.stat[a] = _AT_LOWER
                tab.xval[a] = ZERO
        art_set = set(artificials)
        for r in range(len(tab.rows)):
            if tab.basis[r] in art_set:
                pivot_col = -1
                for j in sorted(tab.rows[r]):
                    if j not in art_set and tab.rows[r][j]:
                        pivot_col = j
                        break
                if pivot_col >= 0:
                    tab.change_basis(r, pivot_col, tab.xval[pivot_col], ZERO, _AT_LOWER)
                # else: redundant row; the artificial stays pinned at 0

    costs = costs_struct + [ZERO] * (len(tab.lower) - nstruct)
    tab.recompute_costs(costs)
    status = tab.optimize(max_iter)
    if status == "unbounded":
        return LPSolution("unbounded", (), None, tab.pivots)

    # a basic value sitting on a bound reuses the bound's object, so a 0/1
    # vertex holds no rationals of its own
    values = [None] * nstruct
    for r, b in enumerate(tab.basis):
        if b < nstruct:
            value = tab.bval[r]
            lo, up = bounds[b]
            values[b] = lo if value == lo else up if value == up else value
    for j in range(nstruct):
        if values[j] is None:
            values[j] = tab.xval[j]
    objective = ZERO
    for idx, coef in inst.objective:
        objective += coef * values[idx]
    _verify(inst, bounds, values, objective)
    return LPSolution("optimal", tuple(values), objective, tab.pivots)


def _verify(inst, bounds, values, objective) -> None:
    """Exact feasibility check of a claimed optimal solution."""
    for j, (lo, up) in enumerate(bounds):
        if lo is not None and values[j] < lo:
            raise AssertionError(f"bound violation on {inst.variables[j].name}")
        if up is not None and values[j] > up:
            raise AssertionError(f"bound violation on {inst.variables[j].name}")
    for con in inst.constraints:
        lhs = ZERO
        for idx, coef in con.coeffs:
            lhs += coef * values[idx]
        ok = (
            (con.sense == "<=" and lhs <= con.rhs)
            or (con.sense == ">=" and lhs >= con.rhs)
            or (con.sense == "=" and lhs == con.rhs)
        )
        if not ok:
            raise AssertionError(f"constraint violation on {con.label}")
    recomputed = ZERO
    for idx, coef in inst.objective:
        recomputed += coef * values[idx]
    if recomputed != objective:  # pragma: no cover - internal consistency
        raise AssertionError("objective mismatch")


def is_integral(solution: LPSolution, inst: IPInstance) -> bool:
    """Exact zero-tolerance test of the integrality-flagged variables."""
    if solution.status != "optimal":
        raise ValueError("integrality is defined for optimal solutions only")
    return all(
        solution.values[j].denominator == 1
        for j, var in enumerate(inst.variables)
        if var.integral
    )


def _branch_variable(inst: IPInstance, solution: LPSolution):
    """Most fractional committee/deletion variable (ties: lowest index)."""
    best = None
    best_score = None
    fallback = None
    for j, var in enumerate(inst.variables):
        if not var.integral or solution.values[j].denominator == 1:
            continue
        if var.role not in (COMMITTEE, DELETION):
            if fallback is None:
                fallback = j
            continue
        frac = solution.values[j] - math.floor(solution.values[j])
        score = min(frac, 1 - frac)
        if best_score is None or score > best_score:
            best, best_score = j, score
    if best is not None:
        return best
    return fallback


def solve_ip(inst: IPInstance) -> SolveReport:
    """Relaxation first; branch-and-bound only if the vertex is fractional.

    Branches depth-first on the most fractional committee/deletion variable,
    pruning with exact rational bound comparisons against the incumbent.
    Point variables are never fractional at a vertex once the committee
    variables are integral, so this branching scheme is complete.
    """
    root = solve_lp(inst)
    if root.status != "optimal":
        return SolveReport(root, False, 0, root, None)
    if is_integral(root, inst):
        return SolveReport(root, True, 0, root, extract_solution(inst, root.values))

    maximize = inst.objective_sense == "max"

    def better(a, b) -> bool:
        return a > b if maximize else a < b

    incumbent = None
    nodes = 0
    first = _branch_variable(inst, root)
    stack = _split(inst, {}, first, root.values[first])
    while stack:
        overrides = stack.pop()
        node = solve_lp(inst, bound_overrides=overrides)
        nodes += 1
        if node.status != "optimal":
            continue
        if incumbent is not None and not better(node.objective, incumbent.objective):
            continue
        var = _branch_variable(inst, node)
        if var is None:
            incumbent = node
            continue
        stack.extend(_split(inst, overrides, var, node.values[var]))
    if incumbent is None:
        final = LPSolution("infeasible", (), None, 0)
        return SolveReport(root, False, nodes, final, None)
    if maximize:
        assert root.objective >= incumbent.objective
    else:
        assert root.objective <= incumbent.objective
    return SolveReport(
        root, False, nodes, incumbent, extract_solution(inst, incumbent.values)
    )


def _split(inst, overrides, var, value):
    """Child bound sets for branching ``var`` at a fractional ``value``.

    The down branch is returned last so depth-first search explores it first.
    """
    lo, up = overrides.get(var, (inst.variables[var].lower, inst.variables[var].upper))
    floor = Fraction(math.floor(value))
    down = dict(overrides)
    down[var] = (lo, floor if up is None else min(up, floor))
    upb = dict(overrides)
    upb[var] = (max(lo, floor + 1) if lo is not None else floor + 1, up)
    return [upb, down]
