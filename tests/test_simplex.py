import itertools
import random

import pytest

from votelp import (
    Constraint,
    IPInstance,
    ScoringVector,
    Variable,
    brute_force_committee,
    cc_ip,
    is_integral,
    solve_ip,
    solve_lp,
    young_ip,
)
from votelp.formulate import POINT, RuleSpec
from votelp.rationals import ONE, ZERO, rat

from helpers import coverage_gap_profile, profile_cycle3, profile_e1, profile_e3


def lp(variables, sense, objective, constraints):
    return IPInstance(tuple(variables), sense, tuple(objective), tuple(constraints))


def var(name, lo=0, hi=1, integral=False, role=POINT):
    upper = None if hi is None else rat(hi)
    return Variable(name, role, rat(lo), upper, integral)


class TestBasicLPs:
    def test_single_variable_cap(self):
        inst = lp([var("x", 0, 2)], "max", [(0, ONE)], [Constraint(((0, ONE),), "<=", ONE, "cap")])
        sol = solve_lp(inst)
        assert sol.status == "optimal"
        assert sol.values == (ONE,)

    def test_fractional_vertex(self):
        inst = lp(
            [var("x"), var("y")],
            "max",
            [(0, ONE), (1, ONE)],
            [Constraint(((0, ONE), (1, ONE)), "<=", rat(3, 2), "cap")],
        )
        sol = solve_lp(inst)
        assert sol.objective == rat(3, 2)
        assert any(v.denominator != 1 for v in sol.values)

    def test_minimization_with_ge(self):
        inst = lp(
            [var("x", 0, 5), var("y", 0, 5)],
            "min",
            [(0, rat(2)), (1, rat(3))],
            [Constraint(((0, ONE), (1, ONE)), ">=", rat(4), "demand")],
        )
        sol = solve_lp(inst)
        assert sol.status == "optimal"
        assert sol.objective == rat(8)  # all on the cheaper variable

    def test_equality_constraint(self):
        inst = lp(
            [var("x", 0, 3), var("y", 0, 3)],
            "max",
            [(0, ONE), (1, -ONE)],
            [Constraint(((0, ONE), (1, ONE)), "=", rat(3), "fix")],
        )
        sol = solve_lp(inst)
        assert sol.values == (rat(3), ZERO)

    def test_infeasible(self):
        inst = lp(
            [var("x", 0, 1)],
            "max",
            [(0, ONE)],
            [Constraint(((0, ONE),), ">=", rat(2), "too-much")],
        )
        assert solve_lp(inst).status == "infeasible"

    def test_unbounded(self):
        inst = lp([var("x", 0, None)], "max", [(0, ONE)], [])
        assert solve_lp(inst).status == "unbounded"

    def test_empty_row_presolve(self):
        ok = lp([var("x")], "max", [(0, ONE)], [Constraint((), "<=", ZERO, "noop")])
        assert solve_lp(ok).status == "optimal"
        bad = lp([var("x")], "max", [(0, ONE)], [Constraint((), ">=", ONE, "impossible")])
        assert solve_lp(bad).status == "infeasible"

    def test_negative_lower_bounds(self):
        inst = lp(
            [var("x", -2, 2), var("y", -2, 2)],
            "min",
            [(0, ONE), (1, ONE)],
            [Constraint(((0, ONE), (1, -ONE)), "<=", ONE, "gap")],
        )
        sol = solve_lp(inst)
        assert sol.objective == rat(-4)

    def test_bound_override_conflict_is_infeasible(self):
        inst = lp([var("x")], "max", [(0, ONE)], [])
        sol = solve_lp(inst, bound_overrides={0: (ONE, ZERO)})
        assert sol.status == "infeasible"


def enumerate_best_vertex(inst):
    """Independent LP oracle: enumerate candidate tight sets, solve each
    square system exactly, keep the best feasible point."""
    nvars = inst.num_vars
    conditions = []
    for con in inst.constraints:
        row = [ZERO] * nvars
        for idx, coef in con.coeffs:
            row[idx] += coef
        conditions.append((row, con.rhs))
    for j, v in enumerate(inst.variables):
        if v.lower is not None:
            row = [ZERO] * nvars
            row[j] = ONE
            conditions.append((row, v.lower))
        if v.upper is not None:
            row = [ZERO] * nvars
            row[j] = ONE
            conditions.append((row, v.upper))

    def solve_square(subset):
        a = [list(conditions[i][0]) for i in subset]
        b = [conditions[i][1] for i in subset]
        n = nvars
        for col in range(n):
            piv = None
            for r in range(col, n):
                if a[r][col] != 0:
                    piv = r
                    break
            if piv is None:
                return None
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
            inv = a[col][col]
            for r in range(n):
                if r != col and a[r][col] != 0:
                    factor = a[r][col] / inv
                    for c in range(col, n):
                        a[r][c] -= factor * a[col][c]
                    b[r] -= factor * b[col]
        return [b[r] / a[r][r] for r in range(n)]

    def feasible(x):
        for j, v in enumerate(inst.variables):
            if v.lower is not None and x[j] < v.lower:
                return False
            if v.upper is not None and x[j] > v.upper:
                return False
        for con in inst.constraints:
            lhs = sum((coef * x[idx] for idx, coef in con.coeffs), ZERO)
            if con.sense == "<=" and lhs > con.rhs:
                return False
            if con.sense == ">=" and lhs < con.rhs:
                return False
            if con.sense == "=" and lhs != con.rhs:
                return False
        return True

    best = None
    for subset in itertools.combinations(range(len(conditions)), nvars):
        x = solve_square(subset)
        if x is None or not feasible(x):
            continue
        value = sum((coef * x[idx] for idx, coef in inst.objective), ZERO)
        if best is None:
            best = value
        elif inst.objective_sense == "max":
            best = max(best, value)
        else:
            best = min(best, value)
    return best


class TestVertexOracle:
    def test_agrees_on_random_lps(self):
        rng = random.Random(461)
        checked = 0
        for _ in range(200):
            nv = rng.randint(2, 5)
            nc = rng.randint(1, 6)
            variables = [var(f"x{j}", 0, rng.randint(1, 3)) for j in range(nv)]
            objective = [(j, rat(rng.randint(-3, 3))) for j in range(nv)]
            constraints = []
            for i in range(nc):
                coeffs = tuple(
                    (j, rat(rng.randint(-3, 3))) for j in range(nv) if rng.random() < 0.8
                )
                sense = rng.choice(("<=", ">=", "="))
                constraints.append(Constraint(coeffs, sense, rat(rng.randint(-4, 6)), f"c{i}"))
            sense = rng.choice(("max", "min"))
            inst = lp(variables, sense, objective, constraints)
            sol = solve_lp(inst)
            expected = enumerate_best_vertex(inst)
            if expected is None:
                assert sol.status == "infeasible"
            else:
                assert sol.status == "optimal"
                assert sol.objective == expected
                checked += 1
        assert checked > 50  # the draw must produce plenty of feasible LPs


class TestIntegralityFlag:
    def test_integral_and_fractional(self):
        inst = cc_ip(profile_e1(), ScoringVector.borda(3), 1)
        report = solve_ip(inst)
        assert is_integral(report.lp, inst)
        frac = lp(
            [var("x", 0, 1, integral=True)],
            "max",
            [(0, ONE)],
            [Constraint(((0, rat(2)),), "<=", ONE, "half")],
        )
        sol = solve_lp(frac)
        assert not is_integral(sol, frac)

    def test_requires_optimal(self):
        inst = lp([var("x")], "max", [(0, ONE)], [Constraint(((0, ONE),), ">=", rat(2), "no")])
        sol = solve_lp(inst)
        with pytest.raises(ValueError):
            is_integral(sol, inst)


class TestSolveIP:
    def test_cc_e1_first_iteration(self):
        report = solve_ip(cc_ip(profile_e1(), ScoringVector.borda(3), 1))
        assert report.lp_integral
        assert report.branch_nodes == 0
        assert report.final == report.lp
        assert report.final.objective == rat(7)
        assert report.extracted.committee == frozenset({"b"})

    def test_young_e3_single_crossing_integral(self):
        report = solve_ip(young_ip(profile_e3(), "a"))
        assert report.lp_integral
        assert report.final.objective == rat(2)
        assert report.extracted.deleted_voters == frozenset({0, 1})

    def test_three_cycle_matches_brute_force(self):
        cyc = profile_cycle3()
        w = ScoringVector.borda(3)
        for k in (1, 2):
            report = solve_ip(cc_ip(cyc, w, k))
            oracle = brute_force_committee(RuleSpec("cc", k, weights=w), cyc)
            assert report.final.objective == oracle.best_value
            assert report.extracted.committee in oracle.argmax
            assert report.branch_nodes >= 0

    def test_gap_instance_branches(self):
        profile = coverage_gap_profile()
        w = ScoringVector((1, 0))
        inst = cc_ip(profile, w, 2)
        report = solve_ip(inst)
        oracle = brute_force_committee(RuleSpec("cc", 2, weights=w), profile)
        assert not report.lp_integral
        assert report.branch_nodes >= 1
        assert report.lp.objective == rat(6)  # fractional relaxation beats any committee
        assert report.final.objective == oracle.best_value == rat(5)
        assert report.extracted.committee in oracle.argmax

    def test_relaxation_bounds_the_ip(self):
        profile = coverage_gap_profile()
        report = solve_ip(cc_ip(profile, ScoringVector((1, 0)), 2))
        assert report.lp.objective >= report.final.objective
        inst = young_ip(profile_e3(), "a")
        report = solve_ip(inst)
        assert report.lp.objective <= report.final.objective

    def test_infeasible_propagates(self):
        from helpers import ranked

        report = solve_ip(young_ip(ranked("a b", "3: b>a"), "a"))
        assert report.final.status == "infeasible"
        assert report.extracted is None

    def test_determinism(self):
        inst = cc_ip(profile_cycle3(), ScoringVector.borda(3), 2)
        first = solve_ip(inst)
        second = solve_ip(inst)
        assert first == second
        assert first.lp.pivots == second.lp.pivots

    def test_min_sense_branching_against_exhaustive_enumeration(self):
        """Random deletion instances (not single-crossing) cross-checked
        against enumeration of all 2^n deletion vectors; seeds 53 and 88 hit
        fractional roots, so the minimization side of branch-and-bound runs."""
        from votelp.model import generate_random_linear

        branched = 0
        for trial in list(range(40)) + [53, 88]:
            rng = random.Random(trial)
            m, n = rng.randint(3, 6), rng.randint(3, 9)
            profile = generate_random_linear(m, n, trial)
            target = profile.alternatives[rng.randrange(m)]
            inst = young_ip(profile, target)
            report = solve_ip(inst)
            best = None
            for mask in range(1 << n):
                if all(
                    sum(1 for idx, _ in con.coeffs if mask >> idx & 1) >= con.rhs
                    for con in inst.constraints
                ):
                    size = bin(mask).count("1")
                    best = size if best is None else min(best, size)
            if best is None:
                assert report.final.status == "infeasible"
            else:
                assert report.final.objective == rat(best)
            if report.final.status == "optimal" and not report.lp_integral:
                branched += 1
        assert branched >= 2
