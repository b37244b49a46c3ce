"""Root relaxations against an independent float solver (HiGHS dual simplex).

The float solver never decides an answer: it only confirms that the exact
simplex reaches the same optimum, and that on single-peaked and
candidate-interval inputs a vertex of the relaxation is integral, as total
unimodularity of the constraint matrix promises.  Skipped where scipy is not
installed.
"""

import random

import pytest

from votelp import (
    OwaVector,
    ScoringVector,
    cc_ip,
    generate_candidate_interval,
    generate_random_linear,
    generate_single_peaked,
    owa_ip,
    pav_ip,
    solve_lp,
)

linprog = pytest.importorskip("scipy.optimize").linprog

TRIALS = 30


def _highs_vertex(inst):
    """Objective value and vertex of the relaxation by HiGHS dual simplex."""
    sign = -1.0 if inst.objective_sense == "max" else 1.0
    cost = [0.0] * inst.num_vars
    for idx, coef in inst.objective:
        cost[idx] = sign * float(coef)
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for con in inst.constraints:
        row = [0.0] * inst.num_vars
        for idx, coef in con.coeffs:
            row[idx] = float(coef)
        if con.sense == "=":
            a_eq.append(row)
            b_eq.append(float(con.rhs))
        else:
            flip = -1.0 if con.sense == ">=" else 1.0
            a_ub.append([flip * v for v in row])
            b_ub.append(flip * float(con.rhs))
    bounds = [
        (float(v.lower), None if v.upper is None else float(v.upper))
        for v in inst.variables
    ]
    result = linprog(
        cost, A_ub=a_ub or None, b_ub=b_ub or None, A_eq=a_eq or None,
        b_eq=b_eq or None, bounds=bounds, method="highs-ds",
    )
    assert result.status == 0, result.message
    return sign * result.fun, result.x


def _programs(kind, trial):
    rng = random.Random(7_000 + trial)
    k = rng.choice((2, 3))
    m, n, seed = rng.randint(k + 1, 7), rng.randint(4, 12), 7_000 + trial
    if kind == "sp":
        profile, _ = generate_single_peaked(m, n, seed)
        w = ScoringVector.borda(m)
        return [cc_ip(profile, w, k), owa_ip(profile, w, OwaVector.harmonic(k), k)]
    if kind == "ci":
        approval, _ = generate_candidate_interval(m, n, seed)
        return [pav_ip(approval, OwaVector.harmonic(k), k)]
    return [cc_ip(generate_random_linear(m, n, seed), ScoringVector.borda(m), k)]


@pytest.mark.parametrize("kind", ("sp", "ci", "random"))
def test_root_relaxation_matches_highs(kind):
    fractional = 0
    for trial in range(TRIALS):
        for inst in _programs(kind, trial):
            exact = solve_lp(inst)
            assert exact.status == "optimal"
            objective, vertex = _highs_vertex(inst)
            ours = float(exact.objective)
            assert abs(objective - ours) <= 1e-6 * max(1.0, abs(ours)), (kind, trial)
            flagged = [vertex[j] for j, var in enumerate(inst.variables) if var.integral]
            if any(abs(x - round(x)) > 1e-9 for x in flagged):
                fractional += 1
    if kind == "random":
        # off the domain some vertex is fractional, so the check above can fail
        assert fractional >= 1
    else:
        assert fractional == 0, f"{fractional} fractional HiGHS vertices on {kind}"
