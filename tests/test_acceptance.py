"""Acceptance suite: one test per criterion, exact rational comparisons only.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines.  Every expected value is computed by an independent enumeration
oracle in-process; nothing is compared with a tolerance.
"""

import json
import random
import subprocess
import sys
import time

from votelp import (
    OwaVector,
    RuleSpec,
    ScoringVector,
    brute_force_committee,
    brute_force_egalitarian,
    cc_ip,
    committee_submatrix,
    egalitarian_solve,
    generate_candidate_interval,
    generate_single_crossing,
    generate_single_peaked,
    has_c1p,
    is_candidate_interval,
    is_single_crossing,
    is_single_peaked,
    is_totally_unimodular,
    owa_ip,
    pav_ip,
    solve_ip,
    young_ip,
    young_score_bruteforce,
    young_score_median,
)
from votelp.structure import BinaryMatrix

from helpers import (
    coverage_gap_profile,
    profile_cycle3,
    random_approval_profile,
    random_signed_matrix,
    random_weak_profile,
    ranked,
    tu_by_determinant_enumeration,
)

E3_TEXT = "3\na b c\n2: c > a > b\n1: b > a > c\n"

PAPER_MATRIX = BinaryMatrix(
    tuple(
        tuple(int(ch) for ch in row)
        for row in ("001110", "111000", "000011", "011110", "000110")
    ),
    tuple(f"r{i}" for i in range(1, 6)),
    tuple(f"c{j}" for j in range(1, 7)),
)


def report_line(number: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS  [{detail}]")


def test_criterion_1_sp_ci_relaxation_integrality():
    """Single-peaked / candidate-interval inputs: the relaxation alone solves
    every committee instance, and the optimum equals brute force exactly."""
    started = time.perf_counter()
    solves = 0
    for trial in range(200):
        rng = random.Random(100_000 + trial)
        k = rng.choice((2, 3))
        m = rng.randint(k, 8)
        n = rng.randint(1, 20)
        profile, _ = generate_single_peaked(m, n, 100_000 + trial)
        weights = ScoringVector.borda(m)
        alpha = OwaVector.harmonic(k) if trial % 2 == 0 else OwaVector.constant(k)

        report = solve_ip(cc_ip(profile, weights, k))
        assert report.lp_integral, f"cc trial {trial} needed branching"
        oracle = brute_force_committee(RuleSpec("cc", k, weights=weights), profile)
        assert report.final.objective == oracle.best_value
        assert report.extracted.committee in oracle.argmax

        report = solve_ip(owa_ip(profile, weights, alpha, k))
        assert report.lp_integral, f"owa trial {trial} needed branching"
        oracle = brute_force_committee(
            RuleSpec("owa", k, weights=weights, owa=alpha), profile
        )
        assert report.final.objective == oracle.best_value
        assert report.extracted.committee in oracle.argmax
        solves += 2
    for trial in range(200):
        rng = random.Random(200_000 + trial)
        k = rng.choice((2, 3))
        m = rng.randint(k, 8)
        n = rng.randint(1, 20)
        approval, _ = generate_candidate_interval(m, n, 200_000 + trial)
        alpha = OwaVector.harmonic(k) if trial % 2 == 0 else OwaVector.constant(k)
        report = solve_ip(pav_ip(approval, alpha, k))
        assert report.lp_integral, f"pav trial {trial} needed branching"
        oracle = brute_force_committee(RuleSpec("pav", k, owa=alpha), approval)
        assert report.final.objective == oracle.best_value
        assert report.extracted.committee in oracle.argmax
        solves += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120, f"runtime target exceeded: {elapsed:.1f}s"
    report_line(
        1,
        "SP/CI relaxation integrality",
        f"{solves} solves, 100% first-iteration integral, {elapsed:.1f}s",
    )


def test_criterion_2_sc_young_integrality(tmp_path):
    """Single-crossing inputs: deletion-score relaxations are integral, the
    program scores exactly what the exhaustive search scores, and the E3
    fixture, where no subprofile works, is an infeasible program scored 0."""
    integral = feasible = 0
    for trial in range(100):
        rng = random.Random(300_000 + trial)
        m = rng.randint(2, 6)
        n = rng.randint(1, 15)
        profile, _ = generate_single_crossing(m, n, 300_000 + trial)
        target = profile.alternatives[rng.randrange(m)]
        report = solve_ip(young_ip(profile, target))
        score, _ = young_score_bruteforce(profile, target)
        if report.final.status == "optimal":
            feasible += 1
            assert report.lp_integral, f"young trial {trial} fractional relaxation"
            integral += 1
            assert report.final.objective == n - score, f"young trial {trial}"
        else:
            assert score == 0  # infeasible program only when no subprofile works
    assert integral == feasible

    path = tmp_path / "e3.prof"
    path.write_text(E3_TEXT)
    proc = subprocess.run(
        [sys.executable, "-m", "votelp", "young", "--candidate", "a",
         "--input", str(path), "--audit", "--strict"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    cli_report = json.loads(proc.stdout)
    assert cli_report["solve"]["status"] == "infeasible"
    assert cli_report["young_score"] == cli_report["audit"]["oracle_score"] == 0
    assert cli_report["audit"]["match"] is True
    report_line(
        2,
        "SC deletion-score integrality",
        f"{feasible}/100 feasible all integral and exact, E3 infeasible with score 0",
    )


def test_criterion_3_general_correctness_off_domain():
    """Arbitrary profiles: branch-and-bound still lands exactly on the
    brute-force optimum, and a fixture with a provable LP/IP gap branches."""
    branched = 0
    for trial in range(100):
        rng = random.Random(400_000 + trial)
        m = rng.randint(2, 5)
        n = rng.randint(1, 7)
        k = rng.randint(1, m)
        which = trial % 3
        if which == 0:
            profile = random_weak_profile(rng, m, n)
            weights = ScoringVector.borda(m)
            rule = RuleSpec("cc", k, weights=weights)
            report = solve_ip(cc_ip(profile, weights, k))
            oracle = brute_force_committee(rule, profile)
        elif which == 1:
            approval = random_approval_profile(rng, m, n, allow_empty=True)
            alpha = OwaVector.harmonic(k)
            rule = RuleSpec("pav", k, owa=alpha)
            report = solve_ip(pav_ip(approval, alpha, k))
            oracle = brute_force_committee(rule, approval)
        else:
            profile = random_weak_profile(rng, m, n)
            weights = ScoringVector.borda(m)
            alpha = OwaVector.constant(k) if trial % 2 else OwaVector.harmonic(k)
            rule = RuleSpec("owa", k, weights=weights, owa=alpha)
            report = solve_ip(owa_ip(profile, weights, alpha, k))
            oracle = brute_force_committee(rule, profile)
        assert report.final.objective == oracle.best_value, f"trial {trial}"
        assert report.extracted.committee in oracle.argmax, f"trial {trial}"
        branched += report.branch_nodes

    # regression fixtures: the 3-cycle stays correct (its relaxation happens
    # to be integral at these sizes), and the pair-cover profile has a strict
    # LP/IP gap, so it must take the fractional-then-branched path
    cycle = profile_cycle3()
    weights = ScoringVector.borda(3)
    for k in (1, 2):
        report = solve_ip(cc_ip(cycle, weights, k))
        oracle = brute_force_committee(RuleSpec("cc", k, weights=weights), cycle)
        assert report.final.objective == oracle.best_value
    gap = coverage_gap_profile()
    top_only = ScoringVector((1, 0))
    report = solve_ip(cc_ip(gap, top_only, 2))
    oracle = brute_force_committee(RuleSpec("cc", 2, weights=top_only), gap)
    assert not report.lp_integral
    assert report.branch_nodes >= 1
    assert report.final.objective == oracle.best_value
    report_line(
        3,
        "general correctness off the structured domain",
        f"100 random profiles exact, gap fixture branched "
        f"({report.branch_nodes} nodes; random trials {branched} total)",
    )


def test_criterion_4_tu_structure():
    """Structured constraint matrices (each program's committee columns, unit
    point columns stripped, <= 16 rows) test totally unimodular, and the
    signing test agrees with full determinant enumeration on random small
    matrices."""
    checked = 0
    for trial in range(50):
        rng = random.Random(500_000 + trial)
        m = rng.randint(3, 5)
        n = rng.randint(2, 6)
        k = rng.randint(2, m)
        which = trial % 4
        if which == 0:
            profile, _ = generate_single_peaked(m, n, 500_000 + trial)
            inst = cc_ip(profile, ScoringVector.borda(m), k)
        elif which == 1:
            approval, _ = generate_candidate_interval(m, n, 500_000 + trial)
            inst = pav_ip(approval, OwaVector.harmonic(k), k)
        elif which == 2:
            profile, _ = generate_single_peaked(m, n, 500_000 + trial)
            inst = owa_ip(profile, ScoringVector.borda(m), OwaVector.constant(k), k)
        else:
            approval, _ = generate_candidate_interval(m, n, 500_000 + trial)
            inst = pav_ip(approval, OwaVector.constant(k), k)
        reduced = committee_submatrix(inst)
        assert reduced.num_rows <= 16
        assert is_totally_unimodular(reduced).is_tu, f"trial {trial}"
        checked += 1

    agreements = 0
    for trial in range(200):
        rng = random.Random(600_000 + trial)
        matrix = random_signed_matrix(rng, 5, 5)
        assert is_totally_unimodular(matrix).is_tu == tu_by_determinant_enumeration(
            matrix
        ), f"disagreement on trial {trial}"
        agreements += 1
    report_line(
        4,
        "TU structure",
        f"{checked} structured instances tu, signing test == determinants on {agreements} matrices",
    )


def test_criterion_5_two_voter_profiles():
    """Two-voter profiles need not be single-peaked, yet their segment matrix
    plus an all-ones row (the cc program's committee columns) is still
    totally unimodular."""
    for trial in range(30):
        rng = random.Random(700_000 + trial)
        m = rng.randint(1, 6)
        names = list("abcdef"[:m])
        orders = []
        for _ in range(2):
            rng.shuffle(names)
            orders.append(">".join(names))
        profile = ranked(" ".join(sorted(names)), *orders)
        matrix = committee_submatrix(cc_ip(profile, ScoringVector.borda(m), 1))
        assert is_totally_unimodular(matrix).is_tu, f"trial {trial}"
    report_line(5, "two-voter segment matrices", "30/30 tu")


def test_criterion_6_egalitarian_binary_search():
    """The level search finds the exact max-min committee value, solving every
    feasible probe by its relaxation alone."""
    for trial in range(100):
        rng = random.Random(800_000 + trial)
        k = rng.choice((2, 3))
        m = rng.randint(k, 8)
        n = rng.randint(1, 20)
        profile, _ = generate_single_peaked(m, n, 800_000 + trial)
        rule = RuleSpec("cc", k, weights=ScoringVector.borda(m))
        result = egalitarian_solve(profile, rule)
        oracle = brute_force_egalitarian(rule, profile)
        assert result.best_level == oracle.best_value, f"cc trial {trial}"
        assert result.committee in oracle.argmax
        assert result.all_relaxations_integral(), f"cc trial {trial}"
    for trial in range(100):
        rng = random.Random(900_000 + trial)
        k = rng.choice((2, 3))
        m = rng.randint(k, 8)
        n = rng.randint(1, 20)
        approval, _ = generate_candidate_interval(m, n, 900_000 + trial)
        rule = RuleSpec("pav", k, owa=OwaVector.harmonic(k))
        result = egalitarian_solve(approval, rule)
        oracle = brute_force_egalitarian(rule, approval)
        assert result.best_level == oracle.best_value, f"pav trial {trial}"
        assert result.committee in oracle.argmax
        assert result.all_relaxations_integral(), f"pav trial {trial}"
    report_line(6, "egalitarian binary search", "100 SP + 100 CI exact, all probes integral")


def test_criterion_7_recognition():
    """Generator outputs are always recognized with verifying certificates;
    the cyclic profile is rejected by both recognizers; the worked 5x6 matrix
    already has contiguous rows and is accepted."""
    for trial in range(100):
        rng = random.Random(1_000_000 + trial)
        m = rng.randint(1, 8)
        n = rng.randint(1, 20)
        profile, _ = generate_single_peaked(m, n, 1_000_000 + trial)
        axis = is_single_peaked(profile)
        assert axis is not None, f"sp trial {trial}"
        for order in profile.voters:
            for t in range(1, order.num_classes + 1):
                assert axis.is_interval(order.top_segment(t))

        sc_profile, _ = generate_single_crossing(max(m, 2), n, 1_000_000 + trial)
        ordering = is_single_crossing(sc_profile)
        assert ordering is not None, f"sc trial {trial}"
        for a in sc_profile.alternatives:
            for b in sc_profile.alternatives:
                if a == b:
                    continue
                positions = sorted(
                    ordering.index(i)
                    for i, v in enumerate(sc_profile.voters)
                    if v.prefers(a, b)
                )
                if positions:
                    assert positions[-1] - positions[0] + 1 == len(positions)

        approval, _ = generate_candidate_interval(m, n, 1_000_000 + trial)
        axis = is_candidate_interval(approval)
        assert axis is not None, f"ci trial {trial}"
        for ballot in approval.ballots:
            assert axis.is_interval(ballot)

    cycle = profile_cycle3()
    assert is_single_peaked(cycle) is None
    assert is_single_crossing(cycle) is None
    assert has_c1p(PAPER_MATRIX) == (0, 1, 2, 3, 4, 5)
    report_line(7, "recognition", "300 generator outputs certified, cycle rejected, 5x6 accepted")


def test_criterion_8_oracle_cross_checks():
    """The median-voter rule equals exhaustive search on single-crossing profiles,
    and the ordered-weighted rules degenerate exactly as they should."""
    for trial in range(100):
        rng = random.Random(1_100_000 + trial)
        m = rng.randint(2, 5)
        n = rng.randint(1, 12)
        profile, ordering = generate_single_crossing(m, n, 1_100_000 + trial)
        target = profile.alternatives[rng.randrange(m)]
        brute, _ = young_score_bruteforce(profile, target)
        assert young_score_median(profile, ordering, target) == brute, f"trial {trial}"

    from votelp import committee_value

    checked_cc = 0
    rng = random.Random(424242)
    while checked_cc < 100:
        m = rng.randint(2, 6)
        k = rng.randint(1, m)
        profile = random_weak_profile(rng, m, rng.randint(1, 6))
        weights = ScoringVector.borda(m)
        cc_rule = RuleSpec("cc", k, weights=weights)
        owa_rule = RuleSpec("owa", k, weights=weights, owa=OwaVector((1,) + (0,) * (k - 1)))
        committee = frozenset(rng.sample(profile.alternatives, k))
        assert committee_value(cc_rule, profile, committee) == committee_value(
            owa_rule, profile, committee
        )
        checked_cc += 1

    checked_pav = 0
    while checked_pav < 100:
        m = rng.randint(2, 6)
        k = rng.randint(1, m)
        approval = random_approval_profile(rng, m, rng.randint(1, 6))
        profile = approval.to_profile()
        alpha = OwaVector.harmonic(k)
        pav_rule = RuleSpec("pav", k, owa=alpha)
        owa_rule = RuleSpec("owa", k, weights=ScoringVector((1, 0)), owa=alpha)
        committee = frozenset(rng.sample(approval.alternatives, k))
        assert committee_value(pav_rule, approval, committee) == committee_value(
            owa_rule, profile, committee
        )
        checked_pav += 1
    report_line(
        8,
        "oracle cross-checks",
        "100 median==brute, 100+100 degeneration identities",
    )
