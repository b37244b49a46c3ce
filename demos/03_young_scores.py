"""Deletion scores: how many voters can stay while a fixed alternative beats
every rival outright?

The deletion program has one integer variable per distinct order, counting
that order's deleted voters, and one signed row per challenger.  Its matrix
is not totally unimodular, yet on single-crossing profiles its relaxation
has been integral in every measured case.

Run:  python demos/03_young_scores.py
"""

from votelp import (
    condorcet_winner,
    generate_single_crossing,
    is_single_crossing,
    parse_profile,
    serialize_ip,
    solve_ip,
    young_ip,
    young_score_bruteforce,
    young_score_median,
)

print("=== a Condorcet winner needs no deletions ===")
profile = parse_profile("2\na b\n2: a > b\n1: b > a\n")
print("winner:", condorcet_winner(profile))
report = solve_ip(young_ip(profile, "a"))
print("deletions for a:", report.final.objective)

print()
print("=== five voters, target needs four deletions ===")
e5 = parse_profile("3\na b c\n1: a > b > c\n1: b > a > c\n1: b > c > a\n2: c > b > a\n")
report = solve_ip(young_ip(e5, "a"))
print("deletions:", report.final.objective, " deleted voters:", sorted(report.extracted.deleted_voters))
score, witness = young_score_bruteforce(e5, "a")
print("exhaustive score (max voters kept):", score, " witness:", sorted(witness))
ordering = is_single_crossing(e5)
print("median-voter rule score:", young_score_median(e5, ordering, "a"))

print()
print("=== the deletion program on a generated single-crossing profile ===")
sc, ordering = generate_single_crossing(m=5, n=9, seed=21)
print(f"{sc.n} voters, {len(sc.groups)} distinct orders")
for target in sc.alternatives:
    report = solve_ip(young_ip(sc, target))
    exhaustive = young_score_bruteforce(sc, target)[0]
    if report.final.status == "optimal":
        score = sc.n - int(report.final.objective)
        print(f"{target}: score {score}, exhaustive {exhaustive}, integral root {report.lp_integral}")
    else:
        print(f"{target}: infeasible (score 0), exhaustive {exhaustive}")

print()
print("=== a profile where no subprofile works ===")
e3 = parse_profile("3\na b c\n2: c > a > b\n1: b > a > c\n")
inst = young_ip(e3, "a")
print(serialize_ip(inst))
report = solve_ip(inst)
print("program status:", report.final.status, " (young score 0 by convention)")
print("exhaustive search says:", young_score_bruteforce(e3, "a"))
print("(deleting a c-voter to beat c also deletes an a-over-b vote, so b wins;")
print(" the signed row for each challenger counts both effects)")
