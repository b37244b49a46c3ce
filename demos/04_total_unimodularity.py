"""Why the relaxations are integral: consecutive ones and total unimodularity.

A 0/1 matrix whose columns can be ordered so that every row's ones are
contiguous is totally unimodular, and totally unimodular matrices have integral
LP vertices.  The committee programs are built so their coefficient matrices
reduce to an all-ones cardinality row over the distinct rows of the segment
matrix, which has the consecutive-ones property whenever the profile is
single-peaked.

Run:  python demos/04_total_unimodularity.py
"""

from votelp import (
    BinaryMatrix,
    ScoringVector,
    SignedMatrix,
    cc_ip,
    committee_submatrix,
    constraint_matrix,
    generate_single_peaked,
    has_c1p,
    is_single_peaked,
    is_totally_unimodular,
    parse_profile,
)


def show(matrix, order=None):
    """Print the rows, reading the columns in ``order`` (default: as stored)."""
    order = order or range(matrix.num_cols)
    for label, row in zip(matrix.row_labels, matrix.entries):
        print(f"  {label:>8}  {' '.join(f'{row[j]:>2}' for j in order)}")


print("=== consecutive ones, found by column placement ===")
scrambled = BinaryMatrix(
    ((1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1)),
    ("r1", "r2", "r3"),
    ("c1", "c2", "c3", "c4"),
)
show(scrambled)
perm = has_c1p(scrambled)
print("column order that works:", perm)
show(scrambled, perm)

print()
print("=== the signing test for total unimodularity ===")
identity_ish = SignedMatrix(((1, 1, 0), (0, 1, 1)), ("r1", "r2"), ("c1", "c2", "c3"))
print("interval matrix:", is_totally_unimodular(identity_ish).kind)
bad = SignedMatrix(((1, 1), (-1, 1)), ("r1", "r2"), ("c1", "c2"))
verdict = is_totally_unimodular(bad)
print(
    "2x2 counterexample:", verdict.kind,
    "- witness submatrix", verdict.witness_rows, "x", verdict.witness_cols,
    "has determinant", verdict.witness_det,
)

print()
print("=== structured constraint matrices pass, two ways ===")
profile, _ = generate_single_peaked(m=5, n=6, seed=4)
instance = cc_ip(profile, ScoringVector.borda(5), k=2)
reduced = committee_submatrix(instance)
print(f"committee columns: cardinality row + {reduced.num_rows - 1} distinct segments:",
      is_totally_unimodular(reduced).kind)
small_profile, _ = generate_single_peaked(m=3, n=4, seed=4)
small_instance = cc_ip(small_profile, ScoringVector.borda(3), k=2)
print("full coefficient matrix of a tiny instance:",
      is_totally_unimodular(constraint_matrix(small_instance)).kind)

print()
print("=== two voters suffice even without an axis ===")
two = parse_profile("4\na b c d\n1: a > b > c > d\n1: a > d > c > b\n")
print("single-peaked?", is_single_peaked(two))
matrix = committee_submatrix(cc_ip(two, ScoringVector.borda(4), k=1))
print("segment matrix + ones row still tests:", is_totally_unimodular(matrix).kind)
