"""Committee selection and deletion scores through exact LP relaxations.

Builds integer programs for approval-credit, best-representative and
ordered-weighted-average committee rules plus voter-deletion scores, solves
them with an exact rational simplex (relaxation first, branch-and-bound
only when needed), and reports when the relaxation alone was integral -
which it provably is on single-peaked and interval inputs, whose matrices
are totally unimodular (deletion scores on single-crossing inputs are
integral as measured, not proved).  Structure tests (consecutive ones,
total unimodularity) and independent oracles (brute force, and the
median-voter rule for deletion scores on single-crossing inputs) round out
the toolkit.
"""

from .model import (
    ApprovalProfile,
    Axis,
    Profile,
    ProfileFormatError,
    WeakOrder,
    generate_candidate_interval,
    generate_random_linear,
    generate_single_crossing,
    generate_single_peaked,
    majority_margin,
    parse_profile,
    serialize_profile,
)
from .structure import (
    BinaryMatrix,
    SignedMatrix,
    TUResult,
    build_sc_matrix,
    build_sp_matrix,
    has_c1p,
    is_candidate_interval,
    is_single_crossing,
    is_single_peaked,
    is_totally_unimodular,
    parse_matrix,
    serialize_matrix,
)
from .formulate import (
    CARDINALITY_LABEL,
    COMMITTEE,
    DELETION,
    POINT,
    Constraint,
    EgalitarianResult,
    ExtractedSolution,
    IPInstance,
    OwaVector,
    RuleSpec,
    ScoringVector,
    Variable,
    cc_ip,
    committee_submatrix,
    constraint_matrix,
    egalitarian_feasibility_ip,
    egalitarian_levels,
    egalitarian_solve,
    extract_solution,
    marginal_weights,
    owa_ip,
    pav_ip,
    serialize_ip,
    young_ip,
)
from .simplex import LPSolution, SolveReport, is_integral, solve_ip, solve_lp
from .oracle import (
    OracleResult,
    brute_force_committee,
    brute_force_egalitarian,
    committee_value,
    condorcet_winner,
    voter_value,
    young_score_bruteforce,
    young_score_median,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
