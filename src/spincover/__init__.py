"""spincover: spin-group rotor pairs from pseudo-orthogonal matrices.

Unit even elements S of the real Clifford algebra Cl(p,q) double-cover the
matrix group SO+(p,q) through S e_a S^-1 = p_a^b e_b. This package computes
both directions of that covering for any signature with p + q <= 12, with
specialized first-order and (split-)quaternion forms at n = 3.
"""

from types import ModuleType as _ModuleType

from .clifford_core import (
    MAX_DIMENSION,
    Multivector,
    Signature,
    blade_from_name,
    blade_grade,
    blade_name,
    blade_signs,
    exp_bivector,
    geometric_product,
    grade_masks,
    squared_norm,
)
from .covering import (
    CandidateElement,
    NoCandidateError,
    Rotor,
    candidate_n3,
    forward_map,
    matrix_to_rotor,
    select_candidate,
)
from .division_algebras import (
    Quaternion,
    SplitQuaternion,
    quaternion_to_rotor,
    quaternion_to_su2,
    rotor_to_quaternion,
    rotor_to_split,
    so21_to_unit_split_quaternion,
    so3_to_unit_quaternion,
    split_to_rotor,
    split_to_su11,
)
from .matrix_group import (
    DEFAULT_TOLERANCE,
    MembershipError,
    MembershipReport,
    check_membership,
    metric_matrix,
    project_to_group,
    require_membership,
)
from .oracle import (
    SplitMix64,
    rotor_distance,
    run_selfcheck,
    sample_matrix,
    sample_rotor,
    verify_covering,
)

__version__ = "0.1.0"

#: The names imported above: the import list is the one declaration of the API.
__all__ = sorted(n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _ModuleType))
