"""Quaternion and split-quaternion formalisms for the n = 3 signatures."""

import itertools
import math

import numpy as np
import pytest

from spincover.clifford_core import Multivector, Signature, blade_signs, exp_bivector, squared_norm
import spincover.covering as covering
from spincover.covering import (
    Rotor,
    candidate_n3,
    forward_map,
    matrix_to_rotor,
    select_candidate,
)
from spincover.division_algebras import (
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
    su11_defect,
    su2_defect,
)
from spincover.matrix_group import MembershipError, project_to_group
from spincover.oracle import sample_matrix, sample_rotor

SIG30 = Signature(3, 0)
SIG21 = Signature(2, 1)
SIG12 = Signature(1, 2)
SIG03 = Signature(0, 3)

#: Each n = 3 signature with its read bridge, 2x2 image and the defect of that image.
READS = {
    SIG30: (rotor_to_quaternion, quaternion_to_su2, su2_defect),
    SIG21: (rotor_to_split, split_to_su11, su11_defect),
    SIG12: (rotor_to_split, split_to_su11, su11_defect),
    SIG03: (rotor_to_quaternion, quaternion_to_su2, su2_defect),
}

Q_ONE = Quaternion(1, 0, 0, 0)
Q_I = Quaternion(0, 1, 0, 0)
Q_J = Quaternion(0, 0, 1, 0)
Q_K = Quaternion(0, 0, 0, 1)
S_ONE = SplitQuaternion(1, 0, 0, 0)
S_I = SplitQuaternion(0, 1, 0, 0)
S_J = SplitQuaternion(0, 0, 1, 0)
S_K = SplitQuaternion(0, 0, 0, 1)


def rotation_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def boost_13(rapidity: float) -> np.ndarray:
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    return np.array([[ch, 0.0, sh], [0.0, 1.0, 0.0], [sh, 0.0, ch]])


def random_quaternion(rng: np.random.Generator) -> Quaternion:
    return Quaternion(*rng.uniform(-1.0, 1.0, 4))


def random_split(rng: np.random.Generator) -> SplitQuaternion:
    return SplitQuaternion(*rng.uniform(-1.0, 1.0, 4))


# -- multiplication tables -------------------------------------------------

def test_quaternion_defining_relations():
    for unit in (Q_I, Q_J, Q_K):
        assert (unit * unit).isclose(-Q_ONE, 0.0)
    assert (Q_I * Q_J * Q_K).isclose(-Q_ONE, 0.0)
    assert (Q_I * Q_J).isclose(Q_K, 0.0)
    assert (Q_J * Q_I).isclose(-Q_K, 0.0)
    assert (Q_J * Q_K).isclose(Q_I, 0.0)
    assert (Q_K * Q_I).isclose(Q_J, 0.0)


def test_split_defining_relations():
    assert (S_I * S_I).isclose(-S_ONE, 0.0)
    assert (S_J * S_J).isclose(S_ONE, 0.0)
    assert (S_K * S_K).isclose(S_ONE, 0.0)
    assert (S_I * S_J * S_K).isclose(S_ONE, 0.0)
    assert (S_I * S_J).isclose(S_K, 0.0)
    assert (S_J * S_I).isclose(-S_K, 0.0)
    assert (S_J * S_K).isclose(-S_I, 0.0)
    assert (S_K * S_J).isclose(S_I, 0.0)
    assert (S_K * S_I).isclose(S_J, 0.0)
    assert (S_I * S_K).isclose(-S_J, 0.0)


def test_basis_associativity_exhaustive():
    quats = (Q_ONE, Q_I, Q_J, Q_K)
    splits = (S_ONE, S_I, S_J, S_K)
    for x, y, z in itertools.product(quats, repeat=3):
        assert ((x * y) * z).isclose(x * (y * z), 0.0)
    for x, y, z in itertools.product(splits, repeat=3):
        assert ((x * y) * z).isclose(x * (y * z), 0.0)


def test_product_functions_match_operators():
    rng = np.random.default_rng(1)
    x, u = random_quaternion(rng), random_split(rng)
    # the two algebras do not multiply with each other
    with pytest.raises(TypeError):
        x * u


@pytest.mark.parametrize("cls", [Quaternion, SplitQuaternion])
@pytest.mark.parametrize(
    "components",
    [("1", 0, 0, 0), (1, True, 0, 0), (1, 0, np.bool_(False), 0), (1, 0, 0, 1 + 0j)],
    ids=["string", "bool", "numpy-bool", "complex"],
)
def test_components_must_be_real_numbers(cls, components):
    # float() read "1" as 1.0 and True as 1.0, and raised TypeError on complex
    with pytest.raises(ValueError, match="real numbers"):
        cls(*components)


@pytest.mark.parametrize("cls", [Quaternion, SplitQuaternion])
def test_components_take_numpy_real_scalars(cls):
    q = cls(np.float32(0.5), np.int64(2), np.float64(-1.0), 3)
    assert q == cls(0.5, 2.0, -1.0, 3.0)
    assert all(type(x) is float for x in (q.a, q.b, q.c, q.d))


def test_conjugation_and_norms():
    q = Quaternion(1.0, 2.0, -3.0, 0.5)
    assert q.conjugate().components().tolist() == [1.0, -2.0, 3.0, -0.5]
    assert q.norm_squared() == 1.0 + 4.0 + 9.0 + 0.25
    prod = q.conjugate() * q
    assert prod.isclose(Quaternion(q.norm_squared(), 0, 0, 0), 1e-12)
    s = SplitQuaternion(1.0, 2.0, -3.0, 0.5)
    assert s.norm_squared() == 1.0 + 4.0 - 9.0 - 0.25
    sprod = s.conjugate() * s
    assert sprod.isclose(SplitQuaternion(s.norm_squared(), 0, 0, 0), 1e-12)


def test_norm_is_multiplicative():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x, y = random_quaternion(rng), random_quaternion(rng)
        assert abs((x * y).norm_squared() - x.norm_squared() * y.norm_squared()) <= 1e-12
        u, v = random_split(rng), random_split(rng)
        assert abs((u * v).norm_squared() - u.norm_squared() * v.norm_squared()) <= 1e-12


# -- bridges to rotors -------------------------------------------------------

def test_bridge_basis_images():
    assert quaternion_to_rotor(Q_ONE).value.isclose(Multivector.scalar(SIG30), 0.0)
    assert quaternion_to_rotor(Q_I).value.isclose(Multivector.basis(SIG30, 0b011), 0.0)
    assert quaternion_to_rotor(Q_J).value.isclose(Multivector.basis(SIG30, 0b101), 0.0)
    assert quaternion_to_rotor(Q_K).value.isclose(Multivector.basis(SIG30, 0b110, -1.0), 0.0)
    assert split_to_rotor(S_I).value.isclose(Multivector.basis(SIG21, 0b011), 0.0)
    assert split_to_rotor(S_J).value.isclose(Multivector.basis(SIG21, 0b101), 0.0)
    assert split_to_rotor(S_K).value.isclose(Multivector.basis(SIG21, 0b110, -1.0), 0.0)


def test_bridge_is_an_algebra_homomorphism():
    rng = np.random.default_rng(3)
    for _ in range(25):
        x, y = random_quaternion(rng), random_quaternion(rng)
        lhs = quaternion_to_rotor(x * y).value
        rhs = quaternion_to_rotor(x).value * quaternion_to_rotor(y).value
        assert (lhs - rhs).max_abs() <= 1e-12
        u, v = random_split(rng), random_split(rng)
        slhs = split_to_rotor(u * v).value
        srhs = split_to_rotor(u).value * split_to_rotor(v).value
        assert (slhs - srhs).max_abs() <= 1e-12


def test_bridge_round_trips():
    rng = np.random.default_rng(4)
    q = random_quaternion(rng)
    assert rotor_to_quaternion(quaternion_to_rotor(q)).isclose(q, 1e-15)
    s = random_split(rng)
    assert rotor_to_split(split_to_rotor(s)).isclose(s, 1e-15)


def test_bridge_preserves_norms():
    rng = np.random.default_rng(5)
    q = random_quaternion(rng)
    assert abs(q.norm_squared() - squared_norm(quaternion_to_rotor(q).value)) <= 1e-12
    s = random_split(rng)
    assert abs(s.norm_squared() - squared_norm(split_to_rotor(s).value)) <= 1e-12


@pytest.mark.parametrize(
    "call, value, message",
    [
        (quaternion_to_rotor, SplitQuaternion(math.cosh(1.0), 0, math.sinh(1.0), 0),
         r"a Cl\(3,0\) element reads as Quaternion, not SplitQuaternion"),
        (split_to_rotor, Q_J, r"a Cl\(2,1\) element reads as SplitQuaternion, not Quaternion"),
        (quaternion_to_su2, SplitQuaternion(math.cosh(1.0), 0, math.sinh(1.0), 0),
         r"an SU\(2\) image reads as Quaternion, not SplitQuaternion"),
        (split_to_su11, Q_J, r"an SU\(1,1\) image reads as SplitQuaternion, not Quaternion"),
    ],
    ids=["quaternion_to_rotor", "split_to_rotor", "quaternion_to_su2", "split_to_su11"],
)
def test_write_bridges_and_images_refuse_the_other_algebra(call, value, message):
    # each took the other algebra's components as its own: the SU(2) image
    # of a split boost lay in neither SU(2) nor SU(1,1)
    with pytest.raises(ValueError, match=message):
        call(value)


def test_isclose_refuses_the_other_algebra():
    # equal components compared True across algebras, though == is False
    assert Quaternion(1, 0, 0, 0) != SplitQuaternion(1, 0, 0, 0)
    with pytest.raises(ValueError, match="a Quaternion compares with Quaternion, not SplitQuaternion"):
        Quaternion(1, 0, 0, 0).isclose(SplitQuaternion(1, 0, 0, 0))
    with pytest.raises(ValueError, match="a SplitQuaternion compares with SplitQuaternion, not Quaternion"):
        SplitQuaternion(1, 0, 0, 0).isclose(Quaternion(1, 0, 0, 0), 1.0)
    assert Quaternion(1, 0, 0, 0).isclose(Quaternion(1, 0, 0, 1e-13))


def test_rotor_to_quaternion_rejects_stray_components():
    bad = Multivector.from_terms(SIG30, {0: 1.0, 0b001: 0.5})
    with pytest.raises(ValueError):
        rotor_to_quaternion(bad)
    with pytest.raises(ValueError):
        rotor_to_split(Multivector.basis(SIG21, 0b111))


def test_rotor_to_quaternion_rejects_another_signature():
    with pytest.raises(ValueError, match=r"a Cl\(2,1\) element reads as SplitQuaternion, not Quaternion"):
        rotor_to_quaternion(Multivector.scalar(SIG21))
    with pytest.raises(ValueError, match=r"a Cl\(1,2\) element reads as SplitQuaternion, not Quaternion"):
        rotor_to_quaternion(sample_rotor(SIG12, 1))
    with pytest.raises(ValueError, match=r"a Cl\(0,3\) element reads as Quaternion, not SplitQuaternion"):
        rotor_to_split(sample_rotor(SIG03, 1))
    with pytest.raises(ValueError, match=r"expected a Cl\(p,q\) element with p \+ q = 3, got Cl\(2,0\)"):
        rotor_to_quaternion(Multivector.scalar(Signature(2, 0)))


#: i, j, k of each n = 3 signature as signed blades (mask, sign).
UNITS = {
    SIG30: [(0b011, 1), (0b101, 1), (0b110, -1)],
    SIG21: [(0b011, 1), (0b101, 1), (0b110, -1)],
    SIG12: [(0b110, 1), (0b011, 1), (0b101, 1)],
    SIG03: [(0b011, 1), (0b101, 1), (0b110, 1)],
}


@pytest.mark.parametrize("sig", READS, ids=[f"{s.p}_{s.q}" for s in READS])
def test_bridge_rule_follows_the_blade_signs(sig):
    # i^2 = -1, j^2 = s and k = ij by the signs of the blade products, with i
    # the first of e12, e13, e23 that squares to -1 and j the first other one;
    # the read bridge takes each signed blade to its unit.
    def sign(a: int, b: int) -> int:
        return int(blade_signs(sig, np.array(a), np.array(b)))

    read = READS[sig][0]
    (i, _), (j, _), (k, k_sign) = UNITS[sig]
    planes = [0b011, 0b101, 0b110]
    assert i == next(F for F in planes if sign(F, F) == -1)
    assert j == next(F for F in planes if F != i)
    assert sign(j, j) == type(read(Multivector.scalar(sig))).SQUARE
    assert k == i ^ j and k_sign == sign(i, j)
    for unit, (mask, s) in enumerate([(0, 1)] + UNITS[sig]):
        assert read(Multivector.basis(sig, mask, float(s))).components().tolist() == np.eye(4)[unit].tolist()


@pytest.mark.parametrize("sig", READS, ids=[f"{s.p}_{s.q}" for s in READS])
def test_read_bridge_is_a_homomorphism(sig):
    read = READS[sig][0]
    for seed in range(20):
        S, T = sample_rotor(sig, 2 * seed), sample_rotor(sig, 2 * seed + 1)
        lhs = read(S.value * T.value).components()
        rhs = (read(S) * read(T)).components()
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, float(np.max(np.abs(lhs))))


# -- candidate formulas ------------------------------------------------------
#
# The quaternion candidates Q_F are the n3 candidates L_F read through the
# bridge. The hand-expanded tables below are an independent reference for
# them; p[r][c] is the coordinate over generator r+1 of the image of
# generator c+1.

PROBE_BLADES = (0, 0b011, 0b101, 0b110)


def quaternion_table(p: np.ndarray) -> dict[int, Quaternion]:
    return {
        0: Quaternion(
            1 + p[0, 0] + p[1, 1] + p[2, 2],
            p[0, 1] - p[1, 0],
            p[0, 2] - p[2, 0],
            -p[1, 2] + p[2, 1],
        ),
        0b011: Quaternion(
            p[0, 1] - p[1, 0],
            1 - p[0, 0] - p[1, 1] + p[2, 2],
            -p[1, 2] - p[2, 1],
            -p[0, 2] - p[2, 0],
        ),
        0b101: Quaternion(
            p[0, 2] - p[2, 0],
            -p[1, 2] - p[2, 1],
            1 - p[0, 0] + p[1, 1] - p[2, 2],
            p[0, 1] + p[1, 0],
        ),
        0b110: Quaternion(
            p[1, 2] - p[2, 1],
            p[0, 2] + p[2, 0],
            -p[0, 1] - p[1, 0],
            -1 - p[0, 0] + p[1, 1] + p[2, 2],
        ),
    }


def split_table(p: np.ndarray) -> dict[int, SplitQuaternion]:
    return {
        0: SplitQuaternion(
            1 + p[0, 0] + p[1, 1] + p[2, 2],
            p[0, 1] - p[1, 0],
            -p[0, 2] - p[2, 0],
            p[1, 2] + p[2, 1],
        ),
        0b011: SplitQuaternion(
            p[0, 1] - p[1, 0],
            1 - p[0, 0] - p[1, 1] + p[2, 2],
            p[1, 2] - p[2, 1],
            p[0, 2] - p[2, 0],
        ),
        0b101: SplitQuaternion(
            p[0, 2] + p[2, 0],
            -p[1, 2] + p[2, 1],
            1 - p[0, 0] + p[1, 1] - p[2, 2],
            p[0, 1] + p[1, 0],
        ),
        0b110: SplitQuaternion(
            p[1, 2] + p[2, 1],
            p[0, 2] - p[2, 0],
            -p[0, 1] - p[1, 0],
            -1 - p[0, 0] + p[1, 1] + p[2, 2],
        ),
    }


def quaternion_candidate(matrix: np.ndarray, F: int) -> Quaternion:
    return rotor_to_quaternion(candidate_n3(matrix, SIG30, F))


def split_candidate(matrix: np.ndarray, F: int) -> SplitQuaternion:
    return rotor_to_split(candidate_n3(matrix, SIG21, F))


def test_quaternion_candidates_identity():
    assert quaternion_candidate(np.eye(3), 0).isclose(Quaternion(4, 0, 0, 0), 0.0)
    for F in PROBE_BLADES[1:]:
        assert quaternion_candidate(np.eye(3), F).norm_squared() == 0.0


def test_quaternion_candidates_half_turn():
    half_turn = np.diag([1.0, -1.0, -1.0])
    assert quaternion_candidate(half_turn, 0b110).isclose(Quaternion(0, 0, 0, -4), 0.0)
    for F in (0, 0b011, 0b101):
        assert quaternion_candidate(half_turn, F).norm_squared() == 0.0


def test_quaternion_candidates_quarter_turn():
    assert quaternion_candidate(rotation_z(math.pi / 2.0), 0).isclose(Quaternion(2, -2, 0, 0), 1e-15)


def test_split_candidates_rotation_plane():
    angle = 0.8
    c, s = math.cos(angle), math.sin(angle)
    got = split_candidate(rotation_z(angle), 0)
    assert got.isclose(SplitQuaternion(2.0 * (1.0 + c), -2.0 * s, 0, 0), 1e-14)


def test_candidates_match_bridged_first_order_candidates():
    rng = np.random.default_rng(6)
    for _ in range(10):
        coeffs = np.zeros(8)
        for mask in (0b011, 0b101, 0b110):
            coeffs[mask] = 0.5 * rng.uniform(-1.0, 1.0)
        rotor = Rotor(exp_bivector(Multivector(SIG30, coeffs)))
        matrix = forward_map(rotor)
        table = quaternion_table(matrix)
        for F in PROBE_BLADES:
            assert table[F].isclose(quaternion_candidate(matrix, F), 1e-12)


def test_split_candidates_match_bridged_first_order_candidates():
    rng = np.random.default_rng(7)
    for _ in range(10):
        coeffs = np.zeros(8)
        for mask in (0b011, 0b101, 0b110):
            coeffs[mask] = 0.4 * rng.uniform(-1.0, 1.0)
        rotor = Rotor(exp_bivector(Multivector(SIG21, coeffs)))
        matrix = forward_map(rotor)
        table = split_table(matrix)
        for F in PROBE_BLADES:
            assert table[F].isclose(split_candidate(matrix, F), 1e-12)


def test_select_candidate_prefers_largest_norm():
    cand = select_candidate(np.diag([1.0, -1.0, -1.0]), SIG30)
    assert cand.F == 0b110
    assert rotor_to_quaternion(cand.M).isclose(Quaternion(0, 0, 0, -8), 0.0)
    assert select_candidate(np.eye(3), SIG30).F == 0


def test_select_split_candidate_requires_positive_norm():
    # the half-turn diag(1,-1,-1) is outside SO+(2,1), which selection
    # checks before it assembles a candidate
    with pytest.raises(MembershipError):
        select_candidate(np.diag([1.0, -1.0, -1.0]), SIG21)


# -- unit extraction ---------------------------------------------------------

def test_unit_quaternion_examples():
    assert so3_to_unit_quaternion(np.eye(3)).isclose(Q_ONE, 0.0)
    assert so3_to_unit_quaternion(np.diag([1.0, -1.0, -1.0])).isclose(-Q_K, 0.0)
    r = 1.0 / math.sqrt(2.0)
    got = so3_to_unit_quaternion(rotation_z(math.pi / 2.0))
    assert got.isclose(Quaternion(r, -r, 0, 0), 1e-15)


def test_unit_quaternion_covers_the_matrix():
    rng = np.random.default_rng(8)
    for _ in range(20):
        coeffs = np.zeros(8)
        for mask in (0b011, 0b101, 0b110):
            coeffs[mask] = 0.7 * rng.uniform(-1.0, 1.0)
        matrix = forward_map(Rotor(exp_bivector(Multivector(SIG30, coeffs))))
        q = so3_to_unit_quaternion(matrix)
        assert abs(q.norm_squared() - 1.0) <= 1e-12
        back = forward_map(quaternion_to_rotor(q))
        assert np.max(np.abs(back - matrix)) <= 1e-12


def test_unit_split_quaternion_covers_the_matrix():
    rng = np.random.default_rng(9)
    for _ in range(20):
        coeffs = np.zeros(8)
        for mask in (0b011, 0b101, 0b110):
            coeffs[mask] = 0.5 * rng.uniform(-1.0, 1.0)
        matrix = forward_map(Rotor(exp_bivector(Multivector(SIG21, coeffs))))
        q = so21_to_unit_split_quaternion(matrix)
        assert abs(q.norm_squared() - 1.0) <= 1e-12
        back = forward_map(split_to_rotor(q))
        assert np.max(np.abs(back - matrix)) <= 1e-12


def test_unit_extraction_validates_membership():
    with pytest.raises(MembershipError):
        so3_to_unit_quaternion(np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(MembershipError):
        so21_to_unit_split_quaternion(np.diag([1.0, -1.0, -1.0]))


def test_unit_extraction_with_projection():
    rng = np.random.default_rng(10)
    noisy = rotation_z(0.3) + 1e-6 * rng.standard_normal((3, 3))
    with pytest.raises(MembershipError):
        so3_to_unit_quaternion(noisy)
    q = so3_to_unit_quaternion(project_to_group(noisy, SIG30))
    assert abs(q.norm_squared() - 1.0) <= 1e-12


def test_boost_agrees_with_clifford_recovery():
    matrix = boost_13(1.1)
    q = so21_to_unit_split_quaternion(matrix)
    via_bridge = split_to_rotor(q).canonicalized()
    via_clifford = matrix_to_rotor(matrix, SIG21)
    assert (via_bridge.value - via_clifford.value).max_abs() <= 1e-12


def test_split_boost_is_accurate_to_rounding():
    # the boost of rapidity 8 is covered by cosh 4 - sinh 4 j, up to sign;
    # the n3 normalizer divides by the e_F coefficient and does not cancel
    t = 8.0
    q = so21_to_unit_split_quaternion(boost_13(t))
    exact = np.array([math.cosh(t / 2.0), 0.0, -math.sinh(t / 2.0), 0.0])
    assert np.max(np.abs(q.components() - exact)) <= 1e-15 * np.max(np.abs(exact))


def has_negative_zero(values: np.ndarray) -> bool:
    flat = np.asarray(values).view(float) if np.iscomplexobj(values) else np.asarray(values, float)
    return bool(np.any((flat == 0.0) & np.signbit(flat)))


def test_unit_elements_have_no_negative_zeros():
    for matrix in (np.diag([-1.0, -1.0, 1.0]), np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0])):
        q = so3_to_unit_quaternion(matrix)
        assert not has_negative_zero(q.components())
        assert not has_negative_zero(quaternion_to_su2(q))
    s = so21_to_unit_split_quaternion(np.diag([-1.0, -1.0, 1.0]))
    assert not has_negative_zero(s.components())
    assert not has_negative_zero(split_to_su11(s))


def test_unit_quaternion_selects_and_assembles_once(monkeypatch):
    selections, assemblies = [], []
    select, assemble = covering._select, covering._assemble_general

    def counting_select(*args, **kwargs):
        selections.append(args[1])
        return select(*args, **kwargs)

    def counting_assemble(*args, **kwargs):
        assemblies.append(args[2])
        return assemble(*args, **kwargs)

    monkeypatch.setattr(covering, "_select", counting_select)
    monkeypatch.setattr(covering, "_assemble_general", counting_assemble)
    so3_to_unit_quaternion(rotation_z(0.4))
    assert selections == [SIG30] and len(assemblies) == 1
    so21_to_unit_split_quaternion(boost_13(0.8))
    assert selections == [SIG30, SIG21] and len(assemblies) == 2


# -- 2x2 complex images -------------------------------------------------------

def test_su2_image_examples():
    assert np.array_equal(quaternion_to_su2(Q_ONE), np.eye(2))
    assert np.array_equal(quaternion_to_su2(Q_I), np.array([[1j, 0], [0, -1j]]))
    assert np.array_equal(quaternion_to_su2(Q_J), np.array([[0, 1], [-1, 0]]))
    assert np.array_equal(quaternion_to_su2(Q_K), np.array([[0, 1j], [1j, 0]]))


def test_su11_image_examples():
    assert np.array_equal(split_to_su11(S_ONE), np.eye(2))
    assert np.array_equal(split_to_su11(S_I), np.array([[1j, 0], [0, -1j]]))
    assert np.array_equal(split_to_su11(S_J), np.array([[0, 1], [1, 0]]))
    assert np.array_equal(split_to_su11(S_K), np.array([[0, 1j], [-1j, 0]]))


def test_images_are_homomorphisms_with_det_norm():
    rng = np.random.default_rng(11)
    for _ in range(15):
        x, y = random_quaternion(rng), random_quaternion(rng)
        lhs = quaternion_to_su2(x * y)
        rhs = quaternion_to_su2(x) @ quaternion_to_su2(y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
        assert abs(np.linalg.det(quaternion_to_su2(x)) - x.norm_squared()) <= 1e-12
        u, v = random_split(rng), random_split(rng)
        slhs = split_to_su11(u * v)
        srhs = split_to_su11(u) @ split_to_su11(v)
        assert np.max(np.abs(slhs - srhs)) <= 1e-12
        assert abs(np.linalg.det(split_to_su11(u)) - u.norm_squared()) <= 1e-12


def test_unit_elements_land_in_su_groups():
    for sig, (read, image, defect) in READS.items():
        for seed in range(30):
            unit = read(matrix_to_rotor(sample_matrix(sig, seed), sig, "n3"))
            assert abs(unit.norm_squared() - 1.0) <= 1e-13, (sig, seed)
            assert defect(image(unit)) <= 1e-13, (sig, seed)
    q = so3_to_unit_quaternion(rotation_z(0.4))
    assert su2_defect(quaternion_to_su2(q)) <= 1e-14
    s = so21_to_unit_split_quaternion(boost_13(0.8))
    assert su11_defect(split_to_su11(s)) <= 1e-13
    assert su2_defect(quaternion_to_su2(Quaternion(2, 0, 0, 0))) > 1.0
