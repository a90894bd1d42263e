"""Clifford core against the naive index-list oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincover import clifford_core
from spincover.clifford_core import (
    MAX_DIMENSION,
    Multivector,
    Signature,
    blade_from_name,
    blade_grade,
    blade_indices,
    blade_name,
    blade_signs,
    exp_bivector,
    geometric_product,
    grade_masks,
    squared_norm,
)

from oracles import (
    coeffs_to_dict,
    dict_to_coeffs,
    mask_to_blade,
    naive_blade_product,
    naive_product,
    naive_reverse,
    naive_reversion_sign,
)

SMALL_SIGS = [Signature(p, q) for n in range(1, 5) for p in range(n + 1) for q in [n - p]]


def random_mv(sig: Signature, rng: np.random.Generator, scale: float = 1.0) -> Multivector:
    return Multivector(sig, rng.uniform(-scale, scale, sig.dim))


# -- signatures and blade utilities ------------------------------------------

def test_signature_validation():
    assert Signature(2, 1).n == 3
    assert Signature(2, 1).dim == 8
    assert Signature(0, 2).metric(1) == -1
    assert Signature(1, 1).metric(1) == 1
    assert Signature(1, 1).metric(2) == -1
    with pytest.raises(ValueError):
        Signature(-1, 2)
    with pytest.raises(ValueError):
        Signature(0, 0)
    with pytest.raises(ValueError):
        Signature(MAX_DIMENSION, 1)
    Signature(MAX_DIMENSION, 0)
    with pytest.raises(ValueError):
        Signature(1, 1).metric(3)


def test_blade_grade_and_indices():
    assert blade_grade(0) == 0
    assert blade_grade(0b1011) == 3
    assert blade_indices(0) == ()
    assert blade_indices(0b101) == (1, 3)


def test_blade_names_round_trip():
    assert blade_name(0) == "1"
    assert blade_name(0b11) == "e12"
    assert blade_name(0b10110) == "e235"
    for n in (3, 6, 10, 11, 12):
        names = [blade_name(mask) for mask in range(1 << n)]
        assert len(set(names)) == len(names)
        for mask, name in enumerate(names):
            assert blade_from_name(name, n) == mask


def test_blade_names_two_digit_indices():
    mask = (1 << 9) | (1 << 10) | 1
    assert blade_name(mask) == "e1_10_11"
    assert blade_from_name("e1_10_11", 11) == mask
    assert blade_name((1 << 9) - 1) == "e123456789"


def test_single_two_digit_index_has_its_own_spelling():
    # "e10" would read as e1 e0 and "e12" is e1 e2.
    assert [blade_name(1 << i) for i in (9, 10, 11)] == ["e_10", "e_11", "e_12"]
    assert blade_from_name("e_12", 12) == 1 << 11
    assert blade_from_name("e12", 12) == 0b11
    for bad in ("e_", "e__10", "e_10_", "e_13"):
        with pytest.raises(ValueError):
            blade_from_name(bad, 12)


def test_blade_from_name_rejects_garbage():
    for bad in ("", "e", "x12", "e21", "e11", "e0", "e14", "e1_2_2", "1e2"):
        with pytest.raises(ValueError):
            blade_from_name(bad, 3)


def test_blade_product_matches_oracle_exhaustively():
    for sig in SMALL_SIGS:
        masks = np.arange(sig.dim)
        table = blade_signs(sig, masks[:, None], masks[None, :])
        for a in range(sig.dim):
            for b in range(sig.dim):
                ref_sign, _ = naive_blade_product(mask_to_blade(a), mask_to_blade(b), sig.p, sig.q)
                assert table[a, b] == ref_sign


@given(st.integers(0, (1 << 6) - 1), st.integers(0, (1 << 6) - 1), st.integers(0, 6))
def test_blade_product_matches_oracle_n6(a, b, p):
    sig = Signature(p, 6 - p)
    ref_sign, ref_blade = naive_blade_product(mask_to_blade(a), mask_to_blade(b), sig.p, sig.q)
    assert blade_signs(sig, a, b) == ref_sign
    assert mask_to_blade(a ^ b) == ref_blade


@given(st.integers(0, (1 << 12) - 1), st.integers(0, (1 << 12) - 1), st.integers(0, 12))
def test_blade_signs_match_blade_product_n12(a, b, p):
    sig = Signature(p, 12 - p)
    ref_sign, _ = naive_blade_product(mask_to_blade(a), mask_to_blade(b), sig.p, sig.q)
    assert blade_signs(sig, np.array([a]), np.array([b]))[0] == ref_sign


def test_blade_inverse_examples():
    # (e12)^2 = -e in Cl(2,0) but +e in Cl(1,1)
    assert blade_signs(Signature(2, 0), 0b11, 0b11) == -1
    assert blade_signs(Signature(1, 1), 0b11, 0b11) == 1
    assert blade_signs(Signature(3, 0), 0, 0) == 1
    for sig in SMALL_SIGS:
        for mask in range(sig.dim):
            sign = float(blade_signs(sig, mask, mask))
            unit = geometric_product(Multivector.basis(sig, mask), Multivector.basis(sig, mask, sign))
            assert unit.isclose(Multivector.scalar(sig), 0.0)


def test_grade_masks():
    assert list(grade_masks(3, 0)) == [0]
    assert list(grade_masks(3, 2)) == [0b011, 0b101, 0b110]
    assert list(grade_masks(4, 4)) == [0b1111]
    with pytest.raises(ValueError):
        grade_masks(3, 4)


# -- multivector arithmetic ---------------------------------------------------

def test_multivector_construction_and_access():
    sig = Signature(2, 1)
    u = Multivector.from_terms(sig, {0: 2.0, 0b011: -1.5})
    assert u.coefficient(0) == 2.0
    assert u.scalar_part() == 2.0
    assert u.coefficient(0b011) == -1.5
    v = Multivector.vector(sig, [1.0, 2.0, 3.0])
    assert list(v.vector_components()) == [1.0, 2.0, 3.0]
    assert v.coefficient(0b100) == 3.0
    with pytest.raises(ValueError):
        Multivector(sig, [1.0, 2.0])
    with pytest.raises(ValueError):
        Multivector.vector(sig, [1.0])
    with pytest.raises(ValueError):
        Multivector.basis(sig, 8)


@pytest.mark.parametrize(
    "coeffs", [["1", "0"], ["1", True], [True, False], [1 + 0.5j, 0.0]], ids=["strings", "mixed", "bools", "complex"]
)
def test_multivector_coefficients_must_be_real(coeffs):
    # the rule of as_square_matrix; ints and floats still pass
    with pytest.raises(ValueError, match="real numbers"):
        Multivector(Signature(1, 0), coeffs)
    assert Multivector(Signature(1, 0), [1, 0]).coeffs.dtype == np.float64


@pytest.mark.parametrize("coeffs", [[1.0, True], [1, np.bool_(False)], [np.array([True]), np.array([2.5])]])
def test_multivector_rejects_bools_mixed_with_numbers(coeffs):
    # numpy infers float64 or int64 for these lists, so the dtype alone passes them
    with pytest.raises(ValueError, match="got a bool"):
        Multivector(Signature(1, 0), coeffs)
    assert Multivector(Signature(1, 0), np.array([1.0, 1.0])).coeffs.tolist() == [1.0, 1.0]


NOT_REAL = pytest.mark.parametrize("bad", [True, np.bool_(False), "2", 1 + 0.5j], ids=["bool", "numpy-bool", "string", "complex"])


@NOT_REAL
def test_scalar_constructor_rejects_non_reals(bad):
    with pytest.raises(ValueError, match="real numbers"):
        Multivector.scalar(Signature(3, 0), bad)


@NOT_REAL
def test_basis_constructor_rejects_non_reals(bad):
    with pytest.raises(ValueError, match="real numbers"):
        Multivector.basis(Signature(3, 0), 0b11, bad)


@NOT_REAL
def test_from_terms_constructor_rejects_non_reals(bad):
    with pytest.raises(ValueError, match="real numbers"):
        Multivector.from_terms(Signature(3, 0), {1: bad, 2: 1.0})


@NOT_REAL
def test_vector_constructor_rejects_non_reals(bad):
    # a bool among floats, and a complex component, which raised TypeError
    with pytest.raises(ValueError, match="real numbers"):
        Multivector.vector(Signature(3, 0), [1.0, bad, 2.0])


def test_named_constructors_take_ints_and_floats():
    sig = Signature(3, 0)
    assert Multivector.scalar(sig, 2).coeffs.tolist() == [2.0] + [0.0] * 7
    assert Multivector.basis(sig, 0b11, np.float32(2)).coefficient(0b11) == 2.0
    assert Multivector.from_terms(sig, {1: 1, 4: 2.5}).vector_components().tolist() == [1.0, 0.0, 2.5]
    assert Multivector.vector(sig, (x for x in [1, 2.0, np.int64(3)])).vector_components().tolist() == [1.0, 2.0, 3.0]
    assert Multivector.from_terms(sig, {}).max_abs() == 0.0


def test_multivector_is_immutable():
    u = Multivector.scalar(Signature(2, 0))
    with pytest.raises(AttributeError):
        u.sig = Signature(1, 1)
    with pytest.raises(ValueError):
        u.coeffs[0] = 5.0


def test_linear_operations():
    sig = Signature(2, 0)
    u = Multivector.from_terms(sig, {0: 1.0, 0b11: 2.0})
    v = Multivector.basis(sig, 0b01, 3.0)
    assert (u + v).coefficient(0b01) == 3.0
    assert (u - v).coefficient(0b01) == -3.0
    assert (-u).coefficient(0b11) == -2.0
    assert (2 * u).coefficient(0b11) == 4.0
    assert (u * 2).coefficient(0) == 2.0
    assert (u / 4).coefficient(0b11) == 0.5
    with pytest.raises(ValueError):
        u + Multivector.scalar(Signature(1, 1))


NUMPY_SCALARS = pytest.mark.parametrize(
    "two", [np.int64(2), np.float32(2), np.float64(2)], ids=["int64", "float32", "float64"]
)
BOOLS = pytest.mark.parametrize("flag", [True, np.bool_(True)], ids=["bool", "numpy-bool"])


@NUMPY_SCALARS
def test_numpy_scalars_scale_multivectors(two):
    u = Multivector.from_terms(Signature(2, 0), {0: 1.0, 0b11: 2.0})
    assert (u * two).coeffs.tolist() == (two * u).coeffs.tolist() == [2.0, 0.0, 0.0, 4.0]
    assert (u / two).coeffs.tolist() == [0.5, 0.0, 0.0, 1.0]


@BOOLS
def test_multivector_times_bool_is_refused(flag):
    with pytest.raises(TypeError):
        Multivector.scalar(Signature(2, 0)) * flag


@BOOLS
def test_bool_times_multivector_is_refused(flag):
    with pytest.raises(TypeError):
        flag * Multivector.scalar(Signature(2, 0))


@BOOLS
def test_multivector_over_bool_is_refused(flag):
    with pytest.raises(TypeError):
        Multivector.scalar(Signature(2, 0)) / flag


def test_terms_ordering_is_grade_then_mask():
    sig = Signature(2, 1)
    u = Multivector(sig, np.arange(1.0, 9.0))
    masks = [mask for mask, _ in u.terms()]
    assert masks == [0, 1, 2, 4, 3, 5, 6, 7]


def test_geometric_product_matches_naive_oracle():
    rng = np.random.default_rng(7)
    for sig in SMALL_SIGS:
        for _ in range(5):
            u = random_mv(sig, rng)
            v = random_mv(sig, rng)
            got = geometric_product(u, v)
            ref = dict_to_coeffs(
                naive_product(coeffs_to_dict(u.coeffs), coeffs_to_dict(v.coeffs), sig.p, sig.q),
                sig.n,
            )
            assert np.max(np.abs(got.coeffs - np.array(ref))) <= 1e-12


def test_geometric_product_n5_against_oracle():
    rng = np.random.default_rng(11)
    sig = Signature(3, 2)
    u = random_mv(sig, rng)
    v = random_mv(sig, rng)
    ref = dict_to_coeffs(
        naive_product(coeffs_to_dict(u.coeffs), coeffs_to_dict(v.coeffs), sig.p, sig.q), sig.n
    )
    assert np.max(np.abs((u * v).coeffs - np.array(ref))) <= 1e-12


def test_geometric_product_row_blocks_match_one_block(monkeypatch):
    # Blocks of 64 pairs split an n = 5 grid into 16 bincounts of two rows;
    # the sum is the one-block product up to the order of its additions.
    rng = np.random.default_rng(12)
    sig = Signature(3, 2)
    u, v = random_mv(sig, rng), random_mv(sig, rng)
    whole = geometric_product(u, v).coeffs
    monkeypatch.setattr(clifford_core, "_PAIRS", 64)
    assert np.max(np.abs(geometric_product(u, v).coeffs - whole)) <= 1e-14
    assert geometric_product(u, Multivector.zero(sig)).max_abs() == 0.0


def test_product_unit_and_zero():
    sig = Signature(2, 2)
    rng = np.random.default_rng(3)
    u = random_mv(sig, rng)
    one = Multivector.scalar(sig)
    zero = Multivector.zero(sig)
    assert (u * one).isclose(u, 0.0)
    assert (one * u).isclose(u, 0.0)
    assert (u * zero).isclose(zero, 0.0)


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 0), (1, 1), (3, 0), (2, 1), (2, 2)]))
def test_associativity(seed, pq):
    sig = Signature(*pq)
    rng = np.random.default_rng(seed)
    u, v, w = (random_mv(sig, rng, 0.5) for _ in range(3))
    assert ((u * v) * w - u * (v * w)).max_abs() <= 1e-12


def test_generator_anticommutation_is_exact():
    for sig in SMALL_SIGS:
        for a in range(sig.n):
            for b in range(sig.n):
                ea = Multivector.basis(sig, 1 << a)
                eb = Multivector.basis(sig, 1 << b)
                anti = ea * eb + eb * ea
                if a == b:
                    expected = Multivector.scalar(sig, 2.0 * sig.metric(a + 1))
                else:
                    expected = Multivector.zero(sig)
                assert (anti - expected).max_abs() == 0.0


# -- involutions and projections ----------------------------------------------

def test_reversion_signs_match_oracle():
    for n in range(1, 7):
        sig = Signature(n, 0)
        for mask in range(sig.dim):
            got = Multivector.basis(sig, mask).reverse().coefficient(mask)
            assert got == naive_reversion_sign(mask_to_blade(mask))


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 0), (1, 2), (2, 2)]))
def test_reversion_antihomomorphism(seed, pq):
    sig = Signature(*pq)
    rng = np.random.default_rng(seed)
    u = random_mv(sig, rng, 0.5)
    v = random_mv(sig, rng, 0.5)
    assert ((u * v).reverse() - v.reverse() * u.reverse()).max_abs() <= 1e-12


def test_reverse_matches_naive_dict_oracle():
    rng = np.random.default_rng(5)
    sig = Signature(2, 2)
    u = random_mv(sig, rng)
    ref = dict_to_coeffs(naive_reverse(coeffs_to_dict(u.coeffs)), sig.n)
    assert np.array_equal(u.reverse().coeffs, np.array(ref))


def test_grade_projection():
    sig = Signature(3, 0)
    u = Multivector(sig, np.arange(1.0, 9.0))
    assert u.grade_projection(0).coefficient(0) == 1.0
    assert u.grade_projection(1).coefficient(0b001) == 2.0
    assert u.grade_projection(1).coefficient(0b011) == 0.0
    total = Multivector.zero(sig)
    for k in range(4):
        total = total + u.grade_projection(k)
    assert total.isclose(u, 0.0)
    with pytest.raises(ValueError):
        u.grade_projection(4)


def test_center_projection_grades():
    # center is grade 0 for even n, grades 0 and n for odd n
    even = Multivector(Signature(2, 2), np.ones(16)).center_projection()
    assert even.coefficient(0) == 1.0
    assert even.max_abs() == 1.0
    assert np.count_nonzero(even.coeffs) == 1
    odd = Multivector(Signature(2, 1), np.ones(8)).center_projection()
    assert np.count_nonzero(odd.coeffs) == 2
    assert odd.coefficient(0) == 1.0
    assert odd.coefficient(0b111) == 1.0


def test_even_projection_and_odd_part():
    sig = Signature(2, 1)
    u = Multivector(sig, np.arange(1.0, 9.0))
    even = u.even_projection()
    assert even.coefficient(0b011) == 4.0
    assert even.coefficient(0b001) == 0.0
    assert u.odd_part_max() == 8.0
    assert even.odd_part_max() == 0.0


def test_squared_norm_is_scalar_of_reverse_times_self():
    rng = np.random.default_rng(9)
    for sig in SMALL_SIGS:
        u = random_mv(sig, rng)
        direct = (u.reverse() * u).scalar_part()
        assert math.isclose(squared_norm(u), direct, rel_tol=0, abs_tol=1e-12)
    # indefinite example: e13 in Cl(2,1) has reverse(u) u = -1
    sig = Signature(2, 1)
    assert squared_norm(Multivector.basis(sig, 0b101)) == -1.0
    assert squared_norm(Multivector.basis(sig, 0b011)) == 1.0


# -- exponential ---------------------------------------------------------------

def test_exp_bivector_closed_forms():
    sig = Signature(2, 0)
    for angle in (0.0, 0.3, 1.0, 2.5, -4.0):
        got = exp_bivector(Multivector.basis(sig, 0b11, angle))
        assert abs(got.coefficient(0) - math.cos(angle)) <= 1e-13
        assert abs(got.coefficient(0b11) - math.sin(angle)) <= 1e-13
    boost = Signature(1, 1)
    for rapidity in (0.0, 0.5, -2.0, 3.0):
        got = exp_bivector(Multivector.basis(boost, 0b11, rapidity))
        assert abs(got.coefficient(0) - math.cosh(rapidity)) <= 1e-11
        assert abs(got.coefficient(0b11) - math.sinh(rapidity)) <= 1e-11


def test_exp_bivector_unit_norm():
    rng = np.random.default_rng(21)
    for sig in (Signature(3, 0), Signature(2, 2), Signature(4, 1)):
        bivector = random_mv(sig, rng).grade_projection(2)
        rotor = exp_bivector(bivector)
        gram = rotor.reverse() * rotor
        assert abs(gram.scalar_part() - 1.0) <= 1e-12
        assert (gram - gram.grade_projection(0)).max_abs() <= 1e-12


def test_exp_bivector_unit_norm_with_many_large_coefficients():
    # Every coefficient is at most 1.5 but the 1-norm is about 11, so the
    # series only converges once the argument is halved by its 1-norm.
    rng = np.random.default_rng(7)
    for sig in (Signature(0, 6), Signature(6, 0)):
        for _ in range(5):
            coeffs = np.zeros(sig.dim)
            coeffs[grade_masks(sig.n, 2)] = rng.uniform(-1.5, 1.5, 15)
            rotor = exp_bivector(Multivector(sig, coeffs))
            gram = rotor.reverse() * rotor
            assert abs(gram.scalar_part() - 1.0) <= 1e-12
            assert (gram - gram.grade_projection(0)).max_abs() <= 1e-12


def test_exp_bivector_rejects_non_bivectors():
    sig = Signature(2, 0)
    with pytest.raises(ValueError):
        exp_bivector(Multivector.scalar(sig))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_exp_bivector_rejects_non_finite_arguments(bad):
    # the halving loop this replaced never ended on inf and passed NaN through
    with pytest.raises(ValueError, match="finite"):
        exp_bivector(Multivector.basis(Signature(2, 0), 0b11, bad))


def loop_halvings(norm: float) -> int:
    halvings = 0
    while norm > 1.0:
        norm /= 2.0
        halvings += 1
    return halvings


@pytest.mark.parametrize(
    "norm", [0.0, 0.5, 1.0, 1.0 + 2.0**-52, 2.0 - 2.0**-51, 2.0, 3.0, 4096.0, 4096.0 * (1 + 2.0**-52), 2.0**40, 3.3e299]
)
def test_exp_bivector_halves_as_the_loop_did(norm, monkeypatch):
    # 19 series products, then one squaring per halving; past 12 halvings
    # the squarings' rounding, 2^h eps, would pass the 1e-12 promise
    if loop_halvings(norm) > 12:
        with pytest.raises(ValueError, match="halvings"):
            exp_bivector(Multivector.basis(Signature(2, 0), 0b11, norm))
        return
    calls = []
    product = clifford_core.geometric_product

    def counting_product(u, v):
        calls.append(1)
        return product(u, v)

    monkeypatch.setattr(clifford_core, "geometric_product", counting_product)
    exp_bivector(Multivector.basis(Signature(2, 0), 0b11, norm))
    assert len(calls) == 19 + loop_halvings(norm)
