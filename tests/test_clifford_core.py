"""Clifford core against the naive index-list oracles."""

import math
import types

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


@pytest.mark.parametrize("count", [True, np.bool_(True), 1.0, 2.5, "1", None], ids=repr)
def test_signature_counts_must_be_integers(count):
    # a bool once built Cl(True,1), and a float raised TypeError inside dim
    with pytest.raises(ValueError, match="must be integers"):
        Signature(count, 1)
    with pytest.raises(ValueError, match="must be integers"):
        Signature(1, count)


def test_signature_stores_numpy_integer_counts_as_int():
    sig = Signature(np.int64(2), np.int32(1))
    assert sig == Signature(2, 1) and hash(sig) == hash(Signature(2, 1))
    assert type(sig.p) is int and type(sig.q) is int
    assert repr(sig) == "Signature(p=2, q=1)"


def test_blade_grade_and_indices():
    assert blade_grade(0) == 0
    assert blade_grade(0b1011) == 3
    assert blade_indices(0) == ()
    assert blade_indices(0b101) == (1, 3)


def test_blade_calls_take_numpy_integer_masks():
    # grade_masks hands out numpy integers, which have no bit_length
    assert blade_name(grade_masks(3, 2)[0]) == "e12"
    assert blade_name(np.int64(0)) == "1"
    assert blade_name(np.uint16(1 << 11)) == "e_12"
    assert blade_indices(np.int8(0b101)) == (1, 3)
    assert blade_grade(np.uint64(0b1011)) == 3


@pytest.mark.parametrize("mask", [-1, np.int64(-3), True, False, np.bool_(True), 1.0, "1"], ids=repr)
def test_blade_calls_refuse_negative_and_bool_masks(mask):
    # -1 and True named e1, False named the scalar, and blade_grade(-1) was 1
    for call in (blade_name, blade_indices, blade_grade):
        with pytest.raises(ValueError, match="blade masks must be nonnegative integers"):
            call(mask)


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
    for bad in ("", "e", "x12", "e21", "e11", "e0", "e14", "e1_2_2", "1e2", "e1_2", "e_1_2", "e_1", "e٣"):
        with pytest.raises(ValueError):
            blade_from_name(bad, 3)
    for bad in ("e1_2", "e_01_10", "e_10_11", "e_1_10"):
        with pytest.raises(ValueError, match="canonical"):
            blade_from_name(bad, 12)


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
    assert np.array_equal(grade_masks(3, np.int64(2)), [0b011, 0b101, 0b110])
    grade_masks(3, 1)  # cached: 1.0 and True must not reach the entry
    for bad in (1.5, 1.0, True, "1", None):
        with pytest.raises(ValueError, match="grades must be integers"):
            grade_masks(3, bad)
    # n = 3.0 raised TypeError and n = 40 asked numpy for 8 TiB
    for bad in (3.0, True, np.float64(3), 0, -1, 13, 40):
        with pytest.raises(ValueError, match=r"dimension n must be an integer in 1\.\.12"):
            grade_masks(bad, 1)


def test_grade_masks_refuses_unhashable_arguments_with_value_error():
    # lru_cache hashes the arguments before the body's checks run
    for n in ([3], {}, np.array(3)):
        with pytest.raises(ValueError, match=r"dimension n must be an integer in 1\.\.12"):
            grade_masks(n, 1)
    with pytest.raises(ValueError, match="grades must be integers"):
        grade_masks(3, [1])
    assert grade_masks(3, 2) is grade_masks(3, 2)
    assert np.array_equal(grade_masks(np.int64(3), 1), [0b001, 0b010, 0b100])


def test_grade_masks_are_read_only_views_of_the_blade_order():
    for n in range(1, MAX_DIMENSION + 1):
        layout = clifford_core._layout(n)
        for k in range(n + 1):
            masks = grade_masks(n, k)
            assert masks is grade_masks(n, k) and not masks.flags.writeable
            assert np.shares_memory(masks, layout.order)
            assert masks.tolist() == [m for m in range(1 << n) if m.bit_count() == k]


@pytest.mark.parametrize("n", [1, 3, 12])
def test_fixed_table_records_are_read_only(n):
    records = [clifford_core._layout(n)] + [clifford_core._algebra(p, n - p) for p in range(n + 1)]
    for record in records:
        for value in vars(record).values():
            for table in value if isinstance(value, tuple) else (value,):
                assert isinstance(table, np.ndarray) and not table.flags.writeable
        with pytest.raises(AttributeError):
            record.grades = None


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
    assert v.coefficient(np.int64(0b100)) == 3.0
    for bad in (-1, 8, 2**70, True, 1.0, "1"):
        with pytest.raises(ValueError, match="blade mask"):
            v.coefficient(bad)


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


def test_a_list_of_python_floats_builds_no_object_array(monkeypatch):
    # The bool scan copies its input into an object array; a float or a flat
    # list of Python floats holds no bool, so basis, scalar, from_terms and
    # vector skip it on such input, as they did before the scan. Other
    # numbers are still scanned, and the tests above see their bools refused.
    dtypes = []
    numpy = types.SimpleNamespace(**vars(np))
    numpy.array = lambda *args, **kwargs: dtypes.append(kwargs.get("dtype")) or np.array(*args, **kwargs)
    monkeypatch.setattr(clifford_core, "np", numpy)
    sig = Signature(3, 1)
    Multivector.basis(sig, 0b11, 2.0)
    Multivector.scalar(sig)
    Multivector.from_terms(sig, {1: 0.5, 6: -2.0})
    Multivector.vector(sig, [1.0, 2.0, 3.0, 4.0])
    assert dtypes and object not in dtypes
    Multivector.from_terms(sig, {1: 0.5, 6: np.float64(2.0)})
    assert object in dtypes


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


def test_adding_a_float_is_refused():
    # __add__ and __sub__ return NotImplemented, and float has no rule either
    u = Multivector.scalar(Signature(2, 0))
    with pytest.raises(TypeError):
        u + 1.0
    with pytest.raises(TypeError):
        u - 1.0


def test_from_terms_rejects_a_mask_outside_the_algebra():
    sig = Signature(2, 0)
    with pytest.raises(ValueError, match="blade mask 4 outside 0..3"):
        Multivector.from_terms(sig, {0: 1.0, sig.dim: 1.0})


@pytest.mark.parametrize("mask", [True, np.bool_(True), 1.0, np.float64(1.0), "1", None], ids=repr)
def test_blade_masks_must_be_integers(mask):
    # a bool indexed the coefficients as a boolean mask (setting all four
    # of Cl(2,0)), and a float raised numpy's IndexError
    sig = Signature(2, 0)
    with pytest.raises(ValueError, match="blade masks must be integers"):
        Multivector.basis(sig, mask)
    with pytest.raises(ValueError, match="blade masks must be integers"):
        Multivector.from_terms(sig, {mask: 1.0})


@pytest.mark.parametrize("mask", [[1], np.array(1), np.array([1])], ids=repr)
def test_basis_refuses_unhashable_masks_with_value_error(mask):
    # basis keys a one-term dict for from_terms; the mask is checked first
    with pytest.raises(ValueError, match="blade masks must be integers"):
        Multivector.basis(Signature(2, 0), mask)


def test_numpy_integer_masks_name_their_blade():
    sig = Signature(2, 0)
    e1 = Multivector(sig, [0.0, 1.0, 0.0, 0.0])
    assert Multivector.basis(sig, np.int64(1)) == e1
    assert Multivector.from_terms(sig, {np.int64(1): 1.0}) == e1
    with pytest.raises(ValueError, match="blade mask 4 outside 0..3"):
        Multivector.basis(sig, np.int64(4))


def test_multivectors_compare_by_value():
    sig = Signature(2, 1)
    u = Multivector(sig, np.arange(8.0))
    assert u == Multivector(sig, np.arange(8.0)) and not u != Multivector(sig, np.arange(8.0))
    assert u != -u and u != Multivector(Signature(3, 0), np.arange(8.0))
    assert u != Multivector(sig, np.arange(8.0) + 1e-300)
    assert u != 0.0 and u != "u"
    assert Multivector(sig, [0.0] * 8) == Multivector(sig, [-0.0] * 8)
    assert hash(Multivector(sig, [0.0] * 8)) == hash(Multivector(sig, [-0.0] * 8))
    assert hash(u) == hash(Multivector(sig, np.arange(8.0)))
    assert Multivector(sig, [math.nan] + [0.0] * 7) != Multivector(sig, [math.nan] + [0.0] * 7)
    assert len({u, Multivector(sig, np.arange(8.0)), -u}) == 2


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


def test_blade_order_is_grade_then_mask_and_read_only():
    # the one order of Multivector.terms and of the recovery's probes
    for n in range(1, MAX_DIMENSION + 1):
        order = clifford_core._layout(n).order
        assert order.tolist() == sorted(range(1 << n), key=lambda m: (m.bit_count(), m))
        assert not order.flags.writeable


def test_reverse_signs_follow_the_grade():
    for n in range(1, MAX_DIMENSION + 1):
        signs = clifford_core._layout(n).reverse_signs
        expected = [(-1) ** (k * (k - 1) // 2) for k in map(int.bit_count, range(1 << n))]
        assert signs.dtype == np.int8 and signs.tolist() == expected and not signs.flags.writeable


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


def reference_product(sig: Signature, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """geometric_product's arithmetic before rows were grouped: one row, in blocks of _PAIRS pairs."""
    ia = np.nonzero(u)[0]
    ib = np.nonzero(v)[0]
    total = np.zeros(sig.dim)
    step = clifford_core._PAIRS // max(1, ib.size)
    for start in range(0, ia.size, step):
        rows = ia[start : start + step, None]
        signs = blade_signs(sig, rows, ib)
        values = (u[rows] * v[ib] * signs).ravel()
        total += np.bincount((rows ^ ib).ravel(), weights=values, minlength=sig.dim)
    return total


def sparse(rng: np.random.Generator, dim: int, share: float) -> np.ndarray:
    return np.where(rng.uniform(size=dim) < share, rng.uniform(-1.0, 1.0, dim), 0.0)


@pytest.mark.parametrize(
    "sig",
    [Signature(p, n - p) for n in range(1, 7) for p in range(n + 1)] + [Signature(5, 3), Signature(7, 3)],
    ids=lambda s: f"{s.p}_{s.q}",
)
@pytest.mark.parametrize("pairs", ["default", "small"])
def test_grouped_pair_sums_are_the_one_row_products_byte_for_byte(monkeypatch, sig, pairs):
    # The signed shifts value e_a of dense, sparse, one-blade and zero
    # values, rows with one nonzero count each, against dense, sparse and
    # zero right factors: each row of one grouped call, and
    # geometric_product, gives the bytes of the one-row reference. At the
    # default _PAIRS a dense (7,3) row with a dense right factor is cut into
    # four blocks; at 4 * 2^n pairs so is every dense row from n = 3, and the
    # one-blade rows share one.
    rng = np.random.default_rng(31 + 7 * sig.p + sig.q)
    if pairs == "small":
        monkeypatch.setattr(clifford_core, "_PAIRS", 4 * sig.dim)
    blades = np.zeros((2, sig.dim))
    blades[0, sig.dim - 1], blades[1, 0] = -0.75, 1.25
    values = [rng.uniform(-1.0, 1.0, sig.dim), sparse(rng, sig.dim, 0.2), *blades, np.zeros(sig.dim)]
    rights = [rng.uniform(-1.0, 1.0, sig.dim), sparse(rng, sig.dim, 0.2), np.zeros(sig.dim)]
    generators = np.eye(sig.dim)[1 << np.arange(sig.n)]
    bincount, blocks = np.bincount, []

    def counting(keys, weights, minlength):
        blocks[-1].append(minlength // sig.dim)
        return bincount(keys, weights, minlength)

    for value in values:
        left = np.array([reference_product(sig, value, e) for e in generators])
        for right in rights:
            want = [reference_product(sig, row, right).tobytes() for row in left]
            blocks.append([])
            monkeypatch.setattr(np, "bincount", counting)
            got = clifford_core._pair_sums(sig, left, right)
            monkeypatch.setattr(np, "bincount", bincount)
            assert got.shape == left.shape
            assert [row.tobytes() for row in got] == want
            for row, expected in zip(left, want):
                assert geometric_product(Multivector(sig, row), Multivector(sig, right)).coeffs.tobytes() == expected
    # Each block is one bincount over its rows, so a block of several rows
    # is a group, and blocks that cover more rows than left has cut a row:
    # blocks[0] holds the dense value's shifts against the dense right factor.
    assert max(sum(blocks, [])) > 1 or sig.n == 1
    if sig.n == 10 or pairs == "small" and sig.n >= 3:
        assert sum(blocks[0]) > sig.n


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
    assert u.grade_projection(np.int8(3)).coefficient(0b111) == 8.0
    for bad in (1.5, True):
        with pytest.raises(ValueError, match="grades must be integers"):
            u.grade_projection(bad)


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


def test_mixed_signatures_raise():
    u, v = Multivector.scalar(Signature(3, 0)), Multivector.scalar(Signature(2, 1))
    for operation in (lambda: u + v, lambda: u * v):
        with pytest.raises(ValueError, match=r"signature mismatch: Cl\(3,0\) vs Cl\(2,1\)"):
            operation()


def test_repr_names_the_terms_and_the_algebra():
    sig = Signature(2, 1)
    assert repr(Multivector.from_terms(sig, {0: 1.5, 0b011: -2.0})) == "<1.5*1 - 2*e12 in Cl(2,1)>"
    assert repr(Multivector.zero(sig)) == "<0 in Cl(2,1)>"


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
