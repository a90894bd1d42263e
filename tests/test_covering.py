"""Two-sheeted covering: forward conjugation map and matrix-to-rotor recovery."""

import dataclasses
import json
import math
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from spincover import cli, clifford_core, covering, division_algebras, matrix_group
from spincover.clifford_core import (
    Multivector,
    Signature,
    blade_name,
    exp_bivector,
    geometric_product,
    grade_masks,
    squared_norm,
)
from spincover.covering import (
    CandidateElement,
    NoCandidateError,
    Rotor,
    candidate_n3,
    forward_map,
    matrix_to_rotor,
    select_candidate,
)
from spincover.matrix_group import MembershipError, check_membership, project_to_group
from spincover.oracle import run_selfcheck, sample_matrix, sample_rotor

from oracles import (
    coeffs_to_dict,
    dict_to_coeffs,
    exact_cayley_pair,
    full_grade_candidate,
    full_grade_weights,
    full_minor_tables,
    gathered_closed_form,
    mask_to_blade,
    naive_blade_product,
    naive_product,
    reference_matrix_to_rotor,
    vectorized_blade_sign,
)

SIG20 = Signature(2, 0)
SIG30 = Signature(3, 0)
SIG21 = Signature(2, 1)
ALL_SIGNATURES = [Signature(p, n - p) for n in range(1, 7) for p in range(n + 1)]
FIXTURES = Path(__file__).parent / "fixtures"


def rotation_matrix(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def rotation_rotor(angle: float, sig: Signature = SIG20) -> Rotor:
    return Rotor(exp_bivector(Multivector.basis(sig, 0b11, -angle / 2.0)))


def random_rotor(sig: Signature, rng: np.random.Generator, scale: float = 0.6) -> Rotor:
    coeffs = np.zeros(sig.dim)
    if sig.n >= 2:
        for mask in grade_masks(sig.n, 2):
            coeffs[mask] = scale * rng.uniform(-1.0, 1.0)
    return Rotor(exp_bivector(Multivector(sig, coeffs)))


def even_blades(n: int) -> list[int]:
    # The probe order of select_candidate: even blades by (grade, mask).
    return sorted((m for m in range(1 << n) if m.bit_count() % 2 == 0), key=lambda m: (m.bit_count(), m))


def candidate(matrix: np.ndarray, sig: Signature, F: int) -> Multivector:
    # M_F for any even probe F, from the private tables and assembly that
    # select_candidate runs for its one probe
    tables = covering._minor_tables(np.asarray(matrix, dtype=float), sig.n)
    return Multivector(sig, covering._assemble_general(sig, tables, F))


def probe_weights(matrix: np.ndarray, sig: Signature) -> np.ndarray:
    # w_F = eps_F det(I + P D_F) at every mask, as select_candidate ranks
    # the even ones
    return covering._weights(np.asarray(matrix, dtype=float), sig, np.arange(sig.dim))


def rotor_distance(x: Rotor, y: Rotor) -> float:
    diff = np.abs(x.coeffs - y.coeffs).max()
    summ = np.abs(x.coeffs + y.coeffs).max()
    return min(diff, summ)


# -- Rotor wrapper -------------------------------------------------------------

def test_rotor_checked_accepts_unit_even():
    rotor = Rotor.checked(exp_bivector(Multivector.basis(SIG30, 0b011, 0.4)))
    assert rotor.unit_residual() <= 1e-14


def test_rotor_checked_rejects_odd_part():
    with pytest.raises(ValueError, match="odd"):
        Rotor.checked(Multivector.basis(SIG30, 0b001))


def test_rotor_checked_rejects_non_unit():
    with pytest.raises(ValueError, match="deviates"):
        Rotor.checked(Multivector.scalar(SIG30, 2.0))


def test_rotor_checks_fail_when_the_size_overflows():
    # 1e160^2 overflows, so the bound tol * sum of squares is inf; an inf
    # residual must not pass it
    value = Multivector.scalar(SIG20, 1e160)
    with pytest.warns(RuntimeWarning), pytest.raises(ValueError, match="deviates"):
        Rotor.checked(value)
    with pytest.warns(RuntimeWarning), pytest.raises(ValueError, match="is not 1"):
        forward_map(value)


def test_rotor_inverse_is_reversion():
    rotor = rotation_rotor(0.8)
    product = geometric_product(rotor.value, rotor.value.reverse())
    assert product.isclose(Multivector.scalar(SIG20), 1e-14)


def test_canonicalized_fixes_sign():
    base = exp_bivector(Multivector.basis(SIG20, 0b11, 1.2))
    assert Rotor(-base).canonicalized().value.isclose(base, 0.0)
    assert Rotor(base).canonicalized().value.isclose(base, 0.0)


def test_canonicalized_tie_breaks_on_lowest_mask():
    r = 1.0 / math.sqrt(2.0)
    tied = Multivector.from_terms(SIG20, {0: -r, 0b11: r})
    out = Rotor(tied).canonicalized()
    assert out.value.coefficient(0) == r
    assert out.value.coefficient(0b11) == -r


PROBE_CASES = [(sig, "general") for sig in ALL_SIGNATURES if sig.n <= 5] + [(Signature(8, 4), "general")] + [
    (Signature(p, 3 - p), "n3") for p in range(4)
]


@pytest.mark.parametrize("sig, method", PROBE_CASES, ids=[f"{s.p},{s.q}-{m}" for s, m in PROBE_CASES])
def test_rotor_carries_the_probe_that_made_it(sig, method):
    for seed in range(3 if sig.n <= 5 else 1):
        matrix = sample_matrix(sig, seed)
        rotor = matrix_to_rotor(matrix, sig, method)
        assert rotor.probe == select_candidate(matrix, sig).F
        assert (-rotor).probe == rotor.probe == (-rotor).canonicalized().probe


def test_probe_names_the_blade_of_a_half_turn():
    # S = e12 has s_F = 0 for every probe but e12
    assert matrix_to_rotor(np.diag([-1.0, -1.0, 1.0]), SIG30).probe == 0b11
    assert matrix_to_rotor(np.diag([-1.0, -1.0, 1.0]), SIG30, "n3").probe == 0b11


def test_rotors_compare_by_value():
    # equality and hash follow the coefficients; the probe and the kept
    # matrix of Rotor.checked are left out
    matrix = sample_matrix(SIG21, 5)
    rotor = matrix_to_rotor(matrix, SIG21)
    again = matrix_to_rotor(matrix.tolist(), SIG21)
    assert rotor is not again and rotor == again and hash(rotor) == hash(again)
    assert rotor != -rotor and -rotor == -again
    assert rotor.probe is not None and Rotor(rotor.value) == rotor
    assert Rotor.checked(rotor.value) == rotor and hash(Rotor.checked(rotor.value)) == hash(rotor)
    assert matrix_to_rotor(sample_matrix(SIG21, 6), SIG21) != rotor


def test_rotors_not_recovered_from_a_matrix_have_no_probe():
    value = exp_bivector(Multivector.basis(SIG30, 0b11, 0.4))
    assert Rotor.checked(value).probe is None
    assert Rotor(value).canonicalized().probe is None
    assert (-Rotor.checked(value)).probe is None


def test_rotor_checked_takes_a_rotor():
    # it read value.odd_part_max and raised AttributeError on a Rotor
    matrix = sample_matrix(SIG21, 5)
    rotor = matrix_to_rotor(matrix, SIG21)
    checked = Rotor.checked(rotor)
    assert checked == Rotor.checked(rotor.value) and checked.value is rotor.value
    assert checked.probe is None
    assert np.array_equal(forward_map(checked), forward_map(rotor.value))
    with pytest.raises(ValueError, match="is not 1"):
        Rotor.checked(Rotor(Multivector.scalar(SIG30, 2.0)))


def test_probe_does_not_enter_equality():
    value = Multivector.scalar(SIG30)
    assert Rotor(value, 0) == Rotor(value) == Rotor(value, 0b11)


# -- forward map ---------------------------------------------------------------

def test_forward_map_identity():
    assert np.array_equal(forward_map(Rotor(Multivector.scalar(SIG30))), np.eye(3))


def test_forward_map_plane_rotation_columns():
    # S = cos(t/2) - sin(t/2) e12 sends e1 to cos(t) e1 + sin(t) e2,
    # so column 1 of the matrix is (cos t, sin t)
    angle = 0.7
    got = forward_map(rotation_rotor(angle))
    assert np.max(np.abs(got - rotation_matrix(angle))) <= 1e-14


def test_forward_map_boost():
    sig = Signature(1, 1)
    rapidity = 0.9
    rotor = Rotor(exp_bivector(Multivector.basis(sig, 0b11, -rapidity / 2.0)))
    got = forward_map(rotor)
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    assert np.max(np.abs(got - np.array([[ch, sh], [sh, ch]]))) <= 1e-12


def test_forward_map_lands_in_group():
    rng = np.random.default_rng(31)
    for sig in (SIG20, SIG30, SIG21, Signature(2, 2), Signature(4, 1)):
        matrix = forward_map(random_rotor(sig, rng))
        assert check_membership(matrix, sig).ok


def test_forward_map_rejects_bad_input():
    with pytest.raises(ValueError, match="norm"):
        forward_map(Multivector.scalar(SIG20, 3.0))
    # unit squared norm but mixed grades: conjugation leaves grade 1
    mixed = Multivector.from_terms(SIG30, {0b001: 1.0, 0b110: 1.0, 0: 1.0})
    with pytest.raises(ValueError):
        forward_map(mixed)


def test_forward_map_rejects_unit_rotor_that_mixes_grades():
    # In Cl(6,0) the pseudoscalar I anticommutes with every vector and
    # I^2 = -1, so S = cos t + sin t I has reverse(S) S = 1 exactly, yet
    # S e_a reverse(S) = cos 2t e_a - sin 2t e_a I is not a vector.
    sig = Signature(6, 0)
    value = Multivector.from_terms(sig, {0: math.cos(0.3), sig.dim - 1: math.sin(0.3)})
    assert Rotor(value).unit_residual() == 0.0
    with pytest.raises(ValueError, match="does not preserve grade 1"):
        forward_map(value)
    with pytest.raises(ValueError, match="does not preserve grade 1"):
        Rotor.checked(value)


def test_forward_map_rejects_unit_scalar_norm_that_is_not_a_rotor():
    # S = (1 + e1234)/sqrt(2) has scalar part of reverse(S) S equal to 1,
    # but S reverse(S) = 1 + e1234 and every S e_a reverse(S) is 0.
    sig = Signature(4, 0)
    value = Multivector.from_terms(sig, {0: 1.0, 0b1111: 1.0}) / math.sqrt(2.0)
    assert abs(squared_norm(value) - 1.0) <= 1e-15
    assert abs(Rotor(value).unit_residual() - 1.0) <= 1e-15
    with pytest.raises(ValueError, match="norm"):
        forward_map(value)
    with pytest.raises(ValueError, match="is not 1"):
        Rotor.checked(value)


def plane_chain_rotor(sig: Signature) -> Multivector:
    # The product of exp(t_a e_a e_{a+1}) over a = 1..n-1 covers every even
    # mask, so it is a dense rotor; planes with one negative generator boost.
    value = Multivector.scalar(sig)
    for a in range(sig.n - 1):
        plane = Multivector.basis(sig, 0b11 << a, 0.3 + 0.05 * a)
        value = geometric_product(value, exp_bivector(plane))
    return value


def direct_unit_residual(left: Multivector, right: Multivector) -> float:
    gram = geometric_product(left, right)
    return (gram - Multivector.scalar(left.sig)).max_abs()


SIGS_UP_TO_6 = [Signature(p, n - p) for n in range(1, 7) for p in range(n + 1)]
EPS = np.finfo(float).eps


@pytest.mark.parametrize("sig", SIGS_UP_TO_6 + [Signature(8, 4), Signature(4, 8)], ids=lambda s: f"{s.p}_{s.q}")
def test_unit_residual_matches_the_direct_product(sig):
    # unit_residual is max |S reverse(S) - 1|. On a unit rotor it agrees
    # with max |reverse(S) S - 1|, and off the group, after an even
    # perturbation, with S reverse(S) from the test's own products.
    rng = np.random.default_rng(60 + 13 * sig.p + sig.q)
    value = plane_chain_rotor(sig) if sig.n > 6 else random_rotor(sig, rng).value
    fused = Rotor(value).unit_residual()
    assert abs(fused - direct_unit_residual(value.reverse(), value)) <= 8 * EPS * covering._size(value)
    even = clifford_core._layout(sig.n).grades % 2 == 0
    for shift in (1e-9, 1e-3):
        off = value + Multivector(sig, np.where(even, shift * rng.uniform(-1.0, 1.0, sig.dim), 0.0))
        fused = Rotor(off).unit_residual()
        assert abs(fused - direct_unit_residual(off, off.reverse())) <= 8 * EPS * covering._size(off)


SIGS_UP_TO_4 = [Signature(p, n - p) for n in range(1, 5) for p in range(n + 1)]


@pytest.mark.parametrize("sig", SIGS_UP_TO_4, ids=lambda s: f"{s.p}_{s.q}")
def test_conjugated_generators_match_naive_products(sig):
    rng = np.random.default_rng(40 + 5 * sig.p + sig.q)
    odd = clifford_core._layout(sig.n).grades % 2 == 1
    parts = {"even": ~odd, "odd": odd, "mixed": np.ones(sig.dim, dtype=bool)}
    # The value is even, as the rotor rule and verify_covering require.
    for right_part in parts.values():
        value = np.where(parts["even"], rng.uniform(-1.0, 1.0, sig.dim), 0.0)
        right = np.where(right_part, rng.uniform(-1.0, 1.0, sig.dim), 0.0)
        got = covering._conjugated_generators(Multivector(sig, value), Multivector(sig, right))
        assert got.shape == (sig.n, sig.dim)
        for a in range(sig.n):
            ref = naive_product(
                naive_product(coeffs_to_dict(value), {(a + 1,): 1.0}, sig.p, sig.q),
                coeffs_to_dict(right),
                sig.p,
                sig.q,
            )
            assert np.max(np.abs(got[a] - dict_to_coeffs(ref, sig.n))) <= 1e-14


def test_conjugated_generators_of_zero_is_zero():
    sig = Signature(2, 1)
    zero = Multivector.zero(sig)
    assert not covering._conjugated_generators(zero, Multivector.scalar(sig)).any()
    assert not covering._conjugated_generators(Multivector.scalar(sig), zero).any()


def count_products(monkeypatch) -> list:
    """Record the signature of every pair-sum pass: a geometric product, or n conjugation products at once."""
    products = []
    pair_sums = clifford_core._pair_sums

    def counting_pass(sig, left, right):
        products.append(sig)
        return pair_sums(sig, left, right)

    for module in (clifford_core, covering):
        monkeypatch.setattr(module, "_pair_sums", counting_pass)
    return products


def test_forward_direction_makes_no_geometric_product(monkeypatch):
    # Rotor.checked and forward_map read P and its residual bounds from
    # signed permutations of a valid rotor.
    rng = np.random.default_rng(41)
    values = [random_rotor(sig, rng).value for sig in (SIG30, SIG21, Signature(3, 3), Signature(2, 5))]
    products = count_products(monkeypatch)
    for value in values:
        rotor = Rotor.checked(value)
        forward_map(rotor)
        forward_map(value)
        assert products == []


def test_cli_matrix_from_rotor_makes_no_geometric_product(monkeypatch, capsys):
    rotor = random_rotor(Signature(3, 2), np.random.default_rng(42))
    terms = {clifford_core.blade_name(m): float(c) for m, c in enumerate(rotor.coeffs) if c != 0.0}
    payload = json.dumps({"p": 3, "q": 2, "rotor": terms})
    products = count_products(monkeypatch)
    assert cli.main(["matrix-from-rotor", payload]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["membership"]["ok"] is True
    assert products == []


def test_forward_op_evaluates_the_closed_form_once(monkeypatch, capsys):
    # Rotor.checked keeps the closed form for forward_map, which judges it
    # against its own tolerance; a caller's edit to the returned matrix
    # does not reach the next call
    calls = []
    original = covering._closed_form

    def counting(*args):
        calls.append(len(args))
        return original(*args)

    monkeypatch.setattr(covering, "_closed_form", counting)
    value = random_rotor(Signature(3, 2), np.random.default_rng(43)).value
    rotor = Rotor.checked(value)
    matrix = forward_map(rotor)
    assert calls == [1]
    assert np.array_equal(matrix, original(value)[0])
    matrix[0, 0] += 1.0
    assert np.array_equal(forward_map(rotor), original(value)[0])
    with pytest.raises(ValueError, match="is not 1"):
        forward_map(Rotor.checked(value, tol=1e-3), tol=0.0)
    terms = {clifford_core.blade_name(m): float(c) for m, c in enumerate(value.coeffs) if c != 0.0}
    calls.clear()
    assert cli.main(["matrix-from-rotor", json.dumps({"p": 3, "q": 2, "rotor": terms})]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["membership"]["ok"] is True
    assert calls == [1]


def test_checked_matrix_stays_with_its_value():
    # The kept matrix is set only by Rotor.checked and carried by negation:
    # a copy with another value is judged afresh, and no caller can plant
    # a matrix.
    sig = Signature(2, 0)
    a = Multivector.from_terms(sig, {0: 0.8, 0b11: -0.6})
    b = Multivector.from_terms(sig, {0: 0.6, 0b11: 0.8})
    copied = dataclasses.replace(Rotor.checked(a), value=b)
    assert np.array_equal(forward_map(copied), forward_map(b))
    assert not np.allclose(forward_map(copied), forward_map(a))
    with pytest.raises(TypeError, match="_closed"):
        Rotor(b, _closed=(np.eye(2), 1e-9))


def test_negation_keeps_the_checked_matrix(monkeypatch):
    # -S has the matrix of S bit for bit, so neither the negation nor
    # canonicalized evaluates the closed form again.
    sig = Signature(3, 2)
    value = random_rotor(sig, np.random.default_rng(45)).value
    rotor = Rotor.checked(value)
    expected = covering._closed_form(value)[0]
    assert np.array_equal(covering._closed_form(-value)[0], expected)
    calls = []
    original = covering._closed_form
    monkeypatch.setattr(covering, "_closed_form", lambda v: calls.append(v) or original(v))
    negated = -rotor
    for turned in (negated, negated.canonicalized(), rotor.canonicalized(), -negated):
        assert np.array_equal(forward_map(turned), expected)
    assert calls == []
    assert negated.value == -value and negated.canonicalized().value in (value, -value)
    # the negation keeps the tolerance too: a stricter one judges afresh
    loose = Rotor.checked(value + Multivector.scalar(sig, 1e-3), tol=1e-2)
    with pytest.raises(ValueError, match="is not 1"):
        forward_map(-loose, tol=1e-9)
    assert len(calls) == 2


@pytest.mark.parametrize("sig", [Signature(1, 1), Signature(3, 1)], ids=["1_1", "3_1"])
def test_forward_op_on_a_large_boost_runs_one_product(monkeypatch, sig):
    # A rapidity-10 boost misses the closed-form bound, so Rotor.checked runs
    # S reverse(S) once and re-bases the one closed form's bound on it, which
    # forward_map accepts with no product of its own; at tol 0 it judges
    # anew and fails.
    boost = exp_bivector(Multivector.basis(sig, 1 | (1 << (sig.n - 1)), 5.0))
    products = count_products(monkeypatch)
    closed = []
    original = covering._closed_form
    monkeypatch.setattr(covering, "_closed_form", lambda value: closed.append(value) or original(value))
    rotor = Rotor.checked(boost)
    matrix = forward_map(rotor)
    assert products == [sig]
    assert len(closed) == 1
    assert np.array_equal(matrix, gathered_closed_form(boost.coeffs, sig.p, sig.q)[0])
    with pytest.raises(ValueError, match="is not 1"):
        forward_map(rotor, tol=0.0)


def test_forward_op_runs_the_image_products_once(monkeypatch):
    # 2e-10 in the scalar fails the closed-form bound and its re-based form
    # but passes S reverse(S) and the images; Rotor.checked runs those
    # 1 + n products, the n images in one pass, and forward_map takes its matrix.
    sig = Signature(3, 1)
    value = sample_rotor(sig, 0).value + Multivector.scalar(sig, 2e-10)
    products = count_products(monkeypatch)
    forward_map(Rotor.checked(value))
    assert products == [sig] * 2


def test_forward_map_reuses_a_rotor_checked_at_a_tolerance_no_larger(monkeypatch):
    # Passing the rule at tol means passing it at every larger tol.
    calls = []
    original = covering._closed_form

    def counting(*args):
        calls.append(len(args))
        return original(*args)

    value = random_rotor(Signature(3, 2), np.random.default_rng(44)).value + Multivector.scalar(Signature(3, 2), 1e-11)
    rotor = Rotor.checked(value, 1e-9)
    monkeypatch.setattr(covering, "_closed_form", counting)
    assert np.array_equal(forward_map(rotor, 1e-6), original(value)[0])
    assert calls == []
    with pytest.raises(ValueError, match="is not 1"):
        forward_map(rotor, 1e-12)
    assert calls


def todays_rule(value: Multivector, tol: float) -> str | None:
    """Verdict of the all-components rule by geometric products: None to
    accept, else the prefix of the rejection message."""
    if value.odd_part_max() != 0.0:
        return "rotor has odd-grade coefficients"
    bound = tol * max(1.0, float(np.dot(value.coeffs, value.coeffs)))
    gram = geometric_product(value, value.reverse()).coeffs.copy()
    gram[0] -= 1.0
    if not np.max(np.abs(gram)) <= bound < math.inf:
        return "rotor norm S*reverse(S) is not 1"
    vectors = 1 << np.arange(value.sig.n)
    for a in vectors:
        image = geometric_product(value * Multivector.basis(value.sig, a), value.reverse()).coeffs.copy()
        image[vectors] = 0.0
        if not np.max(np.abs(image)) <= bound:
            return "conjugation does not preserve grade 1"
    return None


def assert_verdicts_match(value: Multivector, tol: float = matrix_group.DEFAULT_TOLERANCE) -> None:
    # One rule judges both calls.
    expected = todays_rule(value, tol)
    for call in (Rotor.checked, forward_map):
        try:
            call(value, tol)
        except ValueError as exc:
            assert expected is not None and str(exc).startswith(expected), (str(exc), expected)
        else:
            assert expected is None, expected


PERTURBATION_SIZES = [0.0, 1e-12, 1e-10, 1e-9, 1e-8, 1e-6, 1e-3]


def perturbations(value: Multivector, rng: np.random.Generator):
    # even, odd, mixed-parity and pseudoscalar perturbations of each size
    sig = value.sig
    grades = clifford_core._layout(sig.n).grades
    parts = (grades % 2 == 0, grades % 2 == 1, grades >= 0, np.arange(sig.dim) == sig.dim - 1)
    for part in parts:
        for size in PERTURBATION_SIZES:
            yield value + Multivector(sig, np.where(part, size * rng.uniform(-1.0, 1.0, sig.dim), 0.0))


@pytest.mark.parametrize("sig", SIGS_UP_TO_6, ids=lambda s: f"{s.p}_{s.q}")
def test_closed_form_verdicts_match_the_product_rule(sig):
    # The closed-form bounds only ever accept what the product rule accepts,
    # and everything else is decided by that rule itself.
    rng = np.random.default_rng(70 + 11 * sig.p + sig.q)
    for rotor in (random_rotor(sig, rng), random_rotor(sig, rng, scale=1.5)):
        for value in perturbations(rotor.value, rng):
            assert_verdicts_match(value)


@pytest.mark.parametrize("sig", [Signature(1, 1), SIG21, Signature(3, 1), Signature(1, 3)],
                         ids=lambda s: f"{s.p}_{s.q}")
def test_closed_form_verdicts_match_the_product_rule_on_boosts(sig):
    rng = np.random.default_rng(80 + sig.p)
    for rapidity in np.linspace(-12.0, 12.0, 9):
        boost = exp_bivector(Multivector.basis(sig, 1 | (1 << (sig.n - 1)), rapidity / 2.0))
        for value in perturbations(boost, rng):
            assert_verdicts_match(value)


@pytest.mark.parametrize("size", [1e-9, 1e-7, 1e-6, 1e-5])
def test_checked_rejects_what_the_relation_alone_misses(size):
    # S (1 + d e1234) for a rapidity-12 boost S in Cl(4,1): S e_a = v_a S
    # holds to ~2d, yet S reverse(S) - 1 ~ 800 d, so the relation within a
    # quarter of the bound would accept d = 1e-6 and 1e-5.
    sig = Signature(4, 1)
    boost = exp_bivector(Multivector.basis(sig, 0b10001, 6.0))
    turned = geometric_product(boost, Multivector.basis(sig, 0b1111))
    value = boost + turned * (size / turned.max_abs())
    assert_verdicts_match(value)
    assert (todays_rule(value, 1e-9) is None) == (size < 1e-6)


def test_both_calls_refuse_odd_grade_input():
    # (1 + e12345)/sqrt(2) in Cl(5,0) is central, so S e_a = e_a S, and
    # (1 + e123)/sqrt(2) in Cl(3,0) also has S reverse(S) = 1; e1 maps e1
    # to e1 and e2 to -e2. None is even, so none is a rotor.
    r = 1.0 / math.sqrt(2.0)
    values = [
        Multivector.from_terms(Signature(5, 0), {0: r, 0b11111: r}),
        Multivector.from_terms(SIG30, {0: r, 0b111: r}),
    ] + [Multivector.basis(sig, 1) for sig in (SIG20, Signature(1, 1), SIG30, Signature(2, 2))]
    for value in values:
        for call in (Rotor.checked, forward_map):
            with pytest.raises(ValueError, match="rotor has odd-grade coefficients"):
                call(value)


def traced_peak_mb(call) -> float:
    call()  # warm the per-signature caches
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def test_forward_op_at_n12_bounds_its_temporaries():
    # the three (n, 2^(n-1)) odd-column temporaries of the closed form live
    # in the thread's working buffers once warm
    value = plane_chain_rotor(Signature(8, 4))
    assert traced_peak_mb(lambda: forward_map(Rotor.checked(value))) < 0.3


def test_forward_op_at_n11_bounds_its_temporaries():
    # below the buffer window: numpy allocates the three odd-column
    # temporaries of 11 x 1024 elements (88 KiB each) on every call
    value = plane_chain_rotor(Signature(8, 3))
    assert traced_peak_mb(lambda: forward_map(Rotor.checked(value))) < 0.4


def test_recovery_at_n10_bounds_its_temporaries():
    # the Cayley path builds no minor table: its largest temporaries are the
    # closed form's three (10, 512) odd-column arrays of the rotor rule,
    # below the working buffers; the peak is 0.19 MB, held to 0.25
    sig = Signature(7, 3)
    matrix = sample_matrix(sig, 5)
    assert traced_peak_mb(lambda: matrix_to_rotor(matrix, sig)) < 0.25


def test_recovery_at_n9_bounds_its_temporaries():
    # as at n = 10, with (9, 256) arrays; the peak is 0.09 MB, held to 0.12
    sig = Signature(6, 3)
    matrix = sample_matrix(sig, 5)
    assert traced_peak_mb(lambda: matrix_to_rotor(matrix, sig)) < 0.12


def test_working_buffers_are_per_thread_and_never_returned():
    # Four threads converting at once beside a selfcheck get the bytes of
    # serial runs, and no rotor, matrix or minor table changes under a
    # later conversion of another input.
    recover_sig, forward_sig = Signature(7, 3), Signature(8, 4)
    matrices = [sample_matrix(recover_sig, seed) for seed in (1, 2)]
    values = [sample_rotor(forward_sig, seed).value for seed in (1, 2)]

    def work(flip):
        # four rounds of (7,3) recoveries and (8,4) forward ops in turn, the
        # forward op first when flip; the set of outputs of each input
        outputs = {}
        for _ in range(4):
            for i, (matrix, value) in enumerate(zip(matrices, values)):
                ops = [("rotor", i, lambda: matrix_to_rotor(matrix, recover_sig).coeffs),
                       ("matrix", i, lambda: forward_map(Rotor.checked(value)))]
                for kind, index, op in ops[::-1] if flip else ops:
                    outputs.setdefault((kind, index), set()).add(op().tobytes())
        return outputs

    serial, report = work(False), run_selfcheck(recover_sig, 2, 1)
    calls = {f"work{i}": lambda flip=i % 2: work(flip) for i in range(4)}
    calls["selfcheck"] = lambda: run_selfcheck(recover_sig, 2, 1)
    results = {}
    barrier = threading.Barrier(len(calls))

    def run(name):
        barrier.wait()
        results[name] = calls[name]()

    threads = [threading.Thread(target=run, args=(name,)) for name in calls]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {**dict.fromkeys(calls, serial), "selfcheck": report}

    rotor = matrix_to_rotor(matrices[0], recover_sig)
    matrix = forward_map(Rotor.checked(values[0]))
    tables = covering._minor_tables(matrices[0], recover_sig.n)
    kept = [rotor.coeffs.tobytes(), matrix.tobytes()] + [dets.tobytes() for _, dets in tables]
    matrix_to_rotor(matrices[1], recover_sig)
    forward_map(Rotor.checked(values[1]))
    covering._minor_tables(matrices[1], recover_sig.n)
    assert [rotor.coeffs.tobytes(), matrix.tobytes()] + [dets.tobytes() for _, dets in tables] == kept


def test_working_buffers_are_made_once_per_thread_at_n12():
    # The closed form's three (n, 2^(n-1)) temporaries reach _MAPPED bytes
    # at n = 12 alone: every smaller shape gets None, so numpy allocates,
    # and (12, 2048) gets the same three float64 arrays on every call in
    # one thread and three others in another.
    for n in range(1, 12):
        assert covering._temporaries((n, 1 << (n - 1))) == (None, None, None)
    arrays = covering._temporaries((12, 2048))
    assert all(a.shape == (12, 2048) and a.dtype == np.float64 for a in arrays)
    assert all(a is b for a, b in zip(covering._temporaries((12, 2048)), arrays))
    other = []
    thread = threading.Thread(target=lambda: other.extend(covering._temporaries((12, 2048))))
    thread.start()
    thread.join()
    held = list(arrays) + other
    assert len(held) == 6
    assert not any(np.shares_memory(a, b) for i, a in enumerate(held) for b in held[i + 1 :])


def test_rejecting_a_dense_n12_non_rotor_bounds_its_temporaries():
    value = plane_chain_rotor(Signature(8, 4)) + Multivector.scalar(Signature(8, 4), 1e-3)

    def reject():
        with pytest.raises(ValueError, match="is not 1"):
            forward_map(value)

    assert traced_peak_mb(reject) < 8.0


SIGN_CACHE_SIGNATURES = ALL_SIGNATURES + [Signature(8, 4), Signature(4, 8)]


@pytest.mark.parametrize("sig", SIGN_CACHE_SIGNATURES, ids=lambda s: f"{s.p},{s.q}")
def test_sign_caches_are_fresh_blade_signs_and_read_only(sig):
    bits = (1 << np.arange(sig.n))[:, None]
    odd = np.array([m for m in range(sig.dim) if m.bit_count() % 2])
    partner = odd ^ bits
    layout, algebra = clifford_core._layout(sig.n), clifford_core._algebra(sig.p, sig.q)
    columns, partners, evens = layout.odd, layout.partners, layout.probes
    right, left, norm = algebra.right_signs, algebra.left_signs, algebra.odd_norm_signs
    assert np.array_equal(right, clifford_core.blade_signs(sig, partner, bits))
    assert np.array_equal(left, clifford_core.blade_signs(sig, bits, partner))
    # reverse(e_C) e_C = +-1: one factor -1 per generator of C that squares to -1
    assert np.array_equal(norm, [(-1) ** (int(c) & sig.negative_mask).bit_count() for c in odd])
    grids = []
    for k in range(sig.n // 2 + 1):
        masks = grade_masks(sig.n, k)
        for rows in {masks.size, math.comb(sig.n - 1, k)}:
            b = masks[-rows:, None]
            expected = clifford_core.blade_signs(sig, b, masks) * clifford_core.blade_signs(sig, masks, masks)
            grids.append(covering._pair_signs(sig.p, sig.q, k, rows))
            assert np.array_equal(grids[-1], expected)
    for table in (right, left, norm, *grids):
        assert table.dtype == np.int8 and not table.flags.writeable
    assert np.array_equal(columns, odd) and np.array_equal(partners, partner)
    assert np.array_equal(evens, even_blades(sig.n))
    for table in (columns, partners, evens):
        assert table.dtype == np.intp and not table.flags.writeable
    # one partner index per n, shared by every signature; at n = 12 all the
    # tables take 242 KiB, where the full-width ones took 480 KiB per signature
    assert clifford_core._layout(sig.n).partners is partners
    if sig.n == 12:
        assert partners.nbytes + right.nbytes + left.nbytes + norm.nbytes == 247_808
    if sig.n == 3:
        _, masks, signs = division_algebras._bridge(sig)
        assert not masks.flags.writeable and not signs.flags.writeable


@pytest.mark.parametrize("sig", ALL_SIGNATURES, ids=lambda s: f"{s.p},{s.q}")
def test_pair_signs_factor_through_the_probe(sig):
    # sign(e_{B^F} e_A) = sign(e_B e_A) sign(e_F e_A): the sign keys are
    # linear over GF(2), which lets _assemble_general cache F-free grids.
    every = np.arange(sig.dim)
    pairs = clifford_core.blade_signs(sig, every[:, None], every)
    for F in even_blades(sig.n):
        with_F = clifford_core.blade_signs(sig, (every ^ F)[:, None], every)
        assert np.array_equal(with_F, pairs * clifford_core.blade_signs(sig, F, every))


# At odd n = 1 mod 4, as at (3, 2), the grade-n coefficient of S reverse(S)
# is not zero on a value with odd parts; the unit bound leaves it out.
PINNED_SIGNATURES = [Signature(*pq) for pq in ((3, 0), (2, 1), (3, 2), (4, 2), (6, 4), (8, 3), (8, 4))]


@pytest.mark.parametrize("sig", PINNED_SIGNATURES, ids=lambda s: f"{s.p},{s.q}")
def test_closed_form_is_bit_for_bit_the_gathered_reference(sig):
    rng = np.random.default_rng(700 + 16 * sig.p + sig.q)
    rotors = [random_rotor(sig, rng).value, plane_chain_rotor(sig), _boost(sig, 3.0, rng).value]
    values = rotors + [rotors[0] + Multivector.scalar(sig, 1e-3), Multivector(sig, rng.normal(size=sig.dim))]
    for value in values:
        got = [np.asarray(piece).tobytes() for piece in covering._closed_form(value)]
        assert got == [np.asarray(piece).tobytes() for piece in gathered_closed_form(value.coeffs, sig.p, sig.q)]


#: One signature for each n = 5..12, q > 0 throughout.
WIDE_SIGNATURES = [Signature(*pq) for pq in ((3, 2), (4, 2), (5, 2), (5, 3), (6, 3), (7, 3), (8, 3), (4, 8))]


@pytest.mark.parametrize("sig", WIDE_SIGNATURES, ids=lambda s: f"{s.p},{s.q}")
def test_odd_column_matrix_is_the_full_width_product_up_to_summation_order(sig):
    # P[b, a] = eta_b sum over C of l_b[C] r_a[C], with l_b = e_b S and r_a
    # = S e_a up to signs. For an even S both vanish on every even C, so the
    # odd-column sum and the full-width sum of the parent arithmetic hold
    # the same nonzero terms, in another order. Any order of a sum of m
    # products is within gamma_m sum |l_b[C] r_a[C]| of the exact value
    # (Higham, Accuracy and Stability of Numerical Algorithms, 3.1), gamma_m
    # = m u / (1 - m u), u = eps / 2, also with fused multiply-adds; zero
    # terms add no error, so m = 2^n covers both sums. The terms are
    # |S_{C ^ e_b}| |S_{C ^ e_a}|, and by Cauchy-Schwarz they sum to at most
    # sum over B of S_B^2. So the two computed matrices differ by at most
    # 2 gamma_{2^n} sum S_B^2 in every entry.
    rng = np.random.default_rng(900 + 16 * sig.p + sig.q)
    m = float(sig.dim) * EPS / 2.0
    gamma = m / (1.0 - m)
    values = [random_rotor(sig, rng).value, plane_chain_rotor(sig), _boost(sig, 3.0, rng).value]
    for value in values:
        full = gathered_closed_form(value.coeffs, sig.p, sig.q, np.arange(sig.dim))[0]
        gap = np.max(np.abs(covering._closed_form(value)[0] - full))
        assert gap <= 2.0 * gamma * float(np.dot(value.coeffs, value.coeffs))


def test_sign_table_is_gone():
    assert not hasattr(clifford_core, "sign_table")
    assert not hasattr(clifford_core, "_sign_table")


# -- candidates ----------------------------------------------------------------

def test_candidate_general_identity_scalar_probe():
    for sig in (SIG20, SIG30, SIG21, Signature(2, 2)):
        cand = select_candidate(np.eye(sig.n), sig)
        expected = Multivector.scalar(sig, float(sig.dim))
        assert cand.M.isclose(expected, 0.0)
        assert cand.normsq == float(sig.dim) ** 2
        assert cand.blade == "1"


def test_candidate_general_rotation_closed_forms():
    angle = 1.1
    matrix = rotation_matrix(angle)
    c, s = math.cos(angle), math.sin(angle)
    scalar_probe = select_candidate(matrix, SIG20)
    assert scalar_probe.F == 0
    expected0 = Multivector.from_terms(SIG20, {0: 2.0 * (1.0 + c), 0b11: -2.0 * s})
    assert (scalar_probe.M - expected0).max_abs() <= 1e-14
    assert abs(scalar_probe.normsq - 8.0 * (1.0 + c)) <= 1e-13
    plane_probe = candidate(matrix, SIG20, 0b11)
    expected12 = Multivector.from_terms(SIG20, {0: -2.0 * s, 0b11: 2.0 * (1.0 - c)})
    assert (plane_probe - expected12).max_abs() <= 1e-14


def test_candidates_are_even_exactly():
    rng = np.random.default_rng(5)
    for sig in (SIG30, SIG21, Signature(2, 2)):
        matrix = forward_map(random_rotor(sig, rng))
        for F in even_blades(sig.n):
            assert candidate(matrix, sig, F).odd_part_max() == 0.0


def test_candidate_reverse_norm_is_scalar():
    rng = np.random.default_rng(6)
    for sig in (SIG30, SIG21):
        matrix = forward_map(random_rotor(sig, rng))
        for F in even_blades(sig.n):
            cand = candidate(matrix, sig, F)
            gram = cand.reverse() * cand
            normsq = squared_norm(cand)
            assert abs(gram.scalar_part() - normsq) <= 1e-9 * max(1.0, abs(normsq))
            scale = max(1.0, cand.max_abs() ** 2)
            assert (gram - gram.grade_projection(0)).max_abs() <= 1e-9 * scale


def test_candidate_n3_requires_three_generators():
    with pytest.raises(ValueError, match="needs n = 3"):
        candidate_n3(np.eye(2), SIG20, 0)


@pytest.mark.parametrize("F", [-3, 9, 8, 3.0, True, None], ids=repr)
def test_candidate_n3_validates_its_probe_mask(F):
    # -3 wrapped to the e13 candidate, 9 raised IndexError, 8 was named
    # the odd blade e4 and 3.0 raised AttributeError
    with pytest.raises(ValueError, match="blade mask"):
        candidate_n3(np.eye(3), SIG30, F)


def test_candidate_n3_takes_numpy_probe_masks():
    matrix = sample_matrix(SIG30, 4)
    assert candidate_n3(matrix, SIG30, np.int64(0b101)) == candidate_n3(matrix, SIG30, 0b101)
    with pytest.raises(ValueError, match="probe blade e1 has odd grade"):
        candidate_n3(matrix, SIG30, np.uint8(1))


def test_candidate_n3_half_turn_diagonal():
    matrix = np.diag([1.0, -1.0, -1.0])
    zero_probes = [0, 0b011, 0b101]
    for F in zero_probes:
        assert candidate_n3(matrix, SIG30, F).max_abs() == 0.0
    first_order = candidate_n3(matrix, SIG30, 0b110)
    assert first_order.isclose(Multivector.basis(SIG30, 0b110, 4.0), 0.0)
    assert squared_norm(first_order) == 16.0


def test_candidate_n3_half_turn_family_closed_forms():
    # rotations by pi about the axis (cos(t/2), sin(t/2), 0)
    for angle in np.linspace(0.0, 2.0 * math.pi, 9):
        c, s = math.cos(angle), math.sin(angle)
        matrix = np.array([[c, s, 0.0], [s, -c, 0.0], [0.0, 0.0, -1.0]])
        l_scalar = candidate_n3(matrix, SIG30, 0)
        l_12 = candidate_n3(matrix, SIG30, 0b011)
        l_13 = candidate_n3(matrix, SIG30, 0b101)
        l_23 = candidate_n3(matrix, SIG30, 0b110)
        assert l_scalar.max_abs() <= 1e-14
        assert l_12.max_abs() <= 1e-14
        expected13 = Multivector.from_terms(
            SIG30, {0b101: 2.0 * (1.0 - c), 0b110: -2.0 * s}
        )
        expected23 = Multivector.from_terms(
            SIG30, {0b101: -2.0 * s, 0b110: 2.0 * (1.0 + c)}
        )
        assert (l_13 - expected13).max_abs() <= 1e-12
        assert (l_23 - expected23).max_abs() <= 1e-12


def test_general_candidate_is_twice_n3_candidate():
    rng = np.random.default_rng(12)
    for sig in (SIG30, SIG21, Signature(1, 2)):
        matrix = forward_map(random_rotor(sig, rng))
        for F in even_blades(3):
            full = candidate(matrix, sig, F)
            first_order = candidate_n3(matrix, sig, F)
            # the same sum, so exactly twice
            assert np.array_equal(full.coeffs, 2.0 * first_order.coeffs)
            assert squared_norm(full) == 4.0 * squared_norm(first_order)


def test_candidate_n3_rejects_an_odd_probe():
    with pytest.raises(ValueError, match="e1 has odd grade"):
        candidate_n3(np.eye(3), SIG30, 0b001)


def test_matrix_to_rotor_checks_the_method_after_membership():
    with pytest.raises(ValueError, match="unknown method 'foo'"):
        matrix_to_rotor(np.eye(3), SIG30, "foo")
    with pytest.raises(ValueError, match="method 'n3' needs n = 3, got n = 2"):
        matrix_to_rotor(np.eye(2), SIG20, "n3")
    with pytest.raises(MembershipError):
        matrix_to_rotor(np.diag([1.0, -1.0]), SIG20, "n3")


def test_even_blades_order():
    assert list(even_blades(3)) == [0, 0b011, 0b101, 0b110]
    assert list(even_blades(4))[:5] == [0, 0b0011, 0b0101, 0b0110, 0b1001]
    assert list(even_blades(4))[-1] == 0b1111


def test_select_candidate_examples():
    assert select_candidate(np.eye(3), SIG30).F == 0
    assert select_candidate(np.diag([1.0, -1.0, -1.0]), SIG30).F == 0b110
    half_turn = np.array([[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]])
    assert select_candidate(half_turn, SIG30).F == 0b101


def test_select_candidate_rejects_all_zero():
    # diag(-1,-1) preserves the (1,1) metric but is not orthochronous, so
    # it has no rotor preimage and fails membership
    with pytest.raises(MembershipError):
        select_candidate(np.diag([-1.0, -1.0]), Signature(1, 1))


def test_select_candidate_picks_largest_probe_when_indefinite():
    # unit rotor whose scalar probe passes half the maximum reverse-norm
    # while the e12 probe is strictly larger; the pick is the larger one
    coeffs = {0: 0.8, 0b011: math.sqrt(2.36), 0b101: 1.0, 0b110: 1.0}
    rotor = Rotor.checked(Multivector.from_terms(SIG21, coeffs), tol=1e-12)
    matrix = forward_map(rotor)
    assert select_candidate(matrix, SIG21).F == 0b011
    assert rotor_distance(matrix_to_rotor(matrix, SIG21), rotor) <= 1e-12


def _half_turn(sig: Signature, rng: np.random.Generator) -> Rotor:
    # a half turn in a plane of two same-sign generators, turned by a
    # random rotor so that several probe weights vanish at once
    a, b = (0, 1) if sig.p >= 2 else (sig.n - 2, sig.n - 1)
    turn = random_rotor(sig, rng)
    plane = Multivector.basis(sig, (1 << a) | (1 << b))
    return Rotor(turn.value * plane * turn.value.reverse())


def _boost(sig: Signature, rapidity: float, rng: np.random.Generator) -> Rotor:
    # a boost in the (e1, e_n) plane (e_n squares to -1) after a random rotor
    generator = Multivector.basis(sig, 1 | (1 << (sig.n - 1)), rapidity / 2.0)
    return Rotor(exp_bivector(generator) * random_rotor(sig, rng).value)


def _probe_inputs(sig: Signature, rng: np.random.Generator) -> list[Rotor]:
    rotors = [random_rotor(sig, rng), random_rotor(sig, rng, scale=1.5)]
    if sig.n >= 2 and (sig.p >= 2 or sig.q >= 2):
        rotors.append(_half_turn(sig, rng))
    if sig.p >= 1 and sig.q >= 1:
        rotors += [_boost(sig, 6.0, rng), _boost(sig, -6.0, rng)]
    return rotors


@pytest.mark.parametrize("sig", ALL_SIGNATURES, ids=lambda s: f"{s.p},{s.q}")
def test_closed_form_pick_is_max_reverse_norm_probe(sig):
    rng = np.random.default_rng(100 + 10 * sig.p + sig.q)
    for rotor in _probe_inputs(sig, rng):
        matrix = forward_map(rotor, tol=1e-6)
        scan = {F: squared_norm(candidate(matrix, sig, F)) for F in even_blades(sig.n)}
        # the sampled rotors miss unit norm by up to ~1e-9 themselves
        recovered = matrix_to_rotor(matrix, sig, tol=1e-6)
        assert recovered.probe == max(scan, key=scan.get)
        bound = rotor.unit_residual() + 1e-10 * np.abs(rotor.coeffs).max()
        assert rotor_distance(recovered, rotor) <= bound


@pytest.mark.parametrize("sig", [SIG20, SIG30, SIG21, Signature(1, 2), Signature(2, 2),
                                 Signature(3, 2), Signature(1, 4), Signature(4, 2)],
                         ids=lambda s: f"{s.p},{s.q}")
def test_probe_weights_are_scaled_squared_rotor_coefficients(sig):
    rng = np.random.default_rng(200 + 10 * sig.p + sig.q)
    evens = list(even_blades(sig.n))
    for rotor in _probe_inputs(sig, rng):
        matrix = forward_map(rotor, tol=1e-6)
        expected = float(sig.dim) * rotor.coeffs[evens] ** 2
        weights = probe_weights(matrix, sig)[evens]
        assert np.abs(weights - expected).max() <= 1e-12 * max(1.0, expected.max())


def _integer_turn(n: int, a: int, b: int, quarter: bool) -> np.ndarray:
    # the quarter turn e_a -> e_b or the half turn in the plane (a, b), as
    # an integer matrix
    matrix = np.eye(n, dtype=int)
    if quarter:
        matrix[[a, b], [a, b]], matrix[b, a], matrix[a, b] = 0, 1, -1
    else:
        matrix[[a, b], [a, b]] = -1
    return matrix


def _exact_ties(sig: Signature) -> list[tuple[np.ndarray, int]]:
    # (matrix, the probe of the tie rule) over the planes (a, b) whose two
    # generators square alike: a quarter turn, where w_0 = w_ab; at n = 4 a
    # quarter turn in each of two disjoint planes, where w_0 = w_ab = w_cd =
    # w_abcd; and a quarter turn after a half turn in the disjoint plane
    # (c, d), where w_0 = 0 and w_cd = w_abcd, so e_cd, of lower grade
    planes = [(a, b) for b in range(sig.n) for a in range(b) if (a < sig.p) == (b < sig.p)]
    ties = []
    for a, b in planes:
        turn = _integer_turn(sig.n, a, b, True)
        ties.append((turn, 0))
        for c, d in planes:
            if not {a, b} & {c, d}:
                ties.append((turn @ _integer_turn(sig.n, c, d, False), (1 << c) | (1 << d)))
                if (a, b) < (c, d):
                    ties.append((turn @ _integer_turn(sig.n, c, d, True), 0))
    return ties


TIE_SIGNATURES = [sig for sig in ALL_SIGNATURES if 2 <= sig.n <= 4 and max(sig.p, sig.q) >= 2]


@pytest.mark.parametrize("sig", TIE_SIGNATURES, ids=lambda s: f"{s.p},{s.q}")
def test_exact_probe_ties_go_to_the_first_even_blade(sig, capsys):
    # every path that ranks probes names the first even blade of the largest
    # w_F in (grade, mask) order when the weights tie exactly
    ties = _exact_ties(sig)
    assert ties
    for matrix, probe in ties:
        assert matrix_to_rotor(matrix, sig).probe == probe
        assert select_candidate(matrix, sig).F == probe
        if sig.n == 3:
            doc = json.dumps({"p": sig.p, "q": sig.q, "matrix": matrix.tolist()})
            assert cli.main(["rotor-from-matrix", "--method", "quaternion", doc]) == 0
            assert json.loads(capsys.readouterr().out)["F"] == blade_name(probe)


def test_general_recovery_assembles_one_candidate(monkeypatch):
    assembled = []
    original = covering._assemble_general

    def counting(sig, tables, F):
        assembled.append(F)
        return original(sig, tables, F)

    monkeypatch.setattr(covering, "_assemble_general", counting)
    rng = np.random.default_rng(300)
    for sig in (SIG30, SIG21, Signature(1, 3), Signature(2, 2)):
        for rotor in _probe_inputs(sig, rng):
            assembled.clear()
            matrix_to_rotor(forward_map(rotor, tol=1e-6), sig, tol=1e-6)
            assert len(assembled) == 1


def test_cli_rotor_from_matrix_computes_each_minor_grade_once(monkeypatch, capsys):
    # below the Cayley cut: grades 0..n/2 only, each once; at even n the
    # middle grade expands only its last C(n-1, n/2) row sets, the ones
    # holding e_n
    rows = {}
    original = covering.batched_minors

    def counting(matrix, k, lower, suffix=0):
        masks, dets = original(matrix, k, lower, suffix)
        assert k not in rows
        rows[k] = len(dets)
        return masks, dets

    monkeypatch.setattr(covering, "batched_minors", counting)
    monkeypatch.setattr(matrix_group, "batched_minors", counting)
    for sig in (Signature(2, 1), Signature(2, 2)):
        rows.clear()
        matrix = forward_map(random_rotor(sig, np.random.default_rng(301)))
        doc = json.dumps({"p": sig.p, "q": sig.q, "matrix": matrix.tolist()})
        assert cli.main(["rotor-from-matrix", doc]) == 0
        assert json.loads(capsys.readouterr().out)["residual"] <= 1e-12
        n = sig.n
        expected = {k: math.comb(n, k) for k in range((n + 1) // 2)}
        if n % 2 == 0:
            expected[n // 2] = math.comb(n - 1, n // 2)
        assert rows == expected


HALF_SUM_SIGNATURES = [Signature(p, n - p) for n in range(1, 9) for p in range(n + 1)] + [
    Signature(7, 3), Signature(6, 5), Signature(8, 4)
]


def _exact_half_turn(sig: Signature) -> np.ndarray | None:
    # diag(-1, -1, 1, ...) in a plane of two generators that square alike
    if sig.p >= 2:
        plane = [0, 1]
    elif sig.q >= 2:
        plane = [sig.n - 2, sig.n - 1]
    else:
        return None
    matrix = np.eye(sig.n)
    matrix[plane, plane] = -1.0
    return matrix


def test_full_grade_oracle_signs_match_the_naive_product():
    for p, q in ((2, 1), (1, 3), (2, 2)):
        n = p + q
        for a in range(1 << n):
            for b in range(1 << n):
                sign, _ = naive_blade_product(mask_to_blade(a), mask_to_blade(b), p, q)
                assert vectorized_blade_sign(a, b, n, p) == sign


@pytest.mark.parametrize("sig", HALF_SUM_SIGNATURES, ids=lambda s: f"{s.p},{s.q}")
def test_half_sum_matches_the_full_grade_sum(sig):
    # On SO+(p,q) the half sum over grades <= n/2 is half the sum over
    # every grade, computed independently in tests/oracles.py, and so are
    # its probe weights. Each coefficient is held to 1e-12 of the sum of
    # the magnitudes of its terms plus the product of the row norms of P,
    # which bounds every minor: a minor is only as exact as that bound,
    # so terms that cancel to rounding level differ at that level.
    rng = np.random.default_rng(400 + 16 * sig.p + sig.q)
    matrices = [forward_map(random_rotor(sig, rng), tol=1e-6)]
    if sig.n <= 8:
        half_turn = _exact_half_turn(sig)
        if half_turn is not None:
            matrices += [half_turn, forward_map(_half_turn(sig, rng), tol=1e-6)]
        if sig.p and sig.q:
            matrices.append(forward_map(_boost(sig, 3.0, rng), tol=1e-6))
    evens = np.fromiter(even_blades(sig.n), dtype=np.int64)
    for matrix in matrices:
        hadamard = np.prod(np.linalg.norm(matrix, axis=1))
        tables = full_minor_tables(matrix)
        weights, size = full_grade_weights(tables, sig.n, sig.p)
        got = probe_weights(matrix, sig)
        assert np.all(np.abs(got - weights)[evens] <= 1e-12 * (size + hadamard))
        chosen = matrix_to_rotor(matrix, sig, tol=1e-6).probe
        assert chosen == evens[np.argmax(weights[evens])]
        for F in {0, chosen, int(evens[-1])}:
            full, terms = full_grade_candidate(tables, F, sig.n, sig.p)
            assert np.all(np.abs(candidate(matrix, sig, F).coeffs - full) <= 1e-12 * (terms + hadamard))


def _plane_rotor(sig: Signature, a: int, b: int, angle: float) -> Multivector:
    # exp(angle/2 e_a e_b) in closed form: a rotation when e_a and e_b
    # square alike, a boost of rapidity angle otherwise
    coeffs = np.zeros(sig.dim)
    alike = (a < sig.p) == (b < sig.p)
    coeffs[0] = math.cos(angle / 2.0) if alike else math.cosh(angle / 2.0)
    coeffs[(1 << a) | (1 << b)] = math.sin(angle / 2.0) if alike else math.sinh(angle / 2.0)
    return Multivector(sig, coeffs)


@pytest.mark.parametrize("sig", [Signature(p, n - p) for n in range(2, 9) for p in range(n + 1)]
                         + [Signature(8, 4)], ids=lambda s: f"{s.p},{s.q}")
def test_recovery_error_is_bounded_by_the_condition_number(sig):
    # The accuracy contract: |recovered - S| / max |S| <= eps * kappa(P),
    # with kappa(P) = |P|_F |P^-1|_F = |P|_F^2 on the group, since
    # P^-1 = eta P^T eta. S is a product of a boost of rapidity up to 2 in
    # every timelike plane and two rotations; over n <= 8 and (8,4) the
    # ratio reads at most 0.29 (2.7 before the half sum).
    rng = np.random.default_rng(500 + 16 * sig.p + sig.q)
    eps = np.finfo(np.float64).eps
    for _ in range(4):
        value = Multivector.scalar(sig)
        for a in range(sig.p):
            for b in range(sig.p, sig.n):
                value = value * _plane_rotor(sig, a, b, rng.uniform(-2.0, 2.0))
        for _ in range(2):
            a, b = sorted(rng.choice(sig.n, 2, replace=False))
            value = value * _plane_rotor(sig, int(a), int(b), rng.uniform(-math.pi, math.pi))
        matrix = forward_map(value, tol=1.0)
        recovered = matrix_to_rotor(matrix, sig)
        error = rotor_distance(recovered, Rotor(value)) / np.abs(value.coeffs).max()
        assert error <= eps * np.sum(matrix * matrix)


# -- matrix_to_rotor -----------------------------------------------------------

def test_matrix_to_rotor_validates_the_matrix_once(monkeypatch):
    # require_membership coerces and validates the input; the recovery
    # runs on the array it returns, so neither check_membership nor
    # select_candidate (which validates its own input) runs.
    calls = []

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    coerce = counting("as_square_matrix", matrix_group.as_square_matrix)
    monkeypatch.setattr(matrix_group, "as_square_matrix", coerce)
    monkeypatch.setattr(matrix_group, "check_membership", counting("check_membership", check_membership))
    monkeypatch.setattr(covering, "select_candidate", counting("select_candidate", select_candidate))
    for sig, seed in ((SIG21, 302), (Signature(3, 1), 303)):
        calls.clear()
        matrix = sample_matrix(sig, seed)
        assert forward_map(matrix_to_rotor(matrix.tolist(), sig)) == pytest.approx(matrix, abs=1e-12)
        assert calls == ["as_square_matrix"]


@pytest.mark.parametrize("pq", [(0, 3), (2, 1), (3, 1), (0, 4), (1, 3)])
def test_matrix_to_rotor_takes_det_p_once(monkeypatch, pq):
    # membership takes det P and, for p > 0, the orientation minor; the
    # recovery relies on its |det P - 1| <= 1 instead of a third det, and
    # its probe rule takes one batched det of the 2^(n-1) I + P D_F
    sig = Signature(*pq)
    shapes = []
    det = np.linalg.det

    def counting(a):
        shapes.append(a.shape)
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counting)
    matrix_to_rotor(sample_matrix(sig, 5), sig)
    assert shapes == [(sig.n, sig.n)] + [(sig.p, sig.p)] * (sig.p > 0) + [(sig.dim // 2, sig.n, sig.n)]


REFERENCE_SIGNATURES = ALL_SIGNATURES + [Signature(7, 3)]


@pytest.mark.parametrize("sig", REFERENCE_SIGNATURES, ids=lambda s: f"{s.p},{s.q}")
def test_matrix_to_rotor_is_bit_for_bit_the_reference_pipeline(sig):
    # Below the Cayley cut, bit for bit. From the cut on the recovery is the
    # Cayley path (test_matrix_to_rotor_matches_the_exact_cayley_reference
    # holds it to an exact reference); it names the probe of the minors
    # pipeline, and the two rotors differ by at most 1.6 eps * |P|_F^2 on
    # these inputs, which the forward map leaves off the group by about as
    # much; held to 2.
    for matrix in [sample_matrix(sig, 900 + seed) for seed in range(3)] + [np.eye(sig.n)]:
        for method in ("general", "n3") if sig.n == 3 else ("general",):
            rotor = matrix_to_rotor(matrix, sig, method)
            expected = reference_matrix_to_rotor(matrix, sig, method)
            assert rotor.probe == expected.probe
            if sig.n < covering._CAYLEY_FROM:
                assert rotor.coeffs.tobytes() == expected.coeffs.tobytes()
            else:
                bound = 2.0 * np.finfo(np.float64).eps * np.sum(matrix * matrix)
                assert np.max(np.abs(rotor.coeffs - expected.coeffs)) <= bound


def rational_antisymmetric(n: int, rng: np.random.Generator) -> list[list[Fraction]]:
    # K[a][b] = k / 8 above the diagonal, k uniform in -8..8, and -K[b][a]
    K = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            K[a][b] = Fraction(int(rng.integers(-8, 9)), 8)
            K[b][a] = -K[a][b]
    return K


EXACT_SIGNATURES = ALL_SIGNATURES + [Signature(7, 3), Signature(8, 4), Signature(4, 8)]


@pytest.mark.parametrize("sig", EXACT_SIGNATURES, ids=lambda s: f"{s.p},{s.q}")
def test_matrix_to_rotor_matches_the_exact_cayley_reference(sig):
    # Two draws per signature whose exact P = (I - eta K)^-1 (I + eta K) is
    # orthochronous (tests/oracles.py exact_cayley_pair), P rounded once to
    # float64. The reference rotor, rounded once, covers P: its closed-form
    # matrix misses P by at most 4 eps max(1, max |P|)^2 (1.6 measured).
    # The recovered rotor, by either path, lies within 4 eps max(1, max |P|)
    # of it relative to its largest coefficient (1.4 measured). A draw off
    # the orthochronous component (N < 0) must fail membership on that count.
    rng = np.random.default_rng(1000 + 16 * sig.p + sig.q)
    eps = np.finfo(np.float64).eps
    compared = 0
    while compared < 2:
        exact, terms, N = exact_cayley_pair(rational_antisymmetric(sig.n, rng), sig.p)
        if N == 0:
            continue
        matrix = np.array([[float(x) for x in row] for row in exact])
        assert check_membership(matrix, sig).is_orthochronous == (N > 0)
        if N < 0:
            with pytest.raises(MembershipError, match="orthochronous"):
                matrix_to_rotor(matrix, sig)
            continue
        reference = Multivector.from_terms(sig, terms)
        scale = max(1.0, float(np.abs(matrix).max()))
        assert np.abs(forward_map(reference) - matrix).max() <= 4.0 * eps * scale**2
        error = rotor_distance(matrix_to_rotor(matrix, sig), Rotor(reference)) / np.abs(reference.coeffs).max()
        assert error <= 4.0 * eps * scale
        compared += 1


CAYLEY_HALF_TURNS = [(Signature(5, 0), 0b11), (Signature(6, 0), 0b111111), (Signature(2, 4), 0b1111),
                     (Signature(0, 8), 0b111100), (Signature(8, 4), 0b110000001001)]


@pytest.mark.parametrize("sig, J", CAYLEY_HALF_TURNS, ids=lambda v: f"{v.p},{v.q}" if isinstance(v, Signature) else bin(v))
def test_exact_half_turns_take_the_exact_rule(monkeypatch, sig, J):
    # D_J, -1 on the generators of J, is the matrix of e_J. I + D_J is
    # singular, so the first solve fails and one batched determinant ranks
    # all 2^(n-1) probes; the rotor is e_J, with the probe of
    # select_candidate (numpy takes a determinant through its logarithm, so
    # the coefficient 1 may come back an ulp or two low).
    ranked = []
    weights = covering._weights
    monkeypatch.setattr(covering, "_weights", lambda arr, s, probes: ranked.append(len(probes)) or weights(arr, s, probes))
    matrix = np.diag([-1.0 if J >> a & 1 else 1.0 for a in range(sig.n)])
    rotor = matrix_to_rotor(matrix, sig)
    assert ranked == [sig.dim // 2]
    assert rotor.probe == J == select_candidate(matrix, sig).F
    assert np.abs(rotor.coeffs - Multivector.basis(sig, J).coeffs).max() <= 4.0 * np.finfo(np.float64).eps


@pytest.mark.parametrize("sig", [Signature(5, 0), Signature(3, 3), Signature(7, 3), Signature(4, 8), Signature(0, 6)],
                         ids=lambda s: f"{s.p},{s.q}")
def test_two_passes_name_the_probe_of_the_exact_rule(monkeypatch, sig):
    # P and P D_J, J a plane of two generators that square alike, whose
    # rotors are S and S e_J. The pass at F = 0 names the probe F of
    # select_candidate, and only F != 0 takes a second pass, which
    # certifies it. With no certificate possible, the exact rule picks the
    # same probe, and the rotors agree to rounding.
    passes = []
    pfaffians = covering._pfaffians
    monkeypatch.setattr(covering, "_pfaffians", lambda arr, s, F: passes.append(F) or pfaffians(arr, s, F))
    J = 0b11 if sig.p >= 2 else 0b11 << (sig.n - 2)
    flips = np.array([-1.0 if J >> a & 1 else 1.0 for a in range(sig.n)])
    probes = set()
    for seed in range(3):
        matrix = sample_matrix(sig, seed)
        for probed in (matrix, matrix * flips):
            F = select_candidate(probed, sig).F
            probes.add(F)
            passes.clear()
            rotor = matrix_to_rotor(probed, sig)
            assert rotor.probe == F and passes == ([0, F] if F else [0])
            with monkeypatch.context() as forced:
                forced.setattr(covering, "_PROBE_SLACK", -1.0)
                exact = matrix_to_rotor(probed, sig)
            assert exact.probe == F
            assert np.abs(exact.coeffs - rotor.coeffs).max() <= 4.0 * np.finfo(np.float64).eps
    assert len(probes) > 1


REJECT_11 = json.loads((FIXTURES / "reject_11.json").read_text())

REFUSED_INPUTS = [
    (REJECT_11["matrix"], Signature(1, 1), "general", 1e-9),
    (REJECT_11["matrix"], Signature(1, 1), "general", 4.0),
    (np.diag([1.0, -1.0, -1.0]), SIG21, "general", 1e-9),
    (np.diag([-1.0, 1.0, 1.0]), SIG30, "general", 1e-9),
    (np.eye(3), SIG20, "general", 1e-9),
    ([[1.0, math.nan], [0.0, 1.0]], SIG20, "general", 1e-9),
    ([[True, 0.0], [0.0, 1.0]], SIG20, "general", 1e-9),
    (np.eye(2), SIG20, "general", -1.0),
    (np.eye(2), SIG20, "n3", 1e-9),
    (np.eye(2), SIG20, "other", 1e-9),
]


@pytest.mark.parametrize("matrix, sig, method, tol", REFUSED_INPUTS)
def test_matrix_to_rotor_refuses_as_the_reference_pipeline(matrix, sig, method, tol):
    with pytest.raises((ValueError, NoCandidateError)) as got:
        matrix_to_rotor(matrix, sig, method, tol)
    with pytest.raises((ValueError, NoCandidateError)) as expected:
        reference_matrix_to_rotor(matrix, sig, method, tol)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)

def test_matrix_to_rotor_plane_rotation():
    angle = 0.7
    rotor = matrix_to_rotor(rotation_matrix(angle), SIG20)
    assert abs(rotor.value.coefficient(0) - math.cos(angle / 2.0)) <= 1e-14
    assert abs(rotor.value.coefficient(0b11) + math.sin(angle / 2.0)) <= 1e-14


def test_matrix_to_rotor_round_trips_many_signatures():
    rng = np.random.default_rng(40)
    sigs = [Signature(p, q) for n in range(1, 6) for p in range(n + 1) for q in [n - p]]
    for sig in sigs:
        for _ in range(6):
            rotor = random_rotor(sig, rng, scale=0.5).canonicalized()
            matrix = forward_map(rotor)
            recovered = matrix_to_rotor(matrix, sig)
            assert rotor_distance(recovered, rotor) <= 1e-10
            assert np.max(np.abs(forward_map(recovered) - matrix)) <= 1e-10


def test_matrix_to_rotor_output_is_canonical_unit():
    rng = np.random.default_rng(41)
    for sig in (SIG30, SIG21, Signature(3, 2)):
        rotor = matrix_to_rotor(forward_map(random_rotor(sig, rng)), sig)
        assert rotor.unit_residual() <= 1e-10
        lead = int(np.argmax(np.abs(rotor.coeffs)))
        assert rotor.coeffs[lead] > 0
        assert rotor.value.odd_part_max() == 0.0


def test_matrix_to_rotor_methods_agree_for_three_generators():
    # one recovery: the n3 rotor is the general rotor and 2 L_F is M_F,
    # bit for bit, q > p included
    rng = np.random.default_rng(42)
    for sig in (SIG30, SIG21, Signature(1, 2), Signature(0, 3)):
        for _ in range(10):
            matrix = forward_map(random_rotor(sig, rng))
            general = matrix_to_rotor(matrix, sig, method="general")
            first_order = matrix_to_rotor(matrix, sig, method="n3")
            assert np.array_equal(general.coeffs, first_order.coeffs) and general.probe == first_order.probe
            for F in even_blades(3):
                twice = 2.0 * candidate_n3(matrix, sig, F).coeffs
                assert np.array_equal(twice, candidate(matrix, sig, F).coeffs)


def test_matrix_to_rotor_validates_membership():
    reflection = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(MembershipError):
        matrix_to_rotor(reflection, SIG30)
    # every recovery entry point checks membership first
    with pytest.raises(MembershipError):
        select_candidate(reflection, SIG30)
    with pytest.raises(MembershipError):
        candidate_n3(reflection, SIG30, 0)


def test_matrix_to_rotor_projection_repairs_noise():
    rng = np.random.default_rng(43)
    clean = forward_map(random_rotor(SIG30, rng))
    noisy = clean + 1e-6 * rng.standard_normal((3, 3))
    with pytest.raises(MembershipError):
        matrix_to_rotor(noisy, SIG30)
    rotor = matrix_to_rotor(project_to_group(noisy, SIG30), SIG30)
    assert np.max(np.abs(forward_map(rotor) - clean)) <= 1e-5


def test_matrix_to_rotor_no_candidate_error():
    # a tolerance of 4 admits diag(-1,-1) in (1,1), whose chosen candidate
    # vanishes (the reject_11_forced golden)
    with pytest.raises(NoCandidateError, match="no nonzero covering candidate"):
        matrix_to_rotor(np.diag([-1.0, -1.0]), Signature(1, 1), tol=4.0)


# Off the group, admitted by a tolerance of 4: both probe weights are
# negative (-1.1 at the scalar, -5.1 at e12), so the chosen scalar
# probe's normalizer is not positive
LOOSE_11 = np.array([[-0.5507681980617236, -0.3302075511824807], [0.16563993452065828, -1.5495453378377713]])


def test_matrix_to_rotor_non_positive_normalizer_is_no_candidate():
    with pytest.raises(MembershipError):
        matrix_to_rotor(LOOSE_11, Signature(1, 1))
    with pytest.raises(NoCandidateError, match="non-positive normalizer"):
        matrix_to_rotor(LOOSE_11, Signature(1, 1), tol=4.0)


def test_matrix_to_rotor_tries_no_second_probe(monkeypatch):
    # the unusable candidate ends the recovery: no other probe is assembled
    assembled = []
    original = covering._assemble_general

    def counting(sig, tables, F):
        assembled.append(F)
        return original(sig, tables, F)

    monkeypatch.setattr(covering, "_assemble_general", counting)
    for matrix, message in ((np.diag([-1.0, -1.0]), "no nonzero"), (LOOSE_11, "non-positive normalizer")):
        assembled.clear()
        with pytest.raises(NoCandidateError, match=message):
            matrix_to_rotor(matrix, Signature(1, 1), tol=4.0)
        assert len(assembled) == 1


@pytest.mark.parametrize("sig", [SIG30, SIG21], ids=["3,0", "2,1"])
@pytest.mark.parametrize("method, scale", [("general", 8.0), ("n3", 4.0)])
def test_candidate_carries_its_normalizer(sig, method, scale):
    # each method's rotor is its own candidate (M_F, or L_F for n3) over
    # sqrt(scale eps_F <candidate>_F), bit for bit, with probe F
    for seed in range(5):
        matrix = sample_matrix(sig, 70 + seed)
        cand = select_candidate(matrix, sig)
        rotor = matrix_to_rotor(matrix, sig, method)
        assert rotor.probe == cand.F
        own = cand.M if method == "general" else candidate_n3(matrix, sig, cand.F)
        weight = scale * squared_norm(Multivector.basis(sig, cand.F)) * own.coeffs[cand.F]
        assert np.array_equal(Rotor(own / math.sqrt(weight)).canonicalized().coeffs, rotor.coeffs)


@pytest.mark.parametrize("method", ["general", "n3"])
def test_matrix_to_rotor_large_boost_does_not_cancel(method):
    # the scalar probe's reverse-norm is a difference of two ~cosh(t)^2
    # squares and loses ~1e-8 to cancellation at t = 10; its e_F
    # coefficient, the normalizer, does not
    sig = Signature(2, 1)
    t = 10.0
    ch, sh = math.cosh(t), math.sinh(t)
    matrix = np.array([[1.0, 0.0, 0.0], [0.0, ch, sh], [0.0, sh, ch]])
    rotor = matrix_to_rotor(matrix, sig, method=method, tol=1e-6)
    expected = np.zeros(8)
    expected[0], expected[0b110] = math.cosh(t / 2.0), -math.sinh(t / 2.0)
    assert rotor_distance(rotor, Rotor(Multivector(sig, expected))) / expected[0] <= 1e-12


# -- frames --------------------------------------------------------------------

def coordinate_matrix(beta) -> np.ndarray:
    # column a holds the generator coordinates of the frame vector beta_a
    return np.column_stack([b.vector_components() for b in beta])


def gram_matrix(beta) -> np.ndarray:
    # scalar parts of beta_a beta_b
    return np.array([[(x * y).scalar_part() for y in beta] for x in beta])


def test_frame_gram_matches_metric_for_rotor_images():
    rng = np.random.default_rng(50)
    rotor = random_rotor(SIG21, rng)
    inverse = rotor.value.reverse()
    beta = tuple(
        rotor.value * Multivector.basis(SIG21, 1 << a) * inverse for a in range(3)
    )
    eta = np.diag([1.0, 1.0, -1.0])
    assert np.max(np.abs(gram_matrix(beta) - eta)) <= 1e-12


def test_rotor_from_frames_identity():
    beta = tuple(Multivector.basis(SIG30, 1 << a) for a in range(3))
    rotor = matrix_to_rotor(coordinate_matrix(beta), SIG30)
    assert rotor.value.isclose(Multivector.scalar(SIG30), 1e-14)


def test_rotor_from_frames_half_turn():
    beta = (
        Multivector.basis(SIG30, 0b001),
        Multivector.basis(SIG30, 0b010, -1.0),
        Multivector.basis(SIG30, 0b100, -1.0),
    )
    rotor = matrix_to_rotor(coordinate_matrix(beta), SIG30)
    assert rotor.value.isclose(Multivector.basis(SIG30, 0b110), 1e-14)


def test_rotor_from_frames_recovers_random_rotor():
    rng = np.random.default_rng(51)
    for sig in (SIG30, SIG21, Signature(2, 2)):
        source = random_rotor(sig, rng).canonicalized()
        inverse = source.value.reverse()
        beta = tuple(
            source.value * Multivector.basis(sig, 1 << a) * inverse for a in range(sig.n)
        )
        recovered = matrix_to_rotor(coordinate_matrix(beta), sig)
        assert rotor_distance(recovered, source) <= 1e-10


def test_rotor_from_frames_rejects_degenerate_frame():
    beta = (
        Multivector.basis(SIG30, 0b001),
        Multivector.basis(SIG30, 0b001),
        Multivector.basis(SIG30, 0b100),
    )
    with pytest.raises(MembershipError):
        matrix_to_rotor(coordinate_matrix(beta), SIG30)


def test_candidate_element_blade_names():
    cand = CandidateElement(0b110, Multivector.zero(SIG30), 0.0)
    assert cand.blade == "e23"
