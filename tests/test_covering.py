"""Two-sheeted covering: forward conjugation map and matrix-to-rotor recovery."""

import json
import math

import numpy as np
import pytest

from spincover import cli, clifford_core, covering, matrix_group
from spincover.clifford_core import (
    Multivector,
    Signature,
    exp_bivector,
    geometric_product,
    grade_masks,
    squared_norm,
)
from spincover.covering import (
    CandidateElement,
    Frame,
    NoCandidateError,
    Rotor,
    candidate_general,
    candidate_n3,
    conjugated_generators,
    even_blades,
    forward_map,
    iter_candidates,
    matrix_to_rotor,
    probe_weights,
    rotor_from_frames,
    select_candidate,
)
from spincover.matrix_group import MembershipError, check_membership
from spincover.oracle import frame_from_rotor

from oracles import coeffs_to_dict, dict_to_coeffs, naive_product

SIG20 = Signature(2, 0)
SIG30 = Signature(3, 0)
SIG21 = Signature(2, 1)


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


def test_rotor_inverse_is_reversion():
    rotor = rotation_rotor(0.8)
    product = geometric_product(rotor.value, rotor.inverse())
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


SIGS_UP_TO_4 = [Signature(p, n - p) for n in range(1, 5) for p in range(n + 1)]


@pytest.mark.parametrize("sig", SIGS_UP_TO_4, ids=lambda s: f"{s.p}_{s.q}")
def test_conjugated_generators_match_naive_products(sig):
    rng = np.random.default_rng(40 + 5 * sig.p + sig.q)
    odd = clifford_core._grades(sig.n) % 2 == 1
    parts = {"even": ~odd, "odd": odd, "mixed": np.ones(sig.dim, dtype=bool)}
    for left_part in parts.values():
        for right_part in parts.values():
            value = np.where(left_part, rng.uniform(-1.0, 1.0, sig.dim), 0.0)
            right = np.where(right_part, rng.uniform(-1.0, 1.0, sig.dim), 0.0)
            got = conjugated_generators(Multivector(sig, value), Multivector(sig, right))
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
    assert not conjugated_generators(zero, Multivector.scalar(sig)).any()
    assert not conjugated_generators(Multivector.scalar(sig), zero).any()


def test_forward_direction_makes_no_geometric_product(monkeypatch):
    calls = []
    original = clifford_core.geometric_product

    def counting(u, v):
        calls.append(u.sig)
        return original(u, v)

    monkeypatch.setattr(clifford_core, "geometric_product", counting)
    rng = np.random.default_rng(41)
    for sig in (SIG30, SIG21, Signature(3, 3), Signature(2, 5)):
        rotor = random_rotor(sig, rng)
        calls.clear()
        forward_map(rotor)
        frame_from_rotor(rotor)
        assert calls == []
        Rotor.checked(rotor.value)
        assert len(calls) == 1


def test_sign_table_is_gone():
    assert not hasattr(clifford_core, "sign_table")
    assert not hasattr(clifford_core, "_sign_table")


# -- candidates ----------------------------------------------------------------

def test_candidate_general_identity_scalar_probe():
    for sig in (SIG20, SIG30, SIG21, Signature(2, 2)):
        cand = candidate_general(np.eye(sig.n), sig, 0)
        expected = Multivector.scalar(sig, float(sig.dim))
        assert cand.M.isclose(expected, 0.0)
        assert cand.normsq == float(sig.dim) ** 2
        assert cand.blade == "1"


def test_candidate_general_rotation_closed_forms():
    angle = 1.1
    matrix = rotation_matrix(angle)
    c, s = math.cos(angle), math.sin(angle)
    scalar_probe = candidate_general(matrix, SIG20, 0)
    expected0 = Multivector.from_terms(SIG20, {0: 2.0 * (1.0 + c), 0b11: -2.0 * s})
    assert (scalar_probe.M - expected0).max_abs() <= 1e-14
    assert abs(scalar_probe.normsq - 8.0 * (1.0 + c)) <= 1e-13
    plane_probe = candidate_general(matrix, SIG20, 0b11)
    expected12 = Multivector.from_terms(SIG20, {0: -2.0 * s, 0b11: 2.0 * (1.0 - c)})
    assert (plane_probe.M - expected12).max_abs() <= 1e-14


def test_candidates_are_even_exactly():
    rng = np.random.default_rng(5)
    for sig in (SIG30, SIG21, Signature(2, 2)):
        matrix = forward_map(random_rotor(sig, rng))
        for cand in iter_candidates(matrix, sig):
            assert cand.M.odd_part_max() == 0.0


def test_candidate_reverse_norm_is_scalar():
    rng = np.random.default_rng(6)
    for sig in (SIG30, SIG21):
        matrix = forward_map(random_rotor(sig, rng))
        for cand in iter_candidates(matrix, sig):
            gram = cand.M.reverse() * cand.M
            assert abs(gram.scalar_part() - cand.normsq) <= 1e-9 * max(1.0, abs(cand.normsq))
            scale = max(1.0, cand.M.max_abs() ** 2)
            assert (gram - gram.grade_projection(0)).max_abs() <= 1e-9 * scale


def test_candidate_n3_requires_three_generators():
    with pytest.raises(ValueError):
        candidate_n3(np.eye(2), SIG20, 0)


def test_candidate_n3_half_turn_diagonal():
    matrix = np.diag([1.0, -1.0, -1.0])
    zero_probes = [0, 0b011, 0b101]
    for F in zero_probes:
        assert candidate_n3(matrix, SIG30, F).M.max_abs() == 0.0
    cand = candidate_n3(matrix, SIG30, 0b110)
    assert cand.M.isclose(Multivector.basis(SIG30, 0b110, 4.0), 0.0)
    assert cand.normsq == 16.0


def test_candidate_n3_half_turn_family_closed_forms():
    # rotations by pi about the axis (cos(t/2), sin(t/2), 0)
    for angle in np.linspace(0.0, 2.0 * math.pi, 9):
        c, s = math.cos(angle), math.sin(angle)
        matrix = np.array([[c, s, 0.0], [s, -c, 0.0], [0.0, 0.0, -1.0]])
        l_scalar = candidate_n3(matrix, SIG30, 0)
        l_12 = candidate_n3(matrix, SIG30, 0b011)
        l_13 = candidate_n3(matrix, SIG30, 0b101)
        l_23 = candidate_n3(matrix, SIG30, 0b110)
        assert l_scalar.M.max_abs() <= 1e-14
        assert l_12.M.max_abs() <= 1e-14
        expected13 = Multivector.from_terms(
            SIG30, {0b101: 2.0 * (1.0 - c), 0b110: -2.0 * s}
        )
        expected23 = Multivector.from_terms(
            SIG30, {0b101: -2.0 * s, 0b110: 2.0 * (1.0 + c)}
        )
        assert (l_13.M - expected13).max_abs() <= 1e-12
        assert (l_23.M - expected23).max_abs() <= 1e-12


def test_general_candidate_is_twice_n3_candidate():
    rng = np.random.default_rng(12)
    for sig in (SIG30, SIG21, Signature(1, 2)):
        matrix = forward_map(random_rotor(sig, rng))
        for F in even_blades(3):
            full = candidate_general(matrix, sig, F)
            first_order = candidate_n3(matrix, sig, F)
            assert (full.M - 2.0 * first_order.M).max_abs() <= 1e-12
            assert abs(full.normsq - 4.0 * first_order.normsq) <= 1e-10


def test_even_blades_order():
    assert list(even_blades(3)) == [0, 0b011, 0b101, 0b110]
    assert list(even_blades(4))[:5] == [0, 0b0011, 0b0101, 0b0110, 0b1001]
    assert list(even_blades(4))[-1] == 0b1111


def test_select_candidate_examples():
    assert select_candidate(np.eye(3), SIG30).F == 0
    assert select_candidate(np.diag([1.0, -1.0, -1.0]), SIG30).F == 0b110
    half_turn = np.array([[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]])
    assert select_candidate(half_turn, SIG30).F == 0b101
    assert select_candidate(half_turn, SIG30, method="n3").F == 0b101


def test_select_candidate_threshold_override():
    with pytest.raises(NoCandidateError, match="no nonzero covering candidate"):
        select_candidate(np.eye(3), SIG30, threshold=1e6)


def test_select_candidate_rejects_all_zero():
    # diag(-1,-1) preserves the (1,1) metric but has no rotor preimage:
    # both probe candidates vanish or have negative reverse-norm
    flip = np.diag([-1.0, -1.0])
    sig = Signature(1, 1)
    with pytest.raises(NoCandidateError):
        select_candidate(flip, sig)


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
    return Rotor(turn.value * plane * turn.inverse())


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


ALL_SIGNATURES = [Signature(p, n - p) for n in range(1, 7) for p in range(n + 1)]


@pytest.mark.parametrize("sig", ALL_SIGNATURES, ids=lambda s: f"{s.p},{s.q}")
def test_closed_form_pick_is_max_reverse_norm_probe(sig):
    rng = np.random.default_rng(100 + 10 * sig.p + sig.q)
    for rotor in _probe_inputs(sig, rng):
        matrix = forward_map(rotor, tol=1e-6)
        scan = [candidate_general(matrix, sig, F) for F in even_blades(sig.n)]
        best = max(scan, key=lambda cand: cand.normsq)
        assert select_candidate(matrix, sig).F == best.F
        # the sampled rotors miss unit norm by up to ~1e-9 themselves
        recovered = matrix_to_rotor(matrix, sig, tol=1e-6)
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
        if sig.n == 3:
            first_order = probe_weights(matrix, sig, method="n3")[evens]
            assert np.abs(2.0 * first_order - expected).max() <= 1e-12 * max(1.0, expected.max())


def test_general_recovery_assembles_one_candidate(monkeypatch):
    assembled = []
    original = covering._assemble_general

    def counting(sig, tables, F):
        assembled.append(F)
        return original(sig, tables, F)

    monkeypatch.setattr(covering, "_assemble_general", counting)
    rng = np.random.default_rng(300)
    for sig in (SIG30, SIG21, Signature(2, 3), Signature(4, 2)):
        for rotor in _probe_inputs(sig, rng):
            assembled.clear()
            matrix_to_rotor(forward_map(rotor, tol=1e-6), sig, tol=1e-6)
            assert len(assembled) == 1


def test_cli_rotor_from_matrix_computes_each_minor_grade_once(monkeypatch, capsys):
    grades = []
    original = covering.batched_minors

    def counting(matrix, k):
        grades.append(k)
        return original(matrix, k)

    monkeypatch.setattr(covering, "batched_minors", counting)
    monkeypatch.setattr(matrix_group, "batched_minors", counting)
    sig = Signature(3, 2)
    matrix = forward_map(random_rotor(sig, np.random.default_rng(301)))
    doc = json.dumps({"p": sig.p, "q": sig.q, "matrix": matrix.tolist()})
    assert cli.main(["rotor-from-matrix", doc]) == 0
    assert json.loads(capsys.readouterr().out)["residual"] <= 1e-12
    assert sorted(grades) == list(range(sig.n + 1))


# -- matrix_to_rotor -----------------------------------------------------------

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
    rng = np.random.default_rng(42)
    for sig in (SIG30, SIG21):
        for _ in range(10):
            matrix = forward_map(random_rotor(sig, rng))
            general = matrix_to_rotor(matrix, sig, method="general")
            first_order = matrix_to_rotor(matrix, sig, method="n3")
            assert rotor_distance(general, first_order) <= 1e-12


def test_matrix_to_rotor_validates_membership():
    reflection = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(MembershipError):
        matrix_to_rotor(reflection, SIG30)
    # skipping validation reaches candidate selection, where a determinant -1
    # matrix legitimately has no preimage and every candidate vanishes
    with pytest.raises(NoCandidateError):
        matrix_to_rotor(reflection, SIG30, validate=False)


def test_matrix_to_rotor_projection_repairs_noise():
    rng = np.random.default_rng(43)
    clean = forward_map(random_rotor(SIG30, rng))
    noisy = clean + 1e-6 * rng.standard_normal((3, 3))
    with pytest.raises(MembershipError):
        matrix_to_rotor(noisy, SIG30)
    rotor = matrix_to_rotor(noisy, SIG30, project=True)
    assert np.max(np.abs(forward_map(rotor) - clean)) <= 1e-5


def test_matrix_to_rotor_no_candidate_error():
    with pytest.raises(NoCandidateError):
        matrix_to_rotor(np.diag([-1.0, -1.0]), Signature(1, 1), validate=False)


def test_matrix_to_rotor_non_positive_normalizer_is_no_candidate():
    # det -1: the e12 probe has reverse-norm 4 but a zero e12 coefficient
    with pytest.raises(NoCandidateError, match="normalizer"):
        matrix_to_rotor(np.array([[0.0, 1.0], [1.0, 0.0]]), Signature(1, 1), validate=False)


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

def test_frame_validation():
    beta = tuple(Multivector.basis(SIG30, 1 << a) for a in range(3))
    frame = Frame(SIG30, beta)
    assert np.array_equal(frame.coordinate_matrix(), np.eye(3))
    assert np.array_equal(frame.gram_matrix(), np.eye(3))
    with pytest.raises(ValueError, match="frame vectors"):
        Frame(SIG30, beta[:2])
    with pytest.raises(ValueError, match="signature"):
        Frame(SIG30, (beta[0], beta[1], Multivector.basis(SIG21, 0b100)))
    with pytest.raises(ValueError, match="grade 1"):
        Frame(SIG30, (beta[0], beta[1], Multivector.scalar(SIG30)))


def test_frame_gram_matches_metric_for_rotor_images():
    rng = np.random.default_rng(50)
    rotor = random_rotor(SIG21, rng)
    inverse = rotor.inverse()
    beta = tuple(
        rotor.value * Multivector.basis(SIG21, 1 << a) * inverse for a in range(3)
    )
    frame = Frame(SIG21, beta)
    eta = np.diag([1.0, 1.0, -1.0])
    assert np.max(np.abs(frame.gram_matrix() - eta)) <= 1e-12


def test_rotor_from_frames_identity():
    beta = tuple(Multivector.basis(SIG30, 1 << a) for a in range(3))
    rotor = rotor_from_frames(Frame(SIG30, beta))
    assert rotor.value.isclose(Multivector.scalar(SIG30), 1e-14)


def test_rotor_from_frames_half_turn():
    beta = (
        Multivector.basis(SIG30, 0b001),
        Multivector.basis(SIG30, 0b010, -1.0),
        Multivector.basis(SIG30, 0b100, -1.0),
    )
    rotor = rotor_from_frames(Frame(SIG30, beta))
    assert rotor.value.isclose(Multivector.basis(SIG30, 0b110), 1e-14)


def test_rotor_from_frames_recovers_random_rotor():
    rng = np.random.default_rng(51)
    for sig in (SIG30, SIG21, Signature(2, 2)):
        source = random_rotor(sig, rng).canonicalized()
        inverse = source.inverse()
        beta = tuple(
            source.value * Multivector.basis(sig, 1 << a) * inverse for a in range(sig.n)
        )
        recovered = rotor_from_frames(Frame(sig, beta))
        assert rotor_distance(recovered, source) <= 1e-10


def test_rotor_from_frames_rejects_degenerate_frame():
    beta = (
        Multivector.basis(SIG30, 0b001),
        Multivector.basis(SIG30, 0b001),
        Multivector.basis(SIG30, 0b100),
    )
    with pytest.raises(MembershipError):
        rotor_from_frames(Frame(SIG30, beta))


def test_candidate_element_blade_names():
    cand = CandidateElement(0b110, Multivector.zero(SIG30), 0.0)
    assert cand.blade == "e23"
