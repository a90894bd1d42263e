"""Deterministic sampling, covering verification, and the selfcheck suites."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from spincover import cli, clifford_core, covering, matrix_group, oracle
from spincover.clifford_core import Multivector, Signature, exp_bivector, squared_norm
from spincover.covering import Rotor, forward_map
from spincover.matrix_group import check_membership, metric_matrix
from spincover.oracle import (
    AGREEMENT_TOLERANCE,
    ALGEBRA_TOLERANCE,
    ROUND_TRIP_TOLERANCE,
    SplitMix64,
    anticommutation_defect,
    center_sum,
    rotor_distance,
    run_selfcheck,
    sample_matrix,
    sample_multivector,
    sample_rotor,
    verify_covering,
)

from oracles import (
    coeffs_to_dict,
    corollary_expansion,
    dict_to_coeffs,
    mask_to_blade,
    naive_center_sum,
)

SIG30 = Signature(3, 0)
SIG21 = Signature(2, 1)


# -- SplitMix64 ----------------------------------------------------------------

def test_splitmix64_known_answer_vector():
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_is_deterministic():
    a = SplitMix64(1234)
    b = SplitMix64(1234)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    assert SplitMix64(1).next_u64() != SplitMix64(2).next_u64()


def test_splitmix64_double_ranges():
    rng = SplitMix64(99)
    doubles = [rng.next_double() for _ in range(200)]
    assert all(0.0 <= d < 1.0 for d in doubles)
    sym = [rng.next_symmetric() for _ in range(200)]
    assert all(-1.0 <= s < 1.0 for s in sym)
    assert min(sym) < -0.5 and max(sym) > 0.5


def test_splitmix64_double_matches_bit_recipe():
    assert SplitMix64(0).next_double() == (0xE220A8397B1DCDAF >> 11) * 2.0**-53


# -- samplers -----------------------------------------------------------------

def test_sample_rotor_is_deterministic_and_unit():
    for sig in (Signature(1, 0), Signature(2, 0), SIG30, SIG21, Signature(3, 3)):
        first = sample_rotor(sig, 7)
        again = sample_rotor(sig, 7)
        assert np.array_equal(first.coeffs, again.coeffs)
        assert first.unit_residual() <= 1e-12
        assert first.value.odd_part_max() == 0.0
        other = sample_rotor(sig, 8)
        if sig.n >= 2:
            assert not np.array_equal(first.coeffs, other.coeffs)


def test_sample_matrix_lands_in_group():
    for sig in (SIG30, SIG21, Signature(2, 2)):
        for seed in range(5):
            assert check_membership(sample_matrix(sig, seed), sig).ok


def test_sample_multivector_deterministic():
    rng_a, rng_b = SplitMix64(3), SplitMix64(3)
    u = sample_multivector(SIG21, rng_a)
    v = sample_multivector(SIG21, rng_b)
    assert np.array_equal(u.coeffs, v.coeffs)
    assert u.max_abs() <= 0.25


# -- covering verification ------------------------------------------------------

def test_verify_covering_identity_is_exact():
    report = verify_covering(Rotor(Multivector.scalar(SIG30)), np.eye(3))
    assert report.max_residual == 0.0
    assert len(report.residuals) == 3


def test_verify_covering_quarter_turn():
    angle = math.pi / 2.0
    sig = Signature(2, 0)
    rotor = Rotor(exp_bivector(Multivector.basis(sig, 0b11, -angle / 2.0)))
    matrix = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert verify_covering(rotor, matrix).max_residual <= 1e-15


def test_verify_covering_flags_perturbation():
    rotor = sample_rotor(SIG30, 11)
    matrix = forward_map(rotor)
    assert verify_covering(rotor, matrix).max_residual <= 1e-13
    perturbed = matrix.copy()
    perturbed[0, 1] += 1e-3
    assert verify_covering(rotor, perturbed).max_residual >= 1e-4


def test_verify_covering_rejects_a_non_finite_matrix():
    with pytest.raises(ValueError, match="finite"):
        verify_covering(Rotor(Multivector.scalar(SIG30)), np.full((3, 3), np.nan))


def test_verify_covering_rejects_a_non_invertible_value():
    # 1 + e12 in Cl(1,1) has reverse-norm 1 - 1 = 0
    null = Multivector.from_terms(Signature(1, 1), {0: 1.0, 0b11: 1.0})
    with pytest.raises(ValueError, match="reverse-norm 0.0"):
        verify_covering(null, np.eye(2))
    for value in (np.inf, np.nan):
        with pytest.raises(ValueError, match="not invertible"):
            verify_covering(Multivector.scalar(SIG30, value), np.eye(3))


def test_verify_covering_at_n12_bounds_its_temporaries():
    # 12 dense products, each summed in row blocks; a single 4096 x 4096
    # pair grid traced 68 MB.
    sig = Signature(8, 4)
    rotor = sample_rotor(sig, 5)
    matrix = forward_map(rotor)
    verify_covering(rotor, matrix)
    tracemalloc.start()
    try:
        assert verify_covering(rotor, matrix).max_residual <= 1e-12
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def product_verify_covering(value: Multivector, matrix: np.ndarray) -> tuple[float, ...]:
    """The covering residuals by basis products: (value e_a) times the inverse, minus P e_a."""
    sig = value.sig
    inverse = value.reverse() / squared_norm(value)
    return tuple(
        (value * Multivector.basis(sig, 1 << a) * inverse - Multivector.vector(sig, matrix[:, a])).max_abs()
        for a in range(sig.n)
    )


@pytest.mark.parametrize(
    "sig",
    [Signature(p, n - p) for n in range(1, 7) for p in range(n + 1)] + [Signature(7, 3)],
    ids=lambda s: f"{s.p}_{s.q}",
)
def test_verify_covering_is_bit_for_bit_the_product_reference(monkeypatch, sig):
    # S e_a is a signed permutation of S, so n products give the residuals
    # of the 2n basis products exactly, for rotors and for scaled values.
    rng = np.random.default_rng(90 + 11 * sig.p + sig.q)
    original = clifford_core.geometric_product
    products = []

    def counting(u, v):
        products.append(u.sig)
        return original(u, v)

    for seed in range(2):
        rotor = sample_rotor(sig, seed)
        exact = forward_map(rotor)
        for value in (rotor.value, 1.5 * rotor.value):
            for matrix in (exact, exact + 1e-9 * rng.uniform(-1.0, 1.0, exact.shape)):
                want = product_verify_covering(value, matrix)
                monkeypatch.setattr(clifford_core, "geometric_product", counting)
                products.clear()
                got = verify_covering(value, matrix).residuals
                monkeypatch.setattr(clifford_core, "geometric_product", original)
                assert len(products) == sig.n
                assert got == want


def test_verify_covering_sees_both_signs_equally():
    rotor = sample_rotor(SIG21, 4)
    matrix = forward_map(rotor)
    assert verify_covering(-rotor, matrix).max_residual <= 1e-13


# -- frames and the direct expansion --------------------------------------------

def frame_of(rotor: Rotor) -> list[Multivector]:
    # beta_a = S e_a reverse(S): the columns of forward_map
    sig = rotor.sig
    return [Multivector.vector(sig, column) for column in forward_map(rotor).T]


def expand_frame(beta: list[Multivector], F: int) -> Multivector:
    sig = beta[0].sig
    total = corollary_expansion([coeffs_to_dict(b.coeffs) for b in beta], mask_to_blade(F), sig.p, sig.q)
    return Multivector(sig, np.array(dict_to_coeffs(total, sig.n)))


def test_frame_from_rotor_gram_is_metric():
    # scalar parts of beta_a beta_b over the columns of forward_map
    for sig in (SIG30, SIG21, Signature(2, 2)):
        beta = frame_of(sample_rotor(sig, 21))
        gram = np.array([[(x * y).scalar_part() for y in beta] for x in beta])
        assert np.max(np.abs(gram - metric_matrix(sig))) <= 1e-12


def test_corollary_expansion_identity_frame():
    for sig in (Signature(2, 0), SIG30, SIG21):
        beta = frame_of(Rotor(Multivector.scalar(sig)))
        assert all(np.array_equal(beta[a].coeffs, Multivector.basis(sig, 1 << a).coeffs) for a in range(sig.n))
        total = expand_frame(beta, 0)
        assert total.isclose(Multivector.scalar(sig, float(sig.dim)), 1e-14)


def test_corollary_expansion_half_turn_probe():
    # frame of the half-turn diag(1,-1,-1): probing with e23 doubles the
    # first-order candidate 4 e23
    total = expand_frame(frame_of(Rotor(Multivector.basis(SIG30, 0b110))), 0b110)
    assert total.isclose(Multivector.basis(SIG30, 0b110, 8.0), 1e-14)


def test_corollary_expansion_matches_minor_assembly():
    for sig in (Signature(2, 0), SIG30, SIG21, Signature(2, 2), Signature(3, 1)):
        for seed in (1, 2):
            matrix = forward_map(sample_rotor(sig, seed))
            beta = [Multivector.vector(sig, matrix[:, a]) for a in range(sig.n)]
            for F in (0, (1 << sig.n) - 1 if sig.n % 2 == 0 else 0b011):
                direct = expand_frame(beta, F)
                assembled = Multivector(sig, covering._assemble_general(sig, covering._minor_tables(matrix, sig.n), F))
                assert (direct - assembled).max_abs() <= 1e-10


# -- algebra-law helpers ---------------------------------------------------------

def test_anticommutation_defect_is_zero():
    for sig in (Signature(1, 0), Signature(2, 0), SIG21, Signature(2, 2), Signature(4, 1)):
        assert anticommutation_defect(sig) == 0


def test_center_sum_matches_naive_oracle():
    rng = SplitMix64(17)
    for sig in (Signature(2, 0), SIG21, Signature(1, 2)):
        u = sample_multivector(sig, rng, scale=1.0)
        got = center_sum(u)
        ref = dict_to_coeffs(naive_center_sum(coeffs_to_dict(u.coeffs), sig.p, sig.q), sig.n)
        assert np.max(np.abs(got.coeffs - np.array(ref))) <= 1e-10


def test_center_sum_is_dimension_times_center_projection():
    rng = SplitMix64(23)
    for sig in (SIG30, Signature(2, 2)):
        u = sample_multivector(sig, rng, scale=1.0)
        expected = float(sig.dim) * u.center_projection()
        assert (center_sum(u) - expected).max_abs() <= 1e-10


def test_rotor_distance_handles_sign_ambiguity():
    rotor = sample_rotor(SIG30, 2)
    assert rotor_distance(rotor, -rotor) == 0.0
    assert rotor_distance(rotor, Rotor(Multivector.scalar(SIG30))) > 0.0


# -- selfcheck ------------------------------------------------------------------

def test_run_selfcheck_structure_and_pass():
    result = run_selfcheck(SIG21, trials=25, seed=3)
    assert result["p"] == 2 and result["q"] == 1
    assert result["trials"] == 25 and result["seed"] == 3
    suites = result["suites"]
    assert set(suites) == {"round_trip", "method_agreement", "algebra_laws"}
    assert suites["round_trip"]["tolerance"] == ROUND_TRIP_TOLERANCE
    assert suites["method_agreement"]["tolerance"] == AGREEMENT_TOLERANCE
    assert suites["algebra_laws"]["tolerance"] == ALGEBRA_TOLERANCE
    for suite in suites.values():
        assert suite["ok"]
        assert suite["max_residual"] <= suite["tolerance"]
    assert result["ok"] is True


def _single_precision(original):
    # the right signs, but every product rounded to float32
    def product(u, v):
        return Multivector(u.sig, original(u, v).coeffs.astype(np.float32))

    return product


def _flipped_top(original):
    # every product with its top-grade coefficient negated
    def product(u, v):
        coeffs = original(u, v).coeffs.copy()
        coeffs[-1] = -coeffs[-1]
        return Multivector(u.sig, coeffs)

    return product


@pytest.mark.parametrize("sig", [Signature(3, 6), Signature(6, 4)], ids=["3,6", "6,4"])
def test_algebra_laws_scale_with_their_terms(monkeypatch, capsys, sig):
    # an absolute 1e-12 failed correct code here: the centre law sums 2^n
    # terms of size max |u| (seed 1, 3 trials: 1.1e-12 at (3,6), 4.2e-12
    # at (6,4)); relative to the size of their terms the laws hold, and a
    # broken product still fails them
    assert cli.main(["selfcheck", "--p", str(sig.p), "--q", str(sig.q), "--trials", "3", "--seed", "1"]) == 0
    laws = json.loads(capsys.readouterr().out)["suites"]["algebra_laws"]
    assert laws["ok"] and laws["max_residual"] <= 1e-13
    original = clifford_core.geometric_product
    for broken in (_single_precision(original), _flipped_top(original)):
        monkeypatch.setattr(clifford_core, "geometric_product", broken)
        assert not oracle._algebra_suite(sig, 1, 1) <= ALGEBRA_TOLERANCE


def test_method_agreement_fails_a_broken_minor_sum(monkeypatch):
    # the reference is the paper's formula by direct products, so a wrong
    # assembly fails the suite (it compared the sum with itself before)
    original = covering._assemble_general

    def perturbed(sig, tables, F):
        coeffs = original(sig, tables, F)
        coeffs[F] += 1e-6
        return coeffs

    monkeypatch.setattr(covering, "_assemble_general", perturbed)
    result = run_selfcheck(SIG21, trials=3, seed=1)
    assert result["suites"]["method_agreement"]["ok"] is False
    assert result["ok"] is False


def test_method_agreement_validates_and_tables_each_matrix_once(monkeypatch):
    # One membership check and one set of minor tables serve all four probes.
    calls, inside = [], []
    suite = oracle._method_agreement_suite

    def count(module, name):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.extend([name] * len(inside)) or original(*args))

    def marked(*args):
        inside.append(True)
        try:
            return suite(*args)
        finally:
            inside.pop()

    count(matrix_group, "_measured")
    count(covering, "_minor_tables")
    monkeypatch.setattr(oracle, "_method_agreement_suite", marked)
    assert run_selfcheck(SIG21, 5, 1)["ok"] is True
    assert calls == ["_measured", "_minor_tables"] * 5


def test_run_selfcheck_skips_method_agreement_away_from_three():
    result = run_selfcheck(Signature(2, 2), trials=10, seed=5)
    assert "method_agreement" not in result["suites"]
    assert result["ok"] is True


@pytest.mark.parametrize(
    "trials, seed, message",
    [
        (0, 1, "trials must be at least 1"),
        (-1, 1, "trials must be at least 1"),
        (True, 1, "trials and seed must be integers"),
        (2.5, 1, "trials and seed must be integers"),
        (1, 1.5, "trials and seed must be integers"),
        (1, True, "trials and seed must be integers"),
    ],
    ids=["0", "-1", "True", "2.5", "seed=1.5", "seed=True"],
)
def test_run_selfcheck_refuses_to_check_nothing(trials, seed, message):
    # trials = 0 returned "ok": True with every residual 0; a bool ran as an
    # integer and printed as true; 2.5 and seed = 1.5 raised TypeError
    # inside a suite
    with pytest.raises(ValueError, match=message):
        run_selfcheck(SIG30, trials=trials, seed=seed)


def test_run_selfcheck_rejects_bad_signature_sizes():
    with pytest.raises(ValueError):
        run_selfcheck(Signature(0, 0))
