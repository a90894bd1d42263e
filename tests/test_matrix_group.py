"""Membership checks, minors, and the group projection."""

import math
import tracemalloc

import numpy as np
import pytest

from spincover import matrix_group
from spincover.clifford_core import Multivector, Signature
from spincover.covering import Rotor, forward_map, matrix_to_rotor
from spincover.oracle import sample_matrix
from spincover.matrix_group import (
    MembershipError,
    as_square_matrix,
    batched_minors,
    check_membership,
    metric_matrix,
    project_to_group,
    require_membership,
)

from oracles import mask_to_blade, naive_minor

SIG21 = Signature(2, 1)
SIG30 = Signature(3, 0)


def rotation_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def boost_11(rapidity: float) -> np.ndarray:
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    return np.array([[ch, sh], [sh, ch]])


def test_metric_matrix():
    assert np.array_equal(metric_matrix(SIG21), np.diag([1.0, 1.0, -1.0]))
    assert np.array_equal(metric_matrix(Signature(0, 2)), np.diag([-1.0, -1.0]))


def test_as_square_matrix_validation():
    out = as_square_matrix([[1, 2], [3, 4]], 2)
    assert out.dtype == np.float64
    assert out.shape == (2, 2)
    with pytest.raises(ValueError):
        as_square_matrix([[1, 2, 3], [4, 5, 6]], 2)
    with pytest.raises(ValueError):
        as_square_matrix([[1, 2], [3, 4]], 3)
    with pytest.raises(ValueError):
        as_square_matrix([[np.nan, 0], [0, 1]], 2)
    assert np.array_equal(as_square_matrix([[1, 0.5], [0, 1]], 2), [[1.0, 0.5], [0.0, 1.0]])


@pytest.mark.parametrize(
    "matrix",
    [[["1", "0"], ["0", "1"]], np.eye(2, dtype=bool), np.eye(2) * (1 + 0.5j)],
    ids=["strings", "bools", "complex"],
)
def test_non_real_entries_are_rejected(matrix):
    # each of these used to be coerced, to the identity or to its real part
    with pytest.raises(ValueError, match="real numbers"):
        as_square_matrix(matrix, 2)
    with pytest.raises(ValueError, match="real numbers"):
        matrix_to_rotor(matrix, Signature(2, 0))


MIXED_BOOLS = [[[1.0, False], [False, True]], [[1, 0], [0, np.bool_(True)]]]


@pytest.mark.parametrize("matrix", MIXED_BOOLS)
def test_as_square_matrix_rejects_bools_mixed_with_numbers(matrix):
    # numpy infers a number dtype here; these used to give the identity rotor
    with pytest.raises(ValueError, match="got a bool"):
        as_square_matrix(matrix, 2)
    with pytest.raises(ValueError, match="got a bool"):
        matrix_to_rotor(matrix, Signature(2, 0))


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf"), -0.5e-9])
def test_tolerance_must_be_finite_and_non_negative(tol):
    with pytest.raises(ValueError, match="tolerance must be finite and non-negative"):
        check_membership(np.eye(1), Signature(1, 0), tol)
    with pytest.raises(ValueError, match="tolerance"):
        require_membership(np.eye(2), Signature(2, 0), tol)
    with pytest.raises(ValueError, match="tolerance"):
        matrix_to_rotor(np.eye(2), Signature(2, 0), tol=tol)
    with pytest.raises(ValueError, match="tolerance"):
        forward_map(Multivector.scalar(Signature(2, 0)), tol)
    with pytest.raises(ValueError, match="tolerance"):
        Rotor.checked(Multivector.scalar(Signature(2, 0)), tol)


def test_zero_tolerance_is_a_tolerance():
    assert check_membership(np.eye(2), Signature(2, 0), 0.0).ok
    assert np.array_equal(forward_map(Rotor.checked(Multivector.scalar(SIG30), 0.0), 0.0), np.eye(3))


def test_check_membership_accepts_rotation():
    report = check_membership(rotation_z(0.7), SIG30)
    assert report.ok
    assert report.metric_residual <= 1e-15
    assert abs(report.determinant - 1.0) <= 1e-15
    assert report.orientation_minor >= 1.0 - 1e-15
    assert report.failures() == []


def test_check_membership_accepts_boost():
    report = check_membership(boost_11(1.3), Signature(1, 1))
    assert report.ok
    assert report.is_orthochronous


@pytest.mark.parametrize("sig", [Signature(1, 1), Signature(3, 1)], ids=["1,1", "3,1"])
@pytest.mark.parametrize("rapidity", [10.0, -10.0])
def test_check_membership_scales_with_entries(sig, rapidity):
    # cosh(10)^2 ~ 1.2e8: rounding the boost leaves a metric residual of
    # 2.9e-8 and det - 1 of 8.6e-9, inside 1e-9 * max|P|^2; a 1e-6 relative
    # error in one entry leaves ~2.4e2 and stays rejected
    boost = np.eye(sig.n)
    boost[0, 0] = boost[-1, -1] = math.cosh(rapidity)
    boost[0, -1] = boost[-1, 0] = math.sinh(rapidity)
    report = check_membership(boost, sig)
    assert report.ok, report.failures()
    assert report.metric_residual > 1e-9
    boost[0, -1] *= 1.0 + 1e-6
    report = check_membership(boost, sig)
    assert not report.is_pseudo_orthogonal
    assert not report.has_unit_determinant


@pytest.mark.parametrize("sig", [Signature(1, 1), Signature(3, 1)], ids=["1,1", "3,1"])
@pytest.mark.parametrize("rapidity, tol", [(12.0, 1e-9), (8.0, 1e-6)])
def test_check_membership_keeps_determinant_sign_for_large_entries(sig, rapidity, tol):
    # an improper boost meets the metric exactly with det -1; once
    # tol * max|P|^2 passes 2, a bound on |det - 1| alone would accept it
    improper = np.eye(sig.n)
    improper[0, 0], improper[0, -1] = math.cosh(rapidity), -math.sinh(rapidity)
    improper[-1, 0], improper[-1, -1] = math.sinh(rapidity), -math.cosh(rapidity)
    report = check_membership(improper, sig, tol)
    assert report.bound > 2.0
    assert report.is_pseudo_orthogonal and report.is_orthochronous
    assert not report.has_unit_determinant
    assert not report.ok
    with pytest.raises(MembershipError):
        require_membership(improper, sig, tol)


def test_check_membership_fails_when_the_scale_overflows():
    # max |P_ij|^2 = 1e320 overflows: the inf residual must not pass the
    # inf bound, and no OverflowError is raised
    with pytest.warns(RuntimeWarning):
        report = check_membership(np.diag([1e160, 1e-160]), Signature(2, 0))
    assert report.bound == math.inf
    assert not report.is_pseudo_orthogonal
    assert not report.ok


def test_check_membership_rejects_reflection():
    bad = np.diag([1.0, 1.0, -1.0])
    report = check_membership(bad, SIG30)
    assert not report.ok
    assert report.has_unit_determinant is False
    assert any("determinant" in f for f in report.failures())


def test_check_membership_rejects_metric_violation():
    report = check_membership(np.eye(3) * 1.5, SIG30)
    assert not report.ok
    assert report.metric_residual > 1.0
    assert any("pseudo-orthogonal" in f for f in report.failures())


def test_check_membership_rejects_wrong_sheet():
    # diag(-1,-1) preserves the (1,1) metric with determinant 1 but flips
    # the positive axis: not in the identity component
    flip = np.diag([-1.0, -1.0])
    sig = Signature(1, 1)
    report = check_membership(flip, sig)
    assert report.is_pseudo_orthogonal
    assert report.has_unit_determinant
    assert not report.is_orthochronous
    assert not report.ok
    assert any("orthochronous" in f for f in report.failures())
    # in the definite signature (2,0) the same matrix is a half-turn rotation
    assert check_membership(flip, Signature(2, 0)).ok


def test_check_membership_orientation_minor_larger_p():
    sig = Signature(2, 1)
    good = np.eye(3)
    assert check_membership(good, sig).orientation_minor == 1.0
    spatial_flip = np.diag([-1.0, -1.0, 1.0])
    report = check_membership(spatial_flip, sig)
    assert report.has_unit_determinant
    assert report.is_pseudo_orthogonal
    assert report.ok  # leading 2x2 minor is +1: both flips sit in SO+(2,1)


def test_passing_report_reads_as_membership():
    report = check_membership(np.eye(3), Signature(2, 1))
    assert report.ok
    assert str(report) == "matrix is in SO+(2,1)"


def test_require_membership_raises_with_report():
    with pytest.raises(MembershipError) as excinfo:
        require_membership(np.diag([1.0, -1.0]), Signature(2, 0))
    assert excinfo.value.report is not None
    assert not excinfo.value.report.ok
    out = require_membership(rotation_z(0.2), SIG30)
    assert isinstance(out, np.ndarray)


def test_project_to_group_repairs_noise():
    rng = np.random.default_rng(2)
    for sig in (SIG30, Signature(1, 1), Signature(2, 2)):
        eta = metric_matrix(sig)
        base = np.eye(sig.n) if sig.q else rotation_z(0.9)[: sig.n, : sig.n]
        if sig == Signature(1, 1):
            base = boost_11(0.8)
        if sig == Signature(2, 2):
            base = np.eye(4)
        noisy = base + 1e-7 * rng.standard_normal(base.shape)
        fixed = project_to_group(noisy, sig)
        residual = np.max(np.abs(fixed.T @ eta @ fixed - eta))
        assert residual <= 1e-13
        assert np.max(np.abs(fixed - base)) <= 1e-5


def boost(sig: Signature, rapidity: float) -> np.ndarray:
    # a boost in the (e1, e_{p+1}) plane
    matrix = np.eye(sig.n)
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    matrix[np.ix_([0, sig.p], [0, sig.p])] = [[ch, sh], [sh, ch]]
    return matrix


@pytest.mark.parametrize("sig", [Signature(1, 1), Signature(3, 1)], ids=["1,1", "3,1"])
def test_project_to_group_leaves_a_rounded_boost_unchanged(sig):
    # P^T eta P misses eta by its own rounding, far above 1e-15 at
    # rapidity 10; the iteration stops at that level and takes no step
    matrix = boost(sig, 10.0)
    assert np.array_equal(project_to_group(matrix, sig), matrix)


def test_project_to_group_stops_at_the_rounding_level(monkeypatch):
    sig = Signature(8, 4)
    noisy = sample_matrix(sig, 5) + 1e-6 * np.random.default_rng(3).standard_normal((12, 12))
    inversions = []
    invert = np.linalg.inv

    def counting_inv(arr):
        inversions.append(arr.shape)
        return invert(arr)

    monkeypatch.setattr(matrix_group.np.linalg, "inv", counting_inv)
    fixed = project_to_group(noisy, sig)
    assert len(inversions) <= 3
    assert check_membership(fixed, sig).ok


def test_project_to_group_rejects_singular():
    with pytest.raises(ValueError):
        project_to_group(np.zeros((2, 2)), Signature(2, 0))


@pytest.mark.parametrize(
    "matrix, sig",
    [([[0, 1], [1, 0]], Signature(1, 1)), ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], SIG21)],
    ids=["1_1", "2_1"],
)
def test_project_to_group_names_a_breakdown(matrix, sig):
    # The axis swap is invertible, but P^T eta P = -eta makes the first
    # Newton step average P with -P; the zero iterate is what is singular.
    with pytest.raises(ValueError, match="^the projection broke down: iterate 1 is singular"):
        project_to_group(matrix, sig)


def test_project_to_group_refuses_an_unconverged_iterate():
    # The first step lands near zero and the iterates need more than 60
    # steps to come back; the 60th, diag(-1.0063, 1.0063), is no member.
    with pytest.raises(ValueError, match="^the projection did not converge: iterate 60 has metric residual"):
        project_to_group([[0, 1], [1, 1e-17]], Signature(1, 1))


# -- minors ---------------------------------------------------------------

def test_so3_complementary_minor_identity():
    # for a special orthogonal matrix each entry equals its complementary minor
    rng = np.random.default_rng(4)
    p = project_to_group(np.eye(3) + 0.2 * rng.standard_normal((3, 3)), SIG30)
    complement = {1: (2, 3), 2: (1, 3), 3: (1, 2)}
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            cof = naive_minor(p.tolist(), complement[a], complement[b])
            assert abs(p[a - 1, b - 1] - (-1) ** (a + b) * cof) <= 1e-12


def test_cauchy_binet_on_group_elements():
    # minors of P^T eta P recombine to the metric's minors
    rng = np.random.default_rng(8)
    for sig in (Signature(2, 0), SIG21, Signature(2, 2)):
        n = sig.n
        eta = metric_matrix(sig)
        p = project_to_group(np.eye(n) + 0.1 * rng.standard_normal((n, n)), sig)
        product = p.T @ eta @ p
        for k in range(1, n + 1):
            rows = tuple(range(1, k + 1))
            assert abs(naive_minor(product.tolist(), rows, rows) - naive_minor(eta.tolist(), rows, rows)) <= 1e-10


def _minor_tables(m: np.ndarray) -> list:
    tables = [batched_minors(m, 0, None)]
    for k in range(1, m.shape[0] + 1):
        tables.append(batched_minors(m, k, tables[-1]))
    return tables


def _closed_form_determinants(blocks: np.ndarray) -> np.ndarray:
    # Determinants over the last two axes by the explicit 1x1, 2x2 and 3x3
    # formulas, which batched_minors used for these sizes before it
    # computed every size by a Laplace step.
    k = blocks.shape[-1]
    if k == 1:
        return blocks[..., 0, 0].copy()
    if k == 2:
        return blocks[..., 0, 0] * blocks[..., 1, 1] - blocks[..., 0, 1] * blocks[..., 1, 0]
    return (
        blocks[..., 0, 0] * (blocks[..., 1, 1] * blocks[..., 2, 2] - blocks[..., 1, 2] * blocks[..., 2, 1])
        - blocks[..., 0, 1] * (blocks[..., 1, 0] * blocks[..., 2, 2] - blocks[..., 1, 2] * blocks[..., 2, 0])
        + blocks[..., 0, 2] * (blocks[..., 1, 0] * blocks[..., 2, 1] - blocks[..., 1, 1] * blocks[..., 2, 0])
    )


def test_batched_minors_match_single_minor():
    rng = np.random.default_rng(23)
    m = rng.uniform(-1, 1, (10, 10))
    for k, (masks, dets) in enumerate(_minor_tables(m)):
        count = math.comb(10, k)
        assert masks.shape == (count,)
        assert dets.shape == (count, count)
        picks = rng.choice(count, size=min(count, 12), replace=False)
        for i in picks:
            for j in picks:
                rows = [r - 1 for r in mask_to_blade(int(masks[i]))]
                cols = [c - 1 for c in mask_to_blade(int(masks[j]))]
                assert abs(dets[i, j] - np.linalg.det(m[np.ix_(rows, cols)])) <= 1e-10


def test_batched_minors_suffix_rows_are_the_last_rows():
    # suffix = r keeps the last r row sets of the full table, bit for bit,
    # from a full or a suffix table below; at grade n/2 the last
    # C(n-1, n/2) masks are those holding the top row
    rng = np.random.default_rng(29)
    for n in (2, 4, 6, 7):
        m = rng.uniform(-1, 1, (n, n))
        full = _minor_tables(m)
        chain = [full[0]]
        for k in range(1, n + 1):
            rows = math.comb(n - 1, k - 1)
            masks, dets = batched_minors(m, k, full[k - 1], rows)
            assert np.array_equal(dets, full[k][1][-rows:])
            assert np.all(masks[-rows:] >> (n - 1) & 1) and not np.any(masks[:-rows] >> (n - 1) & 1)
            chain.append(batched_minors(m, k, chain[-1], 1))
            assert np.array_equal(chain[-1][1], full[k][1][-1:])


def test_batched_minors_up_to_three_are_the_closed_forms():
    # the grade-by-grade Laplace step does the closed forms' arithmetic,
    # so the tables for k <= 3 match them bit for bit
    rng = np.random.default_rng(37)
    for n in (3, 4, 6):
        m = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3, (n, n))
        for k, (masks, dets) in enumerate(_minor_tables(m)[1:4], start=1):
            rows = np.array([[i for i in range(n) if mask >> i & 1] for mask in masks.tolist()])
            blocks = m[rows[:, None, :, None], rows[None, :, None, :]]
            assert np.array_equal(dets, _closed_form_determinants(blocks))


def _row_expansion(m: np.ndarray, k: int, lower: tuple | None, suffix: int = 0) -> tuple:
    # Reference: the first-row Laplace step computed row by row into a
    # C-contiguous (B, A) table, the terms summed in order of j.
    n = m.shape[0]
    masks = np.array([mask for mask in range(1 << n) if mask.bit_count() == k], dtype=np.int64)
    if k == 0:
        return masks, np.ones((1, 1))
    position = {mask: i - lower[0].size for i, mask in enumerate(lower[0].tolist())}
    bits = np.array([[i for i in range(n) if mask >> i & 1] for mask in masks.tolist()])
    first = bits[-suffix:, 0]
    below = lower[1][[position[mask] for mask in (masks[-suffix:] ^ (1 << first)).tolist()]]
    dets = None
    for j in range(k):
        cols = [position[mask] + lower[0].size for mask in (masks ^ (1 << bits[:, j])).tolist()]
        term = below[:, cols] * m[first[:, None], bits[None, :, j]]
        dets = term if j == 0 else dets - term if j % 2 else dets + term
    return masks, dets


def test_batched_minors_match_a_row_expansion_bit_for_bit():
    # every grade at n = 3..10, full tables and chains of suffix tables
    # (the last C(n-1, k-1) row sets, those holding row n - 1)
    rng = np.random.default_rng(43)
    for n in range(3, 11):
        m = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-2, 2, (n, n))
        full = suffixed = expected_full = expected_suffixed = batched_minors(m, 0, None)
        for k in range(1, n + 1):
            rows = math.comb(n - 1, k - 1)
            full, suffixed = batched_minors(m, k, full), batched_minors(m, k, suffixed, rows)
            expected_full = _row_expansion(m, k, expected_full)
            expected_suffixed = _row_expansion(m, k, expected_suffixed, rows)
            for (masks, dets), (expected_masks, expected) in ((full, expected_full), (suffixed, expected_suffixed)):
                assert expected.flags.c_contiguous
                assert np.array_equal(masks, expected_masks) and dets.shape == expected.shape
                assert np.ascontiguousarray(dets).tobytes() == expected.tobytes()


def test_batched_minors_bound_their_temporaries():
    # One gather of all 252^2 blocks of 5 x 5 would trace 12.7 MB; one
    # Laplace step holds a few 252 x 252 arrays.
    m = np.random.default_rng(31).uniform(-1, 1, (10, 10))
    lower = _minor_tables(m)[4]
    tracemalloc.start()
    try:
        batched_minors(m, 5, lower)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024


def test_batched_minors_subsets_are_lexicographic():
    # keyed by blade masks in ascending order: subset (0, 1) first, (2, 3) last
    masks, _ = _minor_tables(np.eye(4))[2]
    assert masks.tolist() == [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]
