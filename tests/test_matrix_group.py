"""Membership checks, minors, and the group projection."""

import math
import tracemalloc

import numpy as np
import pytest

from spincover.clifford_core import Signature
from spincover.matrix_group import (
    MembershipError,
    OrthoMatrix,
    as_square_matrix,
    batched_minors,
    check_membership,
    metric_matrix,
    minor,
    project_to_group,
    require_membership,
)

from oracles import naive_minor

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


def test_require_membership_raises_with_report():
    with pytest.raises(MembershipError) as excinfo:
        require_membership(np.diag([1.0, -1.0]), Signature(2, 0))
    assert excinfo.value.report is not None
    assert not excinfo.value.report.ok
    out = require_membership(rotation_z(0.2), SIG30)
    assert isinstance(out, np.ndarray)


def test_ortho_matrix_validate():
    mat = OrthoMatrix.validate(rotation_z(1.0), SIG30)
    assert mat.sig == SIG30
    with pytest.raises(ValueError):
        mat.entries[0, 0] = 7.0
    with pytest.raises(MembershipError):
        OrthoMatrix.validate(np.diag([1.0, 1.0, -1.0]), SIG30)


def test_ortho_matrix_validate_with_projection():
    noisy = rotation_z(0.4) + 1e-6 * np.ones((3, 3))
    with pytest.raises(MembershipError):
        OrthoMatrix.validate(noisy, SIG30)
    mat = OrthoMatrix.validate(noisy, SIG30, project=True)
    assert check_membership(mat.entries, SIG30).ok


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


def test_project_to_group_rejects_singular():
    with pytest.raises(ValueError):
        project_to_group(np.zeros((2, 2)), Signature(2, 0))


# -- minors ---------------------------------------------------------------

def test_minor_basic_cases():
    m = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 10.0]])
    assert minor(m, (), ()) == 1.0
    assert minor(m, (1,), (2,)) == 2.0
    assert minor(m, (1, 2), (1, 2)) == 1.0 * 5.0 - 2.0 * 4.0
    assert abs(minor(m, (1, 2, 3), (1, 2, 3)) - np.linalg.det(m)) <= 1e-12
    assert minor(m, (2, 3), (1, 3)) == 4.0 * 10.0 - 6.0 * 7.0


def test_minor_validates_indices():
    m = np.eye(3)
    with pytest.raises(ValueError):
        minor(m, (2, 1), (1, 2))  # not ascending
    with pytest.raises(ValueError):
        minor(m, (1, 1), (1, 2))  # repeated
    with pytest.raises(ValueError):
        minor(m, (0,), (1,))  # 1-based
    with pytest.raises(ValueError):
        minor(m, (1, 4), (1, 2))  # out of range
    with pytest.raises(ValueError):
        minor(m, (1,), (1, 2))  # mismatched order


def test_minor_matches_naive_oracle():
    rng = np.random.default_rng(17)
    m = rng.uniform(-2, 2, (5, 5))
    rows_list = [(1,), (2, 4), (1, 3, 5), (1, 2, 3, 4), (1, 2, 3, 4, 5)]
    cols_list = [(3,), (1, 5), (2, 3, 4), (2, 3, 4, 5), (1, 2, 3, 4, 5)]
    for rows, cols in zip(rows_list, cols_list):
        got = minor(m, rows, cols)
        ref = naive_minor([list(r) for r in m], list(rows), list(cols))
        assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))


def test_minor_accepts_ortho_matrix():
    mat = OrthoMatrix.validate(rotation_z(0.3), SIG30)
    assert abs(minor(mat, (1, 2, 3), (1, 2, 3)) - 1.0) <= 1e-12


def test_so3_complementary_minor_identity():
    # for a special orthogonal matrix each entry equals its complementary minor
    rng = np.random.default_rng(4)
    p = project_to_group(np.eye(3) + 0.2 * rng.standard_normal((3, 3)), SIG30)
    complement = {1: (2, 3), 2: (1, 3), 3: (1, 2)}
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            cof = minor(p, complement[a], complement[b])
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
            assert abs(minor(product, rows, rows) - minor(eta, rows, rows)) <= 1e-10


def test_batched_minors_match_single_minor():
    rng = np.random.default_rng(23)
    m = rng.uniform(-1, 1, (6, 6))
    for k in range(0, 7):
        subsets, dets = batched_minors(m, k)
        count = math.comb(6, k)
        assert len(subsets) == count
        assert dets.shape == (count, count)
        for i, rows in enumerate(subsets):
            for j, cols in enumerate(subsets):
                one_based_rows = tuple(r + 1 for r in rows)
                one_based_cols = tuple(c + 1 for c in cols)
                ref = minor(m, one_based_rows, one_based_cols)
                assert abs(dets[i, j] - ref) <= 1e-10


def test_batched_minors_slabs_match_one_stacked_call():
    # n = 10 spreads every size from 4 to 9 over several slabs; each minor
    # is the same LU, so the values agree exactly.
    rng = np.random.default_rng(29)
    m = rng.uniform(-1, 1, (10, 10))
    for k in range(4, 10):
        subsets, dets = batched_minors(m, k)
        rows = np.array(subsets)
        full = np.linalg.det(m[rows[:, None, :, None], rows[None, :, None, :]])
        assert np.array_equal(dets, full)


def test_batched_minors_bound_their_temporaries():
    # One gather of all 252^2 blocks of 5 x 5 would trace 12.7 MB.
    m = np.random.default_rng(31).uniform(-1, 1, (10, 10))
    tracemalloc.start()
    try:
        batched_minors(m, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024


def test_batched_minors_subsets_are_lexicographic():
    subsets, _ = batched_minors(np.eye(4), 2)
    assert subsets[0] == (0, 1)
    assert subsets[-1] == (2, 3)
    assert list(subsets) == sorted(subsets)
