import math

import numpy as np
import pytest
from scipy.linalg import subspace_angles as scipy_subspace_angles

from vancal.subspaces import (
    OrientedSubspace,
    coordinate_plane,
    intersect_and_split,
    principal_angles,
    rotated_plane_pair,
    subspace_hausdorff_distance,
)


def random_rotation(N, rng):
    q, _ = np.linalg.qr(rng.standard_normal((N, N)))
    return q


def test_rank_validation():
    with pytest.raises(ValueError, match="rank deficient"):
        OrientedSubspace(3, np.array([[1.0, 0.0, 0.0], [1.0, 1e-13, 0.0]]))


def test_orthonormal_basis_preserves_orientation():
    rng = np.random.default_rng(0)
    basis = rng.standard_normal((3, 5))
    sub = OrientedSubspace(5, basis)
    q = sub.orthonormal_basis()
    assert np.allclose(q @ q.T, np.eye(3), atol=1e-12)
    change = basis @ q.T  # basis rows = change @ q rows
    assert np.linalg.det(change) > 0.0


def test_orthogonal_planes_r4():
    pair = intersect_and_split(coordinate_plane(4, (0, 1)), coordinate_plane(4, (2, 3)))
    assert pair.intersection_dim == 0
    assert np.allclose(pair.principal_angles, math.pi / 2, atol=1e-12)
    assert pair.principal_angles.min() == pytest.approx(math.pi / 2)
    assert pair.principal_angles.max() == pytest.approx(math.pi / 2)


def test_shared_axis_planes():
    pair = intersect_and_split(coordinate_plane(4, (0, 1)), coordinate_plane(4, (0, 2)))
    assert pair.intersection_dim == 1
    assert pair.intersection.contains(np.array([1.0, 0, 0, 0]))
    assert pair.complement1.contains(np.array([0.0, 1, 0, 0]))
    assert pair.complement2.contains(np.array([0.0, 0, 1, 0]))
    assert pair.principal_angles == pytest.approx([math.pi / 2])


def test_equal_planes():
    p = coordinate_plane(4, (0, 1))
    pair = intersect_and_split(p, p)
    assert pair.intersection_dim == 2
    assert pair.principal_angles.size == 0


def test_coordinate_subspace_intersection_counts_shared_axes():
    cases = [((0, 1, 2), (0, 1, 3), 2), ((0, 1, 2), (3, 4, 5), 0), ((0, 1, 2), (2, 3, 4), 1)]
    for ax1, ax2, expected in cases:
        pair = intersect_and_split(coordinate_plane(6, ax1), coordinate_plane(6, ax2))
        assert pair.intersection_dim == expected


def test_single_angle_rotated_pair():
    alpha = 0.37
    p1, p2 = rotated_plane_pair(4, 2, [alpha])
    angles = principal_angles(p1, p2)
    assert angles == pytest.approx([0.0, alpha], abs=1e-12)
    pair = intersect_and_split(p1, p2)
    assert pair.intersection_dim == 1
    assert pair.principal_angles.min() == pytest.approx(alpha)
    assert pair.principal_angles.max() == pytest.approx(alpha)


def test_prescribed_angle_conventions():
    # complements with angles (pi/2, pi/6): smallest pi/6, largest pi/2
    p1, p2 = rotated_plane_pair(6, 2, [math.pi / 2, math.pi / 6])
    pair = intersect_and_split(p1, p2)
    assert pair.principal_angles.min() == pytest.approx(math.pi / 6)
    assert pair.principal_angles.max() == pytest.approx(math.pi / 2)


def test_principal_angles_match_scipy():
    rng = np.random.default_rng(1)
    for _ in range(10):
        b1 = rng.standard_normal((3, 7))
        b2 = rng.standard_normal((3, 7))
        ours = np.sort(principal_angles(OrientedSubspace(7, b1), OrientedSubspace(7, b2)))
        ref = np.sort(scipy_subspace_angles(b1.T, b2.T))
        assert np.allclose(ours, ref, atol=1e-10)


def test_principal_angles_symmetric():
    rng = np.random.default_rng(2)
    a = OrientedSubspace(6, rng.standard_normal((3, 6)))
    b = OrientedSubspace(6, rng.standard_normal((3, 6)))
    assert np.allclose(principal_angles(a, b), principal_angles(b, a), atol=1e-12)


def test_rotation_invariance_of_spectrum():
    # compare cosines: arccos amplifies roundoff to sqrt(eps) near zero angles
    rng = np.random.default_rng(3)
    p1, p2 = rotated_plane_pair(6, 3, [0.3, 0.7])
    base = principal_angles(p1, p2)
    for _ in range(5):
        rot = random_rotation(6, rng)
        r1 = OrientedSubspace(6, p1.basis @ rot.T)
        r2 = OrientedSubspace(6, p2.basis @ rot.T)
        rotated = principal_angles(r1, r2)
        assert np.allclose(np.cos(rotated), np.cos(base), atol=1e-10)
        assert np.allclose(rotated, base, atol=1e-7)


def test_rotation_invariance_of_intersection_recovery():
    rng = np.random.default_rng(4)
    p1 = coordinate_plane(6, (0, 1, 2))
    p2 = coordinate_plane(6, (2, 3, 4))
    base = intersect_and_split(p1, p2)
    for _ in range(5):
        rot = random_rotation(6, rng)
        pair = intersect_and_split(
            OrientedSubspace(6, p1.basis @ rot.T), OrientedSubspace(6, p2.basis @ rot.T)
        )
        rotated_intersection = OrientedSubspace(6, base.intersection.basis @ rot.T)
        assert subspace_hausdorff_distance(pair.intersection, rotated_intersection) < 1e-8


def test_min_principal_positive_iff_transverse_complements():
    # complements are transverse by construction; the angle must be positive
    rng = np.random.default_rng(5)
    for _ in range(10):
        b1 = rng.standard_normal((3, 7))
        b2 = rng.standard_normal((3, 7))
        pair = intersect_and_split(OrientedSubspace(7, b1), OrientedSubspace(7, b2))
        if pair.principal_angles.size:
            assert pair.principal_angles.min() > 1e-5


def test_split_factors_orthogonal_to_intersection():
    pair = intersect_and_split(coordinate_plane(5, (0, 1, 2)), coordinate_plane(5, (0, 3, 4)))
    q_int = pair.intersection.orthonormal_basis()
    for compl in (pair.complement1, pair.complement2):
        cross = q_int @ compl.orthonormal_basis().T
        assert np.max(np.abs(cross)) < 1e-12


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="equal dimension"):
        intersect_and_split(coordinate_plane(4, (0, 1)), coordinate_plane(4, (0, 1, 2)))
    with pytest.raises(ValueError, match="ambient"):
        principal_angles(coordinate_plane(4, (0, 1)), coordinate_plane(5, (0, 1)))
