"""PCA alignment of a body or plate mesh with the coordinate frame.

The principal frame sends the longest extent to x, the middle one to y and
the thinnest to z, which places the approximate symmetry plane of a plate
pair near Oxy. Downstream slicing and symmetry estimation assume this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, RankDeficiencyError
from .mesh import TriangleMesh

__all__ = ["PrincipalFrame", "principal_frame", "orient_to_frame", "rodrigues"]

_TIE_TOL = 1e-9


@dataclass(frozen=True)
class PrincipalFrame:
    """Centroid plus three orthonormal axes ordered by descending variance.

    The axes form a right-handed basis (determinant +1). Axis signs are
    deterministic: see :func:`principal_frame`.
    """

    centroid: np.ndarray
    axes: np.ndarray  # rows: first, second, third principal direction

    def __post_init__(self):
        c = np.asarray(self.centroid, dtype=np.float64).reshape(3)
        a = np.asarray(self.axes, dtype=np.float64).reshape(3, 3)
        gram = a @ a.T
        if not np.allclose(gram, np.eye(3), atol=1e-9):
            raise ContractError("frame axes are not orthonormal")
        if np.linalg.det(a) < 0:
            raise ContractError("frame axes are not right-handed")
        c.flags.writeable = False
        a.flags.writeable = False
        object.__setattr__(self, "centroid", c)
        object.__setattr__(self, "axes", a)


def _fix_sign(axis, world_index):
    """Flip ``axis`` so its dot with the world axis is >= 0 (lexicographic tie-break)."""
    d = axis[world_index]
    if d > _TIE_TOL:
        return axis
    if d < -_TIE_TOL:
        return -axis
    # Tie: keep the lexicographically larger of {axis, -axis}.
    for x in axis:
        if x > 0:
            return axis
        if x < 0:
            return -axis
    return axis


def principal_frame(cloud):
    """Eigen-frame of the population covariance of a point cloud.

    Axis signs are fixed so the first axis has a non-negative dot product
    with +x, the second with +y; the third is their cross product, which
    keeps the frame right-handed (and points toward +z whenever the frame
    is within a quarter turn of the world frame, the post-orientation
    regime every caller operates in).

    Raises
    ------
    RankDeficiencyError
        When two eigenvalues coincide within 1e-12 relative tolerance (the
        third axis would be arbitrary), or the covariance is singular.
    """
    if isinstance(cloud, TriangleMesh):
        cloud = cloud.point_cloud()
    pts = cloud.points
    if len(pts) < 4:
        raise ContractError("need at least 4 points for a principal frame")
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    cov = (centered.T @ centered) / len(pts)
    evals, evecs = np.linalg.eigh(cov)  # ascending
    scale = evals[-1]
    if scale <= 0:
        raise RankDeficiencyError("covariance is zero (all points coincide)")
    gaps = np.diff(evals) / scale
    if np.any(gaps < 1e-12) or evals[0] / scale < 1e-12:
        raise RankDeficiencyError(
            f"degenerate covariance spectrum {evals.tolist()} "
            "(repeated or vanishing eigenvalue)"
        )
    first = _fix_sign(evecs[:, 2], 0)
    second = _fix_sign(evecs[:, 1], 1)
    third = np.cross(first, second)
    return PrincipalFrame(centroid, np.vstack([first, second, third]))


def orient_to_frame(mesh, frame):
    """Express mesh vertices in ``frame``: centroid at the origin, axes to xyz.

    The mapping ``v -> axes @ (v - centroid)`` is an isometry, so all
    pairwise distances are preserved.
    """
    v = (mesh.vertices - frame.centroid) @ frame.axes.T
    return TriangleMesh(v, mesh.faces)


def rodrigues(axis, s, c):
    """Rotation about the unit ``axis`` by the angle of sine ``s``, cosine ``c``."""
    k = np.array([
        [0, -axis[2], axis[1]],
        [axis[2], 0, -axis[0]],
        [-axis[1], axis[0], 0],
    ])
    return np.eye(3) + s * k + (1 - c) * (k @ k)
