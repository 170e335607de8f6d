"""Average symmetry plane between the two plates of an instrument body.

Orthogonal-regression planes are fitted through the sound board and the
back (their full vertex sets, their contours, or their contours with a
user-masked stretch removed), the acute angle between them is bisected,
both meshes are rotated so the bisecting plane is horizontal, and the
plane offset is refined by averaging sound-board/back midpoints on a
joint 1 mm grid. There is no physical symmetry plane on a real
instrument; this is the reference construction every shape feature
measures against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CollinearityError,
    ContractError,
    InsufficientOverlapError,
    NonAcuteConfigurationError,
)
from .grid import interpolate_grid, joint_grid_domain
from .mesh import PointCloud
from .orientation import rodrigues

__all__ = [
    "FittedPlane",
    "SymmetryFrame",
    "fit_plane_orthogonal",
    "average_symmetry_plane",
    "build_symmetry_frame",
    "CONFIGURATIONS",
]

CONFIGURATIONS = ("two_meshes", "two_contours", "two_contours_masked")


@dataclass(frozen=True)
class FittedPlane:
    """Plane {q : normal . q = offset} with its rms orthogonal residual."""

    normal: np.ndarray
    offset: float
    rms_residual: float = 0.0
    source: str = "fit"

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=np.float64).reshape(3)
        norm = np.linalg.norm(n)
        if abs(norm - 1.0) > 1e-9:
            raise ContractError("plane normal must be unit length")
        if self.rms_residual < 0:
            raise ContractError("rms residual cannot be negative")
        n.flags.writeable = False
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", float(self.offset))
        object.__setattr__(self, "rms_residual", float(self.rms_residual))

    def tilt_deg(self):
        """Angle between the plane and the horizontal, in degrees."""
        return float(np.degrees(np.arccos(np.clip(abs(self.normal[2]), -1.0, 1.0))))


def fit_plane_orthogonal(points, source="fit"):
    """Total-least-squares plane; residuals measured orthogonally.

    The normal is the smallest-eigenvalue eigenvector of the centered
    covariance, signed toward +z.

    Raises
    ------
    CollinearityError
        Fewer than 3 points, or points spanning only a line.
    """
    if isinstance(points, PointCloud):
        points = points.points
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ContractError(f"points must have shape (n, 3), got {pts.shape}")
    if len(pts) < 3:
        raise CollinearityError("need at least 3 points to fit a plane")
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    cov = (centered.T @ centered) / len(pts)
    evals, evecs = np.linalg.eigh(cov)
    if evals[1] <= 1e-12 * max(evals[2], 1e-300):
        raise CollinearityError("points are collinear, plane is underdetermined")
    normal = evecs[:, 0]
    if normal[2] < 0:
        normal = -normal
    elif normal[2] == 0:
        nz = normal[np.nonzero(normal)[0][0]]
        if nz < 0:
            normal = -normal
    rms = float(np.sqrt(max(evals[0], 0.0)))
    return FittedPlane(normal, float(normal @ centroid), rms, source)


def average_symmetry_plane(upper, lower):
    """Plane bisecting the acute angle between two roughly horizontal planes.

    Both normals must lie within 45 degrees of vertical (they are fitted
    toward +z). The offset is the mean of the two plane offsets measured
    along the bisector direction.
    """
    n1, n2 = upper.normal, lower.normal
    half = np.cos(np.radians(45.0))
    if n1[2] < half or n2[2] < half:
        raise NonAcuteConfigurationError(
            "plate planes tilt more than 45 degrees from horizontal"
        )
    b = n1 + n2
    b = b / np.linalg.norm(b)
    offset = 0.5 * (upper.offset * (n1 @ b) + lower.offset * (n2 @ b))
    rms = 0.5 * (upper.rms_residual + lower.rms_residual)
    return FittedPlane(b, offset, rms, source="average")


def _rotation_to_vertical(normal):
    """Rotation matrix sending ``normal`` to +z (identity when aligned)."""
    z = np.array([0.0, 0.0, 1.0])
    c = float(np.clip(normal @ z, -1.0, 1.0))
    axis = np.cross(normal, z)
    s = np.linalg.norm(axis)
    if s < 1e-15:
        return np.eye(3) if c > 0 else np.diag([1.0, -1.0, -1.0])
    return rodrigues(axis / s, s, c)


@dataclass(frozen=True)
class SymmetryFrame:
    """Rotation + vertical offset that put the average plane at z = 0.

    ``offset`` is the mean grid midpoint after rotation; ``n_nodes``
    counts the jointly valid grid nodes behind it. The grids (rotated,
    not yet shifted) are kept for reuse by the asymmetry field.
    """

    rotation: np.ndarray
    offset: float
    n_nodes: int
    config: str = "two_contours_masked"
    angle_deg: float = 0.0
    sound_board_grid: object = field(default=None, repr=False)
    back_grid: object = field(default=None, repr=False)

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        if not np.allclose(r @ r.T, np.eye(3), atol=1e-9):
            raise ContractError("frame rotation is not orthonormal")
        r.flags.writeable = False
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "offset", float(self.offset))

    def apply_points(self, points):
        pts = np.asarray(points, dtype=np.float64)
        out = pts @ self.rotation.T
        out[:, 2] -= self.offset
        return out

    def apply_plate(self, plate):
        return plate.transformed(rotation=self.rotation, translation=(0, 0, -self.offset))

    def as_dict(self):
        return {
            "rotation": self.rotation.tolist(),
            "z_offset_mm": self.offset,
            "n_grid_nodes": self.n_nodes,
            "config": self.config,
            "tilt_angle_deg": self.angle_deg,
        }


def _config_points(plate, config, mask):
    if config == "two_meshes":
        return plate.mesh.vertices
    contour_ids = np.asarray(plate.contour.vertex_indices, dtype=np.int64)
    if config == "two_contours_masked" and mask is not None and len(mask):
        mask.validate(plate.mesh)
        contour_ids = contour_ids[np.isin(contour_ids, mask.as_array(), invert=True)]
        if len(contour_ids) < 3:
            raise ContractError("mask removed almost the whole contour")
    return plate.mesh.vertices[contour_ids]


def build_symmetry_frame(sound_board, back, config="two_contours_masked",
                         mask=None, back_mask=None, spacing=1.0, min_nodes=100):
    """Estimate the symmetry frame from two isolated, co-registered plates.

    Parameters
    ----------
    sound_board, back : PlateMesh
    config : {"two_meshes", "two_contours", "two_contours_masked"}
        Which point sets the orthogonal regressions run on.
    mask, back_mask : VertexMask, optional
        Plate-mesh vertex indices excluded from the contour regression
        (the raised stretch of an isolation contour); only used by the
        masked configuration.
    spacing : float
        Grid pitch (mm) for the offset refinement.

    Raises
    ------
    InsufficientOverlapError
        When fewer than ``min_nodes`` grid nodes see both plates.
    """
    if config not in CONFIGURATIONS:
        raise ContractError(f"unknown config {config!r}, expected one of {CONFIGURATIONS}")
    sb_plane = fit_plane_orthogonal(_config_points(sound_board, config, mask), config)
    bk_plane = fit_plane_orthogonal(_config_points(back, config, back_mask), config)
    avg = average_symmetry_plane(sb_plane, bk_plane)
    rot = _rotation_to_vertical(avg.normal)

    sb_rot = sound_board.mesh.transformed(rotation=rot)
    bk_rot = back.mesh.transformed(rotation=rot)
    origin, shape = joint_grid_domain([sb_rot, bk_rot], spacing)
    sb_grid = interpolate_grid(sb_rot, spacing, side="upper", origin=origin, shape=shape)
    bk_grid = interpolate_grid(bk_rot, spacing, side="lower", origin=origin, shape=shape)
    joint = sb_grid.valid & bk_grid.valid
    n_nodes = int(joint.sum())
    if n_nodes < min_nodes:
        raise InsufficientOverlapError(
            f"only {n_nodes} grid nodes carry both plates (need {min_nodes})"
        )
    midpoints = 0.5 * (sb_grid.values[joint] + bk_grid.values[joint])
    z_bar = float(midpoints.mean())
    return SymmetryFrame(
        rotation=rot,
        offset=z_bar,
        n_nodes=n_nodes,
        config=config,
        angle_deg=avg.tilt_deg(),
        sound_board_grid=sb_grid,
        back_grid=bk_grid,
    )
