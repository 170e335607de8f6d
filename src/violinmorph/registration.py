"""Point-cloud similarity metrics and 7-parameter registration.

The moving cloud undergoes ``p_hat = K (R_theta p + X)``: rotation by the
fixed z.y.x operator product, translation, then uniform scaling of the
translated point. Distances are always measured from the reference cloud
``s`` into the moving cloud (the metrics are deliberately asymmetric; the
more trusted acquisition is the reference).

Three interchangeable metrics: mean nearest-neighbour distance (D), its
mean-square variant (D2) and the squared point-to-plane projection
(D2_plane). Minimization is derivative-free (scipy's Powell method over a
scaled parameter vector); an ICP comparison mode with a closed-form
point-to-plane solve per iteration is provided as well.

Nearest neighbours are exact. One KD-tree is built on the moving cloud;
every objective evaluation maps the reference points through the inverse
transform instead of rebuilding an index on the transformed cloud
(similarity transforms preserve nearest-neighbour assignments, distances
pick up the factor K).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize
from scipy.spatial import cKDTree

from .errors import ContractError
from .mesh import PointCloud, kd_workers
from .orientation import rodrigues

__all__ = [
    "SimilarityTransform",
    "NormalField",
    "RegistrationReport",
    "apply_transform",
    "point_to_point",
    "point_to_point_sq",
    "point_to_plane_sq",
    "estimate_normals",
    "pca_initial_transform",
    "register",
    "register_icp",
]

METRICS = ("point_to_point", "point_to_point_sq", "point_to_plane_sq")


def _rot_x(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[1, 0, 0], [0, c, s], [0, -s, c]])


def _rot_y(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0, -s], [0, 1, 0], [s, 0, c]])


def _rot_z(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, s, 0], [-s, c, 0], [0, 0, 1]])


@dataclass(frozen=True)
class SimilarityTransform:
    """Translation X (mm), rotation angles theta (degrees), scale K.

    The rotation operator is the fixed product z(theta3) . y(theta2) .
    x(theta1) of the matrices above, i.e. the sequence theta1 -> theta2 ->
    theta3. Points map as ``K (R p + X)``: the scale multiplies the
    translated point.
    """

    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    angles_deg: np.ndarray = field(default_factory=lambda: np.zeros(3))
    scale: float = 1.0

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=np.float64).reshape(3).copy()
        a = np.asarray(self.angles_deg, dtype=np.float64).reshape(3).copy()
        if not (np.isfinite(t).all() and np.isfinite(a).all() and np.isfinite(self.scale)):
            raise ContractError("translation, angles and scale must be finite")
        if not self.scale > 0:
            raise ContractError(f"scale must be positive, got {self.scale}")
        t.flags.writeable = False
        a.flags.writeable = False
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "angles_deg", a)
        object.__setattr__(self, "scale", float(self.scale))

    @classmethod
    def identity(cls):
        return cls()

    def rotation_matrix(self):
        t1, t2, t3 = np.deg2rad(self.angles_deg)
        return _rot_z(t3) @ _rot_y(t2) @ _rot_x(t1)

    @classmethod
    def from_rotation_matrix(cls, rot, translation=(0, 0, 0), scale=1.0):
        """Recover the angle triple from an orthonormal matrix of this convention."""
        rot = np.asarray(rot, dtype=np.float64)
        s2 = np.clip(rot[2, 0], -1.0, 1.0)
        t2 = np.arcsin(s2)
        if abs(rot[2, 0]) < 1.0 - 1e-12:
            t3 = np.arctan2(-rot[1, 0], rot[0, 0])
            t1 = np.arctan2(-rot[2, 1], rot[2, 2])
        else:
            # gimbal lock: fold the x-rotation into the z-rotation
            t1 = 0.0
            t3 = np.arctan2(rot[0, 1], rot[1, 1])
        return cls(translation, np.rad2deg([t1, t2, t3]), scale)

    def apply_points(self, points):
        pts = np.asarray(points, dtype=np.float64)
        return self.scale * (pts @ self.rotation_matrix().T + self.translation)

    def pull_back_points(self, points):
        """Map points through the inverse: ``R^T (q / K - X)``."""
        pts = np.asarray(points, dtype=np.float64)
        return (pts / self.scale - self.translation) @ self.rotation_matrix()

    def inverse(self):
        rot = self.rotation_matrix()
        return SimilarityTransform.from_rotation_matrix(
            rot.T, -(rot.T @ self.translation) * self.scale, 1.0 / self.scale
        )

    def as_dict(self):
        return {
            "translation_mm": self.translation.tolist(),
            "angles_deg": self.angles_deg.tolist(),
            "scale": self.scale,
        }


def apply_transform(transform, cloud):
    """Transformed copy of a point cloud."""
    return PointCloud(transform.apply_points(cloud.points))


@dataclass(frozen=True)
class NormalField:
    """Per-point unit normals attached to a reference cloud."""

    normals: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.normals, dtype=np.float64)
        if n.ndim != 2 or n.shape[1] != 3:
            raise ContractError(f"normals must have shape (n, 3), got {n.shape}")
        lengths = np.linalg.norm(n, axis=1)
        if np.any(np.abs(lengths - 1.0) > 1e-9):
            raise ContractError("normals are not unit length")
        n.flags.writeable = False
        object.__setattr__(self, "normals", n)

    def __len__(self):
        return len(self.normals)


def _nn_displacement(s_points, p_points):
    """Displacement from each reference point's nearest neighbour in ``p``."""
    _, idx = cKDTree(p_points).query(s_points, k=1, workers=kd_workers(len(s_points)))
    return s_points - p_points[idx]


def point_to_point(s, p):
    """Mean Euclidean distance from each reference point to its NN in ``p``."""
    diff = _nn_displacement(s.points, p.points)
    return float(np.mean(np.sqrt(np.einsum("ij,ij->i", diff, diff))))


def point_to_point_sq(s, p):
    """Mean squared NN distance (the MSE of the error distribution)."""
    diff = _nn_displacement(s.points, p.points)
    return float(np.mean(np.einsum("ij,ij->i", diff, diff)))


def point_to_plane_sq(s, p, normals):
    """Mean squared projection of the NN displacement on the reference normals."""
    if len(normals) != len(s):
        raise ContractError("normals must cover every reference point")
    diff = _nn_displacement(s.points, p.points)
    proj = np.einsum("ij,ij->i", diff, normals.normals)
    return float(np.mean(proj * proj))


def pca_initial_transform(s, p, allow_scale=True):
    """Coarse alignment of ``p`` onto ``s`` from their principal frames.

    Builds the rotation mapping the moving cloud's principal directions
    onto the reference's, the matching centroid translation, and (when
    allowed) a scale estimate from the total-variance ratio. This is the
    pre-orientation step the minimizers expect: they refine, they do not
    search globally.
    """
    from .orientation import principal_frame

    fs = principal_frame(s)
    fp = principal_frame(p)
    rot = fs.axes.T @ fp.axes
    if allow_scale:
        var_s = np.sum((s.points - fs.centroid) ** 2) / len(s)
        var_p = np.sum((p.points - fp.centroid) ** 2) / len(p)
        k = float(np.sqrt(var_s / var_p))
    else:
        k = 1.0
    x = fs.centroid / k - rot @ fp.centroid
    return SimilarityTransform.from_rotation_matrix(rot, x, k)


def estimate_normals(cloud, k=10):
    """Normals from the PCA of each point's k-neighbourhood covariance.

    The normal is the eigenvector of the smallest eigenvalue. Signs are
    seeded from the +z hemisphere and then smoothed twice against the
    neighbourhood majority; this is consistent for the open, roughly
    horizontal surfaces registration works on (closed surfaces would need
    orientation propagation instead).
    """
    pts = cloud.points
    if k < 3:
        raise ContractError("need k >= 3 neighbours")
    if len(pts) <= k:
        raise ContractError("cloud must contain more than k points")
    tree = cKDTree(pts)
    # the neighbourhood includes the point itself
    _, nbrs = tree.query(pts, k=k + 1, workers=kd_workers(len(pts)))
    local = pts[nbrs]
    centered = local - local.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / (k + 1)
    evals, evecs = np.linalg.eigh(cov)
    normals = evecs[:, :, 0].copy()
    degenerate = evals[:, 1] < 1e-12 * np.maximum(evals[:, 2], 1e-300)
    if degenerate.any():
        warnings.warn(
            f"{int(degenerate.sum())} degenerate neighbourhoods (collinear); "
            "falling back to +z",
            stacklevel=2,
        )
        normals[degenerate] = (0.0, 0.0, 1.0)
    flip = normals[:, 2] < 0
    normals[flip] = -normals[flip]
    for _ in range(2):
        mean_nbr = normals[nbrs].sum(axis=1)
        disagree = np.einsum("ij,ij->i", normals, mean_nbr) < 0
        normals[disagree] = -normals[disagree]
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return NormalField(normals)


@dataclass(frozen=True)
class RegistrationReport:
    """Optimal transform plus the three metric values it achieves.

    ``metrics`` holds D, sqrt(D2) and sqrt(D2_plane) in mm, recomputed
    from the final transform, and ``distances`` the NN distance of each
    reference point into the moved cloud they were computed from. For the
    Powell method ``iterations`` counts scipy's Powell iterations and
    ``objective_history`` is the starting objective followed by the
    objective after each iteration.
    """

    transform: SimilarityTransform
    metrics: dict
    optimized_metric: str
    iterations: int
    converged: bool
    objective_history: tuple = ()
    method: str = "powell"
    distances: np.ndarray = field(default=None, repr=False, compare=False)

    def as_dict(self):
        return {
            "transform": self.transform.as_dict(),
            "metrics_mm": dict(self.metrics),
            "optimized_metric": self.optimized_metric,
            "iterations": self.iterations,
            "converged": self.converged,
            "method": self.method,
        }


class _Objective:
    """Objective over the 7-parameter vector with a frozen KD-tree on p.

    Values are memoized on the exact bytes of the parameter vector: Powell's
    line searches revisit points they have already evaluated.
    """

    def __init__(self, s, p, metric, normals):
        self.s = s.points
        self.p = p.points
        self.metric = metric
        self.normals = normals.normals if normals is not None else None
        if metric == "point_to_plane_sq" and self.normals is None:
            raise ContractError("point_to_plane_sq needs normals on the reference cloud")
        self.tree = cKDTree(self.p)
        self.workers = kd_workers(len(self.s))
        self.memo = {}

    def __call__(self, params):
        key = params.tobytes()
        value = self.memo.get(key)
        if value is None:
            value = self.memo[key] = self._evaluate(params)
        return value

    def _evaluate(self, params):
        x, angles, k = params[0:3], params[3:6], params[6]
        if k <= 1e-9:
            return 1e12 * (1.0 + abs(k))
        t = SimilarityTransform(x, angles, k)
        queries = t.pull_back_points(self.s)
        dist, idx = self.tree.query(queries, k=1, workers=self.workers)
        if self.metric == "point_to_point":
            return k * float(np.mean(dist))
        if self.metric == "point_to_point_sq":
            return k * k * float(np.mean(dist * dist))
        moved = t.apply_points(self.p[idx])
        proj = np.einsum("ij,ij->i", self.s - moved, self.normals)
        return float(np.mean(proj * proj))


# Scaled steps used to make the direction space roughly isotropic:
# millimetres for X, degrees for theta, scale units for K.
_PARAM_STEPS = np.array([1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.01])


def register(s, p, metric="point_to_point", allow_scale=True, init=None,
             normals=None, normal_k=10, ftol=1e-5, max_sweeps=200):
    """Find the similarity transform of the moving cloud that minimizes a metric.

    Parameters
    ----------
    s, p : PointCloud
        Reference and moving cloud; both should be PCA-oriented and
        roughly overlapping already.
    metric : {"point_to_point", "point_to_point_sq", "point_to_plane_sq"}
    allow_scale : bool
        When False, K stays frozen at its initial value.
    init : SimilarityTransform, optional
        Starting point, identity by default.
    normals : NormalField, optional
        Reference-cloud normals for the plane metric (estimated with
        ``normal_k`` neighbours when omitted).
    ftol : float
        Convergence: relative objective improvement across one Powell
        iteration below this value (scipy's ``ftol``).
    max_sweeps : int
        Powell iterations allowed (scipy's ``maxiter``).

    Returns
    -------
    RegistrationReport
        With ``converged=False`` when scipy stops for any reason other than
        convergence (diagnostic, not an error).
    """
    if metric not in METRICS:
        raise ContractError(f"unknown metric {metric!r}, expected one of {METRICS}")
    if metric == "point_to_plane_sq" and normals is None:
        normals = estimate_normals(s, k=normal_k)
    objective = _Objective(s, p, metric, normals)
    t0 = init if init is not None else SimilarityTransform.identity()
    params = np.concatenate([t0.translation, t0.angles_deg, [t0.scale]])

    active = np.arange(7) if allow_scale else np.arange(6)
    steps = _PARAM_STEPS

    def fun(z):
        q = params.copy()
        q[active] = z * steps[active]
        return objective(q)

    z0 = params[active] / steps[active]
    history = [fun(z0)]

    def record(intermediate_result):
        history.append(float(intermediate_result.fun))

    res = minimize(fun, z0, method="Powell", callback=record,
                   options={"ftol": ftol, "maxiter": max_sweeps})
    params[active] = res.x * steps[active]
    final = SimilarityTransform(params[0:3], params[3:6], params[6])
    report_normals = normals if normals is not None else estimate_normals(s, k=normal_k)
    metrics, distances = _metrics_and_distances(s, p, final, report_normals)
    return RegistrationReport(
        transform=final,
        metrics=metrics,
        optimized_metric=metric,
        iterations=int(res.nit),
        converged=bool(res.status == 0),
        objective_history=tuple(history),
        method="powell",
        distances=distances,
    )


def evaluate_metrics(s, p, transform, normals):
    """D, sqrt(D2), sqrt(D2_plane) in mm for a given transform."""
    return _metrics_and_distances(s, p, transform, normals)[0]


def _metrics_and_distances(s, p, transform, normals):
    """``evaluate_metrics``'s dict plus the per-reference-point NN distances
    it was computed from (the registration routes keep them for assess)."""
    if len(normals) != len(s):
        raise ContractError("normals must cover every reference point")
    moved = apply_transform(transform, p)
    diff = _nn_displacement(s.points, moved.points)
    sq = np.einsum("ij,ij->i", diff, diff)
    dist = np.sqrt(sq)
    proj = np.einsum("ij,ij->i", diff, normals.normals)
    metrics = {
        "D": float(np.mean(dist)),
        "sqrt_D2": float(np.sqrt(np.mean(sq))),
        "sqrt_D2_plane": float(np.sqrt(np.mean(proj * proj))),
    }
    return metrics, dist


def _rodrigues(omega):
    angle = np.linalg.norm(omega)
    if angle < 1e-30:
        return np.eye(3)
    return rodrigues(omega / angle, np.sin(angle), np.cos(angle))


def register_icp(s, p, scale=1.0, sample_size=10_000, seed=0, normals=None,
                 normal_k=10, ftol=1e-5, max_iterations=100, init=None):
    """Point-to-plane ICP with a closed-form rigid solve per iteration.

    The scale is external: ``p`` is pre-multiplied by ``scale`` and the
    rigid result is folded back into a 7-parameter transform (``init``'s
    scale, if any, is ignored). A random subset of the reference points
    (seeded, drawn once) drives the solve, trading the exhaustive metric
    for speed.
    """
    if normals is None:
        normals = estimate_normals(s, k=normal_k)
    rng = np.random.default_rng(seed)
    n = len(s)
    take = min(sample_size, n)
    sample = np.sort(rng.choice(n, size=take, replace=False))
    s_pts = s.points[sample]
    s_nrm = normals.normals[sample]
    p_scaled = p.points * float(scale)
    tree = cKDTree(p_scaled)

    if init is not None:
        rot = init.rotation_matrix()
        trans = float(scale) * init.translation.copy()
    else:
        rot = np.eye(3)
        trans = np.zeros(3)
    prev_obj = None
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        # query through the inverse of the current rigid guess
        queries = (s_pts - trans) @ rot
        _, idx = tree.query(queries, k=1, workers=kd_workers(len(queries)))
        q = p_scaled[idx] @ rot.T + trans
        resid = np.einsum("ij,ij->i", s_pts - q, s_nrm)
        obj = float(np.mean(resid * resid))
        if prev_obj is not None and \
                2.0 * abs(prev_obj - obj) <= ftol * (abs(prev_obj) + abs(obj)) + 1e-25:
            converged = True
            break
        prev_obj = obj
        a = np.cross(q, s_nrm)
        mat = np.hstack([a, s_nrm])
        sol, *_ = np.linalg.lstsq(mat, resid, rcond=None)
        rot_inc = _rodrigues(sol[0:3])
        rot = rot_inc @ rot
        trans = rot_inc @ trans + sol[3:6]

    final = SimilarityTransform.from_rotation_matrix(
        rot, trans / float(scale), float(scale)
    )
    metrics, distances = _metrics_and_distances(s, p, final, normals)
    return RegistrationReport(
        transform=final,
        metrics=metrics,
        optimized_metric="point_to_plane_sq",
        iterations=iterations,
        converged=converged,
        objective_history=(),
        method="icp",
        distances=distances,
    )
