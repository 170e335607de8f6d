"""Planar cross-sections of a triangle mesh.

A cut is a set of polylines whose vertices are edge/plane intersections,
chained by walking face adjacency (coincident but topologically separate
lobes are never merged). Sections feed contour isolation, contour lines
and the channel search.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError

__all__ = ["SectionPlane", "SectionPolyline", "cross_section", "extreme_points"]

_ON_PLANE = 1e-12   # vertices closer than this are nudged off the plane
_NUDGE = 1e-9
_MIN_POINT_SEP = 1e-9


@dataclass(frozen=True)
class SectionPlane:
    """Plane {q : normal . q = offset} with a unit normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=np.float64).reshape(3)
        norm = np.linalg.norm(n)
        if abs(norm - 1.0) > 1e-12:
            if norm == 0:
                raise ContractError("plane normal is zero")
            n = n / norm
        n.flags.writeable = False
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", float(self.offset))

    @classmethod
    def orthogonal_to(cls, axis, value):
        """Plane orthogonal to a coordinate axis at the given coordinate."""
        i = "xyz".index(axis)
        n = np.zeros(3)
        n[i] = 1.0
        return cls(n, value)


@dataclass(frozen=True)
class SectionPolyline:
    """Ordered intersection points of one connected section curve.

    ``source_edges`` holds, per point, the (a, b) mesh-vertex pair of the
    edge the point was interpolated on. ``closed`` means the curve returns
    to its first point (the duplicate closing point is not stored).
    """

    points: np.ndarray
    closed: bool
    source_edges: tuple = field(repr=False, default=())

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return len(self.points)

    @property
    def length(self):
        """Polyline length, including the closing segment when closed."""
        if len(self.points) < 2:
            return 0.0
        segs = np.linalg.norm(np.diff(self.points, axis=0), axis=1).sum()
        if self.closed:
            segs += np.linalg.norm(self.points[0] - self.points[-1])
        return float(segs)


def cross_section(mesh, plane):
    """All intersection polylines of ``mesh`` with ``plane``.

    Vertices within 1e-12 mm of the plane are nudged 1e-9 mm along the
    normal first, so no vertex lies exactly on the plane and every
    crossing face contributes exactly two edge intersections.

    Returns
    -------
    list of SectionPolyline
        Deterministic order (by smallest source-edge key). Empty when the
        plane misses the mesh.
    """
    verts = mesh.vertices
    d = verts @ plane.normal - plane.offset
    near = np.abs(d) < _ON_PLANE
    if near.any():
        verts = verts.copy()
        verts[near] += (_NUDGE - d[near])[:, None] * plane.normal
        d = d.copy()
        d[near] = _NUDGE

    side = d > 0.0
    f = mesh.faces
    s0, s1, s2 = side[f[:, 0]], side[f[:, 1]], side[f[:, 2]]
    cf = np.flatnonzero((s0 != s1) | (s1 != s2))
    if cf.size == 0:
        return []

    # Each crossing face has exactly two edges whose endpoints straddle
    # the plane; identify them by canonical (min, max) vertex pairs, keyed
    # lo * nv + hi so that sorting keys sorts the pairs.
    u = f[cf]
    v = u[:, [1, 2, 0]]                              # edges (a,b), (b,c), (c,a)
    rows, cols = np.nonzero(side[u] != side[v])      # two per face, in edge order
    lo = np.minimum(u[rows, cols], v[rows, cols])
    hi = np.maximum(u[rows, cols], v[rows, cols])
    keys, edge_of = np.unique(lo * len(verts) + hi, return_inverse=True)
    lo, hi = np.divmod(keys, len(verts))
    du, dv = d[lo], d[hi]
    t = du / (du - dv)
    edge_points = verts[lo] + t[:, None] * (verts[hi] - verts[lo])
    edge_keys = list(zip(lo.tolist(), hi.tolist()))

    # Chain: nodes are crossing edges (numbered in key order), links are
    # faces (numbered in face order). Open chains start at degree-1 nodes;
    # what remains are cycles.
    order = np.argsort(edge_of, kind="stable")   # faces ascending within an edge
    bounds = np.searchsorted(edge_of[order], np.arange(len(keys) + 1)).tolist()
    flat = (order // 2).tolist()
    edge_faces = [flat[bounds[e]:bounds[e + 1]] for e in range(len(keys))]
    face_edges = edge_of.reshape(-1, 2).tolist()
    used_faces = [False] * len(cf)
    polylines = []

    def walk(start):
        chain = [start]
        current = start
        while True:
            nxt = None
            for fi in edge_faces[current]:
                if used_faces[fi]:
                    continue
                used_faces[fi] = True
                e1, e2 = face_edges[fi]
                nxt = e2 if e1 == current else e1
                break
            if nxt is None:
                return chain, False
            if nxt == start:
                return chain, True
            chain.append(nxt)
            current = nxt

    open_starts = [e for e, fl in enumerate(edge_faces) if len(fl) == 1]
    for start in open_starts + list(range(len(keys))):
        if all(used_faces[fi] for fi in edge_faces[start]):
            continue
        chain, closed = walk(start)
        polylines.append(_make_polyline(chain, closed, edge_points, edge_keys))
    return [p for p in polylines if len(p) >= 2]


def _make_polyline(chain, closed, edge_points, edge_keys):
    pts = edge_points[chain]
    # Fast path: no consecutive pair is near the merge distance (the margin
    # covers rounding differences between the batched and 1-D norms).
    if np.all(np.linalg.norm(np.diff(pts, axis=0), axis=1) > 2 * _MIN_POINT_SEP):
        keep = chain
    else:
        keep = [chain[0]]
        for k in chain[1:]:
            if np.linalg.norm(edge_points[k] - edge_points[keep[-1]]) > _MIN_POINT_SEP:
                keep.append(k)
    if closed and len(keep) > 1:
        if np.linalg.norm(edge_points[keep[0]] - edge_points[keep[-1]]) <= _MIN_POINT_SEP:
            keep = keep[:-1]
    return SectionPolyline(edge_points[keep], closed, tuple(edge_keys[k] for k in keep))


def section_offsets(lo, hi, spacing):
    """Lattice of plane offsets inside (lo, hi); midpoint fallback when empty."""
    if spacing <= 0:
        raise ContractError("section spacing must be positive")
    start = np.ceil(lo / spacing) * spacing
    offsets = np.arange(start, hi, spacing)
    offsets = offsets[(offsets > lo) & (offsets < hi)]
    if offsets.size == 0:
        offsets = np.array([(lo + hi) / 2.0])
    return offsets


def extreme_points(mesh, axis="x", spacing=1.0, keep_interval=None, keep_count=4,
                   prefer_z=None, tie_tol=0.0):
    """Outermost section points seeding a plate contour.

    Cuts the (already oriented) mesh with planes orthogonal to ``axis``
    every ``spacing`` mm and keeps, per cut, the two points with minimal
    and maximal coordinate along the in-plane horizontal axis.

    Parameters
    ----------
    keep_interval : (lo, hi), optional
        Range along ``axis`` in which more than two points are retained
        per cut (``keep_count`` of them, split between both ends), for
        regions where the outline is interrupted, e.g. a removed neck.
    keep_count : int
        Points kept per cut inside ``keep_interval``.
    prefer_z : {"max", "min"}, optional
        With ``tie_tol`` > 0, candidates within ``tie_tol`` mm of the
        extreme in-plane coordinate are re-ranked by z. Lets the caller
        target the upper or lower rim when both plates of a body reach
        equally far out.

    Returns
    -------
    (k, 3) ndarray
        Ordered by section offset, then by in-plane coordinate.
    """
    if axis not in ("x", "y"):
        raise ContractError(f"axis must be 'x' or 'y', got {axis!r}")
    if prefer_z not in (None, "max", "min"):
        raise ContractError(f"prefer_z must be 'max', 'min' or None, got {prefer_z!r}")
    ax = "xyz".index(axis)
    other = 1 - ax  # the in-plane horizontal axis (x<->y)
    lo = mesh.vertices[:, ax].min()
    hi = mesh.vertices[:, ax].max()

    def pick_extreme(pts, coords, end):
        best = coords.min() if end == "lo" else coords.max()
        cand = np.flatnonzero(np.abs(coords - best) <= tie_tol)
        if prefer_z is None or len(cand) == 1:
            return int(cand[0])
        z = pts[cand, 2]
        return int(cand[np.argmax(z) if prefer_z == "max" else np.argmin(z)])

    result = []
    for off in section_offsets(lo, hi, spacing):
        polys = cross_section(mesh, SectionPlane.orthogonal_to(axis, off))
        if not polys:
            warnings.warn(f"empty section at {axis}={off:.3f}", stacklevel=2)
            continue
        pts = np.concatenate([p.points for p in polys], axis=0)
        coords = pts[:, other]
        if keep_interval is not None and keep_interval[0] <= off <= keep_interval[1]:
            k = max(2, int(keep_count))
            order = np.argsort(coords, kind="stable")
            take = min(k // 2, len(order))
            chosen = list(order[:take]) + list(order[len(order) - (k - take):])
        else:
            chosen = [pick_extreme(pts, coords, "lo"), pick_extreme(pts, coords, "hi")]
        section_pts = pts[sorted(set(chosen), key=lambda i: coords[i])]
        result.append(section_pts)
    if not result:
        raise ContractError("no section produced any points")
    return np.concatenate(result, axis=0)


def export_polylines_csv(polylines, path):
    """Write polylines as x,y,z CSV rows, blank-line separated."""
    with open(path, "w", newline="\n") as fh:
        fh.write("x,y,z\n")
        for i, poly in enumerate(polylines):
            if i:
                fh.write("\n")
            for p in poly.points:
                fh.write(f"{p[0]:.9g},{p[1]:.9g},{p[2]:.9g}\n")
