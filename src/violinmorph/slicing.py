"""Planar cross-sections of a triangle mesh.

A cut is a set of polylines whose vertices are edge/plane intersections,
chained by walking face adjacency (coincident but topologically separate
lobes are never merged). Sections feed contour isolation, contour lines
and the channel search.

A plane is an array pair: a unit normal and an offset, the plane
{q : normal . q = offset}; a batch of k planes is a (k, 3) array of
normals and k offsets. Every cut runs one kernel over (plane, face)
pairs, from one of two routes. ``cross_sections`` cuts planes across
the whole mesh: each face is paired only with the planes its projected
interval reaches. ``crossings_near`` pairs each plane only with the
faces near a given point and returns the crossing points unchained. A
corner's distance from a plane has one rule, ``x*nx + y*ny + z*nz -
offset`` in explicit products (:func:`_project`): it gives a gathered
corner the bits of the full projection, so a point comes out with the
same bits whichever route cut it. A point is interpolated from its
edge's end below the plane, so its bits do not depend on the vertex
numbering either, and neither do the picks of :func:`extreme_points`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractError
from .mesh import row_dot

__all__ = ["SectionPolyline", "Sections", "Crossings", "cross_section", "cross_sections",
           "crossings_near", "extreme_points"]

AXES = ("x", "y")  # the axes extreme_points sections along
_ON_PLANE = 1e-12   # vertices closer than this are nudged off the plane
_NUDGE = 1e-9
_MIN_POINT_SEP = 1e-9
_REACH_SLACK = 1e-6   # mm added to a face's reach: covers the nudge and rounding


@dataclass(frozen=True)
class SectionPolyline:
    """Ordered intersection points of one connected section curve.

    Each point lies on a mesh edge that crosses the plane. ``closed``
    means the curve returns to its first point (the duplicate closing
    point is not stored).
    """

    points: np.ndarray
    closed: bool

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


@dataclass(frozen=True)
class Sections:
    """The cuts of one mesh by a list of planes, as flat arrays.

    ``points`` holds every plane's points, polyline after polyline.
    ``starts`` holds the polyline starts into it, with the end appended;
    ``closed`` flags the closed polylines; ``plane_starts`` holds each
    plane's first polyline, with the end appended. ``pairs_visited``
    counts the candidate (plane, face) pairs the cut tested.
    """

    points: np.ndarray
    starts: np.ndarray
    closed: np.ndarray
    plane_starts: np.ndarray
    pairs_visited: int

    def __len__(self):
        return len(self.plane_starts) - 1

    def polylines(self, i):
        """Plane ``i`` as a list of :class:`SectionPolyline`, in
        :func:`cross_section` order."""
        if not 0 <= i < len(self):
            raise IndexError(f"plane {i} out of range for {len(self)} planes")
        j0, j1 = self.plane_starts[i], self.plane_starts[i + 1]
        starts, points = self.starts, self.points
        return [SectionPolyline(points[a:b], bool(c))
                for a, b, c in zip(starts[j0:j1], starts[j0 + 1:j1 + 1], self.closed[j0:j1])]

    def point_starts(self):
        """Each plane's first index into ``points``, with the end appended."""
        return self.starts[self.plane_starts]


class Crossings(NamedTuple):
    """Unchained crossing points, one per crossed edge, with each one's plane.

    ``pairs_visited`` counts the (plane, face) pairs tested.
    """

    plane: np.ndarray
    points: np.ndarray
    pairs_visited: int


def _project(points, normal):
    """``points . normal`` over the last axis as ``x*nx + y*ny + z*nz``: a gathered
    corner gets the bits of the projection of all vertices, which a BLAS
    ``verts @ normal`` does not promise (nor the same bits on another kernel)."""
    return (points[..., 0] * normal[..., 0] + points[..., 1] * normal[..., 1]
            + points[..., 2] * normal[..., 2])


def cross_section(mesh, normal, offset):
    """All intersection polylines of ``mesh`` with the plane ``normal . q = offset``.

    ``normal`` must be unit length within 1e-12 and ``offset`` finite, as
    for every plane of :func:`cross_sections`, of which this is the
    one-plane cut. Vertices within 1e-12 mm of the plane are nudged
    1e-9 mm along the normal first, so no vertex lies exactly on the
    plane and every crossing face contributes exactly two edge
    intersections.

    Returns
    -------
    list of SectionPolyline
        Deterministic order: open curves first, then closed ones, each by
        the (lower, higher) vertex pair of the edge its first point lies
        on. Empty when the plane misses the mesh.
    """
    return cross_sections(mesh, [normal], [offset]).polylines(0)


def _plane_batch(normals, offsets):
    """``normals`` and ``offsets`` as float arrays: unit rows, one finite offset each."""
    normals = np.ascontiguousarray(normals, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.float64)
    if offsets.ndim != 1 or normals.shape != (len(offsets), 3):
        raise ContractError(f"plane normals of shape {normals.shape} need a (k, 3) array "
                            f"and one offset each, got {offsets.shape}")
    if not (np.abs(np.sqrt(row_dot(normals, normals)) - 1.0) <= 1e-12).all():
        raise ContractError("plane normals must be unit length within 1e-12")
    if not np.isfinite(offsets).all():
        raise ContractError("plane offsets must be finite")
    return normals, offsets


def cross_sections(mesh, normals, offsets):
    """:func:`cross_section` of ``mesh`` with every plane ``normals[i] . q = offsets[i]``.

    ``normals`` is a (k, 3) array of unit rows, ``offsets`` holds one
    offset per row. Each face is paired only with the planes its
    projected interval can cross (:func:`_sweep`).

    Returns
    -------
    Sections
    """
    normals, offsets = _plane_batch(normals, offsets)
    pf, cf, dc = _sweep(mesh.vertices, mesh.faces, normals, offsets)
    by_plane = np.argsort(pf, kind="stable")
    return _cut_pairs(mesh.vertices, mesh.faces, normals, pf[by_plane], cf[by_plane],
                      dc[by_plane], len(pf))


def _sweep(verts, f, normals, offsets):
    """The (plane, face) pairs of the interval sweep, with each face's corner
    distances from its plane; faces ascending within each distinct normal.

    Planes whose normals have the same bits (so -0.0 and 0.0 differ)
    project the vertices on it once. A face whose projected interval is
    [lo, hi] is paired with the plane at ``o`` only if ``lo < o <= hi +
    1e-12`` (the on-plane tolerance), found by ``searchsorted`` on the
    sorted offsets (the interval sweep of Minetto et al., CAD 2017).
    """
    rows, group = np.unique(normals.view(np.dtype((np.void, 24))).ravel(),
                            return_index=True, return_inverse=True)[1:]
    pf, cf, dc = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)], [np.empty((0, 3))]
    for g, row in enumerate(rows):
        planes = np.flatnonzero(group == g)
        order = planes[np.argsort(offsets[planes], kind="stable")]
        corners = _project(verts, normals[row])[f]
        lo = np.minimum(np.minimum(corners[:, 0], corners[:, 1]), corners[:, 2])
        hi = np.maximum(np.maximum(corners[:, 0], corners[:, 1]), corners[:, 2])
        first = np.searchsorted(offsets[order], lo, "right")
        counts = np.searchsorted(offsets[order], hi + _ON_PLANE, "right") - first
        c = np.repeat(np.arange(len(f)), counts)
        p = order[np.arange(len(c)) - np.repeat(np.cumsum(counts) - counts - first, counts)]
        pf.append(p)
        cf.append(c)
        dc.append(corners[c] - offsets[p, None])
    return np.concatenate(pf), np.concatenate(cf), np.concatenate(dc)


def crossings_near(mesh, normals, offsets, centres, radius):
    """The :class:`Crossings` of each plane ``i`` near ``centres[i]`` (xy), from nearby faces.

    Plane ``i`` is cut from the faces whose centroid lies within
    ``radius`` + the face's reach of ``centres[i]`` in xy (one cKDTree
    query over all the centres) and within its reach of the plane. A
    face's xy reach is its largest centroid-to-corner xy distance; towards
    the plane it is weighted by the normal's xy and z parts, with
    ``_REACH_SLACK`` for the 1e-9 mm nudge and rounding. So every section
    point within ``radius`` of the centre in xy is there, with the bytes
    :func:`cross_sections` gives it. A ``radius`` that is negative or NaN
    is a contract error; an infinite one takes every face.
    """
    if not radius >= 0:
        raise ContractError(f"window radius must be >= 0, got {radius!r}")
    from scipy.spatial import cKDTree

    normals, offsets = _plane_batch(normals, offsets)
    centres = np.asarray(centres, dtype=np.float64).reshape(len(normals), 2)
    verts, f = mesh.vertices, mesh.faces
    centroids = (verts[f[:, 0]] + verts[f[:, 1]] + verts[f[:, 2]]) / 3.0
    reach_xy, reach_z = np.zeros(len(f)), np.zeros(len(f))
    for corner in f.T:
        gap = verts[corner] - centroids
        reach_xy = np.maximum(reach_xy, np.hypot(gap[:, 0], gap[:, 1]))
        reach_z = np.maximum(reach_z, np.abs(gap[:, 2]))
    query = radius + reach_xy.max(initial=0.0) + _REACH_SLACK
    pairs = cKDTree(centres).sparse_distance_matrix(cKDTree(centroids[:, :2]), query,
                                                     output_type="ndarray")
    p, c = pairs["i"].astype(np.intp), pairs["j"].astype(np.intp)
    n = normals[p]
    keep = pairs["v"] <= radius + reach_xy[c] + _REACH_SLACK
    keep &= (np.abs(row_dot(n, centroids[c]) - offsets[p])
             <= np.hypot(n[:, 0], n[:, 1]) * reach_xy[c] + np.abs(n[:, 2]) * reach_z[c]
             + _REACH_SLACK)
    p, c = p[keep], c[keep]
    dc = _project(verts[f[c]], n[keep, None]) - offsets[p, None]
    plane, points, _ = _crossings(verts, f, normals, p, c, dc)
    return Crossings(plane, points, len(p))


def _above(d):
    """Whether a point at signed distance ``d`` counts as above its plane."""
    return (d > 0.0) | (np.abs(d) < _ON_PLANE)


def _sides(dc):
    """Per corner, whether it counts as above its plane; per face, whether it crosses."""
    side = _above(dc)
    return side, (side[:, 0] != side[:, 1]) | (side[:, 1] != side[:, 2])


def straddles(verts, normal, offset):
    """Whether ``verts`` lie on both sides of the plane ``normal . q = offset``,
    by the rule that decides which faces a cut crosses."""
    above = _above(_project(verts, np.asarray(normal, dtype=np.float64)) - offset)
    return bool(above.any() and not above.all())


def _crossings(verts, f, normals, pf, cf, dc):
    """The crossing points of (plane, face) pairs, one per crossed edge.

    ``dc[k]`` holds the signed distances of face ``cf[k]``'s corners from
    plane ``pf[k]``; pairs whose face does not cross the plane are dropped.
    A point is interpolated from its edge's end below the plane, so its
    bits do not depend on the vertex numbering. Returns each point's
    plane, the points ordered by plane and then by their edge's (lower,
    higher) vertex pair, and per crossing face, in pair order, the two
    points it links.
    """
    side, crossing = _sides(dc)
    pf, cf, dc, su = pf[crossing], cf[crossing], dc[crossing], side[crossing]

    # Each crossing face has exactly two edges whose endpoints straddle the
    # plane. Nodes are these edges, keyed (plane * nv + lo) * nv + hi so one
    # sort orders them plane-major, then by vertex pair.
    nv = len(verts)
    u = f[cf]
    v = u[:, [1, 2, 0]]                                  # edges (a,b), (b,c), (c,a)
    rows, cols = np.nonzero(su != su[:, [1, 2, 0]])      # two per face, in edge order
    a, b = u[rows, cols], v[rows, cols]
    swap = a > b
    lo, hi = np.where(swap, b, a), np.where(swap, a, b)
    keys, edge_of = np.unique((pf[rows] * nv + lo) * nv + hi, return_inverse=True)
    plane, rest = np.divmod(keys, nv * nv)
    lo, hi = np.divmod(rest, nv)
    # per node: one pair crossing its edge, and the corners of its lo and hi ends
    at = np.empty((len(keys), 3), dtype=np.intp)
    ends = np.where(swap, (cols + 1) % 3, cols), np.where(swap, cols, (cols + 1) % 3)
    at[edge_of] = np.column_stack([rows, *ends])

    def endpoint(idx, dist):
        # the nudge of on-plane vertices, applied to the gathered endpoints
        p, moved = verts[idx], np.abs(dist) < _ON_PLANE
        if moved.any():
            p[moved] += (_NUDGE - dist[moved])[:, None] * normals[plane[moved]]
            dist[moved] = _NUDGE
        return p, dist

    p_lo, d_lo = endpoint(lo, dc[at[:, 0], at[:, 1]])
    p_hi, d_hi = endpoint(hi, dc[at[:, 0], at[:, 2]])
    # interpolate from the end below the plane: a point's bits follow its
    # edge's geometry, not which end has the lower vertex number
    up = d_lo > 0.0
    p_lo[up], p_hi[up], d_lo[up], d_hi[up] = p_hi[up], p_lo[up], d_hi[up], d_lo[up]
    t = d_lo / (d_lo - d_hi)
    return plane, p_lo + t[:, None] * (p_hi - p_lo), edge_of.reshape(-1, 2)


def _cut_pairs(verts, f, normals, pf, cf, dc, pairs_visited):
    """The :class:`Sections` of the planes ``normals`` from (plane, face) pairs.

    ``pf`` is ascending and ``cf`` ascending within each plane, so the
    links of :func:`_crossings` are numbered plane-major in face order.
    """
    plane, points, links = _crossings(verts, f, normals, pf, cf, dc)
    if not len(plane):
        return Sections(np.empty((0, 3)), np.zeros(1, dtype=np.int64), np.empty(0, dtype=bool),
                        np.zeros(len(normals) + 1, dtype=np.int64), pairs_visited)
    nodes, chain_key, closed = _chain(plane, links)
    bounds = np.flatnonzero(np.diff(chain_key, prepend=-1, append=-1))
    closed = closed[bounds[:-1]]
    keep, sizes = _merge_near_points(points[nodes], bounds, closed)
    nodes = nodes[keep]
    whole = sizes >= 2
    chain_plane = chain_key[bounds[:-1]] // (2 * len(plane))
    counts = np.bincount(chain_plane[whole], minlength=len(normals))
    return Sections(points[nodes], np.concatenate([[0], np.cumsum(sizes[whole])]), closed[whole],
                    np.concatenate([[0], np.cumsum(counts)]), pairs_visited)


def _chain(plane, ends):
    """Order crossing edges into polylines.

    ``ends[k]`` are the two nodes face ``k`` links. Each plane's open chains
    come first, each starting at its lowest end; then its rings, each
    starting at its lowest node and leaving it by its lower-numbered face.
    Returns the nodes in polyline order, each node's chain key (increasing
    along the output, unique per chain; ``key // (2 * n_nodes)`` is the
    plane) and each node's closed flag.

    Planes without a non-manifold edge take one depth-first pass, which
    lists each chain contiguously, in walk order. Row ``v`` of its graph
    holds ``v``'s neighbours in face order. The roots (those planes' open
    ends, then all their nodes) hang off a path of super-roots: ``n + i``
    holds root ``i``, then ``n + i + 1``. So the pass enters each open
    chain at its lowest end and each ring at its lowest node, leaves that
    node by its lower-numbered face, and never rescans a root list. The
    graph is built as CSR directly: COO would sort each row. Planes
    crossing a non-manifold edge take :func:`_walk`.
    """
    from scipy.sparse import csgraph, csr_matrix

    n = len(plane)
    deg = np.bincount(ends.ravel(), minlength=n)
    by_node = np.argsort(ends.ravel(), kind="stable")
    faces_of = by_node // 2   # per node, ascending
    first = np.cumsum(deg) - deg
    branched = np.isin(plane, plane[deg > 2])    # planes crossing a non-manifold edge

    node = np.flatnonzero(~branched)
    roots = np.concatenate([node[deg[node] == 1], node])
    m, r = len(by_node), len(roots)
    graph = csr_matrix(
        (np.ones(m + 2 * r),
         np.concatenate([ends[:, ::-1].ravel()[by_node],
                         np.column_stack([roots, np.arange(n + 1, n + r + 1)]).ravel()]),
         np.concatenate([[0], np.cumsum(deg), m + 2 * np.arange(1, r + 1), [m + 2 * r]])),
        shape=(n + r + 1, n + r + 1))
    order, pred = csgraph.depth_first_order(graph, n, directed=True)
    nodes = order[order < n]
    at = np.flatnonzero(pred[nodes] >= n)
    start = np.repeat(nodes[at], np.diff(at, append=len(nodes)))
    closed = deg[start] == 2
    chain_key = (plane[start] * 2 + closed) * n + start

    if branched.any():
        walked = _walk(np.unique(plane[branched]), plane, deg, faces_of, first, ends)
        nodes = np.concatenate([nodes, walked[0]])
        chain_key = np.concatenate([chain_key, walked[1]])
        closed = np.concatenate([closed, walked[2]])
    order = np.argsort(chain_key, kind="stable")
    return nodes[order], chain_key[order], closed[order]


def _walk(branched_planes, plane, deg, faces_of, first, ends):
    """Sequential face-adjacency walk for planes crossing a non-manifold edge.

    Open ends start chains first, in node order; then every node with an
    unused face does. A chain follows each node's lowest unused face.
    """
    n = len(plane)
    used = np.zeros(len(ends), dtype=bool)
    nodes, keys, closed = [], [], []
    for p in branched_planes.tolist():
        e0, e1 = np.searchsorted(plane, [p, p + 1]).tolist()
        edge_faces = {e: faces_of[first[e]:first[e] + deg[e]].tolist() for e in range(e0, e1)}
        open_starts = [e for e in range(e0, e1) if deg[e] == 1]
        for phase, starts in ((0, open_starts), (1, range(e0, e1))):
            for start in starts:
                if used[edge_faces[start]].all():
                    continue
                chain = [start]
                current = start
                while True:
                    nxt = None
                    for fi in edge_faces[current]:
                        if not used[fi]:
                            used[fi] = True
                            e, g = ends[fi].tolist()
                            nxt = g if e == current else e
                            break
                    if nxt is None or nxt == start:
                        break
                    chain.append(nxt)
                    current = nxt
                nodes += chain
                keys += [(p * 2 + phase) * n + start] * len(chain)
                closed += [nxt is not None] * len(chain)
    return (np.asarray(nodes, dtype=np.int64), np.asarray(keys, dtype=np.int64),
            np.asarray(closed, dtype=bool))


def _merge_near_points(pts, bounds, closed):
    """Drop each point within ``_MIN_POINT_SEP`` of the last kept one, and a
    closed polyline's last kept point when it is that close to the first;
    then polylines left with fewer than two points.

    Returns the keep mask and each polyline's kept size. A point
    more than 3 x ``_MIN_POINT_SEP`` from its predecessor is kept whatever
    happened before it (the predecessor is kept or merged into a point at
    most ``_MIN_POINT_SEP`` away), so only the points nearer than that take
    the sequential decision, with 1-D norms.
    """
    chain = np.repeat(np.arange(len(closed)), np.diff(bounds))
    near = np.zeros(len(pts), dtype=bool)
    near[1:] = np.linalg.norm(np.diff(pts, axis=0), axis=1) <= 3 * _MIN_POINT_SEP
    near[bounds[:-1]] = False
    keep = np.ones(len(pts), dtype=bool)
    last = 0
    for j in np.flatnonzero(near).tolist():
        if not near[j - 1]:
            last = j - 1
        keep[j] = np.linalg.norm(pts[j] - pts[last]) > _MIN_POINT_SEP
        if keep[j]:
            last = j
    ends = np.linalg.norm(pts[bounds[:-1]] - pts[bounds[1:] - 1], axis=1)
    for c in np.flatnonzero(closed & (ends <= 3 * _MIN_POINT_SEP)).tolist():
        kept = bounds[c] + np.flatnonzero(keep[bounds[c]:bounds[c + 1]])
        if len(kept) > 1 and np.linalg.norm(pts[kept[0]] - pts[kept[-1]]) <= _MIN_POINT_SEP:
            keep[kept[-1]] = False
    sizes = np.bincount(chain[keep], minlength=len(closed))
    keep &= (sizes >= 2)[chain]
    return keep, sizes


def section_offsets(lo, hi, spacing):
    """Lattice of plane offsets inside (lo, hi); midpoint fallback when empty."""
    if not spacing > 0:
        raise ContractError("section spacing must be positive")
    start = np.ceil(lo / spacing) * spacing
    offsets = np.arange(start, hi, spacing)
    offsets = offsets[(offsets > lo) & (offsets < hi)]
    if offsets.size == 0:
        offsets = np.array([(lo + hi) / 2.0])
    return offsets


def extreme_points(mesh, axis="x", spacing=1.0, keep_interval=None, keep_count=4,
                   prefer_z=None, tie_tol=0.0, counters=None):
    """Outermost section points seeding a plate contour.

    Cuts the (already oriented) mesh with planes orthogonal to ``axis``
    every ``spacing`` mm and keeps, per cut, two of its crossing points
    (one per crossed edge), one at each end of the in-plane horizontal
    axis. Per end, a point qualifies when its coordinate lies within
    ``tie_tol`` of the extreme and, with ``prefer_z``, its z is the
    extreme z of those; the pick is the qualifying point furthest out,
    equal coordinates breaking on z (in ``prefer_z``'s direction, else
    ascending), then on the coordinate along ``axis``. So the pick
    follows the geometry, not the numbering, and ``tie_tol`` only acts
    together with ``prefer_z``. Two picks within 3 x 1e-9 mm count as one.

    Only the rim faces are cut: of the sweep's pairs that cross a plane, a
    face is kept when its largest in-plane coordinate reaches L -
    ``tie_tol`` - 1e-6 mm, L being the largest face minimum over the
    plane's crossing faces (the cut's extreme is at least L); the min end
    is the mirror case. So every point within ``tie_tol`` of either
    extreme is there. A plane with no crossing point warns.

    Parameters
    ----------
    keep_interval : (lo, hi), optional
        Finite range along ``axis``, lo <= hi, in which ``keep_count``
        points are kept per cut instead of two, for regions where the
        outline is interrupted, e.g. a removed neck: of all the cut's
        points, sorted by (coordinate, z, coordinate along ``axis``), the
        first ``keep_count // 2`` and the last ones, a point within 3 x
        1e-9 mm of the one before it counting as one with it.
    keep_count : int
        Points kept per cut inside ``keep_interval``, at least 2.
    prefer_z : {"max", "min"}, optional
        Of the points within ``tie_tol`` mm of the extreme in-plane
        coordinate, only those at the highest (lowest) z qualify. Lets the
        caller target the upper or lower rim when both plates of a body
        reach equally far out.
    counters : dict, optional
        Receives ``planes`` and ``pairs_visited``, the (plane, face) pairs
        the sweep tested.

    Returns
    -------
    (k, 3) ndarray
        Ordered by section offset, then by in-plane coordinate.
    """
    if axis not in AXES:
        raise ContractError(f"axis must be 'x' or 'y', got {axis!r}")
    if prefer_z not in (None, "max", "min"):
        raise ContractError(f"prefer_z must be 'max', 'min' or None, got {prefer_z!r}")
    if keep_interval is not None and not (np.shape(keep_interval) == (2,)
                                          and np.isfinite(keep_interval).all()
                                          and keep_interval[0] <= keep_interval[1]):
        raise ContractError(f"keep_interval must be a finite (lo, hi) pair with lo <= hi, "
                            f"got {keep_interval!r}")
    if isinstance(keep_count, bool) or not isinstance(keep_count, (int, np.integer)) \
            or keep_count < 2:
        raise ContractError(f"keep_count must be an integer >= 2, got {keep_count!r}")
    ax = "xyz".index(axis)
    other = 1 - ax  # the in-plane horizontal axis (x<->y)
    verts, f = mesh.vertices, mesh.faces
    offsets = section_offsets(verts[:, ax].min(), verts[:, ax].max(), spacing)
    k = len(offsets)
    normals = np.tile(np.eye(3)[ax], (k, 1))
    kept = np.zeros(k, dtype=bool)
    if keep_interval is not None:
        kept = (keep_interval[0] <= offsets) & (offsets <= keep_interval[1])

    pf, cf, dc = _sweep(verts, f, normals, offsets)
    if counters is not None:
        counters.update(planes=k, pairs_visited=len(pf))
    crossing = _sides(dc)[1]
    pf, cf, dc = pf[crossing], cf[crossing], dc[crossing]
    corners = verts[f[cf], other]
    lo = np.minimum(np.minimum(corners[:, 0], corners[:, 1]), corners[:, 2])
    hi = np.maximum(np.maximum(corners[:, 0], corners[:, 1]), corners[:, 2])
    top, bottom = np.full(k, -np.inf), np.full(k, np.inf)
    np.maximum.at(top, pf, lo)
    np.minimum.at(bottom, pf, hi)
    reach = tie_tol + _REACH_SLACK
    rim = (hi >= top[pf] - reach) | (lo <= bottom[pf] + reach) | kept[pf]
    plane, points, _ = _crossings(verts, f, normals, pf[rim], cf[rim], dc[rim])

    sizes = np.bincount(plane, minlength=k)
    for off in offsets[sizes == 0]:
        warnings.warn(f"empty section at {axis}={off:.3f}", stacklevel=2)
    if not len(plane):
        raise ContractError("no section produced any points")
    got = sizes > 0
    starts, two = (np.cumsum(sizes) - sizes)[got], ~kept[got]
    ends = [_pick(points, plane, other, ax, starts, sizes[got], reduce, prefer_z, tie_tol)[two]
            for reduce in (np.minimum, np.maximum)]
    chosen, keys = _ends(points, other, *ends, np.flatnonzero(got)[two])

    # the kept planes: all their points in order, near ones as one
    order = np.flatnonzero(kept[plane])
    p = points[order]
    order = order[np.lexsort((p[:, ax], p[:, 2], p[:, other], plane[order]))]
    step = np.diff(points[order], axis=0, prepend=np.full((1, 3), np.inf))
    order = order[(np.diff(plane[order], prepend=-1) != 0)
                  | (np.linalg.norm(step, axis=1) > 3 * _MIN_POINT_SEP)]
    group = plane[order]
    size = np.bincount(group, minlength=k)
    rank = np.arange(len(group)) - (np.cumsum(size) - size)[group]
    take = (rank < keep_count // 2) | (rank >= size[group] - (keep_count - keep_count // 2))
    keys = np.concatenate([keys, group[take]])
    return np.concatenate([chosen, points[order[take]]])[np.argsort(keys, kind="stable")]


def _pick(points, plane, other, ax, starts, sizes, reduce, prefer_z, tie_tol):
    """Per plane (``starts``, ``sizes`` into ``points``, grouped by
    ``plane``; none empty), the index of the point picked at the end
    ``reduce`` finds.

    A point qualifies when its ``other`` coordinate lies within
    ``tie_tol`` of the plane's extreme and, with ``prefer_z``, its z is
    the extreme z of those. One lexsort by plane, qualification, the
    coordinate outward, z (in ``prefer_z``'s direction, else ascending)
    and the ``ax`` coordinate puts each plane's pick first.
    """
    coords = points[:, other]
    cand = np.abs(coords - np.repeat(reduce.reduceat(coords, starts), sizes)) <= tie_tol
    z = points[:, 2]
    if prefer_z is not None:
        top = np.maximum if prefer_z == "max" else np.minimum
        zc = np.where(cand, z, -np.inf if prefer_z == "max" else np.inf)
        cand &= zc == np.repeat(top.reduceat(zc, starts), sizes)
    order = np.lexsort((points[:, ax], -z if prefer_z == "max" else z,
                        coords if reduce is np.minimum else -coords, ~cand, plane))
    return order[starts]


def _ends(points, other, lo, hi, groups):
    """The points picked at both ends of each group, listed by coordinate
    (once when the two lie within 3 x ``_MIN_POINT_SEP``, as when both ends
    pick the same point), and the group of each.

    Two distinct picks never share a coordinate: points at one coordinate
    qualify at both ends or at neither, and both ends break a tie in
    coordinate by the same key, so both would pick the same point.
    """
    coords = points[:, other]
    ends = np.column_stack([lo, hi])
    swap = coords[hi] < coords[lo]
    ends[swap] = ends[swap, ::-1]
    apart = np.linalg.norm(points[hi] - points[lo], axis=1) > 3 * _MIN_POINT_SEP
    take = np.column_stack([np.ones(len(lo), dtype=bool), apart])
    return points[ends[take]], groups[np.nonzero(take)[0]]
