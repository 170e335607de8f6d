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
interval reaches. ``sections_near`` pairs each plane only with the
faces near a given point. A pair's corner distances are always
gathered from the one ``verts @ normal`` of its plane's normal, minus
the offset, so a point comes out with the same bits whichever route
cut it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.spatial import cKDTree

from .errors import ContractError
from .mesh import row_dot

__all__ = ["SectionPolyline", "Sections", "cross_section", "cross_sections", "sections_near",
           "extreme_points"]

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
    plane's first polyline, with the end appended. ``crowded_planes``
    flags the planes whose cut was crowded: a chain-neighbour pair, or a
    ring's closing pair, lay within 3 x ``_MIN_POINT_SEP`` before near
    points merged, so only there can the merge have dropped a point.
    ``pairs_visited`` counts the candidate (plane, face) pairs the cut
    tested.
    """

    points: np.ndarray
    starts: np.ndarray
    closed: np.ndarray
    plane_starts: np.ndarray
    crowded_planes: np.ndarray
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
    offset per row. Planes whose normals have the same bits (so -0.0 and
    0.0 differ) project the vertices on it once. Each face is paired only
    with the planes its projected interval [lo, hi] can cross: a face
    crosses the plane at ``o`` only if ``lo < o <= hi + 1e-12`` (the
    on-plane tolerance), found by ``searchsorted`` on the sorted offsets
    (the interval sweep of Minetto et al., CAD 2017).

    Returns
    -------
    Sections
    """
    normals, offsets = _plane_batch(normals, offsets)
    verts, f = mesh.vertices, mesh.faces
    rows, group = np.unique(normals.view(np.dtype((np.void, 24))).ravel(),
                            return_index=True, return_inverse=True)[1:]
    pf, cf, dc = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)], [np.empty((0, 3))]
    for g, row in enumerate(rows):
        planes = np.flatnonzero(group == g)
        order = planes[np.argsort(offsets[planes], kind="stable")]
        corners = (verts @ normals[row])[f]
        lo = np.minimum(np.minimum(corners[:, 0], corners[:, 1]), corners[:, 2])
        hi = np.maximum(np.maximum(corners[:, 0], corners[:, 1]), corners[:, 2])
        first = np.searchsorted(offsets[order], lo, "right")
        counts = np.searchsorted(offsets[order], hi + _ON_PLANE, "right") - first
        c = np.repeat(np.arange(len(f)), counts)
        p = order[np.arange(len(c)) - np.repeat(np.cumsum(counts) - counts - first, counts)]
        pf.append(p)
        cf.append(c)
        dc.append(corners[c] - offsets[p, None])
    pf, cf = np.concatenate(pf), np.concatenate(cf)
    by_plane = np.argsort(pf, kind="stable")
    return _cut_pairs(verts, f, normals, pf[by_plane], cf[by_plane],
                      np.concatenate(dc)[by_plane], len(pf))


def sections_near(mesh, normals, offsets, centres, radius):
    """The cuts of :func:`cross_sections` near ``centres[i]`` (xy), from nearby faces only.

    Plane ``i`` is cut from the faces whose centroid lies within
    ``radius`` + the face's reach of ``centres[i]`` in xy (a cKDTree
    query) and within its reach of the plane. A face's xy reach is its
    largest centroid-to-corner xy distance; towards the plane it is
    weighted by the normal's xy and z parts, with ``_REACH_SLACK`` for the
    1e-9 mm nudge and rounding. Every section point within ``radius`` of
    the centre in xy is therefore in the cut, with the bytes
    :func:`cross_sections` gives it, and so are the faces that join it to
    its chain neighbours. The chains are cut short at the faces left
    out: their direction, order and near-point merges may differ from the
    full cut's. One tree query over all the centres finds the pairs, and
    each plane's corner distances are gathered from its own full
    projection ``verts @ normal - offset``, never a projection of the
    gathered corners, which can round differently.
    """
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
    order = np.lexsort((c[keep], p[keep]))
    p, c = p[keep][order], c[keep][order]
    bounds = np.searchsorted(p, np.arange(len(normals) + 1))
    dc = np.empty((len(p), 3))
    for i, (a, b) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
        dc[a:b] = (verts @ normals[i] - offsets[i])[f[c[a:b]]]
    return _cut_pairs(verts, f, normals, p, c, dc, len(p))


def _cut_pairs(verts, f, normals, pf, cf, dc, pairs_visited):
    """The :class:`Sections` of the planes ``normals`` from (plane, face) pairs.

    ``pf`` is ascending and ``cf`` ascending within each plane; ``dc[k]``
    holds the signed distances of face ``cf[k]``'s corners from plane
    ``pf[k]``, gathered from the projection of the vertices on its normal.
    Pairs whose face does not cross the plane are dropped.
    """
    side = (dc > 0.0) | (np.abs(dc) < _ON_PLANE)
    crossing = (side[:, 0] != side[:, 1]) | (side[:, 1] != side[:, 2])
    pf, cf, dc, su = pf[crossing], cf[crossing], dc[crossing], side[crossing]
    if cf.size == 0:
        return Sections(np.empty((0, 3)), np.zeros(1, dtype=np.int64), np.empty(0, dtype=bool),
                        np.zeros(len(normals) + 1, dtype=np.int64),
                        np.zeros(len(normals), dtype=bool), pairs_visited)

    # Each crossing face has exactly two edges whose endpoints straddle the
    # plane. Nodes are these edges, keyed (plane * nv + lo) * nv + hi so one
    # sort orders them plane-major, then by vertex pair; links are crossing
    # faces, numbered plane-major in face order.
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

    p_lo, du = endpoint(lo, dc[at[:, 0], at[:, 1]])
    p_hi, dv = endpoint(hi, dc[at[:, 0], at[:, 2]])
    t = du / (du - dv)
    points = p_lo + t[:, None] * (p_hi - p_lo)

    nodes, chain_key, closed = _chain(plane, edge_of.reshape(-1, 2))
    bounds = np.flatnonzero(np.diff(chain_key, prepend=-1, append=-1))
    closed = closed[bounds[:-1]]
    keep, sizes, crowded = _merge_near_points(points[nodes], bounds, closed)
    nodes = nodes[keep]
    whole = sizes >= 2
    chain_plane = chain_key[bounds[:-1]] // (2 * len(keys))
    counts = np.bincount(chain_plane[whole], minlength=len(normals))
    return Sections(points[nodes], np.concatenate([[0], np.cumsum(sizes[whole])]), closed[whole],
                    np.concatenate([[0], np.cumsum(counts)]),
                    np.bincount(chain_plane[crowded], minlength=len(normals)) > 0, pairs_visited)


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
    n = len(plane)
    deg = np.bincount(ends.ravel(), minlength=n)
    by_node = np.argsort(ends.ravel(), kind="stable")
    faces_of = by_node // 2   # per node, ascending
    first = np.cumsum(deg) - deg
    branched = np.isin(plane, plane[deg > 2])    # planes crossing a non-manifold edge

    node = np.flatnonzero(~branched)
    roots = np.concatenate([node[deg[node] == 1], node])
    m, r = len(by_node), len(roots)
    graph = sparse.csr_matrix(
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

    Returns the keep mask, each polyline's kept size, and whether it was
    crowded: a neighbour pair, or its closing pair, within 3 x
    ``_MIN_POINT_SEP``, the only polylines a merge can change. A point
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
    crowded = closed & (ends <= 3 * _MIN_POINT_SEP)
    for c in np.flatnonzero(crowded).tolist():
        kept = bounds[c] + np.flatnonzero(keep[bounds[c]:bounds[c + 1]])
        if len(kept) > 1 and np.linalg.norm(pts[kept[0]] - pts[kept[-1]]) <= _MIN_POINT_SEP:
            keep[kept[-1]] = False
    sizes = np.bincount(chain[keep], minlength=len(closed))
    keep &= (sizes >= 2)[chain]
    crowded[chain[near]] = True
    return keep, sizes, crowded


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
    every ``spacing`` mm (:func:`cross_sections`) and keeps, per cut,
    the two points with minimal and maximal coordinate along the in-plane
    horizontal axis.

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
    counters : dict, optional
        Receives ``planes`` and ``pairs_visited``, the (plane, face)
        pairs the cut tested.

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
    offsets = section_offsets(mesh.vertices[:, ax].min(), mesh.vertices[:, ax].max(), spacing)
    sections = cross_sections(mesh, np.tile(np.eye(3)[ax], (len(offsets), 1)), offsets)
    if counters is not None:
        counters.update(planes=len(offsets), pairs_visited=sections.pairs_visited)
    points, bounds = sections.points, sections.point_starts()
    sizes = np.diff(bounds)
    for off in offsets[sizes == 0]:
        warnings.warn(f"empty section at {axis}={off:.3f}", stacklevel=2)
    cut = np.flatnonzero(sizes)
    if not cut.size:
        raise ContractError("no section produced any points")
    starts, sizes = bounds[cut], sizes[cut]
    coords = points[:, other]

    def pick(reduce):
        # per cut: the first point within tie_tol of the extreme coordinate,
        # or, with prefer_z, the first of those with the extreme z
        cand = np.abs(coords - np.repeat(reduce.reduceat(coords, starts), sizes)) <= tie_tol
        if prefer_z is not None:
            top = np.maximum if prefer_z == "max" else np.minimum
            z = np.where(cand, points[:, 2], -np.inf if prefer_z == "max" else np.inf)
            cand &= z == np.repeat(top.reduceat(z, starts), sizes)
        return np.minimum.reduceat(np.where(cand, np.arange(len(coords)), len(coords)), starts)

    # Two distinct picks never share a coordinate: the points at one
    # coordinate are candidates at both ends or at neither, so both ends
    # would pick the same first one. Each cut lists its picks by coordinate.
    lo, hi = pick(np.minimum), pick(np.maximum)
    ends = np.column_stack([lo, hi])
    swap = coords[hi] < coords[lo]
    ends[swap] = ends[swap, ::-1]
    kept = np.zeros(len(cut), dtype=bool)
    if keep_interval is not None:
        kept = (keep_interval[0] <= offsets[cut]) & (offsets[cut] <= keep_interval[1])
    take = np.column_stack([~kept, ~kept & (lo != hi)])
    chosen, keys = [ends[take]], [np.nonzero(take)[0]]
    for i in np.flatnonzero(kept).tolist():
        c = coords[starts[i]:starts[i] + sizes[i]]
        k = max(2, int(keep_count))
        order = np.argsort(c, kind="stable")
        n = min(k // 2, len(order))
        picked = sorted(set(list(order[:n]) + list(order[len(order) - (k - n):])),
                        key=lambda j: c[j])  # ties keep the set's order, as they always did
        chosen.append(starts[i] + np.asarray(picked, dtype=np.intp))
        keys.append(np.full(len(picked), i))
    return points[np.concatenate(chosen)[np.argsort(np.concatenate(keys), kind="stable")]]
