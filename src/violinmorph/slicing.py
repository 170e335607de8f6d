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
from scipy import sparse
from scipy.sparse import csgraph

from .errors import ContractError
from .mesh import row_dot

__all__ = ["SectionPlane", "SectionPolyline", "Sections", "cross_section", "cross_sections",
           "extreme_points"]

_ON_PLANE = 1e-12   # vertices closer than this are nudged off the plane
_NUDGE = 1e-9
_MIN_POINT_SEP = 1e-9
_CHUNK_ELEMENTS = 2 ** 16   # planes x max(vertices, faces) cut in one batch


@dataclass(frozen=True)
class SectionPlane:
    """Plane {q : normal . q = offset}, stored with a unit normal.

    A normal that is not unit length is divided by its norm, and so is the
    offset: ``SectionPlane((0, 0, 2.0), 1.0)`` is the plane z = 0.5.
    """

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=np.float64).reshape(3)
        offset = float(self.offset)
        norm = np.linalg.norm(n)
        if abs(norm - 1.0) > 1e-12:
            if norm == 0:
                raise ContractError("plane normal is zero")
            n, offset = n / norm, offset / norm
        n.flags.writeable = False
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", offset)

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


@dataclass(frozen=True)
class Sections:
    """The cuts of one mesh by a list of planes, one flat block per chunk.

    A block holds its chunk's points, each point's (lo, hi) source edge,
    polyline starts into both, closed flags, and per-plane starts into the
    polylines. Blocks are not joined, so the points are held only once.
    """

    blocks: tuple
    step: int
    n_planes: int

    def __len__(self):
        return self.n_planes

    def _plane(self, i):
        if not 0 <= i < self.n_planes:
            raise IndexError(f"plane {i} out of range for {self.n_planes} planes")
        block = self.blocks[i // self.step]
        k = i % self.step
        return block, block[4][k], block[4][k + 1]

    def plane_points(self, i):
        """All points of plane ``i``, polyline after polyline."""
        (points, _, starts, _, _), j0, j1 = self._plane(i)
        return points[starts[j0]:starts[j1]]

    def polylines(self, i):
        """Plane ``i`` as a list of :class:`SectionPolyline`, in
        :func:`cross_section` order."""
        (points, edges, starts, closed, _), j0, j1 = self._plane(i)
        return [SectionPolyline(points[a:b], bool(c), tuple(map(tuple, edges[a:b].tolist())))
                for a, b, c in zip(starts[j0:j1], starts[j0 + 1:j1 + 1], closed[j0:j1])]


def cross_section(mesh, plane):
    """All intersection polylines of ``mesh`` with ``plane``.

    Vertices within 1e-12 mm of the plane are nudged 1e-9 mm along the
    normal first, so no vertex lies exactly on the plane and every
    crossing face contributes exactly two edge intersections.

    Returns
    -------
    list of SectionPolyline
        Deterministic order: open curves first, then closed ones, each by
        its first source edge. Empty when the plane misses the mesh.
    """
    return cross_sections(mesh, plane.normal[None], [plane.offset]).polylines(0)


def cross_sections(mesh, normals, offsets):
    """:func:`cross_section` of ``mesh`` with every plane ``normals[i] . q = offsets[i]``.

    ``normals`` is a (k, 3) array of unit rows, ``offsets`` holds one
    offset per row. Planes are cut in chunks of at most
    ``_CHUNK_ELEMENTS`` plane x max(vertices, faces) entries, each with
    one set of array operations.

    Returns
    -------
    Sections
    """
    normals = np.asarray(normals, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.float64)
    if normals.shape != (len(offsets), 3) or offsets.ndim != 1:
        raise ContractError(f"plane normals of shape {normals.shape} need a (k, 3) array "
                            f"and one offset each, got {offsets.shape}")
    if not (np.abs(np.sqrt(row_dot(normals, normals)) - 1.0) <= 1e-12).all():
        raise ContractError("plane normals must be unit length within 1e-12")
    step = max(1, _CHUNK_ELEMENTS // max(mesh.n_vertices, mesh.n_faces, 1))
    blocks = tuple(_cut_chunk(mesh.vertices, mesh.faces, normals[i:i + step],
                              offsets[i:i + step])
                   for i in range(0, len(normals), step))
    return Sections(blocks, step, len(normals))


def _cut_chunk(verts, f, normals, offsets):
    """One :class:`Sections` block: the cuts of one chunk of planes."""
    nv = len(verts)
    d = np.empty((len(normals), nv))
    for i, (normal, offset) in enumerate(zip(normals, offsets)):
        d[i] = verts @ normal - offset
    near = np.abs(d) < _ON_PLANE
    side = (d > 0.0) | near
    fs = side[:, f]
    pf, cf = np.nonzero((fs[:, :, 0] != fs[:, :, 1]) | (fs[:, :, 1] != fs[:, :, 2]))
    if cf.size == 0:
        return (np.empty((0, 3)), np.empty((0, 2), dtype=np.int64), np.zeros(1, dtype=np.int64),
                np.empty(0, dtype=bool), np.zeros(len(normals) + 1, dtype=np.int64))

    # Each crossing face has exactly two edges whose endpoints straddle the
    # plane. Nodes are these edges, keyed (plane * nv + lo) * nv + hi so one
    # sort orders them plane-major, then by vertex pair; links are crossing
    # faces, numbered plane-major in face order.
    u = f[cf]
    v = u[:, [1, 2, 0]]                                  # edges (a,b), (b,c), (c,a)
    su = fs[pf, cf]
    rows, cols = np.nonzero(su != su[:, [1, 2, 0]])      # two per face, in edge order
    a, b = u[rows, cols], v[rows, cols]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    keys, edge_of = np.unique((pf[rows] * nv + lo) * nv + hi, return_inverse=True)
    plane, rest = np.divmod(keys, nv * nv)
    lo, hi = np.divmod(rest, nv)

    def endpoint(idx):
        # the nudge of on-plane vertices, applied to the gathered endpoints
        p, dist, moved = verts[idx], d[plane, idx], near[plane, idx]
        if moved.any():
            p[moved] += (_NUDGE - dist[moved])[:, None] * normals[plane[moved]]
            dist[moved] = _NUDGE
        return p, dist

    (p_lo, du), (p_hi, dv) = endpoint(lo), endpoint(hi)
    t = du / (du - dv)
    points = p_lo + t[:, None] * (p_hi - p_lo)

    nodes, chain_key, closed = _chain(plane, edge_of.reshape(-1, 2))
    bounds = np.flatnonzero(np.diff(chain_key, prepend=-1, append=-1))
    closed = closed[bounds[:-1]]
    keep, sizes = _merge_near_points(points[nodes], bounds, closed)
    nodes = nodes[keep]
    whole = sizes >= 2
    counts = np.bincount(chain_key[bounds[:-1]][whole] // (2 * len(keys)), minlength=len(normals))
    return (points[nodes], np.stack([lo, hi], axis=1)[nodes],
            np.concatenate([[0], np.cumsum(sizes[whole])]), closed[whole],
            np.concatenate([[0], np.cumsum(counts)]))


def _chain(plane, ends):
    """Order crossing edges into polylines.

    ``ends[k]`` are the two nodes face ``k`` links. Each plane's open chains
    come first, each starting at its lowest end; then its rings, each
    starting at its lowest node and leaving it by its lower-numbered face.
    Returns the nodes in polyline order, each node's chain key (increasing
    along the output, unique per chain; ``key // (2 * n_nodes)`` is the
    plane) and each node's closed flag.
    """
    n = len(plane)
    deg = np.bincount(ends.ravel(), minlength=n)
    faces_of = np.argsort(ends.ravel(), kind="stable") // 2   # per node, ascending
    first = np.cumsum(deg) - deg
    branched = np.isin(plane, plane[deg > 2])    # planes crossing a non-manifold edge

    links = sparse.coo_matrix((np.ones(len(ends)), (ends[:, 0], ends[:, 1])), shape=(n, n))
    _, label = csgraph.connected_components(links, directed=False)
    node = np.arange(n)
    start = np.full(label.max() + 1, 2 * n)
    np.minimum.at(start, label, np.where(deg == 1, node, node + n))
    ring = start >= n
    start[ring] -= n
    roots = start[~branched[start]]
    # Cut each ring at its start's higher-numbered face; then every chain is
    # a path from its start, and one depth-first pass from a super-root
    # linked to every start lists each chain contiguously, in walk order.
    kept = ~branched[ends[:, 0]]
    kept[faces_of[first[roots[ring[label[roots]]]] + 1]] = False
    a, b = ends[kept, 0], ends[kept, 1]
    graph = sparse.csr_matrix(
        (np.ones(2 * len(a) + len(roots)),
         (np.concatenate([a, b, np.full(len(roots), n)]), np.concatenate([b, a, roots]))),
        shape=(n + 1, n + 1))
    nodes = csgraph.depth_first_order(graph, n, directed=True, return_predecessors=False)[1:]
    chain_key = ((plane[start] * 2 + ring) * n + start)[label[nodes]]
    closed = ring[label[nodes]]

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

    Returns the keep mask and each polyline's kept size. A point more than
    3 x ``_MIN_POINT_SEP`` from its predecessor is kept whatever happened
    before it (the predecessor is kept or merged into a point at most
    ``_MIN_POINT_SEP`` away), so only the points nearer than that take the
    sequential decision, with 1-D norms.
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
    offsets = section_offsets(lo, hi, spacing)
    sections = cross_sections(mesh, np.eye(3)[[ax] * len(offsets)], offsets)
    for i, off in enumerate(offsets):
        pts = sections.plane_points(i)
        if not len(pts):
            warnings.warn(f"empty section at {axis}={off:.3f}", stacklevel=2)
            continue
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
