"""Reference kernels kept as test oracles.

These are the original per-face / per-edge loop versions of
``grid.interpolate_grid``, ``slicing.cross_section`` and
``decimate.decimate``, plus the earlier formulations of the mesh's edge
list, the shortest path (undirected, then unbounded), the nearest-vertex
snap, the contour checks and the registration objective (unmemoized, all
cores). The library's versions must reproduce them bit for bit; the
oracles are slow but transparent, which is what an oracle needs.
"""

import heapq
import math
from collections import defaultdict

import numpy as np
from scipy.sparse import csgraph
from scipy.spatial import cKDTree

from violinmorph.decimate import _BOUNDARY_WEIGHT, _COND_LIMIT
from violinmorph.errors import ContractError, DisconnectedError, TopologicalLockError
from violinmorph.grid import HeightGrid, joint_grid_domain
from violinmorph.mesh import TriangleMesh
from violinmorph import registration
from violinmorph.registration import SimilarityTransform
from violinmorph.slicing import _MIN_POINT_SEP, _NUDGE, _ON_PLANE, SectionPolyline


def interpolate_grid_loop(mesh, spacing=1.0, side="upper", origin=None, shape=None):
    """Per-face loop: rasterize each face's bounding box of lattice nodes."""
    if side not in ("upper", "lower"):
        raise ContractError(f"side must be 'upper' or 'lower', got {side!r}")
    if origin is None or shape is None:
        d_origin, d_shape = joint_grid_domain([mesh], spacing)
        origin = d_origin if origin is None else np.asarray(origin, dtype=np.float64)
        shape = d_shape if shape is None else tuple(shape)
    else:
        origin = np.asarray(origin, dtype=np.float64)
        shape = tuple(shape)
    nx, ny = shape

    values = np.full((nx, ny), -np.inf if side == "upper" else np.inf)
    take = np.maximum if side == "upper" else np.minimum

    v = mesh.vertices
    for tri in mesh.faces:
        a, b, c = v[tri[0]], v[tri[1]], v[tri[2]]
        n = np.cross(b - a, c - a)
        if abs(n[2]) < 1e-12 * np.linalg.norm(n):
            continue  # vertical or degenerate face
        lox, loy = np.minimum(np.minimum(a[:2], b[:2]), c[:2])
        hix, hiy = np.maximum(np.maximum(a[:2], b[:2]), c[:2])
        i0 = max(0, math.ceil((lox - origin[0]) / spacing - 1e-12))
        i1 = min(nx - 1, math.floor((hix - origin[0]) / spacing + 1e-12))
        j0 = max(0, math.ceil((loy - origin[1]) / spacing - 1e-12))
        j1 = min(ny - 1, math.floor((hiy - origin[1]) / spacing + 1e-12))
        if i0 > i1 or j0 > j1:
            continue
        xs = origin[0] + spacing * np.arange(i0, i1 + 1)
        ys = origin[1] + spacing * np.arange(j0, j1 + 1)
        px, py = np.meshgrid(xs, ys, indexing="ij")
        # 2-D barycentric membership in the projected triangle
        d00 = b[:2] - a[:2]
        d01 = c[:2] - a[:2]
        denom = d00[0] * d01[1] - d00[1] * d01[0]
        if abs(denom) < 1e-30:
            continue
        qx = px - a[0]
        qy = py - a[1]
        w1 = (qx * d01[1] - qy * d01[0]) / denom
        w2 = (qy * d00[0] - qx * d00[1]) / denom
        inside = (w1 >= -1e-12) & (w2 >= -1e-12) & (w1 + w2 <= 1 + 1e-12)
        if not inside.any():
            continue
        z = a[2] + ((a[0] - px) * n[0] + (a[1] - py) * n[1]) / n[2]
        block = values[i0:i1 + 1, j0:j1 + 1]
        block[inside] = take(block[inside], z[inside])
        values[i0:i1 + 1, j0:j1 + 1] = block

    values[~np.isfinite(values)] = np.nan
    return HeightGrid(origin, spacing, values)


def mesh_edges_axis0(mesh):
    """Unique sorted vertex pairs by row-wise ``np.unique``, with their face counts."""
    f = mesh.faces
    pairs = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]], axis=0)
    pairs = np.sort(pairs, axis=1)
    return np.unique(pairs, axis=0, return_counts=True)


def dijkstra_undirected(mesh, start):
    """Distances and predecessors of the undirected search on the edge graph."""
    return csgraph.dijkstra(mesh.adjacency, directed=False, indices=start,
                            return_predecessors=True)


def shortest_path_unbounded(mesh, start, goal):
    """Path from one directed search over the whole mesh, without a limit."""
    if start == goal:
        return [start]
    dist, pred = csgraph.dijkstra(mesh.adjacency, directed=True, indices=start,
                                  return_predecessors=True)
    if not np.isfinite(dist[goal]):
        raise DisconnectedError(f"vertices {start} and {goal} are not connected")
    path = [goal]
    while path[-1] != start:
        path.append(int(pred[path[-1]]))
    return path[::-1]


def map_to_vertices_loop(mesh, points):
    """Nearest vertex per point with one tie query per point, duplicates collapsed."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    tree = cKDTree(mesh.vertices)
    dist, idx = tree.query(pts, k=1)
    for i in range(len(pts)):
        ball = tree.query_ball_point(pts[i], dist[i] * (1 + 1e-12) + 1e-300)
        if len(ball) > 1:
            idx[i] = min(ball)
    out = []
    for v in idx.tolist():
        if v not in out:
            out.append(v)
    return out


def repeated_vertex_count(loop):
    """Distinct vertices that appear more than once, by ``list.count``."""
    return len({v for v in loop if loop.count(v) > 1})


def first_non_adjacent_pair(contour, mesh):
    """First cyclic pair of a contour missing from a set of every mesh edge."""
    edge_set = {tuple(e) for e in mesh.edges.tolist()}
    idx = contour.vertex_indices
    for a, b in zip(idx, idx[1:] + idx[:1]):
        if ((a, b) if a < b else (b, a)) not in edge_set:
            return a, b
    return None


class ObjectiveUnmemoized:
    """Registration objective that queries the tree on every call (all cores).

    The tree comes from ``registration.cKDTree``, where tests swap in a
    counting subclass.
    """

    def __init__(self, s, p, metric, normals):
        self.s = s.points
        self.p = p.points
        self.metric = metric
        self.normals = normals.normals if normals is not None else None
        if metric == "point_to_plane_sq" and self.normals is None:
            raise ContractError("point_to_plane_sq needs normals on the reference cloud")
        self.tree = registration.cKDTree(self.p)

    def __call__(self, params):
        x, angles, k = params[0:3], params[3:6], params[6]
        if k <= 1e-9:
            return 1e12 * (1.0 + abs(k))
        t = SimilarityTransform(x, angles, k)
        queries = t.pull_back_points(self.s)
        dist, idx = self.tree.query(queries, k=1, workers=-1)
        if self.metric == "point_to_point":
            return k * float(np.mean(dist))
        if self.metric == "point_to_point_sq":
            return k * k * float(np.mean(dist * dist))
        moved = t.apply_points(self.p[idx])
        proj = np.einsum("ij,ij->i", self.s - moved, self.normals)
        return float(np.mean(proj * proj))


def cross_section_loop(mesh, plane):
    """Dict-based edge collection and face-adjacency chain walk."""
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
    fs = side[f]
    crossing = ~(fs.all(axis=1) | (~fs).all(axis=1))
    if not crossing.any():
        return []

    edge_points = {}        # edge key -> intersection point
    edge_faces = {}         # edge key -> list of crossing face ids
    face_edges = {}         # face id -> (key1, key2)
    for fi in np.flatnonzero(crossing):
        a, b, c = f[fi]
        keys = []
        for u, v in ((a, b), (b, c), (c, a)):
            if side[u] != side[v]:
                key = (u, v) if u < v else (v, u)
                keys.append(key)
                if key not in edge_points:
                    du, dv = d[key[0]], d[key[1]]
                    t = du / (du - dv)
                    edge_points[key] = verts[key[0]] + t * (verts[key[1]] - verts[key[0]])
                edge_faces.setdefault(key, []).append(fi)
        face_edges[fi] = tuple(keys)

    used_faces = set()
    polylines = []

    def walk(start_key):
        chain = [start_key]
        current = start_key
        while True:
            nxt = None
            for fi in sorted(edge_faces[current]):
                if fi in used_faces:
                    continue
                used_faces.add(fi)
                k1, k2 = face_edges[fi]
                nxt = k2 if k1 == current else k1
                break
            if nxt is None:
                return chain, False
            if nxt == start_key:
                return chain, True
            chain.append(nxt)
            current = nxt

    open_starts = sorted(k for k, fl in edge_faces.items() if len(fl) == 1)
    for key in open_starts:
        if all(fi in used_faces for fi in edge_faces[key]):
            continue
        chain, closed = walk(key)
        polylines.append(_make_polyline_loop(chain, closed, edge_points))
    for key in sorted(edge_faces):
        if all(fi in used_faces for fi in edge_faces[key]):
            continue
        chain, closed = walk(key)
        polylines.append(_make_polyline_loop(chain, closed, edge_points))
    return [p for p in polylines if len(p) >= 2]


def _make_polyline_loop(chain, closed, edge_points):
    pts = [edge_points[k] for k in chain]
    keep_pts = [pts[0]]
    keep_edges = [chain[0]]
    for p, k in zip(pts[1:], chain[1:]):
        if np.linalg.norm(p - keep_pts[-1]) > _MIN_POINT_SEP:
            keep_pts.append(p)
            keep_edges.append(k)
    if closed and len(keep_pts) > 1:
        if np.linalg.norm(keep_pts[0] - keep_pts[-1]) <= _MIN_POINT_SEP:
            keep_pts.pop()
            keep_edges.pop()
    return SectionPolyline(np.array(keep_pts), closed, tuple(keep_edges))


def _plane_quadric(normal, d, weight=1.0):
    q = np.empty(4)
    q[:3] = normal
    q[3] = d
    return weight * np.outer(q, q)


def _face_geometry(verts, tri):
    a, b, c = verts[tri[0]], verts[tri[1]], verts[tri[2]]
    n = np.cross(b - a, c - a)
    norm = np.linalg.norm(n)
    return n, norm, a


def _quadric_error(q, p):
    return float(p @ q[:3, :3] @ p + 2.0 * (q[:3, 3] @ p) + q[3, 3])


def _optimal_position(q, p1, p2):
    a = q[:3, :3]
    try:
        cond = np.linalg.cond(a)
    except np.linalg.LinAlgError:
        cond = np.inf
    if np.isfinite(cond) and cond < _COND_LIMIT:
        target = np.linalg.solve(a, -q[:3, 3])
        return target, _quadric_error(q, target)
    candidates = (p1, p2, 0.5 * (p1 + p2))
    errors = [_quadric_error(q, p) for p in candidates]
    best = int(np.argmin(errors))
    return candidates[best], errors[best]


def decimate_loop(mesh, target_faces):
    """Contract minimum-cost edges until at most ``target_faces`` remain.

    Interior collapses remove two faces at a time, so the result can land
    one face below the target. Returns the input unchanged when it
    already has ``target_faces`` faces. Collapses that would flip a
    neighbouring face or pinch the surface into a non-manifold
    configuration are skipped.

    Raises
    ------
    TopologicalLockError
        When every remaining edge is blocked before the target is met.
    """
    target_faces = int(target_faces)
    if target_faces < 1:
        raise ContractError("target face count must be >= 1")
    if target_faces > mesh.n_faces:
        raise ContractError(
            f"target {target_faces} exceeds current face count {mesh.n_faces}"
        )
    if target_faces == mesh.n_faces:
        return mesh

    verts = mesh.vertices.copy()
    faces = [list(f) for f in mesh.faces]
    face_alive = [True] * len(faces)
    vert_faces = defaultdict(set)
    for fi, f in enumerate(faces):
        for v in f:
            vert_faces[v].add(fi)

    # vertex quadrics: incident face planes plus boundary constraints
    quadrics = np.zeros((len(verts), 4, 4))
    edge_count = defaultdict(int)
    edge_face = {}
    for fi, f in enumerate(faces):
        n, norm, a = _face_geometry(verts, f)
        if norm < 1e-30:
            continue
        n = n / norm
        q = _plane_quadric(n, -n @ a)
        for v in f:
            quadrics[v] += q
        for u, v in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            key = (u, v) if u < v else (v, u)
            edge_count[key] += 1
            edge_face[key] = fi
    for key, cnt in edge_count.items():
        if cnt != 1:
            continue
        u, v = key
        n, norm, a = _face_geometry(verts, faces[edge_face[key]])
        if norm < 1e-30:
            continue
        edge_dir = verts[v] - verts[u]
        c = np.cross(n / norm, edge_dir)
        cn = np.linalg.norm(c)
        if cn < 1e-30:
            continue
        c /= cn
        q = _plane_quadric(c, -c @ verts[u], _BOUNDARY_WEIGHT)
        quadrics[u] += q
        quadrics[v] += q

    stamp = defaultdict(int)
    heap = []
    ticket = 0  # heap tie-break; keeps tuple comparison away from arrays

    def neighbours(v):
        out = set()
        for fi in vert_faces[v]:
            out.update(faces[fi])
        out.discard(v)
        return out

    def push_edge(u, v):
        nonlocal ticket
        if u > v:
            u, v = v, u
        q = quadrics[u] + quadrics[v]
        pos, err = _optimal_position(q, verts[u], verts[v])
        ticket += 1
        heapq.heappush(heap, (err, u, v, stamp[u], stamp[v], ticket, pos))

    pushed = set()
    for f in faces:
        for u, v in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            key = (u, v) if u < v else (v, u)
            if key not in pushed:
                pushed.add(key)
                push_edge(*key)

    n_faces = len(faces)

    def face_normal_after(fi, moved, pos):
        f = faces[fi]
        pts = [pos if v == moved else verts[v] for v in f]
        return np.cross(pts[1] - pts[0], pts[2] - pts[0])

    while n_faces > target_faces:
        if not heap:
            raise TopologicalLockError(
                f"no contractible edge left at {n_faces} faces (target {target_faces})"
            )
        err, u, v, su, sv, _, pos = heapq.heappop(heap)
        if stamp[u] != su or stamp[v] != sv:
            continue
        shared = vert_faces[u] & vert_faces[v]
        if not shared:
            continue
        if n_faces - len(shared) < 1:
            continue  # never decimate the surface away entirely
        # link condition: common neighbours must all come from shared faces
        common = neighbours(u) & neighbours(v)
        shared_third = {w for fi in shared for w in faces[fi] if w not in (u, v)}
        if common != shared_third:
            continue
        # reject collapses that flip or squash any surviving face
        ok = True
        for w, other in ((u, v), (v, u)):
            for fi in vert_faces[w] - shared:
                before, norm, _ = _face_geometry(verts, faces[fi])
                after = face_normal_after(fi, w, pos)
                na = np.linalg.norm(after)
                if na < 1e-30 or (norm > 1e-30 and before @ after <= 0):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue

        # contract v into u at the optimal position
        verts[u] = pos
        quadrics[u] = quadrics[u] + quadrics[v]
        for fi in list(shared):
            face_alive[fi] = False
            for w in faces[fi]:
                vert_faces[w].discard(fi)
            n_faces -= 1
        for fi in list(vert_faces[v]):
            faces[fi] = [u if w == v else w for w in faces[fi]]
            vert_faces[u].add(fi)
            vert_faces[v].discard(fi)
        stamp[u] += 1
        stamp[v] += 1
        for w in sorted(neighbours(u)):
            stamp_key = (u, w) if u < w else (w, u)
            push_edge(*stamp_key)

    # compact: drop dead vertices/faces, preserve index order
    used = sorted({w for fi, f in enumerate(faces) if face_alive[fi] for w in f})
    remap = {old: new for new, old in enumerate(used)}
    new_faces = [
        [remap[f[0]], remap[f[1]], remap[f[2]]]
        for fi, f in enumerate(faces)
        if face_alive[fi]
    ]
    return TriangleMesh(verts[used], new_faces)
