"""Reference kernels kept as test oracles.

These are the original per-face / per-edge loop versions of
``grid.interpolate_grid``, ``slicing.cross_section``,
``decimate.decimate``, the per-station loop that placed the channel's
section planes, the all-pairs scan that ``slicing.cross_sections``
ran before its interval sweep, the component-labelling chain order of
``slicing._chain``, the channel search cutting every station
across the whole plate with that scan, ``slicing.extreme_points``
picking per cut in a loop over it, then picking from a chained full
cut of every plane, ``isolation.close_contour`` searching each
anchor pair on its own, and the ascii and binary PLY body
readers, the per-row f-string writers of every text artifact (CSV,
JSON, PLY, OBJ), plus the earlier
formulations of the mesh's edge list, the shortest path (undirected,
then unbounded), the nearest-vertex snap, the greedy anchor tour built
by one sort per step, the contour checks and the
registration objective (unmemoized, all cores), the per-sector loops
that built the synthetic discs, skirts and bodies, and the per-label
component scan. The library's versions must reproduce them bit for bit; the
oracles are slow but transparent, which is what an oracle needs.
"""

import heapq
import json
import math
import os
import struct
import warnings
from collections import defaultdict

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.interpolate import splev, splprep
from scipy.spatial import cKDTree

from violinmorph.decimate import _BOUNDARY_WEIGHT, _COND_LIMIT
from violinmorph.errors import (
    ContractError, DisconnectedError, MeshFormatError, TopologicalLockError,
)
from violinmorph.fileio import _triangulate, _vertex_layout
from violinmorph.grid import HeightGrid, joint_grid_domain
from violinmorph.isolation import ANCHOR, INSERTED, ClosedContour
from violinmorph.mesh import TriangleMesh, shortest_path
from violinmorph import morphology, registration, slicing, synthetic
from violinmorph.morphology import ChannelTrace
from violinmorph.registration import SimilarityTransform
from violinmorph.slicing import (
    _MIN_POINT_SEP, _NUDGE, _ON_PLANE, SectionPolyline, _cut_pairs, _plane_batch, _walk,
)


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


def order_loop_sorted(mesh, anchors):
    """Greedy tour by one ``sorted`` of the unvisited anchors per step, keyed
    on (distance, anchor), then the same 2-opt pass and canonical rotation."""
    anchors = [int(a) for a in anchors]
    if len(set(anchors)) != len(anchors):
        raise ContractError("anchors contain duplicates")
    n = len(anchors)
    if n < 3:
        raise ContractError("need at least 3 anchors")
    pts = mesh.vertices[anchors]
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))

    start = int(np.argmin(anchors))
    unvisited = set(range(n))
    unvisited.remove(start)
    tour = [start]
    while unvisited:
        here = tour[-1]
        cand = sorted(unvisited, key=lambda j: (dist[here, j], anchors[j]))
        tour.append(cand[0])
        unvisited.remove(cand[0])
    tour = np.asarray(tour)

    budget = 10 * n * n
    spent = 0
    while spent < budget:
        nxt = np.roll(tour, -1)
        a = pts[tour]
        b = pts[nxt]
        d_edge = dist[tour, nxt]
        i_idx, j_idx = np.triu_indices(n, k=1)
        keep = j_idx - i_idx < n - 1
        i_idx, j_idx = i_idx[keep], j_idx[keep]
        spent += len(i_idx)
        new1 = np.linalg.norm(a[i_idx] - a[j_idx], axis=1)
        new2 = np.linalg.norm(b[i_idx] - b[j_idx], axis=1)
        delta = new1 + new2 - d_edge[i_idx] - d_edge[j_idx]
        best = int(np.argmin(delta))
        if delta[best] >= -1e-12:
            break
        i, j = int(i_idx[best]), int(j_idx[best])
        tour[i + 1:j + 1] = tour[i + 1:j + 1][::-1]

    pos = int(np.argmin([anchors[t] for t in tour]))
    tour = np.roll(tour, -pos)
    if anchors[tour[1]] > anchors[tour[-1]]:
        tour = np.concatenate([tour[:1], tour[1:][::-1]])
    return [anchors[t] for t in tour]


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
    counting subclass. Every reference point is sent to the tree with
    ``k=1`` on every call, and the counters say so.
    """

    def __init__(self, s, p, metric, normals):
        self.s = s.points
        self.p = p.points
        self.metric = metric
        self.normals = normals.normals if normals is not None else None
        if metric == "point_to_plane_sq" and self.normals is None:
            raise ContractError("point_to_plane_sq needs normals on the reference cloud")
        self.tree = registration.cKDTree(self.p)
        self.evaluations = 0
        self.tree_points = 0

    def __call__(self, params):
        self.evaluations += 1
        x, angles, k = params[0:3], params[3:6], params[6]
        if k <= 1e-9:
            return 1e12 * (1.0 + abs(k))
        t = SimilarityTransform(x, angles, k)
        queries = t.pull_back_points(self.s)
        self.tree_points += len(queries)
        dist, idx = self.tree.query(queries, k=1, workers=-1)
        if self.metric == "point_to_point":
            return k * float(np.mean(dist))
        if self.metric == "point_to_point_sq":
            return k * k * float(np.mean(dist * dist))
        moved = t.apply_points(self.p[idx])
        proj = np.einsum("ij,ij->i", self.s - moved, self.normals)
        return float(np.mean(proj * proj))


def cross_section_loop(mesh, normal, offset):
    """Dict-based edge collection and face-adjacency chain walk."""
    normal, offset = np.asarray(normal, dtype=np.float64), float(offset)
    verts = mesh.vertices
    d = verts[:, 0] * normal[0] + verts[:, 1] * normal[1] + verts[:, 2] * normal[2] - offset
    near = np.abs(d) < _ON_PLANE
    if near.any():
        verts = verts.copy()
        verts[near] += (_NUDGE - d[near])[:, None] * normal
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
                    below, above = key if side[key[1]] else key[::-1]
                    t = d[below] / (d[below] - d[above])
                    edge_points[key] = verts[below] + t * (verts[above] - verts[below])
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


def channel_stations_loop(spline, station_t, centroid_xy):
    """``morphology._stations`` one station at a time, with two scalar spline
    calls and one plane (normal, offset) per station."""
    kept, centres, normals, offsets, inward = [], [], [], [], []
    for t in station_t:
        c = spline(t)
        deriv = spline(t, 1)
        tau = deriv[:2]
        norm = np.linalg.norm(tau)
        kept.append(not norm < 1e-12)
        if not kept[-1]:
            continue
        tau = tau / norm
        direction = np.array([-tau[1], tau[0]])
        if direction @ (centroid_xy - c[:2]) < 0:
            direction = -direction
        centres.append(c)
        normals.append((tau[0], tau[1], 0.0))
        offsets.append(float(tau @ c[:2]))
        inward.append(direction)
    return (np.array(kept), np.array(centres).reshape(-1, 3), np.array(normals).reshape(-1, 3),
            np.array(offsets), np.array(inward).reshape(-1, 2))


def _make_polyline_loop(chain, closed, edge_points):
    pts = [edge_points[k] for k in chain]
    keep_pts = [pts[0]]
    for p in pts[1:]:
        if np.linalg.norm(p - keep_pts[-1]) > _MIN_POINT_SEP:
            keep_pts.append(p)
    if closed and len(keep_pts) > 1:
        if np.linalg.norm(keep_pts[0] - keep_pts[-1]) <= _MIN_POINT_SEP:
            keep_pts.pop()
    return SectionPolyline(np.array(keep_pts), closed)


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


def read_ply_ascii_body_loop(fh, elements, path, lineno):
    """``fileio``'s ascii PLY body reader: one Python line at a time.

    It reads only the tokens it needs, so it also loads records that do
    not match their header (a vertex line shorter or longer than declared,
    a face line missing or adding a trailing token).
    """
    xi = yi = zi = 0
    vertices, faces = [], []
    for name, count, props, _ in elements:
        if name == "vertex":
            xi, yi, zi = _vertex_layout(props, path)
        lists = [idx_code is not None for _, _, idx_code in props]
        face_at = next((i for i, (pname, _, _) in enumerate(props)
                        if lists[i] and pname in ("vertex_indices", "vertex_index")), None)
        lead = lists[:face_at]
        for _ in range(count):
            raw = fh.readline()
            lineno += 1
            if not raw:
                raise MeshFormatError("unexpected EOF in PLY body", path, line=lineno)
            tokens = raw.split()
            if name == "vertex":
                try:
                    vertices.append(
                        (float(tokens[xi]), float(tokens[yi]), float(tokens[zi]))
                    )
                except (ValueError, IndexError):
                    raise MeshFormatError("bad vertex record", path, line=lineno) from None
            elif name == "face" and face_at is not None:
                try:
                    at = 0  # a scalar ahead of the index list takes one token, a list 1 + count
                    for listed in lead:
                        at += 1 + int(tokens[at]) if listed else 1
                    k = int(tokens[at])
                    idx = [int(t) for t in tokens[at + 1:at + 1 + k]]
                except (ValueError, IndexError):
                    raise MeshFormatError("bad face record", path, line=lineno) from None
                if len(idx) != k:
                    raise MeshFormatError("face list shorter than declared", path, line=lineno)
                faces.extend(_triangulate(idx, path, lineno))
            # other elements are skipped line-by-line
    return vertices, faces


def read_ply_body_loop(fh, fmt, elements, path, lineno):
    """``fileio._read_ply_body`` as the two record loops above, one per encoding."""
    if fmt == "ply-ascii":
        return read_ply_ascii_body_loop(fh, elements, path, lineno)
    return read_ply_binary_body_loop(fh, elements, path)


def read_ply_binary_body_loop(fh, elements, path):
    """``fileio``'s binary PLY body reader: ``struct`` per vertex and per face."""
    vertices, faces = [], []
    file_size = os.fstat(fh.fileno()).st_size
    for name, count, props, lineno in elements:
        # every record takes at least its scalars and its list counts
        least = sum(struct.calcsize(idx_code or code) for _, code, idx_code in props)
        if count * least > file_size - fh.tell():
            raise MeshFormatError(
                f"element {name!r} declares {count} records, more than the file holds",
                path, line=lineno,
            )
        if name == "vertex":
            xi, yi, zi = _vertex_layout(props, path)
            fmt = "<" + "".join(code for _, code, _ in props)
            size = struct.calcsize(fmt)
            blob = fh.read(size * count)
            if len(blob) != size * count:
                raise MeshFormatError("truncated vertex data", path, offset=fh.tell())
            for rec in struct.iter_unpack(fmt, blob):
                vertices.append((rec[xi], rec[yi], rec[zi]))
        else:
            for _ in range(count if props else 0):  # no properties, no bytes
                for pname, code, idx_code in props:
                    if idx_code is None:
                        blob = fh.read(struct.calcsize(code))
                        if len(blob) < struct.calcsize(code):
                            raise MeshFormatError("truncated data", path, offset=fh.tell())
                        continue
                    nraw = fh.read(struct.calcsize(idx_code))
                    if not nraw:
                        raise MeshFormatError("truncated list count", path, offset=fh.tell())
                    (k,) = struct.unpack("<" + idx_code, nraw)
                    if struct.calcsize(code) * k > file_size - fh.tell():
                        raise MeshFormatError("list longer than the file", path, offset=fh.tell())
                    body = fh.read(struct.calcsize(code) * k)
                    if len(body) < struct.calcsize(code) * k:
                        raise MeshFormatError("truncated list data", path, offset=fh.tell())
                    if name == "face" and pname in ("vertex_indices", "vertex_index"):
                        idx = list(struct.unpack("<" + code * k, body))
                        faces.extend(_triangulate(idx, path, None))
    return vertices, faces


# ---------------------------------------------------------------------------
# Text artifacts, written row by row as the modules did before ``fileio`` owned
# the format. Each takes the same arguments as the writer it pins.

def write_json(payload, path):
    """``cli._write_json``; the grid header, contour index and asymmetry stats
    were written the same way."""
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_vertex_mask(mask, path):
    with open(path, "w", newline="\n") as fh:
        for i in sorted(mask.indices):
            fh.write(f"{i}\n")


def save_contour_file(plate, path):
    """``isolation.save_plate``'s contour index file."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# side={plate.side}\n")
        for idx, src in zip(plate.contour.vertex_indices, plate.contour.source):
            fh.write(f"{idx} # {src}\n")


def save_contour_csv(points, path):
    """``cli.isolate_stage``'s ``<side>_contour.csv``."""
    with open(path, "w", newline="\n") as fh:
        fh.write("x,y,z\n")
        for q in points:
            fh.write(f"{q[0]:.9g},{q[1]:.9g},{q[2]:.9g}\n")


def save_heatmap_csv(distribution, path):
    with open(path, "w", newline="\n") as fh:
        fh.write("x,y,z,distance_mm\n")
        for p, d in zip(distribution.positions, distribution.distances):
            fh.write(f"{p[0]:.9g},{p[1]:.9g},{p[2]:.9g},{d:.9g}\n")


def export_polylines_csv(polylines, path):
    with open(path, "w", newline="\n") as fh:
        fh.write("x,y,z\n")
        for i, poly in enumerate(polylines):
            if i:
                fh.write("\n")
            for p in poly.points:
                fh.write(f"{p[0]:.9g},{p[1]:.9g},{p[2]:.9g}\n")


def save_contour_lines(lineset, out_dir, stem):
    index = {"side": lineset.side, "spacing_mm": lineset.spacing,
             "base_level_mm": lineset.base_level, "levels": []}
    paths = []
    for level, polys in zip(lineset.levels, lineset.polylines):
        fname = f"{stem}_level_{level:+.3f}.csv".replace("+", "p").replace("-", "m")
        paths.append(out_dir / fname)
        export_polylines_csv(polys, paths[-1])
        index["levels"].append({"level_mm": level, "file": fname})
    paths.append(out_dir / f"{stem}_index.json")
    write_json(index, paths[-1])
    return paths


def save_asymmetry(field, out_dir, stem):
    paths = [out_dir / f"{stem}_{suffix}"
             for suffix in ("grid.csv", "grid.json", "stats.json", "histogram.csv")]
    grid_csv, grid_json, stats_json, histogram_csv = paths
    grid = field.grid
    np.savetxt(grid_csv, grid.values, delimiter=",", fmt="%.9g")
    write_json({"origin_mm": grid.origin.tolist(), "spacing_mm": grid.spacing,
                "shape": list(grid.shape)}, grid_json)
    write_json({"stats_mm": field.stats, "excluded_nodes": field.excluded_nodes}, stats_json)
    with open(histogram_csv, "w", newline="\n") as fh:
        fh.write("bin_lo_mm,bin_hi_mm,count\n")
        for lo, hi, n in zip(field.histogram_edges[:-1], field.histogram_edges[1:],
                             field.histogram_counts):
            fh.write(f"{lo:.9g},{hi:.9g},{int(n)}\n")
    return paths


def save_channel(trace, path):
    with open(path, "w", newline="\n") as fh:
        fh.write("arc_length_mm,x,y,z,smoothed_x,smoothed_y,smoothed_z,inward_offset_mm\n")
        for arc, p, q, off in zip(trace.arc_lengths, trace.points,
                                  trace.smoothed_points, trace.inward_offsets):
            fh.write(
                f"{arc:.9g},{p[0]:.9g},{p[1]:.9g},{p[2]:.9g},"
                f"{q[0]:.9g},{q[1]:.9g},{q[2]:.9g},{off:.9g}\n"
            )


def format_float(x):
    return format(float(x), ".9g")


def save_ply_ascii(mesh, path):
    with open(path, "w", newline="\n") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {mesh.n_vertices}\n")
        fh.write("property double x\nproperty double y\nproperty double z\n")
        fh.write(f"element face {mesh.n_faces}\n")
        fh.write("property list uchar int vertex_indices\nend_header\n")
        for v in mesh.vertices:
            fh.write(f"{format_float(v[0])} {format_float(v[1])} {format_float(v[2])}\n")
        for f in mesh.faces:
            fh.write(f"3 {f[0]} {f[1]} {f[2]}\n")


def save_ply_binary(mesh, path):
    header = (
        "ply\nformat binary_little_endian 1.0\n"
        f"element vertex {mesh.n_vertices}\n"
        "property double x\nproperty double y\nproperty double z\n"
        f"element face {mesh.n_faces}\n"
        "property list uchar int vertex_indices\nend_header\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(mesh.vertices, dtype="<f8").tobytes())
        if mesh.n_faces:
            counts = np.full((mesh.n_faces, 1), 3, dtype=np.uint8)
            idx = np.ascontiguousarray(mesh.faces, dtype="<i4")
            rec = np.empty(mesh.n_faces, dtype=[("n", "u1"), ("v", "<i4", (3,))])
            rec["n"] = counts[:, 0]
            rec["v"] = idx
            fh.write(rec.tobytes())


def save_obj(mesh, path):
    with open(path, "w", newline="\n") as fh:
        for v in mesh.vertices:
            fh.write(f"v {format_float(v[0])} {format_float(v[1])} {format_float(v[2])}\n")
        for f in mesh.faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


SAVE_MESH = {"ply-ascii": save_ply_ascii, "ply-binary-le": save_ply_binary, "obj": save_obj}


# ---------------------------------------------------------------------------
# Synthetic surfaces and components, as built one sector and one label at a
# time before ``synthetic._strip``/``_rings`` and the sorted grouping.

def disc_mesh_loop(footprint, height, rings, sectors, jitter=0.0, rng=None):
    """``synthetic._disc_mesh`` with faces and boundary listed per sector."""
    thetas = 2 * np.pi * np.arange(sectors) / sectors
    fracs = np.arange(1, rings + 1) / rings
    if jitter > 0:
        rng = rng or np.random.default_rng(0)
        tj = thetas[None, :] + jitter * (2 * np.pi / sectors) * (
            rng.random((rings, sectors)) - 0.5
        )
        fj = fracs[:, None] + jitter * (1.0 / rings) * (rng.random((rings, sectors)) - 0.5)
        fj[-1, :] = 1.0
        tj[-1, :] = thetas
    else:
        tj = np.broadcast_to(thetas, (rings, sectors)).copy()
        fj = np.broadcast_to(fracs[:, None], (rings, sectors)).copy()
    rho = footprint(tj)
    x = fj * rho * np.cos(tj)
    y = fj * rho * np.sin(tj)
    z = height(x, y)
    verts = [np.array([0.0, 0.0, float(height(np.zeros(1), np.zeros(1))[0])])]
    verts = np.vstack([verts, np.column_stack([x.ravel(), y.ravel(), z.ravel()])])

    def vid(i, j):
        return 1 + i * sectors + (j % sectors)

    faces = []
    for j in range(sectors):
        faces.append([0, vid(0, j), vid(0, j + 1)])
    for i in range(rings - 1):
        for j in range(sectors):
            a, b = vid(i, j), vid(i, j + 1)
            c, d = vid(i + 1, j), vid(i + 1, j + 1)
            faces.append([a, b, d])
            faces.append([a, d, c])
    boundary = [vid(rings - 1, j) for j in range(sectors)]
    return TriangleMesh(verts, faces), boundary


def _ring_faces(prev_ring, ring_ids, sectors):
    ring_faces = []
    for j in range(sectors):
        a0, a1 = prev_ring[j], prev_ring[(j + 1) % sectors]
        b0, b1 = ring_ids[j], ring_ids[(j + 1) % sectors]
        ring_faces.append([a0, a1, b1])
        ring_faces.append([a0, b1, b0])
    return np.asarray(ring_faces)


def skirted_plate_loop(a=60.0, b=45.0, height=8.0, rings=70, sectors=240,
                       skirt_rings=6, skirt_drop=6.0, skirt_inset=2.0):
    """``synthetic.skirted_plate`` with the skirt built ring by ring."""
    rho = synthetic._ellipse(a, b)
    mesh, rim = disc_mesh_loop(rho, synthetic._dome(max(a, b), height), rings, sectors)
    verts = [mesh.vertices]
    faces = [mesh.faces]
    rim_z = mesh.vertices[rim, 2]
    n_plate = mesh.n_vertices
    prev_ring = list(rim)
    next_id = n_plate
    skirt_ids = []
    thetas = 2 * np.pi * np.arange(sectors) / sectors
    for k in range(1, skirt_rings + 1):
        t = k / skirt_rings
        shrink = 1.0 - skirt_inset * t / max(a, b)
        ring_xy = np.column_stack([
            shrink * rho(thetas) * np.cos(thetas),
            shrink * rho(thetas) * np.sin(thetas),
        ])
        ring_ids = list(range(next_id, next_id + sectors))
        next_id += sectors
        skirt_ids.extend(ring_ids)
        verts.append(np.column_stack([ring_xy, rim_z - skirt_drop * t]))
        faces.append(_ring_faces(prev_ring, ring_ids, sectors))
        prev_ring = ring_ids
    full = TriangleMesh(np.vstack(verts), np.vstack(faces))
    labels = {"plate": np.arange(n_plate), "rim": np.asarray(rim),
              "skirt": np.asarray(skirt_ids)}
    return full, labels


def instrument_body_loop(a=60.0, b=45.0, arch=8.0, rib_height=18.0,
                         rings=50, sectors=200, rib_rings=8, rib_inset=2.0):
    """``synthetic.instrument_body`` with the ribs and closing strip built ring by ring."""
    rho = synthetic._ellipse(a, b)
    top, top_rim = disc_mesh_loop(rho, synthetic._dome(max(a, b), arch), rings, sectors)
    top_verts = top.vertices.copy()
    top_verts[:, 2] += rib_height / 2.0
    bottom, bottom_rim = disc_mesh_loop(rho, synthetic._dome(max(a, b), arch), rings, sectors)
    bot_verts = bottom.vertices.copy()
    bot_verts[:, 2] = -rib_height / 2.0 - bot_verts[:, 2]
    verts = [top_verts, bot_verts]
    faces = [top.faces, bottom.faces[:, ::-1] + len(top_verts)]
    n_top = len(top_verts)
    thetas = 2 * np.pi * np.arange(sectors) / sectors
    top_rim_z = top_verts[top_rim, 2]
    bot_rim_z = bot_verts[bottom_rim, 2]
    prev_ring = list(top_rim)
    next_id = n_top + len(bot_verts)
    rib_ids = []
    for k in range(1, rib_rings):
        t = k / rib_rings
        bulge = 1.0 - (rib_inset / max(a, b)) * np.sin(np.pi * t)
        ring_xy = np.column_stack([
            bulge * rho(thetas) * np.cos(thetas),
            bulge * rho(thetas) * np.sin(thetas),
        ])
        ring_z = top_rim_z + (bot_rim_z - top_rim_z) * t
        ring_ids = list(range(next_id, next_id + sectors))
        next_id += sectors
        rib_ids.extend(ring_ids)
        verts.append(np.column_stack([ring_xy, ring_z]))
        faces.append(_ring_faces(prev_ring, ring_ids, sectors))
        prev_ring = ring_ids
    faces.append(_ring_faces(prev_ring, [n_top + r for r in bottom_rim], sectors))
    body = TriangleMesh(np.vstack(verts), np.vstack(faces))
    labels = {"sound_board": np.arange(n_top),
              "back": np.arange(n_top, n_top + len(bot_verts)),
              "ribs": np.asarray(rib_ids)}
    return body, labels


def connected_components_loop(mesh, removed=None):
    """``mesh.connected_components`` gathering each label with a full-array scan."""
    n = mesh.n_vertices
    alive = np.ones(n, dtype=bool)
    if removed is not None:
        removed.validate(mesh)
        if removed.indices:
            alive[removed.as_array()] = False
    if not alive.any():
        return []
    e = mesh.edges
    keep = alive[e[:, 0]] & alive[e[:, 1]]
    sub = sparse.coo_matrix(
        (np.ones(keep.sum()), (e[keep, 0], e[keep, 1])), shape=(n, n)
    )
    ncomp, labels = csgraph.connected_components(sub, directed=False)
    comps = []
    for lab in range(ncomp):
        members = np.flatnonzero((labels == lab) & alive)
        if members.size:
            comps.append(members)
    comps.sort(key=lambda m: (-m.size, int(m[0])))
    return comps


def chain_by_components(plane, ends):
    """``slicing._chain`` finding each chain's start by component labelling.

    One ``connected_components`` pass labels the chains; each one starts at
    its lowest open end, or, for a ring, at its lowest node. Every ring is
    cut at its start's higher-numbered face, so each chain is a path, and
    one depth-first pass from a super-root linked to every start lists the
    chains. Planes crossing a non-manifold edge take ``slicing._walk``.
    """
    n = len(plane)
    deg = np.bincount(ends.ravel(), minlength=n)
    faces_of = np.argsort(ends.ravel(), kind="stable") // 2   # per node, ascending
    first = np.cumsum(deg) - deg
    branched = np.isin(plane, plane[deg > 2])

    links = sparse.coo_matrix((np.ones(len(ends)), (ends[:, 0], ends[:, 1])), shape=(n, n))
    _, label = csgraph.connected_components(links, directed=False)
    node = np.arange(n)
    start = np.full(label.max() + 1, 2 * n)
    np.minimum.at(start, label, np.where(deg == 1, node, node + n))
    ring = start >= n
    start[ring] -= n
    roots = start[~branched[start]]
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


def _distances(verts, normals, offsets):
    """Signed distance of every vertex from each plane, one ``x*nx + y*ny + z*nz``
    each."""
    d = np.empty((len(normals), len(verts)))
    x, y, z = verts.T
    for i, (normal, offset) in enumerate(zip(normals, offsets)):
        d[i] = x * normal[0] + y * normal[1] + z * normal[2] - offset
    return d


def _full_scan_pairs(mesh, normals, offsets, chunk_elements):
    """The crossing (plane, face) pairs of testing every pair, with each face's
    corner distances from its plane."""
    verts, f = mesh.vertices, mesh.faces
    step = max(1, chunk_elements // max(mesh.n_vertices, mesh.n_faces, 1))
    pf, cf, dc = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)], [np.empty((0, 3))]
    for a in range(0, len(normals), step):
        b = min(a + step, len(normals))
        d = _distances(verts, normals[a:b], offsets[a:b])
        fs = ((d > 0.0) | (np.abs(d) < _ON_PLANE))[:, f]
        p, c = np.nonzero((fs[:, :, 0] != fs[:, :, 1]) | (fs[:, :, 1] != fs[:, :, 2]))
        pf.append(p + a)
        cf.append(c)
        dc.append(d[p[:, None], f[c]])
    return np.concatenate(pf), np.concatenate(cf), np.concatenate(dc)


def cross_sections_full_scan(mesh, normals, offsets, chunk_elements=2 ** 16):
    """``slicing.cross_sections`` testing every (plane, face) pair.

    The planes are cut in chunks of at most ``chunk_elements`` plane x
    max(vertices, faces) entries; each chunk takes every vertex's signed
    distance from each of its planes and keeps the faces whose corners
    lie on both sides. ``pairs_visited`` is planes x faces.
    """
    normals, offsets = _plane_batch(normals, offsets)
    return _cut_pairs(mesh.vertices, mesh.faces, normals,
                      *_full_scan_pairs(mesh, normals, offsets, chunk_elements),
                      len(normals) * mesh.n_faces)


def pick_points(mesh, normals, offsets, sections):
    """Each plane's points for the pick oracles, from its chained full cut
    ``sections``, and whether the plane is crowded.

    A plane is crowded when two of its crossing points (one per crossed
    edge, before chaining) lie within 3 x ``_MIN_POINT_SEP``. Only there
    can the chained cut's merge of near points drop points (a merged
    neighbour, or a whole polyline shorter than the merge distance), so
    only there do the chained cut's points differ from the crossing
    points the picks are defined on. A crowded plane takes its crossing
    points, in edge order; the others take the chained cut's points, in
    chain order.

    Returns the points, each plane's start into them (with the end
    appended), and the crowded flags.
    """
    normals, offsets = _plane_batch(normals, offsets)
    plane, crossings, _ = slicing._crossings(mesh.vertices, mesh.faces, normals,
                                             *_full_scan_pairs(mesh, normals, offsets, 2 ** 16))
    # planes 1e3 apart in a fourth coordinate: only pairs on one plane are near
    near = cKDTree(np.column_stack([crossings, 1e3 * plane])).query_pairs(
        3 * _MIN_POINT_SEP, output_type="ndarray")
    crowded = np.bincount(plane[near[:, 0]], minlength=len(normals)) > 0
    bounds = sections.point_starts()
    parts = [crossings[plane == i] if crowded[i] else sections.points[bounds[i]:bounds[i + 1]]
             for i in range(len(normals))]
    return (np.concatenate([np.empty((0, 3))] + parts),
            np.cumsum([0] + [len(part) for part in parts]), crowded)


def channel_of_minima_full_scan(plate, window_mm=15.0, stations=400, smoothing_rms_mm=0.5):
    """``morphology.channel_of_minima`` cutting every station across the whole plate.

    The plate must sit in the symmetry frame (``frame.apply_plate``). At
    ``stations`` equally spaced arc-length stations of the contour spline,
    a vertical section perpendicular to the contour tangent is cut and
    searched inward over ``window_mm`` for the lowest point (highest for
    the back); when several window points reach that z (the station is
    tied), for the one of least inward offset, then x, then y. A crowded
    station searches the crossing points of its cut (:func:`pick_points`).
    A station is skipped, with a warning, when its section is empty. The
    trace is declared ``no_channel`` when more than half of the minima
    sit at the search window's boundary (nothing concave to find).
    ``smoothing_rms_mm`` caps the rms deviation of the smoothed trace from
    the raw minima.

    Returns the trace and, per detected station, whether its cut is
    crowded and whether it is tied.
    """
    if window_mm <= 0 or stations < 8:
        raise ContractError("window must be positive and stations >= 8")
    mesh = plate.mesh
    spline, total_len = morphology._periodic_spline(plate.contour_points())
    centroid_xy = mesh.vertices[:, :2].mean(axis=0)
    mean_edge = float(mesh.edge_lengths.mean())
    edge_tol = max(mean_edge, 0.05 * window_mm)
    pick = np.argmin if plate.side == "sound_board" else np.argmax

    # equal arc-length stations via dense resampling of the spline
    dense_t = np.linspace(0.0, total_len, 10 * stations + 1)
    dense = spline(dense_t)
    seg = np.linalg.norm(np.diff(dense, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    arc_total = float(arc[-1])
    targets = np.linspace(0.0, arc_total, stations, endpoint=False)
    kept, centres, normals, offsets, inward = morphology._stations(
        spline, np.interp(targets, arc, dense_t), centroid_xy)
    targets = targets[kept]
    skipped = len(kept) - len(targets)
    points, bounds, crowded = pick_points(mesh, normals, offsets,
                                          cross_sections_full_scan(mesh, normals, offsets))

    minima = []
    arcs = []
    depths = []
    tangents_pts = []
    flags = []
    at_edge = 0
    for i, (s_arc, c, inward_i) in enumerate(zip(targets, centres, inward)):
        pts = points[bounds[i]:bounds[i + 1]]
        if not len(pts):
            skipped += 1
            warnings.warn(f"empty channel section at arc length {s_arc:.1f}", stacklevel=2)
            continue
        s = (pts[:, 0] - c[0]) * inward_i[0] + (pts[:, 1] - c[1]) * inward_i[1]
        window = (s >= 0.0) & (s <= window_mm)
        if not window.any():
            skipped += 1
            warnings.warn(
                f"no interior points in window at arc length {s_arc:.1f}", stacklevel=2
            )
            continue
        cand = pts[window]
        cand_s = s[window]
        best = int(pick(cand[:, 2]))
        tied = np.flatnonzero(cand[:, 2] == cand[best, 2])
        if len(tied) > 1:
            best = min(tied.tolist(), key=lambda j: (cand_s[j], cand[j, 0], cand[j, 1]))
        minima.append(cand[best])
        arcs.append(s_arc)
        depths.append(float(cand_s[best]))
        tangents_pts.append(c)
        flags.append((crowded[i], len(tied) > 1))
        if cand_s[best] < edge_tol or cand_s[best] > window_mm - edge_tol:
            at_edge += 1

    if len(minima) < 4:
        raise ContractError(
            f"only {len(minima)} channel stations detected out of {stations}"
        )
    minima = np.asarray(minima)
    no_channel = at_edge * 2 > len(minima)

    smooth_cap = len(minima) * smoothing_rms_mm ** 2
    closed = np.vstack([minima, minima[:1]])
    u = np.asarray(arcs + [arc_total])
    u = (u - u[0]) / (u[-1] - u[0])
    tck, _ = splprep(closed.T, u=u, s=smooth_cap, per=1)
    smoothed = np.asarray(splev(u[:-1], tck)).T

    trace = ChannelTrace(
        points=minima,
        arc_lengths=np.asarray(arcs),
        inward_offsets=np.asarray(depths),
        smoothed_points=smoothed,
        contour_points=np.asarray(tangents_pts),
        no_channel=bool(no_channel),
        stations_total=stations,
        stations_skipped=skipped,
    )
    flags = np.asarray(flags, dtype=bool).reshape(-1, 2)
    return trace, flags[:, 0], flags[:, 1]


def extreme_points_loop(mesh, axis="x", spacing=1.0, keep_interval=None, keep_count=4,
                        prefer_z=None, tie_tol=0.0):
    """``slicing.extreme_points`` with a full-scan cut and a per-cut pick loop.

    Cuts the (already oriented) mesh with planes orthogonal to ``axis``
    every ``spacing`` mm and keeps, per cut, the two points with minimal
    and maximal coordinate along the in-plane horizontal axis. Per end, a
    point qualifies within ``tie_tol`` of the extreme and, with
    ``prefer_z``, at the extreme z of those; when several qualify (the
    plane is tied), the pick is the least by (coordinate outward, z in
    ``prefer_z``'s direction or ascending, coordinate along ``axis``).
    The two ends are kept once when they lie within 3 x
    ``_MIN_POINT_SEP``. A crowded plane picks from the crossing points of
    its cut (:func:`pick_points`).

    Parameters
    ----------
    keep_interval : (lo, hi), optional
        Range along ``axis`` in which ``keep_count`` points are retained
        per cut: the first ``keep_count // 2`` and the last of the cut's
        points sorted by (coordinate, z, coordinate along ``axis``), a
        point within 3 x ``_MIN_POINT_SEP`` of the one before counting as
        one with it.

    Returns
    -------
    (points, plane, crowded, tied)
        The picks, ordered by section offset, then by in-plane
        coordinate; the plane of each; and per plane whether its cut is
        crowded and whether an end is tied.
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
        if prefer_z is not None:
            z = pts[cand, 2]
            cand = cand[z == (z.max() if prefer_z == "max" else z.min())]
        out, up = (1.0 if end == "lo" else -1.0), (-1.0 if prefer_z == "max" else 1.0)
        pick = min(cand.tolist(), key=lambda j: (out * coords[j], up * pts[j, 2], pts[j, ax]))
        return pick, len(cand) > 1

    result, planes = [], []
    offsets = slicing.section_offsets(lo, hi, spacing)
    normals = np.eye(3)[[ax] * len(offsets)]
    points, bounds, crowded = pick_points(mesh, normals, offsets,
                                          cross_sections_full_scan(mesh, normals, offsets))
    tied = np.zeros(len(offsets), dtype=bool)
    for i, off in enumerate(offsets):
        pts = points[bounds[i]:bounds[i + 1]]
        if not len(pts):
            warnings.warn(f"empty section at {axis}={off:.3f}", stacklevel=2)
            continue
        coords = pts[:, other]
        if keep_interval is not None and keep_interval[0] <= off <= keep_interval[1]:
            order = sorted(range(len(pts)), key=lambda j: (coords[j], pts[j, 2], pts[j, ax]))
            order = [j for n, j in enumerate(order) if n == 0 or
                     np.linalg.norm(pts[j] - pts[order[n - 1]]) > 3 * _MIN_POINT_SEP]
            take = keep_count // 2
            section_pts = pts[order[:take] + order[max(take, len(order) - (keep_count - take)):]]
        else:
            (low, tie_lo), (high, tie_hi) = pick_extreme(pts, coords, "lo"), \
                pick_extreme(pts, coords, "hi")
            tied[i] = tie_lo or tie_hi
            if coords[high] < coords[low]:
                low, high = high, low
            # two picks within 3 x _MIN_POINT_SEP count as one
            apart = np.linalg.norm(pts[high] - pts[low]) > 3 * _MIN_POINT_SEP
            section_pts = pts[[low, high] if apart else [low]]
        result.append(section_pts)
        planes += [i] * len(section_pts)
    if not result:
        raise ContractError("no section produced any points")
    return np.concatenate(result, axis=0), np.asarray(planes, dtype=np.intp), crowded, tied


def extreme_points_chained(mesh, axis="x", spacing=1.0, keep_interval=None, keep_count=4,
                           prefer_z=None, tie_tol=0.0):
    """``slicing.extreme_points`` from a chained full cut of every plane.

    Per cut and per end, the first point in chain order within ``tie_tol``
    of the extreme coordinate, or, with ``prefer_z``, the first of those
    with the extreme z; where more than one point qualifies (a tied
    plane), the least by (coordinate outward, z in ``prefer_z``'s
    direction or ascending, coordinate along ``axis``); both ends once
    when they lie within 3 x ``_MIN_POINT_SEP``. Inside
    ``keep_interval``, ``keep_count`` points as :func:`extreme_points_loop`
    keeps them. A crowded plane picks from the crossing points of its cut
    (:func:`pick_points`). Returns what :func:`extreme_points_loop` returns.
    """
    if axis not in slicing.AXES:
        raise ContractError(f"axis must be 'x' or 'y', got {axis!r}")
    if prefer_z not in (None, "max", "min"):
        raise ContractError(f"prefer_z must be 'max', 'min' or None, got {prefer_z!r}")
    ax = "xyz".index(axis)
    other = 1 - ax
    offsets = slicing.section_offsets(mesh.vertices[:, ax].min(), mesh.vertices[:, ax].max(),
                                      spacing)
    normals = np.tile(np.eye(3)[ax], (len(offsets), 1))
    points, bounds, crowded = pick_points(mesh, normals, offsets,
                                          slicing.cross_sections(mesh, normals, offsets))
    sizes = np.diff(bounds)
    for off in offsets[sizes == 0]:
        warnings.warn(f"empty section at {axis}={off:.3f}", stacklevel=2)
    cut = np.flatnonzero(sizes)
    if not cut.size:
        raise ContractError("no section produced any points")
    starts, sizes = bounds[cut], sizes[cut]
    coords = points[:, other]
    group = np.repeat(np.arange(len(cut)), sizes)

    def pick(reduce):
        cand = np.abs(coords - np.repeat(reduce.reduceat(coords, starts), sizes)) <= tie_tol
        if prefer_z is not None:
            top = np.maximum if prefer_z == "max" else np.minimum
            z = np.where(cand, points[:, 2], -np.inf if prefer_z == "max" else np.inf)
            cand &= z == np.repeat(top.reduceat(z, starts), sizes)
        first = np.minimum.reduceat(np.where(cand, np.arange(len(coords)), len(coords)), starts)
        z = -points[:, 2] if prefer_z == "max" else points[:, 2]
        least = np.lexsort((points[:, ax], z, coords if reduce is np.minimum else -coords,
                            ~cand, group))[starts]
        tied = np.add.reduceat(cand, starts) > 1
        return np.where(tied, least, first), tied

    (lo, tied_lo), (hi, tied_hi) = pick(np.minimum), pick(np.maximum)
    ends = np.column_stack([lo, hi])
    swap = coords[hi] < coords[lo]
    ends[swap] = ends[swap, ::-1]
    kept = np.zeros(len(cut), dtype=bool)
    if keep_interval is not None:
        kept = (keep_interval[0] <= offsets[cut]) & (offsets[cut] <= keep_interval[1])
    apart = np.linalg.norm(points[hi] - points[lo], axis=1) > 3 * _MIN_POINT_SEP
    take = np.column_stack([~kept, ~kept & apart])
    chosen, keys = [ends[take]], [np.nonzero(take)[0]]
    for i in np.flatnonzero(kept).tolist():
        seg = points[starts[i]:starts[i] + sizes[i]]
        order = np.lexsort((seg[:, ax], seg[:, 2], seg[:, other]))
        near = np.linalg.norm(np.diff(seg[order], axis=0), axis=1) <= 3 * _MIN_POINT_SEP
        order = order[np.concatenate([[True], ~near])]
        n = keep_count // 2
        picked = np.concatenate([order[:n], order[max(n, len(order) - (keep_count - n)):]])
        chosen.append(starts[i] + picked)
        keys.append(np.full(len(picked), i))
    order = np.argsort(np.concatenate(keys), kind="stable")
    tied = np.zeros(len(offsets), dtype=bool)
    tied[cut] = (tied_lo | tied_hi) & ~kept
    return points[np.concatenate(chosen)[order]], cut[np.concatenate(keys)[order]], crowded, tied


def close_contour_per_pair(mesh, ordered_anchors):
    """``isolation.close_contour`` with one ``mesh.shortest_path`` per anchor pair
    (bounded at twice the pair's gap, then unbounded), the ``list.pop`` cleanup
    and a per-pair adjacency check against the CSR rows."""
    anchors = [int(a) for a in ordered_anchors]
    if len(anchors) < 3:
        raise ContractError("need at least 3 anchors")
    loop = []
    src = []
    for a, b in zip(anchors, anchors[1:] + anchors[:1]):
        try:
            path = shortest_path(mesh, a, b)
        except DisconnectedError as exc:
            raise DisconnectedError(
                f"anchors {a} and {b} lie in different components"
            ) from exc
        loop.extend(path[:-1])
        src.extend([ANCHOR] + [INSERTED] * (len(path) - 2))

    changed = True
    while changed:
        changed = False
        n = len(loop)
        if n < 3:
            raise ContractError("contour collapsed during cleanup")
        for i in range(n):
            if loop[i] == loop[(i + 1) % n]:
                drop = [(i + 1) % n]
            elif loop[(i - 1) % n] == loop[(i + 1) % n]:
                drop = sorted(((i, (i + 1) % n)), reverse=True)
            else:
                continue
            for d in drop:
                loop.pop(d)
                src.pop(d)
            changed = True
            break

    dupes = np.count_nonzero(np.unique(loop, return_counts=True)[1] > 1)
    if dupes:
        warnings.warn(f"contour visits {dupes} vertices more than once", stacklevel=2)
    contour = ClosedContour(tuple(loop), tuple(src))
    validate_against_rows(contour, mesh)
    return contour


def validate_against_rows(contour, mesh):
    """``ClosedContour.validate_against`` looking each pair up in a's CSR row."""
    n = mesh.n_vertices
    indptr, neighbours = mesh.adjacency.indptr, mesh.adjacency.indices
    idx = contour.vertex_indices
    for a, b in zip(idx, idx[1:] + idx[:1]):
        if not (0 <= a < n and 0 <= b < n and b in neighbours[indptr[a]:indptr[a + 1]]):
            raise ContractError(f"contour vertices {a}, {b} are not adjacent")
