"""Reference kernels kept as test oracles.

These are the original per-face / per-edge loop versions of
``grid.interpolate_grid`` and ``slicing.cross_section``. The library's
batched versions must reproduce them bit for bit; the loops are slow but
transparent, which is what an oracle needs.
"""

import math

import numpy as np

from violinmorph.errors import ContractError
from violinmorph.grid import HeightGrid, joint_grid_domain
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
