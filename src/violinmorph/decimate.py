"""Quadric edge-collapse mesh simplification.

Greedy contraction of the edge with the least quadric error, with the
replacement vertex at the quadric-optimal position when the 3x3 system is
well conditioned and at the best of {v1, v2, midpoint} otherwise. Plate
meshes are open surfaces, so boundary edges contribute a perpendicular
constraint plane that resists contour shrinkage.

Set-up and each collapse's re-push work on edge arrays; the greedy loop
stays sequential and keeps the faces as Python lists, since a collapse
reads and edits only a handful of them. Row dots and norms use
:func:`~violinmorph.mesh.row_dot`, which rounds like the 1-D ``@``.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import ContractError, TopologicalLockError
from .mesh import TriangleMesh, row_dot

__all__ = ["decimate"]

_COND_LIMIT = 1e7
_BOUNDARY_WEIGHT = 1.0


def _normals(corners):
    """Unnormalised normals of triangles given as (k, 3, 3) corner stacks.

    ``np.cross`` by component (one product minus another, so the same
    rounding) without its per-call axis handling: with the edges a, b
    indexed [1, 2, 0, 1, 2], the normal is a[:3] * b[1:4] - a[1:4] * b[:3].
    """
    d = (corners[:, 1:] - corners[:, :1])[..., [1, 2, 0, 1, 2]]
    return d[:, 0, :3] * d[:, 1, 1:4] - d[:, 0, 1:4] * d[:, 1, :3]


def _plane_quadrics(normals, points):
    """Quadrics of the planes through ``points`` with unit ``normals``."""
    q = np.concatenate([normals, row_dot(-normals, points)[:, None]], axis=1)
    return q[:, :, None] * q[:, None, :]


def _error(q, p):
    """Quadric error of positions ``p`` under quadrics ``q``."""
    row = p[..., None, :]
    return (row @ q[..., :3, :3] @ p[..., :, None]
            + 2.0 * (row @ q[..., :3, 3:]))[..., 0, 0] + q[..., 3, 3]


def _targets(q, p1, p2):
    """Contraction targets and their errors for edges (p1, p2) with quadrics q.

    The quadric-optimal point where the 3x3 system is well conditioned,
    otherwise the first of {p1, p2, midpoint} with the least error. The
    condition number is ``np.linalg.cond``'s singular-value ratio; a
    singular system gives inf or NaN there, and both fail the test.
    """
    s = np.linalg.svd(q[:, :3, :3], compute_uv=False)
    with np.errstate(all="ignore"):
        solvable = s[:, 0] / s[:, -1] < _COND_LIMIT
    pos = np.empty_like(p1)
    qs = q[solvable]
    pos[solvable] = np.linalg.solve(qs[:, :3, :3], -qs[:, :3, 3:])[:, :, 0]
    if not solvable.all():
        rest = ~solvable
        candidates = np.stack([p1[rest], p2[rest], 0.5 * (p1[rest] + p2[rest])], axis=1)
        best = _error(q[rest][:, None], candidates).argmin(axis=1)
        pos[rest] = candidates[np.arange(len(best)), best]
    return pos, _error(q, pos)


def decimate(mesh, target_faces):
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
    faces = mesh.faces.tolist()
    vert_faces = [set() for _ in range(len(verts))]
    for fi, f in enumerate(faces):
        for v in f:
            vert_faces[v].add(fi)

    # vertex quadrics: incident face planes (in face order), then boundary
    # constraints in first-seen edge order; zero-area faces take no part
    n = _normals(verts[mesh.faces])
    norm = np.sqrt(row_dot(n, n))
    area = norm >= 1e-30
    unit = n[area] / norm[area, None]
    kept = mesh.faces[area]
    quadrics = np.zeros((len(verts), 4, 4))
    np.add.at(quadrics, kept.ravel(),
              np.repeat(_plane_quadrics(unit, verts[kept[:, 0]]), 3, axis=0))
    ends = np.sort(kept[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    _, first, count = np.unique(ends[:, 0] * len(verts) + ends[:, 1],
                                return_index=True, return_counts=True)
    once = np.sort(first[count == 1])
    u, v = ends[once].T
    c = np.cross(unit[once // 3], verts[v] - verts[u])
    cn = np.sqrt(row_dot(c, c))
    keep = cn >= 1e-30
    c, u, v = c[keep] / cn[keep, None], u[keep], v[keep]
    np.add.at(quadrics, np.column_stack([u, v]).ravel(),
              np.repeat(_BOUNDARY_WEIGHT * _plane_quadrics(c, verts[u]), 2, axis=0))

    # entries (err, u, v, stamp[u], stamp[v], pos): an edge is pushed again only
    # after a stamp bump, so entries never tie and pos is never compared
    stamp = [0] * len(verts)

    def entries(u, ws):
        a, b = np.minimum(u, ws), np.maximum(u, ws)
        pos, err = _targets(quadrics[a] + quadrics[b], verts[a], verts[b])
        return [(e, i, j, stamp[i], stamp[j], p)
                for e, i, j, p in zip(err.tolist(), a.tolist(), b.tolist(), pos)]

    def corners(fis):
        return {w for fi in fis for w in faces[fi]}

    heap = entries(mesh.edges[:, 0], mesh.edges[:, 1])
    heapq.heapify(heap)
    n_faces = len(faces)

    while n_faces > target_faces:
        if not heap:
            raise TopologicalLockError(
                f"no contractible edge left at {n_faces} faces (target {target_faces})"
            )
        _, u, v, su, sv, pos = heapq.heappop(heap)
        if stamp[u] != su or stamp[v] != sv:
            continue
        shared = vert_faces[u] & vert_faces[v]
        if not shared or len(shared) >= n_faces:
            continue  # not an edge any more, or the surface would vanish
        # link condition: common neighbours must all come from shared faces
        hinge = corners(shared)
        if corners(vert_faces[u]) & corners(vert_faces[v]) - hinge:
            continue
        # reject collapses that flip or squash any surviving face
        around = (vert_faces[u] | vert_faces[v]) - shared
        # (0, 3) when the collapse takes a lone triangle: nothing around it to check
        tri = np.array([faces[fi] for fi in around], dtype=np.int64).reshape(-1, 3)
        k = len(tri)
        points = verts[np.concatenate([tri, tri])]
        points[k:][(tri == u) | (tri == v)] = pos  # before, then after
        normals = _normals(points)
        length = np.sqrt(row_dot(normals, normals))
        if ((length[k:] < 1e-30)
                | ((length[:k] > 1e-30) & (row_dot(normals[:k], normals[k:]) <= 0))).any():
            continue

        # contract v into u at the optimal position
        verts[u] = pos
        quadrics[u] += quadrics[v]
        n_faces -= len(shared)
        for w in hinge - {u, v}:
            vert_faces[w] -= shared
        for fi in vert_faces[v] - shared:
            f = faces[fi]
            f[f.index(v)] = u
        vert_faces[u], vert_faces[v] = around, set()
        stamp[u] += 1
        stamp[v] += 1
        ring = np.array(sorted(corners(around) - {u}), dtype=np.int64)
        for entry in entries(u, ring):
            heapq.heappush(heap, entry)

    # compact: keep the faces some vertex still holds, preserve index order
    alive = [faces[fi] for fi in sorted(set().union(*vert_faces))]
    used, new_faces = np.unique(alive, return_inverse=True)
    return TriangleMesh(verts[used], new_faces.reshape(-1, 3))
