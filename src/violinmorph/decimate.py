"""Quadric edge-collapse mesh simplification.

Greedy contraction of the edge with the least quadric error, with the
replacement vertex at the quadric-optimal position when the 3x3 system is
well conditioned and at the best of {v1, v2, midpoint} otherwise. Plate
meshes are open surfaces, so boundary edges contribute a perpendicular
constraint plane that resists contour shrinkage.

Set-up works on edge arrays; the greedy loop keeps the faces as Python
lists, since a collapse reads and edits only a handful of them. A popped
edge passes the link and flip tests and is contracted at once, but the
re-evaluation of its ring edges waits: the rings of a run of up to
``_BATCH`` collapses go through one :func:`_targets` call, whose rows
are independent, so every entry has the bytes it would have had alone.
The run is then checked against the heap order, pop by pop: the first
pop that came after a smaller entry of an earlier collapse of the run is
where the sequential loop would have popped that entry instead, so the
collapses from there on are undone and the pops from there on go back on
the heap (optimistic execution with rollback, as in Jefferson's Virtual
Time). The output is the sequential loop's, byte for byte. Row dots and
norms use :func:`~violinmorph.mesh.row_dot`, which rounds like the 1-D
``@``.

The condition test (:func:`_solvable`) passes a row by an exact screen
when trace, principal minors and determinant prove the block positive
definite and its condition below a quarter of ``_COND_LIMIT``; every
other row takes its singular values from ``eigvalsh``. The flip test
works in Python floats on a list mirror of the vertices
(:func:`_flips`). Their verdicts equal those of ``np.linalg.cond`` and
of numpy normals and dot products, except where a flip dot product lies
within ~1e-15 (relative) of 0 or a condition ratio within rounding of
``_COND_LIMIT``.

Most pops are stale (~89 % on the benchmark plates), so the loop skips
them in one tight inner loop. A heap entry holds its error, ends and
stamps as plain numbers and its target point as a row of the array its
evaluation returned; only a live pop turns that row into a list.
"""

from __future__ import annotations

import heapq
import math
from itertools import accumulate, chain, repeat

import numpy as np

from .errors import ContractError, TopologicalLockError
from .mesh import TriangleMesh, row_dot

__all__ = ["decimate"]

_COND_LIMIT = 1e7
_BOUNDARY_WEIGHT = 1.0
_BATCH = 16  # most collapses whose ring edges wait for one _targets call


def _normals(corners):
    """Unnormalised normals of triangles given as (k, 3, 3) corner stacks.

    ``np.cross`` by component (one product minus another, so the same
    rounding) without its per-call axis handling: with the edges a, b
    indexed [1, 2, 0, 1, 2], the normal is a[:3] * b[1:4] - a[1:4] * b[:3].
    """
    d = (corners[:, 1:] - corners[:, :1])[..., [1, 2, 0, 1, 2]]
    return d[:, 0, :3] * d[:, 1, 1:4] - d[:, 0, 1:4] * d[:, 1, :3]


def _normal(a, b, c):
    """:func:`_normals` of one triangle in Python floats: the same products
    and differences, so the same bits."""
    ax, ay, az = a
    bx, by, bz = b[0] - ax, b[1] - ay, b[2] - az
    cx, cy, cz = c[0] - ax, c[1] - ay, c[2] - az
    return by * cz - bz * cy, bz * cx - bx * cz, bx * cy - by * cx


def _flips(faces, xyz, around, u, v, pos):
    """Whether contracting edge (u, v) to ``pos`` flips or squashes a face ``around`` it.

    ``xyz`` holds the vertices as lists. A face flips when its normal
    after the move is shorter than 1e-30, or when it was longer than that
    before and the dot product of the two normals is not positive.
    """
    for fi in around:
        a, b, c = faces[fi]
        pa, pb, pc = xyz[a], xyz[b], xyz[c]
        if a == u or a == v:
            m = _normal(pos, pb, pc)
        elif b == u or b == v:
            m = _normal(pa, pos, pc)
        else:
            m = _normal(pa, pb, pos)
        if math.sqrt(m[0] * m[0] + m[1] * m[1] + m[2] * m[2]) < 1e-30:
            return True
        n = _normal(pa, pb, pc)
        if (math.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2]) > 1e-30
                and n[0] * m[0] + n[1] * m[1] + n[2] * m[2] <= 0):
            return True
    return False


def _plane_quadrics(normals, points):
    """Quadrics of the planes through ``points`` with unit ``normals``."""
    q = np.concatenate([normals, row_dot(-normals, points)[:, None]], axis=1)
    return q[:, :, None] * q[:, None, :]


def _error(q, p):
    """Quadric error of positions ``p`` under quadrics ``q``."""
    row = p[..., None, :]
    return (row @ q[..., :3, :3] @ p[..., :, None]
            + 2.0 * (row @ q[..., :3, 3:]))[..., 0, 0] + q[..., 3, 3]


def _solvable(a, counters=None):
    """Which symmetric 3x3 systems ``a`` pass the condition test.

    The test is ``np.linalg.cond``'s singular-value ratio below
    ``_COND_LIMIT``, from the eigenvalues' absolute values (a symmetric
    matrix's singular values); a singular system gives inf or NaN, and
    both fail.

    An exact screen passes most rows without LAPACK. With tr the trace,
    e2 the sum of the principal 2x2 minors and det the determinant, a
    positive definite matrix with eigenvalues l1 >= l2 >= l3 has
    l1 <= tr <= 3 l1 and l1 l2 <= e2 <= 3 l1 l2, so its condition
    l1 / l3 lies between tr e2 / (9 det) and tr e2 / det. A row passes
    the screen when all of these hold, read from the lower triangle as
    ``eigvalsh`` reads it:

    - 1e-90 < tr < 1e90, so no product below overflows, and a product
      that underflows moves a value by far less than the thresholds
      (>= 1e-282) it is compared with;
    - each principal 2x2 minor > 1e-12 tr^2. Diagonal entries of opposite
      signs would make their minor a sum of two non-positive terms, which
      cannot round above 0, so all three are positive and at most tr.
      Each minor is then a difference of products no larger than
      tr^2 / 4, off by at most ~1e-16 tr^2, i.e. 1e-4 of itself, so the
      exact minors are positive too;
    - det > 1e-12 tr^3. The cofactor sum's terms add up to at most
      (2/9) tr^3 in magnitude, so det is off by ~1e-16 tr^3, again 1e-4
      of itself, and by Sylvester's criterion the block is positive
      definite;
    - tr e2 < (_COND_LIMIT / 4) det. With the errors above the exact
      condition is then below 0.26 _COND_LIMIT. ``eigvalsh`` and the SVD
      are backward stable: each value they return is off by at most
      c eps l1, c of order 10 for a 3x3 block, so the ratio they report
      stays below the limit as long as c is below ~1e9.

    The guards are what keep rounding from passing a singular block: a
    rank-1 plane quadric can round to a positive determinant. Every row
    the screen does not pass (singular, planar or badly conditioned, or
    with a NaN) takes ``eigvalsh``, so the verdict is always
    ``eigvalsh``'s. ``counters``, a dict, has its ``eigvalsh_rows``
    raised by the number of those rows.
    """
    a00, a10, a11, a20, a21, a22 = a.reshape(-1, 9).T[[0, 3, 4, 6, 7, 8]]
    with np.errstate(all="ignore"):
        tr = a00 + a11 + a22
        m01 = a00 * a11 - a10 * a10
        m02 = a00 * a22 - a20 * a20
        m12 = a11 * a22 - a21 * a21
        det = a00 * m12 - a10 * (a10 * a22 - a21 * a20) + a20 * (a10 * a21 - a11 * a20)
        tol = 1e-12 * tr * tr
        solvable = ((1e-90 < tr) & (tr < 1e90) & (m01 > tol) & (m02 > tol) & (m12 > tol)
                    & (det > tol * tr) & (tr * (m01 + m02 + m12) < 0.25 * _COND_LIMIT * det))
        rest = np.flatnonzero(~solvable)
        if len(rest):
            e = np.abs(np.linalg.eigvalsh(a[rest]))
            solvable[rest] = e.max(axis=1) / e.min(axis=1) < _COND_LIMIT
    if counters is not None:
        counters["eigvalsh_rows"] += len(rest)
    return solvable


def _targets(q, p1, p2, counters=None):
    """Contraction targets and their errors for edges (p1, p2) with quadrics q.

    The quadric-optimal point where the 3x3 system is well conditioned,
    otherwise the first of {p1, p2, midpoint} with the least error.
    ``counters`` goes to :func:`_solvable`.
    """
    solvable = _solvable(q[:, :3, :3], counters)
    pos = np.empty_like(p1)
    qs = q[solvable]
    pos[solvable] = np.linalg.solve(qs[:, :3, :3], -qs[:, :3, 3:])[:, :, 0]
    if not solvable.all():
        rest = ~solvable
        candidates = np.stack([p1[rest], p2[rest], 0.5 * (p1[rest] + p2[rest])], axis=1)
        best = _error(q[rest][:, None], candidates).argmin(axis=1)
        pos[rest] = candidates[np.arange(len(best)), best]
    return pos, _error(q, pos)


def decimate(mesh, target_faces, counters=None):
    """Contract minimum-cost edges until at most ``target_faces`` remain.

    Interior collapses remove two faces at a time, so the result can land
    one face below the target. Returns the input unchanged when it
    already has ``target_faces`` faces. Collapses that would flip a
    neighbouring face or pinch the surface into a non-manifold
    configuration are skipped.

    ``counters``, a dict, receives ``collapses``; ``pops``, every heap pop
    (entries popped again after an undo included), and the ``stale`` ones;
    the rejections ``not_an_edge``, ``link`` and ``flip``; ``flushes``, the
    batched ring evaluations; ``undone``, the collapses rolled back; and
    ``eigvalsh_rows``, the condition tests the screen of :func:`_solvable`
    left to ``eigvalsh`` (rows of collapses later undone included).

    Raises
    ------
    ContractError
        When ``target_faces`` is not an integer in [1, face count].
    TopologicalLockError
        When every remaining edge is blocked before the target is met.
    """
    if isinstance(target_faces, bool) or not isinstance(target_faces, (int, np.integer)):
        raise ContractError(f"target face count must be an integer, got {target_faces!r}")
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
    xyz = verts.tolist()  # verts as lists, for the flip test
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

    # entries (err, u, v, stamp[u], stamp[v], points, row), the target point
    # being points[row]: an edge is pushed again only after a stamp bump, so
    # entries never tie and points is never compared
    stamp = [0] * len(verts)

    def inputs(a, b):
        """The target inputs of edges (a, b), a < b, read now: ends, stamps, quadric, points."""
        return (a, b, [stamp[i] for i in a], [stamp[j] for j in b],
                quadrics.take(a, 0) + quadrics.take(b, 0), verts.take(a, 0), verts.take(b, 0))

    def entries(a, b, sa, sb, q, p1, p2):
        """Heap entries of edges (a, b) from their inputs, in one target evaluation."""
        pos, err = _targets(q, p1, p2, tally)
        return list(zip(err.tolist(), a, b, sa, sb, repeat(pos), range(len(pos))))

    def corners(fis):
        return {w for fi in fis for w in faces[fi]}

    def contract(u, v, pos):
        """Contract v into u at pos: the reason it cannot, or the inputs of
        its ring edges and its undo record."""
        nonlocal n_faces
        shared = vert_faces[u] & vert_faces[v]
        if not shared or len(shared) >= n_faces:
            return "not_an_edge"  # not an edge any more, or the surface would vanish
        # link condition: common neighbours must all come from shared faces
        hinge = corners(shared)
        if corners(vert_faces[u]) & corners(vert_faces[v]) - hinge:
            return "link"
        # reject collapses that flip or squash any surviving face
        around = (vert_faces[u] | vert_faces[v]) - shared
        if _flips(faces, xyz, around, u, v, pos):
            return "flip"

        undo = (u, v, xyz[u], quadrics[u].copy(), shared, vert_faces[u], vert_faces[v])
        verts[u] = xyz[u] = pos
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
        ring = sorted(corners(around) - {u})
        return inputs([w if w < u else u for w in ring], [u if w < u else w for w in ring]), undo

    def restore(u, v, u_pos, u_quadric, shared, u_faces, v_faces):
        """Undo one collapse; later ones must be undone first."""
        nonlocal n_faces
        verts[u] = xyz[u] = u_pos
        quadrics[u] = u_quadric
        n_faces += len(shared)
        for fi in v_faces - shared:
            f = faces[fi]
            f[f.index(u)] = v
        vert_faces[u], vert_faces[v] = u_faces, v_faces
        for fi in shared:  # every corner gets back just the shared faces it held
            for w in faces[fi]:
                vert_faces[w].add(fi)
        stamp[u] -= 1
        stamp[v] -= 1

    def flush(window, pending, batch):
        """Evaluate the run's rings and check its pops; the next batch size.

        ``window`` holds the pops from the run's first collapse on, with
        their outcomes, and ``pending`` each collapse's ring inputs and undo
        record. Within a run the pops come in heap order, so the first pop
        after a smaller entry of an earlier collapse is where the sequential
        loop went another way; stale pops are no-ops in either order.
        """
        tally["flushes"] += 1
        a, b, sa, sb, q, p1, p2 = zip(*(ring for ring, _ in pending))
        pushed = entries(chain(*a), chain(*b), chain(*sa), chain(*sb),
                         np.concatenate(q), np.concatenate(p1), np.concatenate(p2))
        ends = [0, *accumulate(len(ring[0]) for ring, _ in pending)]
        lowest, cut, done = None, len(window), 0
        for i, (entry, outcome) in enumerate(window):
            if outcome == "stale":
                continue
            if lowest is not None and entry > lowest:
                cut = i
                break
            if outcome == "collapses":
                ring = pushed[ends[done]:ends[done + 1]]
                if lowest is not None:
                    ring.append(lowest)
                lowest = min(ring, default=None)
                done += 1
        for _, undo in reversed(pending[done:]):
            restore(*undo)
        for entry, _ in window[cut:]:
            if stamp[entry[1]] == entry[3] and stamp[entry[2]] == entry[4]:
                heapq.heappush(heap, entry)
            else:
                tally["stale"] += 1
        for _, outcome in window[:cut]:
            tally[outcome] += 1
        for entry in pushed[:ends[done]]:
            heapq.heappush(heap, entry)
        tally["undone"] += len(pending) - done
        return done if done < len(pending) else min(2 * batch, _BATCH)

    tally = dict.fromkeys(["collapses", "pops", "stale", "not_an_edge", "link", "flip",
                           "flushes", "undone", "eigvalsh_rows"], 0)
    heap = entries(*inputs(*mesh.edges.T.tolist()))
    heapq.heapify(heap)
    n_faces = len(faces)
    window, pending = [], []  # the run since the last flush, as flush takes them
    batch = 1
    while True:
        if pending and (len(pending) == batch or n_faces <= target_faces or not heap):
            batch = flush(window, pending, batch)
            window, pending = [], []
            continue
        if n_faces <= target_faces:
            break
        # pop up to the first live entry; a stale pop is a no-op, but within
        # a run it waits in the window, since an undo can make it live again
        while heap:
            entry = heapq.heappop(heap)
            tally["pops"] += 1
            _, u, v, su, sv, points, row = entry
            if stamp[u] == su and stamp[v] == sv:
                break
            if pending:
                window.append((entry, "stale"))
            else:
                tally["stale"] += 1
        else:
            if pending:
                continue  # the run is flushed first: an undo may refill the heap
            raise TopologicalLockError(
                f"no contractible edge left at {n_faces} faces (target {target_faces})"
            )
        result = contract(u, v, points[row].tolist())
        if isinstance(result, str):
            if pending:
                window.append((entry, result))
            else:
                tally[result] += 1  # before the run's first collapse: final
        else:
            pending.append(result)
            window.append((entry, "collapses"))

    if counters is not None:
        counters.update(tally)
    # compact: keep the faces some vertex still holds, preserve index order
    alive = [faces[fi] for fi in sorted(set().union(*vert_faces))]
    used, new_faces = np.unique(alive, return_inverse=True)
    return TriangleMesh(verts[used], new_faces.reshape(-1, 3))
