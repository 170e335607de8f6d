"""Synthetic validation surfaces.

Real instrument scans cannot ship with the package, so every pipeline
stage is exercised on constructed plates whose ground truth is known in
closed form: arched discs with an optional rim groove, skirted plates
with labelled regions, exactly mirror-symmetric plate pairs, a whole
instrument body, and a reduced/unreduced plate pair modelling the removal
of an axial slice of wood.

Every surface is built from two index rules. A ring is ``sectors``
vertices at θ_j = 2πj / sectors; a disc numbers its center 0 and its
ring i, sector j as ``1 + i * sectors + j``, and the rings hanging off
a rim (skirt, ribs) follow in ring-major order. Consecutive rings r, n
are stitched by :func:`_strip`: per sector j, ``[r_j, r_{j+1}, n_{j+1}]``
then ``[r_j, n_{j+1}, n_j]``; a fan ``[0, r_j, r_{j+1}]`` closes the
disc's center.
"""

from __future__ import annotations

import numpy as np

from .isolation import ANCHOR, ClosedContour, PlateMesh
from .mesh import TriangleMesh

__all__ = [
    "disc_plate",
    "plate_from_disc",
    "skirted_plate",
    "instrument_body",
    "mirror_pair",
    "reduced_pair",
    "icosphere",
    "hemisphere_plate",
]


def _strip(ring, nxt):
    """Two triangles per sector between rows of closed rings of vertex ids.

    For each row pair and each sector j in order: ``[r_j, r_{j+1}, n_{j+1}]``
    then ``[r_j, n_{j+1}, n_j]``, the last sector wrapping to the first.
    """
    r1, n1 = np.roll(ring, -1, axis=-1), np.roll(nxt, -1, axis=-1)
    return np.stack([ring, r1, n1, ring, n1, nxt], axis=-1).reshape(-1, 3)


def _rings(rho, scales, heights, first_id):
    """Vertices of the rings k = 0 .. len(scales) - 1, numbered from ``first_id``.

    Vertex (k, j) sits at ``(scales[k] * rho(θ_j)) * (cos θ_j, sin θ_j)``
    and height ``heights[k, j]``, θ_j = 2πj / sectors, sectors =
    ``heights.shape[1]``. Returns (vertices, ids of shape (rings, sectors)).
    """
    thetas = 2 * np.pi * np.arange(heights.shape[1]) / heights.shape[1]
    r = scales[:, None] * rho(thetas)
    verts = np.column_stack([(r * np.cos(thetas)).ravel(), (r * np.sin(thetas)).ravel(),
                             heights.ravel()])
    return verts, first_id + np.arange(heights.size).reshape(heights.shape)


def _disc_mesh(footprint, height, rings, sectors, jitter=0.0, rng=None):
    """Structured polar disc: center vertex plus ``rings`` x ``sectors`` grid."""
    thetas = 2 * np.pi * np.arange(sectors) / sectors
    fracs = np.arange(1, rings + 1) / rings
    if jitter > 0:
        rng = rng or np.random.default_rng(0)
        tj = thetas[None, :] + jitter * (2 * np.pi / sectors) * (
            rng.random((rings, sectors)) - 0.5
        )
        fj = fracs[:, None] + jitter * (1.0 / rings) * (rng.random((rings, sectors)) - 0.5)
        fj[-1, :] = 1.0  # boundary ring stays on the footprint
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

    ids = 1 + np.arange(rings * sectors).reshape(rings, sectors)
    fan = np.column_stack([np.zeros_like(ids[0]), ids[0], np.roll(ids[0], -1)])
    faces = np.vstack([fan, _strip(ids[:-1], ids[1:])])
    return TriangleMesh(verts, faces), ids[-1]


def plate_from_disc(mesh, boundary, side="sound_board"):
    """Wrap a disc mesh whose boundary ring is the contour into a PlateMesh."""
    contour = ClosedContour(tuple(boundary), tuple([ANCHOR] * len(boundary)))
    inner = np.setdiff1d(np.arange(mesh.n_vertices), np.asarray(boundary))
    return PlateMesh(
        mesh=mesh,
        contour=contour,
        side=side,
        orig_vertex_ids=np.arange(mesh.n_vertices),
        inner_ids=inner,
    )


def _dome(radius, height):
    # Gaussian arch: tall in the middle, nearly flat toward the rim, the
    # way a plate's arching recesses before its edge. A carved groove
    # near the rim therefore dips below the surrounding surface.
    sigma = 0.5 * radius

    def h(x, y):
        r2 = (x * x + y * y) / (sigma * sigma)
        return height * np.exp(-r2)

    return h


def _groove_dip(r0, depth, width):
    def dip(x, y):
        r = np.sqrt(x * x + y * y)
        return depth * np.exp(-((r - r0) / width) ** 2)

    return dip


def disc_plate(radius=50.0, height=12.0, rings=100, sectors=360,
               minor=None, groove_radius=None, groove_depth=1.0,
               groove_width=1.5, bumps=(), jitter=0.0, rng=None,
               side="sound_board"):
    """Arched plate over a circular (or, with ``minor``, elliptical) footprint.

    An elliptical footprint breaks the rotational symmetry that would
    otherwise make z-rotations unobservable to registration; ``bumps``
    (tuples of ``(cx, cy, amplitude, sigma)``) add off-center arching
    irregularities that pin down tangential slides for the point-to-plane
    metric. The groove is a Gaussian dip of ``groove_depth`` mm centered
    on ``groove_radius``; without it the plate is a monotone dome (the
    no-channel reference). ``jitter`` perturbs the sampling lattice for
    independent-resampling experiments.
    """
    base = _dome(radius, height)
    dip = None if groove_radius is None else _groove_dip(
        groove_radius, groove_depth, groove_width
    )

    def h(x, y):
        z = base(x, y)
        if dip is not None:
            z = z - dip(x, y)
        for cx, cy, amp, sigma in bumps:
            z = z + amp * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / sigma**2)
        return z

    if minor is None:
        footprint = lambda t: np.full_like(t, float(radius))
    else:
        footprint = _ellipse(radius, minor)
    mesh, boundary = _disc_mesh(footprint, h, rings, sectors, jitter, rng)
    return plate_from_disc(mesh, boundary, side)


def hemisphere_plate(radius=30.0, rings=80, sectors=240):
    """Open hemispherical cap over z = 0 (analytic height sqrt(r^2 - x^2 - y^2))."""

    def h(x, y):
        return np.sqrt(np.maximum(radius * radius - x * x - y * y, 0.0))

    # keep the footprint slightly inside the equator so faces stay non-vertical
    foot = 0.995 * radius
    mesh, boundary = _disc_mesh(lambda t: np.full_like(t, foot), h, rings, sectors)
    return plate_from_disc(mesh, boundary)


def _ellipse(a, b):
    def rho(t):
        return a * b / np.sqrt((b * np.cos(t)) ** 2 + (a * np.sin(t)) ** 2)

    return rho


def skirted_plate(a=60.0, b=45.0, height=8.0, rings=70, sectors=240,
                  skirt_rings=6, skirt_drop=6.0, skirt_inset=2.0):
    """Elliptical arched plate with a rib-like skirt hanging off its rim.

    The skirt slopes down and inward (the plate edge overhangs it, as a
    plate overhangs the ribs), so the rim is the widest ring of every
    cross-section. Returns the mesh plus labelled index arrays:
    ``plate`` (dome including the rim), ``rim`` and ``skirt``.
    """
    rho = _ellipse(a, b)
    mesh, rim = _disc_mesh(rho, _dome(max(a, b), height), rings, sectors)
    t = np.arange(1, skirt_rings + 1) / skirt_rings
    shrink = 1.0 - skirt_inset * t / max(a, b)
    ring_z = mesh.vertices[rim, 2] - (skirt_drop * t)[:, None]
    skirt, skirt_ids = _rings(rho, shrink, ring_z, mesh.n_vertices)
    chain = np.vstack([rim, skirt_ids])
    full = TriangleMesh(np.vstack([mesh.vertices, skirt]),
                        np.vstack([mesh.faces, _strip(chain[:-1], chain[1:])]))
    labels = {
        "plate": np.arange(mesh.n_vertices),
        "rim": rim,
        "skirt": skirt_ids.ravel(),
    }
    return full, labels


def instrument_body(a=60.0, b=45.0, arch=8.0, rib_height=18.0,
                    rings=50, sectors=200, rib_rings=8, rib_inset=2.0):
    """Closed instrument-like body: arched top, inward-bulging ribs, arched back.

    Both plate rims reach equally far out; the ribs bulge inward between
    them. Returns the mesh and labels ``sound_board``, ``back``, ``ribs``.
    """
    rho = _ellipse(a, b)
    top, rim = _disc_mesh(rho, _dome(max(a, b), arch), rings, sectors)
    top_verts = top.vertices.copy()
    top_verts[:, 2] += rib_height / 2.0
    bot_verts = top.vertices.copy()
    bot_verts[:, 2] = -rib_height / 2.0 - bot_verts[:, 2]
    n_top = len(top_verts)

    t = np.arange(1, rib_rings) / rib_rings
    bulge = 1.0 - (rib_inset / max(a, b)) * np.sin(np.pi * t)
    top_z, bot_z = top_verts[rim, 2], bot_verts[rim, 2]
    ribs, rib_ids = _rings(rho, bulge, top_z + (bot_z - top_z) * t[:, None], 2 * n_top)
    chain = np.vstack([rim, rib_ids, n_top + rim])
    body = TriangleMesh(
        np.vstack([top_verts, bot_verts, ribs]),
        np.vstack([top.faces, top.faces[:, ::-1] + n_top, _strip(chain[:-1], chain[1:])]),
    )
    labels = {
        "sound_board": np.arange(n_top),
        "back": np.arange(n_top, 2 * n_top),
        "ribs": rib_ids.ravel(),
    }
    return body, labels


def mirror_pair(radius=50.0, height=10.0, rings=60, sectors=200,
                plane_z=0.0, gap=4.0, bump_deg=None, bump_height=2.0,
                tilt_deg=0.0):
    """Exactly mirror-symmetric sound board / back pair about ``z = plane_z``.

    The sound board floats ``gap`` mm above the plane; the back is its
    exact mirror image. ``bump_deg = (lo, hi)`` raises that angular arc
    of the sound-board rim by ``bump_height`` mm (the raised-contour
    artefact of plate isolation; breaks exact symmetry) and reports the
    bump's plate-mesh vertex ids for masking. ``tilt_deg`` rotates both
    plates together about the y axis.

    Returns
    -------
    (sound_board, back, bump_ids)
    """
    base = _dome(radius, height)

    def h(x, y):
        return plane_z + gap + base(x, y)

    mesh, boundary = _disc_mesh(lambda t: np.full_like(t, float(radius)), h,
                                rings, sectors)
    verts = mesh.vertices.copy()
    mirrored = verts.copy()
    mirrored[:, 2] = 2.0 * plane_z - mirrored[:, 2]

    # the rim artefact is one-sided: it breaks the exact mirror symmetry
    bump_ids = np.array([], dtype=np.int64)
    if bump_deg is not None:
        lo, hi = np.deg2rad(bump_deg[0]), np.deg2rad(bump_deg[1])
        ring = np.asarray(boundary)
        theta = np.arctan2(verts[ring, 1], verts[ring, 0]) % (2 * np.pi)
        sel = (theta >= lo) & (theta <= hi)
        bump_ids = ring[sel]
        verts[bump_ids, 2] += bump_height

    if tilt_deg:
        ang = np.deg2rad(tilt_deg)
        rot = np.array([
            [np.cos(ang), 0, np.sin(ang)],
            [0, 1, 0],
            [-np.sin(ang), 0, np.cos(ang)],
        ])
        verts = verts @ rot.T
        mirrored = mirrored @ rot.T

    sb = plate_from_disc(TriangleMesh(verts, mesh.faces), boundary, "sound_board")
    back = plate_from_disc(
        TriangleMesh(mirrored, mesh.faces[:, ::-1]), boundary, "back"
    )
    return sb, back, bump_ids


def reduced_pair(radius=50.0, height=12.0, rings=100, sectors=360,
                 groove_offset=10.0, groove_depth=1.0, groove_width=1.5,
                 slice_width=5.0, refair_trim=3.0):
    """Unreduced plate and its width-reduced counterpart.

    The reduced plate models the removal of a ``slice_width`` mm band of
    wood along the long axis: the two halves are shifted together
    (surface heights are pulled back from the original dome and groove)
    and the outline is re-faired where the halves join, trimming
    ``refair_trim`` mm off the pointy corners the raw junction leaves,
    the way a rejoined plate is re-edged. Near the joins the contour
    therefore sits closer to the surviving groove, which is the
    channel-trace signature of a reduction.
    """
    r0 = radius - groove_offset
    unreduced = disc_plate(radius, height, rings, sectors,
                           groove_radius=r0, groove_depth=groove_depth,
                           groove_width=groove_width)

    half = slice_width / 2.0
    base = _dome(radius, height)
    dip = _groove_dip(r0, groove_depth, groove_width)

    def pullback_height(x, y):
        y_orig = y + np.where(y >= 0, half, -half)
        return base(x, y_orig) - dip(x, y_orig)

    def rejoined_rho(t):
        s = np.abs(np.sin(t))
        return -half * s + np.sqrt(radius * radius - half * half * (1 - s * s))

    apex = float(np.sqrt(radius * radius - half * half))
    a_trim = apex - refair_trim
    b_trim = radius - half
    trim = _ellipse(a_trim, b_trim)

    def footprint(t):
        return np.minimum(rejoined_rho(t), trim(t))

    mesh, boundary = _disc_mesh(footprint, pullback_height, rings, sectors)
    reduced = plate_from_disc(mesh, boundary)
    return unreduced, reduced


def icosphere(radius=10.0, subdivisions=4):
    """Closed triangulated sphere by icosahedron subdivision."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=np.float64)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = list(verts)
    for _ in range(subdivisions):
        cache = {}

        def midpoint(i, j):
            key = (i, j) if i < j else (j, i)
            if key not in cache:
                m = verts[i] + verts[j]
                m /= np.linalg.norm(m)
                cache[key] = len(verts)
                verts.append(m)
            return cache[key]

        new_faces = []
        for i, j, k in faces:
            a, b, c = midpoint(i, j), midpoint(j, k), midpoint(k, i)
            new_faces.extend([(i, a, c), (j, b, a), (k, c, b), (a, b, c)])
        faces = new_faces
    return TriangleMesh(np.asarray(verts) * radius, faces)
