"""Generative checks of the algebraic invariants."""

import importlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from violinmorph import slicing
from violinmorph.decimate import _COND_LIMIT, _solvable, decimate
from violinmorph.errors import TopologicalLockError
from violinmorph.grid import HeightGrid, grid_difference_stats, interpolate_grid
from violinmorph.mesh import PointCloud, TriangleMesh
from violinmorph.registration import (
    NormalField,
    SimilarityTransform,
    apply_transform,
    point_to_plane_sq,
    point_to_point,
    point_to_point_sq,
)
from violinmorph.slicing import cross_section, cross_sections
from violinmorph.symmetry import _rotation_to_vertical
from violinmorph.synthetic import disc_plate

from conftest import grid_mesh, unit_plane
from oracles import cross_section_loop, decimate_loop, interpolate_grid_loop

coords = st.floats(min_value=-100.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False, width=32)


def cloud(min_points=2, max_points=40):
    return arrays(np.float64, st.tuples(
        st.integers(min_points, max_points), st.just(3)), elements=coords
    ).map(PointCloud)


@st.composite
def transforms(draw):
    x = draw(arrays(np.float64, 3, elements=st.floats(-50, 50)))
    angles = draw(arrays(np.float64, 3, elements=st.floats(-180, 180)))
    k = draw(st.floats(0.1, 10.0))
    return SimilarityTransform(x, angles, k)


@settings(max_examples=60, deadline=None)
@given(cloud(), cloud())
def test_am_qm_inequality(s, p):
    assert point_to_point(s, p) <= np.sqrt(point_to_point_sq(s, p)) + 1e-12


@settings(max_examples=60, deadline=None)
@given(cloud(), cloud(), st.randoms(use_true_random=False))
def test_plane_bounded_by_point_metric(s, p, rnd):
    rng = np.random.default_rng(rnd.randrange(2**32))
    normals = rng.normal(size=(len(s), 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    plane = point_to_plane_sq(s, p, NormalField(normals))
    assert np.sqrt(plane) <= np.sqrt(point_to_point_sq(s, p)) + 1e-12


@settings(max_examples=60, deadline=None)
@given(cloud(), transforms())
def test_transform_scales_pairwise_distances(s, t):
    out = apply_transform(t, s)
    i, j = 0, len(s) - 1
    before = np.linalg.norm(s.points[i] - s.points[j])
    after = np.linalg.norm(out.points[i] - out.points[j])
    assert after == np.float64(after)  # finite
    np.testing.assert_allclose(after, t.scale * before,
                               rtol=1e-9, atol=1e-9 * max(t.scale, 1.0))


@settings(max_examples=60, deadline=None)
@given(cloud(), transforms())
def test_transform_inverse_round_trip(s, t):
    back = apply_transform(t.inverse(), apply_transform(t, s))
    scale = max(1.0, np.abs(s.points).max()) * max(t.scale, 1.0 / t.scale)
    np.testing.assert_allclose(back.points, s.points, atol=1e-9 * scale)


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 8)),
              elements=st.one_of(coords, st.just(np.nan))),
       st.randoms(use_true_random=False))
def test_grid_difference_symmetric(values, rnd):
    rng = np.random.default_rng(rnd.randrange(2**32))
    other = values + rng.normal(0, 1.0, values.shape)
    a = HeightGrid((0, 0), 1.0, values)
    b = HeightGrid((0, 0), 1.0, other)
    ab = grid_difference_stats(a, b)
    ba = grid_difference_stats(b, a)
    assert ab == ba


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 10), st.integers(8, 40), st.integers(0, 2**32 - 1),
       st.sampled_from([1.0, 0.7, 0.35]), st.sampled_from(["upper", "lower"]),
       arrays(np.float64, 3, elements=st.floats(-1, 1)), st.floats(-0.5, 0.5))
def test_batched_kernels_match_loop_oracles(rings, sectors, seed, spacing, side,
                                            direction, offset):
    rng = np.random.default_rng(seed)
    mesh = disc_plate(radius=20.0, height=6.0, rings=rings, sectors=sectors,
                      groove_radius=14.0, jitter=0.4, rng=rng).mesh
    up = np.array([0.2 * direction[0], 0.2 * direction[1], 1.0])
    mesh = mesh.transformed(rotation=_rotation_to_vertical(up / np.linalg.norm(up)))
    new = interpolate_grid(mesh, spacing, side)
    old = interpolate_grid_loop(mesh, spacing, side)
    assert new.values.tobytes() == old.values.tobytes()

    normal = direction if np.linalg.norm(direction) > 1e-3 else np.array([0.0, 0.0, 1.0])
    vertex = mesh.vertices[seed % mesh.n_vertices]
    for off in (offset * 20.0, normal @ vertex):
        plane = unit_plane(normal, off)
        new = cross_section(mesh, *plane)
        old = cross_section_loop(mesh, *plane)
        assert [(p.points.tobytes(), p.closed) for p in new] == \
            [(p.points.tobytes(), p.closed) for p in old]


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 8), st.integers(8, 30), st.integers(0, 2**32 - 1),
       st.lists(st.tuples(arrays(np.float64, 3, elements=st.floats(-1, 1)),
                          st.floats(-25.0, 25.0), st.booleans()), max_size=12))
def test_batched_sections_match_loop_oracle(rings, sectors, seed, specs):
    mesh = disc_plate(radius=20.0, height=6.0, rings=rings, sectors=sectors,
                      groove_radius=14.0, jitter=0.4, rng=np.random.default_rng(seed)).mesh
    planes = []
    for k, (direction, offset, through_vertex) in enumerate(specs):
        normal = direction if np.linalg.norm(direction) > 1e-3 else np.array([0.0, 0.0, 1.0])
        if through_vertex:
            offset = normal @ mesh.vertices[(seed + k) % mesh.n_vertices]
        planes.append(unit_plane(normal, offset))
    sections = cross_sections(mesh, np.array([n for n, _ in planes]).reshape(-1, 3),
                              [o for _, o in planes])
    assert len(sections) == len(planes)
    for i, plane in enumerate(planes):
        assert [(p.points.tobytes(), p.closed) for p in sections.polylines(i)] == \
            [(p.points.tobytes(), p.closed) for p in cross_section_loop(mesh, *plane)]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(-6, 6),
       arrays(np.float64, (4, 3), elements=st.floats(-1, 1)), st.floats(-40.0, 40.0))
def test_gathered_corner_distances_equal_the_full_projection(seed, magnitude, directions,
                                                             offset):
    # the explicit products of corners gathered per (plane, face) pair, as
    # the channel's crossings take them, against the gathered projection of
    # every vertex, as a full cut takes them: bit for bit, oblique normals
    rng = np.random.default_rng(seed)
    verts = rng.uniform(-50.0, 50.0, (60, 3)) * 10.0 ** magnitude
    faces = rng.integers(0, 60, (80, 3))
    normals = [d / np.linalg.norm(d) if np.linalg.norm(d) > 1e-3 else np.array([0.0, 0.6, 0.8])
               for d in directions]
    normals = np.array(normals)
    plane, face = rng.integers(0, 4, 300), rng.integers(0, 80, 300)
    offsets = offset + np.arange(4.0)
    gathered = slicing._project(verts[faces[face]], normals[plane, None]) - offsets[plane, None]
    full = np.array([slicing._project(verts, n) - o for n, o in zip(normals, offsets)])
    assert gathered.tobytes() == full[plane[:, None], faces[face]].tobytes()
    # an axis-aligned normal keeps the coordinate's value (a zero's sign may differ)
    for k, axis in enumerate(np.eye(3)):
        assert np.array_equal(slicing._project(verts, axis), verts[:, k])


def _pillow(corner, size):
    """Two triangles on the same three vertices, wound both ways: a plane that
    crosses them cuts a ring of two points."""
    verts = corner + size * np.array([[0.0, 0.0, 0.0], [1.0, 0.2, 0.5], [0.3, 1.0, -0.5]])
    return verts, np.array([[0, 1, 2], [0, 2, 1]])


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 7), st.integers(3, 7), st.integers(0, 2**32 - 1), st.booleans(),
       st.sampled_from([0.0, 2e-9, 3e-9, 1.0]),
       st.lists(st.tuples(st.sampled_from([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0),
                                           (1, 1, 1), (0.6, 0.0, 0.8)]),
                          st.integers(-1, 8),
                          st.sampled_from([0.0, 0.5, 5e-13, 1e-9, 1.5e-9, -2e-9])),
                min_size=1, max_size=10))
@example(3, 3, 0, True, 2e-9, [((1, 0, 0), 1, 1e-9), ((1, 0, 0), 1, 0.0), ((0, 1, 0), 1, 0.5)])
@example(4, 4, 1, True, 1.0, [((1, -1, 0), 0, 0.0), ((0, 0, 1), 1, 5e-13), ((1, 0, 0), 1, 0.5)])
@example(3, 3, 2, False, 3e-9, [((1, 0, 0), 1, 1.5e-9), ((1, 0, 0), 1, 1e-9)])  # 2.4e-9, 3.3e-9
def test_full_cut_points_are_among_the_crossings(nx, ny, seed, fin, pillow, specs):
    # every point of the chained full cut is one of the unchained crossings,
    # with the same bytes: grids on integer heights (planes through
    # vertices, so nudged points that merge), a fin on an interior edge
    # (branched planes) and a two-point ring, small enough to merge or not
    rng = np.random.default_rng(seed)
    heights = rng.integers(0, 3, (nx, ny)).astype(float)
    grid = grid_mesh(nx, ny, height=lambda x, y: heights[x.astype(int), y.astype(int)])
    verts, faces = grid.vertices, grid.faces
    if fin:
        a, b = faces[len(faces) // 2, :2]
        verts = np.vstack([verts, 0.5 * (verts[a] + verts[b]) + [0.0, 0.0, 2.0]])
        faces = np.vstack([faces, [[a, b, len(verts) - 1]]])
    if pillow:
        extra, tris = _pillow(np.array([1.0, 1.0, 1.0]), pillow)
        faces = np.vstack([faces, tris + len(verts)])
        verts = np.vstack([verts, extra])
    mesh = TriangleMesh(verts, faces)
    planes = [unit_plane(normal, offset + shift) for normal, offset, shift in specs]
    normals, offsets = np.array([n for n, _ in planes]), [o for _, o in planes]
    near = slicing.crossings_near(mesh, normals, offsets, np.zeros((len(planes), 2)), np.inf)
    full = cross_sections(mesh, normals, offsets)
    s = full.point_starts()
    for i in range(len(planes)):
        assert {p.tobytes() for p in full.points[s[i]:s[i + 1]]} <= \
            {p.tobytes() for p in near.points[near.plane == i]}


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 8), st.integers(8, 30), st.integers(0, 2**32 - 1),
       st.lists(st.tuples(arrays(np.float64, 3, elements=st.floats(-1, 1)),
                          arrays(np.float64, 2, elements=st.floats(-22.0, 22.0)),
                          st.booleans()), min_size=1, max_size=12),
       st.floats(0.5, 30.0))
def test_crossings_near_hold_every_point_near_the_centre(rings, sectors, seed, specs, radius):
    # every full-cut point within ``radius`` of its plane's centre (xy) is
    # among the plane's crossings near the centre, with the same bytes;
    # planes are vertical or tilted, through the centre or through a vertex
    mesh = disc_plate(radius=20.0, height=6.0, rings=rings, sectors=sectors,
                      groove_radius=14.0, jitter=0.4, rng=np.random.default_rng(seed)).mesh
    normals, offsets, centres = [], [], []
    for k, (direction, centre, through_vertex) in enumerate(specs):
        normal = direction if np.linalg.norm(direction) > 1e-3 else np.array([1.0, 0.0, 0.0])
        normal = normal / np.linalg.norm(normal)
        if through_vertex:
            vertex = mesh.vertices[(seed + k) % mesh.n_vertices]
            centre, offset = vertex[:2], normal @ vertex
        else:
            offset = normal[:2] @ centre
        normals.append(normal)
        offsets.append(offset)
        centres.append(centre)
    near = slicing.crossings_near(mesh, normals, offsets, centres, radius)
    full = cross_sections(mesh, normals, offsets)
    s = full.point_starts()
    for i, centre in enumerate(centres):
        pts = full.points[s[i]:s[i + 1]]
        inside = np.hypot(*(pts[:, :2] - centre).T) <= radius
        assert {p.tobytes() for p in pts[inside]} <= \
            {p.tobytes() for p in near.points[near.plane == i]}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(["planar", "sloped", "saddle"]), st.integers(3, 10),
       st.integers(3, 10), st.sampled_from([0.0, 1e-3, 0.2]), st.integers(0, 2**32 - 1),
       st.floats(0.0, 1.0))
def test_decimate_grids_match_loop_oracle(shape, nx, ny, jitter, seed, fraction):
    # planar and sloped grids tie their errors, so batched runs are undone
    height = {"planar": lambda x, y: 0.0 * x, "sloped": lambda x, y: 0.3 * x - 0.2 * y,
              "saddle": lambda x, y: 0.05 * (x - nx / 2) * (y - ny / 2)}[shape]
    grid = grid_mesh(nx, ny, height=height)
    rng = np.random.default_rng(seed)
    mesh = TriangleMesh(grid.vertices + rng.uniform(-jitter, jitter, grid.vertices.shape),
                        grid.faces)
    target = 1 + int(fraction * (mesh.n_faces - 1))
    try:
        new = decimate(mesh, target)
    except TopologicalLockError as lock:
        with pytest.raises(TopologicalLockError, match=re.escape(str(lock))):
            decimate_loop(mesh, target)
        return
    old = decimate_loop(mesh, target)
    assert new.vertices.tobytes() == old.vertices.tobytes()
    assert new.faces.tobytes() == old.faces.tobytes()


def _psd_stack(rng, conditions, signs=(1.0, 1.0, 1.0)):
    """Random symmetric 3x3 matrices with the given condition numbers, at random scales:
    PSD, unless ``signs`` turns some eigenvalues (largest first) negative."""
    rotations = np.linalg.qr(rng.normal(size=(len(conditions), 3, 3)))[0]
    top = 10.0 ** rng.uniform(-4.0, 4.0, len(conditions))
    middle = top * conditions ** -rng.uniform(0.0, 1.0, len(conditions))
    values = np.column_stack([top, middle, top / conditions]) * signs
    return rotations @ (values[:, :, None] * rotations.transpose(0, 2, 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 60))
def test_screened_condition_test_equals_the_svd_test(seed, rows):
    rng = np.random.default_rng(seed)
    ends = rng.normal(size=(4, 3))
    spread = _psd_stack(rng, 10.0 ** rng.uniform(0.0, 10.0, rows))
    band = _psd_stack(rng, rng.uniform(0.6, 1.8, 8) * _COND_LIMIT)  # near the limit
    a = np.concatenate([
        spread, band,
        np.outer(ends[0], ends[0])[None],  # rank 1
        (np.outer(ends[1], ends[1]) + np.outer(ends[2], ends[2]))[None],  # rank 2
        np.diag([0.0, 0.0, 3.0])[None], np.diag([2.0, 1.0, 0.0])[None],  # exactly singular
        np.zeros((1, 3, 3)),
    ])
    s = np.linalg.svd(a, compute_uv=False)
    with np.errstate(all="ignore"):
        plain = s[:, 0] / s[:, -1] < _COND_LIMIT
    solvable = _solvable(a)
    assert solvable.tolist() == plain.tolist()
    assert not solvable[-5:].any()  # x / 0 and 0 / 0


def _near_parallel_blocks(rng, rows):
    """Sums of n n^T over four unit normals near one direction (rank 1) or
    two each near one of two (rank 2), plus noise from 0 to 1e-2."""
    bases = rng.normal(size=(rows, 2, 3))
    pick = np.where(rng.random(rows)[:, None] < 0.5, [0, 0, 0, 0], [0, 0, 1, 1])
    normals = bases[np.arange(rows)[:, None], pick]
    noise = np.where(rng.random(rows) < 0.2, 0.0, 10.0 ** rng.uniform(-16.0, -2.0, rows))
    normals = normals + noise[:, None, None] * rng.normal(size=(rows, 4, 3))
    normals /= np.linalg.norm(normals, axis=2, keepdims=True)
    return np.einsum("rki,rkj->rij", normals, normals)


def _at_the_screen_bound(rng, factors):
    """diag(1, m, s), permuted and scaled, with s set so that the screen's
    bound tr e2 / det is ``factors`` times _COND_LIMIT / 4.

    For diag(1, m, s) the bound is (1 + m + s)(m + s + m s) / (m s), a
    quadratic in s whose smaller root is taken.
    """
    m = 10.0 ** rng.uniform(-3.0, 0.0, len(factors))
    bound = factors * _COND_LIMIT / 4
    b = (1 + m) ** 2 + m - bound * m
    larger = (-b + np.sqrt(b * b - 4 * (1 + m) ** 2 * m)) / (2 * (1 + m))
    s = m / larger  # the roots' product is m
    values = np.column_stack([np.ones_like(m), m, s]) * 10.0 ** rng.uniform(-4.0, 4.0, (len(m), 1))
    values = np.take_along_axis(values, rng.permuted(np.tile([0, 1, 2], (len(m), 1)), axis=1), 1)
    return values[:, :, None] * np.eye(3)


def _sloped_grid_blocks(monkeypatch):
    """Every block ``decimate`` tests on the sloped 10 x 10 grid (rank-1 plane quadrics)."""
    module = importlib.import_module("violinmorph.decimate")  # the package exports the function
    blocks, solvable = [], module._solvable

    def record(a, counters=None):
        blocks.append(np.array(a))
        return solvable(a, counters)

    monkeypatch.setattr(module, "_solvable", record)
    decimate(grid_mesh(10, 10, height=lambda x, y: 0.3 * x - 0.2 * y + 1.0), 40)
    monkeypatch.undo()
    return np.concatenate(blocks)


def test_screen_equals_eigvalsh_equals_svd_on_a_seeded_batch(monkeypatch):
    rng = np.random.default_rng(32)
    inside = _at_the_screen_bound(rng, 1 - 10.0 ** rng.uniform(-6.0, -1.0, 2_000))
    outside = _at_the_screen_bound(rng, 1 + 10.0 ** rng.uniform(-6.0, -1.0, 2_000))
    guards = [np.diag([1.0, t, t]) for t in 1e-6 * np.array([0.99, 0.999, 1.0, 1.001, 1.01])]
    extremes = 10.0 ** rng.choice([-160.0, -150.0, -100.0, 100.0, 150.0, 200.0], (2_000, 1, 1))
    # rank 2 where the determinant's terms are subnormal: its rounding can come out positive
    turns = np.linalg.qr(rng.normal(size=(2_000, 3, 3)))[0]
    values = 10.0 ** rng.uniform(-110.0, -100.0, (2_000, 3)) * [1.0, 1.0, 0.0]
    subnormal = turns @ (values[:, :, None] * turns.transpose(0, 2, 1))
    a = np.concatenate([
        _psd_stack(rng, 10.0 ** rng.uniform(0.0, 10.0, 40_000)),
        # indefinite with a positive trace and determinant, and negative definite
        _psd_stack(rng, 10.0 ** rng.uniform(0.0, 10.0, 2_000), (1.0, -1.0, -1.0)),
        np.diag([10.0, -1.0, -1e-9])[None],
        _psd_stack(rng, 10.0 ** rng.uniform(0.0, 10.0, 2_000), (-1.0, -1.0, -1.0)),
        extremes * _psd_stack(rng, 10.0 ** rng.uniform(0.0, 10.0, 2_000)), subnormal,
        _psd_stack(rng, rng.uniform(0.6, 1.8, 20_000) * _COND_LIMIT),
        _psd_stack(rng, (1.0 + rng.uniform(-1e-3, 1e-3, 10_000)) * _COND_LIMIT),
        _near_parallel_blocks(rng, 30_000),
        _sloped_grid_blocks(monkeypatch),
        inside, outside, guards,
        np.diag([0.0, 0.0, 3.0])[None], np.diag([2.0, 1.0, 0.0])[None], np.zeros((1, 3, 3)),
    ])
    assert len(a) >= 100_000
    counters = {"eigvalsh_rows": 0}
    solvable = _solvable(a, counters)
    e = np.abs(np.linalg.eigvalsh(a))
    s = np.linalg.svd(a, compute_uv=False)
    with np.errstate(all="ignore"):
        by_eigvalsh = e.max(axis=1) / e.min(axis=1) < _COND_LIMIT
        by_svd = s[:, 0] / s[:, -1] < _COND_LIMIT
    assert solvable.tolist() == by_eigvalsh.tolist() == by_svd.tolist()
    assert 0 < counters["eigvalsh_rows"] < len(a)
    assert not solvable[-3:].any()
    # the screen decides just inside its bound and leaves just outside it
    for rows, left in ((inside, 0), (outside, len(outside))):
        counters = {"eigvalsh_rows": 0}
        assert _solvable(rows, counters).all()  # conditions _COND_LIMIT / 8 to / 4
        assert counters["eigvalsh_rows"] == left


@settings(max_examples=15, deadline=None)
@given(st.integers(3, 7), st.integers(8, 24), st.integers(0, 2**32 - 1),
       st.floats(0.05, 0.95))
def test_decimate_matches_loop_oracle(rings, sectors, seed, fraction):
    mesh = disc_plate(radius=20.0, height=6.0, rings=rings, sectors=sectors,
                      groove_radius=14.0, jitter=0.4, rng=np.random.default_rng(seed)).mesh
    target = max(1, int(fraction * mesh.n_faces))
    new, old = decimate(mesh, target), decimate_loop(mesh, target)
    assert new.vertices.tobytes() == old.vertices.tobytes()
    assert new.faces.tobytes() == old.faces.tobytes()
