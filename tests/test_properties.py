"""Generative checks of the algebraic invariants."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from violinmorph import slicing
from violinmorph.decimate import decimate
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


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 8), st.integers(8, 30), st.integers(0, 2**32 - 1),
       st.lists(st.tuples(arrays(np.float64, 3, elements=st.floats(-1, 1)),
                          arrays(np.float64, 2, elements=st.floats(-22.0, 22.0)),
                          st.booleans()), min_size=1, max_size=12),
       st.floats(0.5, 30.0))
def test_sections_near_hold_every_point_near_the_centre(rings, sectors, seed, specs, radius):
    # every full-cut point within ``radius`` of its plane's centre (xy) is in
    # the restricted cut with the same bytes; planes are vertical or tilted,
    # through the centre or through a vertex
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
    near = slicing.sections_near(mesh, normals, offsets, centres, radius)
    full = cross_sections(mesh, normals, offsets)
    s, t = full.point_starts(), near.point_starts()
    for i, centre in enumerate(centres):
        pts = full.points[s[i]:s[i + 1]]
        inside = np.hypot(*(pts[:, :2] - centre).T) <= radius
        if full.crowded_planes[i]:
            continue  # a merge may have dropped a point one cut keeps
        assert {p.tobytes() for p in pts[inside]} <= \
            {p.tobytes() for p in near.points[t[i]:t[i + 1]]}


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
