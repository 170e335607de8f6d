"""The batched grid, section and decimation kernels, the synthetic builders and the
component grouping against their loop oracles."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph

from violinmorph import grid, morphology, slicing, synthetic
from violinmorph.decimate import _normals, _targets, decimate
from violinmorph.errors import ContractError, DisconnectedError, TopologicalLockError
from violinmorph.grid import interpolate_grid, joint_grid_domain
from violinmorph.isolation import isolate_plate, rough_split
from violinmorph.mesh import TriangleMesh, VertexMask, connected_components, shortest_path
from violinmorph.morphology import channel_of_minima
from violinmorph.orientation import orient_to_frame, principal_frame
from violinmorph.registration import SimilarityTransform
from violinmorph.slicing import (
    cross_section, cross_sections, extreme_points, sections_near,
)
from violinmorph.symmetry import _rotation_to_vertical, build_symmetry_frame
from violinmorph.synthetic import (
    disc_plate, hemisphere_plate, icosphere, instrument_body, mirror_pair, plate_from_disc,
    reduced_pair, skirted_plate,
)

from conftest import axis_plane, grid_mesh, unit_plane
from oracles import (
    _optimal_position,
    channel_of_minima_full_scan,
    chain_by_components,
    channel_stations_loop,
    connected_components_loop,
    cross_section_loop,
    cross_sections_full_scan,
    decimate_loop,
    dijkstra_undirected,
    disc_mesh_loop,
    extreme_points_loop,
    instrument_body_loop,
    interpolate_grid_loop,
    mesh_edges_axis0,
    shortest_path_unbounded,
    skirted_plate_loop,
)


def assert_same_grid(new, old):
    assert np.array_equal(new.values, old.values, equal_nan=True)
    assert new.values.tobytes() == old.values.tobytes()  # signed zeros too
    assert np.array_equal(new.origin, old.origin)
    assert new.spacing == old.spacing


def assert_same_sections(new, old):
    assert len(new) == len(old)
    for p, q in zip(new, old):
        assert p.points.shape == q.points.shape and p.points.tobytes() == q.points.tobytes()
        assert p.closed == q.closed


@pytest.fixture(scope="module")
def body_plates():
    body, labels = instrument_body(rings=12, sectors=48, rib_rings=4)
    return body, [body.submesh(labels[side])[0] for side in ("sound_board", "back")]


@pytest.fixture(scope="module")
def tilt():
    normal = np.array([0.06, -0.04, 1.0])
    return _rotation_to_vertical(normal / np.linalg.norm(normal))


class TestGridOracle:
    @pytest.mark.parametrize("spacing", [1.0, 0.5, 0.3])
    @pytest.mark.parametrize("rotated", [False, True])
    def test_body_plates_match_loop(self, body_plates, tilt, spacing, rotated):
        _, plates = body_plates
        if rotated:
            plates = [p.transformed(rotation=tilt) for p in plates]
        origin, shape = joint_grid_domain(plates, spacing)
        for plate in plates:
            for side in ("upper", "lower"):
                assert_same_grid(
                    interpolate_grid(plate, spacing, side, origin, shape),
                    interpolate_grid_loop(plate, spacing, side, origin, shape),
                )

    def test_default_lattice_and_partial_overlap(self, body_plates):
        _, (sound_board, _) = body_plates
        assert_same_grid(interpolate_grid(sound_board, 0.7, "upper"),
                         interpolate_grid_loop(sound_board, 0.7, "upper"))
        # a lattice that clips the footprint on every side
        origin, shape = (-20.3, -11.9), (31, 17)
        assert_same_grid(interpolate_grid(sound_board, 1.3, "lower", origin, shape),
                         interpolate_grid_loop(sound_board, 1.3, "lower", origin, shape))

    def test_candidates_span_many_chunks(self):
        plate = disc_plate(radius=30.0, rings=20, sectors=80).mesh
        origin, shape = joint_grid_domain([plate], 0.25)
        assert shape[0] * shape[1] > 10 * grid._CHUNK_NODES
        for side in ("upper", "lower"):
            assert_same_grid(interpolate_grid(plate, 0.25, side),
                             interpolate_grid_loop(plate, 0.25, side))

    def test_face_larger_than_one_chunk(self):
        small = grid_mesh(6, 6, height=lambda x, y: 0.3 * x - 0.1 * y)
        big = np.array([[-80.0, -60.0, 2.0], [90.0, -50.0, 7.0], [-70.0, 75.0, -3.0]])
        verts = np.vstack([small.vertices, big])
        n = small.n_vertices
        # the big face sits between small ones, so chunks end on both sides
        faces = np.vstack([small.faces[:20], [[n, n + 1, n + 2]], small.faces[20:]])
        mesh = TriangleMesh(verts, faces)
        lo, hi = big[:, :2].min(axis=0), big[:, :2].max(axis=0)
        assert np.prod(hi - lo + 1) > grid._CHUNK_NODES
        for side in ("upper", "lower"):
            assert_same_grid(interpolate_grid(mesh, 1.0, side),
                             interpolate_grid_loop(mesh, 1.0, side))

    def test_tiny_chunks(self, body_plates, monkeypatch):
        _, (_, back) = body_plates
        monkeypatch.setattr(grid, "_CHUNK_NODES", 3)
        assert_same_grid(interpolate_grid(back, 1.0, "lower"),
                         interpolate_grid_loop(back, 1.0, "lower"))

    def test_vertical_and_skipped_faces(self):
        # vertical, nearly vertical (|n_z| < 1e-12 |n| but a usable
        # barycentric denominator) and ordinary faces
        verts = [[0, 0, 0], [1, 0, 0], [1, 0, 5], [0, 0, 5], [0.2, 3, 1], [0.9, 3.5, 1.5],
                 [0, 10, 0], [1, 10, 2], [1, 10 + 1e-14, 5]]
        mesh = TriangleMesh(verts, [[0, 1, 2], [0, 2, 3], [0, 1, 4], [1, 5, 4], [6, 7, 8]])
        for spacing in (0.5, 0.1):
            assert_same_grid(interpolate_grid(mesh, spacing, "upper"),
                             interpolate_grid_loop(mesh, spacing, "upper"))


def _batch(planes):
    """``cross_sections``' arrays of a list of planes: (k, 3) normals, k offsets."""
    return (np.array([normal for normal, _ in planes]).reshape(-1, 3),
            np.array([offset for _, offset in planes]))


def _planes_through_vertices(mesh, rng, count):
    planes = []
    for vi in rng.choice(mesh.n_vertices, count, replace=False):
        normal = rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        planes.append(unit_plane(normal, normal @ mesh.vertices[vi]))
        axis = "xyz"[vi % 3]
        planes.append(axis_plane(axis, mesh.vertices[vi, "xyz".index(axis)]))
    return planes


def _random_vertical_planes(mesh, rng, count):
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    planes = []
    for _ in range(count):
        theta = rng.uniform(0, 2 * np.pi)
        normal = np.array([np.cos(theta), np.sin(theta), 0.0])
        planes.append(unit_plane(normal, normal @ rng.uniform(lo, hi)))
    return planes


def _axis_planes(mesh, per_axis):
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    return [axis_plane(axis, off)
            for k, axis in enumerate("xyz")
            for off in np.linspace(lo[k], hi[k], per_axis + 2)[1:-1]]


class TestSectionOracle:
    @pytest.fixture(scope="class")
    def meshes(self, body_plates):
        body, (sound_board, _) = body_plates
        open_plate = disc_plate(radius=30.0, rings=15, sectors=60,
                                rng=np.random.default_rng(3), jitter=0.3).mesh
        return [body, sound_board, open_plate]

    def check(self, mesh, planes):
        for plane in planes:
            assert_same_sections(cross_section(mesh, *plane),
                                 cross_section_loop(mesh, *plane))

    def test_random_vertical_planes(self, meshes):
        rng = np.random.default_rng(11)
        for mesh in meshes:
            self.check(mesh, _random_vertical_planes(mesh, rng, 25))

    def test_axis_planes(self, meshes):
        for mesh in meshes:
            self.check(mesh, _axis_planes(mesh, 15))

    def test_planes_through_vertices(self, meshes):
        rng = np.random.default_rng(12)
        for mesh in meshes:
            self.check(mesh, _planes_through_vertices(mesh, rng, 10))

    def test_flat_mesh_in_plane_and_misses(self):
        flat = grid_mesh(5, 5)
        for plane in (unit_plane((0, 0, 1.0), 0.0), unit_plane((0, 0, 1.0), 4.0),
                      unit_plane((1.0, 0, 0), 2.0), unit_plane((1.0, 1.0, 0), 3.0)):
            assert_same_sections(cross_section(flat, *plane), cross_section_loop(flat, *plane))

    def test_non_manifold_edge(self):
        # three sheets hinged on one edge, plus a duplicated face
        verts = [[0, 0, 0], [0, 0, 2], [1, 0, 1], [-1, 0.5, 1], [0, -1, 1], [1, 1, 1]]
        faces = [[0, 1, 2], [0, 1, 3], [1, 0, 4], [0, 2, 5], [2, 5, 0], [1, 2, 5]]
        mesh = TriangleMesh(verts, faces)
        for z in (0.5, 1.0, 1.5):
            plane = unit_plane((0, 0, 1.0), z)
            assert_same_sections(cross_section(mesh, *plane), cross_section_loop(mesh, *plane))


def _fin_mesh(ball=False):
    # a fin hinged on one interior grid edge: that edge has three faces;
    # with ``ball``, a sphere above the hinge that vertical planes through
    # the hinge cut into a ring
    base = grid_mesh(7, 7, height=lambda x, y: 0.02 * (x - y) ** 2)
    a, b = base.faces[20, :2]
    hinge = 0.5 * (base.vertices[a] + base.vertices[b])
    verts = np.vstack([base.vertices, hinge + [0, 0, 3.0]])
    faces = np.vstack([base.faces, [[a, b, len(base.vertices)]]])
    if ball:
        sphere = icosphere(2.0, 2)
        faces = np.vstack([faces, sphere.faces + len(verts)])
        verts = np.vstack([verts, sphere.vertices + hinge + [0, 0, 10.0]])
    with pytest.warns(UserWarning, match="1 non-manifold edges"):
        mesh = TriangleMesh(verts, faces)
        mesh.edges
    return mesh, hinge


class TestBatchedSectionsOracle:
    """Every plane of a ``cross_sections`` batch against the loop oracle."""

    @pytest.fixture(scope="class")
    def body(self, body_plates):
        return body_plates[0]

    def check(self, mesh, planes):
        sections = cross_sections(mesh, *_batch(planes))
        assert len(sections) == len(planes)
        s = sections.point_starts()
        for i, plane in enumerate(planes):
            old = cross_section_loop(mesh, *plane)
            assert_same_sections(sections.polylines(i), old)
            flat = np.concatenate([p.points for p in old]) if old else np.empty((0, 3))
            assert sections.points[s[i]:s[i + 1]].tobytes() == flat.tobytes()
        return sections

    def test_mixed_empty_and_crossing_planes(self, body):
        lo, hi = body.vertices.min(axis=0), body.vertices.max(axis=0)
        planes = []
        for k, axis in enumerate("xyz"):
            for off in (lo[k] - 1.0, 0.5 * (lo[k] + hi[k]), hi[k] + 1.0, lo[k] + 0.1):
                planes.append(axis_plane(axis, off))
        sections = self.check(body, [planes[0]] + planes + [planes[-2]])
        assert sum(not sections.polylines(i) for i in range(len(sections))) == 8
        assert len(self.check(body, planes[2::4])) == 3          # every plane misses
        assert len(cross_sections(body, *_batch([]))) == 0
        with pytest.raises(IndexError):
            sections.polylines(len(sections))

    def test_lattice_planes_through_vertices(self):
        # every grid vertex sits on some plane, so the nudge path runs everywhere
        mesh = grid_mesh(9, 7, height=lambda x, y: np.round(0.25 * x * y))
        planes = [axis_plane(axis, float(off))
                  for axis in "xyz" for off in range(-1, 10)]
        planes += [unit_plane((1.0, 1.0, 0.0), off) for off in range(14)]
        self.check(mesh, planes)

    def test_planes_through_body_vertices(self, body):
        self.check(body, _planes_through_vertices(body, np.random.default_rng(21), 20))

    def test_sections_near_batch_equals_planes_one_by_one(self, body):
        # one tree query serves the whole batch: each plane's cut is the one
        # it gets alone
        rng = np.random.default_rng(22)
        normals, offsets = _batch(_random_vertical_planes(body, rng, 10) + _axis_planes(body, 3))
        centres = rng.uniform(-20.0, 20.0, (len(offsets), 2))
        whole = sections_near(body, normals, offsets, centres, 15.0)
        s = whole.point_starts()
        for i in range(len(offsets)):
            alone = sections_near(body, normals[i:i + 1], offsets[i:i + 1], centres[i:i + 1], 15.0)
            assert_same_sections(whole.polylines(i), alone.polylines(0))
            assert whole.points[s[i]:s[i + 1]].tobytes() == alone.points.tobytes()
            assert whole.crowded_planes[i] == alone.crowded_planes[0]

    def test_rings_and_open_chains_in_one_plane(self, body):
        # the closed body beside an open plate: planes across both cut a ring
        # from the body and an open chain from the plate
        plate = disc_plate(radius=20.0, height=5.0, rings=8, sectors=40, groove_radius=14.0,
                           jitter=0.2, rng=np.random.default_rng(5)).mesh
        shift = body.vertices[:, 1].max() - plate.vertices[:, 1].min() + 2.0
        mesh = TriangleMesh(np.vstack([plate.vertices + [0.0, shift, 0.0], body.vertices]),
                            np.vstack([plate.faces, body.faces + plate.n_vertices]))
        planes = [unit_plane((1.0, 0.01 * k, 0.02), float(off))
                  for k, off in enumerate(np.linspace(-15.0, 15.0, 9))]
        sections = self.check(mesh, planes)
        for i in range(len(planes)):
            assert {p.closed for p in sections.polylines(i)} == {False, True}

    def test_seam_and_collapsed_polylines(self):
        # two sheets with separate vertices along a seam at x = 5: one open
        # polyline ends on the seam where the next one starts
        left, right = grid_mesh(6, 5), grid_mesh(6, 5)
        seam = TriangleMesh(np.vstack([left.vertices, right.vertices + [5.0, 0.0, 0.0]]),
                            np.vstack([left.faces, right.faces + left.n_vertices]))
        sections = self.check(seam, [axis_plane("y", off)
                                     for off in (0.5, 1.0, 2.25, 3.7)])
        first, second = sections.polylines(0)
        assert np.array_equal(first.points[-1], second.points[0])
        # a plane touching a needle's tip: the whole ring of crossing points
        # sits within 1e-9 mm of the tip and merges into one point
        ring = [[0.1 * np.cos(a), 0.1 * np.sin(a), 0.0]
                for a in np.linspace(0, 2 * np.pi, 7)[:-1]]
        needle = TriangleMesh([[0.0, 0.0, 10.0]] + ring,
                              [[0, 1 + k, 1 + (k + 1) % 6] for k in range(6)])
        planes = [unit_plane((0, 0, 1.0), 10.0), unit_plane((0, 0, 1.0), 5.0),
                  unit_plane((0, 0, 1.0), 10.0)]
        sections = self.check(needle, planes)
        assert [len(sections.polylines(i)) for i in range(3)] == [0, 1, 0]

    def test_non_manifold_fin_beside_manifold_planes(self):
        mesh, hinge = _fin_mesh(ball=True)
        planes = [unit_plane((0, 0, 1.0), z) for z in (0.05, 0.5, 1.0, 2.0, 2.9, 10.0)]
        planes += [axis_plane(axis, off)
                   for axis in "xy" for off in np.linspace(0.3, 5.7, 7)]
        planes += _random_vertical_planes(mesh, np.random.default_rng(23), 10)
        # through the hinge: open chains and a ring in a plane that takes the walk
        for theta in np.linspace(0.1, 3.0, 6):
            normal = np.array([np.cos(theta), np.sin(theta), 0.0])
            planes.append(unit_plane(normal, normal @ hinge + 0.01))
        sections = self.check(mesh, planes)
        assert {p.closed for p in sections.polylines(len(planes) - 1)} == {False, True}
        hinged = TriangleMesh([[0, 0, 0], [0, 0, 2], [1, 0, 1], [-1, 0.5, 1], [0, -1, 1],
                               [1, 1, 1]],
                              [[0, 1, 2], [0, 1, 3], [1, 0, 4], [0, 2, 5], [2, 5, 0],
                               [1, 2, 5]])
        self.check(hinged, [unit_plane((0, 0, 1.0), z) for z in (0.5, 1.5, 1.0, 3.0, 0.7)])

    def test_channel_like_vertical_planes(self, body_plates):
        rng = np.random.default_rng(24)
        for mesh in body_plates[1]:
            self.check(mesh, _random_vertical_planes(mesh, rng, 60))


def _random_links(rng, n_planes):
    """Random crossing-edge links over ``n_planes`` planes, as ``_chain`` takes them.

    A plane holds nothing, open chains and rings (2-node rings too), or
    such pieces plus one extra link that branches them. Nodes are
    numbered plane-major, in random order within their plane; links come
    in random order and orientation.
    """
    plane, ends, base = [], [], 0
    for p in range(n_planes):
        kind = rng.choice(["empty", "manifold", "branched"], p=[0.2, 0.6, 0.2])
        if kind == "empty":
            continue
        links, m = [], 0
        for _ in range(rng.integers(1, 5)):
            size = int(rng.integers(2, 7))
            links += [(m + k, m + k + 1) for k in range(size - 1)]
            if rng.random() < 0.5:
                links.append((m + size - 1, m))            # a ring; size 2 doubles a link
            m += size
        if kind == "branched":
            x, y = rng.choice(m, 2, replace=False)
            links.append((x, y))
        perm = rng.permutation(m)
        ends += [(base + perm[a], base + perm[b]) for a, b in links]
        plane += [p] * m
        base += m
    ends = np.array(ends, dtype=np.int64).reshape(-1, 2)[rng.permutation(len(ends))]
    flip = rng.random(len(ends)) < 0.5
    ends[flip] = ends[flip, ::-1]
    return np.array(plane, dtype=np.int64), ends


class TestChainOracle:
    """``slicing._chain``'s one depth-first pass against the component-labelling
    chain order it replaced."""

    def check(self, plane, ends):
        new, old = slicing._chain(plane, ends), chain_by_components(plane, ends)
        for a, b in zip(new, old):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        return new

    def test_random_link_sets(self):
        rng = np.random.default_rng(31)
        kinds = {"open": 0, "ring": 0, "branched": 0}
        for _ in range(300):
            plane, ends = _random_links(rng, int(rng.integers(1, 7)))
            if not len(plane):
                continue
            nodes, key, closed = self.check(plane, ends)
            deg = np.bincount(ends.ravel(), minlength=len(plane))
            kinds["open"] += int((~closed).any())
            kinds["ring"] += int(closed.any())
            kinds["branched"] += int((deg > 2).any())
        assert min(kinds.values()) > 50

    def test_ring_left_by_its_lower_numbered_face(self):
        # node 0's lower-numbered face leads to node 2: the walk goes 0, 2, 1,
        # which a graph whose rows are sorted by neighbour would not give
        plane = np.zeros(3, dtype=np.int64)
        ends = np.array([[0, 2], [0, 1], [1, 2]])
        nodes, _, closed = self.check(plane, ends)
        assert nodes.tolist() == [0, 2, 1] and closed.all()
        # an open chain beside it in the next plane comes first there
        plane = np.array([0, 0, 0, 1, 1, 1, 1])
        ends = np.array([[4, 6], [0, 2], [0, 1], [1, 2], [3, 5], [6, 3]])
        nodes, _, closed = self.check(plane, ends)
        assert nodes.tolist() == [0, 2, 1, 4, 6, 3, 5]
        assert closed.tolist() == [True] * 3 + [False] * 4


def _framed_plates(**body):
    """Both plates of an instrument body, isolated and framed as ``pipeline`` does."""
    body, _ = instrument_body(**body)
    body = orient_to_frame(body, principal_frame(body.point_cloud()))
    a = [isolate_plate(rough_split(body, side)[0], side, tie_tol=1.0)
         for side in ("sound_board", "back")]
    frame = build_symmetry_frame(*a)
    return [frame.apply_plate(p) for p in a]


@pytest.fixture(scope="module")
def bench_plates():
    # body A of the pipeline benchmark
    return _framed_plates(rings=15, sectors=60, rib_rings=4)


class TestChannelStationsOracle:
    """The channel's stations as arrays against the per-station loop, byte for byte."""

    @pytest.fixture(scope="class")
    def plates(self, bench_plates):
        return (bench_plates + list(mirror_pair(rings=20, sectors=90)[:2])
                + [disc_plate(radius=60.0, minor=42.0, height=12.0, rings=20, sectors=90)])

    @pytest.mark.parametrize("stations", [8, 37, 400, 1000])
    def test_array_stations_match_loop(self, plates, stations, monkeypatch):
        calls, real = [], morphology._stations

        def spy(*args):
            calls.append((args, real(*args)))
            return calls[-1][1]

        monkeypatch.setattr(morphology, "_stations", spy)
        for plate in plates:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                channel_of_minima(plate, stations=stations)
        assert len(calls) == len(plates)
        for args, new in calls:
            old = channel_stations_loop(*args)
            assert old[0].all() and len(old[1]) == stations
            for a, b in zip(new, old, strict=True):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()


def assert_same_trace(new, old):
    for name in ("points", "arc_lengths", "inward_offsets", "smoothed_points", "contour_points"):
        a, b = getattr(new, name), getattr(old, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert ((new.no_channel, new.stations_total, new.stations_skipped)
            == (old.no_channel, old.stations_total, old.stations_skipped))


def _outcome(fn, *args, **kwargs):
    """(result or error text, warning texts) of one call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args, **kwargs)
        except ContractError as exc:
            result = f"ContractError: {exc}"
    return result, [str(w.message) for w in caught]


def check_channel(plate, **kwargs):
    """The channel with window cuts against the full-scan oracle; returns the counters."""
    counters = {}
    new, new_warnings = _outcome(channel_of_minima, plate, counters=counters, **kwargs)
    old, old_warnings = _outcome(channel_of_minima_full_scan, plate, **kwargs)
    assert new_warnings == old_warnings
    if isinstance(old, str):
        assert new == old
    else:
        assert_same_trace(new, old)
    return counters


def _plate_with_vertices(plate, vertices, faces=None):
    return plate_from_disc(TriangleMesh(vertices, plate.mesh.faces if faces is None else faces),
                           plate.contour.vertex_indices, plate.side)


@pytest.fixture(scope="module")
def channel_plates(bench_plates):
    """Framed body plates, grooved and jittered discs, and a skirted plate whose
    skirt hangs inside every window."""
    skirted, labels = skirted_plate(a=40.0, b=30.0, rings=14, sectors=60)
    return bench_plates + [
        disc_plate(radius=30.0, rings=15, sectors=60, groove_radius=24.0),
        disc_plate(radius=40.0, minor=28.0, rings=14, sectors=70, groove_radius=33.0,
                   jitter=0.3, rng=np.random.default_rng(8), side="back"),
        plate_from_disc(skirted, labels["rim"]),
    ]


class TestChannelWindowOracle:
    """``channel_of_minima`` cutting each station near its window only, against the
    full-width cut it replaced: the same trace bytes, warnings and errors."""

    def test_bench_plates(self, bench_plates):
        faces = bench_plates[0].mesh.n_faces
        for plate in bench_plates:
            counters = check_channel(plate)
            assert counters["stations_cut"] == 400
            # the window cut tests a small fraction of the full scan's pairs
            assert counters["pairs_visited"] < 400 * faces // 20
            assert 1 <= counters["full_cut_stations"] <= 10

    def test_station_through_a_contour_vertex(self, monkeypatch):
        # station 0 sits on contour vertex 0, so the vertex is nudged and
        # its crossings merge: the window cut is crowded and cut again
        plate = disc_plate(radius=30.0, rings=15, sectors=60)
        cuts, real = [], morphology.sections_near
        monkeypatch.setattr(morphology, "sections_near",
                            lambda *args: cuts.append(real(*args)) or cuts[-1])
        counters = check_channel(plate)
        assert cuts[0].crowded_planes[0]
        assert counters["full_cut_stations"] == np.count_nonzero(cuts[0].crowded_planes)

    def test_exact_z_ties_in_window(self):
        # a flat ring around the rim: every window point of every station
        # shares the lowest z, and the full cut's chain order breaks the tie
        plate = disc_plate(radius=30.0, rings=15, sectors=60)
        verts = plate.mesh.vertices.copy()
        r = np.hypot(verts[:, 0], verts[:, 1])
        verts[:, 2] = np.maximum(verts[:, 2], verts[np.argmin(np.abs(r - 20.0)), 2])
        counters = check_channel(_plate_with_vertices(plate, verts), stations=97)
        assert counters["full_cut_stations"] == counters["stations_cut"] == 97

    def test_empty_window_and_missed_plane(self, monkeypatch):
        # Re-cut stations overwrite their rows by index, at both ends and
        # inside. Stations 0 and 3 move outward along their own planes, so
        # the planes still cut the plate but the windows hold no point (and
        # station 0's window cut is empty); station 7's plane misses the
        # plate; the last station's window lies on a wedge flattened at the
        # level of the r = 20 ring, so several window points share its lowest
        # z, and the window cut's chain order would pick another of them.
        plate = disc_plate(radius=30.0, rings=15, sectors=60, groove_radius=24.0)
        verts = plate.mesh.vertices.copy()
        r = np.hypot(verts[:, 0], verts[:, 1])
        # the last of 97 stations sits at -360 / 97 degrees
        wedge = np.abs(np.degrees(np.arctan2(verts[:, 1], verts[:, 0])) + 360 / 97) < 4.0
        level = verts[np.argmin(np.where(wedge, np.abs(r - 20.0), np.inf)), 2]
        verts[wedge, 2] = np.maximum(verts[wedge, 2], level)
        plate = _plate_with_vertices(plate, verts)
        real, real_near, stations, cuts = morphology._stations, morphology.sections_near, [], []

        def moved(*args):
            kept, centres, normals, offsets, inward = real(*args)
            centres, offsets = centres.copy(), offsets.copy()
            centres[[0, 3], :2] -= 40.0 * inward[[0, 3]]
            offsets[7] += 1e3
            stations.append((centres, inward))
            return kept, centres, normals, offsets, inward

        monkeypatch.setattr(morphology, "_stations", moved)
        monkeypatch.setattr(morphology, "sections_near",
                            lambda *args: cuts.append(real_near(*args)) or cuts[-1])
        new, caught = _outcome(channel_of_minima, plate, window_mm=15.0, stations=97)
        assert [w.split(" at ")[0] for w in caught] == ["no interior points in window"] * 2 + [
            "empty channel section"]
        assert new.stations_skipped == 3 and len(new.points) == 94
        centres, inward = stations[0]
        s = cuts[0].point_starts()
        assert s[1] == s[0]
        pts = cuts[0].points[s[-2]:s[-1]]
        depth = (pts[:, :2] - centres[-1, :2]) @ inward[-1]
        window = pts[(depth >= 0.0) & (depth <= 15.0)]
        lowest = window[window[:, 2] == window[:, 2].min()]
        assert not cuts[0].crowded_planes[-1] and len(lowest) > 1
        assert new.contour_points[-1].tobytes() == centres[-1].tobytes()
        assert new.points[-1].tobytes() != lowest[0].tobytes()
        assert check_channel(plate, window_mm=15.0, stations=97)["full_cut_stations"] >= 4

    def test_non_manifold_crossing(self):
        # a fin hanging below an edge near the rim: the lowest window points
        # lie on it, and planes through it take the branched walk
        plate = disc_plate(radius=30.0, rings=15, sectors=60, groove_radius=24.0)
        mesh = plate.mesh
        ends = mesh.vertices[mesh.edges]
        # the edge along the contour nearest (26, 0), so station planes cross it
        along = np.abs(ends[:, 1, 1] - ends[:, 0, 1]) > np.abs(ends[:, 1, 0] - ends[:, 0, 0])
        gap = np.linalg.norm(ends.mean(axis=1)[:, :2] - [26.0, 0.0], axis=1)
        a, b = mesh.edges[np.argmin(np.where(along, gap, np.inf))]
        tip = 0.5 * (mesh.vertices[a] + mesh.vertices[b]) - [0.0, 0.0, 4.0]
        with pytest.warns(UserWarning, match="1 non-manifold edges"):
            fin = _plate_with_vertices(plate, np.vstack([mesh.vertices, tip]),
                                       np.vstack([mesh.faces, [[a, b, mesh.n_vertices]]]))
            fin.mesh.edges
        check_channel(fin)
        trace, _ = _outcome(channel_of_minima, fin)
        assert (trace.points[:, 2] < mesh.vertices[:, 2].min()).sum() >= 2

    def test_paper_like_body(self):
        # a 31k-vertex body: 15k-vertex plates, where the full scan is slowest
        for plate in _framed_plates(rings=70, sectors=220):
            assert plate.mesh.n_vertices > 15_000
            assert check_channel(plate)["full_cut_stations"] <= 10
        body, _ = instrument_body(rings=70, sectors=220)
        rough = rough_split(orient_to_frame(body, principal_frame(body.point_cloud())),
                            "back")[0]
        check_extreme(rough, "x", 1.0, prefer_z="min", tie_tol=1.0)


@settings(max_examples=30, deadline=None)
@given(plate=st.integers(0, 4), stations=st.integers(8, 1000),
       window=st.floats(1.0, 40.0))
def test_channel_window_cut_matches_full_scan(channel_plates, plate, stations, window):
    check_channel(channel_plates[plate], stations=stations, window_mm=window)


def assert_same_arrays(new, old):
    """Two :class:`~violinmorph.slicing.Sections` hold the same arrays, byte for byte."""
    for name in ("points", "starts", "closed", "plane_starts", "crowded_planes"):
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestCrossSectionsSweepOracle:
    """``cross_sections``' interval sweep against the all-pairs full scan, byte for byte,
    on batches mixing normals, offsets and hits on vertices."""

    def check(self, mesh, normals, offsets):
        normals = np.asarray(normals, dtype=np.float64).reshape(-1, 3)
        swept = cross_sections(mesh, normals, offsets)
        full = cross_sections_full_scan(mesh, normals, offsets)
        assert len(swept) == len(full) == len(normals)
        assert_same_arrays(swept, full)
        assert swept.pairs_visited <= full.pairs_visited
        return swept

    def test_lattice_offsets_on_body_and_plates(self, body_plates):
        body, plates = body_plates
        for mesh in [body] + plates:
            normals, offsets = [], []
            for axis in range(3):
                lo, hi = mesh.vertices[:, axis].min(), mesh.vertices[:, axis].max()
                lattice = slicing.section_offsets(lo, hi, 0.7)
                self.check(mesh, np.tile(np.eye(3)[axis], (len(lattice), 1)), lattice)
                normals += [np.eye(3)[axis]] * len(lattice)
                offsets += list(lattice)
            self.check(mesh, normals, offsets)   # three normals in one call

    def test_shared_and_distinct_normals_in_one_call(self, body_plates):
        body, _ = body_plates
        rng = np.random.default_rng(42)
        tilted = rng.normal(size=(4, 3))
        tilted /= np.linalg.norm(tilted, axis=1)[:, None]
        # the shared normals interleaved with one-off ones, as the channel's
        # fallback stations come
        pick = rng.integers(0, 4, 30)
        normals = np.vstack([tilted[pick], rng.normal(size=(10, 3))])
        normals = rng.permutation(normals / np.linalg.norm(normals, axis=1)[:, None])
        offsets = rng.uniform(-30.0, 30.0, len(normals))
        self.check(body, normals, offsets)
        self.check(body, normals[:2], offsets[:2])

    def test_normals_differing_in_a_zero_sign_or_the_last_bit(self, body_plates):
        body, _ = body_plates
        tilted = np.array([0.6, 0.0, 0.8])
        next_bit = np.array([np.nextafter(0.6, 1.0), 0.0, 0.8])
        normals = np.array([[0.0, 0.0, 1.0], [-0.0, 0.0, 1.0], [0.0, -0.0, 1.0],
                            [-0.0, -0.0, 1.0], tilted, next_bit, [0.6, -0.0, 0.8]])
        assert len(np.unique(normals.view(np.uint64), axis=0)) == len(normals)
        vertices = body.vertices[np.random.default_rng(43).choice(body.n_vertices, 5)]
        offsets = [[n @ v for v in vertices] + [0.0, -0.0, 7.5] for n in normals]
        self.check(body, np.repeat(normals, len(offsets[0]), axis=0), np.ravel(offsets))

    def test_offsets_at_and_near_vertex_coordinates(self, body_plates):
        body, _ = body_plates
        rng = np.random.default_rng(41)
        normals, offsets = [], []
        for axis, normal in enumerate(np.eye(3)):
            coords = body.vertices[rng.choice(body.n_vertices, 12, replace=False), axis]
            near = np.concatenate([coords + shift for shift in
                                   (0.0, 1e-12, -1e-12, 5e-13, -5e-13, 2e-12, -2e-12)])
            swept = self.check(body, np.tile(normal, (len(near), 1)), near)
            assert swept.crowded_planes.any()
            normals += [normal] * len(near)
            offsets += list(near)
        tilted = np.array([0.6, 0.0, 0.8])
        through = body.vertices[rng.choice(body.n_vertices, 20)] @ tilted
        self.check(body, np.tile(tilted, (20, 1)), through)
        self.check(body, normals + [tilted] * 20, offsets + list(through))

    def test_exact_vertex_hits_unsorted_repeated_and_missing(self):
        mesh = grid_mesh(9, 7, height=lambda x, y: np.round(0.25 * x * y))
        z = [3.0, -1.0, 0.0, 3.0, 7.5, 12.0, 1.0, 20.0, 0.0]
        self.check(mesh, np.tile(np.eye(3)[2], (len(z), 1)), z)
        self.check(mesh, np.tile(np.eye(3)[0], (11, 1)), np.arange(-1.0, 10.0))
        mixed = [np.eye(3)[k % 3] for k in range(len(z))]
        self.check(mesh, mixed, z)
        assert len(self.check(mesh, np.empty((0, 3)), [])) == 0

    def test_non_manifold_fin(self):
        mesh, hinge = _fin_mesh(ball=True)
        z = [0.05, 0.5, 1.0, 2.0, 2.9, 10.0, 11.0]
        x = np.linspace(0.3, 5.7, 13)
        self.check(mesh, np.tile(np.eye(3)[2], (len(z), 1)), z)
        self.check(mesh, np.tile(np.eye(3)[0], (len(x), 1)), x)
        # through the hinge, beside the axis planes: planes that take the walk
        theta = np.linspace(0.1, 3.0, 6)
        through = np.column_stack([np.cos(theta), np.sin(theta), np.zeros(6)])
        self.check(mesh, [np.eye(3)[2]] * len(z) + list(through) + [np.eye(3)[0]] * len(x),
                   np.concatenate([z, through @ hinge + 0.01, x]))

    def test_sweep_visits_few_pairs(self, body_plates):
        body, _ = body_plates
        sections = cross_sections(body, np.tile(np.eye(3)[0], (41, 1)),
                                  np.linspace(-50.0, 50.0, 41))
        assert sections.pairs_visited < 41 * body.n_faces // 10


def check_extreme(mesh, *args, **kwargs):
    """``extreme_points`` against the per-cut loop: same bytes, warnings and errors."""
    new, new_warnings = _outcome(extreme_points, mesh, *args, **kwargs)
    old, old_warnings = _outcome(extreme_points_loop, mesh, *args, **kwargs)
    assert new_warnings == old_warnings
    if isinstance(old, str):
        assert new == old
    else:
        assert new.shape == old.shape and new.tobytes() == old.tobytes()


class TestExtremePointsOracle:
    """``extreme_points``' picks, vectorized over the cuts, against the per-cut loop."""

    def test_rough_plates(self, body_plates):
        body, _ = body_plates
        for side, prefer in (("sound_board", "max"), ("back", "min")):
            rough = rough_split(body, side)[0]
            for tie_tol in (0.0, 0.5, 1.0, 5.0):
                check_extreme(rough, "x", 1.0, prefer_z=prefer, tie_tol=tie_tol)
            check_extreme(rough, "y", 0.7, keep_interval=(-5.0, 12.0), keep_count=6,
                       prefer_z=prefer, tie_tol=1.0)
            check_extreme(rough, "x", 1.0, keep_interval=(-30.0, 30.0), keep_count=3)

    def test_ties_and_stacked_surfaces(self):
        verts = [[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 5, 0], [1, 5, 0], [2, 5, 0],
                 [0, 0, 3], [1, 0, 3], [2, 0, 3], [0, 5, 3], [1, 5, 3], [2, 5, 3]]
        faces = [[0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4], [6, 7, 10], [6, 10, 9],
                 [7, 8, 11], [7, 11, 10], [0, 1, 7], [0, 7, 6], [3, 4, 10], [3, 10, 9]]
        mesh = TriangleMesh(verts, faces)
        grid = grid_mesh(12, 8, height=lambda x, y: np.round(0.1 * x * y))
        for m in (mesh, grid):
            for prefer in (None, "max", "min"):
                for tie_tol in (0.0, 0.5, 6.0):
                    check_extreme(m, "x", 1.0, prefer_z=prefer, tie_tol=tie_tol)
                    check_extreme(m, "y", 0.5, keep_interval=(1.0, 2.0), prefer_z=prefer,
                               tie_tol=tie_tol)

    def test_empty_cuts_warn_in_order(self):
        # two plates with a gap between them along x: the cuts in the gap are
        # empty; a lone sliver gives no point at all
        left = grid_mesh(5, 4)
        right = grid_mesh(5, 4)
        mesh = TriangleMesh(np.vstack([left.vertices, right.vertices + [10.0, 0.0, 0.0]]),
                            np.vstack([left.faces, right.faces + left.n_vertices]))
        check_extreme(mesh, "x", 1.0)
        check_extreme(mesh, "x", 0.3, keep_interval=(2.0, 12.0), prefer_z="max", tie_tol=1.0)
        sliver = TriangleMesh([[0, 0, 0], [1e-3, 0, 0], [0, 1, 0]], [[0, 1, 2]])
        check_extreme(sliver, "x", 1.0)

    def test_counters(self, body_plates):
        body, _ = body_plates
        counters = {}
        extreme_points(body, "x", 1.0, counters=counters)
        assert counters["planes"] == len(slicing.section_offsets(
            body.vertices[:, 0].min(), body.vertices[:, 0].max(), 1.0))
        assert 0 < counters["pairs_visited"] < counters["planes"] * body.n_faces // 10


class TestEdgesAndPathsOracle:
    @pytest.fixture(scope="class")
    def meshes(self, body_plates):
        plate = disc_plate(radius=20.0, rings=10, sectors=40, jitter=0.3,
                           rng=np.random.default_rng(2)).mesh
        return [grid_mesh(12, 12), grid_mesh(30, 30, 0.5), plate, body_plates[0]]

    def test_edges_match_row_unique(self, meshes):
        fin = _fin_mesh()[0]
        for mesh in meshes + [fin, icosphere(5.0, 2)]:
            edges, counts = mesh_edges_axis0(mesh)
            assert mesh.edges.tobytes() == edges.tobytes()
            assert mesh.edges.shape == edges.shape
        assert np.count_nonzero(mesh_edges_axis0(fin)[1] > 2) == 1

    def test_directed_search_matches_undirected(self, meshes):
        # grids have many equal-length paths, so predecessor ties are common
        rng = np.random.default_rng(31)
        for mesh in meshes:
            for start in rng.choice(mesh.n_vertices, 40, replace=False).tolist():
                dist, pred = dijkstra_undirected(mesh, start)
                goals = [int(np.argmax(dist))] + rng.choice(mesh.n_vertices, 4).tolist()
                for goal in goals:
                    path = [goal]
                    while path[-1] != start:
                        path.append(int(pred[path[-1]]))
                    assert shortest_path(mesh, start, goal) == path[::-1]

    def test_bounded_search_matches_unbounded(self, meshes, body_plates):
        rough = [rough_split(body_plates[0], side)[0] for side in ("sound_board", "back")]
        rng = np.random.default_rng(37)
        for mesh in meshes + rough:
            for start in rng.choice(mesh.n_vertices, 30, replace=False).tolist():
                # close goals like consecutive anchors, and a few far ones
                gaps = np.linalg.norm(mesh.vertices - mesh.vertices[start], axis=1)
                near = np.argsort(gaps, kind="stable")[1:13].tolist()
                for goal in near + rng.choice(mesh.n_vertices, 3).tolist():
                    assert shortest_path(mesh, start, goal) == \
                        shortest_path_unbounded(mesh, start, goal)

    @pytest.fixture
    def limits(self, monkeypatch):
        """The ``limit`` of every csgraph.dijkstra call."""
        seen = []
        dijkstra = csgraph.dijkstra

        def recording(*args, **kwargs):
            seen.append(kwargs.get("limit"))
            return dijkstra(*args, **kwargs)

        monkeypatch.setattr(csgraph, "dijkstra", recording)
        return seen

    def test_slit_falls_back_to_full_search(self, limits):
        # a 21 x 11 grid cut between columns 10 and 11 below row 9: the
        # vertices facing each other across the slit are 1 mm apart, but
        # the path between them runs around the end of the slit
        n = 11
        base = grid_mesh(21, n)
        i, j = np.divmod(np.arange(base.n_faces) // 2, n - 1)
        mesh = TriangleMesh(base.vertices, base.faces[~((i == 10) & (j < 9))])
        start, goal = 10 * n, 11 * n
        path = shortest_path(mesh, start, goal)
        assert limits == [2.0, np.inf]
        assert path == shortest_path_unbounded(mesh, start, goal)
        assert len(path) > 10

    def test_close_goal_needs_one_bounded_search(self, limits):
        mesh = grid_mesh(30, 30, 0.5)
        path = shortest_path(mesh, 0, 62)  # vertex 62 sits at (1, 1)
        assert limits == [pytest.approx(2.0 * np.sqrt(2.0))]
        assert path == shortest_path_unbounded(mesh, 0, 62)

    def test_disconnected_pair_raises_after_full_search(self, limits):
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [3, 0, 0], [4, 0, 0], [3, 1, 0]]
        mesh = TriangleMesh(verts, [[0, 1, 2], [3, 4, 5]])
        with pytest.raises(DisconnectedError):
            shortest_path(mesh, 0, 3)
        assert limits == [6.0, np.inf]


def assert_same_decimation(mesh, target, counters=None):
    new, old = decimate(mesh, target, counters=counters), decimate_loop(mesh, target)
    assert new.vertices.tobytes() == old.vertices.tobytes()
    assert new.faces.tobytes() == old.faces.tobytes()


def _jittered(mesh, seed, scale):
    rng = np.random.default_rng(seed)
    return TriangleMesh(mesh.vertices + rng.uniform(-scale, scale, mesh.vertices.shape),
                        mesh.faces)


def _shuffled(mesh, seed):
    order = np.random.default_rng(seed).permutation(mesh.n_vertices)
    return TriangleMesh(mesh.vertices[order], np.argsort(order)[mesh.faces])


class TestDecimateOracle:
    @pytest.fixture(scope="class")
    def bench_plate(self):
        # the simplify benchmark's seed-0 plate: c10's grooved disc, turned and shifted
        rng = np.random.default_rng([0, 2])
        plate = disc_plate(radius=50.0, height=12.0, groove_radius=40.0,
                           rings=25, sectors=100).mesh
        t = SimilarityTransform([*rng.uniform(-5.0, 5.0, 2), 0.0],
                                [0.0, 0.0, rng.uniform(-180.0, 180.0)], 1.0)
        return TriangleMesh(t.apply_points(plate.vertices), plate.faces)

    @pytest.mark.parametrize("fraction", [0.6, 0.4, 0.1])
    def test_grooved_plate(self, bench_plate, fraction):
        assert_same_decimation(bench_plate, int(fraction * bench_plate.n_faces))

    def test_icosphere_and_disc_plate(self):
        assert_same_decimation(icosphere(5.0, 3), 300)
        plate = disc_plate(radius=20.0, rings=8, sectors=30, jitter=0.3,
                           rng=np.random.default_rng(1)).mesh
        assert_same_decimation(plate, 100)

    def test_planar_sloped_and_jittered_grids(self):
        # planar quadrics are singular, so the {v1, v2, midpoint} fallback runs;
        # shuffled, the grid's collapses tie between v1 and v2, not at a corner
        assert_same_decimation(grid_mesh(12, 12), 60)
        assert_same_decimation(_shuffled(grid_mesh(12, 12), 0), 60)
        assert_same_decimation(grid_mesh(10, 10, height=lambda x, y: 0.3 * x - 0.2 * y + 1.0), 40)
        assert_same_decimation(_jittered(grid_mesh(12, 12), 4, 0.2), 50)
        assert_same_decimation(_jittered(grid_mesh(9, 14, height=lambda x, y: 0.1 * x * y), 5, 0.05), 30)

    def test_hemisphere(self):
        assert_same_decimation(hemisphere_plate(rings=10, sectors=40).mesh, 150)

    def test_zero_area_sliver(self):
        # vertices 0, 1, 2 of the grid are collinear: the sliver adds no
        # plane and does not stop its two edges from being boundary edges
        base = grid_mesh(6, 6, height=lambda x, y: 0.05 * x * x)
        mesh = TriangleMesh(base.vertices, np.vstack([base.faces, [[0, 1, 2]]]))
        assert_same_decimation(mesh, 20)

    def test_non_manifold_edge(self):
        # a fin hinged on one interior grid edge: that edge has three faces
        base = grid_mesh(7, 7, height=lambda x, y: 0.02 * (x - y) ** 2)
        a, b = base.faces[20, :2]
        verts = np.vstack([base.vertices, 0.5 * (base.vertices[a] + base.vertices[b]) + [0, 0, 3.0]])
        mesh = TriangleMesh(verts, np.vstack([base.faces, [[a, b, len(base.vertices)]]]))
        with pytest.warns(UserWarning, match="1 non-manifold edges"):  # from mesh.edges
            assert_same_decimation(mesh, 25)

    def test_face_turned_exactly_90_degrees(self):
        # at 46 faces the cheapest edge (8, 9) moves vertex 9 to (3, 4, 1e-17):
        # face (9, 16, 10) then has its corners on the line y = 4, and its
        # normal turns from +z to one with z exactly 0, so before . after == 0
        # and the collapse is refused (a 90-degree turn counts as a flip);
        # the second collapse, 48 -> 46 faces, is still waiting in its run then
        bump = grid_mesh(6, 6, height=lambda x, y: ((x == 4) & (y == 5)).astype(float))
        for target in (45, 30, 10):
            counters = {}
            assert_same_decimation(bump, target, counters)
            assert counters["flip"] >= 1

    @pytest.mark.parametrize("fraction", [0.4, 0.1])
    @pytest.mark.parametrize("mesh", [
        grid_mesh(20, 20), grid_mesh(12, 12, height=lambda x, y: 0.3 * x - 0.2 * y + 1.0),
    ], ids=["flat", "sloped"])
    def test_tie_heavy_grids_undo_collapses(self, mesh, fraction):
        # planar quadrics: errors tie, and a collapse's ring entries come before
        # the heap's next one, so runs of two collapses are undone back to one
        counters = {}
        assert_same_decimation(mesh, int(fraction * mesh.n_faces), counters)
        assert counters["undone"] > 0

    def test_refused_pop_after_a_smaller_waiting_entry(self):
        # here a pop refused by the link or flip test comes after a smaller
        # entry of an earlier collapse of its run: a check of the run's
        # collapses alone would keep that refusal and lose the edge for good
        for nx, ny, target in ((6, 9, 15), (8, 11, 24)):
            assert_same_decimation(grid_mesh(nx, ny, height=lambda x, y: 0.3 * x - 0.2 * y),
                                   target)

    def test_lone_triangle(self):
        # collapsing an edge of a triangle with no neighbours leaves no face to check
        base = grid_mesh(6, 6, height=lambda x, y: 0.05 * x * y)
        mesh = TriangleMesh(np.vstack([base.vertices, [[10, 0, 0], [11, 0, 0], [10, 1, 0]]]),
                            np.vstack([base.faces, [[36, 37, 38]]]))
        for target in (3, 1):
            assert_same_decimation(mesh, target)

    def test_targets_match_optimal_position_row_by_row(self):
        rng = np.random.default_rng(8)

        def quadric(a, b, c=0.0):
            q = np.zeros((4, 4))
            q[:3, :3], q[:3, 3], q[3, :3], q[3, 3] = a, b, b, c
            return q

        spd = rng.normal(size=(2, 3, 3))
        plane = np.outer([0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
        q = np.array([
            quadric(spd[0] @ spd[0].T + np.eye(3), rng.normal(size=3), 2.0),
            quadric(np.diag([2.0, 1.0, 5e-7]), [0.3, -0.2, 1e-6], 1.0),  # cond 4e6: solved
            quadric(np.diag([1.0, 1.0, 3e-8]), [0.3, -0.2, 1e-6], 1.0),  # cond 3.3e7: not
            quadric(np.zeros((3, 3)), np.zeros(3)),  # singular values 0 / 0
            quadric(plane, [0.0, 0.0, -2.0], 4.0),  # 1 / 0
            quadric(spd[1] @ spd[1].T + 0.5 * np.eye(3), rng.normal(size=3), 0.5),
        ])
        p1 = rng.uniform(-5.0, 5.0, (6, 3))
        p2 = p1 + rng.uniform(-1.0, 1.0, (6, 3))
        cond = np.linalg.cond(q[:, :3, :3])
        assert 1e6 < cond[1] < 1e7 < cond[2] < 1e8
        assert np.isinf(cond[[3, 4]]).all()  # 0 / 0 and 1 / 0 both read as inf
        pos, err = _targets(q, p1, p2)
        for i in range(len(q)):
            want_pos, want_err = _optimal_position(q[i], p1[i], p2[i])
            assert pos[i].tobytes() == np.asarray(want_pos).tobytes()
            assert err[i].tobytes() == np.float64(want_err).tobytes()
        solved = np.linalg.solve(q[:, :3, :3][[0, 1, 5]], -q[:, :3, 3:][[0, 1, 5]])[:, :, 0]
        assert pos[[0, 1, 5]].tobytes() == solved.tobytes()
        for i in (2, 3, 4):
            candidates = [p1[i], p2[i], 0.5 * (p1[i] + p2[i])]
            assert any(pos[i].tobytes() == c.tobytes() for c in candidates)
        assert pos[3].tobytes() == p1[3].tobytes()  # all three candidates cost 0: the first

    def test_normals_match_np_cross(self):
        rng = np.random.default_rng(9)
        stacks = [rng.normal(size=(50, 3, 3)) * 10.0 ** rng.integers(-8, 8, (50, 1, 1)),
                  rng.integers(-3, 4, (50, 3, 3)).astype(float) * 0.5]
        line = rng.normal(size=(20, 1, 3))
        stacks.append(line * np.array([0.0, 1.0, -2.5])[None, :, None])  # collinear
        stacks.append(np.repeat(rng.normal(size=(10, 1, 3)), 3, axis=1))  # one point
        stacks.append(np.array([[[0.0, -0.0, 0.0], [1.0, 0.0, -0.0], [0.0, 1.0, 0.0]]]))
        for corners in stacks:
            want = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
            assert _normals(corners).tobytes() == want.tobytes()

    def test_closed_tetrahedron_same_lock(self):
        mesh = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
                            [[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]])
        with pytest.raises(TopologicalLockError) as new:
            decimate(mesh, 1)
        with pytest.raises(TopologicalLockError) as old:
            decimate_loop(mesh, 1)
        assert str(new.value) == str(old.value)


def assert_same_array(new, old):
    assert new.dtype == old.dtype and new.shape == old.shape
    assert new.tobytes() == old.tobytes()


def assert_same_build(new, old):
    """Meshes, plates, label dicts and index arrays equal byte for byte."""
    if isinstance(new, tuple):
        assert len(new) == len(old)
        for a, b in zip(new, old):
            assert_same_build(a, b)
    elif isinstance(new, dict):
        assert new.keys() == old.keys()
        for key in new:
            assert_same_array(new[key], old[key])
    elif isinstance(new, TriangleMesh):
        assert_same_array(new.vertices, old.vertices)
        assert_same_array(new.faces, old.faces)
    elif isinstance(new, np.ndarray):
        assert_same_array(new, old)
    else:  # PlateMesh
        assert_same_build(new.mesh, old.mesh)
        assert new.contour == old.contour and new.side == old.side
        assert_same_array(new.orig_vertex_ids, old.orig_vertex_ids)
        assert_same_array(new.inner_ids, old.inner_ids)


class TestSyntheticOracle:
    """Strip- and ring-built surfaces against the per-sector loops."""

    @pytest.mark.parametrize("build", [
        lambda: disc_plate(),
        lambda: disc_plate(minor=35.0),
        lambda: disc_plate(groove_radius=40.0),
        lambda: disc_plate(bumps=((8.0, 5.0, 2.0, 8.0), (-20.0, 10.0, -1.0, 5.0))),
        lambda: disc_plate(rings=40, sectors=120, jitter=0.6, rng=np.random.default_rng(7)),
        lambda: hemisphere_plate(),
        lambda: mirror_pair(bump_deg=(20.0, 80.0), tilt_deg=2.0),
        lambda: reduced_pair(),
    ], ids=["plain", "minor", "groove", "bumps", "jitter", "hemisphere", "mirror", "reduced"])
    def test_disc_builders(self, build, monkeypatch):
        new = build()
        monkeypatch.setattr(synthetic, "_disc_mesh", disc_mesh_loop)
        assert_same_build(new, build())

    def test_skirted_plate(self):
        assert_same_build(skirted_plate(), skirted_plate_loop())

    @pytest.mark.parametrize("size", [
        {}, dict(rings=15, sectors=60, rib_rings=4), dict(rings=25, sectors=100, rib_rings=6),
    ], ids=["default", "bench-small", "bench-large"])
    def test_instrument_body(self, size):
        assert_same_build(instrument_body(**size), instrument_body_loop(**size))


class TestComponentsOracle:
    @pytest.fixture(scope="class")
    def body(self):
        return instrument_body(rings=12, sectors=48, rib_rings=4)

    def assert_same_components(self, mesh, removed=None):
        new, old = connected_components(mesh, removed), connected_components_loop(mesh, removed)
        assert len(new) == len(old)
        for a, b in zip(new, old):
            assert_same_array(a, b)
        return new

    def test_no_removal(self, body):
        assert len(self.assert_same_components(body[0])) == 1

    def test_removed_contour(self, body):
        mesh, labels = body
        ring = labels["ribs"][:48]  # the first rib ring cuts the top off
        assert len(self.assert_same_components(mesh, VertexMask(ring))) == 2

    def test_many_singletons(self):
        mesh = disc_plate(rings=30, sectors=90).mesh
        rng = np.random.default_rng(4)
        removed = VertexMask(rng.choice(mesh.n_vertices, mesh.n_vertices * 7 // 10,
                                        replace=False))
        comps = self.assert_same_components(mesh, removed)
        assert sum(len(c) == 1 for c in comps) > 100

    def test_everything_removed(self, body):
        mesh = body[0]
        assert self.assert_same_components(mesh, VertexMask(range(mesh.n_vertices))) == []

    def test_size_ties(self, body):
        mesh, labels = body
        comps = self.assert_same_components(mesh, VertexMask(labels["ribs"]))
        assert len(comps) == 2 and len(comps[0]) == len(comps[1])
        grid = grid_mesh(9, 9)  # a cross of removed vertices leaves four equal squares
        cross = [i * 9 + 4 for i in range(9)] + [4 * 9 + j for j in range(9)]
        comps = self.assert_same_components(grid, VertexMask(cross))
        assert [len(c) for c in comps] == [16] * 4
