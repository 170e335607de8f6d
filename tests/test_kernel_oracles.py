"""The batched grid, section and decimation kernels against their loop oracles."""

import numpy as np
import pytest
from scipy.sparse import csgraph

from violinmorph import grid, slicing
from violinmorph.decimate import decimate
from violinmorph.errors import DisconnectedError, TopologicalLockError
from violinmorph.grid import interpolate_grid, joint_grid_domain
from violinmorph.isolation import rough_split
from violinmorph.mesh import TriangleMesh, shortest_path
from violinmorph.registration import SimilarityTransform
from violinmorph.slicing import SectionPlane, cross_section, cross_sections
from violinmorph.symmetry import _rotation_to_vertical
from violinmorph.synthetic import disc_plate, hemisphere_plate, icosphere, instrument_body

from conftest import grid_mesh
from oracles import (
    cross_section_loop,
    decimate_loop,
    dijkstra_undirected,
    interpolate_grid_loop,
    mesh_edges_axis0,
    shortest_path_unbounded,
)


def assert_same_grid(new, old):
    assert np.array_equal(new.values, old.values, equal_nan=True)
    assert new.values.tobytes() == old.values.tobytes()  # signed zeros too
    assert np.array_equal(new.origin, old.origin)
    assert new.spacing == old.spacing


def assert_same_sections(new, old):
    assert len(new) == len(old)
    for p, q in zip(new, old):
        assert np.array_equal(p.points, q.points)
        assert p.closed == q.closed
        assert p.source_edges == q.source_edges


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


def _planes_through_vertices(mesh, rng, count):
    planes = []
    for vi in rng.choice(mesh.n_vertices, count, replace=False):
        normal = rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        planes.append(SectionPlane(normal, normal @ mesh.vertices[vi]))
        axis = "xyz"[vi % 3]
        planes.append(SectionPlane.orthogonal_to(axis, mesh.vertices[vi, "xyz".index(axis)]))
    return planes


def _random_vertical_planes(mesh, rng, count):
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    planes = []
    for _ in range(count):
        theta = rng.uniform(0, 2 * np.pi)
        normal = np.array([np.cos(theta), np.sin(theta), 0.0])
        planes.append(SectionPlane(normal, normal @ rng.uniform(lo, hi)))
    return planes


def _axis_planes(mesh, per_axis):
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    return [SectionPlane.orthogonal_to(axis, off)
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
            assert_same_sections(cross_section(mesh, plane),
                                 cross_section_loop(mesh, plane))

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
        for plane in (SectionPlane((0, 0, 1.0), 0.0), SectionPlane((0, 0, 1.0), 4.0),
                      SectionPlane((1.0, 0, 0), 2.0), SectionPlane((1.0, 1.0, 0), 3.0)):
            assert_same_sections(cross_section(flat, plane), cross_section_loop(flat, plane))

    def test_non_manifold_edge(self):
        # three sheets hinged on one edge, plus a duplicated face
        verts = [[0, 0, 0], [0, 0, 2], [1, 0, 1], [-1, 0.5, 1], [0, -1, 1], [1, 1, 1]]
        faces = [[0, 1, 2], [0, 1, 3], [1, 0, 4], [0, 2, 5], [2, 5, 0], [1, 2, 5]]
        mesh = TriangleMesh(verts, faces)
        for z in (0.5, 1.0, 1.5):
            plane = SectionPlane((0, 0, 1.0), z)
            assert_same_sections(cross_section(mesh, plane), cross_section_loop(mesh, plane))


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
        sections = cross_sections(mesh, planes)
        assert len(sections) == len(planes)
        for i, plane in enumerate(planes):
            old = cross_section_loop(mesh, plane)
            assert_same_sections(sections.polylines(i), old)
            flat = np.concatenate([p.points for p in old]) if old else np.empty((0, 3))
            assert sections.plane_points(i).tobytes() == flat.tobytes()
        return sections

    def test_mixed_empty_and_crossing_planes(self, body):
        lo, hi = body.vertices.min(axis=0), body.vertices.max(axis=0)
        planes = []
        for k, axis in enumerate("xyz"):
            for off in (lo[k] - 1.0, 0.5 * (lo[k] + hi[k]), hi[k] + 1.0, lo[k] + 0.1):
                planes.append(SectionPlane.orthogonal_to(axis, off))
        sections = self.check(body, [planes[0]] + planes + [planes[-2]])
        assert sum(not sections.polylines(i) for i in range(len(sections))) == 8
        assert len(self.check(body, planes[2::4])) == 3          # every plane misses
        assert len(cross_sections(body, [])) == 0
        with pytest.raises(IndexError):
            sections.plane_points(len(sections))

    def test_lattice_planes_through_vertices(self):
        # every grid vertex sits on some plane, so the nudge path runs everywhere
        mesh = grid_mesh(9, 7, height=lambda x, y: np.round(0.25 * x * y))
        planes = [SectionPlane.orthogonal_to(axis, float(off))
                  for axis in "xyz" for off in range(-1, 10)]
        planes += [SectionPlane((1.0, 1.0, 0.0), off / np.sqrt(2.0)) for off in range(14)]
        self.check(mesh, planes)

    def test_planes_through_body_vertices(self, body):
        self.check(body, _planes_through_vertices(body, np.random.default_rng(21), 20))

    def test_several_chunks_and_plane_larger_than_chunk(self, body, monkeypatch):
        rng = np.random.default_rng(22)
        planes = _random_vertical_planes(body, rng, 10) + _axis_planes(body, 3)
        size = max(body.n_vertices, body.n_faces)
        for budget in (3 * size + 1, 4 * size - 1, size, size - 1, 3):
            monkeypatch.setattr(slicing, "_CHUNK_ELEMENTS", budget)
            self.check(body, planes)

    def test_rings_and_open_chains_in_one_plane(self, body):
        # the closed body beside an open plate: planes across both cut a ring
        # from the body and an open chain from the plate
        plate = disc_plate(radius=20.0, height=5.0, rings=8, sectors=40, groove_radius=14.0,
                           jitter=0.2, rng=np.random.default_rng(5)).mesh
        shift = body.vertices[:, 1].max() - plate.vertices[:, 1].min() + 2.0
        mesh = TriangleMesh(np.vstack([plate.vertices + [0.0, shift, 0.0], body.vertices]),
                            np.vstack([plate.faces, body.faces + plate.n_vertices]))
        planes = [SectionPlane((1.0, 0.01 * k, 0.02), float(off))
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
        sections = self.check(seam, [SectionPlane.orthogonal_to("y", off)
                                     for off in (0.5, 1.0, 2.25, 3.7)])
        first, second = sections.polylines(0)
        assert np.array_equal(first.points[-1], second.points[0])
        # a plane touching a needle's tip: the whole ring of crossing points
        # sits within 1e-9 mm of the tip and merges into one point
        ring = [[0.1 * np.cos(a), 0.1 * np.sin(a), 0.0]
                for a in np.linspace(0, 2 * np.pi, 7)[:-1]]
        needle = TriangleMesh([[0.0, 0.0, 10.0]] + ring,
                              [[0, 1 + k, 1 + (k + 1) % 6] for k in range(6)])
        planes = [SectionPlane((0, 0, 1.0), 10.0), SectionPlane((0, 0, 1.0), 5.0),
                  SectionPlane((0, 0, 1.0), 10.0)]
        sections = self.check(needle, planes)
        assert [len(sections.polylines(i)) for i in range(3)] == [0, 1, 0]

    def test_non_manifold_fin_beside_manifold_planes(self):
        mesh, hinge = _fin_mesh(ball=True)
        planes = [SectionPlane((0, 0, 1.0), z) for z in (0.05, 0.5, 1.0, 2.0, 2.9, 10.0)]
        planes += [SectionPlane.orthogonal_to(axis, off)
                   for axis in "xy" for off in np.linspace(0.3, 5.7, 7)]
        planes += _random_vertical_planes(mesh, np.random.default_rng(23), 10)
        # through the hinge: open chains and a ring in a plane that takes the walk
        for theta in np.linspace(0.1, 3.0, 6):
            normal = np.array([np.cos(theta), np.sin(theta), 0.0])
            planes.append(SectionPlane(normal, normal @ hinge + 0.01))
        sections = self.check(mesh, planes)
        assert {p.closed for p in sections.polylines(len(planes) - 1)} == {False, True}
        hinged = TriangleMesh([[0, 0, 0], [0, 0, 2], [1, 0, 1], [-1, 0.5, 1], [0, -1, 1],
                               [1, 1, 1]],
                              [[0, 1, 2], [0, 1, 3], [1, 0, 4], [0, 2, 5], [2, 5, 0],
                               [1, 2, 5]])
        self.check(hinged, [SectionPlane((0, 0, 1.0), z) for z in (0.5, 1.5, 1.0, 3.0, 0.7)])

    def test_channel_like_vertical_planes(self, body_plates):
        rng = np.random.default_rng(24)
        for mesh in body_plates[1]:
            self.check(mesh, _random_vertical_planes(mesh, rng, 60))


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


def assert_same_decimation(mesh, target):
    new, old = decimate(mesh, target), decimate_loop(mesh, target)
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

    def test_closed_tetrahedron_same_lock(self):
        mesh = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
                            [[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]])
        with pytest.raises(TopologicalLockError) as new:
            decimate(mesh, 1)
        with pytest.raises(TopologicalLockError) as old:
            decimate_loop(mesh, 1)
        assert str(new.value) == str(old.value)
