from itertools import permutations

import numpy as np
import pytest

from violinmorph.errors import ContractError, DisconnectedError, FragmentationError
from violinmorph.isolation import (
    ClosedContour,
    close_contour,
    isolate_plate,
    load_plate,
    map_to_vertices,
    order_loop,
    rough_split,
    save_plate,
)
from violinmorph.mesh import TriangleMesh, shortest_path
from violinmorph.synthetic import disc_plate, instrument_body, skirted_plate

from conftest import grid_mesh
from oracles import (
    first_non_adjacent_pair,
    map_to_vertices_loop,
    order_loop_sorted,
    repeated_vertex_count,
)


class TestMapToVertices:
    def test_coincident_point_maps_to_vertex(self, cube):
        assert map_to_vertices(cube, [cube.vertices[5]]) == [5]

    def test_matches_brute_force_scan(self):
        plate = disc_plate(rings=55, sectors=180)  # ~10k vertices
        rng = np.random.default_rng(9)
        queries = rng.uniform(-50, 50, size=(1000, 3))
        queries[:, 2] = rng.uniform(0, 12, 1000)
        got = map_to_vertices(plate.mesh, queries)
        oracle = []
        seen = set()
        for q in queries:
            d = np.linalg.norm(plate.mesh.vertices - q, axis=1)
            i = int(np.argmin(d))  # first occurrence = lowest index on ties
            if i not in seen:
                seen.add(i)
                oracle.append(i)
        assert got == oracle

    def test_duplicates_collapsed_first_occurrence(self, cube):
        v = cube.vertices
        got = map_to_vertices(cube, [v[2], v[2] + 0.01, v[0]])
        assert got == [2, 0]

    def test_equidistant_tie_takes_lowest_index(self):
        mesh = TriangleMesh(
            [[0, 0, 0], [2, 0, 0], [1, 5, 0], [1, -5, 0]],
            [[0, 1, 2], [0, 1, 3]],
        )
        assert map_to_vertices(mesh, [[1.0, 0.0, 0.0]]) == [0]

    @pytest.mark.parametrize("n", [9, 40])  # below and above the threaded query size
    def test_seeds_between_vertices_match_loop(self, n):
        mesh = grid_mesh(n, n)
        v, e = mesh.vertices, mesh.edges
        # edge midpoints tie two vertices, cell centres four
        seeds = np.vstack([0.5 * (v[e[:, 0]] + v[e[:, 1]]), v[v[:, 0] < n - 1] + [0.5, 0.5, 0]])
        seeds = seeds[np.random.default_rng(n).permutation(len(seeds))]
        got = map_to_vertices(mesh, seeds)
        assert got == map_to_vertices_loop(mesh, seeds)
        assert len(got) == mesh.n_vertices - 1  # every vertex but the far corner


def brute_force_tour_length(points):
    n = len(points)
    dist = np.linalg.norm(points[:, None] - points[None, :], axis=2)
    best = np.inf
    for perm in permutations(range(1, n)):
        tour = (0,) + perm
        length = sum(dist[tour[i], tour[(i + 1) % n]] for i in range(n))
        best = min(best, length)
    return best


def jittered_loop_anchors(n, seed, radius=10.0):
    rng = np.random.default_rng(seed)
    angles = np.sort(rng.uniform(0, 2 * np.pi, n))
    r = radius + rng.uniform(-3.0, 3.0, n)
    pts = np.column_stack([r * np.cos(angles), r * np.sin(angles),
                           rng.uniform(-1.0, 1.0, n)])
    return pts[rng.permutation(n)]


def anchors_mesh(pts):
    """Wrap anchor points into a mesh (order_loop only reads vertices)."""
    n = len(pts)
    verts = np.vstack([pts, pts.mean(axis=0, keepdims=True) + [0, 0, 30]])
    faces = [[i, (i + 1) % n, n] for i in range(n)]
    return TriangleMesh(verts, faces)


def tour_length_of(mesh, cycle):
    pts = mesh.vertices[cycle]
    return float(np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1).sum())


class TestOrderLoop:
    def test_circle_anchors_recover_circular_order(self):
        angles = np.linspace(0, 2 * np.pi, 8, endpoint=False)
        pts = np.column_stack([np.cos(angles) * 10, np.sin(angles) * 10, angles * 0])
        verts = np.vstack([pts, [[0, 0, 5]]])
        faces = [[i, (i + 1) % 8, 8] for i in range(8)]
        mesh = TriangleMesh(verts, faces)
        shuffled = [3, 7, 0, 5, 2, 6, 1, 4]
        cycle = order_loop(mesh, shuffled)
        pos = {v: i for i, v in enumerate(cycle)}
        diffs = {(pos[(v + 1) % 8] - pos[v]) % 8 for v in range(8)}
        assert diffs in ({1}, {7})  # rotation or reflection of the circle

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_loop_like_instances_reach_brute_force_optimum(self, seed, n):
        # anchors in this pipeline ring a plate outline; jittered loops
        # are the operating regime the heuristic must be exact on
        pts = jittered_loop_anchors(n, seed)
        mesh = anchors_mesh(pts)
        cycle = order_loop(mesh, list(range(n)))
        assert sorted(cycle) == list(range(n))
        got = tour_length_of(mesh, cycle)
        assert got == pytest.approx(brute_force_tour_length(pts), abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_uniform_instances_reach_brute_force_optimum(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-10, 10, size=(8, 3))
        mesh = anchors_mesh(pts)
        cycle = order_loop(mesh, list(range(8)))
        got = tour_length_of(mesh, cycle)
        assert got == pytest.approx(brute_force_tour_length(pts), abs=1e-9)

    def test_three_anchors_any_order_valid(self, cube):
        cycle = order_loop(cube, [6, 0, 3])
        assert sorted(cycle) == [0, 3, 6]
        assert cycle[0] == 0

    def test_duplicate_anchors_rejected(self, cube):
        with pytest.raises(ContractError):
            order_loop(cube, [0, 1, 1])


def regular_polygon(n, radius=10.0):
    """A regular n-gon with vertex k the exact mirror of vertex n - k across
    the x axis, so vertex 0's two neighbours lie at exactly equal distances."""
    k = np.arange(n)
    angle = 2 * np.pi * np.minimum(k, n - k) / n
    sign = np.where(k <= n // 2, 1.0, -1.0)
    return np.column_stack([radius * np.cos(angle), sign * radius * np.sin(angle), 0 * angle])


def lattice(nx, ny):
    xs, ys = np.meshgrid(np.arange(nx, dtype=float), np.arange(ny, dtype=float), indexing="ij")
    return np.column_stack([xs.ravel(), ys.ravel(), np.zeros(nx * ny)])


def has_exact_tie(pts):
    """Whether some point's nearest other points include two at one distance."""
    dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    np.fill_diagonal(dist, np.inf)
    return bool(((dist == dist.min(axis=1, keepdims=True)).sum(axis=1) > 1).any())


class TestOrderLoopMatchesSortedConstruction:
    """The argmin construction gives the tour of one ``sorted`` per step."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_anchor_sets(self, seed):
        rng = np.random.default_rng(seed)
        mesh = anchors_mesh(rng.uniform(-20, 20, size=(80, 3)))
        anchors = rng.choice(80, size=int(rng.integers(3, 80)), replace=False).tolist()
        assert order_loop(mesh, anchors) == order_loop_sorted(mesh, anchors)

    @pytest.mark.parametrize("pts", [
        regular_polygon(6), regular_polygon(7), regular_polygon(12), regular_polygon(25),
        lattice(2, 3), lattice(5, 5), lattice(7, 4), lattice(1, 9),
    ], ids=["hexagon", "heptagon", "12-gon", "25-gon",
            "lattice2x3", "lattice5x5", "lattice7x4", "line9"])
    @pytest.mark.parametrize("seed", range(4))
    def test_exact_ties_go_to_the_lowest_anchor(self, pts, seed):
        assert has_exact_tie(pts)
        rng = np.random.default_rng(seed)
        # the points under shuffled vertex indices, listed in shuffled order
        mesh = anchors_mesh(pts[rng.permutation(len(pts))])
        anchors = rng.permutation(len(pts)).tolist()
        assert order_loop(mesh, anchors) == order_loop_sorted(mesh, anchors)


class TestCloseContour:
    def test_adjacent_anchors_no_insertions(self, cube):
        cycle = [0, 1, 2, 3]  # the cube's bottom ring, pairwise adjacent
        contour = close_contour(cube, cycle)
        assert list(contour.vertex_indices) == cycle
        assert all(s == "nearest-neighbour" for s in contour.source)

    def test_inserted_vertices_match_dijkstra(self):
        mesh = grid_mesh(7, 7)
        anchors = [0, 6, 48, 42]  # the four grid corners
        contour = close_contour(mesh, anchors)
        # rebuild the expected loop from shortest paths
        expected = []
        for a, b in zip(anchors, anchors[1:] + anchors[:1]):
            expected.extend(shortest_path(mesh, a, b)[:-1])
        assert list(contour.vertex_indices) == expected
        inserted = [v for v, s in zip(contour.vertex_indices, contour.source)
                    if s == "inserted-intermediate"]
        assert len(inserted) == len(expected) - 4

    def test_disconnected_anchor_error(self):
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [9, 9, 0], [10, 9, 0], [9, 10, 0]]
        mesh = TriangleMesh(verts, [[0, 1, 2], [3, 4, 5]])
        with pytest.raises(DisconnectedError):
            close_contour(mesh, [0, 1, 4])

    @pytest.mark.parametrize("n, anchors", [
        (9, [(0, 4), (8, 4), (4, 0), (4, 8)]),
        (13, [(0, 4), (12, 4), (8, 0), (8, 12), (4, 8), (4, 0)]),
    ])
    def test_repeated_vertices_warning_matches_loop(self, n, anchors):
        # straight and diagonal runs have unique shortest paths; they cross
        mesh = grid_mesh(n, n)
        with pytest.warns(UserWarning, match="more than once") as record:
            contour = close_contour(mesh, [i * n + j for i, j in anchors])
        count = repeated_vertex_count(list(contour.vertex_indices))
        assert count >= 1
        assert str(record[0].message) == f"contour visits {count} vertices more than once"

    def test_adjacency_check_matches_edge_set(self):
        base = grid_mesh(7, 7)
        a, b = (int(i) for i in base.faces[20, :2])
        fin = len(base.vertices)
        with pytest.warns(UserWarning, match="1 non-manifold edges"):
            mesh = TriangleMesh(np.vstack([base.vertices, [[3.0, 3.0, 3.0]]]),
                                np.vstack([base.faces, [[a, b, fin]]]))
            mesh.edges
        c = int(base.faces[20, 2])
        loops = {(a, b, fin): True, (fin, a, c, b): True, (0, 1, 8, 7): True,
                 (a, fin, c): False, (0, 1, 2): False, (0, 1, 9): False,
                 (a, b, fin + 1): False, (-1, 0, 1): False}
        for loop, valid in loops.items():
            contour = ClosedContour(loop, ("nearest-neighbour",) * len(loop))
            bad = first_non_adjacent_pair(contour, mesh)
            assert (bad is None) == valid
            if valid:
                contour.validate_against(mesh)
            else:
                with pytest.raises(ContractError) as info:
                    contour.validate_against(mesh)
                assert str(info.value) == f"contour vertices {bad[0]}, {bad[1]} are not adjacent"

    def test_contour_invariants(self):
        contour = ClosedContour((1, 2, 3), ("nearest-neighbour",) * 3)
        assert len(contour) == 3
        with pytest.raises(ContractError):
            ClosedContour((1, 1, 2), ("nearest-neighbour",) * 3)
        with pytest.raises(ContractError):
            ClosedContour((1, 2), ("nearest-neighbour",) * 2)


@pytest.fixture(scope="module")
def skirted():
    mesh, labels = skirted_plate(rings=40, sectors=150, skirt_rings=5)
    return mesh, labels


class TestIsolatePlate:
    def test_skirted_plate_clean_separation(self, skirted):
        mesh, labels = skirted
        plate = isolate_plate(mesh, "sound_board")
        inner_orig = set(plate.orig_vertex_ids[plate.inner_ids].tolist())
        contour_orig = {int(plate.orig_vertex_ids[i])
                        for i in plate.contour.vertex_indices}
        plate_set = set(labels["plate"].tolist())
        skirt_set = set(labels["skirt"].tolist())
        assert inner_orig & skirt_set == set()
        assert plate_set - contour_orig - inner_orig == set()
        # single closed loop of adjacent original vertices
        plate.contour.validate_against(plate.mesh)

    def test_no_edge_joins_inner_to_discarded(self, skirted):
        mesh, labels = skirted
        plate = isolate_plate(mesh, "sound_board")
        kept = set(plate.orig_vertex_ids.tolist())
        contour_orig = {int(plate.orig_vertex_ids[i])
                        for i in plate.contour.vertex_indices}
        inner_orig = kept - contour_orig
        for a, b in mesh.edges.tolist():
            if a in inner_orig:
                assert b in kept
            if b in inner_orig:
                assert a in kept

    def test_nan_spacing_rejected(self, skirted):
        mesh, _ = skirted
        with pytest.raises(ContractError, match="spacing must be positive"):
            isolate_plate(mesh, "sound_board", spacing=np.nan)

    def test_deterministic(self, skirted):
        mesh, _ = skirted
        p1 = isolate_plate(mesh, "sound_board")
        p2 = isolate_plate(mesh, "sound_board")
        np.testing.assert_array_equal(p1.mesh.vertices, p2.mesh.vertices)
        np.testing.assert_array_equal(p1.mesh.faces, p2.mesh.faces)
        assert p1.contour.vertex_indices == p2.contour.vertex_indices

    def test_inner_count_bound(self, skirted):
        mesh, _ = skirted
        plate = isolate_plate(mesh, "sound_board")
        assert len(plate.inner_ids) <= mesh.n_vertices - len(plate.contour)

    def test_pure_plate_loses_only_boundary_ring(self):
        plate = disc_plate(rings=25, sectors=80)
        again = isolate_plate(plate.mesh, "sound_board", spacing=2.0)
        # every non-contour vertex of the input plate is retained
        contour_orig = {int(again.orig_vertex_ids[i])
                        for i in again.contour.vertex_indices}
        inner_orig = set(again.orig_vertex_ids[again.inner_ids].tolist())
        boundary = set(plate.contour.vertex_indices)
        assert inner_orig >= set(range(plate.mesh.n_vertices)) - boundary - contour_orig

    def test_failed_contour_fragmentation_error(self, skirted):
        # asking for the back on a top-plate mesh strands the apex in the
        # small skirt component: the contour failed to isolate a plate
        mesh, _ = skirted
        with pytest.raises(FragmentationError):
            isolate_plate(mesh, "back")

    def test_bad_side(self, skirted):
        with pytest.raises(ContractError):
            isolate_plate(skirted[0], "top")


class TestRoughSplitAndPersistence:
    def test_rough_split_body(self):
        body, labels = instrument_body(rings=25, sectors=100, rib_rings=6)
        rough, ids = rough_split(body, "sound_board")
        assert set(labels["sound_board"].tolist()) <= set(ids.tolist())
        assert rough.vertices[:, 2].min() > body.vertices[:, 2].min()
        rough_back, ids_back = rough_split(body, "back")
        assert set(labels["back"].tolist()) <= set(ids_back.tolist())

    def test_save_load_roundtrip(self, tmp_path, skirted):
        mesh, _ = skirted
        plate = isolate_plate(mesh, "sound_board")
        save_plate(plate, tmp_path / "p.ply", tmp_path / "p_contour.txt")
        back = load_plate(tmp_path / "p.ply", tmp_path / "p_contour.txt")
        assert back.side == "sound_board"
        np.testing.assert_array_equal(back.mesh.vertices, plate.mesh.vertices)
        assert back.contour.vertex_indices == plate.contour.vertex_indices
        assert back.contour.source == plate.contour.source
