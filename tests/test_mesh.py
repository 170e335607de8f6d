import heapq

import numpy as np
import pytest

from violinmorph.errors import ContractError, DegenerateFaceError, DisconnectedError
from violinmorph.mesh import (
    PointCloud,
    TriangleMesh,
    VertexMask,
    connected_components,
    shortest_path,
    weld_vertices,
)
from violinmorph.synthetic import disc_plate

from conftest import grid_mesh


def path_length(mesh, path):
    """Summed Euclidean length of consecutive hops along a vertex path."""
    idx = np.asarray(path, dtype=np.int64)
    if len(idx) < 2:
        return 0.0
    return float(
        np.linalg.norm(mesh.vertices[idx[1:]] - mesh.vertices[idx[:-1]], axis=1).sum()
    )


def two_triangles():
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 0], [6, 5, 0], [5, 6, 0]]
    return TriangleMesh(verts, [[0, 1, 2], [3, 4, 5]])


class TestTriangleMesh:
    def test_face_index_out_of_range(self):
        with pytest.raises(ContractError):
            TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 3]])

    def test_degenerate_face_reported_with_indices(self):
        with pytest.raises(DegenerateFaceError) as exc:
            TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2], [1, 1, 2]])
        assert exc.value.face_indices == [1]

    def test_non_finite_vertices_rejected(self):
        with pytest.raises(ContractError):
            TriangleMesh([[0, 0, np.nan], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])

    def test_edges_are_deduplicated_face_edge_union(self, cube):
        # 8 vertices, 12 faces: Euler gives 18 edges for a closed cube
        assert len(cube.edges) == 18
        expected = set()
        for f in cube.faces:
            for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
                expected.add((min(a, b), max(a, b)))
        assert {tuple(e) for e in cube.edges.tolist()} == expected

    def test_vertices_immutable(self, cube):
        with pytest.raises(ValueError):
            cube.vertices[0, 0] = 99.0

    def test_nonmanifold_edge_warns(self):
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]]
        faces = [[0, 1, 2], [0, 1, 3], [0, 1, 4]]
        mesh = TriangleMesh(verts, faces)
        with pytest.warns(UserWarning, match="non-manifold"):
            mesh.edges


class TestPointCloudAndMask:
    def test_empty_cloud_rejected(self):
        with pytest.raises(ContractError):
            PointCloud(np.empty((0, 3)))

    def test_mask_validation(self, cube):
        VertexMask([0, 7]).validate(cube)
        with pytest.raises(ContractError):
            VertexMask([8]).validate(cube)


class TestConnectedComponents:
    def test_two_disjoint_triangles(self):
        comps = connected_components(two_triangles())
        assert [len(c) for c in comps] == [3, 3]

    def test_cube_with_one_vertex_masked(self, cube):
        comps = connected_components(cube, VertexMask([0]))
        assert [len(c) for c in comps] == [7]
        assert 0 not in comps[0]

    def test_partition_of_unmasked_vertices(self, cube):
        mask = VertexMask([1, 6])
        comps = connected_components(cube, mask)
        seen = np.concatenate(comps)
        assert len(seen) == len(set(seen.tolist()))
        assert set(seen.tolist()) == set(range(8)) - {1, 6}

    def test_matches_brute_force_flood_fill(self):
        # random-ish 200-vertex strip mesh split by masking a separating ring
        mesh = grid_mesh(20, 10)
        mask = VertexMask(range(10 * 10, 11 * 10))  # one full grid column
        comps = connected_components(mesh, mask)

        # independent BFS oracle on the face-edge graph
        adj = {i: set() for i in range(mesh.n_vertices)}
        for f in mesh.faces:
            for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
                adj[a].add(b)
                adj[b].add(a)
        removed = set(mask.indices)
        seen = set(removed)
        oracle = []
        for start in range(mesh.n_vertices):
            if start in seen:
                continue
            queue, comp = [start], set()
            seen.add(start)
            while queue:
                v = queue.pop()
                comp.add(v)
                for w in adj[v]:
                    if w not in seen and w not in removed:
                        seen.add(w)
                        queue.append(w)
            oracle.append(comp)
        oracle.sort(key=lambda c: (-len(c), min(c)))
        assert len(comps) == len(oracle) == 2
        for got, want in zip(comps, oracle):
            assert set(got.tolist()) == want


def dijkstra_oracle(mesh, start):
    """Plain binary-heap Dijkstra, independent of scipy."""
    dist = {start: 0.0}
    heap = [(0.0, start)]
    adj = {i: [] for i in range(mesh.n_vertices)}
    for (a, b), w in zip(mesh.edges.tolist(), mesh.edge_lengths):
        adj[a].append((b, w))
        adj[b].append((a, w))
    done = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        for w, length in adj[v]:
            nd = d + length
            if nd < dist.get(w, np.inf):
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


class TestShortestPath:
    def test_trivial_same_vertex(self, cube):
        assert shortest_path(cube, 3, 3) == [3]

    def test_adjacent_vertices(self, cube):
        path = shortest_path(cube, 0, 1)
        assert path == [0, 1]
        assert path_length(cube, path) == pytest.approx(1.0)

    def test_grid_matches_dijkstra_oracle(self):
        mesh = grid_mesh(10, 5)  # 50 vertices
        oracle = dijkstra_oracle(mesh, 0)
        for goal in range(1, mesh.n_vertices, 7):
            path = shortest_path(mesh, 0, goal)
            assert path[0] == 0 and path[-1] == goal
            # consecutive vertices share an edge
            edge_set = {tuple(e) for e in mesh.edges.tolist()}
            for a, b in zip(path, path[1:]):
                assert (min(a, b), max(a, b)) in edge_set
            assert path_length(mesh, path) == pytest.approx(oracle[goal], abs=1e-12)

    def test_length_symmetric(self):
        mesh = grid_mesh(7, 7)
        rng = np.random.default_rng(1)
        for _ in range(5):
            a, b = rng.integers(0, mesh.n_vertices, 2)
            fwd = path_length(mesh, shortest_path(mesh, int(a), int(b)))
            rev = path_length(mesh, shortest_path(mesh, int(b), int(a)))
            assert fwd == pytest.approx(rev, abs=1e-12)

    def test_disconnected_error(self):
        with pytest.raises(DisconnectedError):
            shortest_path(two_triangles(), 0, 4)


class TestWeld:
    def test_duplicate_seam_vertices_merged(self):
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 0]]
        faces = [[0, 1, 2], [3, 4, 2]]
        welded = weld_vertices(TriangleMesh(verts, faces))
        assert welded.n_vertices == 4
        assert welded.n_faces == 2
        assert len(connected_components(welded)) == 1

    def test_tolerance_respected(self):
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 5e-7]]
        mesh = TriangleMesh(verts, [[0, 1, 2], [3, 1, 2]])
        assert weld_vertices(mesh, tolerance=1e-6).n_vertices == 3
        assert weld_vertices(mesh, tolerance=1e-9).n_vertices == 4

    @pytest.mark.parametrize("tolerance, match", [
        # unchecked, 0 and nan weld all 401 vertices into one, -1.0 welds as
        # +1.0 (377 vertices) and 1e-300 overflows the keys (3 vertices)
        (0.0, "finite and positive"),
        (np.nan, "finite and positive"),
        (-1.0, "finite and positive"),
        (1e-300, "beyond int64"),
    ])
    def test_bad_tolerance_rejected(self, tolerance, match):
        mesh = disc_plate(radius=30.0, rings=10, sectors=40, groove_radius=22.0).mesh
        assert weld_vertices(mesh, tolerance=1.0).n_vertices == 377
        with pytest.raises(ContractError, match=match):
            weld_vertices(mesh, tolerance=tolerance)
