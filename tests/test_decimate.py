import numpy as np
import pytest

from violinmorph.decimate import decimate
from violinmorph.errors import ContractError, TopologicalLockError
from violinmorph.mesh import TriangleMesh, connected_components
from violinmorph.synthetic import icosphere

from conftest import grid_mesh


@pytest.fixture(scope="module")
def sphere20k():
    return icosphere(10.0, 5)  # 20480 faces


class TestDecimate:
    def test_sphere_deviation_under_one_percent(self, sphere20k):
        out = decimate(sphere20k, 5000)
        assert out.n_faces <= 5000
        assert out.n_faces >= 4999
        radii = np.linalg.norm(out.vertices, axis=1)
        assert np.abs(radii - 10.0).max() < 0.1  # 1% of radius

    def test_decimate_to_current_count_returns_input(self, sphere20k):
        assert decimate(sphere20k, sphere20k.n_faces) is sphere20k

    def test_planar_grid_stays_planar(self):
        mesh = grid_mesh(12, 12)
        out = decimate(mesh, 60)
        assert out.n_faces <= 60
        assert np.abs(out.vertices[:, 2]).max() == 0.0
        # boundary constraint keeps the footprint
        np.testing.assert_allclose(out.vertices[:, 0].max(), 11.0, atol=1e-9)
        np.testing.assert_allclose(out.vertices[:, 1].max(), 11.0, atol=1e-9)
        np.testing.assert_allclose(out.vertices.min(axis=0), [0, 0, 0], atol=1e-9)

    def test_sloped_plane_stays_on_plane(self):
        mesh = grid_mesh(10, 10, height=lambda x, y: 0.3 * x - 0.2 * y + 1.0)
        out = decimate(mesh, 40)
        resid = out.vertices[:, 2] - (0.3 * out.vertices[:, 0]
                                      - 0.2 * out.vertices[:, 1] + 1.0)
        assert np.abs(resid).max() < 1e-9

    def test_output_is_valid_connected_mesh(self, sphere20k):
        out = decimate(sphere20k, 1000)
        assert len(connected_components(out)) == 1
        # constructor re-validated invariants; also: no unused vertices
        assert set(range(out.n_vertices)) == set(out.faces.ravel().tolist())

    def test_bad_target(self, sphere20k):
        with pytest.raises(ContractError):
            decimate(sphere20k, sphere20k.n_faces + 1)
        with pytest.raises(ContractError):
            decimate(sphere20k, 0)

    @pytest.mark.parametrize("target", [float("nan"), 1960.7, np.float64(490.2), "1960", True],
                             ids=["nan", "float", "np-float64", "str", "bool"])
    def test_target_that_is_not_an_integer(self, target):
        with pytest.raises(ContractError, match="must be an integer"):
            decimate(grid_mesh(40, 40), target)

    def test_numpy_integer_target(self):
        mesh = grid_mesh(8, 8)
        a, b = decimate(mesh, np.int64(40)), decimate(mesh, 40)
        assert a.vertices.tobytes() == b.vertices.tobytes()
        assert a.faces.tobytes() == b.faces.tobytes()

    def test_closed_tetrahedron_cannot_reach_one_face(self):
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
        faces = [[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]]
        with pytest.raises(TopologicalLockError):
            decimate(TriangleMesh(verts, faces), 1)

    def test_counters_repeat(self):
        mesh = grid_mesh(16, 16, height=lambda x, y: 0.3 * x - 0.2 * y)
        first, second = {}, {}
        decimate(mesh, 100, counters=first)
        decimate(mesh, 100, counters=second)
        assert first == second
        assert first["undone"] > 0 and first["flip"] > 0
        # an undone collapse's pop goes back on the heap and is popped again
        decided = sum(first[k] for k in ("collapses", "stale", "not_an_edge", "link", "flip"))
        assert first["pops"] >= decided + first["undone"]

    def test_planar_rows_go_to_eigvalsh(self):
        # a planar grid's interior quadrics are singular: the condition
        # screen passes none of their rows and leaves them to eigvalsh
        first, second = {}, {}
        decimate(grid_mesh(12, 12), 60, counters=first)
        decimate(grid_mesh(12, 12), 60, counters=second)
        assert first == second
        assert first["eigvalsh_rows"] > 0

    def test_deterministic(self):
        mesh = icosphere(5.0, 3)
        a = decimate(mesh, 300)
        b = decimate(mesh, 300)
        np.testing.assert_array_equal(a.vertices, b.vertices)
        np.testing.assert_array_equal(a.faces, b.faces)
