import json
import warnings

import numpy as np
import pytest

from violinmorph.errors import ContractError, GridMismatchError
from violinmorph.grid import (
    HeightGrid,
    grid_difference_stats,
    interpolate_grid,
    joint_grid_domain,
    save_height_grid,
)
from violinmorph.mesh import TriangleMesh
from violinmorph.synthetic import disc_plate, hemisphere_plate

from conftest import grid_mesh


class TestHeightGrid:
    def test_invariants(self):
        with pytest.raises(ContractError):
            HeightGrid((0, 0), 0.0, np.zeros((2, 2)))
        with pytest.raises(ContractError):
            HeightGrid((0, 0), 1.0, np.array([[np.inf, 0.0]]))
        g = HeightGrid((0, 0), 1.0, np.array([[1.0, np.nan]]))
        assert g.valid.tolist() == [[True, False]]

    def test_node_coordinates(self):
        g = HeightGrid((2.0, -1.0), 0.5, np.zeros((3, 2)))
        xs, ys = g.node_xy()
        np.testing.assert_allclose(xs[:, 0], [2.0, 2.5, 3.0])
        np.testing.assert_allclose(ys[0, :], [-1.0, -0.5])


class TestInterpolateGrid:
    def test_plane_is_exact(self):
        mesh = grid_mesh(20, 20, height=lambda x, y: 0.5 * x + 0.2 * y + 3.0)
        g = interpolate_grid(mesh, spacing=1.0, side="upper")
        xs, ys = g.node_xy()
        expected = 0.5 * xs + 0.2 * ys + 3.0
        assert g.valid.all()
        assert np.abs(g.values - expected).max() < 1e-9

    def test_hemisphere_matches_analytic_within_chord_error(self):
        plate = hemisphere_plate(radius=10.0, rings=60, sectors=180)
        g = interpolate_grid(plate.mesh, spacing=0.5, side="upper")
        xs, ys = g.node_xy()
        r2 = xs**2 + ys**2
        inner = g.valid & (r2 < 81.0)
        expected = np.sqrt(np.maximum(100.0 - r2, 0.0))
        assert np.abs(g.values[inner] - expected[inner]).max() < 0.02

    def test_node_outside_footprint_invalid(self):
        mesh = grid_mesh(4, 4)  # footprint [0,3]^2
        g = interpolate_grid(mesh, spacing=1.0, side="upper",
                             origin=(0.0, 0.0), shape=(6, 6))
        assert not g.valid[5, 5]
        assert g.valid[1, 1]

    def test_origin_and_shape_only_together(self):
        # a lone origin used to get the shape of the footprint-snapped
        # origin: a (100, 100) grid holding 6,928 of the 7,856 valid nodes
        mesh = disc_plate(radius=50.0, rings=30, sectors=120).mesh
        mesh = mesh.transformed(translation=(0.4, 0.4, 0.0))
        with pytest.raises(ContractError, match="together"):
            interpolate_grid(mesh, 1.0, "upper", origin=(-60.0, -60.0))
        with pytest.raises(ContractError, match="together"):
            interpolate_grid(mesh, 1.0, "upper", shape=(121, 121))
        covering = interpolate_grid(mesh, 1.0, "upper", origin=(-60.0, -60.0), shape=(121, 121))
        default = interpolate_grid(mesh, 1.0, "upper")
        assert covering.valid.sum() == default.valid.sum() == 7856

    @pytest.mark.parametrize("spacing, origin, shape", [
        (np.nan, (0, 0), (5, 5)), (0.0, (0, 0), (5, 5)), (1.0, (0, 0), (5.5, 5)),
        (1.0, (0, 0), (0, 5)), (1.0, (0, 0), (5,)), (1.0, (np.nan, 0), (5, 5))])
    def test_explicit_lattice_checked_first(self, spacing, origin, shape):
        # a contract error before any face is rasterized: not cast warnings
        # and then the grid's own check, a bare TypeError, an empty grid or
        # one with a NaN origin
        mesh = disc_plate(radius=30.0, rings=10, sectors=40).mesh
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="spacing must be positive|must be two"):
                interpolate_grid(mesh, spacing, origin=origin, shape=shape)

    def test_explicit_lattice_takes_numpy_integers(self):
        mesh = disc_plate(radius=30.0, rings=10, sectors=40).mesh
        a = interpolate_grid(mesh, 1.0, origin=(-5, -5), shape=np.array([11, 11]))
        b = interpolate_grid(mesh, 1.0, origin=(-5, -5), shape=(11, 11))
        assert a.values.tobytes() == b.values.tobytes() and a.valid.all()

    def test_upper_lower_pick_extremal_sheet(self):
        # two stacked horizontal sheets
        base = grid_mesh(5, 5)
        top = grid_mesh(5, 5, height=lambda x, y: np.full_like(x, 4.0))
        verts = np.vstack([base.vertices, top.vertices])
        faces = np.vstack([base.faces, top.faces + base.n_vertices])
        mesh = TriangleMesh(verts, faces)
        up = interpolate_grid(mesh, 1.0, "upper", origin=(0, 0), shape=(5, 5))
        lo = interpolate_grid(mesh, 1.0, "lower", origin=(0, 0), shape=(5, 5))
        assert np.all(up.values[up.valid] == 4.0)
        assert np.all(lo.values[lo.valid] == 0.0)

    def test_translation_commutation(self):
        mesh = grid_mesh(12, 10, height=lambda x, y: np.sin(x / 3) + 0.1 * y)
        g0 = interpolate_grid(mesh, 1.0, "upper", origin=(0.0, 0.0), shape=(12, 10))
        shift = np.array([7.0, -4.0, 0.0])
        moved = mesh.transformed(translation=shift)
        g1 = interpolate_grid(moved, 1.0, "upper", origin=(7.0, -4.0), shape=(12, 10))
        assert np.array_equal(g0.valid, g1.valid)
        assert np.abs(g0.values[g0.valid] - g1.values[g1.valid]).max() < 1e-9

    def test_vertical_faces_ignored(self):
        verts = [[0, 0, 0], [1, 0, 0], [1, 0, 5], [0, 0, 5]]
        mesh = TriangleMesh(verts, [[0, 1, 2], [0, 2, 3]])
        g = interpolate_grid(mesh, 0.5, "upper")
        assert not g.valid.any()

    def test_bad_side(self):
        with pytest.raises(ContractError):
            interpolate_grid(grid_mesh(3, 3), 1.0, side="north")


class TestGridDifferenceStats:
    def grid(self, values):
        return HeightGrid((0, 0), 1.0, np.asarray(values, dtype=float))

    def test_identical_grids_zero(self):
        a = self.grid([[1.0, 2.0], [3.0, 4.0]])
        stats = grid_difference_stats(a, a)
        assert stats["max"] == stats["mean"] == stats["median"] == stats["stddev"] == 0.0
        assert stats["count"] == 4

    def test_uniform_offset(self):
        a = self.grid([[1.0, 2.0], [3.0, 4.0]])
        b = self.grid([[1.5, 2.5], [3.5, 4.5]])
        stats = grid_difference_stats(a, b)
        assert stats["max"] == stats["mean"] == stats["median"] == 0.5
        assert stats["stddev"] == 0.0

    def test_symmetric_and_joint_validity(self):
        a = self.grid([[1.0, np.nan], [3.0, 4.0]])
        b = self.grid([[2.0, 5.0], [np.nan, 5.0]])
        ab = grid_difference_stats(a, b)
        ba = grid_difference_stats(b, a)
        assert ab == ba
        assert ab["count"] == 2

    def test_mismatch_raises(self):
        a = self.grid([[1.0, 2.0]])
        b = HeightGrid((0.5, 0), 1.0, np.array([[1.0, 2.0]]))
        with pytest.raises(GridMismatchError):
            grid_difference_stats(a, b)

    def test_empty_overlap(self):
        a = self.grid([[np.nan, 1.0]])
        b = self.grid([[1.0, np.nan]])
        stats = grid_difference_stats(a, b)
        assert stats["count"] == 0


def test_joint_domain_covers_all_meshes():
    m1 = grid_mesh(5, 5)
    m2 = grid_mesh(5, 5)
    m2 = m2.transformed(translation=(3.0, 2.0, 0.0))
    origin, shape = joint_grid_domain([m1, m2], 1.0)
    np.testing.assert_allclose(origin, [0.0, 0.0])
    assert shape == (8, 7)


@pytest.mark.parametrize("spacing", [0.0, -1.0, np.nan])
def test_joint_domain_rejects_bad_spacing(spacing):
    # a contract error, not "cannot convert float NaN to integer"
    plate = disc_plate(radius=30.0, rings=10, sectors=40).mesh
    with pytest.raises(ContractError, match="spacing must be positive"):
        joint_grid_domain([plate], spacing)
    with pytest.raises(ContractError, match="spacing must be positive"):
        interpolate_grid(plate, spacing)


def load_height_grid(csv_path, header_path):
    with open(header_path) as fh:
        header = json.load(fh)
    values = np.loadtxt(csv_path, delimiter=",", ndmin=2)
    return HeightGrid(header["origin_mm"], header["spacing_mm"], values)


def test_grid_save_load_roundtrip(tmp_path):
    values = np.array([[1.25, np.nan], [3.5, -0.75], [0.0, 9.0]])
    g = HeightGrid((2.0, -3.0), 0.5, values)
    save_height_grid(g, tmp_path / "g.csv", tmp_path / "g.json")
    back = load_height_grid(tmp_path / "g.csv", tmp_path / "g.json")
    assert back.spacing == g.spacing
    np.testing.assert_allclose(back.origin, g.origin)
    np.testing.assert_allclose(back.values, g.values, equal_nan=True)
