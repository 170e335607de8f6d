"""Every text artifact byte for byte against the per-row writers in ``oracles``."""

from types import SimpleNamespace

import numpy as np
import pytest

from violinmorph.assessment import save_heatmap_csv
from violinmorph.fileio import (
    read_index_lines, save_csv, save_index_lines, save_json, save_mesh, save_polylines_csv,
    save_vertex_mask,
)
from violinmorph.grid import HeightGrid
from violinmorph.isolation import save_plate
from violinmorph.mesh import TriangleMesh, VertexMask
from violinmorph.morphology import AsymmetryField, save_asymmetry, save_channel, save_contour_lines
from violinmorph.synthetic import disc_plate

import oracles

SPECIAL = [np.nan, -0.0, 0.0, 5e-324, -5e-324, 1e17, -1e17, 3.0, -12.0, 1e16, 0.1, 1 / 3,
           123456789.0, 1234567891.0, 2.5e-308, 1.7976931348623157e308, np.inf, -np.inf]


def _values(n, seed=0, finite=False):
    """``n`` floats: the special cases, then magnitudes across the float64 range."""
    rng = np.random.default_rng(seed)
    spread = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-320.0, 308.0, n)
    spread[::5] = rng.integers(-10**6, 10**6, spread[::5].size)  # integral floats
    values = np.concatenate([SPECIAL, spread])[:n]
    return np.where(np.isfinite(values), values, 2.0) if finite else values


def _same_files(a_paths, b_paths):
    for a, b in zip(a_paths, b_paths, strict=True):
        assert a.name == b.name
        assert a.read_bytes() == b.read_bytes(), a.name


@pytest.mark.parametrize("rows", [0, 1, 7, 500])
def test_heatmap_csv(tmp_path, rows):
    values = _values(rows * 4, seed=rows).reshape(rows, 4)
    dist = SimpleNamespace(positions=values[:, :3], distances=values[:, 3])
    save_heatmap_csv(dist, tmp_path / "new.csv")
    oracles.save_heatmap_csv(dist, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_save_csv_is_the_contour_csv(tmp_path):
    points = _values(300 * 3, seed=1).reshape(300, 3)
    save_csv(tmp_path / "new.csv", points, header="x,y,z")
    oracles.save_contour_csv(points, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_save_csv_without_header_matches_savetxt(tmp_path):
    values = _values(40 * 5, seed=2).reshape(40, 5)
    save_csv(tmp_path / "new.csv", values)
    np.savetxt(tmp_path / "old.csv", values, delimiter=",", fmt="%.9g")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("shape", [(0, 3), (1, 3), (60, 3), (25,), (0,)])
def test_save_csv_per_column_formats_match_savetxt(tmp_path, shape):
    # one ``%`` over all values gives savetxt's bytes: a ``%d`` column of
    # integral floats, NaN and inf, 1-D rows as one column, no rows
    values = _values(int(np.prod(shape)), seed=3).reshape(shape)
    fmt = ["%.9g", "%.9g", "%d"] if len(shape) == 2 else "%.9g"
    if len(shape) == 2:
        values[:, 2] = np.arange(shape[0]) * 3.0
    save_csv(tmp_path / "new.csv", values, header="a,b,count", fmt=fmt)
    np.savetxt(tmp_path / "old.csv", values, delimiter=",", fmt=fmt, header="a,b,count",
               comments="")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_save_json(tmp_path):
    payload = {"b": [1.0, -0.0, 5e-324, 1e17, float("nan")], "a": {"z": 1, "y": "é"},
               "rows": [{"label": "x", "D": 0.1}], "empty": []}
    save_json(payload, tmp_path / "new.json")
    oracles.write_json(payload, tmp_path / "old.json")
    blob = (tmp_path / "new.json").read_bytes()
    assert blob == (tmp_path / "old.json").read_bytes()
    assert blob.endswith(b"}\n") and b"\r" not in blob


@pytest.mark.parametrize("sizes", [[], [0], [4], [1, 0, 5, 2, 3]])
def test_polylines_csv(tmp_path, sizes):
    """No polyline, an empty one, one, and several (blank-line separated)."""
    polys = [SimpleNamespace(points=_values(n * 3, seed=i).reshape(n, 3))
             for i, n in enumerate(sizes)]
    save_polylines_csv(polys, tmp_path / "new.csv")
    oracles.export_polylines_csv(polys, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_contour_lines(tmp_path):
    def polys(n_polys, seed):
        return [SimpleNamespace(points=_values(9 * 3, seed=seed + i).reshape(9, 3))
                for i in range(n_polys)]

    lineset = SimpleNamespace(side="sound_board", spacing=0.5, base_level=-0.0,
                              levels=(-1.5, 0.0, 2.25), polylines=(polys(2, 0), [], polys(3, 9)))
    (tmp_path / "new").mkdir()
    (tmp_path / "old").mkdir()
    _same_files(save_contour_lines(lineset, tmp_path / "new", "sb"),
                oracles.save_contour_lines(lineset, tmp_path / "old", "sb"))


def test_asymmetry(tmp_path):
    values = _values(6 * 5, seed=4, finite=True).reshape(6, 5)
    values[1, :] = values[3, 2] = np.nan  # nodes outside the joint domain
    edges = np.array([0.0, 0.25, 0.5, 0.75, 1e17])
    field = AsymmetryField(
        grid=HeightGrid([-0.0, 5e-324], 0.5, values),
        stats={"max": 1e17, "mean": -0.0, "median": float("nan"), "count": 3},
        histogram_edges=edges, histogram_counts=np.array([0, 3, 2**40, 1]),
        excluded_nodes=2,
    )
    (tmp_path / "new").mkdir()
    (tmp_path / "old").mkdir()
    _same_files(save_asymmetry(field, tmp_path / "new", "asym"),
                oracles.save_asymmetry(field, tmp_path / "old", "asym"))


@pytest.mark.parametrize("rows", [4, 300])
def test_channel(tmp_path, rows):
    values = _values(rows * 8, seed=5).reshape(rows, 8)
    trace = SimpleNamespace(arc_lengths=values[:, 0], points=values[:, 1:4],
                            smoothed_points=values[:, 4:7], inward_offsets=values[:, 7])
    save_channel(trace, tmp_path / "new.csv")
    oracles.save_channel(trace, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("fmt", sorted(oracles.SAVE_MESH))
@pytest.mark.parametrize("n_faces", [0, 1, 400])
def test_mesh_files(tmp_path, fmt, n_faces):
    n_vertices = max(3, n_faces)
    vertices = _values(n_vertices * 3, seed=n_faces, finite=True).reshape(n_vertices, 3)
    faces = (np.arange(n_faces)[:, None] + [0, 1, 2]) % n_vertices
    mesh = TriangleMesh(vertices, faces.reshape(-1, 3))
    save_mesh(mesh, tmp_path / "new", fmt)
    oracles.SAVE_MESH[fmt](mesh, tmp_path / "old")
    assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()


@pytest.mark.parametrize("indices", [[], [0], [17, 3, 2**40, 5]])
def test_vertex_mask(tmp_path, indices):
    save_vertex_mask(VertexMask(indices), tmp_path / "new.txt")
    oracles.save_vertex_mask(VertexMask(indices), tmp_path / "old.txt")
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()


@pytest.mark.parametrize("indices", [[0, 1, 2], [17, 3, 2**40, 5, 3], list(range(500))])
def test_contour_file(tmp_path, indices):
    sources = [("nearest-neighbour", "inserted-intermediate", "")[i % 3] for i in indices]
    plate = SimpleNamespace(side="back", contour=SimpleNamespace(vertex_indices=tuple(indices),
                                                                 source=tuple(sources)))
    save_index_lines(tmp_path / "new.txt", indices, sources, head=f"side={plate.side}")
    oracles.save_contour_file(plate, tmp_path / "old.txt")
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()
    # the reader reads back what the writer wrote
    lines = list(read_index_lines(tmp_path / "new.txt", "contour", 2**41))
    assert lines[0][1:] == (None, "side=back")
    assert [line[1:] for line in lines[1:]] == list(zip(indices, sources))


def test_save_plate_writes_the_contour_file(tmp_path):
    plate = disc_plate(radius=20.0, rings=6, sectors=24)
    save_plate(plate, tmp_path / "plate.ply", tmp_path / "new.txt")
    oracles.save_contour_file(plate, tmp_path / "old.txt")
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()
