import warnings

import numpy as np
import pytest

from violinmorph.errors import ContractError
from violinmorph.mesh import TriangleMesh
from violinmorph.slicing import (
    cross_section,
    cross_sections,
    extreme_points,
    section_offsets,
    sections_near,
)
from violinmorph.synthetic import disc_plate, icosphere

from conftest import grid_mesh, unit_plane


class TestCrossSectionContract:
    @pytest.mark.parametrize("normal, offset, message", [
        ((0, 0, 2.0), 1.0, "unit length"), ((0, 0, 0), 0.0, "unit length"),
        ((np.inf, 0, 0), 1.0, "unit length"), ((0, np.nan, 1.0), 1.0, "unit length"),
        ((0, 0, 1.0), np.nan, "offsets must be finite"),
        ((0, 0, 1.0), -np.inf, "offsets must be finite"),
    ])
    def test_bad_plane_rejected(self, cube, normal, offset, message):
        # an error, not a rescaled plane or a NaN normal with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match=message):
                cross_section(cube, normal, offset)

    def test_one_plane_of_cross_sections(self):
        plate = disc_plate(radius=20.0, height=6.0, rings=10, sectors=40)
        for normal, offset in [((0, 0, 1.0), 0.5), (np.array([0.6, 0.0, 0.8]), 1.5)]:
            polys = cross_section(plate.mesh, normal, offset)
            whole = cross_sections(plate.mesh, [normal], [offset]).polylines(0)
            assert polys
            assert [(p.points.tobytes(), p.closed) for p in polys] == \
                [(p.points.tobytes(), p.closed) for p in whole]


class TestCrossSectionsArguments:
    @pytest.mark.parametrize("normals, offsets, message", [
        ([[0, 0, 1.0], [0, 0, 1.0 + 1e-9]], [0.5, 0.5], "unit length"),
        ([[0, 0, 1.0], [0, 0, 0.0]], [0.5, 0.5], "unit length"),
        ([[0, 0, 1.0], [np.nan, 0, 0]], [0.5, 0.5], "unit length"),
        ([[0, 0, 1.0], [1.0, 0, 0]], [0.5], "one offset each"),
        ([[0, 0, 1.0]], [0.5, 0.7], "one offset each"),
        ([0, 0, 1.0], [0.5], "one offset each"),
        ([[0, 0, 1.0]], 0.5, "one offset each"),
        ([[0, 0, 1.0], [0, 0, 1.0]], [0.5, np.nan], "offsets must be finite"),
        ([[0, 0, 1.0]], [np.inf], "offsets must be finite"),
    ])
    def test_bad_batch_rejected(self, cube, normals, offsets, message):
        with pytest.raises(ContractError, match=message):
            cross_sections(cube, normals, offsets)

    def test_nan_offset_rejected_near_a_centre(self, cube):
        # an error, not an empty cut
        with pytest.raises(ContractError, match="offsets must be finite"):
            sections_near(cube, [[1.0, 0, 0]], [np.nan], [[0.5, 0.5]], 2.0)

    def test_rows_unit_within_tolerance_accepted(self, cube):
        tilted = np.array([0.6, 0.0, 0.8]) * (1.0 + 5e-13)
        sections = cross_sections(cube, [[0, 0, 1.0], tilted], [0.5, 0.7])
        assert len(sections) == 2 and len(sections.polylines(0)) == 1


class TestSectionsArrays:
    def test_flat_arrays_and_counters(self, cube):
        offsets = [0.5, 5.0, 0.25]
        sections = cross_sections(cube, [[0, 0, 1.0]] * 3, offsets)
        # the candidate pairs: each face with the planes its z interval reaches
        z = cube.vertices[cube.faces, 2]
        lo, hi = z.min(axis=1), z.max(axis=1)
        swept = sum(int(np.count_nonzero((lo < o) & (o <= hi + 1e-12))) for o in offsets)
        assert len(sections) == 3 and sections.pairs_visited == swept == 16
        starts = sections.point_starts()
        assert starts.tolist() == [0, 8, 8, 16]
        assert sections.points[8:].tobytes() == sections.plane_points(2).tobytes()
        assert not any(map(sections.crowded, range(3)))
        with pytest.raises(IndexError):
            sections.crowded(3)
        with pytest.raises(IndexError):
            sections.plane_points(-1)

    def test_crowded_when_a_vertex_lies_on_the_plane(self, cube):
        # the diagonal plane through four cube vertices nudges them: the
        # crossings on the edges around each lie 1e-9 mm apart and merge
        diagonal = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
        sections = cross_sections(cube, [diagonal, diagonal], [0.0, 0.3])
        assert [sections.crowded(0), sections.crowded(1)] == [True, False]


class TestCrossSection:
    def test_cube_mid_plane_square(self, cube):
        polys = cross_section(cube, (0, 0, 1.0), 0.5)
        assert len(polys) == 1
        assert polys[0].closed
        assert polys[0].length == pytest.approx(4.0, abs=1e-9)

    def test_sphere_circumference_analytic(self):
        sphere = icosphere(10.0, 4)  # 5120 faces
        polys = cross_section(sphere, (0, 0, 1.0), 0.0)
        assert len(polys) == 1
        assert polys[0].closed
        assert polys[0].length == pytest.approx(2 * np.pi * 10.0, rel=0.01)

    def test_plane_misses_mesh(self, cube):
        assert cross_section(cube, (0, 0, 1.0), 5.0) == []

    def test_points_lie_on_plane(self, cube):
        sphere = icosphere(7.0, 3)
        for mesh, plane in [
            (cube, unit_plane((1, 1, 1), 0.8)),
            (sphere, unit_plane((0.3, -0.5, 0.81), 1.2)),
        ]:
            for poly in cross_section(mesh, *plane):
                resid = poly.points @ plane[0] - plane[1]
                assert np.abs(resid).max() < 1e-9

    def test_watertight_sections_closed(self):
        sphere = icosphere(5.0, 3)
        for z in (-3.0, 0.0, 2.5):
            for poly in cross_section(sphere, (0, 0, 1.0), z):
                assert poly.closed

    def test_open_surface_section_is_open(self):
        plate = disc_plate(rings=20, sectors=60)
        polys = cross_section(plate.mesh, (1, 0, 0), 0.0)
        assert polys
        assert not any(p.closed for p in polys)

    def test_vertex_on_plane_is_handled(self, cube):
        # plane through 4 cube vertices exactly
        polys = cross_section(cube, (0, 0, 1.0), 0.0)
        assert polys == [] or all(len(p) >= 2 for p in polys)

    def test_rigid_motion_invariance_of_length(self):
        sphere = icosphere(6.0, 3)
        normal, offset = unit_plane((0.2, 0.3, 0.95), 1.1)
        total = sum(p.length for p in cross_section(sphere, normal, offset))

        ang = np.deg2rad(33.0)
        rot = np.array([
            [np.cos(ang), -np.sin(ang), 0],
            [np.sin(ang), np.cos(ang), 0],
            [0, 0, 1],
        ])
        shift = np.array([3.0, -8.0, 2.0])
        moved = sphere.transformed(rotation=rot, translation=shift)
        n2 = rot @ normal
        total2 = sum(p.length for p in cross_section(moved, *unit_plane(n2, offset + n2 @ shift)))
        assert total2 == pytest.approx(total, rel=1e-9)

    def test_consecutive_points_distinct(self):
        plate = disc_plate(rings=25, sectors=70)
        for poly in cross_section(plate.mesh, (0, 1, 0), 3.3):
            gaps = np.linalg.norm(np.diff(poly.points, axis=0), axis=1)
            assert gaps.min() > 1e-9


class TestSectionOffsets:
    def test_regular_lattice(self):
        offs = section_offsets(-2.5, 2.5, 1.0)
        np.testing.assert_allclose(offs, [-2, -1, 0, 1, 2])

    def test_spacing_larger_than_extent_gives_midpoint(self):
        offs = section_offsets(3.0, 4.0, 10.0)
        np.testing.assert_allclose(offs, [3.5])

    def test_bad_spacing(self):
        with pytest.raises(ContractError):
            section_offsets(0, 1, 0)
        # a contract error, not numpy's "arange: cannot compute length"
        with pytest.raises(ContractError, match="spacing must be positive"):
            section_offsets(0, 1, np.nan)


class TestExtremePoints:
    def test_rectangular_plate_extremes_on_long_edges(self):
        mesh = grid_mesh(12, 6)  # x in [0,11], y in [0,5]
        pts = extreme_points(mesh, axis="x", spacing=1.0)
        ys = pts[:, 1]
        assert set(np.round(ys, 9)) <= {0.0, 5.0}

    def test_elliptical_shell_matches_analytic_boundary(self):
        plate = disc_plate(radius=30.0, minor=18.0, rings=40, sectors=160)
        mean_edge = float(plate.mesh.edge_lengths.mean())
        pts = extreme_points(plate.mesh, axis="x", spacing=2.0)
        for x, y, _ in pts:
            expected = 18.0 * np.sqrt(max(1 - (x / 30.0) ** 2, 0.0))
            assert abs(abs(y) - expected) <= mean_edge

    def test_spacing_larger_than_extent_still_sections(self):
        mesh = grid_mesh(5, 5)
        pts = extreme_points(mesh, axis="x", spacing=100.0)
        assert len(pts) >= 2

    def test_keep_interval_retains_more_points(self):
        mesh = grid_mesh(12, 8)
        base = extreme_points(mesh, axis="x", spacing=1.0)
        more = extreme_points(mesh, axis="x", spacing=1.0,
                              keep_interval=(4.5, 6.5), keep_count=4)
        assert len(more) > len(base)

    def test_prefer_z_breaks_ties(self):
        # two stacked rows of identical xy: prefer_z selects the surface
        verts = [
            [0, 0, 0], [1, 0, 0], [2, 0, 0],
            [0, 5, 0], [1, 5, 0], [2, 5, 0],
            [0, 0, 3], [1, 0, 3], [2, 0, 3],
            [0, 5, 3], [1, 5, 3], [2, 5, 3],
        ]
        faces = [[0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4],
                 [6, 7, 10], [6, 10, 9], [7, 8, 11], [7, 11, 10],
                 [0, 1, 7], [0, 7, 6], [3, 4, 10], [3, 10, 9]]
        mesh = TriangleMesh(verts, faces)
        hi = extreme_points(mesh, axis="x", spacing=1.0, prefer_z="max", tie_tol=0.5)
        lo = extreme_points(mesh, axis="x", spacing=1.0, prefer_z="min", tie_tol=0.5)
        assert np.all(hi[:, 2] == 3.0)
        assert np.all(lo[:, 2] == 0.0)

    def test_bad_axis(self):
        with pytest.raises(ContractError):
            extreme_points(grid_mesh(4, 4), axis="z")

    def test_nan_spacing_rejected(self):
        plate = disc_plate(radius=30.0, rings=10, sectors=40)
        with pytest.raises(ContractError, match="spacing must be positive"):
            extreme_points(plate.mesh, axis="x", spacing=np.nan)
