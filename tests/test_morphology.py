import warnings

import numpy as np
import pytest

from violinmorph.errors import ContractError, GridMismatchError
from violinmorph.grid import HeightGrid
from violinmorph.morphology import (
    _periodic_spline,
    asymmetry_field,
    channel_of_minima,
    contour_lines,
)
from violinmorph.symmetry import build_symmetry_frame
from violinmorph.synthetic import disc_plate, hemisphere_plate, mirror_pair


@pytest.fixture(scope="module")
def grooved():
    return disc_plate(radius=50.0, height=12.0, rings=100, sectors=360,
                      groove_radius=40.0, groove_depth=1.0, groove_width=1.5)


@pytest.fixture(scope="module")
def grooveless():
    return disc_plate(radius=50.0, height=12.0, rings=60, sectors=200)


def quiet_channel(plate, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return channel_of_minima(plate, **kw)


class TestContourLines:
    def test_hemisphere_levels_are_analytic_circles(self):
        plate = hemisphere_plate(radius=10.0, rings=60, sectors=180)
        lines = contour_lines(plate, spacing=2.0)
        mean_edge = float(plate.mesh.edge_lengths.mean())
        assert lines.levels[0] >= 2.0 - 1e-9
        for level, polys in zip(lines.levels, lines.polylines):
            expected_r = np.sqrt(100.0 - level**2)
            for poly in polys:
                assert np.abs(poly.points[:, 2] - level).max() < 1e-9
                radii = np.linalg.norm(poly.points[:, :2], axis=1)
                assert np.abs(radii - expected_r).max() < mean_edge

    def test_explicit_base_single_level(self):
        # shallow plate spanning less than one spacing above its base
        plate = disc_plate(radius=20.0, height=1.2, rings=25, sectors=80)
        lo = float(plate.mesh.vertices[:, 2].min())
        lines = contour_lines(plate, spacing=2.0, base=lo + 0.5)
        assert len(lines) == 1
        assert len(lines.polylines[0]) >= 1

    def test_plate_thinner_than_spacing_warns_empty(self):
        plate = disc_plate(radius=20.0, height=0.4, rings=15, sectors=50)
        with pytest.warns(UserWarning, match="less than one level"):
            lines = contour_lines(plate, spacing=2.0)
        assert len(lines) == 0

    @pytest.mark.parametrize("kw, message", [
        (dict(spacing=np.nan), "spacing must be positive"),
        (dict(max_range=np.nan), "range must not be negative"),
        (dict(max_range=-5.0), "range must not be negative"),
    ])
    def test_nan_or_negative_params_rejected(self, kw, message):
        # before any cut: not numpy's arange error, a dropped cap or an
        # empty-plate warning
        plate = disc_plate(radius=30.0, rings=10, sectors=40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match=message):
                contour_lines(plate, **kw)

    def test_refinement_keeps_coarse_levels(self):
        plate = disc_plate(radius=30.0, height=11.0, rings=40, sectors=120)
        coarse = contour_lines(plate, spacing=2.0)
        fine = contour_lines(plate, spacing=1.0)
        assert set(coarse.levels) <= set(fine.levels)
        assert len(fine) > len(coarse)

    def test_back_levels_negative_descending_from_plane(self):
        sb, back, _ = mirror_pair(radius=30.0, height=8.0, rings=30, sectors=100,
                                  plane_z=0.0, gap=3.0)
        lines = contour_lines(back, spacing=2.0)
        assert lines.side == "back"
        assert all(lv < 0 for lv in lines.levels)
        assert list(lines.levels) == sorted(lines.levels)

    def test_levels_do_not_cross_in_projection(self):
        # on a height-field surface, distinct levels nest without touching
        plate = disc_plate(radius=30.0, height=11.0, rings=40, sectors=120)
        lines = contour_lines(plate, spacing=2.0)
        radii = []
        for level, polys in zip(lines.levels, lines.polylines):
            r = np.concatenate([np.linalg.norm(p.points[:, :2], axis=1)
                                for p in polys])
            radii.append((r.min(), r.max()))
        for (lo1, hi1), (lo2, hi2) in zip(radii, radii[1:]):
            assert hi2 < lo1  # higher level sits strictly inside


class TestAsymmetryField:
    def test_mirror_symmetric_body_is_flat_zero(self):
        sb, back, _ = mirror_pair(radius=30.0, height=8.0, rings=30, sectors=100,
                                  plane_z=2.0, gap=3.0)
        frame = build_symmetry_frame(sb, back, config="two_meshes")
        field = asymmetry_field(frame.sound_board_grid, frame.back_grid, frame.offset)
        assert field.stats["max_abs"] < 1e-6
        assert field.excluded_nodes == 0

    def test_hand_computed_two_node_example(self):
        sb = HeightGrid((0, 0), 1.0, np.array([[3.0], [2.0]]))
        back = HeightGrid((0, 0), 1.0, np.array([[-2.0], [-2.0]]))
        z_bar = 0.25  # mean of midpoints (0.5, 0)
        field = asymmetry_field(sb, back, z_bar)
        np.testing.assert_allclose(field.grid.values, [[0.5], [-0.5]])

    def test_shifted_form_equals_twice_centered_midpoint(self):
        rng = np.random.default_rng(4)
        sb_vals = rng.uniform(2.0, 9.0, size=(40, 30))
        bk_vals = rng.uniform(-9.0, -2.0, size=(40, 30))
        sb_vals[rng.random((40, 30)) < 0.1] = np.nan
        bk_vals[rng.random((40, 30)) < 0.1] = np.nan
        sb = HeightGrid((0, 0), 1.0, sb_vals)
        back = HeightGrid((0, 0), 1.0, bk_vals)
        z_bar = 0.37
        field = asymmetry_field(sb, back, z_bar)
        ok = field.grid.valid
        midpoint_form = 2.0 * (0.5 * (sb_vals[ok] + bk_vals[ok]) - z_bar)
        assert np.abs(field.grid.values[ok] - midpoint_form).max() < 1e-12

    def test_sign_violations_excluded_with_warning(self):
        sb = HeightGrid((0, 0), 1.0, np.array([[3.0, -1.0]]))
        back = HeightGrid((0, 0), 1.0, np.array([[-2.0, -2.0]]))
        with pytest.warns(UserWarning, match="sign assumption"):
            field = asymmetry_field(sb, back, 0.0)
        assert field.excluded_nodes == 1
        assert np.isnan(field.grid.values[0, 1])

    def test_histogram_quarter_mm_bins(self):
        sb = HeightGrid((0, 0), 1.0, np.array([[3.0, 2.0, 2.6]]))
        back = HeightGrid((0, 0), 1.0, np.array([[-2.0, -2.0, -2.0]]))
        field = asymmetry_field(sb, back, 0.0)
        assert field.histogram_edges[1] - field.histogram_edges[0] == pytest.approx(0.25)
        assert field.histogram_counts.sum() == 3

    def test_grid_mismatch(self):
        a = HeightGrid((0, 0), 1.0, np.ones((2, 2)))
        b = HeightGrid((0, 0), 2.0, np.ones((2, 2)))
        with pytest.raises(GridMismatchError):
            asymmetry_field(a, b, 0.0)


class TestPeriodicSpline:
    def circle(self, n):
        angle = np.linspace(0, 2 * np.pi, n, endpoint=False)
        return np.column_stack([10 * np.cos(angle), 10 * np.sin(angle), np.zeros(n)])

    @pytest.mark.parametrize("offset", [0.0, 1e-13])
    def test_last_point_on_the_first_is_dropped(self, offset):
        pts = self.circle(20)
        closing = np.vstack([pts, pts[:1] + offset, pts[:1]])
        spline, length = _periodic_spline(closing)
        plain, plain_length = _periodic_spline(pts)
        assert length == plain_length
        t = np.linspace(0, length, 101)
        np.testing.assert_array_equal(spline(t), plain(t))

    def test_too_few_points_after_dropping(self):
        pts = self.circle(3)
        with pytest.raises(ContractError, match="too short"):
            _periodic_spline(np.vstack([pts, pts[:1]]))


class TestChannelOfMinima:
    def test_groove_detected_at_radius(self, grooved):
        trace = quiet_channel(grooved, stations=300)
        assert not trace.no_channel
        mean_edge = float(grooved.mesh.edge_lengths.mean())
        radii = np.linalg.norm(trace.points[:, :2], axis=1)
        frac = np.mean(np.abs(radii - 40.0) <= mean_edge)
        assert frac >= 0.95
        assert len(trace.points) >= 0.95 * 300

    def test_grooveless_dome_flags_no_channel(self, grooveless):
        trace = quiet_channel(grooveless, stations=150)
        assert trace.no_channel

    def test_minima_are_window_local_minima(self, grooved):
        trace = quiet_channel(grooved, stations=100)
        # each detected minimum is no higher than its trace neighbours
        z = trace.points[:, 2]
        interior_better = np.abs(z[1:-1]) <= np.maximum(np.abs(z[:-2]), np.abs(z[2:])) + 1e-9
        assert interior_better.all()

    def test_station_doubling_nests_arc_positions(self, grooved):
        coarse = quiet_channel(grooved, stations=100)
        fine = quiet_channel(grooved, stations=200)
        # station lattices nest up to the arc-length estimate, which is
        # itself resolved only to the dense resampling step
        tol = coarse.arc_lengths.max() * 1e-5
        for arc in coarse.arc_lengths:
            assert np.min(np.abs(fine.arc_lengths - arc)) < tol

    def test_equivariance_under_horizontal_motion(self, grooved):
        trace = quiet_channel(grooved, stations=60)
        ang = np.deg2rad(30.0)
        rot = np.array([
            [np.cos(ang), -np.sin(ang), 0],
            [np.sin(ang), np.cos(ang), 0],
            [0, 0, 1],
        ])
        shift = np.array([7.0, -3.0, 0.0])
        moved = grooved.transformed(rotation=rot, translation=shift)
        trace2 = quiet_channel(moved, stations=60)
        expected = trace.points @ rot.T + shift
        assert len(trace2.points) == len(trace.points)
        np.testing.assert_allclose(trace2.points, expected, atol=1e-9)

    def test_smoothed_trace_close_to_raw(self, grooved):
        trace = quiet_channel(grooved, stations=200, smoothing_rms_mm=0.5)
        rms = np.sqrt(np.mean(np.sum((trace.smoothed_points - trace.points) ** 2,
                                     axis=1)))
        assert rms <= 0.5 + 1e-6

    def test_bad_params(self, grooved):
        with pytest.raises(ContractError):
            quiet_channel(grooved, window_mm=-1.0)
        with pytest.raises(ContractError):
            quiet_channel(grooved, stations=4)

    def test_nan_window_rejected(self):
        # before any station is cut, not after 400 "no interior points" warnings
        plate = disc_plate(radius=30.0, rings=10, sectors=40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="window must be positive"):
                channel_of_minima(plate, window_mm=np.nan)

    @pytest.mark.parametrize("rms", [-1.0, np.nan, -np.inf])
    def test_bad_smoothing_rejected(self, rms):
        # unchecked, -1.0 smooths as +1.0 (the cap squares it) and nan as 0.0
        plate = disc_plate(radius=30.0, rings=10, sectors=40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="smoothing_rms_mm must be >= 0"):
                channel_of_minima(plate, smoothing_rms_mm=rms)
