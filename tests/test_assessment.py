import numpy as np
import pytest

from violinmorph.assessment import (
    cross_compare,
    error_distribution,
    sampling_floor,
)
from violinmorph.errors import ContractError
from violinmorph.mesh import PointCloud, TriangleMesh
from violinmorph.registration import apply_transform, point_to_point, register
from violinmorph.synthetic import disc_plate


class TestErrorDistribution:
    def test_identical_clouds(self):
        rng = np.random.default_rng(0)
        s = PointCloud(rng.uniform(0, 50, size=(300, 3)))
        dist = error_distribution(s, s)
        assert np.all(dist.distances == 0.0)
        assert dist.mean == 0.0
        assert dist.fraction_above == 0.0

    def test_uniform_offset_against_brute_force(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 30, size=(250, 3))
        s = PointCloud(pts)
        p = PointCloud(pts + [1.0, 0.0, 0.0])
        dist = error_distribution(s, p)
        assert dist.distances.max() <= 1.0 + 1e-12
        d2 = np.sum((s.points[:, None] - p.points[None, :]) ** 2, axis=2)
        idx = np.argmin(d2, axis=1)
        diff = s.points - p.points[idx]
        want = float(np.mean(np.sqrt(np.einsum("ij,ij->i", diff, diff))))
        assert dist.mean == want

    def test_mean_equals_point_to_point_exactly(self):
        rng = np.random.default_rng(2)
        s = PointCloud(rng.uniform(0, 10, size=(400, 3)))
        p = PointCloud(rng.uniform(0, 10, size=(350, 3)))
        dist = error_distribution(s, p)
        assert dist.mean == point_to_point(s, p)

    def test_fraction_monotone_in_threshold(self):
        rng = np.random.default_rng(3)
        s = PointCloud(rng.uniform(0, 10, size=(200, 3)))
        p = PointCloud(rng.uniform(0, 10, size=(200, 3)))
        dist = error_distribution(s, p)
        fracs = [dist.fraction_above_threshold(t) for t in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(fracs, fracs[1:]))
        assert all(0.0 <= f <= 1.0 for f in fracs)

    def test_histogram_accounts_for_every_point(self):
        rng = np.random.default_rng(4)
        s = PointCloud(rng.uniform(0, 10, size=(200, 3)))
        p = PointCloud(rng.uniform(0, 10, size=(180, 3)))
        dist = error_distribution(s, p, bin_width=0.1)
        assert dist.histogram_counts.sum() == len(s)

    def test_registration_distances_give_the_same_distribution(self):
        rng = np.random.default_rng(5)
        s = PointCloud(rng.uniform(0, 10, size=(300, 3)))
        p = PointCloud(s.points + rng.normal(0, 0.2, size=(300, 3)))
        report = register(s, p, max_sweeps=3)
        want = error_distribution(s, apply_transform(report.transform, p), threshold=0.3)
        got = error_distribution(s, None, threshold=0.3, distances=report.distances)
        assert got.as_dict() == want.as_dict()
        assert got.distances.tobytes() == want.distances.tobytes()
        with pytest.raises(ContractError):
            error_distribution(s, None, distances=report.distances[:-1])


class TestSamplingFloor:
    def test_unit_edge_mesh_is_one_third(self):
        h = np.sqrt(3) / 2
        verts = [[0, 0, 0], [1, 0, 0], [0.5, h, 0]]
        mesh = TriangleMesh(verts, [[0, 1, 2]])
        assert sampling_floor(mesh) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_resampling_lands_in_heuristic_band(self, reduction_fixture):
        # independent samplings of one surface: D within [0.5x, 2x] floor
        unreduced, _, resampled = reduction_fixture
        floor = sampling_floor(unreduced.mesh)
        d = point_to_point(PointCloud(unreduced.mesh.vertices),
                           PointCloud(resampled.mesh.vertices))
        assert 0.5 * floor <= d <= 2.0 * floor


class TestCrossCompare:
    def test_same_plate_against_itself_degenerate_zero(self):
        plate = disc_plate(radius=30.0, minor=22.0, height=8.0, rings=30,
                           sectors=90)
        report, dist = cross_compare(plate, plate)
        assert report.metrics["D"] == pytest.approx(0.0, abs=1e-9)
        assert dist.mean == pytest.approx(0.0, abs=1e-9)
        assert report.transform.scale == 1.0  # frozen

    def test_reduced_plate_stands_out_from_resampling_floor(self, reduction_fixture):
        unreduced, reduced, resampled = reduction_fixture
        same = point_to_point(PointCloud(unreduced.mesh.vertices),
                              PointCloud(resampled.mesh.vertices))
        report, dist = cross_compare(unreduced, reduced)
        assert report.metrics["D"] >= 3.0 * same
        assert dist.mean == pytest.approx(report.metrics["D"], abs=1e-9)
