import numpy as np
import pytest

from violinmorph import registration
from violinmorph.errors import ContractError
from violinmorph.mesh import _KD_PARALLEL_MIN_POINTS, PointCloud, kd_workers
from violinmorph.registration import (
    NormalField,
    SimilarityTransform,
    apply_transform,
    estimate_normals,
    evaluate_metrics,
    pca_initial_transform,
    point_to_plane_sq,
    point_to_point,
    point_to_point_sq,
    register,
    register_icp,
)
from violinmorph.synthetic import disc_plate

from oracles import ObjectiveUnmemoized

# arching irregularities pin tangential slides for the plane metric
BUMPS = ((18.0, 10.0, 3.0, 14.0), (-15.0, -12.0, -2.0, 12.0), (-5.0, 20.0, 1.5, 9.0))


@pytest.fixture(scope="module")
def reference_plate():
    plate = disc_plate(radius=60.0, minor=42.0, height=12.0, rings=70,
                       sectors=110, bumps=BUMPS)
    return PointCloud(plate.mesh.vertices)  # ~7.7k points


def random_clouds(seed, n=120, m=140):
    rng = np.random.default_rng(seed)
    return (
        PointCloud(rng.uniform(-10, 10, size=(n, 3))),
        PointCloud(rng.uniform(-10, 10, size=(m, 3))),
    )


class TestSimilarityTransform:
    def test_identity_leaves_cloud(self):
        s, _ = random_clouds(0)
        out = apply_transform(SimilarityTransform.identity(), s)
        np.testing.assert_array_equal(out.points, s.points)

    def test_hand_evaluated_mapping(self):
        # scale multiplies the translated point: K (R p + X)
        t = SimilarityTransform((1, 0, 0), (0, 0, 0), 2.0)
        out = t.apply_points([[0.0, 0.0, 0.0]])
        np.testing.assert_allclose(out, [[2.0, 0.0, 0.0]])

    def test_rotation_matrix_orthonormal(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            t = SimilarityTransform((0, 0, 0), rng.uniform(-180, 180, 3), 1.0)
            r = t.rotation_matrix()
            np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)

    def test_angle_extraction_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            angles = rng.uniform(-80, 80, 3)
            r = SimilarityTransform((0, 0, 0), angles, 1.0).rotation_matrix()
            back = SimilarityTransform.from_rotation_matrix(r)
            np.testing.assert_allclose(back.rotation_matrix(), r, atol=1e-12)

    def test_apply_then_inverse_restores(self):
        rng = np.random.default_rng(3)
        s, _ = random_clouds(3)
        t = SimilarityTransform(rng.uniform(-5, 5, 3), rng.uniform(-30, 30, 3), 1.3)
        restored = apply_transform(t.inverse(), apply_transform(t, s))
        np.testing.assert_allclose(restored.points, s.points, atol=1e-9)

    def test_apply_scales_pairwise_distances_exactly(self):
        s, _ = random_clouds(4)
        t = SimilarityTransform((3, -1, 2), (11, -7, 5), 1.7)
        out = apply_transform(t, s)
        d0 = np.linalg.norm(s.points[:50, None] - s.points[None, :50], axis=2)
        d1 = np.linalg.norm(out.points[:50, None] - out.points[None, :50], axis=2)
        np.testing.assert_allclose(d1, 1.7 * d0, rtol=1e-9)

    def test_positive_scale_required(self):
        with pytest.raises(ContractError):
            SimilarityTransform((0, 0, 0), (0, 0, 0), 0.0)


class TestPointMetrics:
    def test_identical_clouds_zero(self):
        s, _ = random_clouds(5)
        assert point_to_point(s, s) == 0.0
        assert point_to_point_sq(s, s) == 0.0

    def test_single_point_pair(self):
        s = PointCloud([[0.0, 0.0, 0.0]])
        p = PointCloud([[1.0, 0.0, 0.0]])
        assert point_to_point(s, p) == 1.0
        assert point_to_point_sq(s, p) == 1.0

    def test_exact_against_brute_force(self):
        rng = np.random.default_rng(6)
        s = PointCloud(rng.uniform(0, 100, size=(500, 3)))
        p = PointCloud(rng.uniform(0, 100, size=(500, 3)))
        got = point_to_point(s, p)
        # exhaustive O(N^2) oracle with the same summation order
        d2 = np.sum((s.points[:, None] - p.points[None, :]) ** 2, axis=2)
        idx = np.argmin(d2, axis=1)
        diff = s.points - p.points[idx]
        want = float(np.mean(np.sqrt(np.einsum("ij,ij->i", diff, diff))))
        assert got == want  # bit-identical

    def test_not_symmetric_in_arguments(self):
        s = PointCloud([[0, 0, 0], [10, 0, 0]])
        p = PointCloud([[0, 0, 0], [1, 0, 0], [2, 0, 0], [10, 1, 0]])
        assert point_to_point(s, p) != point_to_point(p, s)

    def test_am_qm_inequality(self):
        for seed in range(100):
            s, p = random_clouds(seed, n=40, m=50)
            d = point_to_point(s, p)
            rms = np.sqrt(point_to_point_sq(s, p))
            assert d <= rms + 1e-12

    def test_plane_leq_point_inequality(self):
        for seed in range(100):
            s, p = random_clouds(seed, n=40, m=50)
            rng = np.random.default_rng(1000 + seed)
            n = rng.normal(size=(len(s), 3))
            n /= np.linalg.norm(n, axis=1, keepdims=True)
            plane = np.sqrt(point_to_plane_sq(s, p, NormalField(n)))
            rms = np.sqrt(point_to_point_sq(s, p))
            assert plane <= rms + 1e-12

    def test_tangential_slide_annihilated_by_plane_metric(self):
        xs, ys = np.meshgrid(np.linspace(0, 10, 15), np.linspace(0, 10, 15))
        pts = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(xs.size)])
        s = PointCloud(pts)
        p = PointCloud(pts + [0.2, 0.1, 0.0])  # slide within the plane
        normals = NormalField(np.tile([0.0, 0.0, 1.0], (len(pts), 1)))
        assert point_to_plane_sq(s, p, normals) == pytest.approx(0.0, abs=1e-18)
        assert point_to_point(s, p) > 0.1

    def test_plane_metric_needs_matching_normals(self):
        s, p = random_clouds(7)
        short = NormalField(np.tile([0, 0, 1.0], (3, 1)))
        with pytest.raises(ContractError):
            point_to_plane_sq(s, p, short)
        with pytest.raises(ContractError):
            evaluate_metrics(s, p, SimilarityTransform.identity(), short)

    def test_evaluate_metrics_builds_one_tree(self, monkeypatch):
        builds = []

        class CountingKDTree(registration.cKDTree):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                builds.append(1)

        monkeypatch.setattr(registration, "cKDTree", CountingKDTree)
        s, p = random_clouds(8)
        normals = NormalField(np.tile([0, 0, 1.0], (len(s), 1)))
        evaluate_metrics(s, p, SimilarityTransform((1, 0, 0), (0, 0, 5), 1.1), normals)
        assert len(builds) == 1


class TestEstimateNormals:
    def test_plane_gives_plus_z(self):
        rng = np.random.default_rng(8)
        pts = np.column_stack([rng.uniform(0, 20, 400), rng.uniform(0, 20, 400),
                               np.zeros(400)])
        field = estimate_normals(PointCloud(pts), k=10)
        np.testing.assert_allclose(field.normals, np.tile([0, 0, 1.0], (400, 1)),
                                   atol=1e-9)

    def test_sphere_normals_radial(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(5000, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        field = estimate_normals(PointCloud(pts * 30.0), k=10)
        radial = pts
        cosine = np.abs(np.einsum("ij,ij->i", field.normals, radial))
        angles = np.degrees(np.arccos(np.clip(cosine, -1, 1)))
        assert np.percentile(angles, 99) < 5.0

    def test_global_neighbourhood_on_plane(self):
        rng = np.random.default_rng(10)
        pts = np.column_stack([rng.uniform(0, 5, 40), rng.uniform(0, 5, 40),
                               np.zeros(40)])
        field = estimate_normals(PointCloud(pts), k=39)
        np.testing.assert_allclose(np.abs(field.normals[:, 2]), 1.0, atol=1e-12)

    def test_collinear_neighbourhood_falls_back(self):
        pts = np.column_stack([np.linspace(0, 10, 30), np.zeros(30), np.zeros(30)])
        with pytest.warns(UserWarning, match="degenerate"):
            field = estimate_normals(PointCloud(pts), k=4)
        np.testing.assert_allclose(field.normals[:, 2], 1.0, atol=1e-12)

    def test_k_bounds(self):
        s, _ = random_clouds(11)
        with pytest.raises(ContractError):
            estimate_normals(s, k=2)
        with pytest.raises(ContractError):
            estimate_normals(PointCloud(np.eye(3) * 5), k=3)


def make_case(reference, seed, noise=0.05):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, 3)
    x *= rng.uniform(0, 20) / max(np.linalg.norm(x), 1e-9)
    true = SimilarityTransform(x, rng.uniform(-5, 5, 3), rng.uniform(0.95, 1.05))
    moving = PointCloud(
        true.inverse().apply_points(reference.points)
        + rng.normal(0.0, noise, (len(reference), 3))
    )
    return true, moving


class TestRegister:
    def test_generate_and_recover(self, reference_plate):
        true = SimilarityTransform((5, -3, 2), (2, -1, 0.5), 1.02)
        rng = np.random.default_rng(12)
        moving = PointCloud(true.inverse().apply_points(reference_plate.points)
                            + rng.normal(0, 0.05, (len(reference_plate), 3)))
        init = pca_initial_transform(reference_plate, moving)
        report = register(reference_plate, moving, init=init)
        assert report.converged
        assert np.abs(report.transform.angles_deg - true.angles_deg).max() < 0.1
        assert np.abs(report.transform.translation - true.translation).max() < 0.1
        assert abs(report.transform.scale - true.scale) < 0.002
        # residual sits at the noise floor: mean norm of N(0, 0.05^2 I3)
        floor = 0.05 * np.sqrt(2) * 2 / np.sqrt(np.pi)
        assert report.metrics["D"] == pytest.approx(floor, rel=0.10)

    def test_already_aligned_stays_aligned(self, reference_plate):
        report = register(reference_plate, reference_plate)
        assert report.metrics["D"] == pytest.approx(0.0, abs=1e-9)
        assert report.objective_history[-1] <= report.objective_history[0]
        np.testing.assert_allclose(report.transform.translation, 0.0, atol=1e-6)
        assert report.transform.scale == pytest.approx(1.0, abs=1e-6)

    def test_objective_history_monotone(self, reference_plate):
        true, moving = make_case(reference_plate, 13)
        report = register(reference_plate, moving,
                          init=pca_initial_transform(reference_plate, moving))
        h = np.asarray(report.objective_history)
        assert np.all(np.diff(h) <= 1e-15)

    def test_frozen_scale(self, reference_plate):
        true, moving = make_case(reference_plate, 14)
        init = pca_initial_transform(reference_plate, moving, allow_scale=False)
        report = register(reference_plate, moving, allow_scale=False, init=init)
        assert report.transform.scale == init.scale == 1.0

    def test_cross_metric_agreement(self, reference_plate):
        # optimizing any metric lands on nearly the same transform
        true, moving = make_case(reference_plate, 15)
        init = pca_initial_transform(reference_plate, moving)
        normals = estimate_normals(reference_plate, k=10)
        reports = [
            register(reference_plate, moving, metric=m, init=init, normals=normals)
            for m in ("point_to_point", "point_to_point_sq", "point_to_plane_sq")
        ]
        for a in reports:
            for b in reports:
                assert np.abs(a.transform.angles_deg - b.transform.angles_deg).max() < 0.5
                assert np.abs(a.transform.translation - b.transform.translation).max() < 0.5

    def test_report_metrics_match_recomputation(self, reference_plate):
        true, moving = make_case(reference_plate, 16)
        normals = estimate_normals(reference_plate, k=10)
        report = register(reference_plate, moving, normals=normals,
                          init=pca_initial_transform(reference_plate, moving))
        again = evaluate_metrics(reference_plate, moving, report.transform, normals)
        for key, value in report.metrics.items():
            assert again[key] == pytest.approx(value, abs=1e-9)
        # one shared query gives the same bits as the three separate metrics
        moved = apply_transform(report.transform, moving)
        assert again["D"] == point_to_point(reference_plate, moved)
        assert again["sqrt_D2"] == np.sqrt(point_to_point_sq(reference_plate, moved))
        assert again["sqrt_D2_plane"] == np.sqrt(
            point_to_plane_sq(reference_plate, moved, normals))

    def test_unknown_metric(self, reference_plate):
        with pytest.raises(ContractError):
            register(reference_plate, reference_plate, metric="hausdorff")

    def test_nonconvergence_is_reported_not_raised(self, reference_plate):
        true, moving = make_case(reference_plate, 17)
        report = register(reference_plate, moving, max_sweeps=1,
                          init=SimilarityTransform.identity())
        assert report.converged is False
        assert report.iterations == 1


class TestObjectiveOracle:
    """The memoized objective and the thread rule against the plain objective."""

    @pytest.mark.parametrize("rings, sectors", [(15, 60), (40, 160)])  # 901, 6,401 points
    @pytest.mark.parametrize("metric", ["point_to_point", "point_to_plane_sq"])
    def test_same_report_as_unmemoized(self, monkeypatch, rings, sectors, metric):
        s = PointCloud(disc_plate(radius=40.0, height=8.0, rings=rings, sectors=sectors,
                                  bumps=BUMPS).mesh.vertices)
        true = SimilarityTransform((1.5, -1.0, 0.5), (1.0, -0.5, 2.0), 1.01)
        p = PointCloud(true.inverse().apply_points(s.points)
                       + np.random.default_rng(rings).normal(0.0, 0.05, (len(s), 3)))
        normals = estimate_normals(s)

        def run(objective):
            queries = []

            class CountingKDTree(registration.cKDTree):
                def query(self, *args, **kwargs):
                    queries.append(kwargs.get("workers"))
                    return super().query(*args, **kwargs)

            with monkeypatch.context() as mp:
                mp.setattr(registration, "cKDTree", CountingKDTree)
                mp.setattr(registration, "_Objective", objective)
                report = register(s, p, metric=metric, normals=normals, max_sweeps=8)
            return report, queries

        new, new_queries = run(registration._Objective)
        old, old_queries = run(ObjectiveUnmemoized)
        assert new.transform.as_dict() == old.transform.as_dict()
        assert new.metrics == old.metrics
        assert new.iterations == old.iterations and new.converged == old.converged
        assert new.objective_history == old.objective_history
        assert new.distances.tobytes() == old.distances.tobytes()
        assert len(new_queries) < len(old_queries)  # repeated vectors answered from memo
        assert set(new_queries) == {1 if len(s) < _KD_PARALLEL_MIN_POINTS else -1}

    def test_crossover_separates_the_cases(self):
        assert 901 < _KD_PARALLEL_MIN_POINTS <= 6401
        assert kd_workers(_KD_PARALLEL_MIN_POINTS - 1) == 1
        assert kd_workers(_KD_PARALLEL_MIN_POINTS) == -1


class TestRegisterIcp:
    def test_external_scaling_agrees_with_powell(self, reference_plate):
        # with-scaling routes give nearly identical transforms (0.5 deg/mm)
        true, moving = make_case(reference_plate, 18)
        init = pca_initial_transform(reference_plate, moving, allow_scale=False)
        icp = register_icp(reference_plate, moving, scale=true.scale,
                           sample_size=4000, seed=0, init=init)
        assert icp.converged
        assert icp.transform.scale == true.scale
        powell = register(reference_plate, moving,
                          init=pca_initial_transform(reference_plate, moving))
        assert np.abs(icp.transform.angles_deg - powell.transform.angles_deg).max() < 0.5
        assert np.abs(icp.transform.translation - powell.transform.translation).max() < 0.5
        # ICP minimizes a sampled plane metric, so its D trails a little
        assert icp.metrics["D"] < 1.5 * powell.metrics["D"]

    def test_no_scaling_is_worse(self, reference_plate):
        rng = np.random.default_rng(19)
        true = SimilarityTransform((3, 1, -2), (1, 0.5, -0.7), 1.04)
        moving = PointCloud(true.inverse().apply_points(reference_plate.points)
                            + rng.normal(0, 0.05, (len(reference_plate), 3)))
        init = pca_initial_transform(reference_plate, moving, allow_scale=False)
        with_k = register_icp(reference_plate, moving, scale=1.04,
                              sample_size=4000, seed=0, init=init)
        without = register_icp(reference_plate, moving, scale=1.0,
                               sample_size=4000, seed=0, init=init)
        assert without.metrics["D"] > 2.0 * with_k.metrics["D"]

    def test_seeded_sampling_deterministic(self, reference_plate):
        true, moving = make_case(reference_plate, 20)
        a = register_icp(reference_plate, moving, scale=1.0, sample_size=3000, seed=7)
        b = register_icp(reference_plate, moving, scale=1.0, sample_size=3000, seed=7)
        np.testing.assert_array_equal(a.transform.translation, b.transform.translation)
        np.testing.assert_array_equal(a.transform.angles_deg, b.transform.angles_deg)
