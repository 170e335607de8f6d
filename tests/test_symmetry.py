import numpy as np
import pytest

from violinmorph.errors import (
    CollinearityError,
    ContractError,
    InsufficientOverlapError,
    NonAcuteConfigurationError,
)
from violinmorph.mesh import PointCloud, VertexMask
from violinmorph.registration import pca_initial_transform, register
from violinmorph.symmetry import (
    FittedPlane,
    average_symmetry_plane,
    build_symmetry_frame,
    fit_plane_orthogonal,
)
from violinmorph.synthetic import disc_plate, mirror_pair


class TestFitPlaneOrthogonal:
    def test_exact_plane(self):
        rng = np.random.default_rng(0)
        xy = rng.uniform(-10, 10, size=(200, 2))
        pts = np.column_stack([xy, 0.1 * xy[:, 0] + 2.0])
        plane = fit_plane_orthogonal(pts)
        expected = np.array([-0.1, 0.0, 1.0]) / np.linalg.norm([-0.1, 0.0, 1.0])
        np.testing.assert_allclose(plane.normal, expected, atol=1e-12)
        assert plane.rms_residual == pytest.approx(0.0, abs=1e-9)

    def test_noisy_plane_residual_near_sigma(self):
        rng = np.random.default_rng(1)
        xy = rng.uniform(-50, 50, size=(5000, 2))
        z = 0.05 * xy[:, 0] - 0.02 * xy[:, 1] + rng.normal(0, 0.01, 5000)
        plane = fit_plane_orthogonal(np.column_stack([xy, z]))
        assert plane.rms_residual == pytest.approx(0.01, rel=0.2)

    def test_three_points_fit_exactly(self):
        plane = fit_plane_orthogonal([[0, 0, 1], [4, 0, 2], [0, 5, 3]])
        assert plane.rms_residual == pytest.approx(0.0, abs=1e-9)

    def test_collinear_points_rejected(self):
        pts = np.column_stack([np.arange(10.0), np.arange(10.0), np.zeros(10)])
        with pytest.raises(CollinearityError):
            fit_plane_orthogonal(pts)
        with pytest.raises(CollinearityError):
            fit_plane_orthogonal([[0, 0, 0], [1, 1, 1]])

    def test_normal_signed_toward_plus_z(self):
        rng = np.random.default_rng(2)
        xy = rng.uniform(-5, 5, size=(100, 2))
        pts = np.column_stack([xy, -0.3 * xy[:, 0] + 1.0])
        assert fit_plane_orthogonal(pts).normal[2] > 0

    def test_accepts_point_cloud(self):
        plane = fit_plane_orthogonal(PointCloud([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]))
        np.testing.assert_allclose(plane.normal, [0, 0, 1], atol=1e-12)


class TestAverageSymmetryPlane:
    def plane(self, nx, nz, offset=0.0):
        n = np.array([nx, 0.0, nz])
        return FittedPlane(n / np.linalg.norm(n), offset)

    def test_identical_planes_unchanged(self):
        p = self.plane(0.02, 1.0, offset=3.0)
        avg = average_symmetry_plane(p, p)
        np.testing.assert_allclose(avg.normal, p.normal, atol=1e-15)
        assert avg.offset == pytest.approx(3.0, abs=1e-12)

    def test_symmetric_pair_bisects_to_vertical(self):
        t = np.tan(np.radians(1.0))
        up = self.plane(+t, 1.0)
        lo = self.plane(-t, 1.0)
        avg = average_symmetry_plane(up, lo)
        np.testing.assert_allclose(avg.normal, [0, 0, 1], atol=1e-15)

    def test_non_acute_rejected(self):
        steep = self.plane(2.0, 1.0)
        with pytest.raises(NonAcuteConfigurationError):
            average_symmetry_plane(steep, self.plane(0.0, 1.0))

    def test_tilt_angle(self):
        assert self.plane(0.0, 1.0).tilt_deg() == pytest.approx(0.0)
        assert self.plane(1.0, 1.0).tilt_deg() == pytest.approx(45.0)


@pytest.fixture(scope="module")
def mirror_fixture():
    return mirror_pair(radius=40.0, height=9.0, rings=40, sectors=130,
                       plane_z=3.0, gap=4.0)


class TestBuildSymmetryFrame:
    def test_mirror_body_recovers_construction_plane(self, mirror_fixture):
        sb, back, _ = mirror_fixture
        frame = build_symmetry_frame(sb, back, config="two_meshes")
        assert frame.offset == pytest.approx(3.0, abs=1e-6)
        assert frame.angle_deg == pytest.approx(0.0, abs=1e-6)
        # all midpoints coincide on a mirror-symmetric body
        joint = frame.sound_board_grid.valid & frame.back_grid.valid
        mids = 0.5 * (frame.sound_board_grid.values[joint]
                      + frame.back_grid.values[joint])
        assert np.abs(mids - 3.0).max() < 1e-6

    def test_translation_equivariance(self, mirror_fixture):
        sb, back, _ = mirror_fixture
        sb5 = sb.transformed(translation=(0, 0, 5.0))
        back5 = back.transformed(translation=(0, 0, 5.0))
        frame = build_symmetry_frame(sb5, back5, config="two_meshes")
        assert frame.offset == pytest.approx(8.0, abs=1e-9)

    def test_shifted_midpoints_average_to_zero(self, mirror_fixture):
        sb, back, _ = mirror_fixture
        frame = build_symmetry_frame(sb, back, config="two_contours")
        joint = frame.sound_board_grid.valid & frame.back_grid.valid
        shifted = 0.5 * ((frame.sound_board_grid.values[joint] - frame.offset)
                         + (frame.back_grid.values[joint] - frame.offset))
        assert abs(shifted.mean()) < 1e-9

    def test_arched_plus_flat_matches_function_oracle(self):
        # sound board: analytic dome; back: flat sheet at z = -6
        sb = disc_plate(radius=40.0, height=9.0, rings=50, sectors=160)
        back_src = disc_plate(radius=40.0, height=9.0, rings=50, sectors=160)
        flat_verts = back_src.mesh.vertices.copy()
        flat_verts[:, 2] = -6.0
        from violinmorph.isolation import PlateMesh

        back = PlateMesh(
            mesh=type(back_src.mesh)(flat_verts, back_src.mesh.faces),
            contour=back_src.contour,
            side="back",
            orig_vertex_ids=back_src.orig_vertex_ids,
            inner_ids=back_src.inner_ids,
        )
        frame = build_symmetry_frame(sb, back, config="two_meshes")
        # oracle: evaluate the analytic surfaces at the same grid nodes
        g = frame.sound_board_grid
        joint = g.valid & frame.back_grid.valid
        xs, ys = g.node_xy()
        sigma = 0.5 * 40.0
        dome = 9.0 * np.exp(-(xs**2 + ys**2) / sigma**2)
        expected = float((0.5 * (dome[joint] - 6.0)).mean())
        assert frame.offset == pytest.approx(expected, abs=0.01)

    def test_masked_config_ignores_rim_bump(self):
        sb, back, bump_ids = mirror_pair(radius=40.0, height=9.0, rings=40,
                                         sectors=130, plane_z=0.0, gap=4.0,
                                         bump_deg=(40.0, 100.0), bump_height=2.5)
        masked = build_symmetry_frame(sb, back, config="two_contours_masked",
                                      mask=VertexMask(bump_ids))
        plain = build_symmetry_frame(sb, back, config="two_contours")
        # without the bump the construction is exactly symmetric
        assert masked.angle_deg < plain.angle_deg
        assert masked.angle_deg == pytest.approx(0.0, abs=1e-6)

    def test_three_configurations_agree_on_bumped_body(self):
        sb, back, bump_ids = mirror_pair(radius=40.0, height=9.0, rings=40,
                                         sectors=130, plane_z=0.0, gap=4.0,
                                         bump_deg=(40.0, 100.0), bump_height=2.5,
                                         tilt_deg=1.5)
        angles = {}
        for config in ("two_meshes", "two_contours", "two_contours_masked"):
            frame = build_symmetry_frame(sb, back, config=config,
                                         mask=VertexMask(bump_ids))
            angles[config] = frame.angle_deg
        spread = max(angles.values()) - min(angles.values())
        assert spread < 1.0
        # the tilt itself is seen by all three
        assert all(0.5 < a < 2.5 for a in angles.values())

    def test_insufficient_overlap(self, mirror_fixture):
        sb, back, _ = mirror_fixture
        far_back = back.transformed(translation=(500.0, 0, 0))
        with pytest.raises((InsufficientOverlapError, ContractError)):
            build_symmetry_frame(sb, far_back, config="two_meshes")

    def test_nan_grid_spacing_rejected(self, mirror_fixture):
        sb, back, _ = mirror_fixture
        with pytest.raises(ContractError, match="spacing must be positive"):
            build_symmetry_frame(sb, back, config="two_meshes", spacing=np.nan)

    def test_unknown_config(self, mirror_fixture):
        sb, back, _ = mirror_fixture
        with pytest.raises(ContractError):
            build_symmetry_frame(sb, back, config="one_mesh")

    def test_reorientation_preserves_registration_distance(self):
        # registering after the frame rotation returns the same optimal D
        sb, back, _ = mirror_pair(radius=30.0, height=7.0, rings=24, sectors=70,
                                  plane_z=0.0, gap=3.0, tilt_deg=2.0)
        frame = build_symmetry_frame(sb, back, config="two_meshes")
        rng = np.random.default_rng(3)
        jitter = rng.normal(0, 0.02, sb.mesh.vertices.shape)
        s = PointCloud(sb.mesh.vertices)
        p = PointCloud(sb.mesh.vertices + jitter)
        d_before = register(s, p, ftol=1e-8).metrics["D"]
        s2 = PointCloud(frame.apply_points(s.points))
        p2 = PointCloud(frame.apply_points(p.points))
        d_after = register(s2, p2, ftol=1e-8).metrics["D"]
        assert d_after == pytest.approx(d_before, abs=1e-6)
