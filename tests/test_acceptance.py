"""Acceptance suite: the package's headline guarantees, one test per
criterion with pinned tolerances, printing one pass/fail line each
(visible with -s or in the captured output of a failing run)."""

import json
import time
import warnings
from itertools import permutations

import numpy as np
import pytest

from violinmorph.assessment import cross_compare, sampling_floor
from violinmorph.cli import main as cli_main
from violinmorph.decimate import decimate
from violinmorph.fileio import save_mesh
from violinmorph.grid import HeightGrid, grid_difference_stats, interpolate_grid
from violinmorph.isolation import isolate_plate, order_loop
from violinmorph.mesh import PointCloud, TriangleMesh
from violinmorph.morphology import asymmetry_field, channel_of_minima
from violinmorph.registration import (
    NormalField,
    SimilarityTransform,
    pca_initial_transform,
    point_to_plane_sq,
    point_to_point,
    point_to_point_sq,
    register,
)
from violinmorph.symmetry import build_symmetry_frame
from violinmorph.synthetic import (
    disc_plate,
    hemisphere_plate,
    instrument_body,
    mirror_pair,
    skirted_plate,
)

from conftest import grid_mesh
from test_isolation import (
    anchors_mesh,
    brute_force_tour_length,
    jittered_loop_anchors,
    tour_length_of,
)


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number:2d} ({name}): {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


BUMPS = ((18.0, 10.0, 3.0, 14.0), (-15.0, -12.0, -2.0, 12.0), (-5.0, 20.0, 1.5, 9.0))


def test_c01_transform_recovery():
    plate = disc_plate(radius=60.0, minor=42.0, height=12.0, rings=105,
                       sectors=190, bumps=BUMPS)
    s = PointCloud(plate.mesh.vertices)
    assert len(s) >= 19000
    rng = np.random.default_rng(2024)
    worst = {"angle": 0.0, "trans": 0.0, "scale": 0.0, "time": 0.0}
    for case in range(20):
        x = rng.uniform(-1.0, 1.0, 3)
        x *= rng.uniform(0.0, 20.0) / max(np.linalg.norm(x), 1e-12)
        true = SimilarityTransform(x, rng.uniform(-5.0, 5.0, 3),
                                   rng.uniform(0.95, 1.05))
        moving = PointCloud(true.inverse().apply_points(s.points)
                            + rng.normal(0.0, 0.05, (len(s), 3)))
        t0 = time.perf_counter()
        # the registration contract expects PCA pre-orientation
        rep = register(s, moving, metric="point_to_point",
                       init=pca_initial_transform(s, moving))
        elapsed = time.perf_counter() - t0
        worst["angle"] = max(worst["angle"],
                             np.abs(rep.transform.angles_deg - true.angles_deg).max())
        worst["trans"] = max(worst["trans"],
                             np.abs(rep.transform.translation - true.translation).max())
        worst["scale"] = max(worst["scale"], abs(rep.transform.scale - true.scale))
        worst["time"] = max(worst["time"], elapsed)
        assert elapsed < 60.0, f"case {case} took {elapsed:.1f}s"
    ok = (worst["angle"] < 0.1 and worst["trans"] < 0.1 and worst["scale"] < 0.002
          and worst["time"] < 60.0)
    report(1, "transform recovery", ok,
           f"worst over 20 cases: angle {worst['angle']:.4f} deg, "
           f"translation {worst['trans']:.4f} mm, scale {worst['scale']:.5f}, "
           f"time {worst['time']:.1f} s")


def test_c02_metric_inequalities():
    rng = np.random.default_rng(7)
    violations = 0
    for _ in range(1000):
        s = PointCloud(rng.uniform(-10, 10, size=(rng.integers(5, 60), 3)))
        p = PointCloud(rng.uniform(-10, 10, size=(rng.integers(5, 60), 3)))
        n = rng.normal(size=(len(s), 3))
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        d = point_to_point(s, p)
        rms = np.sqrt(point_to_point_sq(s, p))
        plane = np.sqrt(point_to_plane_sq(s, p, NormalField(n)))
        if d > rms + 1e-12 or plane > rms + 1e-12:
            violations += 1
    report(2, "metric inequalities", violations == 0,
           f"{violations} violations in 1000 pairs")


def test_c03_nn_oracle_equivalence():
    rng = np.random.default_rng(11)
    s = PointCloud(rng.uniform(0, 100, size=(500, 3)))
    p = PointCloud(rng.uniform(0, 100, size=(500, 3)))
    got = point_to_point(s, p)
    d2 = np.sum((s.points[:, None] - p.points[None, :]) ** 2, axis=2)
    idx = np.argmin(d2, axis=1)
    diff = s.points - p.points[idx]
    want = float(np.mean(np.sqrt(np.einsum("ij,ij->i", diff, diff))))
    report(3, "NN-oracle equivalence", got == want,
           f"spatial-index {got!r} vs exhaustive {want!r} (bit-identical)")


def test_c04_contour_isolation():
    mesh, labels = skirted_plate(rings=40, sectors=150, skirt_rings=5)
    plate = isolate_plate(mesh, "sound_board")
    inner = set(plate.orig_vertex_ids[plate.inner_ids].tolist())
    contour = {int(plate.orig_vertex_ids[i]) for i in plate.contour.vertex_indices}
    plate_set = set(labels["plate"].tolist())
    skirt_set = set(labels["skirt"].tolist())
    missing = plate_set - contour - inner
    leaked = inner & skirt_set
    plate.contour.validate_against(plate.mesh)  # single closed adjacent loop
    ok = not missing and not leaked
    report(4, "contour isolation", ok,
           f"{len(leaked)} skirt vertices leaked, {len(missing)} plate vertices missing")


def test_c05_tsp_oracle():
    checked = 0
    worst_gap = 0.0
    for n in (5, 6, 7, 8, 9):
        for seed in range(6):
            pts = jittered_loop_anchors(n, seed)
            mesh = anchors_mesh(pts)
            got = tour_length_of(mesh, order_loop(mesh, list(range(n))))
            best = brute_force_tour_length(pts)
            worst_gap = max(worst_gap, got - best)
            checked += 1
    for seed in range(4):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-10, 10, size=(8, 3))
        mesh = anchors_mesh(pts)
        got = tour_length_of(mesh, order_loop(mesh, list(range(8))))
        best = brute_force_tour_length(pts)
        worst_gap = max(worst_gap, got - best)
        checked += 1
    report(5, "TSP oracle", worst_gap <= 1e-9,
           f"{checked} anchor sets of size <= 9, worst gap {worst_gap:.2e} mm")


def test_c06_symmetry():
    sb, back, _ = mirror_pair(radius=40.0, height=9.0, rings=40, sectors=130,
                              plane_z=3.0, gap=4.0)
    frame = build_symmetry_frame(sb, back, config="two_meshes")
    angle_rad = np.deg2rad(frame.angle_deg)
    offset_err = abs(frame.offset - 3.0)
    field = asymmetry_field(frame.sound_board_grid, frame.back_grid, frame.offset)
    max_asym = field.stats["max_abs"]

    sbb, backb, bump_ids = mirror_pair(radius=40.0, height=9.0, rings=40,
                                       sectors=130, plane_z=0.0, gap=4.0,
                                       bump_deg=(40.0, 100.0), bump_height=2.5,
                                       tilt_deg=1.5)
    from violinmorph.mesh import VertexMask

    angles = [
        build_symmetry_frame(sbb, backb, config=c, mask=VertexMask(bump_ids)).angle_deg
        for c in ("two_meshes", "two_contours", "two_contours_masked")
    ]
    spread = max(angles) - min(angles)
    ok = angle_rad < 1e-6 and offset_err < 1e-6 and max_asym < 1e-6 and spread < 1.0
    report(6, "symmetry", ok,
           f"plane deviation {angle_rad:.2e} rad, offset error {offset_err:.2e} mm, "
           f"max asymmetry {max_asym:.2e} mm, config spread {spread:.3f} deg")


def test_c07_asymmetry_identity():
    worst = 0.0
    nodes = 0
    cases = []
    sb, back, _ = mirror_pair(radius=40.0, height=9.0, rings=40, sectors=130,
                              plane_z=3.0, gap=4.0)
    frame = build_symmetry_frame(sb, back, config="two_meshes")
    cases.append((frame.sound_board_grid, frame.back_grid, frame.offset))
    rng = np.random.default_rng(3)
    sb_vals = rng.uniform(1.0, 9.0, size=(50, 40))
    bk_vals = rng.uniform(-9.0, -1.0, size=(50, 40))
    sb_vals[rng.random((50, 40)) < 0.15] = np.nan
    bk_vals[rng.random((50, 40)) < 0.15] = np.nan
    cases.append((HeightGrid((0, 0), 1.0, sb_vals),
                  HeightGrid((0, 0), 1.0, bk_vals), 0.21))
    for sb_grid, bk_grid, z_bar in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            field = asymmetry_field(sb_grid, bk_grid, z_bar)
        ok_nodes = field.grid.valid
        shifted_form = field.grid.values[ok_nodes]
        midpoint_form = 2.0 * (0.5 * (sb_grid.values[ok_nodes]
                                      + bk_grid.values[ok_nodes]) - z_bar)
        worst = max(worst, float(np.abs(shifted_form - midpoint_form).max()))
        nodes += int(ok_nodes.sum())
    report(7, "asymmetry identity", worst <= 1e-12,
           f"max |shifted - 2(z - zbar)| = {worst:.2e} mm over {nodes} nodes")


def test_c08_grid_exactness():
    mesh = grid_mesh(25, 25, height=lambda x, y: 0.37 * x - 0.21 * y + 4.2)
    g = interpolate_grid(mesh, spacing=1.0, side="upper")
    xs, ys = g.node_xy()
    expected = 0.37 * xs - 0.21 * ys + 4.2
    err = float(np.abs(g.values[g.valid] - expected[g.valid]).max())
    report(8, "grid interpolation exactness", g.valid.all() and err < 1e-9,
           f"max error {err:.2e} mm on {int(g.valid.sum())} nodes")


def test_c09_simplification_ordering():
    plate = hemisphere_plate(radius=30.0, rings=80, sectors=240)
    mesh = plate.mesh
    origin, shape = (np.array([-28.0, -28.0]), (57, 57))
    g_full = interpolate_grid(mesh, 1.0, "upper", origin, shape)
    stats = {}
    for frac in (0.25, 0.05):
        target = int(mesh.n_faces * frac)
        simplified = decimate(mesh, target)
        g = interpolate_grid(simplified, 1.0, "upper", origin, shape)
        stats[frac] = grid_difference_stats(g_full, g)
    dome_height = 30.0
    ok = (stats[0.25]["mean"] < stats[0.05]["mean"]
          and stats[0.05]["mean"] < 0.01 * dome_height
          and stats[0.25]["mean"] < 0.01 * dome_height)
    report(9, "simplification ordering", ok,
           f"mean |dz|: 25% faces {stats[0.25]['mean']:.4f} mm "
           f"< 5% faces {stats[0.05]['mean']:.4f} mm, both < {0.01 * dome_height} mm")


def test_c10_channel_detection():
    grooved = disc_plate(radius=50.0, height=12.0, rings=100, sectors=360,
                         groove_radius=40.0, groove_depth=1.0, groove_width=1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        trace = channel_of_minima(grooved, stations=400)
    mean_edge = float(grooved.mesh.edge_lengths.mean())
    radii = np.linalg.norm(trace.points[:, :2], axis=1)
    frac = float(np.mean(np.abs(radii - 40.0) <= mean_edge))
    detected = len(trace.points) / 400.0

    plain = disc_plate(radius=50.0, height=12.0, rings=60, sectors=200)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        flat_trace = channel_of_minima(plain, stations=200)
    ok = frac >= 0.95 and detected >= 0.95 and not trace.no_channel \
        and flat_trace.no_channel
    report(10, "channel detection", ok,
           f"{frac:.1%} of minima within one edge of the groove radius, "
           f"{detected:.1%} stations detected; grooveless flagged "
           f"{flat_trace.no_channel}")


def test_c11_reduction_signature(reduction_fixture):
    unreduced, reduced, resampled = reduction_fixture
    same = point_to_point(PointCloud(unreduced.mesh.vertices),
                          PointCloud(resampled.mesh.vertices))
    rep, _ = cross_compare(unreduced, reduced)
    ratio = rep.metrics["D"] / same

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        t_un = channel_of_minima(unreduced, stations=240)
        t_red = channel_of_minima(reduced, stations=240)
    joint_red = np.abs(t_red.contour_points[:, 1]) < 5.0
    joint_un = np.abs(t_un.contour_points[:, 1]) < 5.0
    red_joint = float(t_red.inward_offsets[joint_red].mean())
    red_rest = float(t_red.inward_offsets[~joint_red].mean())
    un_joint = float(t_un.inward_offsets[joint_un].mean())
    ok = ratio >= 3.0 and red_joint < red_rest - 0.5 and red_joint < un_joint - 0.5
    report(11, "reduction signature", ok,
           f"cross D / resampled D = {ratio:.2f} (>= 3), channel-contour "
           f"distance near joins {red_joint:.2f} mm vs {red_rest:.2f} mm away "
           f"(unreduced: {un_joint:.2f} mm)")


def test_c12_sampling_floor(reduction_fixture):
    unreduced, _, resampled = reduction_fixture
    floor = sampling_floor(unreduced.mesh)
    d = point_to_point(PointCloud(unreduced.mesh.vertices),
                       PointCloud(resampled.mesh.vertices))
    ok = 0.5 * floor <= d <= 2.0 * floor
    report(12, "sampling floor sanity", ok,
           f"measured D {d:.4f} mm vs floor {floor:.4f} mm "
           f"(band [{0.5 * floor:.4f}, {2 * floor:.4f}])")


def test_c13_reproducibility(tmp_path):
    body, _ = instrument_body(rings=25, sectors=100, rib_rings=6)
    body_path = tmp_path / "body.ply"
    save_mesh(body, body_path, "ply-binary-le")
    out = tmp_path / "run"
    argv = ["pipeline", "--body", str(body_path), "--out", str(out),
            "--symmetry-config", "two_contours", "--seed", "0"]
    assert cli_main(list(argv)) == 0
    first = {p.name: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert cli_main(list(argv)) == 0
    mismatched = []
    for p in sorted(out.rglob("*")):
        if not p.is_file():
            continue
        now = p.read_bytes()
        before = first[p.name]
        if p.name.startswith("manifest"):
            a, b = json.loads(before), json.loads(now)
            for doc in (a, b):
                doc.pop("timestamp")
                doc.pop("timings_s")
            if a != b:
                mismatched.append(p.name)
        elif now != before:
            mismatched.append(p.name)
    report(13, "reproducibility", not mismatched,
           f"{len(first)} artifacts byte-identical on replay"
           + (f"; mismatches: {mismatched}" if mismatched else ""))
