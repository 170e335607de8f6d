import json

import numpy as np
import pytest

from violinmorph.cli import main
from violinmorph.config import config_hash, load_config, set_override
from violinmorph.errors import InputError
from violinmorph.fileio import save_mesh
from violinmorph.isolation import load_plate, save_plate
from violinmorph.mesh import connected_components
from violinmorph.synthetic import disc_plate, instrument_body, mirror_pair


@pytest.fixture(scope="module")
def body_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("body") / "body.ply"
    body, _ = instrument_body(rings=25, sectors=100, rib_rings=6)
    save_mesh(body, path, "ply-binary-le")
    return path


@pytest.fixture(scope="module")
def plate_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("plates")
    sb, back, _ = mirror_pair(radius=35.0, height=8.0, rings=30, sectors=100,
                              plane_z=0.0, gap=3.0, tilt_deg=1.0)
    save_plate(sb, root / "sb.ply", root / "sb_contour.txt")
    save_plate(back, root / "back.ply", root / "back_contour.txt")
    return root


def run(*argv):
    return main(list(argv))


class TestConfig:
    def test_defaults_load(self):
        cfg = load_config(None)
        assert cfg["register"]["metric"] == "point_to_point"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"registre": {}}))
        with pytest.raises(InputError, match="unknown config key"):
            load_config(path)

    def test_range_validation(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"channel": {"stations": 2}}))
        with pytest.raises(InputError, match="range"):
            load_config(path)

    def test_hash_stable_and_sensitive(self):
        a = load_config(None)
        b = load_config(None)
        assert config_hash(a) == config_hash(b)
        set_override(b, "assess.threshold", 3.0)
        assert config_hash(a) != config_hash(b)

    def test_override_unknown_key(self):
        cfg = load_config(None)
        with pytest.raises(InputError):
            set_override(cfg, "assess.thresh", 1.0)


class TestExitCodes:
    def test_missing_input_exits_2(self, tmp_path, capsys):
        rc = run("register", "--out", str(tmp_path))
        assert rc == 2
        assert "reference" in capsys.readouterr().err

    def test_missing_file_exits_2_naming_path(self, tmp_path, capsys):
        rc = run("assess", "--out", str(tmp_path),
                 "--reference", str(tmp_path / "ghost.ply"),
                 "--moving", str(tmp_path / "ghost.ply"))
        assert rc == 2
        assert "ghost.ply" in capsys.readouterr().err

    def test_contract_violation_exits_3(self, tmp_path, capsys):
        # a plate-only mesh cannot yield a back: apex lands in a sliver
        plate = disc_plate(radius=25.0, height=6.0, rings=20, sectors=60)
        mesh_path = tmp_path / "plate.ply"
        save_mesh(plate.mesh, mesh_path, "ply-binary-le")
        rc = run("isolate", "--out", str(tmp_path / "out"),
                 "--body", str(mesh_path))
        assert rc == 3

    @pytest.mark.parametrize("name, text", [
        ("nan.ply", "ply\nformat ascii 1.0\nelement vertex 3\n"
                    "property double x\nproperty double y\nproperty double z\n"
                    "element face 1\nproperty list uchar int vertex_indices\n"
                    "end_header\n0 0 0\n1 nan 0\n0 1 0\n3 0 1 2\n"),
        ("inf.obj", "v 0 0 0\nv 1 0 inf\nv 0 1 0\nf 1 2 3\n"),
    ])
    def test_non_finite_coordinates_exit_2(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_text(text)
        rc = run("simplify", "--out", str(tmp_path / "out"),
                 "--reference", str(path), "--target-faces", "1")
        assert rc == 2
        err = capsys.readouterr().err
        assert "non-finite" in err and name in err

    def test_bad_config_value_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"register": {"metric": "nope"}}))
        rc = run("register", "--config", str(cfg))
        assert rc == 2

    @pytest.mark.parametrize("value", ["abc", True, [5], {"n": 5}])
    def test_non_numeric_config_value_exits_2(self, tmp_path, capsys, value):
        plate = disc_plate(radius=20.0, height=5.0, rings=3, sectors=20)
        mesh_path = tmp_path / "p.ply"
        save_mesh(plate.mesh, mesh_path, "ply-binary-le")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"simplify": {"target_faces": value}}))
        rc = run("simplify", "--config", str(cfg), "--reference", str(mesh_path),
                 "--out", str(tmp_path / "out"))
        assert rc == 2
        assert "simplify.target_faces" in capsys.readouterr().err

    def test_non_utf8_mask_exits_2(self, body_file, tmp_path, capsys):
        mask = tmp_path / "hole.txt"
        mask.write_bytes(b"12\n\xff\xfe3\n")
        rc = run("isolate", "--body", str(body_file), "--sound-hole-mask", str(mask),
                 "--out", str(tmp_path / "out"))
        assert rc == 2
        assert f"bad mask index ({mask}, line 2)" in capsys.readouterr().err


class TestIsolateCommand:
    def test_writes_connected_plates(self, body_file, tmp_path):
        out = tmp_path / "iso"
        rc = run("isolate", "--body", str(body_file), "--out", str(out))
        assert rc == 0
        for side in ("sound_board", "back"):
            plate = load_plate(out / f"{side}.ply", out / f"{side}_contour.txt")
            assert len(connected_components(plate.mesh)) == 1
            assert plate.side == side
        manifest = json.loads((out / "manifest_isolate.json").read_text())
        assert manifest["config_hash"]
        assert "sound_board.ply" in manifest["artifacts"]

    def test_rerun_is_byte_identical(self, body_file, tmp_path):
        out = tmp_path / "iso"
        assert run("isolate", "--body", str(body_file), "--out", str(out)) == 0
        blobs = {p.name: p.read_bytes() for p in out.iterdir()
                 if not p.name.startswith("manifest")}
        assert run("isolate", "--body", str(body_file), "--out", str(out)) == 0
        for p in out.iterdir():
            if not p.name.startswith("manifest"):
                assert p.read_bytes() == blobs[p.name], p.name


class TestRegisterCommand:
    def test_identical_inputs_zero_distance(self, tmp_path):
        plate = disc_plate(radius=30.0, minor=20.0, height=7.0, rings=25,
                           sectors=80)
        mesh_path = tmp_path / "p.ply"
        save_mesh(plate.mesh, mesh_path, "ply-binary-le")
        out = tmp_path / "reg"
        rc = run("register", "--reference", str(mesh_path),
                 "--moving", str(mesh_path), "--out", str(out))
        assert rc == 0
        table = json.loads((out / "registration.json").read_text())
        assert table["rows"][0]["metrics_mm"]["D"] == pytest.approx(0.0, abs=1e-9)

    def test_all_metrics_table_has_five_rows(self, tmp_path):
        plate = disc_plate(radius=30.0, minor=20.0, height=7.0, rings=25,
                           sectors=80, bumps=((8, 5, 2.0, 8.0),))
        mesh_path = tmp_path / "p.ply"
        save_mesh(plate.mesh, mesh_path, "ply-binary-le")
        moved = plate.mesh.transformed(translation=(0.4, -0.2, 0.1))
        moved_path = tmp_path / "q.ply"
        save_mesh(moved, moved_path, "ply-binary-le")
        out = tmp_path / "reg"
        rc = run("register", "--reference", str(mesh_path),
                 "--moving", str(moved_path), "--out", str(out), "--all-metrics")
        assert rc == 0
        table = json.loads((out / "registration.json").read_text())
        labels = [row["label"] for row in table["rows"]]
        assert labels == [
            "point_to_point",
            "point_to_point_sq",
            "point_to_plane_sq",
            "icp_external_scaling",
            "icp_no_scaling",
        ]
        for row in table["rows"]:
            assert set(row["metrics_mm"]) == {"D", "sqrt_D2", "sqrt_D2_plane"}

    def test_no_scale_flag_freezes_k(self, tmp_path):
        plate = disc_plate(radius=30.0, minor=20.0, height=7.0, rings=25,
                           sectors=80)
        mesh_path = tmp_path / "p.ply"
        save_mesh(plate.mesh, mesh_path, "ply-binary-le")
        out = tmp_path / "reg"
        rc = run("register", "--reference", str(mesh_path),
                 "--moving", str(mesh_path), "--out", str(out), "--no-scale")
        assert rc == 0
        table = json.loads((out / "registration.json").read_text())
        assert table["rows"][0]["transform"]["scale"] == 1.0


class TestPipelineCommand:
    def test_two_acquisitions_full_run(self, body_file, tmp_path):
        # second acquisition: same body, rigidly moved and slightly scaled
        from violinmorph.fileio import load_mesh
        from violinmorph.registration import SimilarityTransform

        body = load_mesh(body_file)
        t = SimilarityTransform((2.0, -1.0, 0.5), (1.0, -0.5, 0.8), 1.0)
        moved = body.transformed(rotation=t.rotation_matrix().T)
        moved = moved.transformed(translation=(2.0, -1.0, 0.5), scale=1.0 / 1.02)
        body_b = tmp_path / "body_b.ply"
        save_mesh(moved, body_b, "ply-binary-le")

        out = tmp_path / "full"
        rc = run("pipeline", "--body", str(body_file), "--body-b", str(body_b),
                 "--out", str(out), "--symmetry-config", "two_contours")
        assert rc == 0
        table = json.loads((out / "registration.json").read_text())
        assert table["rows"][0]["converged"]
        # plates of one body against the other: sub-sampling-level distance
        assert table["rows"][0]["metrics_mm"]["D"] < 1.0
        assessment = json.loads((out / "assessment.json").read_text())
        # assess consumed the registration transform: mean matches the table
        assert assessment["mean_mm"] == pytest.approx(
            table["rows"][0]["metrics_mm"]["D"], abs=1e-9)
        assert (out / "acquisition_b" / "sound_board.ply").exists()
        for name in ("manifest_pipeline.json", "channel_sound_board.csv",
                     "asymmetry_stats.json", "heatmap.csv"):
            assert (out / name).exists()


class TestMorphologyCommands:
    def test_symmetry_reports_three_configurations(self, plate_files, tmp_path):
        out = tmp_path / "sym"
        rc = run("symmetry", "--out", str(out),
                 "--sound-board", str(plate_files / "sb.ply"),
                 "--sound-board-contour", str(plate_files / "sb_contour.txt"),
                 "--back", str(plate_files / "back.ply"),
                 "--back-contour", str(plate_files / "back_contour.txt"),
                 "--symmetry-config", "two_contours")
        assert rc == 0
        payload = json.loads((out / "symmetry.json").read_text())
        assert set(payload["angles_by_configuration_deg"]) == {
            "two_meshes", "two_contours", "two_contours_masked"}
        assert payload["tilt_angle_deg"] == pytest.approx(1.0, abs=0.05)

    def test_asymmetry_on_symmetric_fixture_is_zero(self, plate_files, tmp_path):
        out = tmp_path / "asym"
        rc = run("asymmetry", "--out", str(out),
                 "--sound-board", str(plate_files / "sb.ply"),
                 "--sound-board-contour", str(plate_files / "sb_contour.txt"),
                 "--back", str(plate_files / "back.ply"),
                 "--back-contour", str(plate_files / "back_contour.txt"),
                 "--symmetry-config", "two_contours")
        assert rc == 0
        stats = json.loads((out / "asymmetry_stats.json").read_text())
        assert abs(stats["stats_mm"]["max_abs"]) < 1e-6

    def test_flag_overrides_config(self, plate_files, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "inputs": {
                "sound_board": str(plate_files / "sb.ply"),
                "sound_board_contour": str(plate_files / "sb_contour.txt"),
                "back": str(plate_files / "back.ply"),
                "back_contour": str(plate_files / "back_contour.txt"),
            },
            "symmetry": {"config": "two_meshes"},
            "contours": {"spacing": 2.0},
        }))
        out = tmp_path / "lines"
        rc = run("contours", "--config", str(cfg), "--out", str(out),
                 "--level-spacing", "4.0")
        assert rc == 0
        index = json.loads((out / "contour_lines_sound_board_index.json").read_text())
        assert index["spacing_mm"] == 4.0  # flag beat the config's 2.0


@pytest.fixture(scope="module")
def body_b_file(body_file, tmp_path_factory):
    """Second acquisition of ``body_file``: rigidly moved and slightly scaled."""
    from violinmorph.fileio import load_mesh
    from violinmorph.registration import SimilarityTransform

    body = load_mesh(body_file)
    t = SimilarityTransform((2.0, -1.0, 0.5), (1.0, -0.5, 0.8), 1.0)
    moved = body.transformed(rotation=t.rotation_matrix().T)
    moved = moved.transformed(translation=(2.0, -1.0, 0.5), scale=1.0 / 1.02)
    path = tmp_path_factory.mktemp("body_b") / "body_b.ply"
    save_mesh(moved, path, "ply-binary-le")
    return path


COUNTED = ("build_symmetry_frame", "interpolate_grid", "load_mesh")


@pytest.fixture(scope="module")
def counted_pipeline(body_file, body_b_file, tmp_path_factory):
    """One ``pipeline --body-b`` run with calls to COUNTED counted.

    Every violinmorph module that binds one of these names gets a counting
    wrapper, so a call is counted whichever module it goes through. KD-tree
    builds in registration and assessment are counted as ``kdtree``.
    """
    import sys

    from violinmorph import registration

    counts = dict.fromkeys(COUNTED, 0)
    counts["kdtree"] = 0
    out = tmp_path_factory.mktemp("pipeline") / "out"

    class CountingKDTree(registration.cKDTree):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            counts["kdtree"] += 1

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(registration, "cKDTree", CountingKDTree)
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("violinmorph")]
        for mod in modules:
            for name in COUNTED:
                original = getattr(mod, name, None)
                if original is None:
                    continue

                def counting(*args, _fn=original, _name=name, **kwargs):
                    counts[_name] += 1
                    return _fn(*args, **kwargs)

                mp.setattr(mod, name, counting)
        rc = run("pipeline", "--body", str(body_file), "--body-b", str(body_b_file),
                 "--out", str(out))
    assert rc == 0
    return out, counts


def _artifacts(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file() and not p.name.startswith("manifest_")}


class TestInMemoryPipeline:
    def test_each_intermediate_computed_once(self, counted_pipeline):
        _, counts = counted_pipeline
        # one frame per symmetry configuration, two grids per frame, two bodies;
        # trees for the normals, the objective and the final metrics, which
        # assess reuses
        assert counts == {"build_symmetry_frame": 3, "interpolate_grid": 6, "load_mesh": 2,
                          "kdtree": 3}

    def test_artifacts_match_separate_commands(self, counted_pipeline, body_file,
                                               body_b_file, tmp_path):
        out, _ = counted_pipeline
        sep = tmp_path / "sep"
        plates = ("--sound-board", str(out / "sound_board.ply"),
                  "--sound-board-contour", str(out / "sound_board_contour.txt"),
                  "--back", str(out / "back.ply"),
                  "--back-contour", str(out / "back_contour.txt"))
        pair = ("--reference", str(out / "sound_board.ply"),
                "--moving", str(out / "acquisition_b" / "sound_board.ply"))
        to_sep = ("--out", str(sep))
        calls = [
            ("isolate", "--body", str(body_file), *to_sep),
            ("isolate", "--body", str(body_b_file), "--out", str(sep / "acquisition_b")),
            ("register", *pair, *to_sep),
            ("assess", *pair, "--transform", str(sep / "registration.json"), *to_sep),
            *((command, *plates, *to_sep)
              for command in ("symmetry", "contours", "asymmetry", "channel")),
        ]
        for argv in calls:
            assert run(*argv) == 0, argv

        got, want = _artifacts(out), _artifacts(sep)
        assert sorted(got) == sorted(want)
        for name in want:
            assert got[name] == want[name], name
        # every stage still writes its manifest, listing the same artifacts
        for manifest in sep.rglob("manifest_*.json"):
            mine = json.loads((out / manifest.relative_to(sep)).read_text())
            theirs = json.loads(manifest.read_text())
            for key in ("artifacts", "plates", "converged", "channel"):
                assert mine.get(key) == theirs.get(key), (manifest.name, key)
        assert (out / "manifest_pipeline.json").exists()

    def test_obj_format_writes_obj_plates(self, body_file, body_b_file, tmp_path):
        from violinmorph.fileio import load_mesh

        out = tmp_path / "obj"
        rc = run("pipeline", "--body", str(body_file), "--body-b", str(body_b_file),
                 "--out", str(out), "--format", "obj")
        assert rc == 0
        for root in (out, out / "acquisition_b"):
            for side in ("sound_board", "back"):
                assert load_mesh(root / f"{side}.obj").n_faces > 0
        assert not list(out.rglob("*.ply"))

    def test_simplify_obj_writes_obj(self, tmp_path):
        from violinmorph.fileio import load_mesh

        plate = disc_plate(radius=20.0, height=5.0, rings=8, sectors=30)
        mesh_path = tmp_path / "p.ply"
        save_mesh(plate.mesh, mesh_path, "ply-binary-le")
        out = tmp_path / "simp"
        rc = run("simplify", "--reference", str(mesh_path), "--target-faces", "200",
                 "--format", "obj", "--out", str(out))
        assert rc == 0
        assert load_mesh(out / "simplified.obj").n_faces <= 200


class TestStageErrors:
    @pytest.mark.parametrize("name, text", [
        ("missing.json", None),
        ("garbled.json", "{not json"),
        ("empty_rows.json", '{"rows": []}'),
        ("zero_scale.json", '{"translation_mm": [0, 0, 0], "angles_deg": [0, 0, 0], "scale": 0}'),
        ("nan.json", '{"translation_mm": [NaN, 0, 0], "angles_deg": [0, 0, 0], "scale": 1}'),
    ])
    def test_bad_transform_file_exits_2(self, tmp_path, capsys, name, text):
        plate = disc_plate(radius=20.0, height=5.0, rings=8, sectors=30)
        mesh_path = tmp_path / "p.ply"
        save_mesh(plate.mesh, mesh_path, "ply-binary-le")
        transform = tmp_path / name
        if text is not None:
            transform.write_text(text)
        rc = run("assess", "--reference", str(mesh_path), "--moving", str(mesh_path),
                 "--transform", str(transform), "--out", str(tmp_path / "out"))
        assert rc == 2
        assert name in capsys.readouterr().err

    def test_configured_symmetry_failure_exits_3(self, plate_files, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"symmetry": {"min_nodes": 10**9}}))
        out = tmp_path / "sym"
        rc = run("symmetry", "--config", str(cfg), "--out", str(out),
                 "--sound-board", str(plate_files / "sb.ply"),
                 "--sound-board-contour", str(plate_files / "sb_contour.txt"),
                 "--back", str(plate_files / "back.ply"),
                 "--back-contour", str(plate_files / "back_contour.txt"))
        assert rc == 3
        assert not (out / "symmetry.json").exists()

    @pytest.mark.parametrize("command", ["symmetry", "contours", "channel"])
    def test_bad_contour_index_exits_2(self, plate_files, tmp_path, capsys, command):
        contour = tmp_path / "sb_contour.txt"
        lines = (plate_files / "sb_contour.txt").read_text().splitlines()
        index = next(i for i, line in enumerate(lines) if line and not line.startswith("#"))
        lines[index] = "abc"
        contour.write_text("\n".join(lines) + "\n")
        rc = run(command, "--out", str(tmp_path / "out"),
                 "--sound-board", str(plate_files / "sb.ply"),
                 "--sound-board-contour", str(contour),
                 "--back", str(plate_files / "back.ply"),
                 "--back-contour", str(plate_files / "back_contour.txt"))
        assert rc == 2
        assert f"bad contour index ({contour}, line {index + 1})" in capsys.readouterr().err

    def test_missing_contour_file_exits_2(self, plate_files, tmp_path, capsys):
        rc = run("symmetry", "--out", str(tmp_path / "out"),
                 "--sound-board", str(plate_files / "sb.ply"),
                 "--sound-board-contour", str(tmp_path / "ghost.txt"),
                 "--back", str(plate_files / "back.ply"),
                 "--back-contour", str(plate_files / "back_contour.txt"))
        assert rc == 2
        assert "ghost.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["0", "-3", "101"])
    def test_bad_target_faces_exits_2(self, tmp_path, capsys, target):
        plate = disc_plate(radius=20.0, height=5.0, rings=3, sectors=20)
        assert plate.mesh.n_faces == 100
        mesh_path = tmp_path / "p.ply"
        save_mesh(plate.mesh, mesh_path, "ply-binary-le")
        rc = run("simplify", "--reference", str(mesh_path), "--target-faces", target,
                 "--out", str(tmp_path / "out"))
        assert rc == 2
        assert "target_faces" in capsys.readouterr().err
