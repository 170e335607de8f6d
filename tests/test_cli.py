import json
import os
from unittest import mock

import numpy as np
import pytest

from violinmorph import cli, fileio
from violinmorph.cli import main
from violinmorph.config import config_hash, load_config, set_override
from violinmorph.errors import ContractError, InputError
from violinmorph.fileio import load_mesh, save_mesh, save_vertex_mask
from violinmorph.isolation import load_plate, save_plate
from violinmorph.mesh import VertexMask, connected_components
from violinmorph.synthetic import disc_plate, instrument_body, mirror_pair

from conftest import write_without_faces
from oracles import read_ply_body_loop


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

    @pytest.mark.parametrize("third", [2.7, float("nan")])
    def test_non_integer_face_indices_exit_2(self, tmp_path, capsys, third):
        path = tmp_path / "faces.ply"
        header = ("ply\nformat binary_little_endian 1.0\nelement vertex 3\n"
                  "property double x\nproperty double y\nproperty double z\n"
                  "element face 1\nproperty list uchar double vertex_indices\nend_header\n")
        xyz = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], "<f8")
        path.write_bytes(header.encode() + xyz.tobytes()
                         + b"\x03" + np.array([0, 1, third], "<f8").tobytes())
        rc = run("simplify", "--out", str(tmp_path / "out"),
                 "--reference", str(path), "--target-faces", "1")
        assert rc == 2
        assert f"face indices of non-integer type 'double' ({path}, line 8)" in \
            capsys.readouterr().err

    def test_vertex_list_property_exits_2(self, tmp_path, capsys):
        path = tmp_path / "listed.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 3\n"
                        "property list uchar float extra\nproperty double x\n"
                        "property double y\nproperty double z\nelement face 1\n"
                        "property list uchar int vertex_indices\nend_header\n"
                        "1 9 0 0 0\n1 9 1 0 0\n1 9 0 1 0\n3 0 1 2\n")
        rc = run("simplify", "--out", str(tmp_path / "out"),
                 "--reference", str(path), "--target-faces", "1")
        assert rc == 2
        assert f"on the vertex element ({path}, line 4)" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command, section, key, value", [
        ("pipeline", "assess", "bin_width", 0),
        ("pipeline", "isolate", "tie_tol", "abc"),
        ("pipeline", "isolate", "rough_margin", "abc"),
        ("pipeline", "isolate", "rough_margin", 0.9),
        ("pipeline", "register", "normal_k", "x"),
        ("pipeline", "register", "normal_k", 4.5),
        ("pipeline", "contours", "max_range", "x"),
        ("pipeline", "channel", "smoothing_rms_mm", -1.0),
        ("pipeline", "isolate", "keep_interval", 5),
        ("pipeline", "isolate", "keep_interval", [3.0, "x"]),
        ("pipeline", "isolate", "keep_interval", [5.0, 1.0]),
        ("pipeline", "register", "pca_init", "false"),
        ("pipeline", "register", "allow_scale", 1),
        ("pipeline", "register", "all_metrics", None),
        ("simplify", "simplify", "grid_spacing", 0),
        ("pipeline", None, "mesh_format", "xyz"),
        ("pipeline", "isolate", None, 5),
        ("pipeline", None, "seed", "x"),
        ("pipeline", None, "seed", -1),
        ("pipeline", "inputs", "scale", "x"),
        ("pipeline", "inputs", "sound_hole_mask", 7),
        ("pipeline", None, "output_dir", 5),
    ])
    def test_bad_config_key_exits_2_before_any_work(self, body_file, tmp_path, capsys,
                                                    command, section, key, value):
        cfg = tmp_path / "cfg.json"
        doc = {key: value} if section is None else {section: value if key is None
                                                    else {key: value}}
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = run(command, "--config", str(cfg), "--body", str(body_file),
                 "--reference", str(body_file), "--target-faces", "10", "--out", str(out))
        assert rc == 2
        assert ".".join(k for k in (section, key) if k) in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_format_flag_exits_2_before_isolation(self, body_file, tmp_path, capsys):
        out = tmp_path / "out"
        rc = run("pipeline", "--body", str(body_file), "--format", "xyz", "--out", str(out))
        assert rc == 2
        assert "unknown mesh_format 'xyz'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["99999999", "-3"])
    def test_sound_hole_mask_index_outside_the_body_exits_2(self, body_file, tmp_path,
                                                             capsys, value):
        mask = tmp_path / "hole.txt"
        mask.write_text(f"# hole\n12\n{value}\n")
        out = tmp_path / "out"
        rc = run("isolate", "--body", str(body_file), "--sound-hole-mask", str(mask),
                 "--out", str(out))
        assert rc == 2
        err = capsys.readouterr().err
        assert f"mask index {value} outside the mesh's" in err and f"({mask}, line 3)" in err
        assert not list(out.rglob("*"))

    def test_non_utf8_mask_exits_2(self, body_file, tmp_path, capsys):
        mask = tmp_path / "hole.txt"
        mask.write_bytes(b"12\n\xff\xfe3\n")
        rc = run("isolate", "--body", str(body_file), "--sound-hole-mask", str(mask),
                 "--out", str(tmp_path / "out"))
        assert rc == 2
        assert f"bad mask index ({mask}, line 2)" in capsys.readouterr().err


class TestParser:
    """``main`` parses with one parser per process, which must act as a fresh one."""

    @staticmethod
    def outcomes(capsys, argvs):
        got = []
        for argv in argvs:
            try:
                rc = main(list(argv))
            except SystemExit as exc:
                rc = ("exit", exc.code)
            out = capsys.readouterr()
            got.append((rc, out.out, out.err))
        return got

    def test_cached_parser_acts_as_fresh_ones(self, tmp_path, capsys, monkeypatch):
        argvs = [
            ("register", "--out", str(tmp_path / "a")),
            ("isolate", "--body", str(tmp_path / "ghost.ply"), "--out", str(tmp_path / "b")),
            ("channel", "--bogus", "1"),
            ("--version",),
            ("simplify", "--target-faces", "many"),
            ("register", "--all-metrics", "--out", str(tmp_path / "a")),
            ("register", "--out", str(tmp_path / "a")),
            (),
        ]
        assert cli.build_parser() is cli.build_parser()
        cached = self.outcomes(capsys, argvs)
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = self.outcomes(capsys, argvs)
        assert cached == fresh
        assert [rc for rc, _, _ in cached] == [2, 2, ("exit", 2), ("exit", 0), ("exit", 2),
                                               2, 2, ("exit", 2)]
        assert cached[3][1].strip() == cli.__version__
        assert "unrecognized arguments: --bogus" in cached[2][2]

    def test_parses_leave_no_state(self):
        parser = cli.build_parser()
        argvs = [["register", "--all-metrics", "--seed", "3", "--no-scale"],
                 ["isolate", "--spacing", "0.5"], ["register"], ["channel", "--window", "9"]]
        for argv in argvs + argvs[::-1]:
            assert vars(parser.parse_args(argv)) == \
                vars(cli.build_parser.__wrapped__().parse_args(argv))


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


    def test_sound_hole_mask_cuts_a_hole_in_one_plate(self, body_file, tmp_path,
                                                      monkeypatch):
        # interior of the sound-board disc (instrument_body(rings=25, sectors=100)):
        # rings 8-11, sectors 20-29, far from the rim
        hole = [1 + i * 100 + j for i in range(8, 12) for j in range(20, 30)]
        mask = tmp_path / "hole.txt"
        save_vertex_mask(VertexMask(hole), mask)
        splits, calls = [], []
        real_split, real_isolate = cli.rough_split, cli.isolate_plate

        def split(*args, **kwargs):
            splits.append(real_split(*args, **kwargs))
            return splits[-1]

        def isolate(rough, side, **knobs):
            calls.append((rough, side, knobs))
            return real_isolate(rough, side, **knobs)

        monkeypatch.setattr(cli, "rough_split", split)
        monkeypatch.setattr(cli, "isolate_plate", isolate)
        out = tmp_path / "iso"
        assert run("isolate", "--body", str(body_file), "--sound-hole-mask", str(mask),
                   "--out", str(out)) == 0
        assert sorted(len(knobs["exclude"]) for _, _, knobs in calls) == [0, len(hole)]
        for (_, rough_ids), (rough, side, knobs) in zip(splits, calls):
            inv = {int(v): i for i, v in enumerate(rough_ids)}  # the remap as a dict
            exclude = VertexMask([inv[i] for i in hole if i in inv])
            assert knobs["exclude"] == exclude
            plate = real_isolate(rough, side, **dict(knobs, exclude=exclude))
            assert not np.isin(rough_ids[plate.orig_vertex_ids], hole).any()
            save_plate(plate, tmp_path / "dict.ply", tmp_path / "dict_contour.txt")
            assert (out / f"{side}.ply").read_bytes() == (tmp_path / "dict.ply").read_bytes()
            assert ((out / f"{side}_contour.txt").read_bytes()
                    == (tmp_path / "dict_contour.txt").read_bytes())
            written = load_plate(out / f"{side}.ply", out / f"{side}_contour.txt")
            assert len(connected_components(written.mesh)) == 1


class TestPlyInputs:
    @pytest.mark.parametrize("vertex_extra, face_extra, body, line, message", [
        ("property uchar red\n", "", "0 0 0 1\n1 0 0\n0 1 0 1\n3 0 1 2\n", 12,
         "vertex record shorter"),
        ("", "", "0 0 0\n1 0 0 7\n0 1 0\n3 0 1 2\n", 11, "vertex record longer"),
        ("", "property float quality\n", "0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", 14,
         "face record shorter"),
        ("", "", "0 0 0\n1 0 0\n0 1 0\n3 0 1 2 9\n", 13, "face record longer"),
    ])
    def test_ascii_record_off_its_header_exits_2_naming_the_line(
            self, tmp_path, capsys, vertex_extra, face_extra, body, line, message):
        path = tmp_path / "off.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 3\nproperty double x\n"
                        f"property double y\nproperty double z\n{vertex_extra}element face 1\n"
                        f"property list uchar int vertex_indices\n{face_extra}end_header\n"
                        + body)
        with mock.patch.object(fileio, "_read_ply_body", read_ply_body_loop):
            assert load_mesh(path).n_faces == 1  # the line-by-line reader took it
        out = tmp_path / "out"
        assert run("simplify", "--reference", str(path), "--target-faces", "1",
                   "--out", str(out)) == 2
        assert (f"{message} than its header declares ({path}, line {line})"
                in capsys.readouterr().err)
        assert not list(out.rglob("*"))

    def test_simplify_reads_the_face_list_after_a_scalar(self, tmp_path):
        path = tmp_path / "flags.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 4\nproperty double x\n"
                        "property double y\nproperty double z\nelement face 2\n"
                        "property uchar flags\nproperty list uchar int vertex_indices\n"
                        "end_header\n0 0 0\n1 0 0\n1 1 0.5\n0 1 0\n3 3 0 1 2\n3 3 0 2 3\n")
        out = tmp_path / "out"
        assert run("simplify", "--reference", str(path), "--target-faces", "2",
                   "--out", str(out)) == 0
        assert load_mesh(out / "simplified.ply").faces.tolist() == [[0, 1, 2], [0, 2, 3]]

    @pytest.mark.parametrize("fmt", ["ply-ascii", "ply-binary-le"])
    def test_register_takes_a_vertex_only_cloud(self, tmp_path, fmt):
        plate = disc_plate(radius=30.0, minor=20.0, height=7.0, rings=20, sectors=60,
                           bumps=((8, 5, 2.0, 8.0),))
        reference, moving = tmp_path / "s.ply", tmp_path / "p.ply"
        save_mesh(plate.mesh, reference, fmt)
        save_mesh(plate.mesh.transformed(translation=(0.4, -0.2, 0.1)), moving, fmt)
        cloud = tmp_path / "cloud.ply"
        write_without_faces(moving, cloud, plate.mesh.n_vertices)
        tables = []
        for p in (moving, cloud):
            out = tmp_path / p.stem
            assert run("register", "--reference", str(reference), "--moving", str(p),
                       "--out", str(out)) == 0
            tables.append((out / "registration.json").read_bytes())
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("suffix", [".ply", ".obj"])
    @pytest.mark.parametrize("command", ["isolate", "assess", "simplify", "symmetry",
                                         "contours", "asymmetry", "channel"])
    def test_surface_commands_reject_a_vertex_only_mesh(self, body_file, plate_files,
                                                         tmp_path, capsys, command, suffix):
        cloud = tmp_path / f"cloud{suffix}"
        full = body_file if command == "isolate" else plate_files / "sb.ply"
        if suffix == ".ply":
            write_without_faces(full, cloud, load_mesh(full).n_vertices)
        else:
            np.savetxt(cloud, load_mesh(full).vertices, fmt="v %.17g %.17g %.17g")
        args = {
            "isolate": ["--body", cloud],
            "assess": ["--reference", cloud, "--moving", full],
            "simplify": ["--reference", cloud, "--target-faces", "10"],
        }.get(command, ["--sound-board", cloud,
                        "--sound-board-contour", plate_files / "sb_contour.txt",
                        "--back", plate_files / "back.ply",
                        "--back-contour", plate_files / "back_contour.txt"])
        rc = run(command, *map(str, args), "--out", str(tmp_path / "out"))
        assert rc == 2
        assert f"mesh has no faces, a surface is needed: {cloud}" in capsys.readouterr().err


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

    @pytest.mark.parametrize("masked", [None, "contour_mask", "contour_mask_back"])
    def test_masked_configuration_fitted_only_with_a_mask(self, plate_files, tmp_path, masked):
        # without a mask the masked configuration fits the two contours'
        # points, so it takes their frame; a mask of either plate is a third fit
        inputs = {}
        if masked:
            side = "sb" if masked == "contour_mask" else "back"
            lines = (plate_files / f"{side}_contour.txt").read_text().splitlines()
            ids = [line.split("#")[0].strip() for line in lines if not line.startswith("#")]
            mask = tmp_path / "rim.txt"
            mask.write_text("\n".join(ids[:10]) + "\n")
            inputs[masked] = str(mask)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"inputs": inputs}))
        out = tmp_path / "sym"
        with mock.patch.object(cli, "build_symmetry_frame", wraps=cli.build_symmetry_frame) as fit:
            rc = run("symmetry", "--config", str(cfg), "--out", str(out),
                     "--sound-board", str(plate_files / "sb.ply"),
                     "--sound-board-contour", str(plate_files / "sb_contour.txt"),
                     "--back", str(plate_files / "back.ply"),
                     "--back-contour", str(plate_files / "back_contour.txt"))
        assert rc == 0
        fitted = [call.kwargs["config"] for call in fit.call_args_list]
        assert fitted == ["two_meshes", "two_contours"] + ["two_contours_masked"] * bool(masked)
        payload = json.loads((out / "symmetry.json").read_text())
        angles = payload["angles_by_configuration_deg"]
        assert payload["config"] == "two_contours_masked"
        # the fixture's rims are planar, so a mask leaves the angle as it is
        assert payload["tilt_angle_deg"] == angles["two_contours_masked"] == angles["two_contours"]

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
    builds in registration and assessment are counted as ``kdtree``. The
    features run in a forked worker, so each call appends its name as one
    line to a count file opened with ``O_APPEND``, read after the run.
    """
    import sys
    from collections import Counter

    from violinmorph import registration

    root = tmp_path_factory.mktemp("pipeline")
    out, count_file = root / "out", root / "counts.txt"

    def count(name):
        fd = os.open(count_file, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{name}\n".encode())
        finally:
            os.close(fd)

    class CountingKDTree(registration.cKDTree):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            count("kdtree")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(registration, "cKDTree", CountingKDTree)
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("violinmorph")]
        for mod in modules:
            for name in COUNTED:
                original = getattr(mod, name, None)
                if original is None:
                    continue

                def counting(*args, _fn=original, _name=name, **kwargs):
                    count(_name)
                    return _fn(*args, **kwargs)

                mp.setattr(mod, name, counting)
        rc = run("pipeline", "--body", str(body_file), "--body-b", str(body_b_file),
                 "--out", str(out))
    assert rc == 0
    counts = dict.fromkeys(COUNTED + ("kdtree",), 0)
    counts.update(Counter(count_file.read_text().splitlines()))
    return out, counts


def _artifacts(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file() and not p.name.startswith("manifest_")}


class TestInMemoryPipeline:
    def test_each_intermediate_computed_once(self, counted_pipeline):
        _, counts = counted_pipeline
        # one frame per symmetry point set (without a mask the masked
        # configuration reuses the two contours' frame), two grids per frame,
        # two bodies; trees for the normals, the objective and the final
        # metrics, which assess reuses
        assert counts == {"build_symmetry_frame": 2, "interpolate_grid": 4, "load_mesh": 2,
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
            for key in ("artifacts", "plates", "converged", "counters", "channel"):
                assert mine.get(key) == theirs.get(key), (manifest.name, key)
        # the section counters, per side, in pipeline's manifests as in the commands'
        keys = {"isolate": {"planes", "pairs_visited"}, "contours": {"planes", "pairs_visited"},
                "channel": {"stations_cut", "pairs_visited", "full_cut_stations"}}
        for root in (out, out / "acquisition_b"):
            for command in keys if root == out else ["isolate"]:
                counters = json.loads((root / f"manifest_{command}.json").read_text())["counters"]
                assert sorted(counters) == ["back", "sound_board"]
                for side in counters.values():
                    assert set(side) == keys[command]
                    assert side["pairs_visited"] > 0
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

    def test_simplify_manifest_records_decimation_counters(self, tmp_path):
        plate = disc_plate(radius=20.0, height=5.0, rings=8, sectors=30)
        mesh_path = tmp_path / "p.ply"
        save_mesh(plate.mesh, mesh_path, "ply-binary-le")
        out = tmp_path / "simp"
        assert run("simplify", "--reference", str(mesh_path), "--target-faces", "200",
                   "--out", str(out)) == 0
        counters = json.loads((out / "manifest_simplify.json").read_text())["counters"]
        assert sorted(counters) == ["collapses", "flip", "flushes", "link", "not_an_edge",
                                    "pops", "stale", "undone"]
        # each collapse removes one vertex
        simplified = load_mesh(out / "simplified.ply")
        assert counters["collapses"] == plate.mesh.n_vertices - simplified.n_vertices
        assert 1 <= counters["flushes"] <= counters["collapses"]


class TestFeatureWorker:
    """``pipeline --body-b`` isolates A and computes its features in a forked
    child while it isolates B, then registers and assesses B against the
    sound board the child hands over; the outcome matches running the two
    halves in sequence."""

    def pipeline(self, monkeypatch, capfd, body_file, body_b, out, forked):
        forks = []
        real_fork = os.fork
        with monkeypatch.context() as mp:
            if forked:
                mp.setattr(os, "fork", lambda: forks.append(1) or real_fork())
            else:
                mp.delattr(os, "fork")
            rc = run("pipeline", "--body", str(body_file), "--body-b", str(body_b),
                     "--out", str(out))
        assert forks == ([1] if forked else [])
        with pytest.raises(ChildProcessError):  # no child outlives the command
            os.waitpid(-1, os.WNOHANG)
        return rc, capfd.readouterr().err

    def test_forked_and_inline_write_the_same_bytes(self, monkeypatch, capfd, body_file,
                                                    body_b_file, tmp_path):
        forked_out, inline_out = tmp_path / "forked", tmp_path / "inline"
        for out, forked in ((forked_out, True), (inline_out, False)):
            rc, _ = self.pipeline(monkeypatch, capfd, body_file, body_b_file, out, forked)
            assert rc == 0
            halves = json.loads((out / "manifest_pipeline.json").read_text())["halves"]
            assert halves == ("forked" if forked else "inline")
        forked, inline = _artifacts(forked_out), _artifacts(inline_out)
        assert sorted(forked) == sorted(inline) and "channel_back.csv" in forked
        for name in inline:
            assert forked[name] == inline[name], name
        for manifest in inline_out.rglob("manifest_*.json"):
            mine = json.loads((forked_out / manifest.relative_to(inline_out)).read_text())
            assert mine["artifacts"] == json.loads(manifest.read_text())["artifacts"]

    @pytest.mark.parametrize("exc, code, line", [
        (InputError("no channel here"), 2, "error: no channel here"),
        (ContractError("channel contract broken"), 3, "error: channel contract broken"),
        (ValueError("bad value"), 4, "internal error: bad value"),
    ])
    def test_worker_failure_reported_as_in_sequence(self, monkeypatch, capfd, body_file,
                                                    body_b_file, tmp_path, exc, code, line):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "channel_of_minima", fail)
        results = {forked: self.pipeline(monkeypatch, capfd, body_file, body_b_file,
                                         tmp_path / f"forked{forked}", forked)
                   for forked in (True, False)}
        assert results[True] == results[False]
        assert results[True][0] == code
        assert results[True][1].splitlines()[-1] == line
        for forked in (True, False):
            out = tmp_path / f"forked{forked}"
            assert (out / "symmetry.json").exists() and (out / "assessment.json").exists()
            assert not (out / "manifest_pipeline.json").exists()
        assert _artifacts(tmp_path / "forkedTrue") == _artifacts(tmp_path / "forkedFalse")

    def test_worker_ending_without_a_report_exits_4(self, monkeypatch, capfd, body_file,
                                                     body_b_file, tmp_path):
        def die(*args, **kwargs):
            os._exit(9)

        monkeypatch.setattr(cli, "channel_of_minima", die)
        out = tmp_path / "out"
        rc, err = self.pipeline(monkeypatch, capfd, body_file, body_b_file, out, True)
        assert rc == 4
        assert err.splitlines()[-1] == ("internal error: the feature worker ended "
                                        "without a report (exit code 9)")
        assert (out / "assessment.json").exists()
        assert not (out / "manifest_pipeline.json").exists()

    def test_second_acquisition_error_wins_when_both_fail(self, monkeypatch, capfd,
                                                          body_file, tmp_path):
        def fail(*args, **kwargs):
            raise ContractError("channel contract broken")

        monkeypatch.setattr(cli, "channel_of_minima", fail)
        ghost = tmp_path / "ghost.ply"
        for forked in (True, False):
            rc, err = self.pipeline(monkeypatch, capfd, body_file, ghost,
                                    tmp_path / f"forked{forked}", forked)
            assert rc == 2
            assert "ghost.ply" in err and "channel contract broken" not in err
        # the features ran beside the failed validation; in sequence they never start
        assert (tmp_path / "forkedTrue" / "asymmetry_stats.json").exists()
        assert not (tmp_path / "forkedFalse" / "asymmetry_stats.json").exists()

    @pytest.mark.parametrize("b_exists", [True, False])
    def test_body_a_isolation_error_wins(self, monkeypatch, capfd, body_b_file, tmp_path,
                                         b_exists):
        ghost = tmp_path / "ghost_a.ply"
        body_b = body_b_file if b_exists else tmp_path / "ghost_b.ply"
        results = {forked: self.pipeline(monkeypatch, capfd, ghost, body_b,
                                         tmp_path / f"forked{forked}", forked)
                   for forked in (True, False)}
        assert results[True] == results[False]
        rc, err = results[True]
        assert rc == 2
        assert "ghost_a.ply" in err and "ghost_b.ply" not in err
        for forked in (True, False):  # neither registers nor assesses
            out = tmp_path / f"forked{forked}"
            assert not (out / "registration.json").exists()
            assert not (out / "assessment.json").exists()

    def test_body_a_isolation_ending_without_a_hand_off_exits_4(self, monkeypatch, capfd,
                                                                 body_file, body_b_file,
                                                                 tmp_path):
        real = cli.load_surface

        def die_on_a(path, scale=None):
            if str(path) == str(body_file):
                os._exit(9)
            return real(path, scale=scale)

        monkeypatch.setattr(cli, "load_surface", die_on_a)
        out = tmp_path / "out"
        rc, err = self.pipeline(monkeypatch, capfd, body_file, body_b_file, out, True)
        assert rc == 4
        assert err.splitlines()[-1] == ("internal error: the feature worker ended "
                                        "without a report (exit code 9)")
        assert not (out / "registration.json").exists()
        assert not (out / "manifest_pipeline.json").exists()


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

    @pytest.mark.parametrize("value", ["99999", "-1"])
    def test_contour_index_outside_mesh_exits_2(self, plate_files, tmp_path, capsys, value):
        contour = tmp_path / "sb_contour.txt"
        lines = (plate_files / "sb_contour.txt").read_text().splitlines()
        index = next(i for i, line in enumerate(lines) if line and not line.startswith("#"))
        lines[index] = f"{value}  # anchor"
        contour.write_text("\n".join(lines) + "\n")
        rc = run("symmetry", "--out", str(tmp_path / "out"),
                 "--sound-board", str(plate_files / "sb.ply"),
                 "--sound-board-contour", str(contour),
                 "--back", str(plate_files / "back.ply"),
                 "--back-contour", str(plate_files / "back_contour.txt"))
        assert rc == 2
        err = capsys.readouterr().err
        assert f"contour index {value} outside the mesh's" in err
        assert f"({contour}, line {index + 1})" in err

    @pytest.mark.parametrize("config", ["two_contours_masked", "two_meshes"])
    @pytest.mark.parametrize("value", ["99999", "-1"])
    def test_contour_mask_index_outside_the_plate_exits_2(self, plate_files, tmp_path,
                                                           capsys, config, value):
        mask = tmp_path / "rim.txt"
        mask.write_text(f"5\n{value}\n")
        out = tmp_path / "out"
        rc = run("symmetry", "--out", str(out), "--symmetry-config", config,
                 "--sound-board", str(plate_files / "sb.ply"),
                 "--sound-board-contour", str(plate_files / "sb_contour.txt"),
                 "--back", str(plate_files / "back.ply"),
                 "--back-contour", str(plate_files / "back_contour.txt"),
                 "--contour-mask", str(mask))
        assert rc == 2
        err = capsys.readouterr().err
        assert f"mask index {value} outside the mesh's" in err and f"({mask}, line 2)" in err
        assert not list(out.rglob("*"))

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
