"""Command-line pipeline.

Every command reads one JSON config (flags override config keys, which
override defaults), writes its artifacts into the output directory, and
records a manifest with the config hash and content hashes of every
artifact, so a rerun can be checked for byte-identical replay. Each
command loads its input files and calls its stage; ``pipeline`` calls the
same stages on results held in memory; with a second body, a forked
child isolates body A and computes its features while this process
isolates, registers and assesses the second body. Exit codes: 0 success
(including diagnostic non-convergence), 2 input error, 3 contract
violation, 4 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import multiprocessing
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .assessment import error_distribution, sampling_floor, save_heatmap_csv
from .config import config_hash, load_config, set_override, validate_config
from .decimate import decimate
from .errors import ContractError, InputError, MorphometryError
from .fileio import load_mesh, load_surface, load_vertex_mask, save_csv, save_json, save_mesh
from .grid import grid_difference_stats, interpolate_grid, joint_grid_domain
from .isolation import isolate_plate, load_plate, rough_split, save_plate
from .mesh import PointCloud, TriangleMesh, VertexMask
from .morphology import (
    asymmetry_field,
    channel_of_minima,
    contour_lines,
    save_asymmetry,
    save_channel,
    save_contour_lines,
)
from .orientation import orient_to_frame, principal_frame
from .registration import (
    METRICS,
    SimilarityTransform,
    apply_transform,
    estimate_normals,
    pca_initial_transform,
    register,
    register_icp,
)
from .symmetry import CONFIGURATIONS, build_symmetry_frame


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Run:
    """Output directory, manifest bookkeeping and timing for one command."""

    def __init__(self, command, cfg, out=None):
        self.command = command
        self.cfg = cfg
        self.out = Path(cfg["output_dir"] if out is None else out)
        self.out.mkdir(parents=True, exist_ok=True)
        self.outputs = []
        self.timings = {}
        self._t0 = time.perf_counter()

    def path(self, name):
        p = self.out / name
        self.outputs.append(p)
        return p

    def lap(self, label):
        now = time.perf_counter()
        self.timings[label] = round(now - self._t0, 3)
        self._t0 = now

    def finish(self, extra=None):
        manifest = {
            "command": self.command,
            "config": self.cfg,
            "config_hash": config_hash(self.cfg),
            "versions": {
                "violinmorph": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
            "artifacts": {
                str(p.relative_to(self.out)): _sha256(p)
                for p in self.outputs
                if p.exists()
            },
            "timings_s": self.timings,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
        if extra:
            manifest.update(extra)
        save_json(manifest, self.out / f"manifest_{self.command}.json")
        return manifest


def _require(cfg, key, flag):
    value = cfg["inputs"][key]
    if value is None:
        raise InputError(f"missing input {key!r} (config inputs.{key} or {flag})")
    return value


def _load_cloud(path, scale=None):
    return PointCloud(load_mesh(path, scale=scale).vertices)


def _load_masked(path, mesh):
    """The vertex mask at ``path`` (None without one), each index a vertex of ``mesh``."""
    return load_vertex_mask(path, mesh.n_vertices) if path else None


def _mesh_name(stem, cfg):
    """Mesh artifact name with the extension of the configured format."""
    return stem + (".obj" if cfg["mesh_format"] == "obj" else ".ply")


def _load_transform(path):
    """The first row's transform of a registration table (or a bare transform)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        row = doc["rows"][0] if "rows" in doc else doc
        t = row["transform"] if "transform" in row else row
        return SimilarityTransform(t["translation_mm"], t["angles_deg"], t["scale"])
    except (OSError, ValueError, LookupError, TypeError, ContractError) as exc:
        raise InputError(f"cannot read a transform from {path}: {exc}") from exc


def _load_plate_pair(cfg):
    return tuple(
        load_plate(_require(cfg, side, f"--{flag}"),
                   _require(cfg, f"{side}_contour", f"--{flag}-contour"), side=side)
        for side, flag in (("sound_board", "sound-board"), ("back", "back"))
    )


# ---------------------------------------------------------------------------
# stages: plain functions over in-memory inputs. Each writes its artifacts
# and the manifest of ``run``; its first lap covers what the caller did
# between opening ``run`` and calling it (loading files, if any).

def isolate_stage(run, cfg, body_path, scale):
    """Load and orient a body, isolate both plates; returns (sound board, back)."""
    body = load_surface(body_path, scale=scale)
    body = orient_to_frame(body, principal_frame(body.point_cloud()))
    run.lap("load_and_orient")

    knobs = dict(cfg["isolate"])
    margin = knobs.pop("rough_margin")
    sound_hole = _load_masked(cfg["inputs"]["sound_hole_mask"], body)
    plates, results, counters = [], {}, {}
    for side in ("sound_board", "back"):
        rough, rough_ids = rough_split(body, side, margin=margin)
        exclude = None
        if sound_hole is not None:  # rough vertex i is body vertex rough_ids[i]
            exclude = VertexMask(np.flatnonzero(np.isin(rough_ids, sound_hole.as_array())))
        counters[side] = {}
        plate = isolate_plate(rough, side, exclude=exclude, counters=counters[side], **knobs)
        save_plate(
            plate,
            run.path(_mesh_name(side, cfg)),
            run.path(f"{side}_contour.txt"),
            cfg["mesh_format"],
        )
        save_csv(run.path(f"{side}_contour.csv"), plate.contour_points(), header="x,y,z")
        plates.append(plate)
        results[side] = {
            "vertices": plate.mesh.n_vertices,
            "faces": plate.mesh.n_faces,
            "contour_length": len(plate.contour),
        }
        run.lap(side)
    run.finish({"plates": results, "counters": counters})
    return tuple(plates)


def _registrations(s, p, cfg):
    """(label, report) per optimization route."""
    reg = cfg["register"]
    normals = estimate_normals(s, k=reg["normal_k"])
    init = pca_initial_transform(s, p, reg["allow_scale"]) if reg["pca_init"] else None
    common = dict(normals=normals, ftol=reg["ftol"], max_sweeps=reg["max_sweeps"])
    metrics = METRICS if reg["all_metrics"] else (reg["metric"],)
    rows = [(metric, register(s, p, metric=metric, allow_scale=reg["allow_scale"],
                              init=init, **common))
            for metric in metrics]
    if not reg["all_metrics"]:
        return rows

    k_ext = dict(rows)["point_to_plane_sq"].transform.scale
    rigid_init = pca_initial_transform(s, p, allow_scale=False) if reg["pca_init"] else None
    for label, scale in (("icp_external_scaling", k_ext), ("icp_no_scaling", 1.0)):
        rows.append((label, register_icp(s, p, scale=scale, sample_size=reg["icp_sample_size"],
                                         seed=cfg["seed"], normals=normals, init=rigid_init)))
    return rows


def register_stage(run, cfg, s, p):
    """Register cloud ``p`` onto ``s``; returns the first route's report."""
    run.lap("load")
    rows = _registrations(s, p, cfg)
    run.lap("optimize")
    table = {
        "columns_mm": ["D", "sqrt_D2", "sqrt_D2_plane"],
        "rows": [dict(report.as_dict(), label=label) for label, report in rows],
    }
    save_json(table, run.path("registration.json"))
    run.finish({
        "converged": all(report.converged for _, report in rows),
        "counters": {label: {"evaluations": report.evaluations,
                             "tree_points": report.tree_points}
                     for label, report in rows},
    })
    return rows[0][1]


def assess_stage(run, cfg, ref_mesh, p, distances=None):
    """Error distribution of the registered cloud ``p`` against ``ref_mesh``.

    ``distances`` are the NN distances of the pair when registration has
    computed them already; ``p`` is then not queried again.
    """
    run.lap("load")
    dist = error_distribution(PointCloud(ref_mesh.vertices), p,
                              threshold=cfg["assess"]["threshold"],
                              bin_width=cfg["assess"]["bin_width"],
                              distances=distances)
    payload = dist.as_dict()
    payload["sampling_floor_mm"] = sampling_floor(ref_mesh)
    save_json(payload, run.path("assessment.json"))
    save_heatmap_csv(dist, run.path("heatmap.csv"))
    run.lap("distribution")
    run.finish()


def _contour_masks(cfg, sb, back):
    """The sound-board and back contour masks, read once and checked against their plates."""
    return (_load_masked(cfg["inputs"]["contour_mask"], sb.mesh),
            _load_masked(cfg["inputs"]["contour_mask_back"], back.mesh))


def _symmetry_frame(cfg, sb, back, config, masks):
    sym = cfg["symmetry"]
    return build_symmetry_frame(
        sb, back,
        config=config,
        mask=masks[0],
        back_mask=masks[1],
        spacing=sym["grid_spacing"],
        min_nodes=sym["min_nodes"],
    )


def symmetry_stage(run, cfg, sb, back):
    """Fit all three configurations; returns the configured one's frame.

    A configuration that fails is reported in ``symmetry.json``; when the
    configured one fails, its error is raised and nothing is written.
    Without a contour mask the masked configuration fits the points of
    ``two_contours``, so it takes that frame (relabelled) or error.
    """
    run.lap("load")
    masks = _contour_masks(cfg, sb, back)
    frames = {}
    for name in CONFIGURATIONS:
        if name == "two_contours_masked" and not any(m is not None and len(m) for m in masks):
            same = frames["two_contours"]
            frames[name] = (same if isinstance(same, MorphometryError)
                            else dataclasses.replace(same, config=name))
            continue
        try:
            frames[name] = _symmetry_frame(cfg, sb, back, name, masks)
        except MorphometryError as exc:
            frames[name] = exc
    frame = frames[cfg["symmetry"]["config"]]
    if isinstance(frame, MorphometryError):
        raise frame
    payload = frame.as_dict()
    payload["angles_by_configuration_deg"] = {
        name: f"failed: {f}" if isinstance(f, MorphometryError) else f.angle_deg
        for name, f in frames.items()
    }
    save_json(payload, run.path("symmetry.json"))
    run.lap("fit")
    run.finish()
    return frame


def contours_stage(run, cfg, plates):
    """Contour lines of the plates, already in the symmetry frame."""
    run.lap("frame")
    counters = {}
    for plate in plates:
        counters[plate.side] = {}
        lines = contour_lines(plate, counters=counters[plate.side], **cfg["contours"])
        run.outputs += save_contour_lines(lines, run.out, f"contour_lines_{plate.side}")
    run.lap("slice")
    run.finish({"counters": counters})


def asymmetry_stage(run, frame):
    run.lap("frame")
    field = asymmetry_field(frame.sound_board_grid, frame.back_grid, frame.offset)
    run.outputs += save_asymmetry(field, run.out, "asymmetry")
    run.lap("field")
    run.finish()


def channel_stage(run, cfg, plates):
    """Channel of minima of the plates, already in the symmetry frame."""
    run.lap("frame")
    summary, counters = {}, {}
    for plate in plates:
        counters[plate.side] = {}
        trace = channel_of_minima(plate, counters=counters[plate.side], **cfg["channel"])
        save_channel(trace, run.path(f"channel_{plate.side}.csv"))
        summary[plate.side] = {
            "stations_detected": int(len(trace.points)),
            "stations_skipped": trace.stations_skipped,
            "no_channel": trace.no_channel,
        }
    run.lap("trace")
    run.finish({"channel": summary, "counters": counters})


# ---------------------------------------------------------------------------
# commands: load the inputs from files, open the run, call the stage

def cmd_isolate(cfg):
    isolate_stage(Run("isolate", cfg), cfg, _require(cfg, "body", "--body"),
                  cfg["inputs"]["scale"])
    return 0


def cmd_register(cfg):
    run = Run("register", cfg)
    s = _load_cloud(_require(cfg, "reference", "--reference"), cfg["inputs"]["scale"])
    p = _load_cloud(_require(cfg, "moving", "--moving"), cfg["inputs"]["scale_b"])
    register_stage(run, cfg, s, p)
    return 0


def cmd_assess(cfg):
    run = Run("assess", cfg)
    ref_mesh = load_surface(_require(cfg, "reference", "--reference"),
                            scale=cfg["inputs"]["scale"])
    p = _load_cloud(_require(cfg, "moving", "--moving"), cfg["inputs"]["scale_b"])
    transform_path = cfg["inputs"]["transform"]
    if transform_path is not None:
        p = apply_transform(_load_transform(transform_path), p)
    assess_stage(run, cfg, ref_mesh, p)
    return 0


def cmd_simplify(cfg):
    run = Run("simplify", cfg)
    mesh_path = _require(cfg, "reference", "--reference")
    mesh = load_surface(mesh_path, scale=cfg["inputs"]["scale"])
    target = cfg["simplify"]["target_faces"]
    if target is None:
        raise InputError("missing simplify.target_faces (--target-faces)")
    if target > mesh.n_faces:
        raise InputError(f"simplify.target_faces={target} exceeds the {mesh.n_faces} "
                         f"faces of {mesh_path}")
    run.lap("load")
    counters = {}
    simplified = decimate(mesh, int(target), counters=counters)
    run.lap("decimate")
    save_mesh(simplified, run.path(_mesh_name("simplified", cfg)), cfg["mesh_format"])
    spacing = cfg["simplify"]["grid_spacing"]
    origin, shape = joint_grid_domain([mesh, simplified], spacing)
    g0 = interpolate_grid(mesh, spacing, "upper", origin, shape)
    g1 = interpolate_grid(simplified, spacing, "upper", origin, shape)
    stats = grid_difference_stats(g0, g1)
    save_json(
        {
            "input_faces": mesh.n_faces,
            "output_faces": simplified.n_faces,
            "vertical_difference_stats_mm": stats,
            "grid_spacing_mm": spacing,
        },
        run.path("simplify_stats.json"),
    )
    run.lap("grid_stats")
    run.finish({"counters": counters})
    return 0


def cmd_symmetry(cfg):
    symmetry_stage(Run("symmetry", cfg), cfg, *_load_plate_pair(cfg))
    return 0


def _plates_and_frame(cfg):
    """The plate files and the symmetry frame of the configured configuration."""
    sb, back = _load_plate_pair(cfg)
    masks = _contour_masks(cfg, sb, back)
    return (sb, back), _symmetry_frame(cfg, sb, back, cfg["symmetry"]["config"], masks)


def _framed_plates(cfg):
    """The plate files moved into their symmetry frame."""
    plates, frame = _plates_and_frame(cfg)
    return tuple(frame.apply_plate(plate) for plate in plates)


def cmd_contours(cfg):
    contours_stage(Run("contours", cfg), cfg, _framed_plates(cfg))
    return 0


def cmd_asymmetry(cfg):
    asymmetry_stage(Run("asymmetry", cfg), _plates_and_frame(cfg)[1])
    return 0


def cmd_channel(cfg):
    channel_stage(Run("channel", cfg), cfg, _framed_plates(cfg))
    return 0


def _body_b(run, cfg):
    """Isolate body B into ``acquisition_b``; returns its sound-board plate."""
    return isolate_stage(Run("isolate", cfg, run.out / "acquisition_b"), cfg,
                         cfg["inputs"]["body_b"], cfg["inputs"]["scale_b"])[0]


def _validate(cfg, sb, sb_b):
    """Register B's sound board ``sb_b`` onto A's mesh ``sb`` and assess the fit."""
    s, p = PointCloud(sb.vertices), PointCloud(sb_b.mesh.vertices)
    report = register_stage(Run("register", cfg), cfg, s, p)
    assess_stage(Run("assess", cfg), cfg, sb, None, report.distances)


def _features(cfg, plates):
    """Symmetry, contour lines, asymmetry and channel of one body's plates."""
    frame = symmetry_stage(Run("symmetry", cfg), cfg, *plates)
    framed = tuple(frame.apply_plate(plate) for plate in plates)
    contours_stage(Run("contours", cfg), cfg, framed)
    asymmetry_stage(Run("asymmetry", cfg), frame)
    channel_stage(Run("channel", cfg), cfg, framed)


def _status(exc):
    """(exit code, stderr line) that ``main`` reports for ``exc``."""
    if isinstance(exc, InputError):
        return 2, f"error: {exc}"
    if isinstance(exc, MorphometryError):
        return 3, f"error: {exc}"
    return 4, f"internal error: {exc}"


def _reported(work):
    """Run ``work()``; returns the (exit code, stderr line) ``main`` would give its
    outcome: ``_status`` of a failure, (0, "") on success."""
    try:
        work()
    except Exception as exc:
        return _status(exc)
    return 0, ""


def _worker(cfg, body, send):
    """Body A in the forked child: sends its sound-board mesh (or the
    ``_status`` of its isolation's failure), then the features' report."""
    try:
        plates = isolate_stage(Run("isolate", cfg), cfg, body, cfg["inputs"]["scale"])
    except Exception as exc:
        send.send(_status(exc))
        return
    send.send(plates[0].mesh)
    send.send(_reported(functools.partial(_features, cfg, plates)))


def _received(receive):
    """The child's next message; None once it has ended without one."""
    try:
        return receive.recv()
    except EOFError:
        return None


def _side_by_side(run, cfg, body):
    """A's isolation and features in a forked child, B's isolation here, then
    its registration and assessment against the sound board the child hands
    over. The report is the one of running them in sequence: a failure of
    A's isolation wins, then an exception of B's half (raised once the child
    is reaped), then the features' outcome. The child sends meshes and
    reports, never an exception object; one that ends without a report is
    an internal error.
    """
    fork = multiprocessing.get_context("fork")
    receive, send = fork.Pipe(duplex=False)
    child = fork.Process(target=_worker, args=(cfg, body, send))
    with receive:
        with send:  # closed here once the child has its copy: a silent child gives EOF
            child.start()
        try:
            failure = None
            try:
                sb_b = _body_b(run, cfg)
            except Exception as exc:  # raised below unless A's isolation failed too
                failure = exc
            message = _received(receive)  # A's sound board, or the outcome that wins
            if isinstance(message, TriangleMesh):
                if failure is not None:
                    raise failure
                _validate(cfg, message, sb_b)
                message = _received(receive)
        finally:
            child.join()
    return message or (4, f"internal error: the feature worker ended without a report "
                          f"(exit code {child.exitcode})")


def cmd_pipeline(cfg):
    """Every stage on the plates in memory, with one frame per configuration.

    With a second body, the bodies run side by side where ``os.fork``
    exists (``_side_by_side``); otherwise inline: isolate A (and B,
    register, assess), then A's features.
    """
    run = Run("pipeline", cfg)
    body = _require(cfg, "body", "--body")
    paired = cfg["inputs"]["body_b"] is not None
    forked = paired and hasattr(os, "fork")
    if forked:
        code, message = _side_by_side(run, cfg, body)
    else:
        plates = isolate_stage(Run("isolate", cfg), cfg, body, cfg["inputs"]["scale"])
        if paired:
            _validate(cfg, plates[0].mesh, _body_b(run, cfg))
        code, message = _reported(functools.partial(_features, cfg, plates))
    if code:
        print(message, file=sys.stderr)
        return code
    run.finish({"halves": "forked" if forked else "inline"})
    return 0


# ---------------------------------------------------------------------------
# argument parsing

_COMMANDS = {
    "isolate": cmd_isolate,
    "register": cmd_register,
    "assess": cmd_assess,
    "simplify": cmd_simplify,
    "symmetry": cmd_symmetry,
    "contours": cmd_contours,
    "asymmetry": cmd_asymmetry,
    "channel": cmd_channel,
    "pipeline": cmd_pipeline,
}

# (flag, dotted config key, type) — flag > config > default
_FLAG_MAP = [
    ("--out", "output_dir", str),
    ("--seed", "seed", int),
    ("--format", "mesh_format", str),
    ("--body", "inputs.body", str),
    ("--body-b", "inputs.body_b", str),
    ("--reference", "inputs.reference", str),
    ("--moving", "inputs.moving", str),
    ("--transform", "inputs.transform", str),
    ("--sound-board", "inputs.sound_board", str),
    ("--sound-board-contour", "inputs.sound_board_contour", str),
    ("--back", "inputs.back", str),
    ("--back-contour", "inputs.back_contour", str),
    ("--scale", "inputs.scale", float),
    ("--scale-b", "inputs.scale_b", float),
    ("--sound-hole-mask", "inputs.sound_hole_mask", str),
    ("--contour-mask", "inputs.contour_mask", str),
    ("--metric", "register.metric", str),
    ("--spacing", "isolate.spacing", float),
    ("--level-spacing", "contours.spacing", float),
    ("--grid-spacing", "symmetry.grid_spacing", float),
    ("--threshold", "assess.threshold", float),
    ("--target-faces", "simplify.target_faces", int),
    ("--symmetry-config", "symmetry.config", str),
    ("--window", "channel.window_mm", float),
    ("--stations", "channel.stations", int),
]


@functools.cache
def build_parser():
    """The command-line parser, built once per process (argparse parses
    without changing it)."""
    parser = argparse.ArgumentParser(
        prog="violinmorph",
        description="Plate morphometry: isolate, register, assess, and extract "
                    "shape features from instrument meshes.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        for flag, _, typ in _FLAG_MAP:
            p.add_argument(flag, type=typ, default=None)
        p.add_argument("--all-metrics", action="store_true", default=None,
                       help="report the full optimized-by x evaluated-by metric table")
        p.add_argument("--no-scale", action="store_true", default=None,
                       help="freeze the scale factor at its initial value")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        for flag, dotted, _ in _FLAG_MAP:
            value = getattr(args, flag.lstrip("-").replace("-", "_"))
            if value is not None:
                set_override(cfg, dotted, value)
        if args.all_metrics:
            set_override(cfg, "register.all_metrics", True)
        if args.no_scale:
            set_override(cfg, "register.allow_scale", False)
        validate_config(cfg)
        return _COMMANDS[args.command](cfg)
    except Exception as exc:
        code, message = _status(exc)
        print(message, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
