"""The three benchmark workloads: the argv of each op and its output checks.

Every op is one or two ``violinmorph.cli.main(argv)`` calls with the argv
a user would type. Checks compare outputs with the closed-form truth the
set-up step wrote to ``truth.json``. An op whose check fails is counted
as failed; ``expected_fail`` marks the ops that exercise a known defect
(register_pairs' yawed pairs: ROADMAP item 2's PCA sign ambiguity), so
their failure is counted but does not mark the run incorrect.
"""

from __future__ import annotations

import json

import numpy as np

# c01's recovery bounds
ANGLE_TOL_DEG = 0.1
TRANSLATION_TOL_MM = 0.1
SCALE_TOL = 0.002


def _load(path):
    with open(path) as fh:
        return json.load(fh)


class Workload:
    """Ops run in rounds of ``round_size``; a run measures whole rounds."""

    name = None
    round_size = 1

    def __init__(self, truth):
        pass

    def argvs(self, index, out):
        """The CLI calls of op ``index``, writing into directory ``out``."""
        raise NotImplementedError

    def expected_fail(self, index):
        return False

    def check(self, index, out):
        """Return (problems, quality figures) for op ``index``'s outputs."""
        raise NotImplementedError

    def check_round(self, ops):
        """Checks across the ops of one round; appends to their problems."""


class PipelinePair(Workload):
    """``pipeline --body A --body-b B``: isolate both bodies, register,
    assess, then symmetry, contours, asymmetry and channel on A's plates."""

    name = "pipeline_pair"

    def __init__(self, truth):
        self.pairs = len(truth["transforms_b"])

    def argvs(self, index, out):
        return [["pipeline", "--body", "A.ply", "--body-b", f"B{index % self.pairs}.ply",
                 "--out", out]]

    def check(self, index, out):
        problems = []
        sym = _load(out / "symmetry.json")
        for config, tilt in sym["angles_by_configuration_deg"].items():
            if not isinstance(tilt, float) or abs(tilt) >= 0.01:
                problems.append(f"symmetry {config}: tilt {tilt!r} deg (want < 0.01)")
        if abs(sym["z_offset_mm"]) >= 1e-6:
            problems.append(f"symmetry z offset {sym['z_offset_mm']!r} mm (want < 1e-6)")
        max_abs = _load(out / "asymmetry_stats.json")["stats_mm"]["max_abs"]
        if max_abs >= 1e-9:
            problems.append(f"asymmetry max_abs {max_abs!r} mm (want < 1e-9)")
        channel = _load(out / "manifest_channel.json")["channel"]
        for side, summary in channel.items():
            if not summary["no_channel"]:
                problems.append(f"channel: {side} not flagged no_channel")
        row = _load(out / "registration.json")["rows"][0]
        floor = _load(out / "assessment.json")["sampling_floor_mm"]
        d = row["metrics_mm"]["D"]
        if not row["converged"]:
            problems.append("registration did not converge")
        if not d < floor:
            problems.append(f"registration D {d!r} mm not below floor {floor!r} mm")
        return problems, {"error_over_floor": d / floor, "reg_D_over_floor": d / floor}


class RegisterPairs(Workload):
    """``register --all-metrics`` then ``assess --transform`` on one pair."""

    name = "register_pairs"
    round_size = 4  # one yawed pair in every four (inputs.YAW_EVERY)

    def __init__(self, truth):
        self.pairs = truth["pairs"]

    def _pair(self, index):
        return self.pairs[index % len(self.pairs)]

    def argvs(self, index, out):
        moving = self._pair(index)["moving"]
        return [
            ["register", "--reference", "R.ply", "--moving", moving,
             "--all-metrics", "--out", out],
            ["assess", "--reference", "R.ply", "--moving", moving,
             "--transform", f"{out}/registration.json", "--out", out],
        ]

    def expected_fail(self, index):
        return self._pair(index)["yawed"]

    def check(self, index, out):
        truth = self._pair(index)["transform"]
        rows = _load(out / "registration.json")["rows"]
        assessment = _load(out / "assessment.json")
        problems = []
        if len(rows) != 5:
            problems.append(f"{len(rows)} registration rows (want 5)")
        for row in rows:
            if row["label"] == "icp_no_scaling":
                continue
            t = row["transform"]
            dangle = (np.asarray(t["angles_deg"]) - truth["angles_deg"] + 180.0) % 360.0 - 180.0
            dx = np.asarray(t["translation_mm"]) - truth["translation_mm"]
            dk = t["scale"] - truth["scale"]
            if (np.abs(dangle).max() >= ANGLE_TOL_DEG
                    or np.abs(dx).max() >= TRANSLATION_TOL_MM or abs(dk) >= SCALE_TOL):
                problems.append(
                    f"{row['label']}: off by {np.abs(dangle).max():.4g} deg, "
                    f"{np.abs(dx).max():.4g} mm, scale {abs(dk):.4g}")
        d = rows[0]["metrics_mm"]["D"]
        if abs(assessment["mean_mm"] - d) > 1e-9:
            problems.append(f"assessment mean {assessment['mean_mm']!r} != D {d!r}")
        ratio = d / assessment["sampling_floor_mm"]
        return problems, {"error_over_floor": ratio, "reg_D_over_floor": ratio}


class SimplifyPlate(Workload):
    """``simplify --target-faces T``, T alternating 40 % and 10 % of the faces."""

    name = "simplify_plate"
    round_size = 2  # the 40 % target, then the 10 % target

    def __init__(self, truth):
        self.targets = truth["targets"]
        self.floor = truth["sampling_floor_mm"]

    def target(self, index):
        return self.targets[index % 2]

    def argvs(self, index, out):
        return [["simplify", "--reference", "P.ply", "--target-faces",
                 str(self.target(index)), "--out", out]]

    def check(self, index, out):
        stats = _load(out / "simplify_stats.json")
        t = self.target(index)
        problems = []
        if not t - 1 <= stats["output_faces"] <= t:
            problems.append(f"{stats['output_faces']} faces (want {t - 1}..{t})")
        dz = stats["vertical_difference_stats_mm"]["mean"]
        quality = {"dz_mean_mm": dz}
        if index % 2:  # the 10 % target
            quality.update(error_over_floor=dz / self.floor, simplify_dz_mean_mm=dz)
        return problems, quality

    def check_round(self, ops):
        """c09 ordering: each 10 % op's mean |dz| is at least its 40 % op's."""
        for coarse, fine in zip(ops[0::2], ops[1::2]):
            if fine["quality"]["dz_mean_mm"] < coarse["quality"]["dz_mean_mm"]:
                fine["problems"].append("10 % target mean |dz| below the 40 % target's")


WORKLOADS = {w.name: w for w in (PipelinePair, RegisterPairs, SimplifyPlate)}


def mean_quality(ops, key):
    """Mean of one quality figure over the ops that report it; 0 if none do.

    ``error_over_floor`` is the output error over the input's sampling
    floor (mean edge / 3): the point_to_point D for pipeline_pair and
    register_pairs, the mean vertical grid difference of the 10 % target
    ops for simplify_plate.
    """
    values = [op["quality"][key] for op in ops if key in op["quality"]]
    return float(np.mean(values)) if values else 0.0
