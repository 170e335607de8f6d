"""Declarative pipeline configuration.

One JSON document drives every command; CLI flags override config keys,
which override the defaults. ``KEYS`` is the one schema: per dotted key,
its default, its check and its command-line flag. The default config,
``validate_config`` and the CLI's flags are all read from it. The config
hash recorded in run manifests makes replays checkable.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .errors import InputError
from .fileio import FORMATS
from .registration import METRICS
from .slicing import AXES
from .symmetry import CONFIGURATIONS

# dotted key -> (default, check, flag or None). A check is a (lo, hi) range
# (int bounds: the key takes an int), a tuple of allowed values, ``str``
# for a path, ``bool``, or ``list`` for a null or [lo, hi] pair. A key may
# be null only where its default is null. A bool's flag sets the opposite
# of its default.
KEYS = {
    "seed": (0, (0, 2**63 - 1), "--seed"),
    "output_dir": ("violinmorph_out", str, "--out"),
    "mesh_format": ("ply-binary-le", FORMATS, "--format"),
    "inputs.body": (None, str, "--body"),  # whole-body mesh (isolate, pipeline)
    "inputs.body_b": (None, str, "--body-b"),  # second acquisition of the same object
    "inputs.sound_board": (None, str, "--sound-board"),  # isolated plate mesh (later stages)
    "inputs.back": (None, str, "--back"),
    "inputs.sound_board_contour": (None, str, "--sound-board-contour"),
    "inputs.back_contour": (None, str, "--back-contour"),
    "inputs.reference": (None, str, "--reference"),  # reference cloud/mesh (register, assess)
    "inputs.moving": (None, str, "--moving"),
    "inputs.transform": (None, str, "--transform"),  # registration.json applied to moving
    "inputs.scale": (None, (1e-6, 1e6), "--scale"),  # uniform scale hint, mm per file unit
    "inputs.scale_b": (None, (1e-6, 1e6), "--scale-b"),
    "inputs.sound_hole_mask": (None, str, "--sound-hole-mask"),
    "inputs.contour_mask": (None, str, "--contour-mask"),  # symmetry: contour exclusions
    "inputs.contour_mask_back": (None, str, None),
    "isolate.section_axis": ("x", AXES, None),
    "isolate.spacing": (1.0, (1e-6, 1e4), "--spacing"),
    "isolate.keep_interval": (None, list, None),
    "isolate.keep_count": (4, (2, 64), None),
    "isolate.tie_tol": (1.0, (0.0, 1e4), None),
    "isolate.rough_margin": (0.2, (0.0, 0.5), None),  # fraction of the body's z-extent
    "register.metric": ("point_to_point", METRICS, "--metric"),
    "register.allow_scale": (True, bool, "--no-scale"),
    "register.all_metrics": (False, bool, "--all-metrics"),
    "register.pca_init": (True, bool, None),
    "register.normal_k": (10, (3, 1000), None),
    "register.ftol": (1e-5, (1e-12, 1.0), None),
    "register.max_sweeps": (200, (1, 100000), None),  # Powell's maxiter; the key keeps its name
    "register.icp_sample_size": (10000, (10, 10**8), None),
    "assess.threshold": (2.0, (0.0, 1e6), "--threshold"),
    "assess.bin_width": (0.1, (1e-3, 1e3), None),
    "simplify.target_faces": (None, (1, 10**9), "--target-faces"),
    "simplify.grid_spacing": (1.0, (1e-3, 1e3), None),
    "symmetry.config": ("two_contours_masked", CONFIGURATIONS, "--symmetry-config"),
    "symmetry.grid_spacing": (1.0, (1e-3, 1e3), "--grid-spacing"),
    "symmetry.min_nodes": (100, (1, 10**9), None),
    "contours.spacing": (2.0, (1e-6, 1e4), "--level-spacing"),
    "contours.max_range": (24.0, (0.0, 1e4), None),
    "channel.window_mm": (15.0, (1e-3, 1e4), "--window"),
    "channel.stations": (400, (8, 10**6), "--stations"),
    "channel.smoothing_rms_mm": (0.5, (0.0, 1e3), None),
}


def _holder(cfg, dotted):
    """(the dict that holds ``dotted``'s value, the name it has there)"""
    section, _, name = dotted.rpartition(".")
    return (cfg[section] if section else cfg), name


def _defaults():
    """A new config holding every key's default."""
    cfg = {}
    for key, (default, _, _) in KEYS.items():
        section, _, name = key.rpartition(".")
        (cfg.setdefault(section, {}) if section else cfg)[name] = default
    return cfg


def _merge(cfg, doc, path=""):
    """Set ``cfg``'s keys, in place, to the values of the JSON object ``doc``."""
    for key, value in doc.items():
        if key not in cfg:
            raise InputError(f"unknown config key {path + key!r}")
        if not isinstance(cfg[key], dict):
            cfg[key] = value
        elif isinstance(value, dict):
            _merge(cfg[key], value, path=f"{path}{key}.")
        else:
            raise InputError(f"config key {path + key!r} must be a JSON object")


def load_config(path=None):
    """Defaults merged with the JSON document at ``path`` (if given)."""
    cfg = _defaults()
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise InputError(f"config file not found: {path}")
        try:
            with open(path, encoding="utf-8") as fh:
                user = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"config is not valid JSON: {path} ({exc})") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read a config from {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise InputError("config root must be a JSON object")
        _merge(cfg, user)
    validate_config(cfg)
    return cfg


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_config(cfg):
    """Check every key against its entry in ``KEYS``, before a command does any work."""
    for key, (default, check, _) in KEYS.items():
        holder, name = _holder(cfg, key)
        value = holder[name]
        if value is None and default is None:
            continue
        if check is str:
            if not isinstance(value, str):
                raise InputError(f"config {key}={value!r} is not a path")
        elif check is bool:
            if not isinstance(value, bool):
                raise InputError(f"config {key}={value!r} is not true or false")
        elif check is list:
            if not (isinstance(value, (list, tuple)) and len(value) == 2
                    and all(map(_is_number, value))
                    and -float("inf") < value[0] <= value[1] < float("inf")):
                raise InputError(f"config {key}={value!r} is not null or a [lo, hi] pair")
        elif isinstance(check[0], str):
            if value not in check:
                raise InputError(f"unknown {key} {value!r}, expected one of {check}")
        else:  # a (lo, hi) range
            lo, hi = check
            if not _is_number(value):
                raise InputError(f"config {key}={value!r} is not a number")
            if isinstance(lo, int) and not isinstance(value, int):
                raise InputError(f"config {key}={value!r} is not an integer")
            if not lo <= value <= hi:
                raise InputError(f"config {key}={value} outside documented range [{lo}, {hi}]")


def set_override(cfg, dotted_key, value):
    """Apply one ``section.key`` override in place (flags beat config)."""
    holder, name = _holder(cfg, dotted_key)
    if name not in holder:
        raise InputError(f"unknown config key {dotted_key!r}")
    holder[name] = value


def config_hash(cfg):
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
