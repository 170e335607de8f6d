"""Declarative pipeline configuration.

One JSON document drives every command; CLI flags override config keys,
which override the defaults below. The config hash recorded in run
manifests makes replays checkable.
"""

from __future__ import annotations

import copy
import hashlib
import json
from pathlib import Path

from .errors import InputError
from .fileio import FORMATS
from .registration import METRICS
from .symmetry import CONFIGURATIONS

DEFAULT_CONFIG = {
    "seed": 0,
    "output_dir": "violinmorph_out",
    "mesh_format": "ply-binary-le",
    "inputs": {
        "body": None,            # whole-body mesh (isolate, pipeline)
        "body_b": None,          # second acquisition of the same object
        "sound_board": None,     # isolated plate mesh (later stages)
        "back": None,
        "sound_board_contour": None,
        "back_contour": None,
        "reference": None,       # reference cloud/mesh (register, assess)
        "moving": None,
        "transform": None,       # registration.json applied to moving before assess
        "scale": None,           # uniform scale hint applied at load
        "scale_b": None,
        "sound_hole_mask": None,
        "contour_mask": None,        # symmetry: sound-board contour exclusions
        "contour_mask_back": None,
    },
    "isolate": {
        "section_axis": "x",
        "spacing": 1.0,
        "keep_interval": None,
        "keep_count": 4,
        "tie_tol": 1.0,
        "rough_margin": 0.2,
    },
    "register": {
        "metric": "point_to_point",
        "allow_scale": True,
        "all_metrics": False,
        "pca_init": True,
        "normal_k": 10,
        "ftol": 1e-5,
        "max_sweeps": 200,  # scipy Powell's maxiter; the key keeps its old name
        "icp_sample_size": 10000,
    },
    "assess": {
        "threshold": 2.0,
        "bin_width": 0.1,
    },
    "simplify": {
        "target_faces": None,
        "grid_spacing": 1.0,
    },
    "symmetry": {
        "config": "two_contours_masked",
        "grid_spacing": 1.0,
        "min_nodes": 100,
    },
    "contours": {
        "spacing": 2.0,
        "max_range": 24.0,
    },
    "channel": {
        "window_mm": 15.0,
        "stations": 400,
        "smoothing_rms_mm": 0.5,
    },
}

# Documented ranges; a key whose bounds are ints takes an int.
_RANGES = {
    (None, "seed"): (0, 2**63 - 1),
    ("isolate", "spacing"): (1e-6, 1e4),
    ("isolate", "keep_count"): (2, 64),
    ("isolate", "tie_tol"): (0.0, 1e4),
    ("isolate", "rough_margin"): (0.0, 0.5),  # fraction of the body's z-extent
    ("register", "normal_k"): (3, 1000),
    ("register", "ftol"): (1e-12, 1.0),
    ("register", "max_sweeps"): (1, 100000),
    ("register", "icp_sample_size"): (10, 10**8),
    ("assess", "threshold"): (0.0, 1e6),
    ("assess", "bin_width"): (1e-3, 1e3),
    ("simplify", "target_faces"): (1, 10**9),
    ("simplify", "grid_spacing"): (1e-3, 1e3),
    ("symmetry", "grid_spacing"): (1e-3, 1e3),
    ("symmetry", "min_nodes"): (1, 10**9),
    ("contours", "spacing"): (1e-6, 1e4),
    ("contours", "max_range"): (0.0, 1e4),
    ("channel", "window_mm"): (1e-3, 1e4),
    ("channel", "stations"): (8, 10**6),
    ("channel", "smoothing_rms_mm"): (0.0, 1e3),
    ("inputs", "scale"): (1e-6, 1e6),  # mm per file unit
    ("inputs", "scale_b"): (1e-6, 1e6),
}


def _merge(base, override, path=""):
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in base:
            raise InputError(f"unknown config key {path + key!r}")
        if isinstance(base[key], dict) and not isinstance(value, dict):
            raise InputError(f"config key {path + key!r} must be a JSON object")
        if isinstance(base[key], dict):
            out[key] = _merge(base[key], value, path=f"{path}{key}.")
        else:
            out[key] = value
    return out


def load_config(path=None):
    """Defaults merged with the JSON document at ``path`` (if given)."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise InputError(f"config file not found: {path}")
        try:
            with open(path) as fh:
                user = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"config is not valid JSON: {path} ({exc})") from exc
        if not isinstance(user, dict):
            raise InputError("config root must be a JSON object")
        cfg = _merge(cfg, user)
    validate_config(cfg)
    return cfg


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_config(cfg):
    """Check every typed key, before a command does any work."""
    for (section, key), (lo, hi) in _RANGES.items():
        value = cfg[key] if section is None else cfg[section][key]
        name = key if section is None else f"{section}.{key}"
        if value is None:
            continue
        if not _is_number(value):
            raise InputError(f"config {name}={value!r} is not a number")
        if isinstance(lo, int) and not isinstance(value, int):
            raise InputError(f"config {name}={value!r} is not an integer")
        if not (lo <= value <= hi):
            raise InputError(f"config {name}={value} outside documented range [{lo}, {hi}]")
    paths = [("output_dir", cfg["output_dir"])] + [
        (f"inputs.{key}", value) for key, value in cfg["inputs"].items()
        if key not in ("scale", "scale_b") and value is not None]
    for key, value in paths:
        if not isinstance(value, str):
            raise InputError(f"config {key}={value!r} is not a path")
    for section, keys in DEFAULT_CONFIG.items():  # a key whose default is a bool takes a bool
        for key, default in (keys.items() if isinstance(keys, dict) else ()):
            value = cfg[section][key]
            if isinstance(default, bool) and not isinstance(value, bool):
                raise InputError(f"config {section}.{key}={value!r} is not true or false")
    interval = cfg["isolate"]["keep_interval"]
    if interval is not None and not (isinstance(interval, (list, tuple)) and len(interval) == 2
                                     and all(map(_is_number, interval))
                                     and interval[0] <= interval[1]):
        raise InputError(f"config isolate.keep_interval={interval!r} is not null or a "
                         "[lo, hi] pair")
    for key, value, allowed in (
        ("register.metric", cfg["register"]["metric"], METRICS),
        ("symmetry.config", cfg["symmetry"]["config"], CONFIGURATIONS),
        ("isolate.section_axis", cfg["isolate"]["section_axis"], ("x", "y")),
        ("mesh_format", cfg["mesh_format"], FORMATS),
    ):
        if value not in allowed:
            raise InputError(f"unknown {key} {value!r}, expected one of {allowed}")


def set_override(cfg, dotted_key, value):
    """Apply one ``section.key`` override in place (flags beat config)."""
    node = cfg
    parts = dotted_key.split(".")
    for part in parts[:-1]:
        node = node[part]
    if parts[-1] not in node:
        raise InputError(f"unknown config key {dotted_key!r}")
    node[parts[-1]] = value


def config_hash(cfg):
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
