"""The config surface: every key's default, check and flag come from
``config.KEYS``; these tests pin that table to the surface it replaced."""

import json

import pytest

from violinmorph import cli
from violinmorph.cli import main
from violinmorph.config import KEYS, config_hash, load_config, set_override

# (flag, dotted config key, type) of every valued flag, as the CLI declared
# them before the table, then the two switches with the value they set
FLAGS = [
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
SWITCHES = [
    ("--all-metrics", "register.all_metrics", True),
    ("--no-scale", "register.allow_scale", False),
]
# a valid non-default token for the flags that take one of a few values
CHOICES = {"--format": "obj", "--metric": "point_to_plane_sq", "--symmetry-config": "two_meshes"}


def _use(flag, typ):
    """(argv tokens, parsed value) of one valid use of a valued flag."""
    token = CHOICES.get(flag, {str: "some/file.ply", int: "9", float: "0.25"}[typ])
    return [flag, token], typ(token)


# per flagged key: (argv tokens, parsed value) of one valid use of its flag
USES = {key: _use(flag, typ) for flag, key, typ in FLAGS}
USES.update({key: ([flag], value) for flag, key, value in SWITCHES})


def test_table_holds_the_keys_and_flags():
    assert len(KEYS) == 43
    assert {flag: key for key, (_, _, flag) in KEYS.items() if flag} == \
        {flag: key for flag, key, _ in FLAGS + SWITCHES}


def test_default_config_hash_is_pinned():
    assert config_hash(load_config(None)) == "d46472f1cbd1fad7"


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_each_flag_parses_to_its_key(command, monkeypatch):
    handed = []  # the configs main hands the command
    monkeypatch.setitem(cli._COMMANDS, command, lambda cfg: handed.append(cfg) or 0)
    for key, (argv, value) in USES.items():
        assert main([command, *argv]) == 0
        want = load_config(None)
        set_override(want, key, value)
        assert handed[-1] == want, argv
        section, _, name = key.rpartition(".")
        assert type((handed[-1][section] if section else handed[-1])[name]) is type(value), argv


def _bad_values(default, check):
    """One bad value per way the check can fail."""
    if check is str:
        return [5]
    if check is bool:
        return ["true"]
    if check is list:
        return [5, [3.0, "x"], [5.0, 1.0]]
    if isinstance(check[0], str):
        return ["nope"]
    lo, hi = check
    values = ["x", hi * 2 + 1]
    if isinstance(lo, int):
        values.append(lo + 0.5)
    if default is not None:
        values.append(None)  # a range takes null only where its default is null
    return values


BAD = [(key, value) for key, (default, check, _) in KEYS.items()
       for value in _bad_values(default, check)]


@pytest.mark.parametrize("key, value", BAD, ids=[f"{k}={v!r}" for k, v in BAD])
def test_bad_value_of_every_key_exits_2(tmp_path, capsys, key, value):
    # a valid flag for the same key does not hide the file's bad value
    section, _, name = key.rpartition(".")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: {name: value}} if section else {name: value}))
    out = tmp_path / "out"
    rc = main(["pipeline", "--config", str(cfg), *USES.get(key, ([], None))[0],
               "--out", str(out)])
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


NULLABLE = [key for key, (default, _, _) in KEYS.items() if default is None]


@pytest.mark.parametrize("key", NULLABLE)
def test_keys_whose_default_is_null_take_null(tmp_path, key):
    section, _, name = key.rpartition(".")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: {name: None}} if section else {name: None}))
    assert load_config(cfg) == load_config(None)


@pytest.mark.parametrize("doc, message", [
    ({"seed": -1}, "config seed=-1 outside documented range [0, 9223372036854775807]"),
    ({"register": {"normal_k": 4.5}}, "config register.normal_k=4.5 is not an integer"),
    ({"inputs": {"scale": "x"}}, "config inputs.scale='x' is not a number"),
    ({"output_dir": None}, "config output_dir=None is not a path"),
    ({"register": {"pca_init": 1}}, "config register.pca_init=1 is not true or false"),
    ({"isolate": {"keep_interval": [2, 1]}},
     "config isolate.keep_interval=[2, 1] is not null or a [lo, hi] pair"),
    ({"isolate": {"section_axis": "z"}},
     "unknown isolate.section_axis 'z', expected one of ('x', 'y')"),
    ({"isolate": {"spacing": None}}, "config isolate.spacing=None is not a number"),
    ({"seed": None}, "config seed=None is not a number"),
])
def test_messages_of_each_kind_of_check(tmp_path, capsys, doc, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["isolate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"

