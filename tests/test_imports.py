"""What each entry point imports: scipy's submodules load where they are called.

Every footprint is read in a fresh interpreter, since this one has long
imported everything the other tests call.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
import scipy.spatial

import violinmorph
from violinmorph import registration
from violinmorph.cli import main
from violinmorph.fileio import save_mesh
from violinmorph.synthetic import disc_plate, instrument_body

HEAVY = ("scipy.sparse", "scipy.spatial", "scipy.optimize", "scipy.interpolate")
# what the forked half of ``pipeline --body-b`` calls: isolation and features
CHILD = ("scipy.sparse.csgraph", "scipy.spatial", "scipy.interpolate")
SRC = str(Path(violinmorph.__file__).resolve().parents[1])


def fresh(code, *args):
    """Run ``code`` in a new interpreter that imports violinmorph from this
    tree, with ``args`` as ``sys.argv[1:]``; returns its last stdout line as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = """
    import json, sys
    HEAVY = {heavy!r}

    def loaded(names=HEAVY):
        return sorted(name for name in names if name in sys.modules)
""".format(heavy=HEAVY)

RUN_CLI = LOADED + """
    from violinmorph.cli import main
    before = loaded()
    code = main(sys.argv[1:])
    print(json.dumps({"code": code, "before": before, "after": loaded()}))
"""


@pytest.fixture(scope="module")
def plate_file(tmp_path_factory):
    plate = disc_plate(radius=30.0, minor=20.0, height=7.0, rings=20, sectors=60,
                       bumps=((8, 5, 2.0, 8.0),))
    path = tmp_path_factory.mktemp("plate") / "p.ply"
    save_mesh(plate.mesh, path, "ply-binary-le")
    return path


@pytest.fixture(scope="module")
def moved_file(plate_file):
    from violinmorph.fileio import load_mesh

    path = plate_file.with_name("q.ply")
    save_mesh(load_mesh(plate_file).transformed(translation=(0.4, -0.2, 0.1)), path,
              "ply-binary-le")
    return path


@pytest.mark.parametrize("module", ["violinmorph", "violinmorph.cli"])
def test_import_loads_no_scipy_submodule(module):
    assert fresh(LOADED + f"""
    import {module}
    print(json.dumps(loaded()))
    """) == []


def test_simplify_loads_no_scipy_submodule(plate_file, tmp_path):
    report = fresh(RUN_CLI, "simplify", "--reference", plate_file, "--target-faces", 600,
                   "--out", tmp_path / "simp")
    assert report == {"code": 0, "before": [], "after": []}


def test_register_loads_no_interpolation(plate_file, moved_file, tmp_path):
    report = fresh(RUN_CLI, "register", "--reference", plate_file, "--moving", moved_file,
                   "--out", tmp_path / "reg")
    assert report["code"] == 0 and report["before"] == []
    assert "scipy.interpolate" not in report["after"]
    assert {"scipy.optimize", "scipy.spatial"} <= set(report["after"])


def test_kdtree_is_scipys_class_on_first_access():
    assert fresh(LOADED + """
    from violinmorph import registration
    report = {"before": loaded(), "bound": "cKDTree" in vars(registration)}
    from scipy.spatial import cKDTree
    report["scipys"] = registration.cKDTree is cKDTree
    print(json.dumps(report))
    """) == {"before": [], "bound": False, "scipys": True}
    assert registration.cKDTree is scipy.spatial.cKDTree
    with pytest.raises(AttributeError, match="no attribute 'KDTree'"):
        registration.KDTree


def test_register_builds_the_swapped_kdtree(plate_file, moved_file, tmp_path, monkeypatch):
    builds = []

    class CountingKDTree(registration.cKDTree):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            builds.append(len(self.data))

    monkeypatch.setattr(registration, "cKDTree", CountingKDTree)
    assert main(["register", "--reference", str(plate_file), "--moving", str(moved_file),
                 "--out", str(tmp_path / "reg")]) == 0
    assert builds  # normals, the objective's tree and the reported metrics
    monkeypatch.undo()
    assert registration.cKDTree is scipy.spatial.cKDTree


def test_forked_half_inherits_its_scipy_modules(tmp_path):
    """``pipeline --body-b`` loads what its forked child calls before it
    forks: the child starts with those modules and imports no scipy module."""
    body, _ = instrument_body(rings=15, sectors=60, rib_rings=4)
    body_a, body_b = tmp_path / "A.ply", tmp_path / "B.ply"
    save_mesh(body, body_a, "ply-binary-le")
    save_mesh(body.transformed(translation=(0.5, -0.3, 0.2)), body_b, "ply-binary-le")
    child_log = tmp_path / "child.json"
    report = fresh(LOADED + """
    import multiprocessing.context
    from violinmorph import cli

    CHILD = {child!r}
    at_fork = []
    start = multiprocessing.context.ForkProcess.start

    def recording_start(self):
        at_fork.append(loaded(CHILD))
        return start(self)

    worker = cli._worker

    def recording_worker(*args):
        scipy_before = {{name for name in sys.modules if name.startswith("scipy")}}
        try:
            worker(*args)
        finally:
            new = sorted(name for name in sys.modules
                         if name.startswith("scipy") and name not in scipy_before)
            with open(sys.argv[1], "w") as fh:
                json.dump(new, fh)

    multiprocessing.context.ForkProcess.start = recording_start
    cli._worker = recording_worker
    before = loaded(CHILD)
    code = cli.main(sys.argv[2:])
    print(json.dumps({{"code": code, "before": before, "at_fork": at_fork}}))
    """.format(child=CHILD), child_log, "pipeline", "--body", body_a, "--body-b", body_b,
        "--out", tmp_path / "out")
    assert report == {"code": 0, "before": [], "at_fork": [sorted(CHILD)]}
    assert json.loads(child_log.read_text()) == []  # the child imported no scipy module
