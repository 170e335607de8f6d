"""Picks decided by geometry: renumbering a mesh's vertices and faces leaves the
extreme points and the channel of minima where they were, to the bit (a
crossing point is interpolated from its edge's end below the plane, whatever
the ends' numbers)."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from violinmorph.isolation import PlateMesh, isolate_plate, rough_split
from violinmorph.mesh import TriangleMesh
from violinmorph.morphology import channel_of_minima
from violinmorph.orientation import orient_to_frame, principal_frame
from violinmorph.slicing import extreme_points
from violinmorph.synthetic import disc_plate, instrument_body

from conftest import framed_plates, tie_grid

SEEDS = st.integers(0, 2**32 - 1)


def _renumbered(n_vertices, faces, seed):
    """A random renumbering: new vertex ``i`` is old vertex ``order[i]``; the
    faces, in a new order, each start at a random corner (winding kept)."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_vertices)
    new_id = np.argsort(order)
    f = new_id[faces][rng.permutation(len(faces))]
    corner = (np.arange(3) + rng.integers(0, 3, (len(f), 1))) % 3
    return order, new_id, np.take_along_axis(f, corner, axis=1)


def renumbered_mesh(mesh, seed):
    order, _, faces = _renumbered(mesh.n_vertices, mesh.faces, seed)
    return TriangleMesh(mesh.vertices[order], faces)


def renumbered_plate(plate, seed):
    order, new_id, faces = _renumbered(plate.mesh.n_vertices, plate.mesh.faces, seed)
    contour = replace(plate.contour,
                      vertex_indices=tuple(new_id[list(plate.contour.vertex_indices)].tolist()))
    return PlateMesh(TriangleMesh(plate.mesh.vertices[order], faces), contour, plate.side,
                     plate.orig_vertex_ids[order], np.sort(new_id[plate.inner_ids]))


def assert_same(new, old):
    assert new.shape == old.shape and new.tobytes() == old.tobytes()


@pytest.fixture(scope="module")
def meshes():
    """A jittered disc plate, tie-heavy integer-height grids, and the rough
    plates of benchmark body A."""
    body = instrument_body(rings=15, sectors=60, rib_rings=4)[0]
    body = orient_to_frame(body, principal_frame(body.point_cloud()))
    jittered = disc_plate(radius=20.0, rings=10, sectors=40, jitter=0.3,
                          rng=np.random.default_rng(2)).mesh
    return ([jittered] + [tie_grid(seed) for seed in range(4)]
            + [rough_split(body, side)[0] for side in ("sound_board", "back")])


@pytest.fixture(scope="module")
def plates():
    """A jittered disc plate, a grooved back and the framed plates of body A."""
    return [
        disc_plate(radius=20.0, rings=10, sectors=40, jitter=0.3, rng=np.random.default_rng(2)),
        disc_plate(radius=30.0, rings=15, sectors=60, groove_radius=24.0, side="back"),
    ] + framed_plates(rings=15, sectors=60, rib_rings=4)


def _extremes(mesh, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # empty sections warn alike
        return extreme_points(mesh, **kwargs)


@settings(max_examples=40, deadline=None)
@given(which=st.integers(0, 6), seed=SEEDS, axis=st.sampled_from(["x", "y"]),
       prefer_z=st.sampled_from([None, "max", "min"]), tie_tol=st.sampled_from([0.0, 1.0]),
       keep=st.booleans())
def test_extreme_points_ignore_the_numbering(meshes, which, seed, axis, prefer_z, tie_tol,
                                             keep):
    mesh = meshes[which]
    spacing = 0.5 if which in range(1, 5) else 1.0
    lo, hi = mesh.vertices[:, "xyz".index(axis)].min(), mesh.vertices[:, "xyz".index(axis)].max()
    kwargs = dict(axis=axis, spacing=spacing, prefer_z=prefer_z, tie_tol=tie_tol)
    if keep:
        kwargs.update(keep_interval=(lo + 0.3 * (hi - lo), lo + 0.6 * (hi - lo)), keep_count=5)
    assert_same(_extremes(renumbered_mesh(mesh, seed), **kwargs), _extremes(mesh, **kwargs))


@pytest.mark.parametrize("which", range(7))
@pytest.mark.parametrize("prefer_z, tie_tol", [(None, 0.0), ("max", 0.0), ("min", 1.0)])
def test_tied_planes_ignore_the_numbering(meshes, which, prefer_z, tie_tol):
    # the default settings of the rough plates, and the tie-heavy grids,
    # under three fixed renumberings each
    mesh = meshes[which]
    base = _extremes(mesh, axis="x", spacing=0.5, prefer_z=prefer_z, tie_tol=tie_tol)
    for seed in range(3):
        assert_same(_extremes(renumbered_mesh(mesh, seed), axis="x", spacing=0.5,
                                prefer_z=prefer_z, tie_tol=tie_tol), base)


@pytest.mark.parametrize("side", ["sound_board", "back"])
def test_contour_point_set_ignores_the_numbering(meshes, side):
    # benchmark A's plate outline, as isolate writes it: the same points
    rough = meshes[5 if side == "sound_board" else 6]
    base = {p.tobytes() for p in isolate_plate(rough, side, tie_tol=1.0).contour_points()}
    for seed in range(3):
        plate = isolate_plate(renumbered_mesh(rough, seed), side, tie_tol=1.0)
        assert {p.tobytes() for p in plate.contour_points()} == base


def _trace(plate, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # skipped stations warn alike
        return channel_of_minima(plate, **kwargs)


@settings(max_examples=12, deadline=None)
@given(which=st.integers(0, 3), seed=SEEDS, stations=st.integers(8, 400),
       window=st.floats(2.0, 20.0))
def test_channel_ignores_the_numbering(plates, which, seed, stations, window):
    plate = plates[which]
    new = _trace(renumbered_plate(plate, seed), stations=stations, window_mm=window)
    old = _trace(plate, stations=stations, window_mm=window)
    for name in ("points", "arc_lengths", "inward_offsets", "contour_points"):
        assert_same(getattr(new, name), getattr(old, name))
    assert (new.no_channel, new.stations_skipped) == (old.no_channel, old.stations_skipped)


def test_channel_ties_ignore_the_numbering():
    # a flat ring around the rim: every window point of every station shares
    # the lowest z
    plate = disc_plate(radius=30.0, rings=15, sectors=60)
    verts = plate.mesh.vertices.copy()
    r = np.hypot(verts[:, 0], verts[:, 1])
    verts[:, 2] = np.maximum(verts[:, 2], verts[np.argmin(np.abs(r - 20.0)), 2])
    plate = replace(plate, mesh=TriangleMesh(verts, plate.mesh.faces))
    base = _trace(plate, stations=97)
    for seed in range(3):
        assert_same(_trace(renumbered_plate(plate, seed), stations=97).points, base.points)
