"""Plate contour isolation.

From a roughly delineated plate mesh that still overhangs the ribs, build
the closed loop of mesh vertices delimiting the actual plate and extract
the inner mesh: seed extreme points on regular cross-sections, snap them
to mesh vertices, order them into a tour, join consecutive anchors with
shortest paths, then cut the loop out of the edge graph and keep the
component holding the plate's apex.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import ContractError, DisconnectedError, FragmentationError
from .fileio import load_surface, read_index_lines, save_index_lines, save_mesh
from .mesh import (TriangleMesh, VertexMask, connected_components, kd_workers,
                   shortest_path)
from .slicing import extreme_points

__all__ = [
    "ClosedContour",
    "PlateMesh",
    "map_to_vertices",
    "order_loop",
    "close_contour",
    "isolate_plate",
    "rough_split",
    "save_plate",
    "load_plate",
]

ANCHOR = "nearest-neighbour"
INSERTED = "inserted-intermediate"


@dataclass(frozen=True)
class ClosedContour:
    """Cyclic loop of mesh vertex indices; consecutive entries share an edge.

    ``source`` records, per entry, whether it is a snapped extreme point
    (``nearest-neighbour``) or a shortest-path filler
    (``inserted-intermediate``). The first entry is NOT repeated at the
    end; the loop closes implicitly.
    """

    vertex_indices: tuple
    source: tuple

    def __post_init__(self):
        idx = tuple(int(i) for i in self.vertex_indices)
        src = tuple(self.source)
        if len(idx) < 3:
            raise ContractError("closed contour needs at least 3 vertices")
        if len(src) != len(idx):
            raise ContractError("provenance length mismatch")
        for a, b in zip(idx, idx[1:] + idx[:1]):
            if a == b:
                raise ContractError("contour has an immediate repetition")
        object.__setattr__(self, "vertex_indices", idx)
        object.__setattr__(self, "source", src)

    def __len__(self):
        return len(self.vertex_indices)

    def validate_against(self, mesh):
        """Check every consecutive pair (cyclically) shares a mesh edge."""
        n = mesh.n_vertices
        indptr, neighbours = mesh.adjacency.indptr, mesh.adjacency.indices
        idx = self.vertex_indices
        for a, b in zip(idx, idx[1:] + idx[:1]):
            # b among the stored entries of a's adjacency row
            if not (0 <= a < n and 0 <= b < n
                    and b in neighbours[indptr[a]:indptr[a + 1]]):
                raise ContractError(f"contour vertices {a}, {b} are not adjacent")

    def remapped(self, remap):
        return ClosedContour(tuple(int(remap[i]) for i in self.vertex_indices), self.source)


@dataclass(frozen=True)
class PlateMesh:
    """Isolated plate: the inner mesh with its contour ring re-attached.

    ``orig_vertex_ids`` maps each plate-mesh vertex back to the input
    mesh; ``inner_ids`` lists the plate-mesh indices that are not on the
    contour.
    """

    mesh: TriangleMesh
    contour: ClosedContour
    side: str
    orig_vertex_ids: np.ndarray
    inner_ids: np.ndarray

    def __post_init__(self):
        if self.side not in ("sound_board", "back"):
            raise ContractError(f"side must be 'sound_board' or 'back', got {self.side!r}")
        for i in self.contour.vertex_indices:
            if not 0 <= i < self.mesh.n_vertices:
                raise ContractError("contour index out of range for plate mesh")
        comps = connected_components(self.mesh)
        if len(comps) != 1:
            raise ContractError(f"plate mesh has {len(comps)} components, expected 1")
        oid = np.asarray(self.orig_vertex_ids, dtype=np.int64)
        iid = np.asarray(self.inner_ids, dtype=np.int64)
        oid.flags.writeable = False
        iid.flags.writeable = False
        object.__setattr__(self, "orig_vertex_ids", oid)
        object.__setattr__(self, "inner_ids", iid)

    def contour_points(self):
        return self.mesh.vertices[list(self.contour.vertex_indices)]

    def transformed(self, rotation=None, translation=None, scale=None):
        return PlateMesh(
            self.mesh.transformed(rotation, translation, scale),
            self.contour,
            self.side,
            self.orig_vertex_ids,
            self.inner_ids,
        )


def map_to_vertices(mesh, points):
    """Nearest mesh vertex for each query point, duplicates collapsed.

    Equidistant candidates resolve to the lowest vertex index; the first
    occurrence wins when several query points snap to one vertex.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    tree = cKDTree(mesh.vertices)
    workers = kd_workers(len(pts))
    dist, _ = tree.query(pts, k=1, workers=workers)
    # exact ties: the lowest index within the winning distance
    balls = tree.query_ball_point(pts, dist * (1 + 1e-12) + 1e-300, workers=workers)
    idx = np.fromiter(map(min, balls), dtype=np.int64, count=len(pts))
    _, first = np.unique(idx, return_index=True)
    return idx[np.sort(first)].tolist()


def order_loop(mesh, anchors):
    """Cyclic anchor order approximately minimizing the Euclidean tour.

    Nearest-neighbour construction from the lowest-index anchor, then
    best-improvement 2-opt until no move improves (or 10 n^2 move
    evaluations). Returned cycle starts at the lowest anchor index, with
    the direction fixed by comparing its two neighbours.
    """
    anchors = [int(a) for a in anchors]
    if len(set(anchors)) != len(anchors):
        raise ContractError("anchors contain duplicates")
    n = len(anchors)
    if n < 3:
        raise ContractError("need at least 3 anchors")
    pts = mesh.vertices[anchors]
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))

    # greedy construction from the lowest anchor; column k of ``ahead`` is
    # the k-th lowest anchor, so argmin breaks a tie to the lowest index
    by_anchor = np.argsort(anchors)
    ahead = dist[:, by_anchor]
    tour = [0]
    for _ in range(n - 1):
        ahead[:, tour[-1]] = np.inf
        tour.append(int(np.argmin(ahead[by_anchor[tour[-1]]])))
    tour = by_anchor[tour]

    budget = 10 * n * n
    spent = 0
    while spent < budget:
        # delta[i, j] of reversing tour[i+1 .. j], vectorized over all pairs
        nxt = np.roll(tour, -1)
        a = pts[tour]
        b = pts[nxt]
        d_edge = dist[tour, nxt]
        i_idx, j_idx = np.triu_indices(n, k=1)
        keep = j_idx - i_idx < n - 1  # reversing the whole cycle is a no-op
        i_idx, j_idx = i_idx[keep], j_idx[keep]
        spent += len(i_idx)
        new1 = np.linalg.norm(a[i_idx] - a[j_idx], axis=1)
        new2 = np.linalg.norm(b[i_idx] - b[j_idx], axis=1)
        delta = new1 + new2 - d_edge[i_idx] - d_edge[j_idx]
        best = int(np.argmin(delta))
        if delta[best] >= -1e-12:
            break
        i, j = int(i_idx[best]), int(j_idx[best])
        tour[i + 1:j + 1] = tour[i + 1:j + 1][::-1]

    # canonical rotation and direction
    pos = int(np.argmin([anchors[t] for t in tour]))
    tour = np.roll(tour, -pos)
    if anchors[tour[1]] > anchors[tour[-1]]:
        tour = np.concatenate([tour[:1], tour[1:][::-1]])
    return [anchors[t] for t in tour]


def close_contour(mesh, ordered_anchors):
    """Join consecutive anchors (cyclically) with shortest paths.

    Immediate back-and-forth artefacts ``v, w, v`` left by path
    concatenation are collapsed; any vertex still appearing twice is
    reported as a warning, not an error.
    """
    anchors = [int(a) for a in ordered_anchors]
    if len(anchors) < 3:
        raise ContractError("need at least 3 anchors")
    loop = []
    src = []
    for a, b in zip(anchors, anchors[1:] + anchors[:1]):
        try:
            path = shortest_path(mesh, a, b)
        except DisconnectedError as exc:
            raise DisconnectedError(
                f"anchors {a} and {b} lie in different components"
            ) from exc
        loop.extend(path[:-1])
        src.extend([ANCHOR] + [INSERTED] * (len(path) - 2))

    changed = True
    while changed:
        changed = False
        n = len(loop)
        if n < 3:
            raise ContractError("contour collapsed during cleanup")
        for i in range(n):
            if loop[i] == loop[(i + 1) % n]:
                drop = [(i + 1) % n]
            elif loop[(i - 1) % n] == loop[(i + 1) % n]:
                drop = sorted(((i, (i + 1) % n)), reverse=True)
            else:
                continue
            for d in drop:
                loop.pop(d)
                src.pop(d)
            changed = True
            break

    dupes = np.count_nonzero(np.unique(loop, return_counts=True)[1] > 1)
    if dupes:
        warnings.warn(
            f"contour visits {dupes} vertices more than once", stacklevel=2
        )
    contour = ClosedContour(tuple(loop), tuple(src))
    contour.validate_against(mesh)
    return contour


def isolate_plate(mesh, side, section_axis="x", spacing=1.0, keep_interval=None,
                  keep_count=4, tie_tol=0.0, exclude=None, counters=None):
    """Isolate the sound board or back from a roughly delineated mesh.

    The mesh must be PCA-oriented (long axis x, thin axis z). ``side``
    selects which surface the apex is sought on: +z for the sound board,
    -z for the back. Returns a :class:`PlateMesh` whose vertices index
    back into the input mesh via ``orig_vertex_ids``.

    The cutting planes march along ``section_axis`` (the long axis after
    PCA orientation) every ``spacing`` mm. Inside ``keep_interval`` (lo,
    hi), e.g. around a removed neck, ``keep_count`` extreme points are
    kept per cut instead of two. ``tie_tol`` > 0 makes the selection
    prefer the chosen side's surface when both rims of a body reach
    equally far out. ``exclude`` (a VertexMask, e.g. a sound hole) is
    removed from the mesh first. ``counters``, a dict, receives the
    section counters of :func:`~violinmorph.slicing.extreme_points`.

    Raises
    ------
    FragmentationError
        When cutting the contour out of the graph leaves the apex
        component with less than half of the remaining vertices (a failed
        contour), or the apex component is not the largest.
    """
    if side not in ("sound_board", "back"):
        raise ContractError(f"side must be 'sound_board' or 'back', got {side!r}")

    work = mesh
    work_to_orig = np.arange(mesh.n_vertices)
    if exclude is not None and len(exclude):
        exclude.validate(mesh)
        keep = np.setdiff1d(np.arange(mesh.n_vertices), exclude.as_array())
        work, work_to_orig = mesh.submesh(keep)

    seeds = extreme_points(work, section_axis, spacing, keep_interval, keep_count,
                           prefer_z="max" if side == "sound_board" else "min", tie_tol=tie_tol,
                           counters=counters)
    anchors = map_to_vertices(work, seeds)
    if len(anchors) < 3:
        raise ContractError("fewer than 3 distinct anchor vertices")
    ordered = order_loop(work, anchors)
    contour = close_contour(work, ordered)

    contour_ids = np.asarray(sorted(set(contour.vertex_indices)), dtype=np.int64)
    comps = connected_components(work, VertexMask(contour_ids))
    if not comps:
        raise FragmentationError("contour removal left no vertices")

    z = work.vertices[:, 2].copy()
    z[contour_ids] = -np.inf if side == "sound_board" else np.inf
    apex = int(np.argmax(z)) if side == "sound_board" else int(np.argmin(z))
    inner = next((comp for comp in comps if apex in comp), None)
    remaining = work.n_vertices - len(contour_ids)
    if inner is None or len(inner) < len(comps[0]):
        raise FragmentationError("apex component is not the largest after the cut")
    if len(inner) * 2 < remaining:
        raise FragmentationError(
            f"largest component holds {len(inner)}/{remaining} vertices (< 50%)"
        )

    keep = np.union1d(inner, contour_ids)
    plate, kept_ids = work.submesh(keep)
    remap = np.full(work.n_vertices, -1, dtype=np.int64)
    remap[kept_ids] = np.arange(len(kept_ids))
    new_contour = contour.remapped(remap)
    new_contour.validate_against(plate)
    inner_new = remap[inner]
    return PlateMesh(
        mesh=plate,
        contour=new_contour,
        side=side,
        orig_vertex_ids=work_to_orig[kept_ids],
        inner_ids=np.sort(inner_new),
    )


def save_plate(plate, mesh_path, contour_path, format="ply-binary-le"):
    """Persist a plate as a mesh file plus a contour index file.

    The contour file is mask-format (one index per line) with the
    provenance recorded as a trailing comment.
    """
    save_mesh(plate.mesh, mesh_path, format)
    save_index_lines(contour_path, plate.contour.vertex_indices, plate.contour.source,
                     head=f"side={plate.side}")


def load_plate(mesh_path, contour_path, side=None):
    """Rebuild a PlateMesh from the files written by :func:`save_plate`."""
    mesh = load_surface(mesh_path)
    indices = []
    sources = []
    for _, index, comment in read_index_lines(contour_path, "contour", mesh.n_vertices):
        if index is None:
            if comment.startswith("side=") and side is None:
                side = comment[5:]
            continue
        indices.append(index)
        sources.append(comment if comment else ANCHOR)
    if side is None:
        raise ContractError(f"plate side missing from {contour_path} and not provided")
    contour = ClosedContour(tuple(indices), tuple(sources))
    contour.validate_against(mesh)
    inner = np.setdiff1d(np.arange(mesh.n_vertices),
                         np.asarray(contour.vertex_indices, dtype=np.int64))
    return PlateMesh(
        mesh=mesh,
        contour=contour,
        side=side,
        orig_vertex_ids=np.arange(mesh.n_vertices),
        inner_ids=inner,
    )


def rough_split(body, side, margin=0.2):
    """Rough one-side mesh from a whole oriented body.

    Keeps the vertices of the chosen half plus a generous band of the
    ribs (``margin`` of the z-extent past the middle), then the largest
    connected component: the manual rough delineation step, automated
    just enough for :func:`isolate_plate` to take over. Returns the rough
    mesh and its vertex map into the body.
    """
    if side not in ("sound_board", "back"):
        raise ContractError(f"side must be 'sound_board' or 'back', got {side!r}")
    z = body.vertices[:, 2]
    z0, z1 = float(z.min()), float(z.max())
    cut = z0 + (0.5 - margin) * (z1 - z0)
    if side == "back":
        cut = z0 + (0.5 + margin) * (z1 - z0)
    keep = z >= cut if side == "sound_board" else z <= cut
    half, half_to_body = body.submesh(np.flatnonzero(keep))
    comps = connected_components(half)
    if not comps:
        raise ContractError("rough split removed every vertex")
    rough, ids = half.submesh(comps[0])
    return rough, half_to_body[ids]
