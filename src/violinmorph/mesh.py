"""Core mesh and point-cloud data model.

Coordinates are millimetres throughout. A :class:`TriangleMesh` is an
indexed vertex/face surface; its undirected edge graph (Euclidean edge
weights) backs the component and shortest-path queries that the contour
isolation stage relies on. Instances are immutable after construction and
safe to share across threads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DegenerateFaceError, DisconnectedError

__all__ = [
    "TriangleMesh",
    "PointCloud",
    "VertexMask",
    "connected_components",
    "shortest_path",
    "shortest_paths",
    "weld_vertices",
]


def _as_points(values, name):
    pts = np.asarray(values, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ContractError(f"{name} must have shape (n, 3), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ContractError(f"{name} contain non-finite coordinates")
    return pts


class TriangleMesh:
    """Indexed triangle surface with a derived undirected edge graph.

    Parameters
    ----------
    vertices : (n, 3) array_like
        Vertex coordinates in mm. Order is preserved.
    faces : (m, 3) array_like
        Vertex-index triples. Every index must be < n and each face must
        reference three distinct vertices.

    Notes
    -----
    Non-manifold edges (shared by more than two faces) are tolerated: the
    downstream slicing and isolation stages only need the edge graph. They
    are reported once as a warning. Duplicate vertices are kept as-is; see
    :func:`weld_vertices` for explicit merging.
    """

    def __init__(self, vertices, faces):
        self.vertices = _as_points(vertices, "vertices")
        self.faces = np.asarray(faces, dtype=np.int64)
        if self.faces.size == 0:
            self.faces = self.faces.reshape(0, 3)
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise ContractError(f"faces must have shape (m, 3), got {self.faces.shape}")
        n = len(self.vertices)
        if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= n):
            raise ContractError("face index out of range")
        degenerate = np.flatnonzero(
            (self.faces[:, 0] == self.faces[:, 1])
            | (self.faces[:, 1] == self.faces[:, 2])
            | (self.faces[:, 2] == self.faces[:, 0])
        )
        if degenerate.size:
            raise DegenerateFaceError(degenerate)

        self.vertices.flags.writeable = False
        self.faces.flags.writeable = False
        self._edges = None
        self._edge_lengths = None
        self._adjacency = None

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_faces(self):
        return len(self.faces)

    @property
    def edges(self):
        """Unique undirected edges as an (e, 2) array with edge[0] < edge[1]."""
        if self._edges is None:
            self._build_edges()
        return self._edges

    @property
    def edge_lengths(self):
        """Euclidean length of each entry of :attr:`edges`."""
        if self._edge_lengths is None:
            self._build_edges()
        return self._edge_lengths

    def _build_edges(self):
        f = self.faces
        n = self.n_vertices
        a = f.ravel()
        b = f[:, [1, 2, 0]].ravel()
        keys, counts = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_counts=True)
        edges = np.stack(np.divmod(keys, n), axis=1)
        if np.any(counts > 2):
            warnings.warn(
                f"{int(np.sum(counts > 2))} non-manifold edges "
                "(shared by more than two faces)",
                stacklevel=3,
            )
        lengths = np.linalg.norm(
            self.vertices[edges[:, 0]] - self.vertices[edges[:, 1]], axis=1
        )
        edges.flags.writeable = False
        lengths.flags.writeable = False
        self._edges = edges
        self._edge_lengths = lengths

    @property
    def adjacency(self):
        """Symmetric CSR matrix of edge lengths (the weighted edge graph)."""
        if self._adjacency is None:
            from scipy.sparse import coo_matrix

            e = self.edges
            w = self.edge_lengths
            n = self.n_vertices
            mat = coo_matrix(
                (np.concatenate([w, w]), (np.concatenate([e[:, 0], e[:, 1]]),
                                          np.concatenate([e[:, 1], e[:, 0]]))),
                shape=(n, n),
            )
            self._adjacency = mat.tocsr()
        return self._adjacency

    def point_cloud(self):
        """The vertex set as a :class:`PointCloud`."""
        return PointCloud(self.vertices)

    def transformed(self, rotation=None, translation=None, scale=None):
        """Copy with vertices mapped by ``scale * (rotation @ v + translation)``."""
        v = self.vertices
        if rotation is not None:
            v = v @ np.asarray(rotation, dtype=np.float64).T
        if translation is not None:
            v = v + np.asarray(translation, dtype=np.float64)
        if scale is not None:
            v = v * float(scale)
        return TriangleMesh(v, self.faces)

    def submesh(self, vertex_indices):
        """Mesh restricted to ``vertex_indices`` and the faces fully inside it.

        Returns
        -------
        mesh : TriangleMesh
            The restricted mesh; vertex order follows ``vertex_indices``.
        orig_ids : (k,) ndarray
            For each new vertex, its index in the parent mesh.
        """
        keep = np.unique(np.asarray(vertex_indices, dtype=np.int64))
        if keep.size and (keep[0] < 0 or keep[-1] >= self.n_vertices):
            raise ContractError("submesh index out of range")
        remap = np.full(self.n_vertices, -1, dtype=np.int64)
        remap[keep] = np.arange(keep.size)
        inside = (remap[self.faces] >= 0).all(axis=1)
        return TriangleMesh(self.vertices[keep], remap[self.faces[inside]]), keep

    def __repr__(self):
        return f"TriangleMesh({self.n_vertices} vertices, {self.n_faces} faces)"


@dataclass(frozen=True)
class PointCloud:
    """Bare set of 3D points (mm)."""

    points: np.ndarray

    def __post_init__(self):
        pts = _as_points(self.points, "points")
        if len(pts) == 0:
            raise ContractError("point cloud is empty")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return len(self.points)


def row_dot(a, b):
    """Row-wise dot products of two stacks of vectors.

    Stacked ``matmul`` rounds like the 1-D ``@``; ``einsum`` and
    ``norm(axis=1)`` do not, and would move the last bit of results
    that must replay.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


# KD-tree queries of fewer points than this run on one thread: below it,
# starting the worker threads costs more than they save. Measured on a
# 2-vCPU VM (scipy 1.17) with `register --all-metrics` on elliptical
# disc_plate pairs, every query forced to one thread or to all cores,
# alternating, median of 5-9 runs (all-cores time / one-thread time):
# 1.1-1.6 at 2,451 points, 1.5 at 2,776, 0.9-1.2 at 3,004, 0.76-0.89 at
# 3.5k-4.5k, 0.77 at 5,001 and 0.55 at 10,012.
_KD_PARALLEL_MIN_POINTS = 3000


def kd_workers(n_queries):
    """``workers`` for a cKDTree query of ``n_queries`` points (1 or all cores)."""
    return 1 if n_queries < _KD_PARALLEL_MIN_POINTS else -1


@dataclass(frozen=True)
class VertexMask:
    """Set of vertex indices to exclude from (or select in) a mesh."""

    indices: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "indices", frozenset(int(i) for i in self.indices))

    def validate(self, mesh):
        if self.indices and (min(self.indices) < 0 or max(self.indices) >= mesh.n_vertices):
            raise ContractError("mask index out of range for mesh")

    def as_array(self):
        return np.asarray(sorted(self.indices), dtype=np.int64)

    def __len__(self):
        return len(self.indices)


def connected_components(mesh, removed=None):
    """Partition the unmasked vertices into connected sets of the edge graph.

    Parameters
    ----------
    mesh : TriangleMesh
    removed : VertexMask, optional
        Vertices to delete (with their incident edges) before labelling.

    Returns
    -------
    list of ndarray
        Vertex-index sets, sorted by size descending; ties broken by the
        smallest contained index so the result is deterministic.
    """
    n = mesh.n_vertices
    alive = np.ones(n, dtype=bool)
    if removed is not None:
        removed.validate(mesh)
        if removed.indices:
            alive[removed.as_array()] = False
    if not alive.any():
        return []
    from scipy.sparse import coo_matrix, csgraph

    e = mesh.edges
    keep = alive[e[:, 0]] & alive[e[:, 1]]
    sub = coo_matrix(
        (np.ones(keep.sum()), (e[keep, 0], e[keep, 1])), shape=(n, n)
    )
    _, labels = csgraph.connected_components(sub, directed=False)
    ids = np.flatnonzero(alive)
    lab = labels[ids]
    order = np.argsort(lab, kind="stable")  # stable: each component stays ascending
    comps = np.split(ids[order], np.flatnonzero(np.diff(lab[order])) + 1)
    comps.sort(key=lambda m: (-m.size, int(m[0])))
    return comps


def shortest_path(mesh, start, goal):
    """Vertex path with minimum summed Euclidean edge length.

    Endpoints are included; ``start == goal`` yields a single-element path.
    This is one pair of :func:`shortest_paths`.

    Raises
    ------
    DisconnectedError
        If the two vertices lie in different components.
    """
    path = shortest_paths(mesh, [start], [goal])[0][0]
    if path is None:
        raise DisconnectedError(f"vertices {int(start)} and {int(goal)} are not connected")
    return path


# Entries of the dense (sources, vertices) distance and predecessor arrays
# that one search of shortest_paths allocates: 2**21 is 24 MB (float64 and
# int32), 39 sources at a time on a 53k-vertex rough plate.
_SEARCH_ELEMENTS = 2 ** 21


def shortest_paths(mesh, starts, goals):
    """The shortest path from each ``starts[i]`` to ``goals[i]``, endpoints
    included (None where the two lie in different components), and how many
    pairs were searched again without a bound.

    Edge weights are Euclidean lengths, so no path is shorter than its
    pair's straight-line gap. The pairs, sorted by gap, are searched in
    chunks: one directed ``csgraph.dijkstra`` (the adjacency is symmetric,
    so it finds the undirected paths) from every start of a chunk, bounded
    at twice the chunk's largest gap. A chunk holds the pairs whose gaps
    lie within a factor of 2 of its first, so that no search reaches much
    further than its own pair needs, and at most ``_SEARCH_ELEMENTS`` // n
    of them, so that its dense (sources, n) arrays stay small. A goal
    beyond its chunk's bound is searched again, from its own start,
    without one. An endpoint outside the mesh is a contract error.
    """
    from scipy.sparse import csgraph

    n = mesh.n_vertices
    starts, goals = np.asarray(starts, dtype=np.int64), np.asarray(goals, dtype=np.int64)
    if not ((starts >= 0) & (starts < n) & (goals >= 0) & (goals < n)).all():
        raise ContractError("path endpoint out of range")
    step = mesh.vertices[goals] - mesh.vertices[starts]
    gap = np.sqrt(row_dot(step, step))
    order = np.argsort(gap, kind="stable")
    rows = max(1, _SEARCH_ELEMENTS // max(n, 1))
    paths = [None] * len(starts)
    reruns = 0
    first = 0
    while first < len(order):
        sized = order[first:first + rows]
        chunk = sized[:np.searchsorted(gap[sized], 2.0 * gap[sized[0]], "right")]
        first += len(chunk)
        dist, pred = csgraph.dijkstra(mesh.adjacency, directed=True, indices=starts[chunk],
                                      return_predecessors=True, limit=2.0 * gap[chunk[-1]])
        for row, i in enumerate(chunk.tolist()):
            a, b = int(starts[i]), int(goals[i])
            tree = pred[row]
            if not np.isfinite(dist[row, b]):
                reruns += 1
                again, tree = csgraph.dijkstra(mesh.adjacency, directed=True, indices=a,
                                               return_predecessors=True, limit=np.inf)
                if not np.isfinite(again[b]):
                    continue
            path = [b]
            while path[-1] != a:
                path.append(int(tree[path[-1]]))
            paths[i] = path[::-1]
        del dist, pred, tree  # before the next chunk's arrays are allocated
    return paths, reruns


def weld_vertices(mesh, tolerance=1e-6):
    """Merge vertices closer than ``tolerance`` mm (photogrammetric seams).

    The representative of each group is its lowest-index member; vertex
    order of the survivors is preserved. Faces that collapse to fewer than
    three distinct vertices are dropped. ``tolerance`` must be finite and
    positive, and large enough that every lattice key ``v / tolerance``
    fits in int64.
    """
    v = mesh.vertices
    if not 0 < tolerance < np.inf:
        raise ContractError(f"weld tolerance must be finite and positive, got {tolerance!r}")
    if not np.abs(v).max(initial=0.0) / tolerance < 2.0 ** 63:
        raise ContractError(f"weld tolerance {tolerance!r} puts the lattice keys beyond int64")
    # Snap to a tolerance lattice; exact-duplicate welding is the common case.
    key = np.round(v / tolerance).astype(np.int64)
    _, first, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    new_index = rank[inverse]
    survivors = v[np.sort(first)]
    faces = new_index[mesh.faces]
    ok = (
        (faces[:, 0] != faces[:, 1])
        & (faces[:, 1] != faces[:, 2])
        & (faces[:, 2] != faces[:, 0])
    )
    return TriangleMesh(survivors, faces[ok])
