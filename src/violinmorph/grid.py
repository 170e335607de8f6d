"""Regular horizontal height grids sampled by vertical intersection.

Each node of a 1 mm x 1 mm (by default) lattice carries the z of the
mesh face a vertical line through the node hits; nodes that miss the mesh
are invalid. Grid differences give a vertex-placement-insensitive check
of simplification fidelity, and the same grids feed the symmetry offset
and the asymmetry field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, GridMismatchError
from .fileio import save_csv, save_json
from .mesh import row_dot

__all__ = [
    "HeightGrid",
    "interpolate_grid",
    "grid_difference_stats",
    "joint_grid_domain",
    "save_height_grid",
    "load_height_grid",
]

_CHUNK_NODES = 4096  # candidate nodes rasterized per batch in interpolate_grid


@dataclass(frozen=True)
class HeightGrid:
    """Heights on a regular horizontal lattice.

    ``values[i, j]`` is the height at ``(origin[0] + i * spacing,
    origin[1] + j * spacing)``; NaN marks invalid nodes.
    """

    origin: np.ndarray
    spacing: float
    values: np.ndarray

    def __post_init__(self):
        o = np.asarray(self.origin, dtype=np.float64).reshape(2)
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ContractError("grid values must be 2-D")
        if not self.spacing > 0:
            raise ContractError("grid spacing must be positive")
        if np.isinf(v).any():
            raise ContractError("grid values contain infinities")
        o.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "spacing", float(self.spacing))
        object.__setattr__(self, "values", v)

    @property
    def valid(self):
        return ~np.isnan(self.values)

    @property
    def shape(self):
        return self.values.shape

    def node_xy(self):
        """Node coordinates as two arrays shaped like ``values``."""
        nx, ny = self.values.shape
        xs = self.origin[0] + self.spacing * np.arange(nx)
        ys = self.origin[1] + self.spacing * np.arange(ny)
        return np.meshgrid(xs, ys, indexing="ij")

    def compatible_with(self, other):
        return (
            self.shape == other.shape
            and abs(self.spacing - other.spacing) <= 1e-12
            and np.all(np.abs(self.origin - other.origin) <= 1e-9)
        )


def joint_grid_domain(meshes, spacing=1.0):
    """Lattice origin and shape covering the xy-footprint of all meshes."""
    if not spacing > 0:
        raise ContractError("grid spacing must be positive")
    lo = np.min([m.vertices[:, :2].min(axis=0) for m in meshes], axis=0)
    hi = np.max([m.vertices[:, :2].max(axis=0) for m in meshes], axis=0)
    origin = np.ceil(lo / spacing) * spacing
    shape = tuple(int(math.floor((hi[k] - origin[k]) / spacing)) + 1 for k in (0, 1))
    if shape[0] < 1 or shape[1] < 1:
        raise ContractError("mesh footprint smaller than one grid cell")
    return origin, shape


def interpolate_grid(mesh, spacing=1.0, side="upper", origin=None, shape=None):
    """Vertically interpolated heights of an oriented mesh.

    For every lattice node, a vertical line is intersected with the mesh
    and the z of the hit face's plane at (x, y) is stored. When several
    faces are hit (overhangs near curled edges), the largest z wins for
    ``side="upper"`` and the smallest for ``side="lower"``. Faces seen
    edge-on (vertical) carry no height and are ignored.

    ``origin`` and ``shape``, given together, override the default
    lattice (snapped to spacing multiples over the mesh footprint), e.g.
    to share one lattice between two plates; ``origin`` must then be two
    finite coordinates and ``shape`` two integers >= 1.
    """
    if side not in ("upper", "lower"):
        raise ContractError(f"side must be 'upper' or 'lower', got {side!r}")
    if (origin is None) != (shape is None):
        raise ContractError("grid origin and shape must be given together or not at all")
    if origin is None:
        origin, shape = joint_grid_domain([mesh], spacing)
    elif not spacing > 0:
        raise ContractError("grid spacing must be positive")
    elif not (np.shape(shape) == (2,) and all(isinstance(k, (int, np.integer)) and k >= 1
                                                  for k in shape)):
        raise ContractError(f"grid shape must be two integers >= 1, got {tuple(shape)}")
    elif not (np.shape(origin) == (2,) and np.isfinite(origin).all()):
        raise ContractError("grid origin must be two finite coordinates")
    origin, shape = np.asarray(origin, dtype=np.float64), tuple(shape)
    nx, ny = shape

    values = np.full(nx * ny, -np.inf if side == "upper" else np.inf)
    take = np.maximum if side == "upper" else np.minimum

    # Per-face set-up, batched; the per-node arithmetic below repeats the
    # scalar loop's operations in the same order, so the grid is bit-exact.
    tri = mesh.vertices[mesh.faces]
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    n = np.cross(b - a, c - a)
    # row_dot rounds like the scalar loop's 1-D norm; norm(axis=1) does not
    tilted = ~(np.abs(n[:, 2]) < 1e-12 * np.sqrt(row_dot(n, n)))
    lo = (np.minimum(np.minimum(a[:, :2], b[:, :2]), c[:, :2]) - origin) / spacing
    hi = (np.maximum(np.maximum(a[:, :2], b[:, :2]), c[:, :2]) - origin) / spacing
    ij0 = np.clip(np.ceil(lo - 1e-12), 0, shape).astype(np.int64)
    ij1 = np.clip(np.floor(hi + 1e-12), -1, np.subtract(shape, 1)).astype(np.int64)
    d00 = b[:, :2] - a[:, :2]
    d01 = c[:, :2] - a[:, :2]
    denom = d00[:, 0] * d01[:, 1] - d00[:, 1] * d01[:, 0]
    keep = tilted & (ij0 <= ij1).all(axis=1) & ~(np.abs(denom) < 1e-30)
    a, n, d00, d01, denom = a[keep], n[keep], d00[keep], d01[keep], denom[keep]
    i0, j0 = ij0[keep].T
    ni, nj = (ij1[keep] - ij0[keep] + 1).T
    counts = ni * nj
    ends = np.cumsum(counts)

    # Rasterize whole faces in chunks of about _CHUNK_NODES candidate
    # nodes (at least one face each) to bound the temporaries.
    start = 0
    while start < len(counts):
        base = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + _CHUNK_NODES, side="right")))
        cnt = counts[start:stop]
        f = np.repeat(np.arange(start, stop), cnt)
        r = np.arange(ends[stop - 1] - base) - np.repeat(ends[start:stop] - cnt - base, cnt)
        i = i0[f] + r // nj[f]
        j = j0[f] + r % nj[f]
        px = origin[0] + spacing * i
        py = origin[1] + spacing * j
        af, nf = a[f], n[f]
        qx = px - af[:, 0]
        qy = py - af[:, 1]
        w1 = (qx * d01[f, 1] - qy * d01[f, 0]) / denom[f]
        w2 = (qy * d00[f, 0] - qx * d00[f, 1]) / denom[f]
        inside = (w1 >= -1e-12) & (w2 >= -1e-12) & (w1 + w2 <= 1 + 1e-12)
        z = af[:, 2] + ((af[:, 0] - px) * nf[:, 0] + (af[:, 1] - py) * nf[:, 1]) / nf[:, 2]
        # ufunc.at applies repeated nodes in face order, as the loop did
        take.at(values, (i * ny + j)[inside], z[inside])
        start = stop

    values = values.reshape(nx, ny)
    values[~np.isfinite(values)] = np.nan
    return HeightGrid(origin, spacing, values)


def grid_difference_stats(a, b):
    """Statistics of |dz| over the nodes valid in both grids.

    Returns a dict with max, mean, median, stddev (population) and the
    number of compared cells. Symmetric in (a, b).
    """
    if not a.compatible_with(b):
        raise GridMismatchError(
            f"grids differ: origin {a.origin.tolist()} vs {b.origin.tolist()}, "
            f"spacing {a.spacing} vs {b.spacing}, shape {a.shape} vs {b.shape}"
        )
    joint = a.valid & b.valid
    count = int(joint.sum())
    if count == 0:
        return {"max": math.nan, "mean": math.nan, "median": math.nan,
                "stddev": math.nan, "count": 0}
    dz = np.abs(a.values[joint] - b.values[joint])
    return {
        "max": float(dz.max()),
        "mean": float(dz.mean()),
        "median": float(np.median(dz)),
        "stddev": float(dz.std()),
        "count": count,
    }


def save_height_grid(grid, csv_path, header_path=None):
    """CSV matrix (rows = x index, NaN sentinels) plus a JSON header."""
    save_csv(csv_path, grid.values)
    if header_path is not None:
        save_json({"origin_mm": grid.origin.tolist(), "spacing_mm": grid.spacing,
                   "shape": list(grid.shape)}, header_path)


def load_height_grid(csv_path, header_path):
    with open(header_path) as fh:
        header = json.load(fh)
    values = np.loadtxt(csv_path, delimiter=",", ndmin=2)
    return HeightGrid(header["origin_mm"], header["spacing_mm"], values)
