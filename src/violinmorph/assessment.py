"""Error-distribution reporting and cross-object comparison.

Point-wise nearest-neighbour distances from a registered reference cloud,
their histogram and above-threshold fraction, plus the sampling-floor
heuristic: two independent samplings of one surface cannot be expected to
agree much below a third of the mean edge length, which calibrates how
good a registration result actually is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .fileio import save_csv
from .mesh import PointCloud
from .registration import SimilarityTransform, _nn_displacement, register

__all__ = [
    "ErrorDistribution",
    "error_distribution",
    "sampling_floor",
    "cross_compare",
    "histogram",
]


@dataclass(frozen=True)
class ErrorDistribution:
    """Per-reference-point NN distances with summary statistics.

    ``mean`` equals the point-to-point metric on the same cloud pair by
    construction. ``positions`` are the reference points, for heat-map
    export alongside ``distances``.
    """

    distances: np.ndarray
    positions: np.ndarray
    mean: float
    threshold: float
    fraction_above: float
    histogram_edges: np.ndarray
    histogram_counts: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.fraction_above <= 1.0:
            raise ContractError("fraction above threshold must lie in [0, 1]")
        for name in ("distances", "positions", "histogram_edges", "histogram_counts"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def fraction_above_threshold(self, t):
        return float(np.mean(self.distances > t))

    def as_dict(self):
        return {
            "mean_mm": self.mean,
            "threshold_mm": self.threshold,
            "fraction_above_threshold": self.fraction_above,
            "count": int(len(self.distances)),
            "histogram": {
                "bin_edges_mm": self.histogram_edges.tolist(),
                "counts": self.histogram_counts.tolist(),
            },
        }


def error_distribution(s, p, threshold=2.0, bin_width=0.1, distances=None):
    """Exact NN distance of every reference point into ``p``.

    The clouds are assumed registered already. Histogram bins are
    ``bin_width`` mm wide starting at zero. ``distances`` takes NN
    distances already computed for this pair (a registration report's);
    ``p`` is then not queried and may be None.
    """
    if not 0 < bin_width < np.inf:
        raise ContractError(f"bin_width must be finite and > 0, got {bin_width!r}")
    if not threshold >= 0:
        raise ContractError(f"threshold must be >= 0, got {threshold!r}")
    if distances is None:
        diff = _nn_displacement(s.points, p.points)
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    else:
        dist = np.asarray(distances, dtype=np.float64)
        if dist.shape != (len(s),):
            raise ContractError("distances must hold one value per reference point")
    counts, edges = histogram(dist, bin_width)
    return ErrorDistribution(
        distances=dist,
        positions=s.points,
        mean=float(np.mean(dist)),
        threshold=float(threshold),
        fraction_above=float(np.mean(dist > threshold)),
        histogram_edges=edges,
        histogram_counts=counts,
    )


def histogram(values, bin_width):
    """Counts of the non-negative ``values`` in ``bin_width`` bins from zero,
    the last edge at or above the maximum, so that every value is counted."""
    top = max(float(values.max(initial=0.0)), bin_width)
    edges = np.arange(0.0, top + bin_width, bin_width)
    while edges[-1] < top:  # arange's rounding can stop one bin short
        edges = np.append(edges, edges[-1] + bin_width)
    return np.histogram(values, bins=edges)


def sampling_floor(mesh):
    """Heuristic lower bound on D between independent samplings: mean edge / 3.

    A diagnostic, not a theorem; report it next to measured distances to
    judge whether a match is close to the best achievable.
    """
    if len(mesh.edges) == 0:
        raise ContractError("mesh has no edges")
    return float(mesh.edge_lengths.mean()) / 3.0


def cross_compare(a, b, fixed_scales=(1.0, 1.0), threshold=2.0, **register_kwargs):
    """Register two plates from different objects, scale frozen.

    Both clouds get their externally supplied scale factor first; the
    optimizer then runs without scaling (comparing differently sized
    objects with a free K would flatter the result). Returns the
    registration report and the full error distribution.
    """
    k_a, k_b = fixed_scales
    s = PointCloud(a.mesh.vertices * float(k_a))
    p = PointCloud(b.mesh.vertices * float(k_b))
    report = register(s, p, metric="point_to_point", allow_scale=False,
                      init=SimilarityTransform.identity(), **register_kwargs)
    dist = error_distribution(s, None, threshold=threshold, distances=report.distances)
    return report, dist


def save_heatmap_csv(distribution, path):
    """Heat-map data: x, y, z of each reference point and its NN distance."""
    save_csv(path, np.column_stack([distribution.positions, distribution.distances]),
             header="x,y,z,distance_mm")

