"""Shape features measured against the symmetry frame.

Three diagnostics: horizontal contour lines of each plate, the signed
vertical asymmetry between sound board and back on their joint grid, and
the channel of minima, the concave groove running near a plate's outer
contour whose trace relative to the contour flags historical re-cutting.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline, splev, splprep

from .errors import ContractError, GridMismatchError
from .fileio import FLOAT_FORMAT, save_csv, save_json, save_polylines_csv
from .grid import HeightGrid, save_height_grid
from .mesh import row_dot
from .slicing import cross_sections, sections_near

__all__ = [
    "ContourLineSet",
    "AsymmetryField",
    "ChannelTrace",
    "contour_lines",
    "asymmetry_field",
    "channel_of_minima",
]


@dataclass(frozen=True)
class ContourLineSet:
    """Per-level section polylines of one plate.

    Sound-board levels are positive (continuous-line convention), back
    levels negative (dashed). ``levels`` is strictly increasing and
    matches ``polylines`` one-to-one.
    """

    levels: tuple
    polylines: tuple  # tuple of lists of SectionPolyline
    spacing: float
    base_level: float
    side: str

    def __post_init__(self):
        if len(self.levels) != len(self.polylines):
            raise ContractError("levels and polylines length mismatch")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ContractError("levels must be strictly increasing")

    def __len__(self):
        return len(self.levels)


def contour_lines(plate, spacing=2.0, max_range=24.0, base=None, counters=None):
    """Horizontal sections of a plate every ``spacing`` mm.

    The plate must sit in the symmetry frame (``frame.apply_plate``).
    Levels run away from the symmetry plane: upward for the sound
    board, downward for the back, starting at the lattice level closest
    to the plane (or the explicit ``base``) and covering at most
    ``max_range`` mm. ``counters``, a dict, receives ``planes`` and
    ``pairs_visited``, the (plane, face) pairs the cut tested.
    """
    if not spacing > 0:
        raise ContractError("level spacing must be positive")
    if not max_range >= 0:
        raise ContractError("level range must not be negative")
    mesh = plate.mesh
    z_lo = float(mesh.vertices[:, 2].min())
    z_hi = float(mesh.vertices[:, 2].max())

    if plate.side == "sound_board":
        if base is None:
            base = spacing * np.ceil(z_lo / spacing)
        stop = min(z_hi, base + max_range)
        levels = np.arange(base, stop + spacing * 1e-9, spacing)
        levels = levels[(levels > z_lo) & (levels < z_hi)]
    else:
        if base is None:
            base = spacing * np.floor(z_hi / spacing)
        stop = max(z_lo, base - max_range)
        levels = np.arange(base, stop - spacing * 1e-9, -spacing)
        levels = levels[(levels > z_lo) & (levels < z_hi)][::-1]

    kept_levels = []
    kept_polys = []
    sections = cross_sections(mesh, np.tile(np.eye(3)[2], (len(levels), 1)), levels)
    if counters is not None:
        counters.update(planes=len(levels), pairs_visited=sections.pairs_visited)
    for i, level in enumerate(levels):
        polys = sections.polylines(i)
        if polys:
            kept_levels.append(float(level))
            kept_polys.append(polys)
    if not kept_levels:
        warnings.warn(
            f"plate spans less than one level spacing ({spacing} mm), no contour lines",
            stacklevel=2,
        )
    return ContourLineSet(
        levels=tuple(kept_levels),
        polylines=tuple(kept_polys),
        spacing=float(spacing),
        base_level=float(base),
        side=plate.side,
    )


@dataclass(frozen=True)
class AsymmetryField:
    """Signed vertical asymmetry on the joint plate grid.

    Positive values mean the sound board sits further from the symmetry
    plane than the back. ``histogram`` bins the absolute values with a
    0.25 mm pitch.
    """

    grid: HeightGrid
    stats: dict
    histogram_edges: np.ndarray
    histogram_counts: np.ndarray
    excluded_nodes: int = 0


def asymmetry_field(sound_board_grid, back_grid, z_bar, bin_width=0.25):
    """Per-node difference of the two plates' distances from the plane.

    At each node valid in both grids and satisfying the sign assumption
    (sound board above ``z_bar``, back below), the asymmetry is
    ``(sb - z_bar) - |b - z_bar|``, identically ``2 (midpoint - z_bar)``.
    Nodes violating the assumption are excluded with a warning.
    """
    if not sound_board_grid.compatible_with(back_grid):
        raise GridMismatchError("sound-board and back grids do not share a lattice")
    sb = sound_board_grid.values
    bk = back_grid.values
    joint = sound_board_grid.valid & back_grid.valid
    bad = joint & ~((sb > z_bar) & (bk < z_bar))
    n_bad = int(bad.sum())
    if n_bad:
        warnings.warn(
            f"{n_bad} nodes violate the sign assumption "
            "(plate on the wrong side of the symmetry plane); excluded",
            stacklevel=2,
        )
    ok = joint & ~bad
    values = np.full(sb.shape, np.nan)
    values[ok] = (sb[ok] - z_bar) - np.abs(bk[ok] - z_bar)
    a = values[ok]
    if a.size:
        stats = {
            "count": int(a.size),
            "mean": float(a.mean()),
            "min": float(a.min()),
            "max": float(a.max()),
            "mean_abs": float(np.abs(a).mean()),
            "max_abs": float(np.abs(a).max()),
            "stddev": float(a.std()),
        }
        top = max(np.abs(a).max(), bin_width)
        edges = np.arange(0.0, top + bin_width, bin_width)
        counts, edges = np.histogram(np.abs(a), bins=edges)
    else:
        stats = {"count": 0}
        edges = np.array([0.0, bin_width])
        counts = np.array([0])
    return AsymmetryField(
        grid=HeightGrid(sound_board_grid.origin, sound_board_grid.spacing, values),
        stats=stats,
        histogram_edges=edges,
        histogram_counts=counts,
        excluded_nodes=n_bad,
    )


@dataclass(frozen=True)
class ChannelTrace:
    """Raw channel minima and their smoothed spline approximation."""

    points: np.ndarray           # raw minima, one per detected station
    arc_lengths: np.ndarray      # station position along the contour spline
    inward_offsets: np.ndarray   # distance from the tangent point, in [0, w]
    smoothed_points: np.ndarray
    contour_points: np.ndarray   # tangent points of the detected stations
    no_channel: bool
    stations_total: int
    stations_skipped: int

    def __post_init__(self):
        for name in ("points", "arc_lengths", "inward_offsets",
                     "smoothed_points", "contour_points"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _periodic_spline(points):
    """Chord-length periodic cubic spline through a closed 3D polygon."""
    pts = np.asarray(points, dtype=np.float64)
    keep = [0]
    for i in range(1, len(pts)):
        if np.linalg.norm(pts[i] - pts[keep[-1]]) > 1e-12:
            keep.append(i)
    while len(keep) > 1 and np.linalg.norm(pts[keep[-1]] - pts[0]) <= 1e-12:
        keep.pop()  # a last point on the first would close with a zero-length segment
    pts = pts[keep]
    if len(pts) < 4:
        raise ContractError("contour too short for a cubic spline")
    closed = np.vstack([pts, pts[:1]])
    seg = np.linalg.norm(np.diff(closed, axis=0), axis=1)
    t = np.concatenate([[0.0], np.cumsum(seg)])
    return CubicSpline(t, closed, axis=0, bc_type="periodic"), t[-1]


def _stations(spline, station_t, centroid_xy):
    """The section planes of the channel stations at spline parameters ``station_t``.

    Returns which stations are kept (those with a nonzero horizontal
    tangent) and, per kept station, its centre on the contour, the unit
    normal and offset of its vertical plane perpendicular to the contour,
    and its horizontal inward direction (towards ``centroid_xy``).
    """
    centres = spline(station_t)
    tau = spline(station_t, 1)[:, :2]
    norm = np.sqrt(row_dot(tau, tau))
    kept = norm >= 1e-12
    centres, tau = centres[kept], tau[kept] / norm[kept, None]
    inward = np.column_stack([-tau[:, 1], tau[:, 0]])
    inward[row_dot(inward, centroid_xy - centres[:, :2]) < 0] *= -1.0
    normals = np.column_stack([tau, np.zeros(len(tau))])
    return kept, centres, normals, row_dot(tau, centres[:, :2]), inward


def _pick(sections, centres, inward, window_mm, top):
    """Station ``i``'s search window on plane ``i`` of ``sections``.

    ``top`` is ``np.fmin`` (lowest point) or ``np.fmax`` (highest). Returns,
    per station, the size of its cut, how many window points reach the
    extreme z, and the first of them with its inward offset (zeros where
    the window is empty).
    """
    points, starts = sections.points, sections.point_starts()
    n = len(starts) - 1
    # one matrix-vector product per station over its own cut: the offsets
    # keep the bits of that product (a row-wise dot rounds differently)
    offsets = np.concatenate([np.empty(0)] + [
        (points[a:b, :2] - c[:2]) @ u
        for a, b, c, u in zip(starts[:-1].tolist(), starts[1:].tolist(), centres, inward)])
    station = np.repeat(np.arange(n), np.diff(starts))
    inside = (offsets >= 0.0) & (offsets <= window_mm)
    extreme = np.full(n, np.nan)
    top.at(extreme, station[inside], points[inside, 2])
    hits = np.flatnonzero(inside & (points[:, 2] == extreme[station]))
    ties = np.bincount(station[hits], minlength=n)
    # hits run station after station, so each station's first hit sits
    # where the counts of the stations before it end
    found = ties > 0
    first = hits[(np.cumsum(ties) - ties)[found]]
    best, depth = np.zeros((n, 3)), np.zeros(n)
    best[found], depth[found] = points[first], offsets[first]
    return np.diff(starts), ties, best, depth


def channel_of_minima(plate, window_mm=15.0, stations=400, smoothing_rms_mm=0.5,
                      counters=None):
    """Trace the groove of extremal height running near the plate contour.

    The plate must sit in the symmetry frame (``frame.apply_plate``). At
    ``stations`` equally spaced arc-length stations of the contour spline,
    a vertical section perpendicular to the contour tangent is cut and
    searched inward over ``window_mm`` for the lowest point (highest for
    the back). A station is skipped, with a warning, when its section is
    empty. The trace is declared ``no_channel`` when more than half of the
    minima sit at the search window's boundary (nothing concave to find).
    ``smoothing_rms_mm`` caps the rms deviation of the smoothed trace from
    the raw minima.

    Each station is cut from the faces near its window only
    (:func:`~violinmorph.slicing.sections_near`), which holds every window
    point with its full-cut bytes. It is cut again across the whole plate
    when that cut could pick differently: when it is crowded (a merge of
    near points may have dropped a point), when the extreme z is reached
    by more than one window point (the full cut's chain order breaks the
    tie), or when no point lies in the window (the warning says whether
    the section is empty). ``counters``, a dict, receives
    ``stations_cut``, ``pairs_visited`` (the (plane, face) pairs tested)
    and ``full_cut_stations``.
    """
    if not (window_mm > 0 and stations >= 8):
        raise ContractError("window must be positive and stations >= 8")
    if not smoothing_rms_mm >= 0:
        raise ContractError(f"smoothing_rms_mm must be >= 0, got {smoothing_rms_mm!r}")
    mesh = plate.mesh
    spline, total_len = _periodic_spline(plate.contour_points())
    centroid_xy = mesh.vertices[:, :2].mean(axis=0)
    mean_edge = float(mesh.edge_lengths.mean())
    edge_tol = max(mean_edge, 0.05 * window_mm)
    top = np.fmin if plate.side == "sound_board" else np.fmax

    # equal arc-length stations via dense resampling of the spline
    dense_t = np.linspace(0.0, total_len, 10 * stations + 1)
    dense = spline(dense_t)
    seg = np.linalg.norm(np.diff(dense, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    arc_total = float(arc[-1])
    targets = np.linspace(0.0, arc_total, stations, endpoint=False)
    kept, centres, normals, offsets, inward = _stations(
        spline, np.interp(targets, arc, dense_t), centroid_xy)
    targets = targets[kept]

    sections = sections_near(mesh, normals, offsets, centres[:, :2], window_mm)
    sizes, ties, minima, depths = _pick(sections, centres, inward, window_mm, top)
    redo = np.flatnonzero(sections.crowded_planes | (ties != 1))
    pairs = sections.pairs_visited
    if len(redo):
        full = cross_sections(mesh, normals[redo], offsets[redo])
        pairs += full.pairs_visited
        sizes[redo], ties[redo], minima[redo], depths[redo] = _pick(
            full, centres[redo], inward[redo], window_mm, top)
    if counters is not None:
        counters.update(stations_cut=len(targets), pairs_visited=pairs,
                        full_cut_stations=len(redo))

    found = ties > 0
    for i in np.flatnonzero(~found).tolist():
        what = "no interior points in window" if sizes[i] else "empty channel section"
        warnings.warn(f"{what} at arc length {targets[i]:.1f}", stacklevel=2)
    detected = int(found.sum())
    if detected < 4:
        raise ContractError(f"only {detected} channel stations detected out of {stations}")
    minima, depths, arcs = minima[found], depths[found], targets[found]
    at_edge = np.count_nonzero((depths < edge_tol) | (depths > window_mm - edge_tol))
    no_channel = at_edge * 2 > len(minima)

    smooth_cap = len(minima) * smoothing_rms_mm ** 2
    closed = np.vstack([minima, minima[:1]])
    u = np.append(arcs, arc_total)
    u = (u - u[0]) / (u[-1] - u[0])
    tck, _ = splprep(closed.T, u=u, s=smooth_cap, per=1)
    smoothed = np.asarray(splev(u[:-1], tck)).T

    return ChannelTrace(
        points=minima,
        arc_lengths=arcs,
        inward_offsets=depths,
        smoothed_points=smoothed,
        contour_points=centres[found],
        no_channel=bool(no_channel),
        stations_total=stations,
        stations_skipped=len(kept) - detected,
    )


# ---------------------------------------------------------------------------
# artifact export

def save_contour_lines(lineset, out_dir, stem):
    """Layered CSVs (one per level) plus a JSON index; returns their paths."""
    index = {"side": lineset.side, "spacing_mm": lineset.spacing,
             "base_level_mm": lineset.base_level, "levels": []}
    paths = []
    for level, polys in zip(lineset.levels, lineset.polylines):
        fname = f"{stem}_level_{level:+.3f}.csv".replace("+", "p").replace("-", "m")
        paths.append(out_dir / fname)
        save_polylines_csv(polys, paths[-1])
        index["levels"].append({"level_mm": level, "file": fname})
    paths.append(out_dir / f"{stem}_index.json")
    save_json(index, paths[-1])
    return paths


def save_asymmetry(field, out_dir, stem):
    """Grid CSV + JSON header, stats JSON and histogram CSV; returns their paths."""
    paths = [out_dir / f"{stem}_{suffix}"
             for suffix in ("grid.csv", "grid.json", "stats.json", "histogram.csv")]
    grid_csv, grid_json, stats_json, histogram_csv = paths
    save_height_grid(field.grid, grid_csv, grid_json)
    save_json({"stats_mm": field.stats, "excluded_nodes": field.excluded_nodes}, stats_json)
    edges = field.histogram_edges
    save_csv(histogram_csv, np.column_stack([edges[:-1], edges[1:], field.histogram_counts]),
             header="bin_lo_mm,bin_hi_mm,count", fmt=[FLOAT_FORMAT, FLOAT_FORMAT, "%d"])
    return paths


def save_channel(trace, path):
    save_csv(path, np.column_stack([trace.arc_lengths, trace.points, trace.smoothed_points,
                                    trace.inward_offsets]),
             header="arc_length_mm,x,y,z,smoothed_x,smoothed_y,smoothed_z,inward_offset_mm")
