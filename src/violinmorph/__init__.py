"""Mesh morphometry for bowed-instrument plates.

Pipeline: load and orient a scan, isolate the plate contours, register
point clouds under a 7-parameter similarity transform, assess errors and
simplification fidelity, estimate the symmetry plane, and extract contour
lines, the asymmetry field and the channel of minima.
"""

from .assessment import (
    ErrorDistribution,
    cross_compare,
    error_distribution,
    sampling_floor,
)
from .decimate import decimate
from .errors import MorphometryError
from .fileio import load_mesh, load_vertex_mask, save_mesh, save_vertex_mask
from .grid import HeightGrid, grid_difference_stats, interpolate_grid
from .isolation import (
    ClosedContour,
    PlateMesh,
    close_contour,
    isolate_plate,
    map_to_vertices,
    order_loop,
    rough_split,
)
from .mesh import (
    PointCloud,
    TriangleMesh,
    VertexMask,
    connected_components,
    shortest_path,
    weld_vertices,
)
from .morphology import (
    AsymmetryField,
    ChannelTrace,
    ContourLineSet,
    asymmetry_field,
    channel_of_minima,
    contour_lines,
)
from .orientation import PrincipalFrame, orient_to_frame, principal_frame
from .registration import (
    NormalField,
    RegistrationReport,
    SimilarityTransform,
    apply_transform,
    estimate_normals,
    pca_initial_transform,
    point_to_plane_sq,
    point_to_point,
    point_to_point_sq,
    register,
    register_icp,
)
from .slicing import (
    SectionPolyline,
    cross_section,
    cross_sections,
    extreme_points,
)
from .symmetry import (
    FittedPlane,
    SymmetryFrame,
    average_symmetry_plane,
    build_symmetry_frame,
    fit_plane_orthogonal,
)

__version__ = "0.1.0"
