import numpy as np
import pytest

from violinmorph.mesh import TriangleMesh
from violinmorph.synthetic import disc_plate, reduced_pair


@pytest.fixture
def cube():
    verts = np.array([
        [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
        [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
    ], dtype=float)
    faces = [
        [0, 2, 1], [0, 3, 2],
        [4, 5, 6], [4, 6, 7],
        [0, 1, 5], [0, 5, 4],
        [1, 2, 6], [1, 6, 5],
        [2, 3, 7], [2, 7, 6],
        [3, 0, 4], [3, 4, 7],
    ]
    return TriangleMesh(verts, faces)


def grid_mesh(nx, ny, spacing=1.0, height=None):
    """Rectangular grid split into triangles; z from ``height(x, y)`` if given."""
    xs, ys = np.meshgrid(np.arange(nx) * spacing, np.arange(ny) * spacing,
                         indexing="ij")
    z = np.zeros_like(xs) if height is None else height(xs, ys)
    verts = np.column_stack([xs.ravel(), ys.ravel(), z.ravel()])
    faces = []
    for i in range(nx - 1):
        for j in range(ny - 1):
            a = i * ny + j
            b = a + ny
            faces.append([a, b, b + 1])
            faces.append([a, b + 1, a + 1])
    return TriangleMesh(verts, faces)


def unit_plane(normal, offset):
    """The plane ``normal . q = offset`` as a unit normal and its offset:
    a normal that is not unit length within 1e-12 is divided by its norm,
    and so is the offset."""
    n, offset = np.asarray(normal, dtype=np.float64).reshape(3), float(offset)
    norm = np.linalg.norm(n)
    if abs(norm - 1.0) > 1e-12:
        n, offset = n / norm, offset / norm
    return n, offset


def axis_plane(axis, value):
    """The plane orthogonal to coordinate ``axis`` at ``value``."""
    return np.eye(3)["xyz".index(axis)], float(value)


def write_without_faces(mesh_path, cloud_path, n_vertices):
    """Copy a PLY written by ``save_mesh`` without its face element."""
    head, body = mesh_path.read_bytes().split(b"end_header\n", 1)
    head = b"".join(line for line in head.splitlines(keepends=True)
                    if not line.startswith((b"element face", b"property list")))
    if b"format ascii" in head:
        body = b"".join(body.splitlines(keepends=True)[:n_vertices])
    else:
        body = body[:24 * n_vertices]  # three little-endian doubles per vertex
    cloud_path.write_bytes(head + b"end_header\n" + body)


@pytest.fixture
def plane_grid():
    return grid_mesh(8, 8)


@pytest.fixture(scope="session")
def reduction_fixture():
    """Unreduced plate, its slice-reduced counterpart, and an independent
    resampling of the unreduced surface at matched density."""
    unreduced, reduced = reduced_pair(rings=100, sectors=360)
    resampled = disc_plate(radius=50.0, height=12.0, rings=100, sectors=360,
                           groove_radius=40.0, jitter=0.6,
                           rng=np.random.default_rng(7))
    return unreduced, reduced, resampled
