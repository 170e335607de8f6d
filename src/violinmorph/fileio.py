"""Mesh, mask and text-artifact file I/O.

Supported carriers: PLY (ascii and binary little-endian; ``vertex`` element
with x/y/z scalar properties, optional ``face`` element with an integer
``vertex_indices`` list) and Wavefront OBJ (``v``/``f`` records only). Both
PLY encodings accept the same layouts, read by one record walker; a record
that does not match its header is a format error naming its line (ascii)
or byte offset (binary). A file without faces loads as a point cloud;
:func:`load_surface` rejects it. Vertex masks and contour files are plain
text, one decimal index per line, ``#`` comments.

This module owns the text format of every artifact the pipeline writes,
so the manifest's SHA-256 of a file pins its content: floats are emitted
with 9 significant digits (``%.9g``, which round-trips 32-bit inputs
exactly), CSV rows are comma-separated, JSON has a 2-space indent and
sorted keys, and every text file ends its lines (and itself) with LF on
every platform. Binary PLY stores doubles and is bit-exact.
"""

from __future__ import annotations

import json
import os
import struct
import warnings
from pathlib import Path

import numpy as np

from .errors import ContractError, InputError, MeshFormatError
from .mesh import TriangleMesh, VertexMask

__all__ = [
    "load_mesh", "load_surface", "save_mesh", "load_vertex_mask", "save_vertex_mask",
    "read_index_lines", "save_index_lines", "save_csv", "save_polylines_csv", "save_json",
]

FORMATS = ("ply-ascii", "ply-binary-le", "obj")

FLOAT_FORMAT = "%.9g"  # every float in a text file
_XYZ = " ".join([FLOAT_FORMAT] * 3)  # a mesh vertex

_PLY_SCALAR = {
    "char": "b", "int8": "b",
    "uchar": "B", "uint8": "B",
    "short": "h", "int16": "h",
    "ushort": "H", "uint16": "H",
    "int": "i", "int32": "i",
    "uint": "I", "uint32": "I",
    "float": "f", "float32": "f",
    "double": "d", "float64": "d",
}
_FACE_LISTS = ("vertex_indices", "vertex_index")


def load_mesh(path, format=None, scale=None):
    """Read a triangle mesh, preserving vertex order from the file.

    Parameters
    ----------
    path : str or Path
    format : {"ply-ascii", "ply-binary-le", "obj"}, optional
        Auto-detected from the extension and PLY header when omitted.
    scale : float, optional
        Uniform scale hint (mm per file unit) applied to all coordinates.
        Replaces ad-hoc manual rescaling of photogrammetric exports.

    Raises
    ------
    MeshFormatError
        When the file does not parse, holds non-finite coordinates or
        describes no valid triangle mesh (say, a face index out of range).
    InputError
        When the file cannot be read, or the scale hint is not positive
        and finite or scales a coordinate past the float range.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"mesh file not found: {path}")
    if format is not None and format not in FORMATS:
        raise InputError(f"unknown mesh format {format!r}, expected one of {FORMATS}")
    if format is None:
        ext = path.suffix.lower()
        if ext == ".obj":
            format = "obj"
        elif ext == ".ply":
            format = None  # ascii vs binary resolved from the header
        else:
            raise InputError(f"cannot infer format from extension {ext!r}: {path}")

    try:
        vertices, faces = _load_obj(path) if format == "obj" else _load_ply(path, format)
    except OSError as exc:  # say, a directory
        raise InputError(f"cannot read a mesh from {path}: {exc}") from exc
    vertices = np.asarray(vertices, dtype=np.float64)
    if scale is not None and not 0 < scale < np.inf:
        raise InputError(f"scale hint must be positive and finite, got {scale}")
    if not np.isfinite(vertices).all():
        raise MeshFormatError("vertices contain non-finite coordinates", path)
    if scale is not None:
        with np.errstate(over="ignore"):  # an overflow is the hint's fault, reported below
            vertices = vertices * float(scale)
        if not np.isfinite(vertices).all():
            raise InputError(f"scale hint {scale} takes the coordinates of {path} "
                             f"past the float range")
    try:
        return TriangleMesh(vertices, faces)
    except (ContractError, OverflowError) as exc:  # e.g. a face index out of range
        raise MeshFormatError(str(exc), path) from exc


def load_surface(path, scale=None):
    """:func:`load_mesh` for a command that needs faces, not a bare point cloud."""
    mesh = load_mesh(path, scale=scale)
    if mesh.n_faces == 0:
        raise InputError(f"mesh has no faces, a surface is needed: {path}")
    return mesh


def save_mesh(mesh, path, format):
    """Write ``mesh`` to ``path`` in the given format."""
    path = Path(path)
    if format == "ply-ascii":
        _save_ply_ascii(mesh, path)
    elif format == "ply-binary-le":
        _save_ply_binary(mesh, path)
    elif format == "obj":
        _save_obj(mesh, path)
    else:
        raise InputError(f"unknown mesh format {format!r}, expected one of {FORMATS}")


# ---------------------------------------------------------------------------
# PLY

def _load_ply(path, declared):
    with open(path, "rb") as fh:
        magic = fh.readline()
        if magic.strip() != b"ply":
            raise MeshFormatError("not a PLY file (missing 'ply' magic)", path, line=1)
        fmt = None
        elements = []  # (name, count, [(prop_name, code, list_index_code or None)])
        lineno = 1
        while True:
            raw = fh.readline()
            lineno += 1
            if not raw:
                raise MeshFormatError("unexpected EOF in PLY header", path, line=lineno)
            tokens = raw.decode("ascii", "replace").split()
            if not tokens or tokens[0] == "comment":
                continue
            try:
                if tokens[0] == "format":
                    if tokens[1] == "ascii":
                        fmt = "ply-ascii"
                    elif tokens[1] == "binary_little_endian":
                        fmt = "ply-binary-le"
                    else:
                        raise MeshFormatError(
                            f"unsupported PLY format {tokens[1]!r}", path, line=lineno
                        )
                elif tokens[0] == "element":
                    if int(tokens[2]) < 0:
                        raise ValueError
                    elements.append((tokens[1], int(tokens[2]), [], lineno))
                elif tokens[0] == "property":
                    if not elements:
                        raise MeshFormatError("property before element", path, line=lineno)
                    props = elements[-1][2]
                    if tokens[1] == "list":
                        idx_code = _PLY_SCALAR.get(tokens[2])
                        val_code = _PLY_SCALAR.get(tokens[3])
                        if idx_code is None or val_code is None:
                            raise MeshFormatError(
                                f"unsupported list types {tokens[2]}/{tokens[3]}",
                                path, line=lineno,
                            )
                        props.append((tokens[4], val_code, idx_code))
                        element = elements[-1][0]
                        if element == "vertex":  # the readers take x/y/z at fixed positions
                            raise MeshFormatError(
                                f"list property {tokens[4]!r} on the vertex element",
                                path, line=lineno,
                            )
                        if (element == "face" and tokens[4] in _FACE_LISTS
                                and val_code in "fd"):
                            raise MeshFormatError(
                                f"face indices of non-integer type {tokens[3]!r}",
                                path, line=lineno,
                            )
                    else:
                        code = _PLY_SCALAR.get(tokens[1])
                        if code is None:
                            raise MeshFormatError(
                                f"unsupported property type {tokens[1]!r}", path, line=lineno
                            )
                        props.append((tokens[2], code, None))
                elif tokens[0] == "end_header":
                    break
                else:
                    raise MeshFormatError(
                        f"unknown PLY header record {tokens[0]!r}", path, line=lineno
                    )
            except (IndexError, ValueError):
                raise MeshFormatError(
                    f"malformed PLY header record {' '.join(tokens)!r}", path, line=lineno
                ) from None
        if fmt is None:
            raise MeshFormatError("PLY header lacks a format record", path)
        if "vertex" not in [e[0] for e in elements]:
            raise MeshFormatError("PLY must declare a 'vertex' element", path)
        if declared is not None and declared != fmt:
            raise MeshFormatError(
                f"declared format {declared!r} but header says {fmt!r}", path
            )
        return _read_ply_body(fh, fmt, elements, path, lineno)


def _vertex_layout(props, path):
    """Positions of x, y and z among the vertex element's properties."""
    pnames = [p[0] for p in props]
    for axis in ("x", "y", "z"):
        if axis not in pnames:
            raise MeshFormatError(f"vertex element lacks property {axis!r}", path)
    return pnames.index("x"), pnames.index("y"), pnames.index("z")


def _read_ply_body(fh, fmt, elements, path, lineno):
    """Vertex and face rows of a PLY body, ascii or binary, in file order.

    A binary element of fixed layout is read as one block
    (:meth:`_BinaryBody.block`); every other element, and a block that
    fails its check, is walked record by record (:func:`_walk`), which
    raises every error.
    """
    body = _AsciiBody(fh, path, lineno) if fmt == "ply-ascii" else _BinaryBody(fh, path)
    vertices, faces = [], []  # blocks of rows, one per element that yields any
    for name, count, props, header_line in elements:
        body.element(name, count, props, header_line)
        xyz = _vertex_layout(props, path) if name == "vertex" else None
        rows = body.block(name, props, xyz) if fmt == "ply-binary-le" else None
        if rows is None:
            rows = _walk(body, name, count, props, xyz)
        if len(rows):
            (vertices if name == "vertex" else faces).append(rows)
    return _joined(vertices), _joined(faces)


def _walk(body, name, count, props, xyz):
    """An element's rows, read record by record against its header.

    Each property is consumed in header order: a scalar is one value, a
    list its count and then that many values. Only the vertex coordinates
    and the face index lists are converted.
    """
    rows = []
    for _ in body.records(count, props):
        record = []
        for i, (pname, code, idx_code) in enumerate(props):
            if idx_code is None:
                record.append(body.scalar(code, keep=xyz is not None and i in xyz))
                continue
            k = body.length(idx_code)
            if k < 0:
                body.fail("negative list count")
            indices = name == "face" and pname in _FACE_LISTS
            record.append(body.values(code, k, keep=indices))
            if indices:
                rows.extend(_triangulate(record[-1], body.path, body.line))
        if xyz is not None:
            rows.append(tuple(record[i][0] for i in xyz))
    return rows


class _AsciiBody:
    """An ascii body: one record per line, its tokens taken in header order."""

    def __init__(self, fh, path, lineno):
        self.fh, self.path, self.line = fh, path, lineno  # the last line read

    def element(self, name, count, props, header_line):
        self.name = name

    def records(self, count, props):
        for _ in range(count):
            raw = self.fh.readline()
            self.line += 1
            if not raw:
                self.fail("unexpected EOF in PLY body")
            self.tokens, self.at = raw.split(), 0
            yield
            if self.at < len(self.tokens):  # checked when the next record is asked for
                self.fail(f"{self.name} record longer than its header declares")

    def scalar(self, code, keep):  # a kept scalar is a vertex coordinate
        return self.values(code, 1, keep, float)

    def length(self, code):
        return self.values(code, 1, True)[0]

    def values(self, code, k, keep, kind=int):  # a kept list holds face indices
        tokens, self.at = self.tokens[self.at:self.at + k], self.at + k
        if self.at > len(self.tokens):
            self.fail(f"{self.name} record shorter than its header declares")
        try:
            return list(map(kind, tokens)) if keep else None  # others are only counted
        except ValueError:
            self.fail(f"bad {self.name} record")

    def fail(self, message):
        raise MeshFormatError(message, self.path, line=self.line) from None


class _BinaryBody:
    """A binary little-endian body: records packed back to back."""

    line = None  # errors name a byte offset instead

    def __init__(self, fh, path):
        self.fh, self.path, self.size = fh, path, os.fstat(fh.fileno()).st_size

    def element(self, name, count, props, header_line):
        # every record takes at least its scalars and its list counts
        least = sum(struct.calcsize(idx_code or code) for _, code, idx_code in props)
        if count * least > self.size - self.fh.tell():
            raise MeshFormatError(
                f"element {name!r} declares {count} records, more than the file holds",
                self.path, line=header_line,
            )
        self.count, self.start = count, self.fh.tell()

    def block(self, name, props, xyz):
        """An element of fixed layout as one (count, 3) array; None when it must be walked.

        Two layouts are fixed: a vertex element (the header admits only
        scalars there), and a face element holding nothing but a ``list
        uchar int|uint vertex_indices``, kept when every face is a triangle.
        """
        if name == "vertex":
            record = np.dtype([(f"p{i}", "<" + code) for i, (_, code, _) in enumerate(props)])
        elif name == "face" and props in ([("vertex_indices", "i", "B")],
                                          [("vertex_indices", "I", "B")]):
            record = _triangle_record(props[0][1])
        else:
            return None
        blob = self.fh.read(record.itemsize * self.count)
        if len(blob) < record.itemsize * self.count:
            return None
        rec = np.frombuffer(blob, record)
        if name == "vertex":
            return np.column_stack([rec[f"p{i}"] for i in xyz])
        return rec["v"] if (rec["n"] == 3).all() else None

    def records(self, count, props):
        self.fh.seek(self.start)  # back over a block that failed its check
        return range(count if props else 0)  # a record without properties takes no bytes

    def scalar(self, code, keep, message="truncated data"):
        blob = self.fh.read(struct.calcsize(code))
        if len(blob) < struct.calcsize(code):
            self.fail(message)
        return struct.unpack("<" + code, blob) if keep else None

    def length(self, code):
        return self.scalar(code, True, "truncated list count")[0]

    def values(self, code, k, keep):
        if struct.calcsize(code) * k > self.size - self.fh.tell():
            self.fail("list longer than the file")
        blob = self.fh.read(struct.calcsize(code) * k)
        return struct.unpack(f"<{k}{code}", blob) if keep else None

    def fail(self, message):
        raise MeshFormatError(message, self.path, offset=self.fh.tell())


def _triangle_record(code):
    """One face record ``3 a b c`` of a ``list uchar <code> vertex_indices``."""
    return np.dtype([("n", "u1"), ("v", "<" + code, 3)])


def _joined(blocks):
    """One element's block as it is, several as one list of rows in file order."""
    return blocks[0] if len(blocks) == 1 else [row for block in blocks for row in block]


def _triangulate(indices, path, lineno):
    if len(indices) < 3:
        raise MeshFormatError("face with fewer than 3 vertices", path, line=lineno)
    # fan triangulation for quads and larger polygons
    return [(indices[0], indices[i], indices[i + 1]) for i in range(1, len(indices) - 1)]


def _ply_header(mesh, encoding):
    return (
        f"ply\nformat {encoding} 1.0\n"
        f"element vertex {mesh.n_vertices}\n"
        "property double x\nproperty double y\nproperty double z\n"
        f"element face {mesh.n_faces}\n"
        "property list uchar int vertex_indices\nend_header\n"
    )


def _save_ply_ascii(mesh, path):
    with open(path, "w", newline="\n") as fh:
        fh.write(_ply_header(mesh, "ascii"))
        np.savetxt(fh, mesh.vertices, fmt=_XYZ)
        np.savetxt(fh, mesh.faces, fmt="3 %d %d %d")


def _save_ply_binary(mesh, path):
    faces = np.empty(mesh.n_faces, dtype=_triangle_record("i"))
    faces["n"] = 3
    faces["v"] = mesh.faces
    with open(path, "wb") as fh:
        fh.write(_ply_header(mesh, "binary_little_endian").encode("ascii"))
        fh.write(np.ascontiguousarray(mesh.vertices, dtype="<f8").tobytes())
        fh.write(faces.tobytes())


# ---------------------------------------------------------------------------
# OBJ

def _load_obj(path):
    vertices, faces = [], []
    skipped = set()
    with open(path, "r", errors="replace") as fh:  # stray bytes fail as bad records
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            rec = tokens[0]
            if rec == "v":
                try:
                    vertices.append(tuple(float(t) for t in tokens[1:4]))
                except ValueError:
                    raise MeshFormatError("bad vertex record", path, line=lineno) from None
                if len(vertices[-1]) != 3:
                    raise MeshFormatError("vertex needs 3 coordinates", path, line=lineno)
            elif rec == "f":
                idx = []
                for tok in tokens[1:]:
                    ref = tok.split("/")[0]
                    try:
                        i = int(ref)
                    except ValueError:
                        raise MeshFormatError(
                            f"bad face reference {tok!r}", path, line=lineno
                        ) from None
                    if i == 0:
                        raise MeshFormatError(
                            "face index 0 (OBJ indices are 1-based)", path, line=lineno
                        )
                    idx.append(i - 1 if i > 0 else len(vertices) + i)
                faces.extend(_triangulate(idx, path, lineno))
            else:
                skipped.add(rec)
    if skipped:
        warnings.warn(
            f"ignored OBJ records: {', '.join(sorted(skipped))}", stacklevel=3
        )
    return vertices, faces


def _save_obj(mesh, path):
    with open(path, "w", newline="\n") as fh:
        np.savetxt(fh, mesh.vertices, fmt="v " + _XYZ)
        np.savetxt(fh, mesh.faces + 1, fmt="f %d %d %d")


# ---------------------------------------------------------------------------
# Index files (vertex masks, plate contours)

def read_index_lines(path, what, n_vertices):
    """Yield ``(line number, index or None, comment)`` for each line of an index file.

    One decimal index per line, each a vertex of a mesh with ``n_vertices``
    vertices; text after ``#`` is the line's comment (stripped), and a line
    with no index yields None. ``what`` names the file in the errors:
    "<what> file not found", "cannot read a <what> from <path>", "bad <what>
    index", "<what> index i outside the mesh's n vertices".
    """
    if not os.path.exists(path):
        raise InputError(f"{what} file not found: {path}")
    try:
        with open(path, errors="replace") as fh:  # stray bytes fail as bad indices
            for lineno, line in enumerate(fh, start=1):
                body, _, comment = line.partition("#")
                body = body.strip()
                try:
                    index = int(body) if body else None
                except ValueError:
                    raise MeshFormatError(f"bad {what} index", path, line=lineno) from None
                if index is not None and not 0 <= index < n_vertices:
                    raise MeshFormatError(f"{what} index {index} outside the mesh's "
                                          f"{n_vertices} vertices", path, line=lineno)
                yield lineno, index, comment.strip()
    except OSError as exc:  # say, a directory
        raise InputError(f"cannot read a {what} from {path}: {exc}") from exc


def load_vertex_mask(path, n_vertices):
    """Read a vertex mask: one index below ``n_vertices`` per line, ``#`` comments allowed."""
    lines = read_index_lines(Path(path), "mask", n_vertices)
    return VertexMask([i for _, i, _ in lines if i is not None])


def save_vertex_mask(mask, path):
    save_index_lines(path, sorted(mask.indices))


def save_index_lines(path, indices, comments=None, head=None):
    """The index file :func:`read_index_lines` reads back: ``head`` as a first,
    comment-only line, then one index per line, with its `` # <comment>``
    when ``comments`` gives one per index."""
    tails = [""] * len(indices) if comments is None else [f" # {c}" for c in comments]
    with open(path, "w", newline="\n") as fh:
        fh.write("" if head is None else f"# {head}\n")
        fh.writelines(f"{i}{tail}\n" for i, tail in zip(indices, tails, strict=True))


# ---------------------------------------------------------------------------
# Text artifacts

def _csv_rows(rows, fmt=FLOAT_FORMAT):
    """``np.savetxt``'s comma-separated lines of ``rows`` (a 1-D array is one
    column), formatted by one ``%`` over all values; ``fmt`` per column or for
    all."""
    rows = np.asarray(rows)
    if rows.ndim == 1:
        rows = rows[:, None]
    line = ",".join(fmt if isinstance(fmt, (list, tuple)) else [fmt] * rows.shape[1]) + "\n"
    return (line * len(rows)) % tuple(rows.ravel().tolist())


def save_csv(path, rows, header=None, fmt=FLOAT_FORMAT):
    """Comma-separated rows under an optional header line; ``fmt`` per column or for all."""
    with open(path, "w", newline="\n") as fh:
        fh.write((f"{header}\n" if header else "") + _csv_rows(rows, fmt))


def save_polylines_csv(polylines, path):
    """The points of each polyline as x,y,z rows, blank-line separated."""
    with open(path, "w", newline="\n") as fh:
        fh.write("x,y,z\n" + "\n".join(_csv_rows(poly.points) for poly in polylines))


def save_json(payload, path):
    """JSON with a 2-space indent, sorted keys and a trailing newline."""
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
