import struct
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from violinmorph import fileio
from violinmorph.errors import InputError, MeshFormatError
from violinmorph.fileio import (
    load_mesh,
    load_vertex_mask,
    save_mesh,
    save_vertex_mask,
)
from violinmorph.mesh import TriangleMesh, VertexMask

from conftest import write_without_faces
from oracles import read_ply_body_loop


def test_minimal_obj(tmp_path):
    path = tmp_path / "tri.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    mesh = load_mesh(path)
    assert mesh.n_vertices == 3
    assert mesh.n_faces == 1


def test_obj_zero_index_is_parse_error(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n")
    with pytest.raises(MeshFormatError, match="1-based"):
        load_mesh(path)
    try:
        load_mesh(path)
    except MeshFormatError as exc:
        assert exc.line == 4


def test_obj_negative_indices_and_quads(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf -4 -3 -2 -1\n")
    mesh = load_mesh(path)
    assert mesh.n_faces == 2  # fan-triangulated


def test_obj_other_records_ignored_with_warning(tmp_path):
    path = tmp_path / "extra.obj"
    path.write_text("vn 0 0 1\nv 0 0 0\nv 1 0 0\nv 0 1 0\nusemtl x\nf 1//1 2//1 3//1\n")
    with pytest.warns(UserWarning, match="ignored OBJ records"):
        mesh = load_mesh(path)
    assert mesh.n_faces == 1


def test_ply_ascii_binary_same_arrays(tmp_path, cube):
    """Round-trip oracle: both encodings of one mesh re-read identically."""
    pa = tmp_path / "cube_a.ply"
    pb = tmp_path / "cube_b.ply"
    save_mesh(cube, pa, "ply-ascii")
    save_mesh(cube, pb, "ply-binary-le")
    ma = load_mesh(pa)
    mb = load_mesh(pb)
    np.testing.assert_array_equal(ma.vertices, mb.vertices)
    np.testing.assert_array_equal(ma.faces, mb.faces)
    np.testing.assert_array_equal(ma.vertices, cube.vertices)


@pytest.mark.parametrize("fmt", ["ply-ascii", "ply-binary-le", "obj"])
def test_load_save_load_idempotent(tmp_path, fmt):
    rng = np.random.default_rng(5)
    verts = rng.random((30, 3)).astype(np.float32).astype(np.float64) * 80
    faces = [[i, i + 1, i + 2] for i in range(0, 27, 3)]
    from violinmorph.mesh import TriangleMesh

    mesh = TriangleMesh(verts, faces)
    ext = "obj" if fmt == "obj" else "ply"
    p1 = tmp_path / f"one.{ext}"
    p2 = tmp_path / f"two.{ext}"
    save_mesh(mesh, p1, fmt)
    m1 = load_mesh(p1, format=fmt)
    save_mesh(m1, p2, fmt)
    m2 = load_mesh(p2, format=fmt)
    np.testing.assert_array_equal(m1.vertices, m2.vertices)
    np.testing.assert_array_equal(m1.faces, m2.faces)
    if fmt == "ply-binary-le":
        assert p1.read_bytes() == p2.read_bytes()


def test_ply_binary_truncated_reports_offset(tmp_path, cube):
    path = tmp_path / "cube.ply"
    save_mesh(cube, path, "ply-binary-le")
    blob = path.read_bytes()
    path.write_bytes(blob[:-40])
    with pytest.raises(MeshFormatError):
        load_mesh(path)


def test_ply_declared_format_mismatch(tmp_path, cube):
    path = tmp_path / "cube.ply"
    save_mesh(cube, path, "ply-ascii")
    with pytest.raises(MeshFormatError, match="declared"):
        load_mesh(path, format="ply-binary-le")


def test_missing_file_and_unknown_format(tmp_path):
    with pytest.raises(InputError, match="not found"):
        load_mesh(tmp_path / "nope.ply")
    (tmp_path / "x.xyz").write_text("")
    with pytest.raises(InputError, match="extension"):
        load_mesh(tmp_path / "x.xyz")


def test_scale_hint(tmp_path, cube):
    path = tmp_path / "cube.ply"
    save_mesh(cube, path, "ply-binary-le")
    scaled = load_mesh(path, scale=25.4)
    np.testing.assert_allclose(scaled.vertices, cube.vertices * 25.4)
    for bad in (-1.0, np.inf, np.nan):
        # unchecked, inf scales the coordinates to inf and the error blames the file
        with pytest.raises(InputError, match="scale hint must be positive and finite") as err:
            load_mesh(path, scale=bad)
        assert not isinstance(err.value, MeshFormatError)


def test_float_emission_roundtrips_float32(tmp_path):
    from violinmorph.mesh import TriangleMesh

    rng = np.random.default_rng(11)
    v32 = rng.random((9, 3), dtype=np.float32) * 123.456
    mesh = TriangleMesh(v32.astype(np.float64), [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    path = tmp_path / "f32.ply"
    save_mesh(mesh, path, "ply-ascii")
    back = load_mesh(path)
    assert np.array_equal(back.vertices.astype(np.float32), v32)


def test_vertex_mask_roundtrip(tmp_path):
    path = tmp_path / "mask.txt"
    path.write_text("# heading comment\n3\n1\n\n17 # trailing note\n")
    mask = load_vertex_mask(path, 18)
    assert mask.indices == frozenset({1, 3, 17})
    out = tmp_path / "mask_out.txt"
    save_vertex_mask(mask, out)
    assert load_vertex_mask(out, 18).indices == mask.indices


def test_vertex_mask_bad_line(tmp_path):
    path = tmp_path / "mask.txt"
    path.write_text("1\nfoo\n")
    with pytest.raises(MeshFormatError):
        load_vertex_mask(path, 2)
    assert isinstance(VertexMask([1]).as_array(), np.ndarray)


_HEADER_CASES = [
    ("element vertex x193", "malformed PLY header record 'element vertex x193'"),
    ("element vertex", "malformed PLY header record 'element vertex'"),
    ("element vertex -5", "malformed PLY header record 'element vertex -5'"),
    ("property double", "malformed PLY header record 'property double'"),
    ("property list uchar int", "malformed PLY header record 'property list uchar int'"),
]


@pytest.mark.parametrize("fmt", ["ply-ascii", "ply-binary-le"])
@pytest.mark.parametrize("record, message", _HEADER_CASES)
def test_ply_malformed_header_record_names_line(tmp_path, cube, fmt, record, message):
    path = tmp_path / "cube.ply"
    save_mesh(cube, path, fmt)
    lines = path.read_bytes().split(b"\n")
    target = 2 if record.startswith("element") else 3  # 0-based: element vertex, property x
    lines[target] = record.encode()
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(MeshFormatError, match=f"{message}.*line {target + 1}"):
        load_mesh(path)


@pytest.mark.parametrize("fmt", ["ply-ascii", "ply-binary-le"])
def test_ply_format_without_token(tmp_path, cube, fmt):
    path = tmp_path / "cube.ply"
    save_mesh(cube, path, fmt)
    lines = path.read_bytes().split(b"\n")
    lines[1] = b"format"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(MeshFormatError, match="'format'.*line 2"):
        load_mesh(path)


@pytest.mark.parametrize("element, line", [("vertex", 3), ("face", 7)])
def test_ply_binary_count_beyond_file_size(tmp_path, cube, element, line):
    path = tmp_path / "cube.ply"
    save_mesh(cube, path, "ply-binary-le")
    count = cube.n_vertices if element == "vertex" else cube.n_faces
    blob = path.read_bytes().replace(f"element {element} {count}\n".encode(),
                                     f"element {element} 100000000000000\n".encode())
    path.write_bytes(blob)
    with pytest.raises(MeshFormatError, match=f"'{element}' declares 100000000000000.*line {line}"):
        load_mesh(path)


def test_ply_face_index_out_of_range_is_format_error(tmp_path):
    path = tmp_path / "bad.ply"
    path.write_text("ply\nformat ascii 1.0\nelement vertex 3\n"
                    "property double x\nproperty double y\nproperty double z\n"
                    "element face 1\nproperty list uchar int vertex_indices\n"
                    "end_header\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n")
    with pytest.raises(MeshFormatError, match="out of range.*bad.ply"):
        load_mesh(path)


_XYZ = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], "<f8")


def _ply_with_vertex_list(path, fmt):
    """Three vertices, each led by a one-float ``extra`` list, and one face."""
    header = ("element vertex 3\nproperty list uchar float extra\nproperty double x\n"
              "property double y\nproperty double z\nelement face 1\n"
              "property list uchar int vertex_indices\n")
    if fmt == "ply-ascii":
        body = "".join(f"1 9 {x:g} {y:g} {z:g}\n" for x, y, z in _XYZ) + "3 0 1 2\n"
        path.write_text(f"ply\nformat ascii 1.0\n{header}end_header\n{body}")
    else:
        vrec = np.zeros(3, [("n", "u1"), ("extra", "<f4"), ("xyz", "<f8", 3)])
        vrec["n"], vrec["extra"], vrec["xyz"] = 1, 9.0, _XYZ
        face = b"\x03" + np.array([0, 1, 2], "<i4").tobytes()
        _write_binary_ply(path, header, vrec.tobytes() + face)


@pytest.mark.parametrize("fmt", ["ply-ascii", "ply-binary-le"])
def test_ply_vertex_list_property_rejected(tmp_path, fmt):
    path = tmp_path / "listed.ply"
    _ply_with_vertex_list(path, fmt)
    with pytest.raises(MeshFormatError,
                       match=r"list property 'extra' on the vertex element \(.*listed.ply, line 4\)"):
        load_mesh(path)


@pytest.mark.parametrize("value_type", ["float", "double"])
def test_ply_non_integer_face_indices_rejected(tmp_path, value_type):
    path = tmp_path / "faces.ply"
    path.write_text("ply\nformat ascii 1.0\nelement vertex 3\nproperty double x\n"
                    "property double y\nproperty double z\nelement face 1\n"
                    f"property list uchar {value_type} vertex_indices\nend_header\n"
                    "0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    with pytest.raises(MeshFormatError,
                       match=f"face indices of non-integer type '{value_type}'.*line 8"):
        load_mesh(path)


@pytest.fixture(scope="module")
def fuzz_sources(tmp_path_factory):
    from violinmorph.synthetic import icosphere

    root = tmp_path_factory.mktemp("fuzz")
    mesh = icosphere(3.0, 1)
    blobs = {}
    for fmt, ext in (("ply-ascii", ".ply"), ("ply-binary-le", ".ply"), ("obj", ".obj")):
        path = root / f"{fmt}{ext}"
        save_mesh(mesh, path, fmt)
        blobs[fmt] = (path.read_bytes(), ext)
    return root, blobs


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["ply-ascii", "ply-binary-le", "obj"]), st.data())
def test_fuzzed_files_raise_only_input_errors(fuzz_sources, fmt, data):
    root, blobs = fuzz_sources
    blob, ext = blobs[fmt]
    header_end = blob.find(b"end_header\n") + len(b"end_header\n") if ext == ".ply" else 0
    # bias the edits towards the header, where the counts and types live
    where = st.one_of(st.integers(0, max(header_end, 1) - 1), st.integers(0, len(blob) - 1))
    blob = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 4))):
        pos = data.draw(where) % len(blob)  # earlier edits may have shortened it
        kind = data.draw(st.sampled_from(["byte", "digits", "delete", "truncate"]))
        if kind == "byte":
            blob[pos] = data.draw(st.integers(0, 255))
        elif kind == "digits":
            blob[pos:pos + 1] = data.draw(st.sampled_from(
                [b"-5", b"x", b"100000000000000", b"9", b" ", b"\n", b"nan", b"1e999"]))
        elif kind == "delete":
            del blob[pos:pos + data.draw(st.integers(1, 16))]
        else:
            del blob[pos:]
        if not blob:
            break
    path = root / f"case{ext}"
    path.write_bytes(bytes(blob))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            load_mesh(path)
    except InputError:
        pass


def _write_binary_ply(path, header, body):
    path.write_bytes(b"ply\nformat binary_little_endian 1.0\n" + header.encode()
                     + b"end_header\n" + body)


def _load_fast_and_loop(path, monkeypatch):
    fast = load_mesh(path)
    with monkeypatch.context() as m:
        m.setattr(fileio, "_read_ply_body", read_ply_body_loop)
        loop = load_mesh(path)
    return fast, loop


def _assert_same_mesh(a, b):
    assert a.vertices.dtype == b.vertices.dtype and a.faces.dtype == b.faces.dtype
    assert a.vertices.tobytes() == b.vertices.tobytes()
    assert a.faces.tobytes() == b.faces.tobytes()


def _load_by_block(path, monkeypatch):
    """``load_mesh``, asserting that the vertex and face blocks were each read in one piece."""
    blocks, read = [], fileio._BinaryBody.block

    def spy(body, name, *args):
        blocks.append((name, read(body, name, *args)))
        return blocks[-1][1]

    monkeypatch.setattr(fileio._BinaryBody, "block", spy)
    mesh = load_mesh(path)
    assert [name for name, _ in blocks] == ["vertex", "face"]
    assert all(block is not None for _, block in blocks)
    return mesh


class TestBinaryPlyBlocks:
    """The block reads against the record-by-record reader in ``oracles``."""

    def test_float64_vertices_written_by_save_mesh(self, tmp_path, monkeypatch):
        from violinmorph.synthetic import icosphere

        path = tmp_path / "sphere.ply"
        save_mesh(icosphere(7.5, 3), path, "ply-binary-le")
        fast, loop = _load_fast_and_loop(path, monkeypatch)
        _assert_same_mesh(fast, loop)
        _assert_same_mesh(_load_by_block(path, monkeypatch), loop)

    def test_float32_vertices_extra_property_and_uint_indices(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(3)
        vrec = np.zeros(40, [("z", "<f4"), ("red", "u1"), ("x", "<f4"), ("y", "<f4")])
        for axis in "xyz":
            vrec[axis] = rng.normal(0.0, 30.0, 40)
        frec = np.zeros(38, [("n", "u1"), ("v", "<u4", 3)])
        frec["n"] = 3
        frec["v"] = np.arange(38)[:, None] + [0, 1, 2]
        header = ("element vertex 40\nproperty float z\nproperty uchar red\n"
                  "property float x\nproperty float y\nelement face 38\n"
                  "property list uchar uint vertex_indices\n")
        path = tmp_path / "f32.ply"
        _write_binary_ply(path, header, vrec.tobytes() + frec.tobytes())
        fast, loop = _load_fast_and_loop(path, monkeypatch)
        _assert_same_mesh(fast, loop)
        np.testing.assert_array_equal(fast.vertices[:, 2], vrec["z"])
        _assert_same_mesh(_load_by_block(path, monkeypatch), loop)

    def test_quads_fall_back_to_the_record_loop(self, tmp_path, monkeypatch):
        verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [2, 0, 0]], "<f8")
        faces = (b"\x03" + np.array([0, 1, 4], "<i4").tobytes()
                 + b"\x04" + np.array([0, 1, 2, 3], "<i4").tobytes())
        header = ("element vertex 5\nproperty double x\nproperty double y\nproperty double z\n"
                  "element face 2\nproperty list uchar int vertex_indices\n")
        path = tmp_path / "quad.ply"
        _write_binary_ply(path, header, verts.tobytes() + faces)
        fast, loop = _load_fast_and_loop(path, monkeypatch)
        _assert_same_mesh(fast, loop)
        assert fast.faces.tolist() == [[0, 1, 4], [0, 1, 2], [0, 2, 3]]

    def test_extra_face_property_falls_back(self, tmp_path, monkeypatch):
        from violinmorph.synthetic import icosphere

        mesh = icosphere(2.0, 1)
        frec = np.zeros(mesh.n_faces, [("n", "u1"), ("v", "<i4", 3), ("flags", "u1")])
        frec["n"], frec["v"], frec["flags"] = 3, mesh.faces, 7
        header = (f"element vertex {mesh.n_vertices}\nproperty double x\nproperty double y\n"
                  f"property double z\nelement face {mesh.n_faces}\n"
                  "property list uchar int vertex_indices\nproperty uchar flags\n")
        path = tmp_path / "flags.ply"
        _write_binary_ply(path, header, mesh.vertices.astype("<f8").tobytes() + frec.tobytes())
        fast, loop = _load_fast_and_loop(path, monkeypatch)
        _assert_same_mesh(fast, loop)
        _assert_same_mesh(fast, mesh)

    @pytest.mark.parametrize("cut", [1, 5, 13, 40])
    def test_short_face_block_same_error(self, tmp_path, cube, monkeypatch, cut):
        path = tmp_path / "cube.ply"
        save_mesh(cube, path, "ply-binary-le")
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(MeshFormatError) as fast:
            load_mesh(path)
        monkeypatch.setattr(fileio, "_read_ply_body", read_ply_body_loop)
        with pytest.raises(MeshFormatError) as loop:
            load_mesh(path)
        assert str(fast.value) == str(loop.value)


_ASCII_HEAD = ("ply\nformat ascii 1.0\nelement vertex 3\nproperty double x\nproperty double y\n"
               "property double z\nelement face 1\nproperty list uchar int vertex_indices\n"
               "end_header\n")


@pytest.mark.parametrize("body, message, line", [
    ("0 0 0\n\n0 1 0\n3 0 1 2\n", "vertex record shorter than its header declares", 11),
    ("0 0 0\n1 0 0\n0 1 0\n", "unexpected EOF in PLY body", 13),
    ("0 0 0\n1 0 0\n0 1 0\n-3 0 1 2\n", "negative list count", 13),
    ("0 0 0\n1 0 0\n0 1 0\n3 0 1 2.0\n", "bad face record", 13),
    ("0 0 0\n1 0 0\n0 1 0\n3 0 1 2.7\n", "bad face record", 13),
    ("0 0 0\n1 0 0\n0 1 0\n3 0 1 1e0\n", "bad face record", 13),
    ("0 0 0\n1 0 x\n0 1 0\n3 0 1 2\n", "bad vertex record", 11),
    ("0 0 0\n1 0 0\n0 1 0\n3 0 1\n", "face record shorter than its header declares", 13),
])
def test_ascii_record_errors_name_the_line(tmp_path, body, message, line):
    path = tmp_path / "bad.ply"
    path.write_text(_ASCII_HEAD + body)
    with pytest.raises(MeshFormatError, match=f"^{message} \\(.*bad.ply, line {line}\\)$"):
        load_mesh(path)


def test_binary_partial_list_count_is_a_format_error(tmp_path, monkeypatch):
    """A list count cut short by the end of the file (the record loop raised struct.error)."""
    header = ("element vertex 3\nproperty double x\nproperty double y\nproperty double z\n"
              "element face 2\nproperty list int int vertex_indices\n")
    path = tmp_path / "cut.ply"
    faces = np.array([3, 0, 1, 2], "<i4").tobytes() + b"\x03\x00"
    _write_binary_ply(path, header, _XYZ.tobytes() + faces)
    with pytest.raises(MeshFormatError, match=r"truncated list count \(.*cut.ply, byte \d+\)"):
        load_mesh(path)
    monkeypatch.setattr(fileio, "_read_ply_body", read_ply_body_loop)
    with pytest.raises(struct.error):
        load_mesh(path)


@pytest.mark.parametrize("before,after", [(1, 0), (0, 1), (1, 1)])
def test_ply_face_scalars_read_in_header_order(tmp_path, before, after):
    """Scalar face properties around the index list: ascii reads what binary reads."""
    from violinmorph.synthetic import icosphere

    mesh = icosphere(2.0, 1)
    header = (f"element vertex {mesh.n_vertices}\nproperty double x\nproperty double y\n"
              f"property double z\nelement face {mesh.n_faces}\n"
              + "property uchar flags\n" * before
              + "property list uchar int vertex_indices\n"
              + "property float quality\n" * after)
    frec = np.zeros(mesh.n_faces, [("flags", "u1")] * before + [("n", "u1"), ("v", "<i4", 3)]
                    + [("quality", "<f4")] * after)
    frec["n"], frec["v"] = 3, mesh.faces
    if before:
        frec["flags"] = 3  # a count-like value where the list count used to be read
    binary = tmp_path / "binary.ply"
    _write_binary_ply(binary, header, mesh.vertices.astype("<f8").tobytes() + frec.tobytes())
    ascii_ = tmp_path / "ascii.ply"
    rows = "".join("3 " * before + "3 %d %d %d" % tuple(f) + " 0.5" * after + "\n"
                   for f in mesh.faces)
    ascii_.write_text(f"ply\nformat ascii 1.0\n{header}end_header\n"
                      + "".join("%.17g %.17g %.17g\n" % tuple(v) for v in mesh.vertices) + rows)
    for path in (ascii_, binary):
        _assert_same_mesh(load_mesh(path), mesh)


@pytest.mark.parametrize("fmt", ["ply-ascii", "ply-binary-le"])
def test_ply_without_face_element_is_a_point_cloud(tmp_path, cube, fmt):
    full = tmp_path / "full.ply"
    save_mesh(cube, full, fmt)
    cloud = tmp_path / "cloud.ply"
    write_without_faces(full, cloud, cube.n_vertices)
    mesh = load_mesh(cloud)
    assert mesh.n_faces == 0
    assert mesh.vertices.tobytes() == load_mesh(full).vertices.tobytes()
    with pytest.raises(InputError, match="mesh has no faces, a surface is needed") as exc:
        fileio.load_surface(cloud)
    assert str(cloud) in str(exc.value)


_INT_BOUNDS = {"char": (-2**7, 2**7 - 1), "uchar": (0, 2**8 - 1), "short": (-2**15, 2**15 - 1),
               "ushort": (0, 2**16 - 1), "int": (-2**31, 2**31 - 1), "uint": (0, 2**32 - 1)}
_SCALAR_TYPES = sorted(_INT_BOUNDS) + ["float", "double"]


def _values_of(ptype):
    if ptype in _INT_BOUNDS:
        return st.integers(*_INT_BOUNDS[ptype])
    return st.floats(allow_nan=False, allow_infinity=False,
                     width=32 if ptype == "float" else 64)


@st.composite
def _ply_layouts(draw):
    """A PLY layout and its records: ``(header, vertex rows, face rows, expected mesh)``.

    The vertex element has x/y/z among other scalars in any order; the face
    element has scalars before and after its index list, whose count and
    index types vary, and some faces are quads.
    """
    n = draw(st.integers(4, 10))
    extra = st.lists(st.sampled_from(_SCALAR_TYPES), max_size=2)
    vprops = [(f"v{i}", t) for i, t in enumerate(draw(extra))] + [
        (axis, draw(st.sampled_from(["float", "double", "int", "short"]))) for axis in "xyz"]
    vprops += [(f"w{i}", t) for i, t in enumerate(draw(extra))]
    vprops = draw(st.permutations(vprops))
    vrows = [[draw(_values_of(t)) for _, t in vprops] for _ in range(n)]
    count_type = draw(st.sampled_from(["uchar", "uchar", "int"]))
    index_type = draw(st.sampled_from(["uchar", "int", "uint"]))
    listed = ("list", count_type, index_type)
    fprops = ([(f"a{i}", t) for i, t in enumerate(draw(extra))]
              + [(draw(st.sampled_from(["vertex_indices", "vertex_indices", "vertex_index"])),
                  listed)]
              + [(f"b{i}", t) for i, t in enumerate(draw(extra))])
    frows, triangles = [], []
    for _ in range(draw(st.integers(0, 6))):
        corners = draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=4, unique=True))
        triangles += [corners[:3]] + ([[corners[0], corners[2], corners[3]]]
                                      if len(corners) == 4 else [])
        frows.append([corners if t == listed else draw(_values_of(t)) for _, t in fprops])
    header = f"element vertex {n}\n" + "".join(f"property {t} {p}\n" for p, t in vprops)
    header += f"element face {len(frows)}\n" + "".join(
        f"property {' '.join(t) if t == listed else t} {p}\n" for p, t in fprops)
    names = [p for p, _ in vprops]
    vertices = [[row[names.index(axis)] for axis in "xyz"] for row in vrows]
    expected = TriangleMesh(np.array(vertices, np.float64), np.array(triangles, np.int64))
    return header, (vprops, vrows), (fprops, frows), expected


def _ascii_ply(header, *elements):
    def token(value):
        return " ".join(["%d" % len(value)] + ["%.17g" % v for v in value]) \
            if isinstance(value, list) else "%.17g" % value
    lines = [" ".join(token(v) for v in row) for _, rows in elements for row in rows]
    return (f"ply\nformat ascii 1.0\n{header}end_header\n"
            + "".join(line + "\n" for line in lines)).encode()


def _binary_ply(header, *elements):
    code = fileio._PLY_SCALAR
    blob = b""
    for props, rows in elements:
        for row in rows:
            for (_, ptype), value in zip(props, row):
                if isinstance(value, list):
                    blob += struct.pack(f"<{code[ptype[1]]}{len(value)}{code[ptype[2]]}",
                                        len(value), *value)
                else:
                    blob += struct.pack("<" + code[ptype], value)
    return f"ply\nformat binary_little_endian 1.0\n{header}end_header\n".encode() + blob


@pytest.fixture(scope="module")
def layout_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("layouts")


@settings(max_examples=150, deadline=None)
@given(_ply_layouts())
def test_generated_layouts_same_arrays_in_both_encodings(layout_dir, layout):
    """Ascii and binary, block read and record walk, this reader and the oracles agree."""
    header, vertex, face, expected = layout
    paths = []
    for name, write in (("ascii.ply", _ascii_ply), ("binary.ply", _binary_ply)):
        paths.append(layout_dir / name)
        paths[-1].write_bytes(write(header, vertex, face))
    for path in paths:
        _assert_same_mesh(load_mesh(path), expected)
        with mock.patch.object(fileio._BinaryBody, "block", lambda *args: None):
            _assert_same_mesh(load_mesh(path), expected)
        with mock.patch.object(fileio, "_read_ply_body", read_ply_body_loop):
            _assert_same_mesh(load_mesh(path), expected)
