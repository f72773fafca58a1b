"""Single-file NIfTI reader/writer round-trip and validation tests."""

import gzip
import os
import re
import struct
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertseg.nifti import read_volume, write_volume
from vertseg.volume import GridGeometry, LabelVolume, ScalarVolume


def _scalar(seed=0):
    rng = np.random.default_rng(seed)
    geom = GridGeometry((7, 6, 5), (0.5, 0.75, 1.25), (-3.0, 2.0, 10.0))
    data = np.round(rng.normal(100, 300, geom.dims))
    return ScalarVolume(geom, data)


def _labels(seed=1):
    rng = np.random.default_rng(seed)
    geom = GridGeometry((7, 6, 5), (0.5, 0.75, 1.25), (-3.0, 2.0, 10.0))
    return LabelVolume(geom, rng.integers(0, 6, geom.dims))


@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
def test_scalar_round_trip(tmp_path, suffix):
    vol = _scalar()
    path = tmp_path / f"img{suffix}"
    write_volume(path, vol)
    back = read_volume(path)
    assert isinstance(back, ScalarVolume)
    assert back.geometry.dims == vol.geometry.dims
    assert np.allclose(back.geometry.spacing, vol.geometry.spacing,
                       atol=1e-6)
    assert np.allclose(back.geometry.origin, vol.geometry.origin, atol=1e-5)
    assert np.array_equal(back.data, vol.data)  # integral values survive


# NIfTI stores spacing and origin as float32, so these survive exactly
_float32_spacing = st.floats(0.125, 1024.0, width=32)
_float32_origin = st.floats(-8192.0, 8192.0, width=32)


@settings(max_examples=60, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 6)] * 3),
       spacing=st.tuples(*[_float32_spacing] * 3),
       origin=st.tuples(*[_float32_origin] * 3),
       kind=st.sampled_from(["scalar", "label"]),
       suffix=st.sampled_from([".nii", ".nii.gz"]),
       seed=st.integers(0, 2 ** 16))
def test_round_trip_keeps_data_and_geometry_exactly(dims, spacing, origin,
                                                    kind, suffix, seed):
    rng = np.random.default_rng(seed)
    geom = GridGeometry(dims, spacing, origin)
    if kind == "label":
        vol = LabelVolume(geom, rng.integers(0, 256, dims))
    else:
        vol = ScalarVolume(geom, rng.integers(-32768, 32768, dims))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"vol{suffix}")
        write_volume(path, vol)
        back = read_volume(path, kind=kind)
    assert type(back) is type(vol)
    assert back.geometry == vol.geometry
    assert back.data.dtype == vol.data.dtype
    assert np.array_equal(back.data, vol.data)


@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
def test_label_round_trip(tmp_path, suffix):
    vol = _labels()
    path = tmp_path / f"seg{suffix}"
    write_volume(path, vol)
    back = read_volume(path, kind="label")
    assert isinstance(back, LabelVolume)
    assert np.array_equal(back.data, vol.data)
    assert back.data.dtype.kind == "i"


def test_gz_file_really_compressed(tmp_path):
    path = tmp_path / "img.nii.gz"
    write_volume(path, _scalar())
    with open(path, "rb") as f:
        magic = f.read(2)
    assert magic == b"\x1f\x8b"
    # and transparently decompressed on read
    assert read_volume(path).geometry.dims == (7, 6, 5)


def test_write_rejects_out_of_range(tmp_path):
    geom = GridGeometry((2, 2, 2), (1, 1, 1), (0, 0, 0))
    big = ScalarVolume(geom, np.full((2, 2, 2), 1e6))
    with pytest.raises(ValueError):
        write_volume(tmp_path / "a.nii", big)
    lbl = LabelVolume(geom, np.full((2, 2, 2), 300))
    with pytest.raises(ValueError):
        write_volume(tmp_path / "b.nii", lbl)


def test_read_truncated_file(tmp_path):
    path = tmp_path / "short.nii"
    path.write_bytes(b"\x00" * 100)
    with pytest.raises(ValueError):
        read_volume(path)


def test_read_wrong_magic_size(tmp_path):
    path = tmp_path / "bad.nii"
    path.write_bytes(b"\x00" * 400)
    with pytest.raises(ValueError):
        read_volume(path)


def test_read_rejects_4d(tmp_path):
    path = tmp_path / "img.nii"
    write_volume(path, _scalar())
    raw = bytearray(path.read_bytes())
    struct.pack_into("<8h", raw, 40, 4, 7, 6, 5, 3, 1, 1, 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        read_volume(path)


def test_read_rejects_rotated_sform(tmp_path):
    path = tmp_path / "img.nii"
    write_volume(path, _scalar())
    raw = bytearray(path.read_bytes())
    srow = np.zeros((3, 4), dtype=np.float32)
    srow[0, 1] = 1.0  # off-diagonal rotation term
    srow[1, 0] = 1.0
    srow[2, 2] = 1.0
    struct.pack_into("<12f", raw, 280, *srow.ravel())
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        read_volume(path)


def test_read_applies_scl_slope(tmp_path):
    path = tmp_path / "img.nii"
    write_volume(path, _scalar())
    raw = bytearray(path.read_bytes())
    struct.pack_into("<2f", raw, 112, 2.0, 10.0)  # slope 2, intercept 10
    path.write_bytes(bytes(raw))
    scaled = read_volume(path)
    assert np.array_equal(scaled.data, 2.0 * _scalar().data + 10.0)


def test_axis_order_is_x_fastest(tmp_path):
    # a single bright voxel at index (1, 2, 3) must land at the NIfTI
    # offset x + nx*(y + ny*z)
    geom = GridGeometry((4, 5, 6), (1, 1, 1), (0, 0, 0))
    data = np.zeros((4, 5, 6))
    data[1, 2, 3] = 77.0
    path = tmp_path / "one.nii"
    write_volume(path, ScalarVolume(geom, data))
    raw = path.read_bytes()
    body = np.frombuffer(raw, dtype="<i2", offset=352)
    assert body[1 + 4 * (2 + 5 * 3)] == 77
    back = read_volume(path)
    assert back.data[1, 2, 3] == 77.0
    assert back.data.sum() == 77.0


def test_read_closes_file(tmp_path):
    path = tmp_path / "img.nii"
    write_volume(path, _scalar())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        read_volume(path)
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.mark.parametrize("offset", [0.0, 100.0, 351.0, 1e9, float("inf"),
                                    float("nan")])
def test_read_rejects_vox_offset_outside_file(tmp_path, offset):
    path = tmp_path / "img.nii"
    write_volume(path, _scalar())
    raw = bytearray(path.read_bytes())
    struct.pack_into("<f", raw, 108, offset)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError,
                       match=re.escape(str(path)) + ".*vox_offset"):
        read_volume(path)


@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
def test_read_rejects_truncated_payload(tmp_path, suffix):
    path = tmp_path / f"img{suffix}"
    write_volume(path, _scalar())
    raw = path.read_bytes()
    if suffix.endswith(".gz"):
        raw = gzip.decompress(raw)
    raw = raw[:-2]  # one int16 voxel short
    path.write_bytes(gzip.compress(raw) if suffix.endswith(".gz") else raw)
    with pytest.raises(ValueError,
                       match=re.escape(str(path)) + ".*truncated"):
        read_volume(path)


def test_read_rejects_nonpositive_dims(tmp_path):
    path = tmp_path / "img.nii"
    write_volume(path, _scalar())
    raw = bytearray(path.read_bytes())
    struct.pack_into("<8h", raw, 40, 3, -7, -6, 5, 1, 1, 1, 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*dims"):
        read_volume(path)


def _corrupted(tmp_path, patches, name="img.nii"):
    """A written scalar file with (format, offset, values) packed into
    its header."""
    path = tmp_path / name
    write_volume(path, _scalar())
    raw = bytearray(path.read_bytes())
    for fmt, offset, values in patches:
        struct.pack_into(fmt, raw, offset, *values)
    path.write_bytes(bytes(raw))
    return path


_NAN = float("nan")
_INF = float("inf")


@pytest.mark.parametrize("patches, field", [
    # an off-diagonal sform term (srow_x[1], header byte 284)
    ([("<f", 284, (_NAN,))], "srow"),
    ([("<f", 280, (_INF,))], "srow"),  # the sform diagonal
    ([("<f", 292, (-_INF,))], "srow"),  # an sform origin
    # qform only: a rotation term or an offset
    ([("<2h", 252, (1, 0)), ("<f", 256, (_NAN,))], "quatern"),
    ([("<2h", 252, (1, 0)), ("<f", 264, (_NAN,))], "quatern"),
    ([("<2h", 252, (1, 0)), ("<f", 272, (_INF,))], "qoffset"),
    # neither form: the spacing comes from pixdim
    ([("<2h", 252, (0, 0)), ("<f", 84, (_NAN,))], "pixdim"),
    ([("<f", 112, (_INF,))], "scl_slope"),
    ([("<f", 116, (_NAN,))], "scl_inter"),
])
def test_read_rejects_nonfinite_header_floats(tmp_path, patches, field):
    path = _corrupted(tmp_path, patches)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=re.escape(str(path))
                           + ".*" + field + ".*must be finite"):
            read_volume(path)


def test_read_rejects_labels_beyond_int32(tmp_path):
    path = tmp_path / "lbl.nii"
    write_volume(path, _labels())
    raw = bytearray(path.read_bytes())
    struct.pack_into("<f", raw, 112, 1e30)  # scl_slope
    path.write_bytes(bytes(raw))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError,
                           match=re.escape(str(path)) + ".*int32"):
            read_volume(path, "label")


def test_read_names_the_file_for_a_zero_spacing(tmp_path):
    path = _corrupted(tmp_path, [("<f", 280, (0.0,))])
    with pytest.raises(ValueError,
                       match=re.escape(str(path)) + ".*spacing"):
        read_volume(path)


def _small_file(kind):
    """Header and payload bytes of a small volume of the given kind."""
    geom = GridGeometry((3, 4, 2), (0.5, 0.75, 1.25), (-3.0, 2.0, 10.0))
    rng = np.random.default_rng(2)
    if kind == "label":
        vol = LabelVolume(geom, rng.integers(0, 6, geom.dims))
    else:
        vol = ScalarVolume(geom, np.round(rng.normal(100, 300, geom.dims)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "v.nii")
        write_volume(path, vol)
        with open(path, "rb") as f:
            return f.read()


_SMALL_FILES = {kind: _small_file(kind) for kind in ("scalar", "label")}


# the header bytes the reader decodes: sizeof_hdr, dim, datatype, pixdim
# 0-3, vox_offset, scl_slope/inter, qform/sform codes, quatern, srow
_READ_BYTES = [b for lo, hi in ((0, 4), (40, 56), (70, 74), (76, 92),
                                (108, 120), (252, 328)) for b in range(lo, hi)]
# byte values that reach a float's sign and exponent bits (NaN, inf and
# huge values) or an int16's sign
_EDGE_BYTES = [0x00, 0x01, 0x7E, 0x7F, 0x80, 0xFE, 0xFF]


@settings(max_examples=1000, deadline=None)
@given(kind=st.sampled_from(["scalar", "label"]),
       edits=st.lists(st.tuples(
           st.sampled_from(_READ_BYTES),
           st.one_of(st.integers(0, 255), st.sampled_from(_EDGE_BYTES))),
           min_size=1, max_size=3))
def test_read_of_a_corrupted_header_reads_or_raises_value_error(kind, edits):
    raw = bytearray(_SMALL_FILES[kind])
    for offset, value in edits:
        raw[offset] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "v.nii")
        with open(path, "wb") as f:
            f.write(bytes(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                read_volume(path, kind)
            except ValueError:
                pass
