"""Minimal NIfTI-1 single-file (.nii / .nii.gz) reader and writer.

Supports exactly what the pipeline needs: 3D int16 scalar volumes and
uint8 label volumes, little-endian, axis-aligned geometry. Files carrying
a rotation (non-diagonal sform/qform) or a non-finite header float that
the reader uses are rejected.
"""

import gzip
import struct

import numpy as np

from .volume import GridGeometry, LabelVolume, ScalarVolume

HDR_SIZE = 348
MAGIC = b"n+1\x00"

_DTYPES = {
    2: np.uint8,
    4: np.int16,
    8: np.int32,
    16: np.float32,
    64: np.float64,
    256: np.int8,
    512: np.uint16,
}
_DTYPE_CODES = {np.dtype(np.uint8): 2, np.dtype(np.int16): 4}


def _open_read(path):
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    return raw


def _check_finite(path, name, values):
    """Raise a ValueError naming the file and the header field unless
    every value is finite (NaN would pass the orientation checks)."""
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: header field {name} must be finite, "
                         f"got {tuple(float(v) for v in values)}")


def read_volume(path, kind="scalar"):
    """Read a .nii/.nii.gz file as a ScalarVolume or LabelVolume."""
    raw = _open_read(path)
    if len(raw) < HDR_SIZE:
        raise ValueError(f"{path}: truncated NIfTI header")
    sizeof_hdr = struct.unpack_from("<i", raw, 0)[0]
    if sizeof_hdr != HDR_SIZE:
        raise ValueError(f"{path}: not a little-endian NIfTI-1 file")
    dim = struct.unpack_from("<8h", raw, 40)
    ndim = dim[0]
    if ndim < 3 or any(d > 1 for d in dim[4:4 + max(0, ndim - 3)]):
        raise ValueError(f"{path}: only 3D volumes are supported")
    dims = (dim[1], dim[2], dim[3])
    if any(d < 1 for d in dims):
        raise ValueError(f"{path}: dims must be >= 1, got {dims}")
    datatype, bitpix = struct.unpack_from("<2h", raw, 70)
    if datatype not in _DTYPES:
        raise ValueError(f"{path}: unsupported datatype code {datatype}")
    pixdim = struct.unpack_from("<8f", raw, 76)
    vox_offset = struct.unpack_from("<f", raw, 108)[0]
    scl_slope, scl_inter = struct.unpack_from("<2f", raw, 112)
    sform_code = struct.unpack_from("<h", raw, 254)[0]
    srow = np.array(struct.unpack_from("<12f", raw, 280),
                    dtype=np.float64).reshape(3, 4)
    qform_code = struct.unpack_from("<h", raw, 252)[0]

    _check_finite(path, "scl_slope/scl_inter", (scl_slope, scl_inter))
    spacing = tuple(float(abs(p)) for p in pixdim[1:4])
    origin = (0.0, 0.0, 0.0)
    if sform_code > 0:
        _check_finite(path, "srow_x/y/z", srow.ravel())
        rot = srow[:, :3]
        if np.any(np.abs(rot - np.diag(np.diag(rot))) > 1e-5):
            raise ValueError(f"{path}: non-axis-aligned orientation rejected")
        if np.any(np.diag(rot) < 0):
            raise ValueError(f"{path}: flipped axes rejected")
        spacing = tuple(float(d) for d in np.diag(rot))
        origin = tuple(float(v) for v in srow[:, 3])
    else:
        _check_finite(path, "pixdim[1:4]", spacing)
        if qform_code > 0:
            quat = struct.unpack_from("<6f", raw, 256)
            _check_finite(path, "quatern_b/c/d, qoffset_x/y/z", quat)
            if any(abs(q) > 1e-5 for q in quat[0:3]):
                raise ValueError(
                    f"{path}: non-axis-aligned orientation rejected")
            origin = tuple(float(v) for v in quat[3:6])

    # a single-file NIfTI-1 keeps its image after the 348-byte header and
    # the 4-byte extension flag (NaN fails this test too)
    if not HDR_SIZE + 4 <= vox_offset <= len(raw):
        raise ValueError(f"{path}: vox_offset {vox_offset} outside "
                         f"[{HDR_SIZE + 4}, {len(raw)}]: the image must "
                         f"start after the header and inside the file")
    offset = int(vox_offset)
    dt = np.dtype(_DTYPES[datatype]).newbyteorder("<")
    count = dims[0] * dims[1] * dims[2]
    if len(raw) - offset < count * dt.itemsize:
        raise ValueError(
            f"{path}: image data truncated: {max(len(raw) - offset, 0)} "
            f"bytes after vox_offset {offset}, {count * dt.itemsize} needed "
            f"for {dims} voxels of {dt.name}")
    data = np.frombuffer(raw, dtype=dt, count=count,
                         offset=offset).astype(np.float64)
    if scl_slope not in (0.0, 1.0) or scl_inter != 0.0:
        slope = scl_slope if scl_slope != 0.0 else 1.0
        data = data * slope + scl_inter
    # NIfTI data is x-fastest; our arrays are indexed (x, y, z) C-order
    data = data.reshape(dims[::-1]).transpose(2, 1, 0)
    if kind == "label":
        lo, hi = data.min(), data.max()
        if not -2 ** 31 <= lo <= hi < 2 ** 31 - 1:  # NaN fails this too
            raise ValueError(f"{path}: label values outside the int32 range")
    try:
        geom = GridGeometry(dims=dims, spacing=spacing, origin=origin)
        if kind == "label":
            return LabelVolume(geom, np.round(data).astype(np.int32))
        return ScalarVolume(geom, data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_volume(path, vol):
    """Write a volume to .nii (or .nii.gz when the path ends with .gz)."""
    if isinstance(vol, LabelVolume):
        if vol.data.max() > 255:
            raise ValueError("label values exceed uint8 range")
        arr = vol.data.astype(np.uint8)
    else:
        data = vol.data
        if np.any(data < -32768) or np.any(data > 32767):
            raise ValueError("intensities exceed int16 range")
        arr = np.round(data).astype(np.int16)

    dims = vol.geometry.dims
    spacing = vol.geometry.spacing
    origin = vol.geometry.origin

    hdr = bytearray(HDR_SIZE + 4)
    struct.pack_into("<i", hdr, 0, HDR_SIZE)
    struct.pack_into("<8h", hdr, 40, 3, dims[0], dims[1], dims[2], 1, 1, 1, 1)
    struct.pack_into("<2h", hdr, 70, _DTYPE_CODES[arr.dtype],
                     arr.dtype.itemsize * 8)
    struct.pack_into("<8f", hdr, 76, 1.0, spacing[0], spacing[1], spacing[2],
                     0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", hdr, 108, float(HDR_SIZE + 4))  # vox_offset
    struct.pack_into("<2f", hdr, 112, 1.0, 0.0)  # scl_slope/inter
    struct.pack_into("<2h", hdr, 252, 0, 1)  # qform off, sform on
    srow = np.zeros((3, 4), dtype=np.float32)
    srow[0, 0], srow[1, 1], srow[2, 2] = spacing
    srow[:, 3] = origin
    struct.pack_into("<12f", hdr, 280, *srow.ravel())
    hdr[344:348] = MAGIC

    body = arr.transpose(2, 1, 0).tobytes()
    payload = bytes(hdr) + body
    path = str(path)
    if path.endswith(".gz"):
        with gzip.open(path, "wb") as f:
            f.write(payload)
    else:
        with open(path, "wb") as f:
            f.write(payload)
