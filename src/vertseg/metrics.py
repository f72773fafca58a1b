"""Segmentation evaluation: Dice overlap, mean absolute surface distance,
volume/density summaries, and grouped reporting.

Each label is scored on its own box, the smallest that holds it in both
volumes grown by one voxel, so evaluating a case costs what its labels'
boxes cost, not a full-grid pass per label. Surface distances come from
an exact Euclidean distance transform (`ndimage.distance_transform_edt`)
rather than a nearest-neighbour search over surface points.
"""

import csv
import io
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .volume import (BoundingBox, GridGeometry, LabelVolume, crop, grow_box,
                     label_boxes, union_box)


def _as_bool(mask):
    arr = mask.data if isinstance(mask, LabelVolume) else np.asarray(mask)
    return arr != 0


def _mask_pair(gt, seg):
    """Boolean arrays of two masks, after checking that they share a grid
    (when both are LabelVolumes) and a shape."""
    if isinstance(gt, LabelVolume) and isinstance(seg, LabelVolume) \
            and not seg.geometry.same_grid(gt.geometry):
        raise ValueError("masks do not share geometry")
    g = _as_bool(gt)
    s = _as_bool(seg)
    if g.shape != s.shape:
        raise ValueError("masks do not share shape")
    return g, s


def dice(gt, seg):
    """Dice coefficient in percent: 2|GT & S| / (|GT| + |S|) * 100.

    Two empty masks count as a perfect match (100)."""
    g, s = _mask_pair(gt, seg)
    denom = g.sum() + s.sum()
    if denom == 0:
        return 100.0
    return 200.0 * np.logical_and(g, s).sum() / denom


def surface_voxels(mask, geometry):
    """World coordinates (mm) of boundary voxels, in C order: foreground
    voxels with at least one 6-neighbor background voxel inside the
    grid."""
    m = _as_bool(mask)
    eroded = ndimage.binary_erosion(m, border_value=1)
    surf = m & ~eroded
    idx = np.argwhere(surf)
    return geometry.voxel_to_world(idx)


def _surface_distance(g, s, spacing, symmetric):
    """`asd` of two boolean masks on one array; NaN when either has no
    surface voxel (it is empty or fills the array).

    Each surface is `surface_voxels` on a unit grid, which gives its voxel
    indices. The distance from a voxel to the nearest surface voxel of
    the other mask is an exact Euclidean distance transform (Maurer, Qi &
    Raghavan, IEEE TPAMI 2003) of the other surface's complement, read at
    the voxel; the same distance a nearest-neighbour search over the
    surface points finds, up to the last bits of its square root."""
    if not (g.any() and s.any()):
        return float("nan")
    unit = GridGeometry(g.shape, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    surf_g, surf_s = (tuple(surface_voxels(m, unit).astype(np.intp).T)
                      for m in (g, s))
    if surf_g[0].size == 0 or surf_s[0].size == 0:
        return float("nan")

    def mean_distance(reference, query):
        away = np.ones(g.shape, dtype=bool)
        away[reference] = False
        return ndimage.distance_transform_edt(
            away, sampling=spacing)[query].mean()

    d_s = mean_distance(surf_g, surf_s)
    if not symmetric:
        return float(d_s)
    return float((d_s + mean_distance(surf_s, surf_g)) / 2.0)


def asd(gt, seg, geometry=None, symmetric=False):
    """Mean absolute surface distance in mm, from the segmentation surface
    to the nearest ground-truth surface voxel (directional as defined;
    symmetric=True averages both directions).

    The masks must share a grid and a shape, as for `dice`. Both surfaces
    lie in the union of the masks' bounding boxes grown by one voxel
    (clamped to the grid), and every voxel beyond that box is
    background, so the surfaces and distances are taken on that box. A
    mask that is empty or fills its grid has no surface: ValueError."""
    if geometry is None:
        geometry = seg.geometry if isinstance(seg, LabelVolume) else None
    if geometry is None:
        raise ValueError("geometry required for surface distances")
    g, s = _mask_pair(gt, seg)
    if not g.any() or not s.any():
        raise ValueError("surface distance undefined for empty masks")
    (box,) = ndimage.find_objects((g | s).view(np.int8))
    box = grow_box(box, 1, g.shape)
    d = _surface_distance(g[box], s[box], geometry.spacing, symmetric)
    if np.isnan(d):
        raise ValueError("surface distance undefined for a mask that "
                         "fills its grid")
    return d


def volume_and_density(mask, intensity):
    """(volume cm^3, mean HU) of a mask over the intensity volume."""
    m = _as_bool(mask)
    if m.shape != intensity.data.shape:
        raise ValueError("mask and intensity do not share geometry")
    count = int(m.sum())
    vol_cm3 = count * intensity.geometry.voxel_volume_mm3 / 1000.0
    if count == 0:
        raise ValueError("density undefined for an empty mask")
    return vol_cm3, float(intensity.data[m].mean())


@dataclass
class EvalRow:
    case_id: str
    vertebra_id: str
    tags: dict = field(default_factory=dict)
    volume_cm3: float = 0.0
    density_hu: float = 0.0
    dice_pct: float = 0.0
    asd_mm: float = 0.0


def evaluate_labels(gt, seg, intensity, vertebrae, case_id,
                    symmetric=False, boxes=None):
    """One EvalRow per (vertebra id, label value, tags) in `vertebrae`,
    in that order. Without an intensity volume the volume comes from the
    voxel count and the density is NaN; with one, both are 0 for an
    empty segmentation. ASD is NaN when either mask is empty or fills
    the grid. The segmentation and the intensity volume must lie
    on the ground truth's grid (`GridGeometry.same_grid`).

    Each label is scored on its box: the union of its ground-truth and
    segmentation bounding boxes (one `ndimage.find_objects` pass per
    volume), grown by one voxel and clamped to the grid. Every voxel
    beyond the box is background in both masks, so Dice, the voxel count
    and the density (the label's intensities, in C order) are the
    full-grid values bit for bit, and the box holds both surfaces with
    the background ring that `asd`'s erosion reads. A caller that has
    already taken `(label_boxes(gt.data), label_boxes(seg.data))` passes
    them as `boxes`."""
    for name, vol in (("segmentation", seg), ("intensity", intensity)):
        if vol is not None and not vol.geometry.same_grid(gt.geometry):
            raise ValueError(f"{name} grid {vol.geometry} is not the ground "
                             f"truth grid {gt.geometry}")
    dims = gt.geometry.dims
    if boxes is None:
        boxes = (label_boxes(gt.data), label_boxes(seg.data))
    rows = []
    for vid, lv, tags in vertebrae:
        found = [b[lv] for b in boxes if lv in b]
        if lv == 0:  # the background has no box: the whole grid
            box = tuple(slice(0, n) for n in dims)
        elif found:
            box = grow_box(union_box(found), 1, dims)
        else:
            box = (slice(0, 0),) * 3
        g = gt.data[box] == lv
        s = seg.data[box] == lv
        vol_cm3, den = 0.0, 0.0
        if intensity is None:
            count = np.count_nonzero(s)
            vol_cm3 = count * gt.geometry.voxel_volume_mm3 / 1000.0
            den = float("nan")
        elif s.any():
            vol_cm3, den = volume_and_density(
                s, crop(intensity, BoundingBox.from_slices(box)))
        rows.append(EvalRow(
            case_id=case_id, vertebra_id=str(vid), tags=dict(tags),
            volume_cm3=vol_cm3, density_hu=den,
            dice_pct=dice(g, s),
            asd_mm=_surface_distance(g, s, gt.geometry.spacing, symmetric),
        ))
    return rows


_NUMERIC_COLUMNS = [("volume_cm3", "Vol(cm3)"), ("density_hu", "Den(HU)"),
                    ("dice_pct", "DC(%)"), ("asd_mm", "ASD(mm)")]


def report(rows, group_by=None):
    """Per-group mean/SD/count for each numeric column.

    Returns a list of dicts, one per group (plus an 'all' group), each
    with 'group', 'count', and per-column 'mean'/'sd' entries (sample SD,
    None for singleton groups)."""
    groups = {}
    for row in rows:
        if group_by is None:
            key = "all"
        else:
            if group_by not in row.tags:
                raise KeyError(f"row {row.case_id}/{row.vertebra_id} "
                               f"missing tag {group_by!r}")
            key = row.tags[group_by]
        groups.setdefault(key, []).append(row)

    out = []
    for key in sorted(groups):
        members = groups[key]
        entry = {"group": key, "count": len(members)}
        for attr, _title in _NUMERIC_COLUMNS:
            vals = np.array([getattr(r, attr) for r in members], dtype=float)
            entry[attr] = {
                "mean": float(vals.mean()),
                "sd": float(vals.std(ddof=1)) if len(vals) > 1 else None,
            }
        out.append(entry)
    return out


def render_report_csv(rows, summaries):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["case_id", "vertebra_id", "tags", "volume_cm3",
                "density_hu", "dice_pct", "asd_mm"])
    for r in rows:
        tagstr = ";".join(f"{k}={v}" for k, v in sorted(r.tags.items()))
        w.writerow([r.case_id, r.vertebra_id, tagstr,
                    f"{r.volume_cm3:.4f}", f"{r.density_hu:.2f}",
                    f"{r.dice_pct:.3f}", f"{r.asd_mm:.4f}"])
    w.writerow([])
    w.writerow(["group", "count"]
               + [t for _a, t in _NUMERIC_COLUMNS for t in (t + " mean",
                                                            t + " sd")])
    for s in summaries:
        row = [s["group"], s["count"]]
        for attr, _t in _NUMERIC_COLUMNS:
            row.append(f"{s[attr]['mean']:.4f}")
            sd = s[attr]["sd"]
            row.append("" if sd is None else f"{sd:.4f}")
        w.writerow(row)
    return buf.getvalue()


def render_report_text(summaries):
    titles = [t for _a, t in _NUMERIC_COLUMNS]
    header = f"{'group':<14}{'n':>4}" + "".join(f"{t:>22}" for t in titles)
    lines = [header, "-" * len(header)]
    for s in summaries:
        cells = []
        for attr, _t in _NUMERIC_COLUMNS:
            sd = s[attr]["sd"]
            cell = (f"{s[attr]['mean']:.2f}"
                    + (f" ({sd:.2f})" if sd is not None else ""))
            cells.append(f"{cell:>22}")
        lines.append(f"{str(s['group']):<14}{s['count']:>4}" + "".join(cells))
    return "\n".join(lines) + "\n"
