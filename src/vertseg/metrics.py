"""Segmentation evaluation: Dice overlap, mean absolute surface distance,
volume/density summaries, and grouped reporting.
"""

import csv
import io
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .volume import LabelVolume


def _as_bool(mask):
    arr = mask.data if isinstance(mask, LabelVolume) else np.asarray(mask)
    return arr != 0


def dice(gt, seg):
    """Dice coefficient in percent: 2|GT & S| / (|GT| + |S|) * 100.

    Two empty masks count as a perfect match (100)."""
    if isinstance(gt, LabelVolume) and isinstance(seg, LabelVolume) \
            and not seg.geometry.same_grid(gt.geometry):
        raise ValueError("masks do not share geometry")
    g = _as_bool(gt)
    s = _as_bool(seg)
    if g.shape != s.shape:
        raise ValueError("masks do not share shape")
    denom = g.sum() + s.sum()
    if denom == 0:
        return 100.0
    return 200.0 * np.logical_and(g, s).sum() / denom


def surface_voxels(mask, geometry):
    """World coordinates (mm) of boundary voxels: foreground voxels with
    at least one 6-neighbor background voxel inside the grid."""
    m = _as_bool(mask)
    eroded = ndimage.binary_erosion(m, border_value=1)
    surf = m & ~eroded
    idx = np.argwhere(surf)
    return geometry.voxel_to_world(idx)


def asd(gt, seg, geometry=None, symmetric=False):
    """Mean absolute surface distance in mm, from the segmentation surface
    to the nearest ground-truth surface voxel (directional as defined;
    symmetric=True averages both directions)."""
    if geometry is None:
        geometry = seg.geometry if isinstance(seg, LabelVolume) else None
    if geometry is None:
        raise ValueError("geometry required for surface distances")
    g = _as_bool(gt)
    s = _as_bool(seg)
    if not g.any() or not s.any():
        raise ValueError("surface distance undefined for empty masks")
    surf_gt = surface_voxels(g, geometry)
    surf_s = surface_voxels(s, geometry)
    d_s = cKDTree(surf_gt).query(surf_s)[0]
    if not symmetric:
        return float(d_s.mean())
    d_gt = cKDTree(surf_s).query(surf_gt)[0]
    return float((d_s.mean() + d_gt.mean()) / 2.0)


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
                    symmetric=False):
    """One EvalRow per (vertebra id, label value, tags) in `vertebrae`,
    in that order. Volume and density are 0 without an intensity volume
    or for an empty segmentation; ASD is NaN when either mask is empty.
    The segmentation and the intensity volume must lie on the ground
    truth's grid (`GridGeometry.same_grid`)."""
    for name, vol in (("segmentation", seg), ("intensity", intensity)):
        if vol is not None and not vol.geometry.same_grid(gt.geometry):
            raise ValueError(f"{name} grid {vol.geometry} is not the ground "
                             f"truth grid {gt.geometry}")
    rows = []
    for vid, lv, tags in vertebrae:
        g = gt.data == lv
        s = seg.data == lv
        vol_cm3, den = 0.0, 0.0
        if intensity is not None and s.any():
            vol_cm3, den = volume_and_density(s, intensity)
        rows.append(EvalRow(
            case_id=case_id, vertebra_id=str(vid), tags=dict(tags),
            volume_cm3=vol_cm3, density_hu=den,
            dice_pct=dice(g, s),
            asd_mm=(asd(g, s, gt.geometry, symmetric=symmetric)
                    if g.any() and s.any() else float("nan")),
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
