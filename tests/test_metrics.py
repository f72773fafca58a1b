"""Evaluation-metric tests against brute-force oracles.

The surface-distance oracle rebuilds the boundary voxel set by checking
6-neighborhoods explicitly (grid-edge voxels are not boundary unless an
interior background neighbor exists) and averages nearest distances with
a double loop.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vertseg
from vertseg.metrics import (EvalRow, asd, dice, evaluate_labels,
                             render_report_csv, render_report_text, report,
                             surface_voxels, volume_and_density)
from vertseg.volume import GridGeometry, LabelVolume, ScalarVolume


def _geom(dims, spacing=(1.0, 1.0, 1.0)):
    return GridGeometry(dims, spacing, (0.0, 0.0, 0.0))


def _oracle_dice(g, s):
    inter = np.sum(g & s)
    denom = np.sum(g) + np.sum(s)
    return 100.0 if denom == 0 else 200.0 * inter / denom


def _oracle_surface(mask):
    dims = mask.shape
    out = []
    for i in range(dims[0]):
        for j in range(dims[1]):
            for k in range(dims[2]):
                if not mask[i, j, k]:
                    continue
                for d in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                          (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                    ni, nj, nk = i + d[0], j + d[1], k + d[2]
                    if 0 <= ni < dims[0] and 0 <= nj < dims[1] \
                            and 0 <= nk < dims[2] and not mask[ni, nj, nk]:
                        out.append((i, j, k))
                        break
    return np.array(out, dtype=float)


def _oracle_asd(gt, seg, spacing):
    sp = np.asarray(spacing)
    surf_gt = _oracle_surface(gt) * sp
    surf_s = _oracle_surface(seg) * sp
    total = 0.0
    for p in surf_s:
        total += np.min(np.linalg.norm(surf_gt - p, axis=1))
    return total / len(surf_s)


def test_dice_brute_force_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = rng.random((6, 6, 6)) < 0.4
        s = rng.random((6, 6, 6)) < 0.4
        assert dice(g.astype(int), s.astype(int)) \
            == pytest.approx(_oracle_dice(g, s))


def test_dice_half_overlap_cube():
    g = np.zeros((8, 8, 8), dtype=int)
    s = np.zeros((8, 8, 8), dtype=int)
    g[0:4, :, :] = 1          # 256 voxels
    s[2:6, :, :] = 1          # 256 voxels, 128 shared
    assert dice(g, s) == pytest.approx(50.0)


def test_dice_edge_cases():
    z = np.zeros((4, 4, 4), dtype=int)
    o = np.ones((4, 4, 4), dtype=int)
    assert dice(z, z) == 100.0
    assert dice(o, o) == 100.0
    assert dice(o, z) == 0.0
    with pytest.raises(ValueError):
        dice(z, np.zeros((4, 4, 5), dtype=int))


def test_dice_geometry_check():
    a = LabelVolume(_geom((4, 4, 4)), np.ones((4, 4, 4), dtype=int))
    b = LabelVolume(_geom((4, 4, 4), spacing=(2.0, 1.0, 1.0)),
                    np.ones((4, 4, 4), dtype=int))
    with pytest.raises(ValueError):
        dice(a, b)


def test_dice_accepts_float32_rounded_geometry():
    g = GridGeometry((4, 4, 4), (0.7, 0.7, 1.3), (-12.3, 4.1, 100.7))
    g32 = GridGeometry(g.dims, np.float32(g.spacing), np.float32(g.origin))
    assert g32 != g
    ones = np.ones((4, 4, 4), dtype=int)
    assert dice(LabelVolume(g, ones), LabelVolume(g32, ones)) == 100.0


def test_evaluate_labels_rejects_inputs_on_another_grid():
    dims = (6, 6, 6)
    data = np.zeros(dims, dtype=int)
    data[1:4, 1:4, 1:4] = 1
    gt = LabelVolume(_geom(dims), data)
    # same dims, but 2 mm voxels 50 mm away: not one voxel overlaps
    other = GridGeometry(dims, (2.0, 2.0, 2.0), (50.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="segmentation grid"):
        evaluate_labels(gt, LabelVolume(other, data), None,
                        [("V1", 1, {})], "c")
    with pytest.raises(ValueError, match="intensity grid"):
        evaluate_labels(gt, gt, ScalarVolume(other, np.ones(dims)),
                        [("V1", 1, {})], "c")


def test_surface_voxels_matches_oracle():
    rng = np.random.default_rng(1)
    g = _geom((6, 6, 6), spacing=(0.5, 1.0, 2.0))
    for _ in range(10):
        mask = rng.random((6, 6, 6)) < 0.5
        if not mask.any():
            continue
        got = surface_voxels(mask, g)
        want = _oracle_surface(mask) * np.array(g.spacing)
        got_set = {tuple(np.round(p, 9)) for p in got}
        want_set = {tuple(np.round(p, 9)) for p in want}
        assert got_set == want_set


def test_asd_matches_oracle_random():
    rng = np.random.default_rng(2)
    g = _geom((6, 6, 6), spacing=(0.8, 1.0, 1.25))
    for _ in range(10):
        gt = rng.random((6, 6, 6)) < 0.5
        seg = rng.random((6, 6, 6)) < 0.5
        if not gt.any() or not seg.any():
            continue
        want = _oracle_asd(gt, seg, g.spacing)
        assert asd(gt, seg, g) == pytest.approx(want, abs=1e-12)


def test_asd_parallel_plates():
    # two 1-voxel plates 3 mm apart: every seg surface voxel is 3 mm from
    # the nearest ground-truth surface voxel
    g = _geom((10, 8, 8), spacing=(1.5, 1.0, 1.0))
    gt = np.zeros((10, 8, 8), dtype=bool)
    seg = np.zeros((10, 8, 8), dtype=bool)
    gt[2] = True
    seg[4] = True
    assert asd(gt, seg, g) == pytest.approx(3.0)
    assert asd(gt, seg, g, symmetric=True) == pytest.approx(3.0)


def test_asd_identical_masks_is_zero():
    rng = np.random.default_rng(3)
    m = rng.random((6, 6, 6)) < 0.5
    m[2, 2, 2] = True
    assert asd(m, m.copy(), _geom((6, 6, 6))) == 0.0


def test_asd_empty_mask_errors():
    g = _geom((4, 4, 4))
    full = np.ones((4, 4, 4), dtype=bool)
    empty = np.zeros((4, 4, 4), dtype=bool)
    with pytest.raises(ValueError):
        asd(empty, full, g)
    with pytest.raises(ValueError):
        asd(full, empty, g)
    with pytest.raises(ValueError):
        asd(full, full)  # plain arrays need an explicit geometry


def test_volume_and_density():
    g = _geom((4, 4, 4), spacing=(2.0, 2.5, 5.0))
    mask = np.zeros((4, 4, 4), dtype=bool)
    mask[0, 0, 0] = mask[1, 1, 1] = True
    data = np.zeros((4, 4, 4))
    data[0, 0, 0] = 100.0
    data[1, 1, 1] = 300.0
    vol, den = volume_and_density(mask, ScalarVolume(g, data))
    assert vol == pytest.approx(2 * 25.0 / 1000.0)
    assert den == pytest.approx(200.0)
    with pytest.raises(ValueError):
        volume_and_density(np.zeros((4, 4, 4), dtype=bool),
                           ScalarVolume(g, data))


def _rows():
    return [
        EvalRow("c1", "L1", tags={"state": "normal"}, volume_cm3=10.0,
                density_hu=200.0, dice_pct=90.0, asd_mm=0.5),
        EvalRow("c1", "L2", tags={"state": "normal"}, volume_cm3=12.0,
                density_hu=220.0, dice_pct=94.0, asd_mm=0.7),
        EvalRow("c2", "L1", tags={"state": "fractured"}, volume_cm3=8.0,
                density_hu=180.0, dice_pct=88.0, asd_mm=0.9),
    ]


def test_report_mean_and_sample_sd():
    summary = report(_rows())
    assert len(summary) == 1
    s = summary[0]
    assert s["group"] == "all"
    assert s["count"] == 3
    assert s["dice_pct"]["mean"] == pytest.approx((90 + 94 + 88) / 3)
    # sample SD of 90, 94 in a two-row group is sqrt(8) = 2.828...
    two = report(_rows()[:2])[0]
    assert two["dice_pct"]["sd"] == pytest.approx(np.sqrt(8.0))


def test_report_grouping_and_singleton_sd():
    summary = report(_rows(), group_by="state")
    by_group = {s["group"]: s for s in summary}
    assert set(by_group) == {"normal", "fractured"}
    assert by_group["fractured"]["count"] == 1
    assert by_group["fractured"]["dice_pct"]["sd"] is None
    assert by_group["normal"]["dice_pct"]["mean"] == pytest.approx(92.0)


def test_report_missing_tag_raises():
    rows = _rows()
    rows.append(EvalRow("c3", "L3"))
    with pytest.raises(KeyError):
        report(rows, group_by="state")


def test_render_csv_and_text():
    rows = _rows()
    summary = report(rows, group_by="state")
    csv_text = render_report_csv(rows, summary)
    assert "c1,L1,state=normal" in csv_text
    assert "90.000" in csv_text
    txt = render_report_text(summary)
    assert "normal" in txt and "fractured" in txt
    assert "92.00 (2.83)" in txt


def _two_label_case():
    g = _geom((6, 6, 6), spacing=(1.0, 1.0, 2.0))
    gt = np.zeros((6, 6, 6), dtype=np.int32)
    gt[1:3, 1:3, 1:3] = 1
    gt[3:5, 3:5, 3:5] = 2
    seg = np.where(gt == 2, 0, gt)  # label 2 missing from the segmentation
    intensity = ScalarVolume(g, np.full((6, 6, 6), 150.0))
    return LabelVolume(g, gt), LabelVolume(g, seg), intensity


def test_evaluate_labels_empty_segmentation_label():
    gt, seg, intensity = _two_label_case()
    (row,) = evaluate_labels(gt, seg, intensity, [("L2", 2, {"s": "x"})],
                             "c0")
    assert row.case_id == "c0" and row.vertebra_id == "L2"
    assert row.tags == {"s": "x"}
    assert row.dice_pct == 0.0
    assert row.volume_cm3 == 0.0 and row.density_hu == 0.0
    assert np.isnan(row.asd_mm)


def test_evaluate_labels_rows_follow_request_order():
    gt, seg, intensity = _two_label_case()
    rows = evaluate_labels(gt, seg, intensity,
                           [("L2", 2, {}), ("L1", 1, {}), ("L9", 9, {})],
                           "c0", symmetric=True)
    assert [r.vertebra_id for r in rows] == ["L2", "L1", "L9"]
    l1 = rows[1]
    assert l1.dice_pct == 100.0 and l1.asd_mm == 0.0
    assert l1.volume_cm3 == pytest.approx(8 * 2.0 / 1000.0)
    assert l1.density_hu == pytest.approx(150.0)
    # a label in neither volume: Dice of two empty masks, no surface
    assert rows[2].dice_pct == 100.0 and np.isnan(rows[2].asd_mm)


def test_evaluate_labels_without_intensity():
    # the volume needs only the voxel count; the density is not measured
    gt, seg, intensity = _two_label_case()
    rows = evaluate_labels(gt, seg, None, [(1, 1, {}), (2, 2, {})], "c0")
    assert [r.vertebra_id for r in rows] == ["1", "2"]
    (with_intensity,) = evaluate_labels(gt, seg, intensity, [(1, 1, {})],
                                        "c0")
    assert rows[0].volume_cm3 == with_intensity.volume_cm3 == 8 * 2.0 / 1000
    assert rows[1].volume_cm3 == 0.0  # label 2 is not in the segmentation
    assert all(np.isnan(r.density_hu) for r in rows)
    assert rows[0].dice_pct == 100.0


def test_asd_rejects_masks_on_another_grid_or_of_another_shape():
    ones = np.ones((4, 4, 4), dtype=int)
    ones[0] = 0
    a = LabelVolume(_geom((4, 4, 4)), ones)
    b = LabelVolume(_geom((4, 4, 4), spacing=(2.0, 1.0, 1.0)), ones)
    with pytest.raises(ValueError, match="masks do not share geometry"):
        asd(a, b)
    with pytest.raises(ValueError, match="masks do not share shape"):
        asd(ones, np.ones((4, 4, 5), dtype=int), _geom((4, 4, 4)))


@pytest.mark.parametrize("symmetric", [False, True])
def test_asd_rejects_a_mask_that_fills_its_grid(symmetric):
    # no voxel of a full mask has a background neighbour inside the grid
    g = _geom((5, 5, 5))
    full = np.ones((5, 5, 5), dtype=bool)
    part = np.zeros((5, 5, 5), dtype=bool)
    part[1:4, 1:4, 1:4] = True
    for gt, seg in ((full, part), (part, full), (full, full)):
        with pytest.raises(ValueError, match="surface distance undefined"):
            asd(gt, seg, g, symmetric=symmetric)


def test_evaluate_labels_reports_nan_for_a_mask_that_fills_its_grid():
    g = _geom((5, 5, 5))
    full = LabelVolume(g, np.ones((5, 5, 5), dtype=int))
    part = np.zeros((5, 5, 5), dtype=int)
    part[1:4, 1:4, 1:4] = 1
    part = LabelVolume(g, part)
    for gt, seg in ((full, part), (part, full)):
        (row,) = evaluate_labels(gt, seg, None, [("V1", 1, {})], "c")
        assert row.dice_pct == pytest.approx(200.0 * 27 / (125 + 27))
        assert np.isnan(row.asd_mm)


def _random_labels(rng, dims, n_labels):
    """Random blocks of labels 1..n_labels, each filled at 80%; label 1
    spans axis 0 from face to face."""
    data = np.zeros(dims, dtype=np.int32)
    for lv in range(1, n_labels + 1):
        lo = [int(rng.integers(0, d)) for d in dims]
        hi = [int(rng.integers(a + 1, d + 1)) for a, d in zip(lo, dims)]
        if lv == 1:
            lo[0], hi[0] = 0, dims[0]
        sl = tuple(slice(a, b) for a, b in zip(lo, hi))
        data[sl][rng.random(data[sl].shape) < 0.8] = lv
    return data


def _reference_asd(gt, seg, spacing, symmetric):
    """Full-grid mean surface distance by brute force; NaN without a
    surface voxel on either side."""
    sp = np.asarray(spacing)
    surf_gt, surf_s = (_oracle_surface(m).reshape(-1, 3) * sp
                       for m in (gt, seg))
    if len(surf_gt) == 0 or len(surf_s) == 0:
        return float("nan")

    def mean_nearest(query, reference):
        d = np.sqrt(((query[:, None, :] - reference[None, :, :]) ** 2)
                    .sum(axis=-1))
        return d.min(axis=1).mean()

    d = mean_nearest(surf_s, surf_gt)
    return (d + mean_nearest(surf_gt, surf_s)) / 2.0 if symmetric else d


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), symmetric=st.booleans())
def test_evaluate_labels_and_asd_match_full_grid_references(seed,
                                                           symmetric):
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in rng.integers(3, 11, 3))
    spacing = tuple(rng.uniform(0.5, 2.0, 3))
    geom = GridGeometry(dims, spacing, (1.5, -2.0, 30.0))
    gt = _random_labels(rng, dims, 3)
    # the segmentation: the labels shifted by a voxel, some voxels
    # relabelled at random
    seg = np.roll(gt, int(rng.integers(-1, 2)), axis=int(rng.integers(3)))
    flip = rng.random(dims) < 0.1
    seg[flip] = rng.integers(0, 4, int(flip.sum()))
    intensity = ScalarVolume(geom, rng.normal(100.0, 50.0, dims))
    # label 0 is the background, label 4 is in neither volume
    vertebrae = [(f"V{lv}", lv, {}) for lv in range(5)]
    rows = evaluate_labels(LabelVolume(geom, gt), LabelVolume(geom, seg),
                           intensity, vertebrae, "c", symmetric=symmetric)
    for row, (_vid, lv, _tags) in zip(rows, vertebrae):
        g, s = gt == lv, seg == lv
        assert row.dice_pct == _oracle_dice(g, s)
        want = volume_and_density(s, intensity) if s.any() else (0.0, 0.0)
        assert (row.volume_cm3, row.density_hu) == want
        want = _reference_asd(g, s, spacing, symmetric)
        if np.isnan(want):
            assert np.isnan(row.asd_mm)
            continue
        assert abs(row.asd_mm - want) <= 1e-12
        for a, b in ((g, s), (s, g)):
            got = asd(a, b, geom, symmetric=symmetric)
            assert abs(got - _reference_asd(a, b, spacing,
                                            symmetric)) <= 1e-12


@pytest.mark.parametrize("module", ["scipy.spatial", "scipy.sparse"])
def test_importing_the_cli_leaves_scipy_module_unloaded(module):
    # surface distances come from ndimage's distance transform, whose
    # k-d tree module would add about 10 MB to every process's peak RSS;
    # the FFD gathers its taps at arbitrary points with no sparse matrix,
    # whose module would add about 1.5 MB
    src = os.path.dirname(os.path.dirname(vertseg.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, vertseg.cli; print({module!r} in sys.modules)"],
        check=True, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.strip() == "False"
