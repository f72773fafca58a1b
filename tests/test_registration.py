"""Registration behavior tests on small synthetic volumes.

These use a blurred random-blob image so NMI has a clean optimum, and
keep the grids small so each optimization finishes in a couple seconds.
"""

import numpy as np
import pytest
from scipy import ndimage

from vertseg import nifti, registration, transform
from vertseg.cli import main
from vertseg.phantom import deform_phantom
from vertseg.registration import (RegistrationConfig, RegistrationResult,
                                  Stop, _ascend, _Lbfgs, _penalty_grid,
                                  register_affine, register_ffd, warp_atlas)
from vertseg.similarity import NmiObjective
from vertseg.transform import (AffineTransform, ComposedTransform,
                               FFDTransform, GridBasis, affine_apply,
                               bending_operator, compose_apply,
                               lattice_covering)
from vertseg.volume import (BoundingBox, GridGeometry, LabelVolume,
                            ScalarVolume, crop, resample)


def _blob_image(seed, dims=(24, 24, 24), spacing=(1.5, 1.5, 1.5)):
    rng = np.random.default_rng(seed)
    data = ndimage.gaussian_filter(rng.normal(size=dims), 2.5)
    data = 400.0 * data / np.abs(data).max()
    return ScalarVolume(GridGeometry(dims, spacing, (0.0, 0.0, 0.0)), data)


def _quick_cfg(**kw):
    base = dict(pyramid_levels=2, max_iters_per_level=8,
                max_sample_voxels=8000)
    base.update(kw)
    return RegistrationConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        RegistrationConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        RegistrationConfig(pyramid_levels=0)
    with pytest.raises(ValueError):
        RegistrationConfig(control_spacing_mm=0.0)


@pytest.mark.parametrize("field, value", [
    ("step_tolerance", 0.0), ("step_tolerance", -1e-3),
    ("max_iters_per_level", -1), ("max_sample_voxels", -1)])
def test_config_rejects_values_that_hang_or_fail_late(field, value):
    # a step tolerance of 0 would leave _ascend halving its step forever
    with pytest.raises(ValueError, match=field):
        RegistrationConfig(**{field: value})


def test_register_affine_identity_on_identical_images():
    img = _blob_image(0)
    aff = register_affine(img, img, _quick_cfg())
    # induced motion of the domain center stays under 0.1 voxel
    center = np.array([17.25, 17.25, 17.25])
    moved = affine_apply(aff, center)
    assert np.linalg.norm(moved - center) <= 0.15
    assert np.max(np.abs(aff.matrix - np.eye(3))) <= 1e-2


def test_register_affine_recovers_translation():
    img = _blob_image(1)
    true_t = np.array([3.0, -1.5, 2.0])

    def pullback(p):
        return p + true_t

    warped = resample(img, img.geometry, pullback)
    aff = register_affine(warped, img, _quick_cfg())
    # registering target=warped against floating=img should recover the
    # pull-back map, i.e. translation ~ true_t
    center = np.array([17.25, 17.25, 17.25])
    err = affine_apply(aff, center) - (center + true_t)
    assert np.linalg.norm(err) <= 0.75  # half a voxel


def test_register_affine_recovers_scale():
    img = _blob_image(2)
    center = np.array([17.25, 17.25, 17.25])
    s = 1.08

    def pullback(p):
        return center + s * (p - center)

    warped = resample(img, img.geometry, pullback)
    aff = register_affine(warped, img, _quick_cfg(max_iters_per_level=15))
    est = np.diag(aff.matrix).mean()
    assert abs(est - s) / s <= 0.02


def test_register_ffd_trace_monotone_within_level():
    img = _blob_image(3)
    warped = resample(img, img.geometry,
                      lambda p: p + np.array([2.0, 0.0, -1.0]))
    cfg = _quick_cfg(control_spacing_mm=12.0, max_iters_per_level=6)
    res = register_ffd(warped, img, AffineTransform.identity(), cfg)
    assert isinstance(res, RegistrationResult)
    assert len(res.per_level_trace) >= 1
    by_level = {}
    for it, level, c, nmi_val, p_val in res.per_level_trace:
        by_level.setdefault(level, []).append(c)
        assert p_val >= 0.0
    for cs in by_level.values():
        assert all(b >= a - 1e-12 for a, b in zip(cs, cs[1:]))


def test_register_affine_rejects_constant_images():
    img = _blob_image(4)
    flat = ScalarVolume(img.geometry, np.zeros(img.geometry.dims))
    with pytest.raises(ValueError):
        register_affine(flat, img)
    with pytest.raises(ValueError):
        register_affine(img, flat)


def test_register_affine_starts_from_the_given_affine():
    img = _blob_image(4)
    moved = resample(img, img.geometry, lambda p: p + np.array([1.0, 0, 0]))
    cfg = _quick_cfg(max_iters_per_level=0)
    start = AffineTransform(np.diag([1.1, 0.9, 1.2]),
                            np.array([-2.0, 0.5, 3.0]))
    got = register_affine(moved, img, cfg, start=start)
    assert np.allclose(got.matrix, start.matrix, rtol=0, atol=1e-12)
    assert np.allclose(got.translation, start.translation, rtol=0,
                       atol=1e-12)
    # by default, the identity matrix and the centroid shift, exactly
    got = register_affine(moved, img, cfg)
    assert np.array_equal(got.matrix, np.eye(3))
    assert np.array_equal(got.translation,
                          registration._intensity_centroid(img)
                          - registration._intensity_centroid(moved))


def test_register_affine_gradient_matches_finite_differences(monkeypatch):
    # the 12-parameter gradient that each affine level ascends, from its
    # own evaluate closure, at the level's start u (mm of point motion);
    # checked when the level calls _ascend, while the closure still reads
    # that level's samples
    rng = np.random.default_rng(15)
    eps = 1e-4
    checked = []

    def check(x, current, direction, evaluate, new_direction, cfg,
              accepted=None):
        value, grad = evaluate(x)
        assert value == current[0] and grad.shape == (12,)
        for d in rng.normal(size=(2, 12)):
            fd = (evaluate(x + eps * d)[0]
                  - evaluate(x - eps * d)[0]) / (2 * eps)
            an = float(grad @ d)
            assert abs(fd - an) / max(abs(fd), 1e-12) <= 1e-4
        checked.append(len(x))
        return _ascend(x, current, direction, evaluate, new_direction, cfg,
                       accepted)

    monkeypatch.setattr(registration, "_ascend", check)
    floating = _blob_image(15, dims=(28, 28, 28))
    noisy = ScalarVolume(floating.geometry,
                         floating.data + rng.normal(0, 5, (28, 28, 28)))
    target = crop(noisy, BoundingBox((4, 4, 4), (24, 24, 24)))
    start = AffineTransform(np.eye(3) + rng.normal(0, 0.02, (3, 3)),
                            rng.normal(0, 0.5, 3))
    register_affine(target, floating, _quick_cfg(max_iters_per_level=0),
                    start=start)
    assert checked == [12, 12]  # one ascent per pyramid level


@pytest.mark.parametrize("budget, affine_points", [
    (0, 5000), (3000, 3000), (5000, 5000), (8000, 5000)])
def test_affine_and_ffd_stages_sample_their_own_budgets(
        monkeypatch, budget, affine_points):
    received = []

    class RecordingObjective(NmiObjective):
        def __init__(self, target, floating, window, max_points=None):
            received.append((max_points, target.data.size))
            super().__init__(target, floating, window, max_points)

    monkeypatch.setattr(registration, "NmiObjective", RecordingObjective)
    img = _blob_image(14)  # 24^3 = 13824 voxels, 1728 at the coarse level
    cfg = _quick_cfg(max_iters_per_level=1, control_spacing_mm=12.0,
                     max_sample_voxels=budget)
    affine = register_affine(img, img, cfg)
    assert received == [(affine_points, 1728), (affine_points, 13824)]
    received.clear()
    register_ffd(img, img, affine, cfg)
    assert received == [(budget or None, 1728), (budget or None, 13824)]


def test_register_ffd_identity_stays_small():
    img = _blob_image(5)
    cfg = _quick_cfg(control_spacing_mm=12.0, max_iters_per_level=5)
    res = register_ffd(img, img, AffineTransform.identity(), cfg)
    ffd = res.transform.ffd
    assert ffd is not None
    # no deformation to explain: recovered displacements stay tiny
    pts = img.geometry.grid_world_points().reshape(-1, 3)[::17]
    disp = compose_apply(res.transform, pts) - pts
    assert np.abs(disp).max() <= 1.0  # well under the 1.5 mm voxel size


def test_register_ffd_reduces_objective_vs_start():
    img = _blob_image(6)

    def pullback(p):
        return p + 2.0 * np.stack([np.sin(p[..., 1] / 8.0),
                                   np.cos(p[..., 0] / 9.0),
                                   np.zeros_like(p[..., 0])], axis=-1)

    warped = resample(img, img.geometry, pullback)
    cfg = _quick_cfg(control_spacing_mm=10.0, max_iters_per_level=8)
    res = register_ffd(warped, img, AffineTransform.identity(), cfg)
    trace = res.per_level_trace
    assert trace[-1][2] >= trace[0][2]  # objective improved overall
    # recovered warp tracks the synthetic one on interior points
    pts = img.geometry.voxel_to_world(
        np.random.default_rng(0).uniform(6, 17, (300, 3)))
    err = np.linalg.norm(compose_apply(res.transform, pts) - pullback(pts),
                         axis=1)
    assert err.mean() <= 1.5  # one voxel


def test_warp_atlas_identity_round_trip():
    img = _blob_image(7)
    lbl = LabelVolume(img.geometry,
                      (img.data > 100).astype(np.int32) * 3)
    wimg, wlbl = warp_atlas(img, lbl, ComposedTransform.identity(),
                            img.geometry)
    assert np.allclose(wimg.data, img.data, atol=1e-9)
    assert np.array_equal(wlbl.data, lbl.data)


def test_warp_atlas_translation_shifts_labels():
    g = GridGeometry((8, 8, 8), (1, 1, 1), (0, 0, 0))
    data = np.zeros((8, 8, 8))
    data[4, 4, 4] = 100.0
    lab = np.zeros((8, 8, 8), dtype=np.int32)
    lab[4, 4, 4] = 2
    comp = ComposedTransform(
        AffineTransform(np.eye(3), np.array([1.0, 0.0, 0.0])), None)
    wimg, wlbl = warp_atlas(ScalarVolume(g, data), LabelVolume(g, lab),
                            comp, g)
    # pull-back through x -> x+1 moves content one voxel toward -x
    assert wlbl.data[3, 4, 4] == 2
    assert wlbl.data.sum() == 2
    assert wimg.data[3, 4, 4] == pytest.approx(100.0)


def test_warp_atlas_label_values_preserved():
    img = _blob_image(8)
    rng = np.random.default_rng(9)
    lbl = LabelVolume(img.geometry, rng.integers(0, 5, img.geometry.dims))
    comp = ComposedTransform(
        AffineTransform(np.eye(3) * 1.02, np.array([0.4, -0.3, 0.2])), None)
    _, wlbl = warp_atlas(img, lbl, comp, img.geometry)
    assert set(np.unique(wlbl.data)).issubset(set(np.unique(lbl.data)) | {0})


def test_warp_atlas_equals_two_resample_calls():
    # one evaluation of the composed transform serves both outputs; each
    # must equal its own resample through that transform, bit for bit
    img = _blob_image(10, dims=(14, 12, 10), spacing=(1.2, 1.0, 1.5))
    rng = np.random.default_rng(11)
    lbl = LabelVolume(img.geometry, rng.integers(0, 4, img.geometry.dims))
    lattice = lattice_covering(np.full(3, -4.0), np.full(3, 20.0), 4.0)
    ffd = FFDTransform(lattice, rng.normal(0.0, 0.8, lattice.dims + (3,)))
    comp = ComposedTransform(
        AffineTransform(np.eye(3) * 1.03, np.array([0.6, -0.4, 0.3])), ffd)
    target = GridGeometry((11, 13, 9), (1.1, 0.9, 1.4), (0.5, -0.5, 1.0))

    wimg, wlbl = warp_atlas(img, lbl, comp, target)

    # the mapping on the target grid: A x + u(x), u from the grid basis
    x = target.grid_world_points().reshape(-1, 3)
    disp = GridBasis(lattice, target, np.arange(len(x))).forward(
        ffd.coefficients)

    def total(pts):
        return affine_apply(comp.affine, pts) + disp

    ref = compose_apply(comp, x)
    assert np.abs(total(x) - ref).max() <= 1e-12 * np.abs(ref).max()
    eimg = resample(img, target, total)
    elbl = resample(lbl, target, total)
    assert wimg.geometry == target and wlbl.geometry == target
    assert wimg.data.tobytes() == eimg.data.tobytes()
    assert wlbl.data.dtype == elbl.data.dtype
    assert wlbl.data.tobytes() == elbl.data.tobytes()
    assert len(np.unique(wlbl.data)) > 1


def test_grid_warps_build_no_csr_basis(monkeypatch):
    # warping onto a voxel grid evaluates the FFD with the grid basis
    # only: neither the atlas warp nor the phantom deformation takes the
    # arbitrary-point path
    def no_points(*args):
        raise AssertionError("ffd_displace called")

    monkeypatch.setattr(transform, "ffd_displace", no_points)
    img = _blob_image(12, dims=(14, 12, 10), spacing=(1.2, 1.0, 1.5))
    lbl = LabelVolume(img.geometry, (img.data > 0).astype(np.int32))
    lattice = lattice_covering(np.full(3, -4.0), np.full(3, 20.0), 4.0)
    rng = np.random.default_rng(13)
    comp = ComposedTransform(
        AffineTransform.identity(),
        FFDTransform(lattice, rng.normal(0.0, 0.8, lattice.dims + (3,))))
    wimg, _ = warp_atlas(img, lbl, comp, img.geometry)
    assert not np.array_equal(wimg.data, img.data)
    _, _, comp = deform_phantom(img, lbl, kind="smooth_ffd", seed=14)
    assert comp.ffd is not None


# ------------------------------------- line search and L-BFGS directions

def _concave_quadratic(seed, n=12):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = q @ np.diag(np.geomspace(0.05, 5.0, n)) @ q.T
    peak = rng.normal(0.0, 3.0, n)

    def evaluate(x):
        r = x - peak
        return -float(r @ a @ r), -2.0 * (a @ r)

    return evaluate, peak


def _lbfgs_ascent(evaluate, x, cfg, step=1.0, max_step=4.0):
    lbfgs = _Lbfgs(step, max_step)
    current = evaluate(x)
    return _ascend(x, current, lbfgs.direction(x, current[1]), evaluate,
                   lambda x, result, t: lbfgs.direction(x, result[1]), cfg)


def test_lbfgs_ascent_reaches_maximiser_of_concave_quadratic():
    cfg = RegistrationConfig(max_iters_per_level=200, step_tolerance=1e-9,
                             objective_tolerance=1e-14)
    for seed in range(3):
        evaluate, peak = _concave_quadratic(seed)
        x, current, stop = _lbfgs_ascent(evaluate, np.zeros(12), cfg)
        assert isinstance(stop, Stop)
        assert stop.reason in ("ftol", "gtol")
        assert stop.iterations < cfg.max_iters_per_level
        assert stop.evaluations >= stop.iterations
        assert np.abs(x - peak).max() <= 1e-4
        assert current[0] == pytest.approx(0.0, abs=1e-8)


def test_ascend_backtracks_past_a_rejecting_face_and_keeps_ascending():
    # like "no warped sample falls inside": trials past x0 = 1.5 raise
    curvature = np.geomspace(0.05, 5.0, 12)
    curvature[0] = 1.0
    peak = np.random.default_rng(4).normal(0.0, 1.0, 12)
    peak[0] = 1.0
    rejected = []

    def guarded(x):
        if x[0] > 1.5:
            rejected.append(x.copy())
            raise ValueError("no warped sample falls inside")
        r = x - peak
        return -float(curvature @ r ** 2), -2.0 * curvature * r

    start = peak.copy()
    start[0] = -2.0
    start[5] += 0.5
    accepted = []
    cfg = RegistrationConfig(max_iters_per_level=200, step_tolerance=1e-9,
                             objective_tolerance=1e-14)
    lbfgs = _Lbfgs(step=8.0, max_step=8.0)
    current = guarded(start)
    x, current, stop = _ascend(
        start, current, lbfgs.direction(start, current[1]), guarded,
        lambda x, result, t: lbfgs.direction(x, result[1]), cfg,
        accepted=lambda it, result: accepted.append(result[0]))
    assert rejected  # the first 8 mm trial crosses the face
    assert all(a < b for a, b in zip(accepted, accepted[1:]))
    assert len(accepted) == stop.iterations > 1
    assert stop.reason in ("ftol", "gtol")
    assert np.isfinite(current[0]) and x[0] <= 1.5
    assert np.abs(x - peak).max() <= 1e-4


def test_ascend_reports_no_ascent_and_iteration_cap():
    evaluate, _ = _concave_quadratic(5)
    x0 = np.ones(12)
    current = evaluate(x0)
    # a descent direction: every trial down to the shortest step fails
    x, after, stop = _ascend(x0, current, -current[1], evaluate,
                             None, RegistrationConfig(step_tolerance=1e-3))
    assert stop.reason == "no_ascent" and stop.iterations == 0
    assert np.array_equal(x, x0) and after[0] == current[0]
    scale = np.abs(current[1]).max()
    assert stop.evaluations == int(np.floor(np.log2(scale / 1e-3))) + 1
    # the cap: the last accepted step asks for no further direction
    cfg = RegistrationConfig(max_iters_per_level=3, objective_tolerance=0.0)
    _, _, stop = _lbfgs_ascent(evaluate, x0, cfg, step=0.1)
    assert stop == Stop(3, stop.evaluations, "max_iters")
    _, _, stop = _ascend(x0, current, None, evaluate, None, cfg)
    assert stop == Stop(0, 0, "gtol")


def test_lbfgs_non_ascent_direction_resets_to_scaled_gradient():
    lbfgs = _Lbfgs(step=2.0, max_step=10.0)
    g = np.zeros(12)
    g[0] = 1.0
    s, y = g.copy(), -g  # negative curvature: H g points downhill
    lbfgs.pairs.append((s, y, 1.0 / float(s @ y)))
    assert lbfgs._two_loop(g) @ g < 0.0
    d = lbfgs.direction(np.zeros(12), 3.0 * g)
    assert np.array_equal(d, 2.0 * g)  # the gradient scaled to 2 mm
    assert len(lbfgs.pairs) == 0
    # a step along which the gradient grows is not stored either
    lbfgs.direction(np.ones(12), 5.0 * g)
    assert len(lbfgs.pairs) == 0
    # a curvature pair gives a quasi-Newton step, capped at max_step
    d = lbfgs.direction(np.ones(12) + 100.0 * g, 4.0 * g)
    assert len(lbfgs.pairs) == 1 and d @ g > 0.0
    assert np.linalg.norm(d) == pytest.approx(10.0)
    assert lbfgs.direction(np.ones(12), np.zeros(12)) is None


def test_register_ffd_records_one_stop_per_level(tmp_path, capsys):
    img = _blob_image(12)
    warped = resample(img, img.geometry,
                      lambda p: p + np.array([1.0, 0.0, -0.5]))
    cfg = _quick_cfg(control_spacing_mm=12.0, max_iters_per_level=4)
    res = register_ffd(warped, img, AffineTransform.identity(), cfg)
    assert len(res.stops) == cfg.pyramid_levels
    for level, stop in enumerate(res.stops):
        steps = [it for it, lv, *_ in res.per_level_trace
                 if lv == level and it > 0]
        assert stop.iterations == len(steps)
        assert stop.evaluations >= stop.iterations
        assert stop.reason in ("gtol", "ftol", "max_iters", "no_ascent")

    nifti.write_volume(tmp_path / "t.nii", warped)
    nifti.write_volume(tmp_path / "f.nii", img)
    rc = main(["register", "--target", str(tmp_path / "t.nii"),
               "--floating", str(tmp_path / "f.nii"),
               "--output-transform", str(tmp_path / "t.json"),
               "--levels", "2", "--max-iters", "3",
               "--control-spacing", "12"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    levels = [ln for ln in lines if ln.startswith("ffd level ")]
    assert [ln.split(":")[0] for ln in levels] == ["ffd level 0",
                                                   "ffd level 1"]
    assert all("stopped by " in ln for ln in levels)
    assert lines[-1].startswith("final objective ")


# ------------- FFD oracle: the normalised-gradient schedule, bit for bit

def _oracle_ascend(x, current, direction, evaluate, new_direction, step,
                   max_step, cfg, accepted=None):
    # the line search the FFD stage ran before the affine stage moved to
    # L-BFGS: halve the step until an improvement, then grow it 1.5x
    for it in range(1, cfg.max_iters_per_level + 1):
        if direction is None:
            break
        while step >= cfg.step_tolerance:
            cand = x + step * direction
            try:
                result = evaluate(cand)
            except ValueError:
                result = (-np.inf,)
            if result[0] > current[0]:
                break
            step *= 0.5
        else:
            break
        gain = result[0] - current[0]
        x, current = cand, result
        step = min(step * 1.5, max_step)
        if accepted is not None:
            accepted(it, result)
        if gain < cfg.objective_tolerance or it == cfg.max_iters_per_level:
            break
        direction = new_direction(x)
    return x, current


def _oracle_ffd_one_level(target, floating, affine, cfg):
    pad = 2.0 * max(target.geometry.spacing)
    _, lo, hi = _penalty_grid(target.geometry, pad)
    lattice = lattice_covering(lo, hi, cfg.control_spacing_mm)
    obj = NmiObjective(target, floating, cfg.window,
                       max_points=cfg.max_sample_voxels or None)
    pen_geom, _, _ = _penalty_grid(target.geometry, 0.0,
                                   min_spacing_mm=min(lattice.spacing) / 4)
    z = affine_apply(affine, obj.points)
    basis = GridBasis(lattice, obj.grid, obj.indices)
    bend = bending_operator(lattice, pen_geom)
    alpha = cfg.alpha

    def evaluate(coef):
        c = coef.reshape(-1, 3)
        nmi_val = obj.point_gradient_at(z + basis.forward(c))[0]
        p_val = float(np.sum(c * (bend @ c)))
        return (1.0 - alpha) * nmi_val - alpha * p_val, nmi_val, p_val

    def evaluate_with_direction(coef):
        c = coef.reshape(-1, 3)
        nmi_val, point_grad = obj.point_gradient_at(z + basis.forward(c))
        qc = bend @ c
        p_val = float(np.sum(c * qc))
        grad = ((1.0 - alpha) * basis.adjoint(point_grad)
                - alpha * (2.0 * qc)).reshape(coef.shape)
        gnorm = np.abs(grad).max()
        return (((1.0 - alpha) * nmi_val - alpha * p_val, nmi_val, p_val),
                None if gnorm < 1e-15 else grad / gnorm)

    trace = []
    coef0 = np.zeros(lattice.dims + (3,))
    start, direction = evaluate_with_direction(coef0)
    trace.append((0, 0) + start)
    step = 1.0 * max(target.geometry.spacing)
    coef, _ = _oracle_ascend(
        coef0, start, direction, evaluate,
        lambda coef: evaluate_with_direction(coef)[1], step=step,
        max_step=2.0 * step, cfg=cfg,
        accepted=lambda it, result: trace.append((it, 0) + result))
    return coef, trace


@pytest.mark.parametrize("alpha", [0.005, 0.5])
def test_register_ffd_matches_normalised_gradient_oracle(alpha):
    img = _blob_image(13, dims=(22, 20, 18), spacing=(1.5, 1.4, 1.6))

    def pullback(p):
        return p + 1.5 * np.stack([np.sin(p[..., 1] / 7.0),
                                   np.cos(p[..., 2] / 6.0),
                                   np.sin(p[..., 0] / 8.0)], axis=-1)

    warped = resample(img, img.geometry, pullback)
    affine = AffineTransform(
        np.array([[1.02, 0.01, 0.0], [-0.015, 0.98, 0.02],
                  [0.0, 0.01, 1.01]]), np.array([0.4, -0.3, 0.25]))
    cfg = RegistrationConfig(alpha=alpha, pyramid_levels=1,
                             control_spacing_mm=9.0, max_iters_per_level=12,
                             max_sample_voxels=5000)
    res = register_ffd(warped, img, affine, cfg)
    coef, trace = _oracle_ffd_one_level(warped, img, affine, cfg)
    assert len(trace) > 2
    assert res.transform.ffd.coefficients.tobytes() == coef.tobytes()
    assert res.per_level_trace == trace
    assert res.final_objective == trace[-1][2]


def test_register_ffd_evaluates_each_trial_once(monkeypatch):
    calls = {"value": 0, "point_gradient_at": 0}
    for name in calls:
        method = getattr(NmiObjective, name)

        def counting(self, arg, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, arg)

        monkeypatch.setattr(NmiObjective, name, counting)
    img = _blob_image(14, dims=(16, 16, 16))
    warped = resample(img, img.geometry,
                      lambda p: p + np.array([0.8, -0.5, 0.3]))
    cfg = _quick_cfg(pyramid_levels=2, control_spacing_mm=6.0,
                     max_iters_per_level=4, max_sample_voxels=3000)
    res = register_ffd(warped, img, AffineTransform.identity(), cfg)
    assert len(res.stops) == 2
    assert calls["value"] == 0
    # one call per trial, plus each level's starting point
    assert calls["point_gradient_at"] == (
        sum(s.evaluations for s in res.stops) + len(res.stops))


def test_ffd_level_pulls_back_once_per_direction_taken(monkeypatch):
    counts = {"forward": 0, "adjoint": 0}

    class CountingGridBasis(GridBasis):
        def forward(self, coef):
            counts["forward"] += 1
            return super().forward(coef)

        def adjoint(self, g):
            counts["adjoint"] += 1
            return super().adjoint(g)

    monkeypatch.setattr(registration, "GridBasis", CountingGridBasis)
    directions = []

    def ascend(x, current, direction, evaluate, new_direction, cfg,
               accepted=None):
        directions.append(0)  # the level start

        def counted(*args):
            directions.append(1)
            return new_direction(*args)

        return _ascend(x, current, direction, evaluate, counted, cfg,
                       accepted)

    monkeypatch.setattr(registration, "_ascend", ascend)
    img = _blob_image(14, dims=(16, 16, 16))
    warped = resample(img, img.geometry,
                      lambda p: p + np.array([0.8, -0.5, 0.3]))
    cfg = _quick_cfg(pyramid_levels=2, control_spacing_mm=6.0,
                     max_iters_per_level=4, max_sample_voxels=3000)
    res = register_ffd(warped, img, AffineTransform.identity(), cfg)
    trials = sum(s.evaluations for s in res.stops) + len(res.stops)
    assert counts["forward"] == trials  # one forward product per trial
    assert counts["adjoint"] == len(directions)
    # some trials were rejected or ended a level, and skipped W^T
    assert counts["adjoint"] < trials
