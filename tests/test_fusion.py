"""Label-fusion tests against a brute-force per-voxel oracle.

The oracle recomputes the dependency matrix with explicit zero-padded
patch loops and solves the weight system with an independent formula
(matrix inverse instead of solve), then votes with the same tie-break.
"""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertseg import fusion
from vertseg.fusion import (FusionConfig, RegisteredAtlas, _searched_errors,
                            dependency_matrix, fuse, jlf_weights,
                            majority_vote)
from vertseg.volume import (GridGeometry, LabelVolume, ScalarVolume,
                            grow_box)


def _geom(dims):
    return GridGeometry(dims, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))


def _make_case(rng, dims, n_atlases, n_labels=3):
    geom = _geom(dims)
    target = ScalarVolume(geom, rng.normal(100, 40, dims))
    atlases = []
    for k in range(n_atlases):
        img = ScalarVolume(geom, target.data + rng.normal(0, 20, dims))
        lbl = LabelVolume(geom, rng.integers(0, n_labels + 1, dims))
        atlases.append(RegisteredAtlas(img, lbl, atlas_id=f"a{k}"))
    return target, atlases


def _oracle_fuse(target, atlases, cfg):
    """Direct per-voxel implementation of patch-error fusion."""
    dims = target.geometry.dims
    n = len(atlases)
    r = cfg.patch_radius
    size = 2 * r + 1

    pad = [np.pad(np.abs(target.data - a.warped_image.data), r)
           for a in atlases]

    out = np.zeros(dims, dtype=np.int32)
    weights_map = {}
    labels = np.stack([a.warped_labels.data for a in atlases], axis=-1)
    for i in range(dims[0]):
        for j in range(dims[1]):
            for k in range(dims[2]):
                if not np.any(labels[i, j, k] != 0):
                    continue
                patches = [p[i:i + size, j:j + size, k:k + size].ravel()
                           for p in pad]
                m = np.empty((n, n))
                for a in range(n):
                    for b in range(n):
                        m[a, b] = np.mean(patches[a] * patches[b])
                m = m ** cfg.beta + cfg.epsilon * np.eye(n)
                x = np.linalg.inv(m) @ np.ones(n)
                w = x / x.sum()
                weights_map[(i, j, k)] = w
                scores = {}
                for a in range(n):
                    lv = int(labels[i, j, k, a])
                    scores[lv] = scores.get(lv, 0.0) + w[a]
                best = max(sorted(scores), key=lambda lv: (scores[lv], -lv))
                # explicit tie-break: highest score, then lowest label
                best_score = max(scores.values())
                cands = [lv for lv, s in scores.items()
                         if s == best_score]
                out[i, j, k] = min(cands)
                assert out[i, j, k] == best
    return out, weights_map


def test_dependency_matrix_known_values():
    # one-voxel patches: M(i, j) = (|t - pi| * |t - pj|)^beta + eps * I
    errs = [np.full((1, 1, 1), abs(5.0 - a)) for a in (3.0, 8.0)]
    m = dependency_matrix(errs, np.ones((1, 1, 1), dtype=bool), 0,
                          beta=1.0, epsilon=0.1)
    assert m.shape == (1, 2, 2)
    assert m[0, 0, 0] == pytest.approx(4.0 + 0.1)
    assert m[0, 0, 1] == m[0, 1, 0] == pytest.approx(6.0)
    assert m[0, 1, 1] == pytest.approx(9.0 + 0.1)


def test_dependency_matrix_validation():
    active = np.ones((2, 2, 2), dtype=bool)
    with pytest.raises(ValueError, match="one or more error maps"):
        dependency_matrix([], active, 1, 2.0, 0.1)
    with pytest.raises(ValueError, match="the active mask's shape"):
        dependency_matrix([np.ones((2, 2, 3))], active, 1, 2.0, 0.1)


def test_dependency_matrix_without_active_voxels_is_empty():
    m = dependency_matrix([np.ones((2, 3, 4))] * 3,
                          np.zeros((2, 3, 4), dtype=bool), 1, 2.0, 0.1)
    assert m.shape == (0, 3, 3)


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_box_sum_is_the_in_order_sum_over_the_patch(p):
    rng = np.random.default_rng(12 + p)
    src = rng.normal(size=200)
    out = np.full(200, np.nan)
    lo, hi, step = 70, 130, 7
    fusion._box_sum(src, out, lo, hi, step, p)
    want = np.empty(hi - lo)
    for k, x in enumerate(range(lo, hi)):
        total = src[x - p * step]
        for t in range(1 - p, p + 1):
            total += src[x + t * step]
        want[k] = total
    assert out[lo:hi].tobytes() == want.tobytes()
    assert np.isnan(out[:lo]).all() and np.isnan(out[hi:]).all()


def test_jlf_weights_sum_to_one_and_match_inverse():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.normal(size=(4, 4))
        m = a @ a.T + 0.5 * np.eye(4)
        w = jlf_weights(m)
        assert abs(w.sum() - 1.0) <= 1e-12
        x = np.linalg.inv(m) @ np.ones(4)
        assert np.allclose(w, x / x.sum(), atol=1e-10)


def test_jlf_weights_identical_atlases_share_weight():
    err = np.abs(np.array([1.0, 2.0]) - [0.5, 1.5]).reshape(2, 1, 1)
    m = dependency_matrix([err] * 3, np.ones((2, 1, 1), dtype=bool), 1,
                          beta=2.0, epsilon=0.1)
    w = jlf_weights(m)
    assert np.allclose(w, 1.0 / 3.0, atol=1e-12)


def test_jlf_weights_rejects_nonfinite():
    with pytest.raises(ValueError):
        jlf_weights(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_jlf_weights_of_a_stack_match_one_matrix_at_a_time():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 5, 4, 4))
    m = a @ a.transpose(0, 1, 3, 2) + 0.5 * np.eye(4)
    w = jlf_weights(m)
    assert w.shape == (2, 5, 4)
    for idx in np.ndindex(2, 5):
        assert np.allclose(w[idx], jlf_weights(m[idx]), rtol=0, atol=1e-12)
    m[1, 3, 2, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        jlf_weights(m)


def test_fuse_rejects_overflowing_dependency_matrices():
    # errors of ~400 HU: the patch-mean products (~1.6e5) overflow at
    # beta 60, which would leave NaN weights that drop their voxels
    rng = np.random.default_rng(4)
    dims = (16, 16, 16)
    geom = _geom(dims)
    target = ScalarVolume(geom, rng.normal(100, 40, dims))
    labels = np.zeros(dims, dtype=np.int64)
    labels[4:12, 4:12, 4:12] = 1
    atlases = [RegisteredAtlas(
        ScalarVolume(geom, target.data + rng.uniform(-800, 800, dims)),
        LabelVolume(geom, labels), atlas_id=f"a{k}") for k in range(3)]
    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match="non-finite entries"):
        fuse(target, atlases, FusionConfig(beta=60.0))


def test_fuse_matches_oracle_randomized():
    rng = np.random.default_rng(1)
    cfg = FusionConfig(patch_radius=1, beta=2.0, epsilon=0.1)
    for trial in range(10):
        dims = tuple(rng.integers(4, 9, 3))
        n = int(rng.integers(1, 5))
        target, atlases = _make_case(rng, dims, n)
        got = fuse(target, atlases, cfg)
        want, _ = _oracle_fuse(target, atlases, cfg)
        assert np.array_equal(got.consensus.data, want)


def test_fuse_single_atlas_returns_its_labels():
    rng = np.random.default_rng(2)
    target, atlases = _make_case(rng, (5, 5, 5), 1)
    out = fuse(target, atlases)
    assert np.array_equal(out.consensus.data, atlases[0].warped_labels.data)


def test_fuse_background_unanimity_stays_background():
    rng = np.random.default_rng(3)
    target, atlases = _make_case(rng, (6, 6, 6), 3)
    for a in atlases:
        a.warped_labels.data[:3] = 0
    out = fuse(target, atlases)
    assert np.all(out.consensus.data[:3] == 0)


def test_fuse_tie_breaks_to_lowest_label():
    geom = _geom((3, 3, 3))
    target = ScalarVolume(geom, np.zeros((3, 3, 3)))
    # two atlases with identical images -> equal weights -> tied scores
    a1 = RegisteredAtlas(ScalarVolume(geom, np.zeros((3, 3, 3))),
                         LabelVolume(geom, np.full((3, 3, 3), 2)))
    a2 = RegisteredAtlas(ScalarVolume(geom, np.zeros((3, 3, 3))),
                         LabelVolume(geom, np.full((3, 3, 3), 1)))
    out = fuse(target, [a1, a2])
    assert np.all(out.consensus.data == 1)


def test_fuse_probability_range():
    rng = np.random.default_rng(4)
    target, atlases = _make_case(rng, (6, 6, 6), 3)
    out = fuse(target, atlases)
    assert np.all(out.probability >= 0.0)
    assert np.all(out.probability <= 1.0)


def test_fuse_geometry_checks():
    rng = np.random.default_rng(5)
    target, atlases = _make_case(rng, (5, 5, 5), 2)
    with pytest.raises(ValueError):
        fuse(target, [])
    bad = ScalarVolume(_geom((6, 6, 6)), np.zeros((6, 6, 6)))
    with pytest.raises(ValueError):
        fuse(bad, atlases)


def test_fuse_config_validation():
    with pytest.raises(ValueError):
        FusionConfig(patch_radius=-1)
    with pytest.raises(ValueError):
        FusionConfig(beta=0.0)
    with pytest.raises(ValueError):
        FusionConfig(epsilon=0.0)


def test_fuse_config_rejects_negative_search_radius():
    # np.pad would fail on it only after every pair was registered
    with pytest.raises(ValueError, match="search_radius"):
        FusionConfig(search_radius=-1)


def test_majority_vote_holds_less_than_an_atlas_label_stack():
    # six atlases labelling a small block of a large grid: the vote holds
    # its output grids, the active mask and the labels at active voxels,
    # never the atlases' labels stacked on the whole grid
    geom = GridGeometry((60, 60, 50), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    rng = np.random.default_rng(6)
    atlases = []
    for k in range(6):
        data = np.zeros(geom.dims, dtype=np.int32)
        data[20:32, 22:34, 15:27] = rng.integers(0, 3, (12, 12, 12))
        atlases.append(RegisteredAtlas(ScalarVolume(geom, np.zeros(
            geom.dims)), LabelVolume(geom, data), f"a{k}"))
    stack_bytes = 6 * 4 * int(np.prod(geom.dims))
    tracemalloc.start()
    try:
        majority_vote(atlases)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stack_bytes


def test_majority_vote_counts_and_ties():
    geom = _geom((2, 2, 2))
    img = ScalarVolume(geom, np.zeros((2, 2, 2)))

    def atlas(lv):
        return RegisteredAtlas(img, LabelVolume(geom, np.full((2, 2, 2), lv)))

    out = majority_vote([atlas(2), atlas(2), atlas(3)])
    assert np.all(out.consensus.data == 2)
    out = majority_vote([atlas(3), atlas(1)])  # tie -> lower label
    assert np.all(out.consensus.data == 1)


# ----------------------------------------------------------- patch search

def _oracle_searched_error(target, atlas, x, patch_radius, search_radius):
    """Error at voxel x after the patch search, by explicit loops: shifts
    in (dx, dy, dz) order, first strict SSD minimum wins, patch voxels
    outside the volume contribute 0, shifted reads clamp to the faces."""
    dims = target.shape
    best = None
    for d in itertools.product(range(-search_radius, search_radius + 1),
                               repeat=3):
        ssd = 0.0
        for p in itertools.product(*(range(x[a] - patch_radius,
                                           x[a] + patch_radius + 1)
                                     for a in range(3))):
            if all(0 <= p[a] < dims[a] for a in range(3)):
                q = tuple(min(max(p[a] - d[a], 0), dims[a] - 1)
                          for a in range(3))
                ssd += (target[p] - atlas[q]) ** 2
        ssd /= (2 * patch_radius + 1) ** 3
        if best is None or ssd < best[0]:
            q = tuple(min(max(x[a] - d[a], 0), dims[a] - 1)
                      for a in range(3))
            best = (ssd, abs(target[x] - atlas[q]))
    return best[1]


def test_patch_search_does_not_wrap_across_faces():
    # the only atlas content matching the x=0 face voxel sits at x=7: a
    # wrapping search reads it there with error 0
    target = np.zeros((8, 8, 8))
    target[0, 4, 4] = 100.0
    atlas = np.zeros((8, 8, 8))
    atlas[7, 4, 4] = 100.0
    (err,) = _searched_errors(target, [atlas],
                              FusionConfig(patch_radius=0, search_radius=1))
    assert err[0, 4, 4] == 100.0


def test_patch_search_matches_oracle_on_every_voxel():
    rng = np.random.default_rng(40)
    dims = (5, 6, 7)
    target = rng.normal(100, 40, dims)
    atlas = target + rng.normal(0, 30, dims)
    (err,) = _searched_errors(target, [atlas],
                              FusionConfig(patch_radius=1, search_radius=1))
    oracle = np.empty(dims)
    for x in np.ndindex(dims):
        oracle[x] = _oracle_searched_error(target, atlas, x, 1, 1)
    assert np.allclose(err, oracle, rtol=0, atol=1e-9)


@pytest.mark.parametrize("box, patch_radius", [
    # margins on every side: the reads stay inside the volume
    ((slice(3, 6), slice(3, 7), slice(4, 7)), 1),
    ((slice(5, 7), slice(5, 6), slice(5, 8)), 2),
    # on the low x face and the high z face: zero padding and edge clamp
    ((slice(0, 3), slice(4, 6), slice(8, 11)), 1),
])
def test_patch_search_on_a_box_matches_oracle(box, patch_radius):
    rng = np.random.default_rng(41)
    dims = (10, 11, 11) if patch_radius == 1 else (12, 11, 13)
    target = rng.normal(100, 40, dims)
    atlases = [target + rng.normal(0, 30, dims) for _ in range(2)]
    errs = _searched_errors(target, atlases,
                            FusionConfig(patch_radius=patch_radius,
                                         search_radius=1), box)
    for err, atlas in zip(errs, atlases):
        oracle = np.empty(err.shape)
        for x in np.ndindex(err.shape):
            oracle[x] = _oracle_searched_error(
                target, atlas, tuple(i + s.start for i, s in zip(x, box)),
                patch_radius, 1)
        assert np.allclose(err, oracle, rtol=0, atol=1e-9)


def test_patch_search_keeps_the_first_of_tied_shifts():
    # at x = 3, shift dx = -1 reads the window (1, 4, 3) and dx = +1 the
    # window (0, 5, 1): both SSDs are 26, below dx = 0's 42, summed
    # exactly in float32. dx = -1 comes first and wins
    target = np.zeros((7, 1, 1))
    atlas = np.array([0.0, 0.0, 5.0, 1.0, 4.0, 3.0, 0.0]).reshape(7, 1, 1)
    (err,) = _searched_errors(target, [atlas],
                              FusionConfig(patch_radius=1, search_radius=1))
    assert err[3, 0, 0] == 4.0
    assert _oracle_searched_error(target, atlas, (3, 0, 0), 1, 1) == 4.0


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("patch_radius", [1, 2])
def test_patch_search_keeps_the_first_shift_of_exact_ties(seed,
                                                          patch_radius):
    # integer-valued volumes, like HU images: many shifts tie exactly,
    # and only an exact SSD keeps the first of them everywhere
    rng = np.random.default_rng(seed)
    dims = (6, 7, 8)
    target = rng.integers(0, 4, dims).astype(np.float64)
    atlas = rng.integers(0, 4, dims).astype(np.float64)
    (err,) = _searched_errors(target, [atlas],
                              FusionConfig(patch_radius=patch_radius,
                                           search_radius=1))
    oracle = np.empty(dims)
    for x in np.ndindex(dims):
        oracle[x] = _oracle_searched_error(target, atlas, x, patch_radius, 1)
    assert np.array_equal(err, oracle)


def test_patch_search_indexes_more_shifts_than_a_byte_holds():
    # search radius 3 has 343 shifts: the winner's index needs 16 bits
    rng = np.random.default_rng(42)
    dims = (4, 5, 4)
    target = rng.normal(100, 40, dims)
    atlas = rng.normal(100, 40, dims)
    (err,) = _searched_errors(target, [atlas],
                              FusionConfig(patch_radius=0, search_radius=3))
    oracle = np.empty(dims)
    for x in np.ndindex(dims):
        oracle[x] = _oracle_searched_error(target, atlas, x, 0, 3)
    assert np.array_equal(err, oracle)


# -------------------------------------------------------- config, geometry

@pytest.mark.parametrize("field, value", [
    ("beta", float("nan")), ("epsilon", float("inf")),
    ("patch_radius", 1.5), ("search_radius", 0.5), ("patch_radius", True)])
def test_fuse_config_rejects_nonfinite_and_fractional_values(field, value):
    # unchecked, nan/inf give NaN weights and an all-background
    # consensus, 1.5 an off-centre 4-voxel box, and 0.5 a TypeError
    # inside fuse, after every registration
    with pytest.raises(ValueError, match=field):
        FusionConfig(**{field: value})


def test_fuse_config_keeps_integral_radii():
    cfg = FusionConfig(patch_radius=np.int64(1), search_radius=2.0)
    assert (cfg.patch_radius, cfg.search_radius) == (1, 2)
    assert type(cfg.patch_radius) is int and type(cfg.search_radius) is int


def _off_grid_atlas(dims):
    geom = GridGeometry(dims, (2.5, 2.5, 2.5), (40.0, -7.0, 100.0))
    return RegisteredAtlas(ScalarVolume(geom, np.zeros(dims)),
                           LabelVolume(geom, np.ones(dims, dtype=np.int32)),
                           atlas_id="coarse")


@pytest.mark.parametrize("combine", [
    lambda target, atlases: fuse(target, atlases),
    lambda target, atlases: majority_vote(atlases)])
def test_fusion_rejects_atlas_on_another_grid_with_same_dims(combine):
    rng = np.random.default_rng(6)
    target, atlases = _make_case(rng, (5, 5, 5), 2)
    with pytest.raises(ValueError, match="coarse"):
        combine(target, atlases + [_off_grid_atlas((5, 5, 5))])


def test_fuse_rejects_target_on_another_grid_with_same_dims():
    rng = np.random.default_rng(7)
    target, atlases = _make_case(rng, (5, 5, 5), 2)
    moved = ScalarVolume(GridGeometry((5, 5, 5), (1.0, 1.0, 1.0),
                                      (0.0, 0.0, 3.0)), target.data)
    with pytest.raises(ValueError, match="target image"):
        fuse(moved, atlases)


def test_fuse_accepts_float32_rounded_geometry():
    # NIfTI stores spacing and origin as float32
    rng = np.random.default_rng(8)
    target, atlases = _make_case(rng, (5, 5, 5), 2)
    g = GridGeometry((5, 5, 5), tuple(np.float32([0.4, 0.4, 1.0])),
                     tuple(np.float32([-123.3, 17.1, 250.7])))
    g64 = GridGeometry((5, 5, 5), (0.4, 0.4, 1.0), (-123.3, 17.1, 250.7))
    rounded = ScalarVolume(g, target.data)
    on_grid = [RegisteredAtlas(ScalarVolume(g64, a.warped_image.data),
                               LabelVolume(g64, a.warped_labels.data))
               for a in atlases]
    fuse(rounded, on_grid)


# ------------------------------------------------------------- work box

def _full_grid_fuse(target, atlases, cfg):
    """The full-grid fusion: patch search and dependency matrices over
    the whole volume, weights at the active voxels, then the score argmax
    with ties to the lower label."""
    n = len(atlases)
    labels = np.stack([a.warped_labels.data for a in atlases], axis=-1)
    active = np.any(labels != 0, axis=-1)
    errs = _searched_errors(target.data,
                            [a.warped_image.data for a in atlases], cfg)
    m = dependency_matrix(errs, active, cfg.patch_radius, cfg.beta,
                          cfg.epsilon)
    x = np.linalg.solve(m, np.ones(n))
    w = x / x.sum(axis=1, keepdims=True)
    stack = labels[active]
    best_label = np.zeros(len(w), dtype=np.int32)
    best_score = np.full(len(w), -np.inf)
    for lv in np.unique(stack):
        score = np.sum(w * (stack == lv), axis=1)
        better = score > best_score
        best_score[better] = score[better]
        best_label[better] = lv
    out = np.zeros(active.shape, dtype=np.int32)
    prob = np.ones(active.shape)
    out[active] = best_label
    prob[active] = np.clip(best_score, 0.0, 1.0)
    return out, prob


@st.composite
def _block_cases(draw):
    """Volume dims and a label block [lo, hi] whose faces are pinned to
    the low face, the high face or neither, independently per axis."""
    dims = tuple(draw(st.integers(3, 12)) for _ in range(3))
    lo, hi = [], []
    for d in dims:
        anchor = draw(st.sampled_from(["low", "high", "inner"]))
        a = draw(st.integers(0, d - 1))
        b = draw(st.integers(a, d - 1))
        if anchor == "low":
            a = 0
        elif anchor == "high":
            b = d - 1
        lo.append(a)
        hi.append(b)
    return dims, tuple(lo), tuple(hi)


def _oracle_dependency_matrix(errs, active, p, beta, epsilon):
    """The matrices at the active voxels by explicit loops over each
    patch, zero beyond the volume: the products summed along axis 0
    innermost, then axis 1, then axis 2, each sum in order from -p to p,
    then one division, one np.power and the epsilon add per entry."""
    n, dims = len(errs), active.shape

    def product(i, j, q):
        if all(0 <= q[a] < dims[a] for a in range(3)):
            return errs[i][q] * errs[j][q]
        return 0.0

    def in_order(values):
        total = None
        for v in values:
            total = v if total is None else total + v
        return total

    taps = range(-p, p + 1)
    sums = np.array([[[in_order(in_order(in_order(
        product(i, j, (x[0] + t0, x[1] + t1, x[2] + t2)) for t0 in taps)
        for t1 in taps) for t2 in taps)
        for j in range(n)] for i in range(n)] for x in np.argwhere(active)])
    m = np.power(sums.reshape(-1, n, n) / (2 * p + 1) ** 3, beta)
    for i in range(n):
        m[:, i, i] += epsilon
    return m


@settings(max_examples=60, deadline=None)
@given(case=_block_cases(), patch_radius=st.integers(0, 2),
       n_atlases=st.integers(1, 4), beta=st.sampled_from([0.5, 1.0, 2.0,
                                                            3.7]),
       seed=st.integers(0, 2 ** 16))
def test_dependency_matrix_is_the_in_order_patch_loop(case, patch_radius,
                                                      n_atlases, beta, seed):
    # the matrices on the active block's box grown by p (clamped at the
    # volume faces the block may touch) against the full-volume loop,
    # bit for bit: the patch sums do not depend on where the box starts
    dims, lo, hi = case
    rng = np.random.default_rng(seed)
    errs = [np.abs(rng.normal(0, 40, dims)) for _ in range(n_atlases)]
    active = np.zeros(dims, dtype=bool)
    block = tuple(slice(a, b + 1) for a, b in zip(lo, hi))
    active[block] = rng.random(active[block].shape) < 0.7
    box = grow_box(block, patch_radius, dims)
    got = dependency_matrix([e[box] for e in errs], active[box],
                            patch_radius, beta, 0.1)
    want = _oracle_dependency_matrix(errs, active, patch_radius, beta, 0.1)
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(case=_block_cases(), patch_radius=st.integers(0, 2),
       search_radius=st.integers(0, 1), n_atlases=st.integers(1, 4),
       seed=st.integers(0, 2 ** 16))
def test_fuse_on_work_box_matches_full_grid(case, patch_radius,
                                            search_radius, n_atlases, seed):
    dims, lo, hi = case
    rng = np.random.default_rng(seed)
    geom = _geom(dims)
    block = tuple(slice(a, b + 1) for a, b in zip(lo, hi))
    # independent images: no search shift dominates, so a search that
    # reads a wrong value anywhere in its reach picks another shift
    target = ScalarVolume(geom, rng.normal(100, 40, dims))
    atlases = []
    for k in range(n_atlases):
        lbl = np.zeros(dims, dtype=np.int32)
        lbl[block] = rng.integers(0, 4, lbl[block].shape)
        atlases.append(RegisteredAtlas(
            ScalarVolume(geom, rng.normal(100, 40, dims)),
            LabelVolume(geom, lbl), atlas_id=f"a{k}"))
    cfg = FusionConfig(patch_radius=patch_radius,
                       search_radius=search_radius)
    got = fuse(target, atlases, cfg)
    want_labels, want_prob = _full_grid_fuse(target, atlases, cfg)
    assert np.array_equal(got.consensus.data, want_labels)
    assert np.array_equal(got.probability, want_prob)


@settings(max_examples=40, deadline=None)
@given(case=_block_cases(), patch_radius=st.integers(0, 2),
       search_radius=st.integers(1, 2), seed=st.integers(0, 2 ** 16))
def test_patch_search_on_a_box_is_the_full_grid_search_cropped(
        case, patch_radius, search_radius, seed):
    # each SSD is summed in patch order whatever the box, so a box's
    # errors, on faces too, are the full-grid errors' bits. Integer
    # values make many shifts tie, and a sum that rounded by where its
    # line starts would break some of those ties differently
    dims, lo, hi = case
    rng = np.random.default_rng(seed)
    box = tuple(slice(a, b + 1) for a, b in zip(lo, hi))
    target = rng.integers(0, 4, dims).astype(np.float64)
    atlases = [rng.normal(1.5, 1.0, dims),
               rng.integers(0, 4, dims).astype(np.float64)]
    cfg = FusionConfig(patch_radius=patch_radius,
                       search_radius=search_radius)
    on_box = _searched_errors(target, atlases, cfg, box)
    full = _searched_errors(target, atlases, cfg)
    for got, want in zip(on_box, full):
        assert got.tobytes() == want[box].tobytes()


def _fuse_with_margins(target, atlases, cfg):
    """fuse's output, and at each voxel how far the winning label's score
    lies above the runner-up's (inf where no atlas has a label), from the
    weights fuse votes with."""
    captured = []
    real = fusion._weighted_vote

    def vote(atlases, weights_at):
        def capture(active):
            weights = weights_at(active)
            captured.append((active, weights))
            return weights
        return real(atlases, capture)

    with mock.patch.object(fusion, "_weighted_vote", vote):
        out = fuse(target, atlases, cfg)
    margin = np.full(target.geometry.dims, np.inf)
    for active, weights in captured:
        stack = np.stack([a.warped_labels.data for a in atlases],
                         axis=-1)[active]
        scores = np.stack([np.sum(weights * (stack == lv), axis=1)
                           for lv in np.unique(stack)], axis=1)
        if scores.shape[1] > 1:
            top = np.sort(scores, axis=1)
            margin[active] = top[:, -1] - top[:, -2]
    return out, margin


@settings(max_examples=60, deadline=None)
@given(dims=st.tuples(*[st.integers(3, 8)] * 3),
       patch_radius=st.integers(0, 2), search_radius=st.integers(0, 1),
       order=st.integers(2, 4).flatmap(
           lambda n: st.permutations(range(n))),
       seed=st.integers(0, 2 ** 16))
def test_fuse_does_not_depend_on_atlas_order(dims, patch_radius,
                                             search_radius, order, seed):
    # permuting the atlases permutes the dependency matrix, whose solve
    # then rounds differently: labels may flip only where the winning
    # score is within that rounding of the runner-up's
    rng = np.random.default_rng(seed)
    target, atlases = _make_case(rng, dims, len(order))
    cfg = FusionConfig(patch_radius=patch_radius,
                       search_radius=search_radius)
    out, margin = _fuse_with_margins(target, atlases, cfg)
    permuted = fuse(target, [atlases[k] for k in order], cfg)
    clear = margin > 1e-6
    assert np.array_equal(out.consensus.data[clear],
                          permuted.consensus.data[clear])


def _recording_search(monkeypatch):
    """Records each search's error box, and the flat output range and
    step of every one-axis patch-sum pass: the search's float32 SSD
    passes and the dependency matrices' float64 error-product passes
    apart."""
    boxes, search_passes, product_passes = [], [], []
    real = fusion._searched_errors
    real_pass = fusion._box_sum

    def record(target_data, atlas_images, cfg, box):
        boxes.append(box)
        errs = real(target_data, atlas_images, cfg, box)
        assert all(e.shape == tuple(s.stop - s.start for s in box)
                   for e in errs)
        return errs

    def record_pass(src, out, lo, hi, step, p):
        assert src.dtype == out.dtype
        passes = {np.float32: search_passes,
                  np.float64: product_passes}[src.dtype.type]
        passes.append((lo, hi, step))
        return real_pass(src, out, lo, hi, step, p)

    monkeypatch.setattr(fusion, "_searched_errors", record)
    monkeypatch.setattr(fusion, "_box_sum", record_pass)
    return boxes, search_passes, product_passes


def _flat_range(region, shape):
    first = np.ravel_multi_index([a for a, _ in region], shape)
    last = np.ravel_multi_index([b - 1 for _, b in region], shape)
    return int(first), int(last) + 1


@pytest.mark.parametrize("lo, hi", [
    ((10, 11, 12), (13, 12, 14)),   # interior: grown on every side
    ((0, 0, 0), (2, 3, 1)),         # low corner: clamped there
    ((18, 5, 23), (19, 20, 24)),    # high faces in x and z
])
def test_fuse_searches_only_the_grown_active_box(monkeypatch, lo, hi):
    # the SSDs are compared and the errors formed on the error box (the
    # active box grown by p). The sums run in a frame around the
    # difference domain (grown by 2p, clamped) with a max(p, r) margin:
    # the pass along axis a covers the error box on axes <= a and the
    # error box grown by p, unclamped, on the later axes, so it drops the
    # rows that neither the next pass nor the error box reads
    dims = (20, 22, 25)
    cfg = FusionConfig(patch_radius=2, search_radius=1)
    rng = np.random.default_rng(9)
    geom = _geom(dims)
    target = ScalarVolume(geom, rng.normal(100, 40, dims))
    atlases = []
    for corner in (lo, hi):
        lbl = np.zeros(dims, dtype=np.int32)
        lbl[corner] = 1  # the two atlases' labels span [lo, hi] together
        atlases.append(RegisteredAtlas(
            ScalarVolume(geom, target.data + rng.normal(0, 20, dims)),
            LabelVolume(geom, lbl)))
    boxes, search_passes, product_passes = _recording_search(monkeypatch)
    fuse(target, atlases, cfg)

    def grown(margin):
        return [(max(a - margin, 0), min(b + margin, d - 1) + 1)
                for a, b, d in zip(lo, hi, dims)]

    assert [[(s.start, s.stop) for s in box] for box in boxes] \
        == [grown(cfg.patch_radius)]
    p, margin = cfg.patch_radius, max(cfg.patch_radius, cfg.search_radius)
    difference = grown(2 * p)
    frame = tuple(b - a + 2 * margin for a, b in difference)
    error = [(a - d + margin, b - d + margin)
             for (a, b), (d, _) in zip(grown(p), difference)]
    reach = [(a - p, b + p) for a, b in error]
    assert all(0 <= a and b <= n for (a, b), n in zip(reach, frame))
    steps = (frame[1] * frame[2], frame[2], 1)
    shifts = (2 * cfg.search_radius + 1) ** 3
    assert search_passes == [
        _flat_range(error[:a + 1] + reach[a + 1:], frame) + (steps[a],)
        for a in range(3)] * (shifts * len(atlases))
    # the error products sum over the error box, padded by p zeros per
    # side, once per atlas pair i <= j
    frame = tuple(b - a + 2 * p for a, b in grown(p))
    error = [(p, n - p) for n in frame]
    reach = [(a - p, b + p) for a, b in error]
    steps = (frame[1] * frame[2], frame[2], 1)
    pairs = len(atlases) * (len(atlases) + 1) // 2
    assert product_passes == [
        _flat_range(error[:a + 1] + reach[a + 1:], frame) + (steps[a],)
        for a in range(3)] * pairs


def test_fuse_without_active_voxels_runs_no_search(monkeypatch):
    rng = np.random.default_rng(10)
    target, atlases = _make_case(rng, (6, 6, 6), 3)
    for a in atlases:
        a.warped_labels.data[:] = 0
    boxes, search_passes, product_passes = _recording_search(monkeypatch)
    out = fuse(target, atlases, FusionConfig(search_radius=1))
    assert boxes == [] and search_passes == product_passes == []
    assert not out.consensus.data.any()
    assert np.all(out.probability == 1.0)


def test_fuse_without_search_filters_only_the_error_products(monkeypatch):
    # with search_radius 0 the one shift always wins: the error maps are
    # |T - A| bit for bit, and no SSD patch sum runs
    rng = np.random.default_rng(11)
    target, atlases = _make_case(rng, (9, 8, 7), 3)
    cfg = FusionConfig(patch_radius=1, search_radius=0)
    errs = _searched_errors(target.data,
                            [a.warped_image.data for a in atlases], cfg)
    for err, a in zip(errs, atlases):
        assert err.tobytes() == np.abs(target.data
                                       - a.warped_image.data).tobytes()
    _, search_passes, product_passes = _recording_search(monkeypatch)
    fuse(target, atlases, cfg)
    n = len(atlases)
    assert search_passes == []
    assert len(product_passes) == 3 * n * (n + 1) // 2
