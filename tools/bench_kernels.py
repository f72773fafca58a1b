"""Per-kernel timings of the registration, fusion and level-set kernels
at fixed sizes.

    python3 tools/bench_kernels.py [--points 80000] [--repeats 11] [--out PATH]

Run from anywhere in a source checkout: the package is imported from
`src/`. Times each kernel `--repeats` times, one call at a time, and
writes the medians (seconds), the minor page faults and system CPU
seconds per call (means over the repeats, from `getrusage`), the
`tracemalloc` peak of one more call after the timed ones (in MB of
2^20 bytes, as perfbench's `peak_rss_mb`; NumPy reports its arrays to
`tracemalloc`), the sizes (with `BLOCK_POINTS`, the per-point
kernels' block size) and the environment (CPU count, Python/NumPy/SciPy
versions, BLAS/OpenMP thread variables) to
`.bench_out/BENCH_kernels.json`, or to `--out`. A kernel
that frees large temporaries can hand their pages back to the system and
fault them in again on the next call; the fault and system-time columns
show that cost next to the median. The kernels run with the malloc
thresholds that every `vertseg` command fixes
(`cli._keep_freed_memory`), so that a kernel's time does not depend on
what the process happened to free before it.

Sizes follow the benchmark's `register_fine` workload: `--points` sample
points on an 11x12x11 control lattice at 5 mm, a penalty grid at a
quarter of the lattice spacing, and an 82x88x32 floating image.
`ffd_displace` evaluates the FFD at the `--points` random points with
random coefficients, one gathered support node at a time: the
arbitrary-point API (`compose_apply`), which no command runs.
`ffd_grid_forward` and `ffd_grid_adjoint` apply the separable
`GridBasis` that registration and the warps use, at a sorted random
subset of `--points` voxel centers of the 82x88x32 grid (all of them if
`--points` is larger).
`bending_operator_build` builds the separable bending operator of that
lattice on the penalty grid (its Gram matrices are square, one per axis
of `lattice_dims`), and `bending_apply_Qc` applies it to (n_nodes, 3)
coefficients.
`affine_apply` maps the `--points` random points through an affine
transform near the identity, as every affine-stage trial maps its
samples.
`spline_sample_gradient` is `SplineImage.sample`, the quadratic spline
image that registration samples, at the points `nmi_point_gradient`
samples (below): a sorted subset of the voxel centers, displaced, in the
order registration samples them.
`spline_tap_contraction` is one `_contract_taps` call on a
(3, 3, 3, `BLOCK_POINTS`) block of gathered coefficients, the 27 taps of
a quadratic support per point: the first of the contractions that
`spline_sample_gradient` makes per block.
`nmi_point_gradient` is `NmiObjective.point_gradient_at` at `--points`
target samples of that image (the one objective call an affine-stage
trial makes), with the floating image shifted by a third of a voxel.
`trilinear_pull_back` is `volume.pull_back` of that image at all of its
voxel centers displaced by a third of a voxel, the trilinear half of
`registration.warp_atlas`, whatever `--points` is.
Fusion and the level set follow the `refuse` workload, whatever
`--points` is. `fuse_patch_search` is one `fuse` call on that image as
the target crop: 6 noisy copies of it as atlases, patch radius 2, search
radius 1, each atlas labelling the same vertebra-sized block (the crop
less the workload's 12x12x5-voxel margin); its sizes record the voxel
counts of the search's work box, difference domain and error box (the
block's bounding box grown by 2p + r, 2p and p, for patch radius p and
search radius r), which bound what its reads, its patch-sum passes and
its SSD comparisons cover. `patch_search` is the search alone
(`fusion._searched_errors` on that error box, the same 6 atlases), without
the dependency matrices and the weight solve that `fuse_patch_search`
also times. `dependency_matrix` builds those matrices alone, from the
search's 6 error maps on that error box, at its active voxels.
`refine_labels` is cleanup, then 10 iterations per label, on the
default 96x96x160 phantom with its 5 vertebra labels; the sizes record
the voxels of its 5 band crops (`levelset_crop_voxels`) and of the bands
that the level set evolves in them (`levelset_band_voxels`).
`separate_labels` takes those 5 crops, as `vertseg refine` does next,
and counts their claims crop by crop. Those crops do not overlap, so
`separate_labels_contested` takes them with each mask dilated by 3
voxels inside its crop: neighbours then claim common voxels
(`contested_voxels` in the sizes), and the collision scores decide them.
`make_phantom` builds that phantom (the default spec, noise 20 HU), and
`evaluate_labels` scores its 5 labels, with volume and density, against
a copy deformed by `deform_phantom`'s default smooth FFD.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out", "BENCH_kernels.json")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
LATTICE_SPACING_MM = 5.0
IMAGE_DIMS = (82, 88, 32)
IMAGE_SPACING_MM = (0.4, 0.4, 1.0)
BINS = 64
LEVELSET_ITERS = 10
FUSE_ATLASES = 6
FUSE_MARGIN = (12, 12, 5)
CONTESTED_DILATION = 3


def cap_threads():
    """One BLAS/OpenMP thread, as in the benchmark; must run before NumPy
    is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def environment():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(),
            **{var: os.environ.get(var, "") for var in THREAD_VARS}}


def measure(fn, repeats):
    """Median wall seconds of `repeats` calls of fn, and the minor page
    faults and system CPU seconds per call over them."""
    times = []
    before = resource.getrusage(resource.RUSAGE_SELF)
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    after = resource.getrusage(resource.RUSAGE_SELF)
    return (statistics.median(times),
            (after.ru_minflt - before.ru_minflt) / repeats,
            (after.ru_stime - before.ru_stime) / repeats)


def peak_mb(fn):
    """tracemalloc's peak over one call of fn, in MB of 2^20 bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def run(n_points, repeats):
    import numpy as np
    from scipy import ndimage

    from vertseg.bspline import BLOCK_POINTS
    from vertseg.cli import _keep_freed_memory
    from vertseg.fusion import (FusionConfig, RegisteredAtlas,
                                _searched_errors, dependency_matrix, fuse)
    from vertseg.metrics import evaluate_labels
    from vertseg.phantom import PhantomSpec, deform_phantom, make_phantom
    from vertseg.postprocess import (PostprocessConfig, _initial_level_set,
                                     _placement, morph_cleanup,
                                     refine_labels, separate_labels)
    from vertseg.similarity import (NmiObjective, SplineImage,
                                    _contract_taps, _parzen_counts)
    from vertseg.transform import (AffineTransform, FFDTransform,
                                   GridBasis, affine_apply,
                                   bending_operator, ffd_displace,
                                   lattice_covering)
    from vertseg.volume import (GridGeometry, LabelVolume, ScalarVolume,
                                grow_box, pull_back)

    _keep_freed_memory()
    rng = np.random.default_rng(0)
    image_geom = GridGeometry(IMAGE_DIMS, IMAGE_SPACING_MM, (0.0, 0.0, 0.0))
    hi = (np.array(IMAGE_DIMS) - 1) * np.array(IMAGE_SPACING_MM)
    data = ndimage.gaussian_filter(rng.normal(0, 1, IMAGE_DIMS), 3.0)
    image = ScalarVolume(image_geom, 1500.0 * data / np.abs(data).max())

    # the lattice domain holds the image; this extent gives 11 x 12 x 11
    extent = np.array([35.0, 40.0, 35.0])
    lo = hi / 2 - extent / 2
    lattice = lattice_covering(lo, lo + extent, LATTICE_SPACING_MM)
    pen_spacing = LATTICE_SPACING_MM / 4.0
    pen_geom = GridGeometry(
        tuple(np.floor(extent / pen_spacing).astype(int) + 1),
        (pen_spacing,) * 3, tuple(lo))

    pts = rng.uniform(np.zeros(3), hi, (n_points, 3))
    # a generator of its own, so the other kernels' inputs do not move
    affine_rng = np.random.default_rng(3)
    affine = AffineTransform(np.eye(3) + affine_rng.normal(0, 0.05, (3, 3)),
                             affine_rng.normal(0, 2.0, 3))
    target_rows = rng.integers(0, BINS, n_points) * BINS
    floating_coords = rng.uniform(0, BINS - 1, n_points)
    coef = rng.normal(0, 1, (int(np.prod(lattice.dims)), 3))
    ffd = FFDTransform(lattice, coef.reshape(lattice.dims + (3,)))
    # the spline image's quadratic support, 3 taps per axis, from a
    # generator of its own, so the other kernels' inputs do not move
    tap_rng = np.random.default_rng(2)
    tap_block = tap_rng.normal(0, 100, (3, 3, 3, BLOCK_POINTS))
    tap_rows = tap_rng.uniform(0, 1, (3, BLOCK_POINTS))

    n_grid = int(np.prod(IMAGE_DIMS))
    # a generator of its own, so the other kernels' inputs do not move
    grid_rng = np.random.default_rng(1)
    grid_basis = GridBasis(lattice, image_geom, np.sort(grid_rng.choice(
        n_grid, size=min(n_points, n_grid), replace=False)))
    grid_grad = grid_rng.normal(0, 1, (len(grid_basis.indices), 3))
    bend = bending_operator(lattice, pen_geom)
    spline = SplineImage(image)
    objective = NmiObjective(image, image, max_points=n_points)
    warped = objective.points + np.array(IMAGE_SPACING_MM) / 3.0
    pulled = image_geom.grid_world_points() + np.array(IMAGE_SPACING_MM) / 3.0
    block = np.zeros(IMAGE_DIMS, dtype=np.int32)
    block[tuple(slice(m, d - m) for m, d in zip(FUSE_MARGIN, IMAGE_DIMS))] = 1
    fuse_atlases = [
        RegisteredAtlas(ScalarVolume(image_geom,
                                     image.data + rng.normal(0, 50,
                                                             IMAGE_DIMS)),
                        LabelVolume(image_geom, block), f"atlas{k}")
        for k in range(FUSE_ATLASES)]
    fuse_cfg = FusionConfig(patch_radius=2, search_radius=1)
    (block_box,) = ndimage.find_objects(block)
    p, r = fuse_cfg.patch_radius, fuse_cfg.search_radius

    def block_grown_voxels(margin):
        box = grow_box(block_box, margin, IMAGE_DIMS)
        return int(np.prod([s.stop - s.start for s in box]))

    error_box = grow_box(block_box, p, IMAGE_DIMS)
    fuse_images = [a.warped_image.data for a in fuse_atlases]
    fuse_errors = _searched_errors(image.data, fuse_images, fuse_cfg,
                                   error_box)
    fuse_active = block[error_box] != 0

    phantom_spec = PhantomSpec(noise_sd=20.0, seed=0)
    ct, labels, _ = make_phantom(phantom_spec)
    _, deformed, _ = deform_phantom(ct, labels, seed=1)
    vertebrae = [(f"V{lv}", lv, {}) for lv in labels.labels()]
    post = PostprocessConfig(levelset_iters=LEVELSET_ITERS)
    refined = refine_labels(labels, ct, post)
    # each label's band crop, and the band that its level set evolves
    cleaned = morph_cleanup(labels)
    band_voxels = 0
    for lv, m in refined.items():
        sl, _ = _placement(m, ct)
        band_voxels += int(_initial_level_set(
            cleaned.data[sl] == lv, post.levelset_iters,
            post.levelset_step)[1].sum())
    # each band crop's mask dilated inside its crop, so that neighbours
    # claim common voxels and the collision scores decide them
    dilated = [(lv, LabelVolume(m.geometry, ndimage.binary_dilation(
        m.data != 0, iterations=CONTESTED_DILATION)))
        for lv, m in refined.items()]
    claims = np.zeros(ct.geometry.dims, dtype=np.uint8)
    for _, m in dilated:
        lo = np.round(ct.geometry.world_to_voxel(m.geometry.origin))
        claims[tuple(slice(a, a + n) for a, n in
                     zip(lo.astype(int), m.geometry.dims))] += m.data != 0
    kernels = {
        "ffd_displace": lambda: ffd_displace(ffd, pts),
        "ffd_grid_forward": lambda: grid_basis.forward(coef),
        "ffd_grid_adjoint": lambda: grid_basis.adjoint(grid_grad),
        "bending_operator_build": lambda: bending_operator(lattice,
                                                           pen_geom),
        "bending_apply_Qc": lambda: bend @ coef,
        "affine_apply": lambda: affine_apply(affine, pts),
        "spline_sample_gradient": lambda: spline.sample(warped),
        "spline_tap_contraction": lambda: _contract_taps(tap_block,
                                                         tap_rows),
        "parzen_counts": lambda: _parzen_counts(target_rows,
                                                floating_coords, BINS),
        "nmi_point_gradient": lambda: objective.point_gradient_at(warped),
        "trilinear_pull_back": lambda: pull_back(image, image_geom, pulled),
        "fuse_patch_search": lambda: fuse(image, fuse_atlases, fuse_cfg),
        "patch_search": lambda: _searched_errors(image.data, fuse_images,
                                                 fuse_cfg, error_box),
        "dependency_matrix": lambda: dependency_matrix(
            fuse_errors, fuse_active, p, fuse_cfg.beta, fuse_cfg.epsilon),
        "refine_labels": lambda: refine_labels(labels, ct, post),
        "separate_labels": lambda: separate_labels(refined.items(), ct),
        "separate_labels_contested": lambda: separate_labels(dilated, ct),
        "make_phantom": lambda: make_phantom(phantom_spec),
        "evaluate_labels": lambda: evaluate_labels(labels, deformed, ct,
                                                   vertebrae, "phantom"),
    }
    sizes = {"points": n_points, "block_points": BLOCK_POINTS,
             "lattice_dims": list(lattice.dims),
             "lattice_spacing_mm": LATTICE_SPACING_MM,
             "penalty_dims": list(pen_geom.dims),
             "image_dims": list(IMAGE_DIMS), "bins": BINS,
             "grid_points": len(grid_basis.indices),
             "nmi_points": len(objective.points),
             "fuse_atlases": FUSE_ATLASES,
             "fuse_active_voxels": int(block.sum()),
             "fuse_work_box_voxels": block_grown_voxels(2 * p + r),
             "fuse_difference_voxels": block_grown_voxels(2 * p),
             "fuse_error_box_voxels": block_grown_voxels(p),
             "levelset_dims": list(ct.geometry.dims),
             "levelset_labels": len(labels.labels()),
             "levelset_iters": LEVELSET_ITERS,
             "levelset_crop_voxels": sum(m.data.size
                                         for m in refined.values()),
             "levelset_band_voxels": band_voxels,
             "contested_dilation": CONTESTED_DILATION,
             "contested_voxels": int((claims >= 2).sum())}
    return sizes, {name: measure(fn, repeats) + (peak_mb(fn),)
                   for name, fn in kernels.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--points", type=int, default=80_000)
    ap.add_argument("--repeats", type=int, default=11)
    ap.add_argument("--out", default=OUT)
    args = ap.parse_args(argv)
    if args.points < 1 or args.repeats < 1:
        ap.error("--points and --repeats must be >= 1")
    cap_threads()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sizes, measured = run(args.points, args.repeats)
    record = {"environment": environment(), "repeats": args.repeats,
              "sizes": sizes}
    for k, key in enumerate(("median_s", "minor_faults_per_call",
                             "system_s_per_call", "peak_mb_per_call")):
        record[key] = {name: m[k] for name, m in measured.items()}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
