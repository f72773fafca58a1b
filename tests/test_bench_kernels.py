"""Smoke test of the kernel benchmark script at a tiny size."""

import importlib.util
import json
import mmap
import os
import subprocess
import sys

from vertseg.bspline import BLOCK_POINTS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KERNELS = {"ffd_displace", "ffd_grid_forward", "ffd_grid_adjoint",
           "bending_operator_build", "bending_apply_Qc", "affine_apply",
           "spline_sample_gradient", "spline_tap_contraction",
           "parzen_counts", "nmi_point_gradient", "trilinear_pull_back",
           "fuse_patch_search", "patch_search", "dependency_matrix",
           "refine_labels", "separate_labels", "separate_labels_contested",
           "make_phantom", "evaluate_labels"}


def test_bench_kernels_writes_medians_and_environment(tmp_path):
    out = tmp_path / "BENCH_kernels.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "bench_kernels.py"),
         "--points", "300", "--repeats", "2", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert json.loads(proc.stdout.splitlines()[-1]) == record
    assert set(record["median_s"]) == KERNELS
    assert all(t >= 0.0 for t in record["median_s"].values())
    assert set(record["peak_mb_per_call"]) == KERNELS
    assert all(mb > 0.0 for mb in record["peak_mb_per_call"].values())
    assert record["sizes"]["points"] == 300
    assert record["sizes"]["block_points"] == BLOCK_POINTS
    assert record["sizes"]["lattice_dims"] == [11, 12, 11]
    assert record["sizes"]["grid_points"] == 300
    # the 58x64x22 active block grown by 2p + r = 5, 2p = 4 and p = 2,
    # clamped to the 82x88x32 image
    assert record["sizes"]["fuse_active_voxels"] == 58 * 64 * 22
    assert record["sizes"]["fuse_work_box_voxels"] == 68 * 74 * 32
    assert record["sizes"]["fuse_difference_voxels"] == 66 * 72 * 30
    assert record["sizes"]["fuse_error_box_voxels"] == 62 * 68 * 26
    assert record["sizes"]["levelset_dims"] == [96, 96, 160]
    assert record["sizes"]["levelset_labels"] == 5
    assert record["sizes"]["levelset_iters"] == 10
    assert 0 < record["sizes"]["levelset_band_voxels"] \
        < record["sizes"]["levelset_crop_voxels"]
    assert record["sizes"]["contested_dilation"] == 3
    assert record["sizes"]["contested_voxels"] > 0
    env = record["environment"]
    assert env["nproc"] >= 1
    assert {"python", "numpy", "scipy"} <= set(env)


def test_measure_counts_faults_and_system_time_per_call():
    spec = importlib.util.spec_from_file_location(
        "bench_kernels", os.path.join(ROOT, "tools", "bench_kernels.py"))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    calls = []
    median, faults, system = bench.measure(lambda: calls.append(1), 3)
    assert len(calls) == 3
    assert median >= 0.0 and faults >= 0.0 and system >= 0.0
    # writing to a fresh anonymous mapping on every call faults its pages
    def touch_fresh_pages():
        with mmap.mmap(-1, 64 * mmap.PAGESIZE) as m:
            m.write(bytes(len(m)))

    _, faults, _ = bench.measure(touch_fresh_pages, 3)
    assert faults >= 1.0
