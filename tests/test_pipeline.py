"""Manifest parsing, atlas-eligibility rules, a small end-to-end pipeline
run, and CLI subcommand smoke tests."""

import cProfile
import ctypes
import dataclasses
import gc
import inspect
import json
import os
import pickle
import pstats
import re
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vertseg
from vertseg import nifti, pipeline, registration
from vertseg.cli import _config, build_parser, main
from vertseg.fusion import FusionConfig, FusionOutput
from vertseg.phantom import PhantomSpec, deform_phantom, make_phantom
from vertseg.registration import RegistrationConfig, register_affine
from vertseg.pipeline import (AtlasEntry, AtlasManifest, VertebraEntry,
                              _box_start, _bundle_ids, _eligible_atlases,
                              _margin_voxels, _world_box, load_manifest,
                              run_pipeline)
from vertseg.postprocess import (CollisionPolicy, PostprocessConfig,
                                 levelset_refine, morph_cleanup,
                                 separate_labels)
from vertseg.similarity import IntensityWindow
from vertseg.transform import AffineTransform, ComposedTransform, affine_apply
from vertseg.volume import (BoundingBox, GridGeometry, LabelVolume,
                            ScalarVolume, bounding_box_of, crop)

SMALL = dict(dims=(48, 48, 72), spacing=(0.8, 0.8, 1.0),
             body_radii_mm=(7.0, 5.0, 7.0), n_vertebrae=3)

FAST_REG = {"pyramid_levels": 2, "control_spacing_mm": 8.0,
            "max_iters_per_level": 8, "max_sample_voxels": 15000}


def _write_manifest(tmp_path, n_atlases=2, extra=None, labels=True):
    """Phantom target plus deformed copies of it as atlases."""
    img, lbl, boxes = make_phantom(PhantomSpec(noise_sd=10.0, **SMALL))
    nifti.write_volume(tmp_path / "target.nii", img)
    nifti.write_volume(tmp_path / "target_labels.nii", lbl)

    atlases = []
    for k in range(n_atlases):
        wimg, wlbl, _ = deform_phantom(img, lbl, kind="smooth_ffd",
                                       magnitude=2.0, seed=10 + k)
        nifti.write_volume(tmp_path / f"atlas{k}.nii", wimg)
        nifti.write_volume(tmp_path / f"atlas{k}_labels.nii", wlbl)
        atlases.append({
            "case_id": f"atlas{k}",
            "image": f"atlas{k}.nii",
            "labels": f"atlas{k}_labels.nii",
            "vertebra_labels": {"V1": 1, "V2": 2, "V3": 3},
            "order": ["V1", "V2", "V3"],
        })

    doc = {
        "target": {
            "case_id": "case0",
            "image": "target.nii",
            "labels": "target_labels.nii" if labels else None,
            "vertebrae": [
                {"id": f"V{i + 1}", "label": i + 1,
                 "box": {"min": list(b.min_index), "max": list(b.max_index)},
                 "tags": {"state": "normal"}}
                for i, b in enumerate(boxes)
            ],
        },
        "atlases": atlases,
        "crop_margin_mm": 5.0,
        "registration": FAST_REG,
        "fusion": {"patch_radius": 1},
        "postprocess": {"min_island_voxels": 20, "levelset_iters": 3},
        "group_by": "state",
    }
    if extra:
        doc.update(extra)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return path, lbl


def test_load_manifest_parses_fields(tmp_path):
    path, _ = _write_manifest(tmp_path)
    m = load_manifest(path)
    assert m.target_case_id == "case0"
    assert m.target_image_path == str(tmp_path / "target.nii")
    assert [v.vertebra_id for v in m.vertebrae] == ["V1", "V2", "V3"]
    assert m.vertebrae[0].tags == {"state": "normal"}
    assert isinstance(m.vertebrae[0].box, BoundingBox)
    assert len(m.atlases) == 2
    assert m.atlases[0].vertebra_labels == {"V1": 1, "V2": 2, "V3": 3}
    assert m.registration.control_spacing_mm == 8.0
    assert m.fusion.patch_radius == 1
    assert m.postprocess == PostprocessConfig(min_island_voxels=20,
                                              levelset_iters=3)
    assert m.group_by == "state"


def test_load_manifest_window_and_mode(tmp_path):
    path, _ = _write_manifest(tmp_path, extra={
        "mode": "bundle3",
        "registration": dict(FAST_REG,
                             window={"lo": -500.0, "hi": 800.0, "bins": 32}),
    })
    m = load_manifest(path)
    assert m.mode == "bundle3"
    assert m.registration.window.bins == 32
    bad = json.loads((tmp_path / "manifest.json").read_text())
    bad["mode"] = "bundle5"
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    with pytest.raises(ValueError):
        load_manifest(tmp_path / "bad.json")


def test_bundle_ids():
    order = ["V1", "V2", "V3", "V4", "V5"]
    assert _bundle_ids("V3", order, "single") == ["V3"]
    assert _bundle_ids("V3", order, "bundle3") == ["V2", "V3", "V4"]
    # column ends use the nearest two same-side neighbors
    assert _bundle_ids("V1", order, "bundle3") == ["V1", "V2", "V3"]
    assert _bundle_ids("V5", order, "bundle3") == ["V3", "V4", "V5"]
    assert _bundle_ids("V2", ["V1", "V2", "V3"], "bundle3") \
        == ["V1", "V2", "V3"]


def test_eligible_atlases_filters(tmp_path):
    path, _ = _write_manifest(tmp_path)
    m = load_manifest(path)
    vert = m.vertebrae[0]
    assert len(_eligible_atlases(m, vert)) == 2

    # leave-one-out removes the atlas sharing the target's case id
    m.leave_one_out = True
    m.atlases[0].case_id = "case0"
    assert len(_eligible_atlases(m, vert)) == 1

    # atlases missing the vertebra are skipped
    m.leave_one_out = False
    m.atlases[0].case_id = "atlas0"
    del m.atlases[1].vertebra_labels["V1"]
    assert len(_eligible_atlases(m, vert)) == 1

    # bundle mode needs every bundle member present in the atlas
    m.mode = "bundle3"
    del m.atlases[0].vertebra_labels["V2"]
    assert len(_eligible_atlases(m, vert)) == 0


def test_run_pipeline_no_eligible_atlas_errors(tmp_path):
    path, _ = _write_manifest(tmp_path, n_atlases=1)
    m = load_manifest(path)
    m.atlases[0].vertebra_labels = {}
    with pytest.raises(RuntimeError, match="registration"):
        run_pipeline(m)


def test_run_pipeline_end_to_end(tmp_path):
    path, gt = _write_manifest(tmp_path, n_atlases=2)
    m = load_manifest(path)
    run = run_pipeline(m)

    assert list(run.per_vertebra) == ["V1", "V2", "V3"]
    assert [res.label for res in run.per_vertebra.values()] == [1, 2, 3]
    # 3 vertebrae x 2 atlases
    assert [len(res.pairs) for res in run.per_vertebra.values()] == [2] * 3
    assert run.final_labels.geometry.dims == gt.geometry.dims

    # ground truth present -> rows and grouped summaries
    assert len(run.rows) == 3
    for row in run.rows:
        assert row.dice_pct > 80.0
        assert row.asd_mm < 1.5
    assert run.summaries[0]["group"] == "normal"

    res = run.per_vertebra["V1"]
    # one (atlas, transform, seconds) per pair, in manifest order
    assert [case_id for case_id, _, _ in res.pairs] == ["atlas0", "atlas1"]
    assert all(isinstance(t, ComposedTransform) and seconds > 0
               for _, t, seconds in res.pairs)
    # the refined mask is a crop (its band) of the target crop
    target = nifti.read_volume(m.target_image_path, "scalar")
    tcrop = crop(target, m.vertebrae[0].box,
                 _margin_voxels(target.geometry, m.crop_margin_mm))
    refined = res.refined_mask.geometry
    lo = np.round(tcrop.geometry.world_to_voxel(refined.origin)).astype(int)
    hi = lo + np.array(refined.dims) - 1
    assert np.all(lo >= 0) and np.all(hi < tcrop.geometry.dims)
    assert refined.same_grid(crop(tcrop, BoundingBox(lo, hi)).geometry)
    assert set(np.unique(res.refined_mask.data)).issubset({0, 1})


def test_run_pipeline_names_stage_and_vertebra_on_empty_fusion(
        tmp_path, monkeypatch):
    reg = dict(FAST_REG, pyramid_levels=1, max_iters_per_level=1,
               max_sample_voxels=2000)
    path, _ = _write_manifest(tmp_path, n_atlases=1,
                              extra={"registration": reg})

    def empty_fuse(target, atlases, cfg):
        dims = target.geometry.dims
        return FusionOutput(
            LabelVolume(target.geometry, np.zeros(dims, dtype=np.int32)),
            np.zeros(dims))

    monkeypatch.setattr("vertseg.pipeline.fuse", empty_fuse)
    with pytest.raises(RuntimeError, match=r"\[postprocess\] vertebra V1"):
        run_pipeline(load_manifest(path))


# ------------------------------------------------------------------ CLI

def test_cli_phantom_and_register(tmp_path):
    out = tmp_path / "ph"
    rc = main(["phantom", "--output", str(out), "--n-vertebrae", "3",
               "--deform", "translation", "--magnitude", "2.0"])
    assert rc == 0
    for name in ("image.nii", "labels.nii", "boxes.json",
                 "deformed_image.nii", "truth_transform.json"):
        assert (out / name).exists()

    # register the deformed phantom back (coarse settings for speed)
    tr = tmp_path / "t.json"
    trace = tmp_path / "trace.csv"
    rc = main(["register", "--target", str(out / "deformed_image.nii"),
               "--floating", str(out / "image.nii"),
               "--output-transform", str(tr), "--trace-csv", str(trace),
               "--levels", "1", "--max-iters", "2",
               "--control-spacing", "20"])
    assert rc == 0
    assert tr.exists()
    assert trace.read_text().startswith("iteration,level,C,NMI,P")


def test_cli_fuse_refine_evaluate(tmp_path):
    img, lbl, _ = make_phantom(PhantomSpec(noise_sd=5.0, **SMALL))
    nifti.write_volume(tmp_path / "t.nii", img)
    nifti.write_volume(tmp_path / "a.nii", img)
    nifti.write_volume(tmp_path / "al.nii", lbl)

    rc = main(["fuse", "--target", str(tmp_path / "t.nii"),
               "--atlas", f"{tmp_path}/a.nii,{tmp_path}/al.nii",
               "--output-labels", str(tmp_path / "fused.nii"),
               "--patch-radius", "1"])
    assert rc == 0
    fused = nifti.read_volume(tmp_path / "fused.nii", "label")
    assert np.array_equal(fused.data, lbl.data)

    rc = main(["refine", "--labels", str(tmp_path / "fused.nii"),
               "--intensity", str(tmp_path / "t.nii"),
               "--output", str(tmp_path / "refined.nii"),
               "--iters", "0"])
    assert rc == 0

    prefix = str(tmp_path / "rep")
    rc = main(["evaluate", "--gt", str(tmp_path / "al.nii"),
               "--seg", str(tmp_path / "refined.nii"),
               "--intensity", str(tmp_path / "t.nii"),
               "--output-prefix", prefix])
    assert rc == 0
    assert os.path.exists(prefix + ".csv")
    assert os.path.exists(prefix + ".txt")


def test_cli_evaluate_finds_each_volumes_boxes_once(tmp_path, monkeypatch):
    from scipy import ndimage
    _, lbl, _ = make_phantom(PhantomSpec(**SMALL))
    seg = LabelVolume(lbl.geometry, np.where(lbl.data == 2, 0, lbl.data))
    nifti.write_volume(tmp_path / "gt.nii", lbl)
    nifti.write_volume(tmp_path / "seg.nii", seg)
    calls = []
    find_objects = ndimage.find_objects

    def counted(data, *args, **kwargs):
        calls.append(data.shape)
        return find_objects(data, *args, **kwargs)

    monkeypatch.setattr(ndimage, "find_objects", counted)
    prefix = str(tmp_path / "rep")
    assert main(["evaluate", "--gt", str(tmp_path / "gt.nii"),
                 "--seg", str(tmp_path / "seg.nii"),
                 "--output-prefix", prefix]) == 0
    assert calls == [lbl.geometry.dims] * 2
    # every label of either volume is reported, the one missing from the
    # segmentation included
    rows = (tmp_path / "rep.csv").read_text().splitlines()
    assert [r.split(",")[1] for r in rows[1:4]] == ["1", "2", "3"]


@pytest.mark.parametrize("doc, message", [
    (["normal"], "expected a JSON object of label value -> tags, got list"),
    ({"V1": {"state": "normal"}},
     "key 'V1' is not an integer label value"),
    ({"1": 5}, "key '1': expected a JSON object of tags, got int"),
])
def test_cli_evaluate_names_the_tags_file_and_key(tmp_path, capsys, doc,
                                                  message):
    _, lbl, _ = make_phantom(PhantomSpec(**SMALL))
    nifti.write_volume(tmp_path / "gt.nii", lbl)
    tags = tmp_path / "tags.json"
    tags.write_text(json.dumps(doc))
    rc = main(["evaluate", "--gt", str(tmp_path / "gt.nii"),
               "--seg", str(tmp_path / "gt.nii"), "--tags", str(tags),
               "--output-prefix", str(tmp_path / "rep")])
    assert rc == 1
    assert capsys.readouterr().err.strip() \
        == f"error: tags file {tags}: {message}"
    assert not (tmp_path / "rep.csv").exists()


def test_cli_evaluate_reads_integer_keyed_tags(tmp_path):
    _, lbl, _ = make_phantom(PhantomSpec(**SMALL))
    nifti.write_volume(tmp_path / "gt.nii", lbl)
    tags = tmp_path / "tags.json"
    tags.write_text(json.dumps({"2": {"state": "compressed"}}))
    assert main(["evaluate", "--gt", str(tmp_path / "gt.nii"),
                 "--seg", str(tmp_path / "gt.nii"), "--tags", str(tags),
                 "--output-prefix", str(tmp_path / "rep")]) == 0
    rows = (tmp_path / "rep.csv").read_text().splitlines()
    assert [r.split(",")[2] for r in rows[1:4]] == ["", "state=compressed",
                                                    ""]


def test_cli_run_subcommand(tmp_path):
    path, _ = _write_manifest(tmp_path, n_atlases=1)
    outdir = tmp_path / "out"
    rc = main(["run", "--manifest", str(path), "--output", str(outdir)])
    assert rc == 0
    assert (outdir / "final_labels.nii").exists()
    assert (outdir / "timing.csv").exists()
    assert (outdir / "report.csv").exists()
    assert (outdir / "transform_V1_atlas0.json").exists()


def test_cli_runtime_error_exit_code(tmp_path):
    rc = main(["register", "--target", "missing.nii",
               "--floating", "missing.nii",
               "--output-transform", str(tmp_path / "t.json")])
    assert rc == 1


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["register"])  # missing required arguments
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])  # no subcommand


@pytest.mark.parametrize("value", ["a.nii", "a.nii,b.nii,c.nii"])
def test_cli_fuse_rejects_malformed_atlas_as_usage_error(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fuse", "--target", "t.nii", "--atlas", value,
              "--output-labels", "out.nii"])
    assert exc.value.code == 2
    assert (f"argument --atlas: expected IMAGE,LABELS, got {value!r}"
            in capsys.readouterr().err)


# ------------------------------------------------ registration failures

def _quick_manifest(tmp_path, n_atlases):
    reg = dict(FAST_REG, pyramid_levels=1, max_iters_per_level=2,
               max_sample_voxels=2000)
    path, _ = _write_manifest(tmp_path, n_atlases=n_atlases,
                              extra={"registration": reg})
    return path


def test_run_pipeline_names_stage_vertebra_and_atlas_on_registration_error(
        tmp_path, monkeypatch):
    path = _quick_manifest(tmp_path, n_atlases=1)

    def failing_affine(target, floating, cfg, start=None):
        raise ValueError("no warped sample falls inside the floating image")

    monkeypatch.setattr("vertseg.pipeline.register_affine", failing_affine)
    with pytest.raises(RuntimeError,
                       match=r"^\[registration\] vertebra V1, atlas atlas0: "
                             r"no warped sample falls inside"):
        run_pipeline(load_manifest(path))


@pytest.mark.parametrize("n_atlases", [2, 3])
def test_run_pipeline_results_do_not_depend_on_worker_count(tmp_path,
                                                            n_atlases):
    path = _quick_manifest(tmp_path, n_atlases=n_atlases)
    runs = []
    for workers in (1, 2):
        m = load_manifest(path)
        m.workers = workers
        runs.append(run_pipeline(m))
    one, two = runs
    assert np.array_equal(one.final_labels.data, two.final_labels.data)
    assert list(one.per_vertebra) == list(two.per_vertebra)
    for vid, res in one.per_vertebra.items():
        other = two.per_vertebra[vid]
        assert res.label == other.label
        assert _same_value(res.refined_mask, other.refined_mask)
        assert [c for c, _, _ in res.pairs] == [c for c, _, _ in other.pairs]
        for (_, a, _), (_, b, _) in zip(res.pairs, other.pairs):
            assert np.array_equal(a.affine.matrix, b.affine.matrix)
            assert np.array_equal(a.affine.translation, b.affine.translation)
            assert np.array_equal(a.ffd.coefficients, b.ffd.coefficients)


def test_load_manifest_ignores_atlas_cohort_tag(tmp_path):
    path, _ = _write_manifest(tmp_path, n_atlases=1)
    doc = json.loads(path.read_text())
    doc["atlases"][0]["cohort"] = "osteoporotic"
    path.write_text(json.dumps(doc))
    m = load_manifest(path)
    assert [a.case_id for a in m.atlases] == ["atlas0"]


# ------------------------------------------------ pair jobs

@pytest.mark.parametrize("mode", ["single", "bundle3"])
def test_register_one_crops_equal_the_full_volume_construction(
        tmp_path, monkeypatch, mode):
    # registration stubbed to the identity; every atlas crop that reaches
    # the warp is recorded, in plan order (one worker)
    m = load_manifest(_quick_manifest(tmp_path, n_atlases=2))
    m = dataclasses.replace(m, mode=mode)
    monkeypatch.setattr("vertseg.pipeline.register_affine",
                        lambda target, floating, cfg, start=None:
                        AffineTransform(np.eye(3), np.zeros(3)))
    monkeypatch.setattr("vertseg.pipeline.register_ffd",
                        lambda target, floating, affine, cfg:
                        registration.RegistrationResult(
                            ComposedTransform.identity(), 0.0, [], []))
    seen = []

    def recording_warp(image, labels, transform, geometry):
        seen.append((image, labels))
        return registration.warp_atlas(image, labels, transform, geometry)

    monkeypatch.setattr("vertseg.pipeline.warp_atlas", recording_warp)
    run_pipeline(m)

    want = []
    for vert in m.vertebrae:
        for atlas, ids in _eligible_atlases(m, vert):
            img = nifti.read_volume(atlas.image_path, "scalar")
            lbl = nifti.read_volume(atlas.labels_path, "label")
            keep = [atlas.vertebra_labels[v] for v in ids]
            box = bounding_box_of(np.isin(lbl.data, keep))
            # the label that votes: the 3-vertebra bundle's middle one,
            # or the vertebra itself, as the target vertebra's label
            vote = atlas.vertebra_labels[ids[len(ids) // 2]]
            sub = np.where(lbl.data == vote, vert.label, 0)
            margin = [round(m.crop_margin_mm / s)
                      for s in img.geometry.spacing]
            want.append((crop(img, box, margin),
                         crop(LabelVolume(lbl.geometry, sub), box, margin)))
    assert len(seen) == len(want) == 6
    for got, ref in zip(seen, want):
        for g, r in zip(got, ref):
            assert g.geometry == r.geometry
            assert g.data.dtype == r.data.dtype
            assert g.data.tobytes() == r.data.tobytes()


def test_run_pipeline_names_the_pair_whose_bundle_labels_are_absent(
        tmp_path):
    m = load_manifest(_quick_manifest(tmp_path, n_atlases=1))
    m.atlases[0].vertebra_labels["V1"] = 7  # no voxel carries label 7
    with pytest.raises(RuntimeError,
                       match=r"^\[registration\] vertebra V1, atlas atlas0: "
                             r"mask is empty$"):
        run_pipeline(m)


def _counting_affine(monkeypatch):
    """Count `register_affine` calls made by the pipeline."""
    calls = []

    def counting(target, floating, cfg, start=None):
        calls.append(1)
        return register_affine(target, floating, cfg, start)

    monkeypatch.setattr("vertseg.pipeline.register_affine", counting)
    return calls


def test_run_pipeline_checks_every_vertebra_before_registering(
        tmp_path, monkeypatch):
    m = load_manifest(_quick_manifest(tmp_path, n_atlases=2))
    for atlas in m.atlases:
        del atlas.vertebra_labels["V3"]
    calls = _counting_affine(monkeypatch)
    with pytest.raises(RuntimeError, match=r"^\[registration\] no eligible "
                                           r"atlas for vertebra V3$"):
        run_pipeline(m)
    assert len(calls) == 0


def test_run_pipeline_failing_vertebra_cancels_queued_pairs(
        tmp_path, monkeypatch):
    m = load_manifest(_quick_manifest(tmp_path, n_atlases=2))
    assert m.workers == 1
    calls = _counting_affine(monkeypatch)

    def failing_fuse(target, atlases, cfg):
        raise ValueError("fusion broke")

    monkeypatch.setattr("vertseg.pipeline.fuse", failing_fuse)
    with pytest.raises(RuntimeError, match=r"^\[fusion\] vertebra V1: "
                                           r"fusion broke"):
        run_pipeline(m)
    # at one worker the pairs run as their results are read: V1's two
    assert len(calls) == 2


def test_run_pipeline_builds_every_pair_job_before_registering(
        tmp_path, monkeypatch):
    m = load_manifest(_quick_manifest(tmp_path, n_atlases=1))
    m.atlases[0].vertebra_labels["V3"] = 7  # no voxel carries label 7
    calls = _counting_affine(monkeypatch)
    with pytest.raises(RuntimeError,
                       match=r"^\[registration\] vertebra V3, atlas atlas0: "
                             r"mask is empty$"):
        run_pipeline(m)
    assert len(calls) == 0


def test_run_pipeline_registers_in_the_calling_thread_at_one_worker(
        tmp_path, monkeypatch):
    # cProfile sees only the thread it runs in
    m = load_manifest(_quick_manifest(tmp_path, n_atlases=1))
    assert m.workers == 1
    threads = []

    def recording_affine(target, floating, cfg, start=None):
        threads.append(threading.get_ident())
        return register_affine(target, floating, cfg, start)

    monkeypatch.setattr("vertseg.pipeline.register_affine", recording_affine)
    profile = cProfile.Profile()
    profile.runcall(run_pipeline, m)
    assert "register_ffd" in {name for _file, _line, name
                              in pstats.Stats(profile).stats}
    assert threads == [threading.get_ident()] * 3


def test_run_pipeline_frees_each_pair_jobs_crops_once_it_has_run(
        tmp_path, monkeypatch):
    # at one worker, when a pair registers, the atlas crops of every pair
    # before it are gone
    m = load_manifest(_quick_manifest(tmp_path, n_atlases=2))
    assert m.workers == 1
    register_one = pipeline._register_one
    crops = []
    held = []

    def recording(*job):
        gc.collect()
        held.append(sum(ref() is not None for ref in crops))
        crops.extend(weakref.ref(v) for v in job[1:3])
        return register_one(*job)

    monkeypatch.setattr("vertseg.pipeline._register_one", recording)
    run_pipeline(m)
    assert held == [0] * 6


def _same_value(a, b):
    """a and b are equal values: dataclasses field by field, arrays by
    dtype and elements."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same_value(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and np.array_equal(a, b))
    if isinstance(a, tuple):
        return (isinstance(b, tuple) and len(a) == len(b)
                and all(_same_value(x, y) for x, y in zip(a, b)))
    return a == b


@pytest.mark.parametrize("mode", ["single", "bundle3"])
def test_pair_jobs_survive_pickling(tmp_path, monkeypatch, mode):
    # what a worker process needs: the function by reference, the jobs
    # as plain values
    register_one = pipeline._register_one
    assert pickle.loads(pickle.dumps(register_one)) is register_one
    m = dataclasses.replace(load_manifest(_quick_manifest(tmp_path, 2)),
                            mode=mode)
    jobs = []

    def recording(*job):
        jobs.append(job)
        return register_one(*job)

    monkeypatch.setattr("vertseg.pipeline._register_one", recording)
    run_pipeline(m)
    assert len(jobs) == 6
    for job in jobs:
        assert [type(v) for v in job[:3]] == [ScalarVolume, ScalarVolume,
                                             LabelVolume]
        assert _same_value(pickle.loads(pickle.dumps(job)), job)


@pytest.mark.parametrize("mode, vid", [("bundle3", "V1"), ("bundle3", "V3"),
                                       ("single", "V2")])
def test_pair_job_label_crop_holds_only_the_voting_label(tmp_path, mode,
                                                         vid):
    # the atlas label that votes (the bundle's middle one, V2's label 2)
    # becomes the target vertebra's label, 9 here; the other bundle
    # labels in the crop are cleared
    m = dataclasses.replace(load_manifest(_quick_manifest(tmp_path, 1)),
                            mode=mode)
    vert = next(v for v in m.vertebrae if v.vertebra_id == vid)
    vert.label = 9
    entry = m.atlases[0]
    cache = {entry.case_id: pipeline._read_atlas(entry)}
    target = nifti.read_volume(m.target_image_path, "scalar")
    tcrop = crop(target, vert.box,
                 _margin_voxels(target.geometry, m.crop_margin_mm))
    [(_, ids)] = _eligible_atlases(m, vert)
    job = pipeline._pair_job(target.geometry, vert, tcrop, entry, ids, m,
                             cache)
    acrop_img, acrop_lbl = job[1:3]
    assert acrop_lbl.geometry == acrop_img.geometry
    assert set(np.unique(acrop_lbl.data)) == {0, 9}
    # the same crop of the atlas labels: label 2 there, and in bundle3
    # all three bundle labels
    lbl = cache[entry.case_id][1]
    lo = np.round(lbl.geometry.world_to_voxel(
        acrop_lbl.geometry.origin)).astype(int)
    atlas = crop(lbl, BoundingBox(lo, lo + acrop_lbl.geometry.dims - 1))
    assert set(np.unique(atlas.data)) >= ({1, 2, 3} if mode == "bundle3"
                                          else {2})
    assert np.array_equal(acrop_lbl.data, np.where(atlas.data == 2, 9, 0))


def test_cli_run_writes_one_timing_row_per_pair_in_plan_order(tmp_path):
    path = _quick_manifest(tmp_path, n_atlases=2)
    pairs = [(v, a) for v in ("V1", "V2", "V3") for a in ("atlas0", "atlas1")]
    for workers in (1, 2):
        out = tmp_path / f"out{workers}"
        assert main(["run", "--manifest", str(path), "--output", str(out),
                     "--workers", str(workers)]) == 0
        rows = (out / "timing.csv").read_text().splitlines()
        assert rows[0] == "vertebra,atlas,seconds"
        assert [tuple(r.split(",")[:2]) for r in rows[1:]] == pairs
        assert all(float(r.split(",")[2]) >= 0 for r in rows[1:])
        assert all((out / f"transform_{v}_{a}.json").exists()
                   for v, a in pairs)


# ------------------------------------------------ the affine's box start

def _corners(lo, hi):
    return np.array([[x, y, z] for x in (lo[0], hi[0])
                     for y in (lo[1], hi[1]) for z in (lo[2], hi[2])])


def test_box_start_sends_each_target_box_corner_to_the_atlas_corner():
    tgeom = GridGeometry((40, 50, 60), (0.8, 0.7, 1.2), (-12.5, 3.25, 40.0))
    ageom = GridGeometry((30, 44, 90), (0.6, 0.9, 1.0), (5.0, -7.5, -2.0))
    tbox = BoundingBox((3, 7, 11), (20, 31, 29))
    abox = BoundingBox((4, 2, 15), (27, 40, 52))
    target, atlas = _world_box(tgeom, tbox), _world_box(ageom, abox)
    # the faces of the end voxels: extent = voxel count x spacing
    for (lo, hi), geom, box in ((target, tgeom, tbox), (atlas, ageom, abox)):
        count = np.array(box.max_index) - box.min_index + 1
        assert np.allclose(hi - lo, count * np.array(geom.spacing),
                           rtol=0, atol=1e-12)
    start = _box_start(target, atlas)
    assert np.count_nonzero(start.matrix - np.diag(np.diag(start.matrix))) \
        == 0
    assert np.abs(affine_apply(start, _corners(*target))
                  - _corners(*atlas)).max() <= 1e-12


def test_box_start_scales_no_axis_below_one():
    # along x and z the target box is the larger (a margin looks like a
    # larger vertebra): those axes keep scale 1, y takes the ratio, and
    # the centers meet
    tlo, thi = np.array([-4.0, 2.0, 10.0]), np.array([16.0, 12.0, 40.0])
    alo, ahi = np.array([1.0, -3.0, 5.0]), np.array([13.0, 17.0, 23.0])
    start = _box_start((tlo, thi), (alo, ahi))
    assert np.array_equal(start.matrix, np.diag([1.0, 2.0, 1.0]))
    assert np.abs(affine_apply(start, 0.5 * (tlo + thi))
                  - 0.5 * (alo + ahi)).max() <= 1e-12
    ends = affine_apply(start, np.stack([tlo, thi]))[:, 1]
    assert np.abs(ends - [alo[1], ahi[1]]).max() <= 1e-12


@pytest.mark.parametrize("mode", ["single", "bundle3"])
def test_register_one_starts_single_mode_affines_from_the_box_map(
        tmp_path, monkeypatch, mode):
    m = dataclasses.replace(load_manifest(_quick_manifest(tmp_path, 2)),
                            mode=mode)
    starts = []

    def recording_affine(target, floating, cfg, start=None):
        starts.append(start)
        return AffineTransform(np.eye(3), np.zeros(3))

    monkeypatch.setattr("vertseg.pipeline.register_affine", recording_affine)
    run_pipeline(m)

    target = nifti.read_volume(m.target_image_path, "scalar")
    want = []
    for vert in m.vertebrae:
        for atlas, _ids in _eligible_atlases(m, vert):
            lbl = nifti.read_volume(atlas.labels_path, "label")
            abox = bounding_box_of(
                lbl.data == atlas.vertebra_labels[vert.vertebra_id])
            want.append(_box_start(_world_box(target.geometry, vert.box),
                                   _world_box(lbl.geometry, abox)))
    assert len(starts) == len(want) == 6
    for got, ref in zip(starts, want):
        if mode == "single":
            assert np.array_equal(got.matrix, ref.matrix)
            assert np.array_equal(got.translation, ref.translation)
        else:  # the bundle modes keep the centroid start
            assert got is None


# ------------------------------------------------ manifest validation

def _write_doc(tmp_path, doc):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return path


def _minimal_doc():
    return {
        "target": {
            "image": "target.nii",
            "vertebrae": [{"id": "V1", "label": 1,
                           "box": {"min": [0, 0, 0], "max": [4, 4, 4]}}],
        },
        "atlases": [{"case_id": "a0", "image": "a0.nii",
                     "labels": "a0_labels.nii",
                     "vertebra_labels": {"V1": 1}}],
    }


def test_load_manifest_minimal_document_takes_dataclass_defaults(tmp_path):
    m = load_manifest(_write_doc(tmp_path, _minimal_doc()))
    assert m.target_case_id == "target"
    assert m.target_labels_path is None
    assert m.postprocess == PostprocessConfig()
    for f in dataclasses.fields(AtlasManifest):
        if f.default is not dataclasses.MISSING:
            assert getattr(m, f.name) == f.default, f.name
        elif f.default_factory is not dataclasses.MISSING:
            assert getattr(m, f.name) == f.default_factory(), f.name
    # an empty section is the same as an absent one
    empty = dict(_minimal_doc(), registration={"window": {}}, fusion={},
                 collision={}, postprocess={})
    empty["target"]["vertebrae"][0]["tags"] = {}
    assert load_manifest(_write_doc(tmp_path, empty)) == m


@pytest.mark.parametrize("section, key, message", [
    ("", "crop_margin", "unknown top-level key 'crop_margin'"),
    ("registration", "alpha_", "unknown registration key 'alpha_'"),
    ("registration.window", "bin",
     "unknown registration window key 'bin'"),
    ("fusion", "patch_radiuss", "unknown fusion key 'patch_radiuss'"),
    ("collision", "w_intensities",
     "unknown collision key 'w_intensities'"),
    ("postprocess", "levelset_iter",
     "unknown postprocess key 'levelset_iter'"),
], ids=["top-level", "registration", "registration.window", "fusion",
        "collision", "postprocess"])
def test_load_manifest_rejects_unknown_section_key(
        tmp_path, section, key, message):
    doc = _minimal_doc()
    node = doc
    for name in filter(None, section.split(".")):
        node = node.setdefault(name, {})
    node[key] = 0
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_manifest(_write_doc(tmp_path, doc))


# a value other than the default for every field of every stage config
_SECTION_VALUES = {
    "registration": {"alpha": 0.01, "pyramid_levels": 2,
                     "control_spacing_mm": 6.0, "max_iters_per_level": 7,
                     "step_tolerance": 0.002, "objective_tolerance": 1e-5,
                     "max_sample_voxels": 1000,
                     "window": {"lo": -500.0, "hi": 900.0, "bins": 32}},
    "fusion": {"patch_radius": 1, "search_radius": 2, "beta": 1.5,
               "epsilon": 0.2},
    "collision": {"w_intensity": 0.5, "w_distance": 2.0},
    "postprocess": {"min_island_voxels": 7, "levelset_iters": 4,
                    "levelset_step": 0.5},
}


def _non_default(cls, values):
    """cls(**values), after checking that values sets every field of cls
    to a value other than its default."""
    assert set(values) == {f.name for f in dataclasses.fields(cls)}, cls
    for name, value in values.items():
        assert getattr(cls(), name) != value, (cls, name)
    return cls(**values)


def test_load_manifest_hands_every_config_field_to_its_stage(tmp_path):
    m = load_manifest(_write_doc(tmp_path,
                                 dict(_minimal_doc(), **_SECTION_VALUES)))
    window = _non_default(IntensityWindow,
                          _SECTION_VALUES["registration"]["window"])
    assert m.registration == _non_default(RegistrationConfig, dict(
        _SECTION_VALUES["registration"], window=window))
    for section, cls in (("fusion", FusionConfig),
                         ("collision", CollisionPolicy),
                         ("postprocess", PostprocessConfig)):
        assert getattr(m, section) == _non_default(
            cls, _SECTION_VALUES[section]), section


def _drop(path):
    """Edit of _minimal_doc() that deletes the key at a dotted path."""
    def edit(doc):
        *parents, key = path.split(".")
        node = doc
        for p in parents:
            node = node[int(p)] if p.isdigit() else node[p]
        del node[key]
        return doc
    return edit


@pytest.mark.parametrize("edit, message", [
    (_drop("target"), "manifest: missing key 'target'"),
    (_drop("atlases"), "manifest: missing key 'atlases'"),
    (_drop("target.image"), "target: missing key 'image'"),
    (_drop("target.vertebrae"), "target: missing key 'vertebrae'"),
    (_drop("target.vertebrae.0.id"), "vertebrae[0]: missing key 'id'"),
    (_drop("target.vertebrae.0.label"), "vertebra V1: missing key 'label'"),
    (_drop("target.vertebrae.0.box"), "vertebra V1: missing key 'box'"),
    (_drop("target.vertebrae.0.box.max"),
     "vertebra V1 box: missing key 'max'"),
    (_drop("atlases.0.case_id"), "atlases[0]: missing key 'case_id'"),
    (_drop("atlases.0.image"), "atlas a0: missing key 'image'"),
    (_drop("atlases.0.labels"), "atlas a0: missing key 'labels'"),
    (_drop("atlases.0.vertebra_labels"),
     "atlas a0: missing key 'vertebra_labels'"),
    (lambda doc: [doc], "manifest: expected a JSON object, got list"),
    (lambda doc: dict(doc, target="t.nii"),
     "target: expected a JSON object, got str"),
])
def test_load_manifest_names_missing_key_and_where(tmp_path, edit, message):
    path = _write_doc(tmp_path, edit(_minimal_doc()))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_manifest(path)


@pytest.mark.parametrize("key, value, message", [
    ("registration", [], "registration: expected a JSON object, got list"),
    ("registration.window", [],
     "registration window: expected a JSON object, got list"),
    ("postprocess", [], "postprocess: expected a JSON object, got list"),
    ("fusion", [], "fusion: expected a JSON object, got list"),
    ("collision", [], "collision: expected a JSON object, got list"),
    ("target.vertebrae.0.tags", ["normal"],
     "vertebra V1 tags: expected a JSON object, got list"),
    ("atlases.0.vertebra_labels", ["V1"],
     "atlas a0 vertebra_labels: expected a JSON object, got list"),
    ("atlases.0.order", "V1", "atlas a0 order: expected a JSON array, got str"),
    ("target.vertebrae", {"V1": {}},
     "target vertebrae: expected a JSON array, got dict"),
    ("atlases", {"a0": {}}, "atlases: expected a JSON array, got dict"),
])
def test_load_manifest_names_section_of_the_wrong_json_type(
        tmp_path, key, value, message):
    doc = _minimal_doc()
    *parents, name = key.split(".")
    node = doc
    for p in parents:
        node = node[int(p)] if p.isdigit() else node.setdefault(p, {})
    node[name] = value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_manifest(_write_doc(tmp_path, doc))


@pytest.mark.parametrize("key, value", [
    ("registration.step_tolerance", 0), ("crop_margin_mm", -1.0),
    ("postprocess.levelset_iters", -1), ("postprocess.min_island_voxels", -1),
    ("fusion.search_radius", -1), ("crop_margin", 5.0), ("group_by", "level"),
    ("postprocess.levelset_step", 0), ("fusion.patch_radius", 1.5),
    ("fusion.beta", float("nan")), ("leave_one_out", "false"),
    ("workers", 1.5), ("postprocess.levelset_iters", 2.5),
    ("registration.pyramid_levels", True), ("collision.w_intensity", "1")])
def test_bad_manifest_value_fails_at_load_before_registration(
        tmp_path, monkeypatch, key, value):
    path = _quick_manifest(tmp_path, n_atlases=1)
    doc = json.loads(path.read_text())
    *section, name = key.split(".")
    node = doc.setdefault(section[0], {}) if section else doc
    node[name] = value
    path.write_text(json.dumps(doc))
    calls = _counting_affine(monkeypatch)
    with pytest.raises(ValueError, match=name):
        run_pipeline(load_manifest(path))
    assert len(calls) == 0


def test_load_manifest_rejects_zero_workers(tmp_path):
    doc = dict(_minimal_doc(), workers=0)
    with pytest.raises(ValueError, match="workers"):
        load_manifest(_write_doc(tmp_path, doc))


def test_cli_run_rejects_zero_workers(tmp_path, capsys):
    path = _write_doc(tmp_path, _minimal_doc())
    rc = main(["run", "--manifest", str(path), "--workers", "0",
               "--output", str(tmp_path / "out")])
    assert rc == 1
    assert "workers" in capsys.readouterr().err


def test_cli_refine_rejects_zero_step(tmp_path, capsys):
    img, lbl, _ = make_phantom(PhantomSpec(**SMALL))
    nifti.write_volume(tmp_path / "t.nii", img)
    nifti.write_volume(tmp_path / "l.nii", lbl)
    rc = main(["refine", "--labels", str(tmp_path / "l.nii"),
               "--intensity", str(tmp_path / "t.nii"),
               "--output", str(tmp_path / "refined.nii"), "--step", "0"])
    assert rc == 1
    assert "step" in capsys.readouterr().err
    assert not (tmp_path / "refined.nii").exists()


@pytest.mark.parametrize("where", ["target", "atlas"])
def test_load_manifest_rejects_non_integer_vertebra_label(tmp_path, where):
    doc = _minimal_doc()
    if where == "target":
        doc["target"]["vertebrae"][0]["label"] = 1.5
    else:
        doc["atlases"][0]["vertebra_labels"]["V1"] = 1.5
    with pytest.raises(ValueError, match=r"V1.*must be an integer, got 1\.5"):
        load_manifest(_write_doc(tmp_path, doc))


def _second_atlas(doc, case_id):
    doc["atlases"].append(dict(doc["atlases"][0], case_id=case_id,
                               image="b.nii", labels="b_labels.nii"))
    return doc


def _second_vertebra(doc, vertebra_id):
    doc["target"]["vertebrae"].append(
        dict(doc["target"]["vertebrae"][0], id=vertebra_id, label=2))
    return doc


def _with_order(doc, order):
    doc["atlases"][-1] = dict(doc["atlases"][-1], order=order)
    return doc


@pytest.mark.parametrize("edit, message", [
    # a number never equals the atlas's string id: leave_one_out would
    # fuse the target with itself
    (lambda doc: dict(doc, leave_one_out=True,
                      target=dict(doc["target"], case_id=5)),
     "target case_id: expected a string, got 5"),
    (lambda doc: _second_atlas(doc, 5),
     "atlases[1] case_id: expected a string, got 5"),
    # a reused case id would read the first atlas's images from the
    # atlas cache and write over its transform files
    (lambda doc: _second_atlas(doc, "a0"),
     "atlases[1] case_id: 'a0' repeats atlases[0] case_id"),
    (lambda doc: _second_vertebra(doc, 2),
     "vertebrae[1] id: expected a string, got 2"),
    (lambda doc: _second_vertebra(doc, "V1"),
     "vertebrae[1] id: 'V1' repeats vertebrae[0] id"),
    # a numeric order id matches no vertebra id: the atlas would take
    # part in no vertebra's fusion
    (lambda doc: _with_order(_second_atlas(doc, "a1"), [1]),
     "atlas a1 order[0]: expected a string, got 1"),
    (lambda doc: _with_order(_second_atlas(doc, "a1"), ["V1", "V1"]),
     "atlas a1 order[1]: 'V1' repeats atlas a1 order[0]"),
])
def test_load_manifest_rejects_non_string_and_repeated_ids(tmp_path, edit,
                                                           message):
    path = _write_doc(tmp_path, edit(_minimal_doc()))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_manifest(path)


def test_load_manifest_keeps_string_ids(tmp_path):
    doc = _second_vertebra(_second_atlas(_minimal_doc(), "5"), "V2")
    doc["target"]["case_id"] = "5"
    m = load_manifest(_write_doc(tmp_path, doc))
    assert m.target_case_id == "5"
    assert [a.case_id for a in m.atlases] == ["a0", "5"]
    assert [v.vertebra_id for v in m.vertebrae] == ["V1", "V2"]
    doc = _with_order(_minimal_doc(), ["V0", "V1", "V2"])
    m = load_manifest(_write_doc(tmp_path, doc))
    assert m.atlases[0].order == ["V0", "V1", "V2"]


@pytest.mark.parametrize("vertebra_id", [
    "", ".", "..", "sub/V1", "../V1", "V\x001", "sub\\V1"], ids=[
    "empty", "dot", "dot-dot", "slash", "parent", "nul", "altsep"])
def test_load_manifest_rejects_ids_that_cannot_be_file_name_parts(
        tmp_path, monkeypatch, vertebra_id):
    # `vertseg run` writes transform_<vertebra id>_<case id>.json and
    # refined_<vertebra id>.nii: a separator would name a missing
    # directory, or one outside the output directory; a backslash is
    # one where os.altsep is
    monkeypatch.setattr(os, "altsep", "\\")
    doc = _minimal_doc()
    doc["target"]["vertebrae"][0]["id"] = vertebra_id
    message = (f"vertebrae[0] id: {vertebra_id!r} cannot be part of a "
               f"file name")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_manifest(_write_doc(tmp_path, doc))
    doc = _minimal_doc()
    doc["atlases"][0]["case_id"] = vertebra_id
    with pytest.raises(ValueError, match=r"^atlases\[0\] case_id: "):
        load_manifest(_write_doc(tmp_path, doc))


def test_load_manifest_resolves_output_dir_against_its_directory(
        tmp_path, monkeypatch):
    (tmp_path / "cases").mkdir()
    monkeypatch.chdir(tmp_path)
    doc = _minimal_doc()
    path = tmp_path / "cases" / "manifest.json"
    for given, expect in (("out", str(tmp_path / "cases" / "out")),
                          (str(tmp_path / "abs"), str(tmp_path / "abs"))):
        path.write_text(json.dumps(dict(doc, output_dir=given)))
        assert load_manifest(path).output_dir == expect
        # a relative path to the manifest resolves the same way
        assert load_manifest("cases/manifest.json").output_dir == expect
    path.write_text(json.dumps(doc))
    assert load_manifest(path).output_dir is None


def test_run_pipeline_rejects_target_labels_on_another_grid(
        tmp_path, monkeypatch):
    path = _quick_manifest(tmp_path, n_atlases=1)
    lbl = nifti.read_volume(tmp_path / "target_labels.nii", "label")
    g = lbl.geometry
    nifti.write_volume(tmp_path / "target_labels.nii", LabelVolume(
        GridGeometry(g.dims, g.spacing, (50.0, 0.0, 0.0)), lbl.data))
    calls = _counting_affine(monkeypatch)
    with pytest.raises(ValueError, match="target labels grid"):
        run_pipeline(load_manifest(path))
    assert len(calls) == 0


def test_cli_defaults_are_the_config_defaults():
    parser = build_parser()
    args = parser.parse_args(["register", "--target", "t.nii", "--floating",
                              "f.nii", "--output-transform", "t.json"])
    assert _config(RegistrationConfig, args) == RegistrationConfig()
    args = parser.parse_args(["fuse", "--target", "t.nii", "--atlas",
                              "a.nii,al.nii", "--output-labels", "o.nii"])
    assert _config(FusionConfig, args) == FusionConfig()
    args = parser.parse_args(["refine", "--labels", "l.nii", "--intensity",
                              "t.nii", "--output", "o.nii"])
    assert _config(PostprocessConfig, args) == PostprocessConfig()
    args = parser.parse_args(["phantom", "--output", "ph"])
    assert _config(PhantomSpec, args) == PhantomSpec()


# --------------------------------------------- crop and placement

@st.composite
def _crop_cases(draw):
    """A grid of 1-12 voxels per axis with anisotropic spacing and a
    non-zero origin, a box from 2 voxels before the low face to 2 past
    the high face on each axis (so boxes touch faces and corners, hang
    past them, or miss the grid), and a margin of 0-3 voxels."""
    dims = draw(st.tuples(*[st.integers(1, 12)] * 3))
    spacing = draw(st.tuples(*[st.sampled_from([0.4, 0.75, 1.0, 2.5])] * 3))
    origin = draw(st.tuples(*[st.integers(-40000, 40000).map(
        lambda v: v / 1000.0)] * 3))
    lo, hi = [], []
    for n in dims:
        a, b = draw(st.integers(-2, n + 1)), draw(st.integers(-2, n + 1))
        lo.append(min(a, b))
        hi.append(max(a, b))
    margin = draw(st.tuples(*[st.integers(0, 3)] * 3))
    return (GridGeometry(dims, spacing, origin),
            BoundingBox(tuple(lo), tuple(hi)), margin)


@settings(max_examples=300, deadline=None)
@given(case=_crop_cases(), seed=st.integers(0, 2 ** 16))
def test_crop_and_paste_back_keep_world_coordinates(case, seed):
    geom, box, margin = case
    rng = np.random.default_rng(seed)
    image = ScalarVolume(geom, rng.normal(0.0, 100.0, geom.dims))
    mask = LabelVolume(geom, rng.integers(0, 2, geom.dims))
    if any(box.max_index[a] < 0 or box.min_index[a] >= geom.dims[a]
           for a in range(3)):
        for vol in (image, mask):
            with pytest.raises(ValueError, match="does not intersect"):
                crop(vol, box, margin)
        return
    start = [max(box.min_index[a] - margin[a], 0) for a in range(3)]
    stop = [min(box.max_index[a] + margin[a], geom.dims[a] - 1) + 1
            for a in range(3)]
    sl = tuple(slice(a, b) for a, b in zip(start, stop))

    cimg, cmask = crop(image, box, margin), crop(mask, box, margin)
    for c, vol in ((cimg, image), (cmask, mask)):
        assert c.geometry.spacing == geom.spacing
        assert np.array_equal(c.data, vol.data[sl])
        assert np.allclose(c.geometry.grid_world_points(),
                           geom.grid_world_points()[sl], rtol=0, atol=1e-9)
    # the offset a crop is placed at is the clamped box start
    off = np.round(geom.world_to_voxel(np.array(cimg.geometry.origin)))
    assert off.astype(int).tolist() == start

    # `separate_labels` places the crop at that offset
    if not cmask.data.any():
        with pytest.raises(ValueError, match="empty mask"):
            separate_labels([(7, cmask)], image)
        return
    placed = separate_labels([(7, cmask)], image)
    expected = np.zeros(geom.dims, dtype=np.int32)
    expected[sl] = 7 * mask.data[sl]
    assert placed.geometry == geom
    assert np.array_equal(placed.data, expected)


def test_load_manifest_rejects_a_fractional_box_naming_the_vertebra(tmp_path):
    path, _ = _write_manifest(tmp_path)
    doc = json.loads(path.read_text())
    doc["target"]["vertebrae"][1]["box"]["min"] = [0.7, 2.9, True]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="vertebra V2 box.*min_index"):
        load_manifest(path)
    doc["target"]["vertebrae"][1]["box"]["min"] = [0, 2]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="vertebra V2 box.*3 entries"):
        load_manifest(path)


def test_postprocess_and_phantom_defaults_are_the_config_defaults():
    def defaults(fn):
        return {name: p.default
                for name, p in inspect.signature(fn).parameters.items()
                if p.default is not p.empty}

    config = PostprocessConfig()
    assert defaults(morph_cleanup)["min_island_voxels"] \
        == config.min_island_voxels
    assert defaults(levelset_refine)["iters"] == config.levelset_iters
    assert defaults(levelset_refine)["step"] == config.levelset_step
    args = build_parser().parse_args(["phantom", "--output", "ph",
                                      "--deform", "smooth_ffd"])
    assert args.magnitude == defaults(deform_phantom)["magnitude"]


_REUSE_FAULTS = """
import resource, sys
import numpy as np
from vertseg import cli
if sys.argv[1] == "1":
    cli._keep_freed_memory()
for _ in range(2):  # the second round, after any threshold has moved
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        arrays = [np.ones(1 << 19) for _ in range(3)]
        del arrays
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(getattr(ctypes.CDLL(None), "mallopt", None) is None,
                    reason="the C library has no mallopt")
def test_cli_reuses_freed_memory_instead_of_faulting_it_in_again():
    # three 4 MiB arrays allocated and freed together, as the spline
    # sampler's per-block temporaries are: glibc's default thresholds
    # hand them back and fault them in again on every pass (about 1000
    # page faults a pass), the CLI's fixed ones keep them
    src = os.path.dirname(os.path.dirname(vertseg.__file__))

    def faults(keep):
        proc = subprocess.run(
            [sys.executable, "-c", _REUSE_FAULTS, keep], check=True,
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src})
        return int(proc.stdout)

    assert faults("0") >= 20 * 500
    assert faults("1") <= 20 * 5
