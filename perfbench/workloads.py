"""Benchmark workloads.

Each workload has three parts:

* `setup(workdir, seed, quick)` generates every input from the seed
  (phantoms, noise, deformations, atlas variations) and writes it as
  NIfTI/JSON files; the program receives only these files.
* `load(workdir, quick)` reads them back once per run, untimed.
* `unit(state, outdir)` is one timed unit of work through the package's
  public entry points, and `check(state, outdir)` scores its output
  against the generated ground truth.

`quick=True` shrinks the work for the benchmark's self-test.
"""

import hashlib
import json
import os

import numpy as np
from scipy import ndimage

# units call the package through module attributes, so the traced run's
# wrappers (installed on those attributes) see every call
from vertseg import cli, fusion, nifti, registration, volume
from vertseg.fusion import FusionConfig, RegisteredAtlas
from vertseg.metrics import asd, dice
from vertseg.phantom import PhantomSpec, deform_phantom, make_phantom
from vertseg.registration import RegistrationConfig
from vertseg.similarity import nmi
from vertseg.volume import BoundingBox, LabelVolume, crop

# acceptance-suite thresholds, applied per vertebra
DICE_MIN_PCT = 90.0
ASD_MAX_MM = 1.0
# reported as the ASD of a vertebra the output lost entirely
NO_SURFACE_MM = 1000.0


def sub_seeds(seed, n):
    """n independent 32-bit seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _write(workdir, name, vol):
    nifti.write_volume(os.path.join(workdir, name), vol)


def _read(workdir, name, kind="scalar"):
    return nifti.read_volume(os.path.join(workdir, name), kind)


def _score(gt, seg, labels):
    """Per-label Dice (%) and ASD (mm) of seg against gt."""
    dices, asds = [], []
    for lv in labels:
        g, s = gt.data == lv, seg.data == lv
        dices.append(float(dice(g, s)))
        asds.append(float(asd(g, s, gt.geometry)) if s.any()
                    else NO_SURFACE_MM)
    return dices, asds


def _vertebra_gates(dices, asds):
    return {f"dice>={DICE_MIN_PCT:g}": min(dices) >= DICE_MIN_PCT,
            f"asd<={ASD_MAX_MM:g}": max(asds) <= ASD_MAX_MM}


class Case:
    """`vertseg run` on the small phantom manifest of the pipeline tests:
    a 48x48x72 target, 3 vertebrae, 2 smooth-FFD-deformed atlases and the
    fast registration settings."""

    SMALL = dict(dims=(48, 48, 72), spacing=(0.8, 0.8, 1.0),
                 body_radii_mm=(7.0, 5.0, 7.0), n_vertebrae=3)
    FAST_REG = {"pyramid_levels": 2, "control_spacing_mm": 8.0,
                "max_iters_per_level": 8, "max_sample_voxels": 15000}
    QUICK_REG = {"pyramid_levels": 1, "control_spacing_mm": 8.0,
                 "max_iters_per_level": 2, "max_sample_voxels": 4000}
    N_ATLASES = 2

    def __init__(self, workers):
        self.workers = workers

    def setup(self, workdir, seed, quick):
        noise_seed, warp_seed = sub_seeds(seed, 2)
        img, lbl, boxes = make_phantom(
            PhantomSpec(noise_sd=10.0, seed=noise_seed, **self.SMALL))
        _write(workdir, "target.nii", img)
        _write(workdir, "target_labels.nii", lbl)
        ids = [f"V{i + 1}" for i in range(len(boxes))]
        atlases = []
        for k in range(self.N_ATLASES):
            wimg, wlbl, _ = deform_phantom(img, lbl, kind="smooth_ffd",
                                           magnitude=2.0,
                                           seed=warp_seed + k)
            _write(workdir, f"atlas{k}.nii", wimg)
            _write(workdir, f"atlas{k}_labels.nii", wlbl)
            atlases.append({"case_id": f"atlas{k}",
                            "image": f"atlas{k}.nii",
                            "labels": f"atlas{k}_labels.nii",
                            "vertebra_labels": {v: i + 1
                                                for i, v in enumerate(ids)},
                            "order": ids})
        doc = {
            "target": {
                "case_id": "case0",
                "image": "target.nii",
                "labels": "target_labels.nii",
                "vertebrae": [
                    {"id": v, "label": i + 1,
                     "box": {"min": list(b.min_index),
                             "max": list(b.max_index)},
                     "tags": {"state": "normal"}}
                    for i, (v, b) in enumerate(zip(ids, boxes))],
            },
            "atlases": atlases,
            "crop_margin_mm": 5.0,
            "registration": self.QUICK_REG if quick else self.FAST_REG,
            "fusion": {"patch_radius": 1},
            "postprocess": {"min_island_voxels": 20, "levelset_iters": 3},
            "group_by": "state",
        }
        with open(os.path.join(workdir, "manifest.json"), "w") as f:
            json.dump(doc, f)

    def load(self, workdir, quick):
        return {"manifest": os.path.join(workdir, "manifest.json"),
                "gt": _read(workdir, "target_labels.nii", "label")}

    def unit(self, state, outdir):
        code = cli.main(["run", "--manifest", state["manifest"],
                         "--workers", str(self.workers), "--output", outdir])
        if code != 0:
            raise RuntimeError(f"vertseg run exited with {code}")

    def check(self, state, outdir):
        seg = nifti.read_volume(os.path.join(outdir, "final_labels.nii"),
                                "label")
        dices, asds = _score(state["gt"], seg, state["gt"].labels())
        return {"dice_pct": dices, "asd_mm": asds,
                "gates": _vertebra_gates(dices, asds),
                "digest": hashlib.sha256(seg.data.astype(np.uint8)
                                         .tobytes()).hexdigest()}


class RegisterFine:
    """Affine + FFD registration and warp of the middle vertebra of a
    full-resolution phantom (96x96x160 at 0.4x0.4x1.0 mm) onto a
    smooth-FFD-deformed copy; the crop is 82x88x32."""

    MARGIN = (12, 12, 5)  # 5 mm crop margin, in voxels
    PAD = 4  # axial slices beyond the crop that the deformation covers
    REG = dict(pyramid_levels=2, control_spacing_mm=5.0,
               max_iters_per_level=10, max_sample_voxels=80000)
    QUICK_REG = dict(pyramid_levels=1, control_spacing_mm=5.0,
                     max_iters_per_level=2, max_sample_voxels=10000)

    def setup(self, workdir, seed, quick):
        noise_seed, warp_seed = sub_seeds(seed, 2)
        img, lbl, boxes = make_phantom(PhantomSpec(noise_sd=20.0,
                                                   seed=noise_seed))
        box = boxes[len(boxes) // 2]
        # deform a full-width axial slab around the crop: the same field
        # family as deforming the whole phantom, at a quarter of the cost
        big = max(img.geometry.dims)
        slab = (big, big, self.MARGIN[2] + self.PAD)
        wimg, wlbl, _ = deform_phantom(crop(img, box, slab),
                                       crop(lbl, box, slab),
                                       kind="smooth_ffd", magnitude=3.0,
                                       seed=warp_seed)
        floating = crop(img, box, self.MARGIN)
        lo = np.round(wimg.geometry.world_to_voxel(
            floating.geometry.origin)).astype(int)
        inner = BoundingBox(tuple(lo),
                            tuple(lo + np.array(floating.geometry.dims) - 1))
        _write(workdir, "target.nii", crop(wimg, inner))
        _write(workdir, "target_labels.nii", crop(wlbl, inner))
        _write(workdir, "floating.nii", floating)
        _write(workdir, "floating_labels.nii", crop(lbl, box, self.MARGIN))
        with open(os.path.join(workdir, "label.json"), "w") as f:
            json.dump({"label": len(boxes) // 2 + 1}, f)

    def load(self, workdir, quick):
        with open(os.path.join(workdir, "label.json")) as f:
            label = json.load(f)["label"]
        return {"target": _read(workdir, "target.nii"),
                "target_labels": _read(workdir, "target_labels.nii", "label"),
                "floating": _read(workdir, "floating.nii"),
                "floating_labels": _read(workdir, "floating_labels.nii",
                                         "label"),
                "label": label,
                "cfg": RegistrationConfig(**(self.QUICK_REG if quick
                                             else self.REG))}

    def unit(self, state, outdir):
        tgt, flt, cfg = state["target"], state["floating"], state["cfg"]
        affine = registration.register_affine(tgt, flt, cfg)
        result = registration.register_ffd(tgt, flt, affine, cfg)
        state["warped"] = registration.warp_atlas(
            flt, state["floating_labels"], result.transform, tgt.geometry)

    def check(self, state, outdir):
        tgt = state["target"]
        warped_img, warped_lbl = state.pop("warped")
        before = nmi(tgt, state["floating"])
        after = nmi(tgt, warped_img)
        dices, asds = _score(state["target_labels"], warped_lbl,
                             [state["label"]])
        return {"dice_pct": dices, "asd_mm": asds,
                "gates": {"nmi_after>nmi_before": after > before,
                          f"dice>={DICE_MIN_PCT:g}":
                              dices[0] >= DICE_MIN_PCT},
                "nmi_before": before, "nmi_after": after}


class Refuse:
    """Per-vertebra joint label fusion of pre-warped atlases with the
    patch search on, then `vertseg refine` and `vertseg evaluate` on the
    full 96x96x160 grid. No registration."""

    N_ATLASES = 6
    QUICK_ATLASES = 2
    MARGIN = (12, 12, 5)  # 5 mm crop margin, in voxels
    FUSION = FusionConfig(patch_radius=2, search_radius=1)

    def setup(self, workdir, seed, quick):
        n = self.QUICK_ATLASES if quick else self.N_ATLASES
        seeds = sub_seeds(seed, 1 + n)
        img, lbl, boxes = make_phantom(PhantomSpec(noise_sd=20.0,
                                                   seed=seeds[0]))
        _write(workdir, "target.nii", img)
        _write(workdir, "target_labels.nii", lbl)
        with open(os.path.join(workdir, "boxes.json"), "w") as f:
            json.dump([[list(b.min_index), list(b.max_index)]
                       for b in boxes], f)
        base = PhantomSpec()
        spacing = np.array(img.geometry.spacing)
        for k in range(n):
            rng = np.random.default_rng(seeds[1 + k])
            spec = PhantomSpec(
                body_radii_mm=tuple(np.array(base.body_radii_mm)
                                    * rng.uniform(0.97, 1.03, 3)),
                disc_gap_mm=base.disc_gap_mm + rng.uniform(-0.4, 0.4),
                noise_sd=20.0, seed=int(rng.integers(2 ** 32)))
            aimg, albl, _ = make_phantom(spec)
            # 1 mm translation, pulled back: atlas(x) = phantom(x + t)
            t = rng.normal(size=3)
            shift = -(t / np.linalg.norm(t)) / spacing
            aimg.data = ndimage.shift(aimg.data, shift, order=1,
                                      mode="nearest")
            albl.data = ndimage.shift(albl.data, shift, order=0,
                                      mode="nearest")
            _write(workdir, f"atlas{k}.nii", aimg)
            _write(workdir, f"atlas{k}_labels.nii", albl)

    def load(self, workdir, quick):
        n = self.QUICK_ATLASES if quick else self.N_ATLASES
        with open(os.path.join(workdir, "boxes.json")) as f:
            boxes = [BoundingBox(tuple(lo), tuple(hi))
                     for lo, hi in json.load(f)]
        return {"workdir": workdir,
                "target": _read(workdir, "target.nii"),
                "gt": _read(workdir, "target_labels.nii", "label"),
                "boxes": boxes,
                "atlases": [(_read(workdir, f"atlas{k}.nii"),
                             _read(workdir, f"atlas{k}_labels.nii", "label"))
                            for k in range(n)]}

    def unit(self, state, outdir):
        target = state["target"]
        fused_full = np.zeros(target.geometry.dims, dtype=np.int32)
        for label, box in enumerate(state["boxes"], start=1):
            tcrop = volume.crop(target, box, self.MARGIN)
            atlases = []
            for k, (aimg, albl) in enumerate(state["atlases"]):
                lcrop = volume.crop(albl, box, self.MARGIN)
                atlases.append(RegisteredAtlas(
                    volume.crop(aimg, box, self.MARGIN),
                    LabelVolume(lcrop.geometry,
                                np.where(lcrop.data == label, label, 0)),
                    f"atlas{k}"))
            fused = fusion.fuse(tcrop, atlases, self.FUSION)
            off = np.round(target.geometry.world_to_voxel(
                tcrop.geometry.origin)).astype(int)
            sl = tuple(slice(off[a], off[a] + tcrop.geometry.dims[a])
                       for a in range(3))
            cons = fused.consensus.data
            fused_full[sl] = np.where(cons != 0, cons, fused_full[sl])
        fused_path = os.path.join(outdir, "fused.nii")
        refined_path = os.path.join(outdir, "refined.nii")
        nifti.write_volume(fused_path,
                           LabelVolume(target.geometry, fused_full))
        workdir = state["workdir"]
        for argv in (["refine", "--labels", fused_path,
                      "--intensity", os.path.join(workdir, "target.nii"),
                      "--output", refined_path],
                     ["evaluate", "--gt",
                      os.path.join(workdir, "target_labels.nii"),
                      "--seg", refined_path,
                      "--output-prefix", os.path.join(outdir, "report")]):
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"vertseg {argv[0]} exited with {code}")

    def check(self, state, outdir):
        seg = nifti.read_volume(os.path.join(outdir, "refined.nii"), "label")
        labels = list(range(1, len(state["boxes"]) + 1))
        dices, asds = _score(state["gt"], seg, labels)
        return {"dice_pct": dices, "asd_mm": asds,
                "gates": _vertebra_gates(dices, asds)}


WORKLOADS = {
    "case_small": Case(workers=1),
    "case_small_w2": Case(workers=2),
    "register_fine": RegisterFine(),
    "refuse": Refuse(),
}
