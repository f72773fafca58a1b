"""Command-line interface: stage-by-stage subcommands plus the full
manifest-driven pipeline.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

import argparse
import csv
import ctypes
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from . import nifti
from .fusion import FusionConfig, RegisteredAtlas, fuse, majority_vote
from .metrics import (evaluate_labels, render_report_csv,
                      render_report_text, report)
from .phantom import (DEFORM_MAGNITUDE_MM, PhantomSpec, deform_phantom,
                      make_phantom)
from .pipeline import load_manifest, run_pipeline
from .postprocess import PostprocessConfig, refine_labels, separate_labels
from .registration import RegistrationConfig, register_affine, register_ffd
from .transform import save_transform
from .volume import ScalarVolume, label_boxes


def _add_registration_args(p):
    p.add_argument("--alpha", type=float, default=RegistrationConfig.alpha)
    p.add_argument("--levels", type=int, dest="pyramid_levels",
                   default=RegistrationConfig.pyramid_levels)
    p.add_argument("--control-spacing", type=float, dest="control_spacing_mm",
                   default=RegistrationConfig.control_spacing_mm,
                   help="final control-point spacing in mm")
    p.add_argument("--max-iters", type=int, dest="max_iters_per_level",
                   default=RegistrationConfig.max_iters_per_level)


def _config(cls, args):
    """A cls from the parsed flags whose dest is one of its fields; the
    parser reads each flag's default from cls, so no default is copied."""
    return cls(**{f.name: getattr(args, f.name)
                  for f in dataclasses.fields(cls) if hasattr(args, f.name)})


def _floats(text):
    return tuple(float(h) for h in text.split(","))


def _atlas_pair(text):
    parts = text.split(",")
    if len(parts) != 2 or not all(parts):
        raise argparse.ArgumentTypeError(
            f"expected IMAGE,LABELS, got {text!r}")
    return tuple(parts)


def _write_report(prefix, rows, summaries):
    """Write prefix.csv and prefix.txt, and print the text report."""
    text = render_report_text(summaries)
    with open(prefix + ".csv", "w") as f:
        f.write(render_report_csv(rows, summaries))
    with open(prefix + ".txt", "w") as f:
        f.write(text)
    print(text, end="")


def cmd_phantom(args):
    spec = _config(PhantomSpec, args)
    img, lbl, boxes = make_phantom(spec)
    os.makedirs(args.output, exist_ok=True)
    nifti.write_volume(os.path.join(args.output, "image.nii"), img)
    nifti.write_volume(os.path.join(args.output, "labels.nii"), lbl)
    with open(os.path.join(args.output, "boxes.json"), "w") as f:
        json.dump([{"label": i + 1, "min": list(b.min_index),
                    "max": list(b.max_index)}
                   for i, b in enumerate(boxes)], f, indent=2)
    if args.deform:
        wimg, wlbl, truth = deform_phantom(img, lbl, kind=args.deform,
                                           magnitude=args.magnitude,
                                           seed=spec.seed)
        nifti.write_volume(os.path.join(args.output, "deformed_image.nii"),
                           wimg)
        nifti.write_volume(os.path.join(args.output, "deformed_labels.nii"),
                           wlbl)
        save_transform(os.path.join(args.output, "truth_transform.json"),
                       truth)
    print(f"phantom written to {args.output}")


def cmd_register(args):
    target = nifti.read_volume(args.target, "scalar")
    floating = nifti.read_volume(args.floating, "scalar")
    cfg = _config(RegistrationConfig, args)
    affine = register_affine(target, floating, cfg)
    result = register_ffd(target, floating, affine, cfg)
    save_transform(args.output_transform, result.transform)
    if args.trace_csv:
        with open(args.trace_csv, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["iteration", "level", "C", "NMI", "P"])
            for it, level, c, nmi_val, p in result.per_level_trace:
                w.writerow([it, level, f"{c:.8f}", f"{nmi_val:.8f}",
                            f"{p:.8f}"])
    for level, stop in enumerate(result.stops):
        print(f"ffd level {level}: {stop.iterations} iterations, "
              f"{stop.evaluations} evaluations, stopped by {stop.reason}")
    print(f"final objective {result.final_objective:.6f}")


def cmd_fuse(args):
    target = nifti.read_volume(args.target, "scalar")
    atlases = []
    for img_path, lbl_path in args.atlas:
        atlases.append(RegisteredAtlas(
            nifti.read_volume(img_path, "scalar"),
            nifti.read_volume(lbl_path, "label"),
            atlas_id=img_path))
    if args.majority:
        out = majority_vote(atlases)
    else:
        out = fuse(target, atlases, _config(FusionConfig, args))
    nifti.write_volume(args.output_labels, out.consensus)
    if args.output_probability:
        prob = ScalarVolume(out.consensus.geometry,
                            np.round(out.probability * 1000.0))
        nifti.write_volume(args.output_probability, prob)
    print(f"consensus written to {args.output_labels}")


def cmd_refine(args):
    lbl = nifti.read_volume(args.labels, "label")
    intensity = nifti.read_volume(args.intensity, "scalar")
    masks = refine_labels(lbl, intensity, _config(PostprocessConfig, args))
    final = separate_labels(masks.items(), intensity)
    nifti.write_volume(args.output, final)
    print(f"refined labels written to {args.output}")


def _read_tags(path):
    """The --tags file: a JSON object whose keys are integer label values
    and whose values are tag objects, as {label: tags}; a ValueError
    names the file and the key otherwise."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"tags file {path}: expected a JSON object of "
                         f"label value -> tags, got {type(doc).__name__}")
    tags = {}
    for key, value in doc.items():
        try:
            label = int(key)
        except ValueError:
            raise ValueError(f"tags file {path}: key {key!r} is not an "
                             f"integer label value") from None
        if not isinstance(value, dict):
            raise ValueError(f"tags file {path}: key {key!r}: expected a "
                             f"JSON object of tags, got "
                             f"{type(value).__name__}")
        tags[label] = value
    return tags


def cmd_evaluate(args):
    gt = nifti.read_volume(args.gt, "label")
    seg = nifti.read_volume(args.seg, "label")
    intensity = (nifti.read_volume(args.intensity, "scalar")
                 if args.intensity else None)
    tags_by_label = _read_tags(args.tags) if args.tags else {}
    boxes = (label_boxes(gt.data), label_boxes(seg.data))
    labels = sorted(set(boxes[0]) | set(boxes[1]))
    rows = evaluate_labels(
        gt, seg, intensity,
        [(lv, lv, tags_by_label.get(lv, {})) for lv in labels],
        args.case_id, symmetric=args.symmetric, boxes=boxes)
    _write_report(args.output_prefix, rows, report(rows, args.group_by))


def cmd_run(args):
    manifest = load_manifest(args.manifest)
    if args.workers is not None:
        manifest = dataclasses.replace(manifest, workers=args.workers)
    outdir = args.output or manifest.output_dir or "."
    os.makedirs(outdir, exist_ok=True)

    run = run_pipeline(manifest)
    nifti.write_volume(os.path.join(outdir, "final_labels.nii"),
                       run.final_labels)
    with open(os.path.join(outdir, "timing.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["vertebra", "atlas", "seconds"])
        for vid, res in run.per_vertebra.items():
            for case_id, comp, sec in res.pairs:
                save_transform(os.path.join(
                    outdir, f"transform_{vid}_{case_id}.json"), comp)
                w.writerow([vid, case_id, f"{sec:.2f}"])
            nifti.write_volume(os.path.join(outdir, f"refined_{vid}.nii"),
                               res.refined_mask)
    if run.rows is not None:
        _write_report(os.path.join(outdir, "report"), run.rows,
                      run.summaries)
    print(f"pipeline outputs written to {outdir}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vertseg",
        description="Multi-atlas vertebra segmentation pipeline")
    parser.add_argument("--log-level", default="warning")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a synthetic spine phantom")
    p.add_argument("--output", required=True)
    p.add_argument("--n-vertebrae", type=int,
                   default=PhantomSpec.n_vertebrae)
    p.add_argument("--noise-sd", type=float, default=PhantomSpec.noise_sd)
    p.add_argument("--seed", type=int, default=PhantomSpec.seed)
    p.add_argument("--height-scale", type=_floats,
                   help="comma-separated per-vertebra factors")
    p.add_argument("--deform", choices=["translation", "affine",
                                        "smooth_ffd"], default=None)
    p.add_argument("--magnitude", type=float, default=DEFORM_MAGNITUDE_MM)
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("register", help="register floating onto target")
    p.add_argument("--target", required=True)
    p.add_argument("--floating", required=True)
    p.add_argument("--output-transform", required=True)
    p.add_argument("--trace-csv", default=None)
    _add_registration_args(p)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("fuse", help="joint label fusion of warped atlases")
    p.add_argument("--target", required=True)
    p.add_argument("--atlas", action="append", required=True,
                   type=_atlas_pair, metavar="IMAGE,LABELS")
    p.add_argument("--output-labels", required=True)
    p.add_argument("--output-probability", default=None,
                   help="probability x1000 as int16 NIfTI")
    p.add_argument("--patch-radius", type=int,
                   default=FusionConfig.patch_radius)
    p.add_argument("--search-radius", type=int,
                   default=FusionConfig.search_radius)
    p.add_argument("--beta", type=float, default=FusionConfig.beta)
    p.add_argument("--epsilon", type=float, default=FusionConfig.epsilon)
    p.add_argument("--majority", action="store_true")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("refine", help="morphological label correction")
    p.add_argument("--labels", required=True)
    p.add_argument("--intensity", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--min-island-voxels", type=int,
                   default=PostprocessConfig.min_island_voxels)
    p.add_argument("--iters", type=int, dest="levelset_iters",
                   default=PostprocessConfig.levelset_iters)
    p.add_argument("--step", type=float, dest="levelset_step",
                   default=PostprocessConfig.levelset_step)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("evaluate", help="Dice/ASD report against ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--seg", required=True)
    p.add_argument("--intensity", default=None)
    p.add_argument("--tags", default=None,
                   help="JSON mapping label value -> tag dict")
    p.add_argument("--case-id", default="case")
    p.add_argument("--group-by", default=None)
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--output-prefix", default="report")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run", help="run the full manifest-driven pipeline")
    p.add_argument("--manifest", required=True)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_run)

    return parser


# mallopt parameter numbers (glibc malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory():
    """Fix glibc's malloc thresholds where its own dynamic rule would
    end up: arrays below 32 MiB come from the heap, and freed heap
    memory is kept up to 64 MiB.

    glibc starts both thresholds at 128 KiB and raises them only when a
    larger mmapped block is freed, so a loop that allocates and frees
    the same NumPy temporaries faults their pages in again on every
    pass until something larger has been freed. The spline sampler's
    per-block gather arrays (2.4 MiB each at 5000 points) did so on a
    vertebra-sized crop (36x30x34 voxels, 15 000 points): about 5000
    page faults per call, and twice the time. Does nothing where the C
    library has no mallopt.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None):
    _keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level.upper(),
                                      logging.WARNING))
    try:
        args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
