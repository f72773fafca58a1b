"""Manifest-driven per-vertebra pipeline: crop, register every eligible
atlas, fuse labels, clean up and refine each vertebra, resolve collisions
across vertebrae, and (optionally) evaluate against ground truth.

Each stage's settings are one checked config, its manifest section.
Each (vertebra, atlas) registration is one pair job, and each vertebra
is fused as soon as its own pairs are done (see `run_pipeline`).
"""

import itertools
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from . import nifti
from .checks import integer, real
from .fusion import FusionConfig, RegisteredAtlas, fuse
from .metrics import evaluate_labels, report
from .postprocess import (CollisionPolicy, PostprocessConfig, refine_labels,
                          separate_labels)
from .registration import (RegistrationConfig, register_affine, register_ffd,
                           warp_atlas)
from .transform import AffineTransform
from .volume import BoundingBox, LabelVolume, crop, label_boxes, union_box

@dataclass
class VertebraEntry:
    vertebra_id: str
    label: int
    box: BoundingBox
    tags: dict = field(default_factory=dict)

    def __post_init__(self):
        self.label = integer(f"vertebra {self.vertebra_id} label",
                             self.label, 1)


@dataclass
class AtlasEntry:
    case_id: str
    image_path: str
    labels_path: str
    vertebra_labels: dict  # vertebra id -> label value
    order: list  # column order of vertebra ids, superior to inferior

    def __post_init__(self):
        self.vertebra_labels = {
            v: integer(f"atlas {self.case_id} vertebra_labels[{v!r}]", lv, 1)
            for v, lv in self.vertebra_labels.items()}


@dataclass
class AtlasManifest:
    target_image_path: str
    target_case_id: str
    vertebrae: list
    atlases: list
    mode: str = "single"
    leave_one_out: bool = False
    target_labels_path: str = None
    crop_margin_mm: float = 10.0
    registration: RegistrationConfig = field(default_factory=RegistrationConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    collision: CollisionPolicy = field(default_factory=CollisionPolicy)
    postprocess: PostprocessConfig = field(default_factory=PostprocessConfig)
    group_by: str = None
    workers: int = 1
    output_dir: str = None

    def __post_init__(self):
        if self.mode not in ("single", "bundle3"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not isinstance(self.leave_one_out, bool):
            raise ValueError(f"leave_one_out must be true or false, got "
                             f"{self.leave_one_out!r}")
        for name in ("group_by", "output_dir"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ValueError(f"{name} must be a string, got {value!r}")
        self.workers = integer("workers", self.workers, 1)
        self.crop_margin_mm = real("crop_margin_mm", self.crop_margin_mm)
        if self.crop_margin_mm < 0:
            raise ValueError(
                f"crop_margin_mm must be >= 0, got {self.crop_margin_mm}")
        for v in self.vertebrae:
            if self.group_by is not None and self.group_by not in v.tags:
                raise ValueError(f"group_by tag {self.group_by!r} missing "
                                 f"on vertebra {v.vertebra_id}")


# optional manifest keys, each an AtlasManifest field of the same name
# (a stage's section: its config); the dataclasses check the values
_TOP_LEVEL_KEYS = {"mode", "leave_one_out", "crop_margin_mm", "group_by",
                   "workers", "output_dir"}
_SECTIONS = {"registration": RegistrationConfig, "fusion": FusionConfig,
             "collision": CollisionPolicy, "postprocess": PostprocessConfig}
_DOC_KEYS = {"target", "atlases", *_SECTIONS, *_TOP_LEVEL_KEYS}


def _expect(value, kind, where):
    """value, or a ValueError naming where a JSON object (kind dict) or
    array (kind list) was expected."""
    if not isinstance(value, kind):
        raise ValueError(f"{where}: expected a JSON "
                         f"{'object' if kind is dict else 'array'}, got "
                         f"{type(value).__name__}")
    return value


def _required(section, key, where):
    """section[key], or a ValueError naming the key and where it is."""
    if key not in _expect(section, dict, where):
        raise ValueError(f"{where}: missing key {key!r}")
    return section[key]


def _known(section, keys, where):
    """section, a JSON object whose keys are all in keys, or a ValueError."""
    for key in _expect(section, dict, where):
        if key not in keys:
            raise ValueError(f"unknown {where} key {key!r}")
    return section


def _section(cls, section, where):
    """The config cls from its manifest section, and a nested one likewise."""
    types = {f.name: f.type for f in fields(cls)}
    return cls(**{key: _section(types[key], value, f"{where} {key}")
                  if is_dataclass(types[key]) else value
                  for key, value in _known(section, types, where).items()})


def _new_id(value, where, seen):
    """value, a string id not in seen (id -> where it was first given),
    which it joins; or a ValueError naming where it is."""
    if not isinstance(value, str):
        raise ValueError(f"{where}: expected a string, got {value!r}")
    if value in seen:
        raise ValueError(f"{where}: {value!r} repeats {seen[value]}")
    seen[value] = where
    return value


def load_manifest(path):
    """Parse the JSON manifest (schema documented in the README)."""
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    with open(path) as f:
        doc = json.load(f)
    tgt = _required(doc, "target", "manifest")
    _known(doc, _DOC_KEYS, "top-level")
    # only the keys the document has: the dataclasses hold every default
    optional = {key: doc[key] for key in _TOP_LEVEL_KEYS if key in doc}
    optional.update((key, _section(cls, doc.get(key, {}), key))
                    for key, cls in _SECTIONS.items())

    vertebrae, vertebra_ids = [], {}
    for i, v in enumerate(_expect(_required(tgt, "vertebrae", "target"),
                                  list, "target vertebrae")):
        vid = _new_id(_required(v, "id", f"vertebrae[{i}]"),
                      f"vertebrae[{i}] id", vertebra_ids)
        where = f"vertebra {vid}"
        box = _required(v, "box", where)
        lo, hi = (_required(box, k, f"{where} box") for k in ("min", "max"))
        try:
            box = BoundingBox(lo, hi)
        except ValueError as e:
            raise ValueError(f"{where} box: {e}") from None
        vertebrae.append(VertebraEntry(
            vertebra_id=vid, label=_required(v, "label", where), box=box,
            tags=dict(_expect(v.get("tags", {}), dict, f"{where} tags"))))

    atlases, case_ids = [], {}
    for i, a in enumerate(_expect(_required(doc, "atlases", "manifest"),
                                  list, "atlases")):
        case_id = _new_id(_required(a, "case_id", f"atlases[{i}]"),
                          f"atlases[{i}] case_id", case_ids)
        where = f"atlas {case_id}"
        labels = dict(_expect(_required(a, "vertebra_labels", where), dict,
                              f"{where} vertebra_labels"))
        order = _expect(a.get("order", list(labels)), list, f"{where} order")
        # a non-string id would match no vertebra id, and the atlas would
        # silently take part in no vertebra's fusion
        order_ids = {}
        atlases.append(AtlasEntry(
            case_id=case_id,
            image_path=resolve(_required(a, "image", where)),
            labels_path=resolve(_required(a, "labels", where)),
            vertebra_labels=labels,
            order=[_new_id(vid, f"{where} order[{j}]", order_ids)
                   for j, vid in enumerate(order)]))

    return AtlasManifest(
        target_image_path=resolve(_required(tgt, "image", "target")),
        target_case_id=_new_id(tgt.get("case_id", "target"),
                               "target case_id", {}),
        vertebrae=vertebrae,
        atlases=atlases,
        target_labels_path=(resolve(tgt["labels"])
                            if tgt.get("labels") else None),
        **optional,
    )


@dataclass
class VertebraResult:
    vertebra_id: str
    transforms: list  # (atlas case_id, ComposedTransform)
    refined_mask: LabelVolume  # 0/1, on its band crop of the target crop


@dataclass
class PipelineRun:
    final_labels: LabelVolume
    per_vertebra: dict  # vertebra id -> VertebraResult
    rows: list = None
    summaries: list = None
    timing: list = field(default_factory=list)  # (vertebra, atlas, seconds)


def _bundle_ids(vertebra_id, order, mode):
    """Vertebra ids to include from an atlas: the vertebra itself, or the
    three-vertebra bundle (neighbors above and below; at column ends the
    nearest two same-side neighbors)."""
    if mode == "single":
        return [vertebra_id]
    i = order.index(vertebra_id)
    n = len(order)
    if n <= 3:
        return list(order)
    if i == 0:
        return order[0:3]
    if i == n - 1:
        return order[n - 3:n]
    return [order[i - 1], order[i], order[i + 1]]


def _eligible_atlases(manifest, vertebra):
    out = []
    for atlas in manifest.atlases:
        if manifest.leave_one_out \
                and atlas.case_id == manifest.target_case_id:
            continue
        if vertebra.vertebra_id not in atlas.order:
            continue
        ids = _bundle_ids(vertebra.vertebra_id, atlas.order, manifest.mode)
        if any(v not in atlas.vertebra_labels for v in ids):
            continue
        out.append((atlas, ids))
    return out


def _margin_voxels(geometry, margin_mm):
    return tuple(int(round(margin_mm / s)) for s in geometry.spacing)


def _world_box(geometry, box):
    """World (lo, hi) faces of a BoundingBox of geometry's voxels: the
    outer faces of its end voxels, so hi - lo is voxel count x spacing."""
    half = 0.5 * np.array(geometry.spacing)
    return (geometry.voxel_to_world(box.min_index) - half,
            geometry.voxel_to_world(box.max_index) + half)


def _box_start(target_box, atlas_box):
    """The diagonal affine x -> S x + t that sends the center of the
    world box target_box (lo, hi) onto atlas_box's center, with S per
    axis the ratio of their extents, atlas over target, or 1 where that
    ratio is below 1. The target box (the manifest's) holds its vertebra,
    maybe with a margin, while the atlas box (`label_boxes`) is tight:
    so the ratio is at most the atlas/target size ratio, and above 1 it
    shows the target vertebra smaller by at least that much (a
    compression fracture's height), while below 1 a margin and a larger
    vertebra look alike. Where every ratio is at least 1, each target
    box corner goes onto the atlas box's."""
    (tlo, thi), (alo, ahi) = target_box, atlas_box
    scale = np.maximum((ahi - alo) / (thi - tlo), 1.0)
    return AffineTransform(np.diag(scale),
                           0.5 * (alo + ahi) - scale * (0.5 * (tlo + thi)))


def _read_atlas(entry):
    """(image, labels, label_boxes of labels) of an atlas entry."""
    image = nifti.read_volume(entry.image_path, "scalar")
    labels = nifti.read_volume(entry.labels_path, "label")
    return image, labels, label_boxes(labels.data)


def _pair_job(target_geometry, vert, tcrop, atlas_entry, bundle_ids,
              manifest, atlas_cache):
    """The pair's job, a tuple of `_register_one`'s arguments: the atlas
    cropped to the union of its bundle labels' boxes (`label_boxes`)
    grown by the crop margin, with the other labels cleared (the crops
    of masking the whole atlas first), and in `single` mode the affine
    start `_box_start` from the target vertebra's manifest box onto the
    atlas vertebra's box. The bundle modes keep `register_affine`'s
    centroid start: the target crop holds one vertebra, the atlas three."""
    img, lbl, boxes = atlas_cache[atlas_entry.case_id]
    keep = [atlas_entry.vertebra_labels[v] for v in bundle_ids]
    abox = BoundingBox.from_slices(
        union_box([boxes[lv] for lv in keep if lv in boxes]))
    margin = _margin_voxels(img.geometry, manifest.crop_margin_mm)
    bundle = crop(lbl, abox, margin)
    acrop_lbl = LabelVolume(bundle.geometry, np.where(
        np.isin(bundle.data, keep), bundle.data, 0))
    start = (_box_start(_world_box(target_geometry, vert.box),
                        _world_box(img.geometry, abox))
             if manifest.mode == "single" else None)
    return (tcrop, crop(img, abox, margin), acrop_lbl, start,
            manifest.registration)


def _register_one(tcrop, acrop_img, acrop_lbl, start, cfg):
    """Register an atlas crop onto a target crop (affine from `start`,
    then FFD) and warp both atlas crops there: (transform, warped image,
    warped labels, registration seconds). It reads only its arguments."""
    t0 = time.perf_counter()
    affine = register_affine(tcrop, acrop_img, cfg, start=start)
    result = register_ffd(tcrop, acrop_img, affine, cfg)
    elapsed = time.perf_counter() - t0
    warped_img, warped_lbl = warp_atlas(acrop_img, acrop_lbl,
                                        result.transform, tcrop.geometry)
    return result.transform, warped_img, warped_lbl, elapsed


def bundle_ids_center(ids):
    """Bundle vertebra whose warped label is kept: the middle one.

    The atlas crop spans the whole bundle and registration starts from
    intensity-centroid alignment, so the bundle's middle vertebra is the
    one that lands on the target crop. At a column end the target
    vertebra is not the middle one, and its atlas label would sit beside
    the target crop: on the 3-vertebra test phantom in bundle3 mode,
    keeping it gives Dice 0 on V1 and V3, against 98% for the middle."""
    return ids[len(ids) // 2] if len(ids) == 3 else ids[0]


@contextmanager
def _stage(stage, vert, atlas=None):
    """Re-raise an exception of the block as RuntimeError("[stage]
    vertebra <id>[, atlas <case id>]: <message>")."""
    try:
        yield
    except Exception as exc:
        pair = f", atlas {atlas.case_id}" if atlas is not None else ""
        raise RuntimeError(f"[{stage}] vertebra {vert.vertebra_id}{pair}: "
                           f"{exc}") from exc


def run_pipeline(manifest):
    """Execute the full pipeline described by a manifest.

    Plan: every (vertebra, atlas) pair, vertebra-major in manifest order,
    and its pair job. A vertebra without an eligible atlas, or a pair
    without its bundle labels, fails here, before any registration.
    Register: at one worker each job runs in this thread when its result
    is read; with more, a pool of `manifest.workers` threads runs them.
    Fold: results are read in plan order, and each vertebra is fused and
    refined (its mask: the band crop `refine_labels` returns) as soon as
    its last pair is in. So outputs do not depend on the worker count."""
    target_img = nifti.read_volume(manifest.target_image_path, "scalar")
    target_lbl = None
    if manifest.target_labels_path:
        target_lbl = nifti.read_volume(manifest.target_labels_path, "label")
        if not target_lbl.geometry.same_grid(target_img.geometry):
            raise ValueError(f"target labels grid {target_lbl.geometry} is "
                             f"not the target image grid "
                             f"{target_img.geometry}")

    atlas_cache = {a.case_id: _read_atlas(a) for a in manifest.atlases}

    margin = _margin_voxels(target_img.geometry, manifest.crop_margin_mm)
    plan = []  # (vertebra, target crop, [(atlas entry, bundle ids)])
    jobs = []  # one per pair, in plan order
    for vert in manifest.vertebrae:
        eligible = _eligible_atlases(manifest, vert)
        if not eligible:
            raise RuntimeError(
                f"[registration] no eligible atlas for vertebra "
                f"{vert.vertebra_id}")
        tcrop = crop(target_img, vert.box, margin)
        for entry, ids in eligible:
            with _stage("registration", vert, entry):
                jobs.append(_pair_job(target_img.geometry, vert, tcrop,
                                      entry, ids, manifest, atlas_cache))
        plan.append((vert, tcrop, eligible))
    del atlas_cache  # the jobs hold the crops they need

    timing = []
    per_vertebra = {}
    masks = []
    pool = (ThreadPoolExecutor(max_workers=manifest.workers)
            if manifest.workers > 1 else None)
    try:
        results = (pool.map(_register_one, *zip(*jobs)) if pool is not None
                   else itertools.starmap(_register_one, jobs))
        for vert, tcrop, eligible in plan:
            registered, transforms = [], []
            for entry, ids in eligible:
                with _stage("registration", vert, entry):
                    transform, img, lbl, seconds = next(results)
                center = (lbl.data
                          == entry.vertebra_labels[bundle_ids_center(ids)])
                registered.append(RegisteredAtlas(img, LabelVolume(
                    tcrop.geometry, np.where(center, vert.label, 0)),
                    entry.case_id))
                transforms.append((entry.case_id, transform))
                timing.append((vert.vertebra_id, entry.case_id, seconds))
            with _stage("fusion", vert):
                fused = fuse(tcrop, registered, manifest.fusion)
            with _stage("postprocess", vert):
                refined = refine_labels(fused.consensus, tcrop,
                                        manifest.postprocess).get(vert.label)
                if refined is None or not refined.data.any():
                    raise ValueError("empty mask after cleanup and level set")
            per_vertebra[vert.vertebra_id] = VertebraResult(
                vert.vertebra_id, transforms, refined)
            masks.append((vert.label, refined))
    finally:
        # After a failure, drop the pairs that have not started instead
        # of registering the rest of the run. On success none are left.
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    final = separate_labels(masks, target_img, manifest.collision)

    rows = summaries = None
    if target_lbl is not None:
        rows = evaluate_labels(
            target_lbl, final, target_img,
            [(v.vertebra_id, v.label, v.tags) for v in manifest.vertebrae],
            manifest.target_case_id)
        summaries = report(rows, manifest.group_by)

    return PipelineRun(final_labels=final, per_vertebra=per_vertebra,
                       rows=rows, summaries=summaries, timing=timing)
