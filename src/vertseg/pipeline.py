"""Manifest-driven per-vertebra pipeline: crop, register every eligible
atlas, fuse labels, clean up and refine each vertebra, resolve collisions
across vertebrae, and (optionally) evaluate against ground truth.

Every (vertebra, atlas) registration of a run goes through one thread
pool, and each vertebra is fused as soon as its own pairs are done (see
`run_pipeline`).
"""

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import nifti
from .checks import integer, real
from .fusion import FusionConfig, RegisteredAtlas, fuse
from .metrics import evaluate_labels, report
from .postprocess import (LEVELSET_ITERS, LEVELSET_STEP, MIN_ISLAND_VOXELS,
                          CollisionPolicy, refine_labels, separate_labels)
from .registration import (RegistrationConfig, register_affine, register_ffd,
                           warp_atlas)
from .similarity import IntensityWindow
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
    min_island_voxels: int = MIN_ISLAND_VOXELS
    levelset_iters: int = LEVELSET_ITERS
    levelset_step: float = LEVELSET_STEP
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
        for name, minimum in (("workers", 1), ("min_island_voxels", 0),
                              ("levelset_iters", 0)):
            setattr(self, name, integer(name, getattr(self, name), minimum))
        for name in ("crop_margin_mm", "levelset_step"):
            setattr(self, name, real(name, getattr(self, name)))
        if self.crop_margin_mm < 0:
            raise ValueError(
                f"crop_margin_mm must be >= 0, got {self.crop_margin_mm}")
        if self.levelset_step <= 0:
            raise ValueError(
                f"levelset_step must be > 0, got {self.levelset_step}")
        for v in self.vertebrae:
            if self.group_by is not None and self.group_by not in v.tags:
                raise ValueError(f"group_by tag {self.group_by!r} missing "
                                 f"on vertebra {v.vertebra_id}")


# optional manifest keys, each an AtlasManifest field of the same name;
# the dataclasses check the values
_TOP_LEVEL_KEYS = {"mode", "leave_one_out", "crop_margin_mm", "group_by",
                   "workers", "output_dir"}
_DOC_KEYS = {"target", "atlases", "registration", "fusion", "collision",
             "postprocess", *_TOP_LEVEL_KEYS}
_POSTPROCESS_KEYS = {"min_island_voxels", "levelset_iters", "levelset_step"}


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
    reg, fusion, collision, post = (
        _expect(doc.get(key, {}), dict, key)
        for key in ("registration", "fusion", "collision", "postprocess"))
    for where, section, known in (("top-level", doc, _DOC_KEYS),
                                  ("postprocess", post, _POSTPROCESS_KEYS)):
        for key in section:
            if key not in known:
                raise ValueError(f"unknown {where} key {key!r}")

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
        atlases.append(AtlasEntry(
            case_id=case_id,
            image_path=resolve(_required(a, "image", where)),
            labels_path=resolve(_required(a, "labels", where)),
            vertebra_labels=labels,
            order=list(_expect(a.get("order", list(labels)), list,
                               f"{where} order"))))

    reg_kwargs = dict(reg)
    if "window" in reg_kwargs:
        reg_kwargs["window"] = IntensityWindow(**_expect(
            reg_kwargs["window"], dict, "registration window"))

    # only the keys the document has: every default lives on AtlasManifest
    optional = {key: doc[key] for key in _TOP_LEVEL_KEYS if key in doc}
    optional.update(post)

    return AtlasManifest(
        target_image_path=resolve(_required(tgt, "image", "target")),
        target_case_id=_new_id(tgt.get("case_id", "target"),
                               "target case_id", {}),
        vertebrae=vertebrae,
        atlases=atlases,
        target_labels_path=(resolve(tgt["labels"])
                            if tgt.get("labels") else None),
        registration=RegistrationConfig(**reg_kwargs),
        fusion=FusionConfig(**fusion),
        collision=CollisionPolicy(**collision),
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


def _register_one(tcrop, target_box, atlas_entry, bundle_ids,
                  center_label_value, manifest, atlas_cache):
    """Register one atlas onto a target crop and warp its labels there.

    The atlas is cropped to the union of its bundle labels' boxes
    (`label_boxes`, computed once per atlas), grown by the crop margin,
    and only the crop is searched for the bundle's labels: the same
    crops as masking the whole atlas first. In `single` mode the affine
    starts from the map of the target vertebra's world box target_box
    (from the manifest) onto the atlas vertebra's (`_box_start`); the
    bundle modes keep `register_affine`'s centroid start, since the
    target crop holds one vertebra and the atlas crop three."""
    img, lbl, boxes = atlas_cache[atlas_entry.case_id]
    keep = [atlas_entry.vertebra_labels[v] for v in bundle_ids]
    abox = BoundingBox.from_slices(
        union_box([boxes[lv] for lv in keep if lv in boxes]))
    margin = _margin_voxels(img.geometry, manifest.crop_margin_mm)
    acrop_img = crop(img, abox, margin)
    bundle = crop(lbl, abox, margin)
    acrop_lbl = LabelVolume(bundle.geometry, np.where(
        np.isin(bundle.data, keep), bundle.data, 0))
    start = (_box_start(target_box, _world_box(img.geometry, abox))
             if manifest.mode == "single" else None)

    t0 = time.perf_counter()
    affine = register_affine(tcrop, acrop_img, manifest.registration,
                             start=start)
    result = register_ffd(tcrop, acrop_img, affine, manifest.registration)
    elapsed = time.perf_counter() - t0

    warped_img, warped_lbl = warp_atlas(acrop_img, acrop_lbl,
                                        result.transform, tcrop.geometry)
    center = (warped_lbl.data
              == atlas_entry.vertebra_labels[bundle_ids_center(bundle_ids)])
    center_lbl = LabelVolume(tcrop.geometry,
                             np.where(center, center_label_value, 0))
    registered = RegisteredAtlas(warped_img, center_lbl, atlas_entry.case_id)
    return registered, result.transform, elapsed


def bundle_ids_center(ids):
    """Bundle vertebra whose warped label is kept: the middle one.

    The atlas crop spans the whole bundle and registration starts from
    intensity-centroid alignment, so the bundle's middle vertebra is the
    one that lands on the target crop. At a column end the target
    vertebra is not the middle one, and its atlas label would sit beside
    the target crop: on the 3-vertebra test phantom in bundle3 mode,
    keeping it gives Dice 0 on V1 and V3, against 98% for the middle."""
    return ids[len(ids) // 2] if len(ids) == 3 else ids[0]


def _fold_vertebra(vert, tcrop, eligible, done, manifest):
    """Fuse and refine one vertebra from its registered pairs; its
    refined mask is the band crop `refine_labels` returns."""
    transforms = [(entry.case_id, r[1])
                  for (entry, _ids), r in zip(eligible, done)]
    try:
        fused = fuse(tcrop, [r[0] for r in done], manifest.fusion)
    except Exception as exc:
        raise RuntimeError(f"[fusion] vertebra {vert.vertebra_id}: {exc}")

    try:
        refined = refine_labels(
            fused.consensus, tcrop, manifest.min_island_voxels,
            iters=manifest.levelset_iters,
            step=manifest.levelset_step).get(vert.label)
        if refined is None or not refined.data.any():
            raise ValueError("empty mask after cleanup and level set")
    except Exception as exc:
        raise RuntimeError(
            f"[postprocess] vertebra {vert.vertebra_id}: {exc}")

    return VertebraResult(vert.vertebra_id, transforms, refined)


def run_pipeline(manifest):
    """Execute the full pipeline described by a manifest.

    Plan: every (vertebra, atlas) pair, vertebra-major in manifest order.
    A vertebra without an eligible atlas fails here, before any
    registration. Pool: one executor of `manifest.workers` threads
    registers the pairs. Fold: results come back in plan order, and each
    vertebra is fused and refined as soon as its last pair is in, while
    the pool registers the next vertebra's pairs. The plan fixes the
    order of every result, so outputs do not depend on the worker
    count."""
    target_img = nifti.read_volume(manifest.target_image_path, "scalar")
    target_lbl = None
    if manifest.target_labels_path:
        target_lbl = nifti.read_volume(manifest.target_labels_path, "label")
        if not target_lbl.geometry.same_grid(target_img.geometry):
            raise ValueError(f"target labels grid {target_lbl.geometry} is "
                             f"not the target image grid "
                             f"{target_img.geometry}")

    atlas_cache = {}  # case id -> (image, labels, label_boxes of labels)
    for a in manifest.atlases:
        if a.case_id not in atlas_cache:
            image = nifti.read_volume(a.image_path, "scalar")
            labels = nifti.read_volume(a.labels_path, "label")
            atlas_cache[a.case_id] = (image, labels,
                                      label_boxes(labels.data))

    margin = _margin_voxels(target_img.geometry, manifest.crop_margin_mm)
    plan = []  # (vertebra, target crop, [(atlas entry, bundle ids)])
    for vert in manifest.vertebrae:
        eligible = _eligible_atlases(manifest, vert)
        if not eligible:
            raise RuntimeError(
                f"[registration] no eligible atlas for vertebra "
                f"{vert.vertebra_id}")
        plan.append((vert, crop(target_img, vert.box, margin), eligible))
    pairs = [(vert, tcrop, entry, ids)
             for vert, tcrop, eligible in plan for entry, ids in eligible]

    def work(pair):
        vert, tcrop, atlas_entry, ids = pair
        try:
            return _register_one(
                tcrop, _world_box(target_img.geometry, vert.box),
                atlas_entry, ids, vert.label, manifest, atlas_cache)
        except Exception as exc:
            raise RuntimeError(
                f"[registration] vertebra {vert.vertebra_id}, atlas "
                f"{atlas_entry.case_id}: {exc}") from exc

    timing = []
    per_vertebra = {}
    masks = []
    pool = ThreadPoolExecutor(max_workers=manifest.workers)
    try:
        results = pool.map(work, pairs)
        for vert, tcrop, eligible in plan:
            done = [next(results) for _ in eligible]
            timing.extend((vert.vertebra_id, entry.case_id, r[2])
                          for (entry, _ids), r in zip(eligible, done))
            result = _fold_vertebra(vert, tcrop, eligible, done, manifest)
            per_vertebra[vert.vertebra_id] = result
            masks.append((vert.label, result.refined_mask))
    finally:
        # After a failure, drop the pairs that have not started instead
        # of registering the rest of the run. On success none are left.
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
