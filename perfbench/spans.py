"""In-memory call spans for the benchmark's traced run.

`Tracer.install()` replaces each traced function or method of the
`vertseg` package at every module attribute that binds it (so
`vertseg.pipeline.register_ffd` and `vertseg.registration.register_ffd`
both record), and `uninstall()` puts the originals back. No file under
`src/` changes.

A span is one call: name, start, end (perf_counter seconds), parent span
id, thread id, thread CPU seconds and a work count (points, voxels,
bytes, accepted steps; 0 where the layer has none). Each thread keeps its
own parent stack; a span opened on a thread with an empty stack (a pool
worker) takes as parent the innermost span open on the thread that
installed the tracer, which is the call that fanned the work out. Spans
are recorded in this process only; a function that no longer exists is
skipped, and its metrics read 0.
"""

import functools
import importlib
import itertools
import json
import os
import pkgutil
import statistics
import threading
import time

import numpy as np

FIELDS = ("id", "name", "start", "end", "parent", "thread", "cpu_s",
          "count")


def _points(args, kwargs, result):
    # ffd_displace(ffd, x) and SplineImage.sample(self, x): x is (..., 3)
    return int(np.asarray(args[1]).size // 3)


def _fuse_voxels(args, kwargs, result):
    target, atlases = args[0], args[1]
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    radius = cfg.search_radius if cfg is not None else 0
    return int(np.prod(target.geometry.dims)) * len(atlases) \
        * (2 * radius + 1) ** 3


def _levelset_voxels(args, kwargs, result):
    iters = args[2] if len(args) > 2 else kwargs.get("iters", 10)
    return int(np.asarray(getattr(result, "data", result)).size) * int(iters)


def _rows(args, kwargs, result):
    return int(len(result))


def _accepted_steps(args, kwargs, result):
    return sum(1 for it, *_ in result.per_level_trace if it > 0)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# span name -> (vertseg module, attribute or "Class.method", work count)
TRACED = {
    "pipeline.run": ("pipeline", "run_pipeline", None),
    "pipeline.pair": ("pipeline", "_register_one", None),
    "registration.affine": ("registration", "register_affine", None),
    "registration.ffd": ("registration", "register_ffd", _accepted_steps),
    "registration.warp": ("registration", "warp_atlas", None),
    "similarity.value": ("similarity", "NmiObjective.value", None),
    "similarity.grad": ("similarity",
                        "NmiObjective.value_and_point_gradient", None),
    "similarity.ffd_grad": ("similarity",
                            "NmiObjective.value_and_ffd_gradient", None),
    "similarity.sample": ("similarity", "SplineImage.sample", _points),
    "transform.ffd_displace": ("transform", "ffd_displace", _points),
    "transform.bending": ("transform", "bending_energy", None),
    "bspline.support_weights": ("bspline", "support_weights", None),
    "volume.downsample": ("volume", "downsample", None),
    "volume.resample": ("volume", "resample", None),
    "volume.crop": ("volume", "crop", None),
    "fusion.fuse": ("fusion", "fuse", _fuse_voxels),
    "postprocess.cleanup": ("postprocess", "morph_cleanup", None),
    "postprocess.levelset": ("postprocess", "levelset_refine",
                             _levelset_voxels),
    "postprocess.collisions": ("postprocess", "resolve_collisions", None),
    "metrics.dice": ("metrics", "dice", None),
    "metrics.asd": ("metrics", "asd", None),
    "metrics.surface_voxels": ("metrics", "surface_voxels", _rows),
    "nifti.read": ("nifti", "read_volume", _file_bytes),
    "nifti.write": ("nifti", "write_volume", _file_bytes),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home = []
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (tracer._home[-1:] or [0])[0]
            sid = next(tracer._ids)
            stack.append(sid)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            done, result = False, None
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                stack.pop()
                n = count(args, kwargs, result) if done and count else 0
                tracer.spans.append((sid, name, t0, t1, parent,
                                     threading.get_ident(), c1 - c0, n))
        return traced

    def install(self):
        """Wrap every binding of every traced function that exists;
        return self."""
        import vertseg
        self._home = self._stack()
        mods = {m.name: importlib.import_module(f"vertseg.{m.name}")
                for m in pkgutil.iter_modules(vertseg.__path__)}
        for name, (modname, attr, count) in TRACED.items():
            owner = mods.get(modname)
            if owner is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is not None and meth in vars(cls):
                    self._patch(cls, meth,
                                self._wrap(name, vars(cls)[meth], count))
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            wrapped = self._wrap(name, fn, count)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, key, wrapped)
        return self

    def _patch(self, owner, key, new):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, new)

    def uninstall(self):
        for owner, key, old in reversed(self._patches):
            setattr(owner, key, old)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path):
        """Write the recorded spans as JSON (one list per span)."""
        with open(path, "w") as f:
            json.dump({"fields": FIELDS, "spans": self.spans}, f)


def _union_length(intervals, lo, hi):
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Span id -> duration minus the part of it its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append((s[2], s[3]))
    return {s[0]: (s[3] - s[2]) - _union_length(children.get(s[0], ()),
                                                s[2], s[3])
            for s in spans}


def layer_metrics(spans):
    """Per-layer metrics of one traced unit: name -> (value, unit)."""
    by = {name: [] for name in TRACED}
    for s in spans:
        by[s[1]].append(s)
    own = self_times(spans)
    parent_of = {s[0]: s[4] for s in spans}
    ffd_ids = {s[0] for s in by["registration.ffd"]}

    def wall(name):
        return sum(s[3] - s[2] for s in by[name])

    def calls(name):
        return len(by[name])

    def work(name):
        return sum(s[7] for s in by[name])

    def under_ffd(sid):
        while sid:
            sid = parent_of.get(sid, 0)
            if sid in ffd_ids:
                return True
        return False

    pairs = by["pipeline.pair"]
    pair_wall = [s[3] - s[2] for s in pairs]
    reg = by["registration.affine"] + by["registration.ffd"] \
        + by["registration.warp"]
    reg_wall = sum(s[3] - s[2] for s in reg)
    steps = work("registration.ffd")
    ffd_values = sum(1 for s in by["similarity.value"] if under_ffd(s[0]))
    values = {
        "pipeline.self_s": sum(own[s[0]] for s in by["pipeline.run"]),
        "pipeline.pair_s_p50": statistics.median(pair_wall) if pairs else 0.0,
        "pipeline.pair_s_max": max(pair_wall) if pairs else 0.0,
        "pipeline.pair_cpu_s": (statistics.median(s[6] for s in pairs)
                                if pairs else 0.0),
        "registration.affine_s": wall("registration.affine"),
        "registration.ffd_s": wall("registration.ffd"),
        "registration.warp_s": wall("registration.warp"),
        "registration.wait_frac": (1.0 - sum(s[6] for s in reg) / reg_wall
                                   if reg_wall > 0 else 0.0),
        "registration.ffd_steps": steps,
        "registration.ffd_accept_ratio": (steps / ffd_values
                                          if ffd_values else 0.0),
        "similarity.value_calls": calls("similarity.value"),
        "similarity.value_s": wall("similarity.value"),
        "similarity.grad_calls": calls("similarity.grad"),
        "similarity.grad_s": wall("similarity.grad"),
        "similarity.ffd_grad_self_s": sum(own[s[0]]
                                          for s in by["similarity.ffd_grad"]),
        "similarity.sample_s": wall("similarity.sample"),
        "similarity.points": work("similarity.sample"),
        "transform.ffd_displace_s": wall("transform.ffd_displace"),
        "transform.ffd_displace_points": work("transform.ffd_displace"),
        "transform.bending_s": wall("transform.bending"),
        "transform.bending_calls": calls("transform.bending"),
        "bspline.support_weights_calls": calls("bspline.support_weights"),
        "bspline.support_weights_s": wall("bspline.support_weights"),
        "volume.downsample_s": wall("volume.downsample"),
        "volume.resample_s": wall("volume.resample"),
        "volume.crop_s": wall("volume.crop"),
        "fusion.fuse_s": wall("fusion.fuse"),
        "fusion.atlas_voxels": work("fusion.fuse"),
        "postprocess.cleanup_s": wall("postprocess.cleanup"),
        "postprocess.levelset_s": wall("postprocess.levelset"),
        "postprocess.levelset_voxels": work("postprocess.levelset"),
        "postprocess.collisions_s": wall("postprocess.collisions"),
        "metrics.dice_s": wall("metrics.dice"),
        "metrics.asd_s": wall("metrics.asd"),
        "metrics.surface_voxels": work("metrics.surface_voxels"),
        "nifti.read_s": wall("nifti.read"),
        "nifti.read_bytes": work("nifti.read"),
        "nifti.write_s": wall("nifti.write"),
        "nifti.write_bytes": work("nifti.write"),
    }
    return {k: (v, _unit(k)) for k, v in values.items()}


def _unit(metric):
    if metric.endswith("_s") or "_s_" in metric:
        return "s"
    if metric.endswith(("_frac", "_ratio")):
        return "ratio"
    return "B" if metric.endswith("_bytes") else "count"
