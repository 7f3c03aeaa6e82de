"""Span recorder that wraps liodom's layer entry points from outside.

Nothing here is imported by liodom. `Tracer.installed()` replaces the public
functions and methods of each layer module with timing wrappers, in every
liodom namespace that holds a reference to them (for example
`liodom.registration.match_nearest` as well as `liodom.matching.match_nearest`),
and restores the originals when the block exits. Spans stay in memory until
`write_jsonl` is called.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

# Layer name -> modules whose public functions and methods are spanned.
# `geometry` is too fine-grained to span and `synth` only generates inputs.
LAYERS = {
    "dataset_io": ("liodom.dataset_io",),
    "preprocess": ("liodom.preprocess",),
    "range_image": ("liodom.range_image",),
    "matching": ("liodom.matching",),
    "registration": ("liodom.registration",),
    "nn": ("liodom.nn.core", "liodom.nn.layers", "liodom.nn.conv",
           "liodom.nn.optim", "liodom.nn.checkpoint"),
    "pipeline": ("liodom.pipeline",),
    "evaluation": ("liodom.evaluation",),
}


# Counters read from public arguments and return values, keyed by span name.
def _observe_voxel(c, args, kwargs, out):
    c["preprocess.clouds"] += 1
    c["preprocess.voxel_passes"] += out.passes
    c["preprocess.voxel_target_met"] += bool(out.met_target)


def _observe_query(c, args, kwargs, out):
    points = args[1] if len(args) > 1 else kwargs["points"]     # KdIndex.query(self, points)
    c["matching.query.points"] += len(points)


def _observe_match(c, args, kwargs, out):
    c["matching.kept"] += len(out)


def _observe_register(c, args, kwargs, out):
    _, diag = out
    c["registration.calls"] += 1
    c["registration.outer_iterations"] += diag.outer_iterations
    c["registration.converged"] += bool(diag.converged)


def _observe_epoch(c, args, kwargs, out):
    c["pipeline.pairs_skipped"] += out.pairs_skipped


def _observe_eval(c, args, kwargs, out):
    c["evaluation.segments"] += out.total_segments


OBSERVERS = {
    "preprocess.adaptive_voxel_downsample": _observe_voxel,
    "matching.KdIndex.query": _observe_query,
    "matching.match_nearest": _observe_match,
    "registration.register": _observe_register,
    "pipeline.train_epoch": _observe_epoch,
    "evaluation.kitti_relative_errors": _observe_eval,
}


class Tracer:
    """In-memory spans (name, start, end, parent, run id) and counters."""

    def __init__(self):
        self.spans = []          # [run, name, start, end, parent]
        self.counters = defaultdict(lambda: defaultdict(float))   # run -> name -> value
        self.run_id = None
        self._stack = []
        self._origin = time.perf_counter()

    def wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            sid = len(spans)
            span = [self.run_id, name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(sid)
            span[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(self.counters[self.run_id], args, kwargs, out)
            return out

        spanned.__wrapped_by_tracer__ = True
        return spanned

    def _targets(self):
        """(owner, attribute, span name, original) for every patch site."""
        functions = {}           # id -> (span name, function)
        sites = []
        for layer, module_names in LAYERS.items():
            for module_name in module_names:
                module = importlib.import_module(module_name)
                for attr, obj in vars(module).items():
                    if attr.startswith("_") or getattr(obj, "__module__", None) != module_name:
                        continue
                    if inspect.isfunction(obj):
                        functions[id(obj)] = (f"{layer}.{attr}", obj)
                    elif inspect.isclass(obj):
                        for meth, fn in vars(obj).items():
                            if not meth.startswith("_") and inspect.isfunction(fn):
                                sites.append((obj, meth, f"{layer}.{attr}.{meth}", fn))
        # A function is patched in every liodom namespace that re-imports it.
        for module in _liodom_modules():
            for attr, obj in vars(module).items():
                if id(obj) in functions and functions[id(obj)][1] is obj:
                    sites.append((module, attr) + functions[id(obj)])
        return sites

    @contextlib.contextmanager
    def installed(self, run_id):
        """Wrap every layer entry point for the duration of the block."""
        self.run_id = run_id
        sites = self._targets()
        wrapped = {}
        try:
            for owner, attr, name, fn in sites:
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self.wrap(name, fn)
                setattr(owner, attr, wrapped[id(fn)])
            yield self
        finally:
            for owner, attr, _, fn in sites:
                setattr(owner, attr, fn)
            self.run_id = None

    # -- reduction ----------------------------------------------------------

    def busy_ms(self, run_id):
        """Per span name: [total ms, self ms, calls] over one run.

        Self time is a span's duration minus that of its direct children,
        which nest inside it because the program is single-threaded.
        """
        child_time = defaultdict(float)
        for run, _, start, end, parent in self.spans:
            if parent >= 0 and run == run_id:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for sid, (run, name, start, end, _) in enumerate(self.spans):
            if run != run_id:
                continue
            acc = out[name]
            acc[0] += 1e3 * (end - start)
            acc[1] += 1e3 * (end - start - child_time[sid])
            acc[2] += 1
        return out

    def write_jsonl(self, path):
        with open(path, "w") as f:
            for sid, (run, name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({
                    "run": run, "id": sid, "parent": parent, "name": name,
                    "start": start - self._origin, "end": end - self._origin,
                }) + "\n")


def _liodom_modules():
    return [m for n, m in list(sys.modules.items())
            if (n == "liodom" or n.startswith("liodom.")) and m is not None]


def any_installed() -> bool:
    """True if a tracer wrapper is still reachable from any liodom namespace."""
    for module in _liodom_modules():
        for obj in vars(module).values():
            if getattr(obj, "__wrapped_by_tracer__", False):
                return True
            if inspect.isclass(obj) and any(
                    getattr(v, "__wrapped_by_tracer__", False) for v in vars(obj).values()):
                return True
    return False
