"""Span tracing for the benchmark, applied from outside the package.

`Tracer.install()` replaces each listed public function of `acvseg` with a
wrapper that records a span (name, duration, thread) around the call.  The
wrapper is bound under every name that refers to the original function in
any loaded `acvseg` module, so a caller that imported it with
`from .data import read_features` is traced as well.  `uninstall()` puts
the originals back.

Spans are aggregated in memory as they close: per span name the number of
calls, the summed duration and the summed self time (duration minus the time
covered by child spans on the same thread).  Root spans that close on a
thread other than the one that installed the tracer add to the worker busy
time, which is how pool work is told apart from stage wall time.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import threading
import time
from collections import defaultdict

# (module, function) pairs wrapped in a traced run, by layer
TRACED = {
    "data": ("read_features", "write_features", "read_labels", "write_labels",
             "read_checkpoint", "write_checkpoint", "synth_generate"),
    "scorer": ("forward", "backward", "mil_loss_and_grads", "sgd_step",
               "cross_entropy_loss", "diversity_loss"),
    "acv": ("compute_saliency", "saliency_backward", "select_anchors",
            "constrained_viterbi"),
    "dp": ("best_cuts",),
    "hmm": ("update_refined", "log_frame_likelihood"),
    "training": ("train", "pseudo_ground_truth", "loss_and_grads", "load_corpus"),
    "infer": ("sample_sequences", "segment_video", "align_video"),
    "metrics": ("corpus_mof", "iod"),
}

FILE_FUNCTIONS = ("read_features", "write_features", "read_labels", "write_labels",
                  "read_checkpoint", "write_checkpoint")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _file_mb(args, kwargs, result, exc):
    path = args[0]
    if exc is None and os.path.exists(path):
        return {"mb": os.path.getsize(path) / 1e6}
    return {}


def _forward_frames(args, kwargs, result, exc):
    x = getattr(args[1], "values", args[1])
    return {"frames": len(x)}


def _anchors_halved(args, kwargs, result, exc):
    """1 if some returned interval is narrower than the first-try radius
    floor(alpha * lambda / 2) allows, i.e. selection had to halve alpha."""
    if exc is not None:
        return {}
    saliency = args[0]
    actions = [int(c) for c in args[1]]
    lambdas = args[2]
    alpha = _arg(args, kwargs, 3, "alpha", 0.6)
    t_total = len(saliency[0])
    halved = 0
    for anchor in result:
        r = int(math.floor(alpha * float(lambdas[actions.index(anchor.action)]) / 2.0))
        if (anchor.start, anchor.end) != (max(0, anchor.center - r),
                                          min(t_total - 1, anchor.center + r)):
            halved = 1
    return {"halved": halved}


def _best_cuts_cells(args, kwargs, result, exc):
    """Cells of the stage-to-stage max-plus grids: sum |d_k| * |d_k+1|."""
    widths = [hi - lo + 1 for lo, hi in args[2]]
    return {"grid_cells": sum(a * b for a, b in zip(widths, widths[1:]))}


def _sampled(args, kwargs, result, exc):
    if exc is not None:
        return {"failed": 1}
    merged = {tuple(c for i, c in enumerate(s.actions) if i == 0 or c != s.actions[i - 1])
              for s in result}
    return {"candidates": len(result), "distinct": len(merged)}


def _decode_failed(args, kwargs, result, exc):
    return {"failed": int(exc is not None)}


EXTRAS = {
    "scorer.forward": _forward_frames,
    "acv.select_anchors": _anchors_halved,
    "dp.best_cuts": _best_cuts_cells,
    "infer.sample_sequences": _sampled,
    "infer.segment_video": _decode_failed,
    "infer.align_video": _decode_failed,
}
EXTRAS.update({"data." + name: _file_mb for name in FILE_FUNCTIONS})


class Tracer:
    """Wraps the functions in TRACED and aggregates their spans."""

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self.worker_busy_s = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched = []  # (module, attribute, original)
        self._main = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # best_cuts is split by caller: training (via acv) or decoding (via infer)
            key = name
            if name == "dp.best_cuts":
                caller = next((f[0] for f in reversed(stack) if not f[0].startswith("dp.")), "")
                key = name + (".decode" if caller.startswith("infer.") else ".train")
            frame = [key, 0.0]  # name, time covered by children
            stack.append(frame)
            result, exc = None, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                dur = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                counters = extra(args, kwargs, result, exc) if extra else {}
                self._record(key, name, dur, dur - frame[1], counters, exc is not None,
                               root=not stack)

        return wrapper

    def _record(self, key, name, dur, self_s, counters, failed, root):
        with self._lock:
            for k in {key, name}:
                s = self.stats[k]
                s["calls"] += 1
                s["total_s"] += dur
                s["self_s"] += self_s
                if failed:
                    s["failed_s"] += dur
                for c, v in counters.items():
                    s[c] += v
            if root and threading.get_ident() != self._main:
                self.worker_busy_s += dur

    def install(self):
        """Wrap every listed function under every name bound to it."""
        self._main = threading.get_ident()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "acvseg" or n.startswith("acvseg."))]
        for layer, names in TRACED.items():
            module = sys.modules["acvseg." + layer]
            for fname in names:
                original = getattr(module, fname)
                wrapped = self._wrap("%s.%s" % (layer, fname), original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def get(self, name, counter):
        return float(self.stats.get(name, {}).get(counter, 0.0))
