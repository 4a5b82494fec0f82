"""acvseg benchmark: the whole pipeline on a named workload, timed end to end
or traced per module.

    python3 perfbench/run.py --workload long --seed 1 --seconds 55 --trace 0

Run from the repository root; `acvseg` is imported from `src/` there.  The
workloads are defined in `pipeline.py`; BENCHMARK.json lists the timed ones.
BLAS runs single-threaded.  With `--trace 0` the run sets up
the corpora several times (`setup_s` is their median), runs one warm-up pass
of the pipeline (pretrain, train, segment, align, eval), then repeats it
while another pass fits in `--seconds` counted from the first set-up, at
least once, and reports the median of each end-to-end metric over the
passes after the warm-up.  Every pass must produce the same predictions.

With `--trace 1` the run makes two untraced passes, then sets up and runs
again with the spans of `spans.py` installed, and reports per-module
counters, the tracing overhead, and a direct `dp.best_cuts` scaling probe.
Traced and untraced passes must agree on quality and predictions, and every
span the workload should reach must have fired.

Before the result, one `run_record` JSON line gives the machine and library
versions.  The last stdout line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}, where
attempted/failed count `segment_video`/`align_video` calls.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END = {
    "setup_s": "s", "total_s": "s", "mil_steps_per_s": "1/s", "train_iters_per_s": "1/s",
    "segment_frames_per_s": "1/s", "align_frames_per_s": "1/s", "seg_mof": "fraction",
    "align_iod": "fraction", "peak_rss_mb": "MB",
}
PROBE_T = (500, 1000, 2000, 4000)
CLI_STAGES = ("synth", "pretrain", "train", "segment", "align", "eval")
# spans a pipeline never reaches: the api pipeline writes no checkpoints,
# and `acvseg eval` reports per-video Mof, not corpus_mof
UNREACHED = {"api": {"data.read_checkpoint", "data.write_checkpoint"},
             "cli": {"metrics.corpus_mof"}}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    from spans import FILE_FUNCTIONS, TRACED
    units = {}
    for layer, names in TRACED.items():
        for fn in names:
            base = "%s.%s" % (layer, fn)
            units[base + ".calls"] = "count"
            units[base + ".self_s"] = "s"
            if fn in FILE_FUNCTIONS:
                units[base + ".mb"] = "MB"
    units.update({
        "scorer.forward.frames": "count", "scorer.forward.us_per_frame": "us",
        "acv.select_anchors.halved_share": "fraction",
        "infer.sample_sequences.candidates": "count",
        "infer.sample_sequences.distinct_share": "fraction",
        "infer.sample_sequences.failed": "count", "infer.sample_sequences.failed_s": "s",
        "infer.segment_video.failed": "count", "infer.align_video.failed": "count",
    })
    for part in ("train", "decode"):
        base = "dp.best_cuts." + part
        units.update({base + ".calls": "count", base + ".self_s": "s",
                      base + ".grid_cells": "count", base + ".ns_per_cell": "ns"})
    units.update({"dp.best_cuts.T%d_s" % t: "s" for t in PROBE_T})
    units["dp.best_cuts.scaling_exponent"] = "exponent"
    units.update({"cli.%s.s" % s: "s" for s in CLI_STAGES})
    units["cli.pool.busy_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def run_record(args, w):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() if proc.returncode == 0 else None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_sha": sha, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": "%s %s" % (blas["name"], blas["version"]),
            "blas_threads": blas_threads(numpy),
            "acvseg_threads": w.threads or os.environ.get("ACVSEG_THREADS")}


def blas_threads(numpy):
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes
    import glob
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def pass_metrics(w, result, pipeline):
    """End-to-end metrics of one pass (setup_s and peak_rss_mb excluded)."""
    st = result.stages
    n_train = len(result.training_sets)
    frames = {task: sum(v.features.num_frames for v, s in zip(result.test_videos, segs)
                        if s is not None)
              for task, segs in (("segment", result.segment), ("align", result.align))}
    seg_mof, align_iod = pipeline.score(result.test_videos, result.segment, result.align)
    return {
        "total_s": sum(st[s] for s in ("pretrain", "train", "segment", "align", "eval")),
        "mil_steps_per_s": w.mil_epochs * n_train / st["pretrain"],
        "train_iters_per_s": w.iters / st["train"],
        "segment_frames_per_s": frames["segment"] / st["segment"],
        "align_frames_per_s": frames["align"] / st["align"],
        "seg_mof": seg_mof,
        "align_iod": align_iod,
    }


def verify(pipeline, results):
    """Problems across passes: invalid predictions, or passes that disagree."""
    problems = []
    for r in results:
        problems += r.problems + pipeline.check(r)
    digests = {pipeline.digest(r) for r in results}
    quality = {pipeline.score(r.test_videos, r.segment, r.align) for r in results}
    if len(digests) > 1 or len(quality) > 1:
        problems.append("passes of the same inputs disagree: %d digests, quality %s"
                        % (len(digests), sorted(quality)))
    return problems, sorted(digests)


def failures(results):
    attempted = sum(len(r.segment) + len(r.align) for r in results)
    failed = sum(s is None for r in results for s in r.segment + r.align)
    return attempted, failed


def measure(w, seed, seconds, workdir, pipeline):
    setup, run, collect = pipeline.PIPELINES[w.pipeline]
    start = time.perf_counter()
    setups = []
    for _ in range(w.setup_reps):
        state = None  # free the previous corpora before loading the next
        state, took = _timed(setup, w, seed, os.path.join(workdir, "corpus"))
        setups.append(took)
    # the first pass in a process runs slower (up to 1.5x on `long`); it is
    # checked with the others but left out of the medians
    results = []
    while True:
        raw, took = _timed(run, w, seed, state)
        results.append(collect(w, state, raw))
        if len(results) > 1 and time.perf_counter() - start + took > seconds:
            break
    per_pass = [pass_metrics(w, r, pipeline) for r in results[1:]]
    values = {m: statistics.median(p[m] for p in per_pass) for m in per_pass[0]}
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems, digests = verify(pipeline, results)
    info = {"setup_s": setups, "digest": digests,
            "passes": {m: [p[m] for p in per_pass] for m in per_pass[0]}}
    return values, results, problems, info


def probe_best_cuts():
    """Direct dp.best_cuts calls: 7 stages, alignment-style full domains,
    fixed inputs; median of 3 calls per T and the log-log slope."""
    import numpy as np
    from acvseg import dp
    n_seg = 7
    out = {}
    for t_total in PROBE_T:
        rng = np.random.default_rng(t_total)
        loglik = rng.standard_normal((n_seg, t_total))
        lambdas = np.full(n_seg, t_total / n_seg)
        domains = tuple((k, t_total - 1 - (n_seg - 1 - k)) for k in range(n_seg - 1))
        times = [_timed(dp.best_cuts, loglik, lambdas, domains)[1] for _ in range(3)]
        out["dp.best_cuts.T%d_s" % t_total] = statistics.median(times)
    xs = [math.log(t) for t in PROBE_T]
    ys = [math.log(out["dp.best_cuts.T%d_s" % t]) for t in PROBE_T]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    out["dp.best_cuts.scaling_exponent"] = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                                            / sum((x - mx) ** 2 for x in xs))
    return out


def traced(w, seed, workdir, pipeline):
    from spans import TRACED, Tracer
    setup, run, collect = pipeline.PIPELINES[w.pipeline]
    state = setup(w, seed, os.path.join(workdir, "plain"))
    # the first pass in a process runs slower; the second is the reference
    warmup, plain = (collect(w, state, run(w, seed, state)) for _ in range(2))
    tracer = Tracer()
    with tracer:
        state, setup_s = _timed(setup, w, seed, os.path.join(workdir, "traced"))
        raw = run(w, seed, state)
    result = collect(w, state, raw)
    problems, digests = verify(pipeline, [warmup, plain, result])

    # counters straight from the spans; derived and probe values overwrite below
    out = {name: tracer.get(*name.rsplit(".", 1)) for name in per_layer_units()}
    out["scorer.forward.us_per_frame"] = 1e6 * tracer.get("scorer.forward", "self_s") / max(
        1.0, tracer.get("scorer.forward", "frames"))
    out["acv.select_anchors.halved_share"] = tracer.get(
        "acv.select_anchors", "halved") / max(1.0, tracer.get("acv.select_anchors", "calls"))
    out["infer.sample_sequences.distinct_share"] = tracer.get(
        "infer.sample_sequences", "distinct") / max(
        1.0, tracer.get("infer.sample_sequences", "candidates"))
    for part in ("train", "decode"):
        base = "dp.best_cuts." + part
        out[base + ".ns_per_cell"] = 1e9 * tracer.get(base, "self_s") / max(
            1.0, tracer.get(base, "grid_cells"))
    stages = dict(result.stages)
    if w.pipeline == "cli":
        stages["synth"] = setup_s
        out.update({"cli.%s.s" % s: stages[s] for s in CLI_STAGES})
    else:
        out.update({"cli.%s.s" % s: 0.0 for s in CLI_STAGES})
    out["cli.pool.busy_s"] = tracer.worker_busy_s
    out["trace.overhead_s"] = (pass_metrics(w, result, pipeline)["total_s"]
                               - pass_metrics(w, plain, pipeline)["total_s"])
    out.update(probe_best_cuts())

    expected = ["%s.%s" % (layer, fn) for layer, names in TRACED.items() for fn in names]
    expected += ["dp.best_cuts.train", "dp.best_cuts.decode"]
    silent = [n for n in expected
              if n not in UNREACHED[w.pipeline] and tracer.get(n, "calls") == 0]
    if silent:
        problems.append("spans that never fired: %s" % ", ".join(silent))
    return out, [warmup, plain, result], problems, {"digest": digests}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "acvseg", "__init__.py")):
        print("perfbench: no acvseg sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import acvseg
    if not os.path.abspath(acvseg.__file__).startswith(SRC + os.sep):
        print("perfbench: imported acvseg from %s, not %s" % (acvseg.__file__, SRC),
              file=sys.stderr)
        return 2
    import pipeline
    if args.workload not in pipeline.WORKLOADS:
        parser.error("unknown workload %r (have: %s)"
                     % (args.workload, ", ".join(pipeline.WORKLOADS)))
    w = pipeline.WORKLOADS[args.workload]

    workdir = os.path.join(ROOT, ".perfbench_work", "%s-%d" % (w.name, os.getpid()))
    try:
        if args.trace:
            values, results, problems, info = traced(w, args.seed, workdir, pipeline)
            units = per_layer_units()
        else:
            values, results, problems, info = measure(w, args.seed, args.seconds, workdir,
                                                      pipeline)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run still has its directory there
            pass
    attempted, failed = failures(results)
    for problem in problems:
        print("perfbench: %s" % problem, file=sys.stderr)
    record = run_record(args, w)
    record.update(info)
    print(json.dumps({"run_record": record}))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": {m: {"value": values[m], "unit": u}
                                  for m, u in units.items()}}))
    return 0


if __name__ == "__main__":
    # single-threaded BLAS, set before numpy loads: a second BLAS thread on a
    # small shared machine makes timings depend on how it is scheduled
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.exit(main())
