"""Checks of the benchmark itself: cli predictions do not depend on the
worker count, spans bind where callers look functions up, and
BENCHMARK.json names exactly what run.py reports."""

import dataclasses
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import pipeline  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from acvseg import data, training  # noqa: E402

SMALL_CLI = dataclasses.replace(
    pipeline.WORKLOADS["cli"],
    train=dict(n_videos=12, frames_range=(100, 140), set_size_range=(3, 3),
               full_set_fraction=0.85),
    test=dict(n_videos=6, frames_range=(115, 125), set_size_range=(5, 5),
              full_set_fraction=1.0),
    mil_epochs=2, iters=20, k=10, setup_reps=1)


def test_cli_digest_is_the_same_at_one_and_two_threads(tmp_path):
    digests = []
    for threads in (1, 2):
        w = dataclasses.replace(SMALL_CLI, threads=threads)
        root = pipeline.setup_cli(w, 5, str(tmp_path / str(threads)))
        result = pipeline.collect_cli(w, root, pipeline.run_cli(w, 5, root))
        assert result.problems == [] and pipeline.check(result) == []
        assert all(s is not None for s in result.segment + result.align)
        digests.append(pipeline.digest(result))
    assert digests[0] == digests[1]


def test_spans_reach_from_imports_and_separate_self_time(tmp_path):
    spec = data.SynthSpec(n_classes=3, n_videos=2, frames_range=(20, 30), feature_dim=8,
                          seed=1)
    tracer = spans.Tracer()
    with tracer:
        manifest, _ = data.synth_generate(spec, str(tmp_path))
        training.load_corpus(manifest)  # calls read_features bound by from-import
    assert tracer.get("data.read_features", "calls") == 2
    assert tracer.get("data.write_features", "calls") == 2
    assert tracer.get("data.read_features", "mb") > 0
    synth = tracer.stats["data.synth_generate"]
    assert 0 < synth["self_s"] < synth["total_s"]
    assert not hasattr(training.read_features, "__wrapped__")
    assert not hasattr(data.synth_generate, "__wrapped__")


def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} <= set(pipeline.WORKLOADS)
