"""Where the traced run puts spans, and the per-layer metrics it derives.

Public names are wrapped only for the traced operation:

- ``run_pipeline`` as the benchmark calls it, and the functions
  ``fusetrack.bench.pipeline`` imports, in its namespace;
- ``pdr.prepare_training_arrays`` and ``tracking.project_prediction``;
- ``forward``/``backward`` of the ``neuralcore`` layer classes the CNN uses,
  and ``Adam.step``. ``Network.forward`` is also wrapped, without a span, to
  name the convolutions of each network conv1, conv2 and conv3 in trunk order.

Every time metric is a sum of span self times, so together with
``bench.pipeline.self_s`` they add up to the traced pipelines' wall time.
The RP input and the VAE are run by no workload, so ``recurrence_matrix``,
``train_vae`` and ``vae_predict`` are not wrapped.
"""

from __future__ import annotations

import statistics
import time
import types
from collections import Counter

import numpy as np

import fusetrack.bench.pipeline as pipeline
from fusetrack import neuralcore, pdr, tracking

from . import workloads
from .tracer import Tracer, self_times

#: span of each function run_pipeline imports; unlisted ones count as pipeline time
PIPELINE_SPANS = {
    "parse_logfile": "ingest.parse",
    "resample_stream": "ingest.resample",
    "ensure_yaw": "labels",
    "detect_activity": "labels",
    "detect_steps": "labels",
    "detect_floor_changes": "labels",
    "generate_pseudo_labels": "labels",
    "save_dataset": "labels",
    "magnitude_channels": "features.windows",
    "make_windows": "features.windows",
    "build_model": "pdr.train",
    "train_pdr": "pdr.train",
    "predict_displacements": "pdr.predict",
    "build_radiomap": "wifi.radiomap",
    "knn_predict": "wifi.knn",
    "fuse_track": "tracking.fuse",
    "build_projection_index": "tracking.project",
    "project_track": "tracking.project",
    "evaluate_track": "bench.evaluate",
    "report_from_errors": "bench.evaluate",
    "read_truth_csv": "bench.evaluate",
}

LAYER_KINDS = {
    "MaxPool2x2": "pool",
    "Dense": "dense",
    "Relu": "elementwise",
    "Dropout": "elementwise",
    "Flatten": "elementwise",
}
NEURALCORE_LAYERS = ("conv1", "conv2", "conv3", "pool", "dense", "elementwise")

#: time metric of each span name; every other span is bench.pipeline
TIME_METRICS = {
    "ingest.parse": "ingest.parse.s",
    "ingest.resample": "ingest.resample.s",
    "labels": "labels.s",
    "features.windows": "features.windows.s",
    **{f"neuralcore.{layer}.{d}": f"neuralcore.{layer}.{d}_s"
       for layer in NEURALCORE_LAYERS for d in ("fwd", "bwd")},
    "neuralcore.adam": "neuralcore.adam.s",
    "pdr.train": "pdr.train.s",
    "pdr.prepare": "pdr.prepare.s",
    "pdr.predict": "pdr.predict.s",
    "wifi.radiomap": "wifi.radiomap.s",
    "wifi.knn": "wifi.knn.s",
    "tracking.fuse": "tracking.fuse.s",
    "tracking.project": "tracking.project.s",
    "tracking.project_point": "tracking.project.s",
    "bench.evaluate": "bench.evaluate.s",
    "bench.pipeline": "bench.pipeline.self_s",
}

COUNT_METRICS = (
    "ingest.parse.records", "ingest.resample.samples", "labels.samples",
    "neuralcore.steps", "pdr.epochs", "pdr.predict.windows",
    "wifi.fingerprints", "wifi.knn.calls", "tracking.points",
)
RATIO_METRICS = (
    "ingest.parse.unique_frac", "labels.samples_used_frac", "pdr.epochs_useful_frac",
    "pdr.gated_frac", "wifi.fix_failed_frac",
)
#: the pipeline's held-out error; the ablations run on s1_localize only and
#: read 0 elsewhere
QUALITY_METRICS = ("q75_m", "mae_m", "q75_m.no_wifi", "q75_m.no_prj")
OTHER_METRICS = {
    "neuralcore.step_ms": "ms",
    "tracking.project_point_us.p50": "us",
    "tracking.project_point_us.p99": "us",
    "bench.simulate.s": "s",
    "trace.overhead_s": "s",
}


class LayerTrace:
    """Wraps the plan's names on a tracer and counts the work each layer did."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.counts = Counter()
        self.parsed: list[str] = []
        self.conv_names: dict[int, str] = {}

    def install(self) -> None:
        t = self.tracer
        t.wrap(workloads, "run_pipeline", "bench.pipeline")
        on_result = {
            "parse_logfile": self._parsed,
            "resample_stream": self._count(lambda r: r.length, "ingest.resample.samples"),
            "generate_pseudo_labels": self._count(len, "labels.samples"),
            "train_pdr": self._trained,
            "predict_displacements": self._predicted,
            "build_radiomap": self._count(lambda r: len(r.fingerprints), "wifi.fingerprints"),
            "fuse_track": self._count(len, "tracking.points"),
        }
        for attr, span in PIPELINE_SPANS.items():
            t.wrap(pipeline, attr, span, on_result=on_result.get(attr))
        t.wrap(pdr, "prepare_training_arrays", "pdr.prepare")
        t.wrap(tracking, "project_prediction", "tracking.project_point")

        def name_convs(forward):
            def labelled(net, *args, **kwargs):
                convs = [l for l in net.trunk if isinstance(l, neuralcore.Conv2D)]
                for k, layer in enumerate(convs, 1):
                    self.conv_names[id(layer)] = f"conv{k}"
                return forward(net, *args, **kwargs)
            return labelled
        t.patch(neuralcore.Network, "forward", name_convs)
        for direction, attr in (("fwd", "forward"), ("bwd", "backward")):
            t.wrap(neuralcore.Conv2D, attr,
                   lambda a, d=direction: f"neuralcore.{self.conv_names[id(a[0])]}.{d}")
            for cls, kind in LAYER_KINDS.items():
                t.wrap(getattr(neuralcore, cls), attr, f"neuralcore.{kind}.{direction}")
        t.wrap(neuralcore.Adam, "step", "neuralcore.adam")

    def _count(self, size, metric):
        def on_result(args, kwargs, result):
            self.counts[metric] += size(result)
        return on_result

    def _parsed(self, args, kwargs, result):
        self.parsed.append(str(args[0] if args else kwargs["path"]))
        self.counts["ingest.parse.records"] += len(result[0])

    def _trained(self, args, kwargs, result):
        self.counts["labels.samples_used"] += len(args[1]) + len(args[2])
        history = result[1]
        self.counts["pdr.epochs"] += len(history.rows)
        self.counts["pdr.epochs_useful"] += history.best_epoch + 1

    def _predicted(self, args, kwargs, result):
        self.counts["pdr.predict.windows"] += len(result)
        self.counts["pdr.gated"] += sum(p.activity_prob < pdr.ACTIVITY_GATE for p in result)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far, by name; see
        ``per_layer_names`` for their units."""
        spans = self.tracer.spans
        c = self.counts
        out = dict.fromkeys(TIME_METRICS.values(), 0.0)
        for span, own in zip(spans, self_times(spans)):
            out[TIME_METRICS.get(span.name, "bench.pipeline.self_s")] += own
        by_name = Counter(s.name for s in spans)
        c["neuralcore.steps"] = by_name["neuralcore.adam"]
        c["wifi.knn.calls"] = by_name["wifi.knn"]
        out.update({metric: float(c[metric]) for metric in COUNT_METRICS})

        def ratio(num, den):
            return float(num) / den if den else 0.0
        knn_failed = sum(s.failed for s in spans if s.name == "wifi.knn")
        out["ingest.parse.unique_frac"] = ratio(len(set(self.parsed)), len(self.parsed))
        out["labels.samples_used_frac"] = ratio(c["labels.samples_used"], c["labels.samples"])
        out["pdr.epochs_useful_frac"] = ratio(c["pdr.epochs_useful"], c["pdr.epochs"])
        out["pdr.gated_frac"] = ratio(c["pdr.gated"], c["pdr.predict.windows"])
        out["wifi.fix_failed_frac"] = ratio(knn_failed, by_name["wifi.knn"])

        points = [s.duration * 1e6 for s in spans if s.name == "tracking.project_point"]
        if points:
            out["tracking.project_point_us.p50"], out["tracking.project_point_us.p99"] = \
                (float(v) for v in np.percentile(points, [50, 99]))
        out["neuralcore.step_ms"] = 1e3 * _median_step(spans)
        return out


def _median_step(spans) -> float:
    """Median time between consecutive Adam steps of one training run: one
    mini-batch forward, loss, backward and update."""
    last_end: dict[int, float] = {}
    gaps = []
    for s in spans:
        if s.name == "neuralcore.adam":
            if s.parent in last_end:
                gaps.append(s.end - last_end[s.parent])
            last_end[s.parent] = s.end
    return statistics.median(gaps) if gaps else 0.0


def traced_call_cost_s(calls: int = 20000) -> float:
    """Time a span adds to one call: a traced call of a no-op minus a plain
    one, the best of three tries each."""
    def best(target):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(calls):
                target.f()
            times.append(time.perf_counter() - start)
        return min(times) / calls

    target = types.SimpleNamespace(f=lambda: None)
    plain = best(target)
    with Tracer() as tracer:
        tracer.wrap(target, "f", "calibration")
        traced = best(target)
    return max(traced - plain, 0.0)


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    names = {m: "s" for m in TIME_METRICS.values()}
    names.update({m: "count" for m in COUNT_METRICS})
    names.update({m: "ratio" for m in RATIO_METRICS})
    names.update({m: "m" for m in QUALITY_METRICS})
    names.update(OTHER_METRICS)
    return names
