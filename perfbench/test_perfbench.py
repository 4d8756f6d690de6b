"""Tests of the benchmark's input generator, speed sampler and tracer."""

import importlib.util
import signal
import time
import types
from pathlib import Path

import pytest

from fusetrack.bench import Waypoint, run_pipeline
from fusetrack.bench.simulate import SimScenario, simulate_track
from perfbench import layers, run, workloads
from perfbench.tracer import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent


def _reference_s1():
    spec = importlib.util.spec_from_file_location("s1_reference", ROOT / "tests" / "s1.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_s1_inputs_are_byte_identical_to_the_acceptance_generator(tmp_path):
    ours = workloads.generate_s1(0, tmp_path / "ours")
    theirs = _reference_s1().generate_seed_tracks(0, tmp_path / "theirs")
    assert [Path(p).name for p in ours.paths["train_logs"]] == \
        [Path(p).name for p in theirs["train_logs"]]
    assert len(ours.files) == workloads.TRAIN_TRACKS + 2 * workloads.TEST_TRACKS
    for path in ours.files:
        assert path.read_bytes() == (tmp_path / "theirs" / path.name).read_bytes(), path.name


def test_command_line_offers_every_workload():
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_speed_sampler_gives_a_sane_factor_and_restores_the_timer():
    handler = signal.getsignal(signal.SIGPROF)
    with run.SpeedSampler() as speed:
        _busy(1.0)
    assert signal.getsignal(signal.SIGPROF) is handler
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert speed.probes >= 3
    # the host's speed is within a factor of two or so of the reference
    assert 0.3 < speed.factor < 3.0


def _call_tree():
    """outer calls inner twice; inner calls leaf; everything does some work."""
    ns = types.SimpleNamespace()
    ns.leaf = lambda: _busy(0.002)

    def inner():
        _busy(0.001)
        ns.leaf()

    def outer():
        for _ in range(2):
            ns.inner()
        _busy(0.001)
    ns.inner, ns.outer = inner, outer
    return ns


def test_children_self_times_sum_to_at_most_the_parent_duration():
    ns = _call_tree()
    with Tracer() as tracer:
        for attr in ("outer", "inner", "leaf"):
            tracer.wrap(ns, attr, attr)
        ns.outer()
    spans = tracer.spans
    own = self_times(spans)
    assert [s.name for s in spans] == ["outer", "inner", "leaf", "inner", "leaf"]
    assert [s.parent for s in spans] == [-1, 0, 1, 0, 3]
    for i, parent in enumerate(spans):
        children = [j for j, s in enumerate(spans) if s.parent == i]
        assert sum(own[j] for j in children) <= parent.duration
        assert sum(spans[j].duration for j in children) <= parent.duration
    assert all(t >= 0 for t in own)
    assert sum(own) == pytest.approx(spans[0].duration, rel=1e-9)


def test_failed_call_ends_its_span_and_restores():
    ns = types.SimpleNamespace(f=lambda: 1 / 0)
    original = ns.f
    with pytest.raises(ZeroDivisionError):
        with Tracer() as tracer:
            tracer.wrap(ns, "f", "f")
            ns.f()
    assert tracer.spans[0].failed and tracer.spans[0].end >= tracer.spans[0].start
    assert ns.f is original


def test_inherited_method_is_restored_to_inheritance():
    class Base:
        def run(self):
            return 1

    class Child(Base):
        pass

    with Tracer() as tracer:
        tracer.wrap(Child, "run", "run")
        assert "run" in vars(Child) and Child().run() == 1
    assert "run" not in vars(Child)
    assert Child.run is Base.run
    assert not tracer.wrap(Child, "missing", "x")


def _patched_owners():
    with Tracer() as tracer:
        layers.LayerTrace(tracer).install()
        owners = {id(owner): owner for owner, _, _ in tracer._patches}
        names = [(owner, attr) for owner, attr, _ in tracer._patches]
    return list(owners.values()), names


def test_every_wrapped_name_is_restored_after_a_traced_run():
    owners, names = _patched_owners()
    # the plan wraps what it promises, in the namespaces it names
    assert (workloads, "run_pipeline") in names
    assert (layers.pipeline, "parse_logfile") in names
    assert (layers.neuralcore.Conv2D, "backward") in names
    before = [dict(vars(owner)) for owner in owners]
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            layers.LayerTrace(tracer).install()
            assert dict(vars(layers.pipeline)) != before[owners.index(layers.pipeline)]
            raise RuntimeError("traced operation failed")
    for owner, snapshot in zip(owners, before):
        after = vars(owner)
        assert after.keys() == snapshot.keys()
        assert all(after[k] is snapshot[k] for k in snapshot), owner


def _tiny_inputs(tmp_path):
    """Two short train walks and one test walk along an L-shaped corridor."""
    aps = workloads.ap_layout(0)
    corners = [(0.0, 0.0), (20.0, 0.0), (20.0, 15.0), (0.0, 15.0)]
    paths = {"train_logs": [], "test_logs": [], "truth_files": []}
    for k in range(3):
        wps = [Waypoint(x, y, 0, 2.0) for x, y in (corners if k % 2 == 0 else corners[::-1])]
        result = simulate_track(SimScenario(wps, speed=1.1, step_frequency=1.8,
                                            ap_layout=aps, rng_seed=k))
        if k < 2:
            path = tmp_path / f"train{k}.log"
            result.write(path)
            paths["train_logs"].append(str(path))
        else:
            path, truth = tmp_path / "test0.log", tmp_path / "test0_truth.csv"
            result.write(path, truth)
            paths["test_logs"].append(str(path))
            paths["truth_files"].append(str(truth))
    return paths


def test_traced_pipeline_reports_as_untraced_and_times_add_up(tmp_path):
    paths = _tiny_inputs(tmp_path)
    config = dict(paths, max_epochs=1, patience=1, val_track_count=1)
    plain = run_pipeline(dict(config, out_dir=str(tmp_path / "plain"))).report
    with Tracer() as tracer:
        trace = layers.LayerTrace(tracer)
        trace.install()
        traced = workloads.run_pipeline(dict(config, out_dir=str(tmp_path / "traced"))).report
    assert workloads.report_key(traced) == workloads.report_key(plain)

    metrics = trace.metrics()
    pipeline_s = sum(s.duration for s in tracer.spans if s.name == "bench.pipeline")
    time_metrics = set(layers.TIME_METRICS.values())
    assert sum(v for name, v in metrics.items() if name in time_metrics) == \
        pytest.approx(pipeline_s, rel=1e-9)
    assert metrics["ingest.parse.unique_frac"] == 1.0
    assert metrics["pdr.epochs"] == 1
    assert metrics["neuralcore.steps"] > 0
    assert metrics["neuralcore.conv2.bwd_s"] > 0
    assert metrics["tracking.points"] > 0
    assert set(metrics) <= set(layers.per_layer_names())
