"""Benchmark of the fusetrack pipeline on scenario S1.

    python3 perfbench/run.py --workload s1_train_raw --seed 0 --seconds 20 --trace 0

Run from the root of a source tree. The benchmark simulates the S1 inputs of
``--seed`` under ``.perfbench_work/`` and hands the program only those files.
One client in this process then runs operations back to back (a closed
loop): after the first, another starts only if it would end within
``--seconds``. An operation is timed by the CPU time it uses; on
``s1_localize`` that time is scaled to a reference speed by probes taken
while it runs (see ``SpeedSampler``). Its plain CPU and wall times are
recorded beside it. Every operation's output is checked. With ``--trace 1`` a
single operation runs with spans recorded around every layer, and the
per-layer metrics are reported instead of the end-to-end ones.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it is the run's
record: environment, input hashes and every operation. The record is also
written, with the spans of a traced run, to ``.perfbench_out/``, where the
next run of the same workload, seed and source tree compares its reports
with it. Exit status is 0 after a run, also one with failed operations, and
2 when the source tree or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
#: BLAS/OpenMP threads; the client is single-threaded, and this is at most nproc
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: fresh interpreters timed for setup_s
SETUP_SAMPLES = 3
#: CPU seconds of an operation between two speed probes
PROBE_EVERY_S = 0.25
#: CPU seconds of one speed probe at the reference speed: its median during
#: s1_localize operations on the 2-core x86 machine the benchmark was sized on
PROBE_REF_S = 0.0054
WORKLOAD_NAMES = ("s1_train_raw", "s1_localize")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def measure_setup() -> list[float]:
    """Seconds from starting a fresh interpreter until ``import fusetrack``
    has returned: the set-up a caller pays before its first pipeline run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    code = "import time, fusetrack; print(time.monotonic())"
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]) - start)
    return samples


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"  # not a git checkout
    return done.stdout.strip()


def cpu_time() -> float:
    """CPU seconds used so far by this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def probe_s() -> float:
    """Thread CPU seconds of a fixed piece of interpreter work: text split
    into fields and converted, as a log parser does.

    It runs no program code, so a change to the program does not move it; it
    moves with the speed the host gives this thread.
    """
    start = time.thread_time()
    total = 0.0
    for i in range(3000):
        fields = f"{i},{i * 0.5:.3f},ACC,{i % 7}".split(",")
        total += float(fields[1]) + int(fields[3])
    return time.thread_time() - start


class SpeedSampler:
    """Measures how much slower than the reference speed the host ran the
    code it wraps.

    A shared host changes the speed it gives a process by a quarter and more,
    for seconds to minutes at a time, and CPU time does not remove that. So a
    profiling timer interrupts the wrapped code every ``PROBE_EVERY_S`` of CPU
    time to run ``probe_s``. The main thread's CPU time since the previous
    probe is then scaled by ``PROBE_REF_S`` over the probe's time.
    ``factor`` is the scaled sum over the plain sum; the caller applies it
    to the CPU time of the whole process, so work on other threads counts.
    The probes' own time is not in either sum. (While a profiling timer is
    armed, Linux counts a process's CPU clock in scheduler ticks, too coarse
    for a 5 ms probe; a thread's clock stays exact.)
    """

    def __enter__(self):
        self.ran_s = self.scaled_s = self.probes_s = 0.0
        self.probes = 0
        self._busy = False
        self._since = time.thread_time()
        self._handler = signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def _probe(self, signum=None, frame=None):
        if self._busy:  # the timer fired again during a probe
            return
        self._busy = True
        ran = time.thread_time() - self._since
        took = probe_s()
        self.ran_s += ran
        self.scaled_s += ran * PROBE_REF_S / took
        self.probes_s += took
        self.probes += 1
        self._since = time.thread_time()
        self._busy = False

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._handler)
        self._probe()  # scales the time since the last one

    @property
    def factor(self) -> float:
        return self.scaled_s / self.ran_s


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    import fusetrack
    # the program and the benchmark together decide what a run reports
    tree = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").glob("*.py")]):
        tree.update(f"{path.relative_to(ROOT)} {sha256_file(path)}\n".encode())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fusetrack": fusetrack.__version__,
        "git_commit": git_commit(),
        "source_sha256": tree.hexdigest(),
    }


def previous_keys(workload: str, seed: int, source_sha256: str):
    """Report keys of an earlier run of this workload and seed on the same
    program and benchmark sources, traced or not, if one left a record."""
    for trace in (0, 1):
        path = OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"
        try:
            with open(path, encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            continue
        if record["environment"]["source_sha256"] != source_sha256:
            continue
        for op in record["ops"]:
            if "report_keys" in op:
                return op["report_keys"]
    return None


class Runner:
    """Runs one workload's operations and checks each one's output.

    The pipeline is deterministic, so every operation must give the reports
    the first one gave, or those of ``expected_keys`` when they are known.
    """

    def __init__(self, workload, inputs, work_dir: Path, report_key, expected_keys=None):
        self.workload = workload
        self.inputs = inputs
        self.work_dir = work_dir
        self.report_key = report_key
        self.expected_keys = expected_keys
        self.ops: list[dict] = []
        self.reports = None

    def run_op(self, sample_speed: bool = True) -> dict:
        """One timed operation, its CPU time scaled by speed probes when
        ``sample_speed`` is set and the workload asks for them."""
        out_dir = self.work_dir / f"op{len(self.ops)}"
        op = {"id": len(self.ops), "ok": False, "problems": []}
        start, cpu_start = time.perf_counter(), cpu_time()
        probed = sample_speed and self.workload.speed_probe
        with SpeedSampler() if probed else contextlib.nullcontext() as speed:
            try:
                reports = self.workload.operation(self.inputs, out_dir)
            except Exception as exc:  # a failed operation is counted, not fatal
                op["problems"].append(f"raised {type(exc).__name__}: {exc}")
                reports = None
        op["wall_s"] = time.perf_counter() - start
        op["cpu_s"] = op["plain_cpu_s"] = cpu_time() - cpu_start
        if speed is not None:
            op["plain_cpu_s"] -= speed.probes_s
            op["cpu_s"] = op["plain_cpu_s"] * speed.factor
            op["probes"] = speed.probes
            op["probe_mean_s"] = speed.probes_s / speed.probes
        if reports is not None:
            op["problems"] = self.workload.check(reports)
            # through JSON, so that keys read back from a record compare equal
            keys = json.loads(json.dumps({n: self.report_key(r) for n, r in reports.items()}))
            if self.expected_keys is None:
                self.expected_keys = keys
            elif keys != self.expected_keys:
                op["problems"].append("reports differ from an earlier operation's "
                                      "on the same inputs and source")
            self.reports = self.reports or reports
            op["report_keys"] = keys
            op["ok"] = not op["problems"]
        shutil.rmtree(out_dir, ignore_errors=True)
        self.ops.append(op)
        return op

    def run_for(self, seconds: float) -> None:
        start = time.perf_counter()
        while True:
            op = self.run_op()
            if time.perf_counter() - start + op["wall_s"] > seconds:
                return

    def median(self, key: str) -> float:
        """Median of ``key`` over the good operations, or over all if none is."""
        ops = [op for op in self.ops if op["ok"]] or self.ops
        return statistics.median(op[key] for op in ops)


def quality(reports) -> dict[str, float]:
    """Held-out error of the full pipeline and of the ablations that ran."""
    if reports is None:
        return {}
    out = {"q75_m": reports["full"].q75, "mae_m": reports["full"].mae}
    for ablation in ("no_wifi", "no_prj"):
        if ablation in reports:
            out[f"q75_m.{ablation}"] = reports[ablation].q75
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    t_start = time.perf_counter()
    if not (ROOT / "src" / "fusetrack" / "__init__.py").is_file():
        print(f"perfbench: no fusetrack source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    # a terminated run still deletes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.environ.update({v: BLAS_THREADS for v in THREAD_VARS})  # before numpy loads
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    setup = [] if args.trace else measure_setup()

    from perfbench import layers, workloads
    from perfbench.tracer import Tracer

    env = environment()
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        t = time.perf_counter()
        inputs = workloads.generate_s1(args.seed, work_dir / "inputs")
        simulate_s = time.perf_counter() - t
        workload = workloads.WORKLOADS[args.workload]()
        prepared = workload.prepare(inputs, work_dir)
        files = {p.relative_to(work_dir).as_posix(): sha256_file(p)
                 for p in inputs.files + list(prepared.values())}
        runner = Runner(workload, inputs, work_dir, workloads.report_key,
                        previous_keys(args.workload, args.seed, env["source_sha256"]))
        if args.trace:
            with Tracer() as tracer:
                layer_trace = layers.LayerTrace(tracer)
                layer_trace.install()
                tracer.op = len(runner.ops)
                runner.run_op(sample_speed=False)
            found = layer_trace.metrics()
            found["bench.simulate.s"] = simulate_s
            found["trace.overhead_s"] = len(tracer.spans) * layers.traced_call_cost_s()
            found.update(quality(runner.reports))
            metrics = {name: (found.get(name, 0.0), unit)
                       for name, unit in layers.per_layer_names().items()}
        else:
            runner.run_for(args.seconds)
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "cpu_s": (runner.median("cpu_s"), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "MB"),
            }
        ops = runner.ops
        failed = sum(not op["ok"] for op in ops)
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": env, "input_sha256": files,
            "setup_samples_s": setup,
            "simulate_s": simulate_s, "wall_s": runner.median("wall_s"),
            "cpu_s": runner.median("cpu_s"), "plain_cpu_s": runner.median("plain_cpu_s"),
            "quality": quality(runner.reports), "failed_frac": failed / len(ops),
            "metrics": metrics, "ops": ops, "elapsed_s": time.perf_counter() - t_start,
        }
        OUT_DIR.mkdir(exist_ok=True)
        out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        with open(out_file, "w", encoding="utf-8") as fh:
            json.dump(dict(record, spans=[vars(s) for s in tracer.spans] if args.trace else []),
                      fh)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for name, value in summary(record):
        print(f"{name:>32}  {value}")
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


def summary(record):
    """Human-readable lines: every end-to-end figure, then the reported metrics."""
    ops = record["ops"]
    yield "run", f"{record['workload']} seed {record['seed']} trace {record['trace']}"
    yield "ops", (f"{len(ops)}, median CPU {record['cpu_s']:.4f} s "
                  f"(plain {record['plain_cpu_s']:.4f} s), "
                  f"median wall {record['wall_s']:.4f} s")
    for name, value in record["quality"].items():
        yield name, f"{value:.4f} m"
    yield "failed_frac", f"{record['failed_frac']:.4f}"
    for op in ops:
        for problem in op["problems"]:
            yield f"op {op['id']} failed", problem
    for name, (value, unit) in record["metrics"].items():
        yield name, f"{value:.6g} {unit}"


if __name__ == "__main__":
    sys.exit(main())
