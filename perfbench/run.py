"""kgwell benchmark: real `kgwell run` calls, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each sample is one `kgwell run` of the workload's generated config, made by
`kgwell.cli.main` in a fresh single-threaded process (perfbench/child.py).
Processes run one at a time. Before the timed window, one run of the
reference seed warms the file cache and is compared with the trajectory
recorded in perfbench/reference/. Then runs are started until --seconds
have passed (and at least MIN_SAMPLES were made), and every metric is the
median over them, which is what makes one invocation's numbers steady.
Every run's outputs are checked (check.py); a failed run counts in
`failed` and contributes no timing.

--trace 0 reports the end-to-end metrics: setup_s, step_us, run_s,
peak_rss_mb. --trace 1 alternates untraced and traced runs, adds one
tracemalloc run, and reports the per-layer metrics of tracing.py plus
trace.overhead_ratio. --workload all runs every workload both ways.
The last line printed is one JSON object: correct, attempted, failed,
metrics. Exit code 0 means every run was correct.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from check import Verdict, check_outputs, load_reference
from tracing import COUNT_METRICS, layer_metrics, percentile, read_spans
from workloads import DEFAULT_SEED, WORKLOADS, Workload, amplitudes, write_config

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
WORK = HERE / ".work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: Fewest untraced (and, with --trace 1, traced) runs in one invocation.
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("step_us", "us"),
    ("run_s", "s"),
    ("peak_rss_mb", "MiB"),
)


def child_env() -> dict[str, str]:
    """The launch environment: BLAS/OpenMP pools capped at one thread (at
    most nproc), fixed hash seed, temporary files inside the checkout."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(WORK / "tmp")
    return env


@dataclass
class Child:
    run_dir: Path
    exit_code: int | None
    result: dict | None


@dataclass
class Attempt:
    mode: str
    verdict: Verdict
    result: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return not self.verdict.ok


def run_child(workload: Workload, seed: int, mode: str, tag: str) -> Child:
    """Run one `kgwell run` in a fresh process and wait for it to end."""
    run_dir = WORK / f"{workload.name}-seed{seed}-{tag}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (WORK / "tmp").mkdir(exist_ok=True)
    config = write_config(workload, seed, run_dir / "run.cfg")
    result_path = run_dir / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC),
           "--config", str(config), "--out", str(run_dir / "out"), "--mode", mode,
           "--result", str(result_path), "--run-id", f"{workload.name}/{seed}/{tag}"]
    with open(run_dir / "child.log", "w") as log:
        try:
            code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                                  cwd=CHECKOUT, timeout=CHILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            code = None
    result = json.loads(result_path.read_text()) if result_path.is_file() else None
    return Child(run_dir, code, result)


def attempt(workload: Workload, seed: int, mode: str, tag: str, reference: dict) -> Attempt:
    child = run_child(workload, seed, mode, tag)
    verdict = check_outputs(child.run_dir / "out", child.exit_code, workload, reference,
                            compare_trajectory=seed == reference["seed"])
    if child.result is None:
        verdict.problems.append("child wrote no result")
    a = Attempt(mode, verdict, child.result or {})
    if a.failed:
        print(f"FAILED {workload.name} seed {seed} {tag}: {'; '.join(verdict.problems)} "
              f"(kept in {child.run_dir})", file=sys.stderr)
        return a
    if mode == "trace":
        a.layers = layer_metrics(read_spans(a.result["spans"]))
    shutil.rmtree(child.run_dir)
    return a


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten of n samples above it."""
    if n < 11:
        return None
    return math.floor(100.0 * (1.0 - 10.0 / n))


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    env = child_env()
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "threads": {var: env[var] for var in THREAD_VARS}}


@dataclass
class Measurement:
    workload: Workload
    seed: int
    trace: bool
    attempts: list[Attempt]
    metrics: dict[str, dict]
    samples: dict[str, list[float]]

    @property
    def attempted(self) -> int:
        return len(self.attempts)

    @property
    def failed(self) -> int:
        return sum(a.failed for a in self.attempts)


def _end_to_end(plain: list[Attempt]) -> dict[str, list[float]]:
    return {
        "setup_s": [a.result["prepare_s"] for a in plain],
        "step_us": [1e6 * a.result["simulate_s"] / a.result["n_steps"] for a in plain],
        "run_s": [a.result["run_s"] for a in plain],
        "peak_rss_mb": [a.result["peak_rss_mb"] for a in plain],
    }


def _per_layer(plain, traced, memory, reference_run) -> tuple[dict, list[str]]:
    """Median per-layer metrics over the traced runs, plus the computed
    counts, the memory pass and the tracing overhead."""
    problems = []
    names = traced[0].layers.keys()
    metrics = {}
    for name in names:
        values = [a.layers[name][0] for a in traced]
        if name in COUNT_METRICS and len(set(values)) != 1:
            problems.append(f"count {name} differs between runs: {values}")
        metrics[name] = {"value": statistics.median(values), "unit": traced[0].layers[name][1]}
    r = traced[0].result
    extra = {
        "assembly.coupling_qpoints": (r["coupling_qpoints"], "count"),
        "dynamics.trajectory_bytes": (r["samples"] * 4 * r["n_free"] * 8, "bytes"),
        "dynamics.csv_bytes": (traced[0].verdict.csv_bytes, "bytes"),
        "dynamics.csv_bitwise": (int(bool(reference_run.verdict.bitwise)), "bool"),
        "dynamics.prepare_peak_mb": (memory.result["prepare_peak_mb"], "MiB"),
        "dynamics.simulate_peak_mb": (memory.result["simulate_peak_mb"], "MiB"),
        "svgplot.svg_bytes": (traced[0].verdict.svg_bytes, "bytes"),
        "trace.overhead_ratio": (
            statistics.median(a.result["run_s"] for a in traced)
            / statistics.median(a.result["run_s"] for a in plain) - 1.0, "ratio"),
    }
    metrics.update({k: {"value": v, "unit": u} for k, (v, u) in extra.items()})
    return metrics, problems


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> Measurement:
    reference = load_reference(workload)
    attempts = [attempt(workload, DEFAULT_SEED, "plain", "reference", reference)]
    modes = ("plain", "trace") if trace else ("plain",)
    deadline = time.monotonic() + seconds
    i = 0
    while time.monotonic() < deadline or i < MIN_SAMPLES * len(modes):
        attempts.append(attempt(workload, seed, modes[i % len(modes)], f"{i:03d}", reference))
        i += 1
    if trace:
        attempts.append(attempt(workload, seed, "memory", "memory", reference))

    plain = [a for a in attempts[1:] if a.mode == "plain" and not a.failed]
    samples = _end_to_end(plain) if plain else {}
    metrics: dict[str, dict] = {}
    if not trace:
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END if plain}
    else:
        traced = [a for a in attempts if a.mode == "trace" and not a.failed]
        memory = attempts[-1]
        if plain and traced and not memory.failed and not attempts[0].failed:
            metrics, problems = _per_layer(plain, traced, memory, attempts[0])
            if problems:
                traced[0].verdict.problems += problems
                print("FAILED " + "; ".join(problems), file=sys.stderr)
    return Measurement(workload, seed, trace, attempts, metrics, samples)


def report(m: Measurement) -> None:
    first = next((a.result for a in m.attempts if a.result), {})
    info = {"workload": m.workload.name, "seed": m.seed, "trace": int(m.trace),
            "amplitudes": amplitudes(m.workload, m.seed), **environment(),
            **{k: first.get(k) for k in ("python", "numpy", "scipy")}}
    print("env " + json.dumps(info))
    print(f"{m.workload.name}: {m.attempted} runs, {m.failed} failed, "
          f"fail_rate {m.failed / m.attempted:.3g}")
    if not m.trace:
        print(f"  {'metric':16s} {'unit':5s} {'median':>12s} {'tail':>18s} {'n':>4s}")
        for name, unit in END_TO_END:
            values = m.samples.get(name)
            if not values:
                continue
            pct = tail_percentile(len(values))
            tail = (f"p{pct}={percentile(values, pct):.6g}" if pct is not None
                    else "n/a (n < 11)")
            print(f"  {name:16s} {unit:5s} {statistics.median(values):12.6g} {tail:>18s} "
                  f"{len(values):4d}")
    else:
        for name, rec in m.metrics.items():
            print(f"  {name:42s} {rec['unit']:6s} {rec['value']:.6g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="kgwell end-to-end and per-layer benchmark")
    ap.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # exit through SystemExit on SIGTERM, so subprocess.run kills and reaps
    # the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "kgwell" / "cli.py").is_file():
        print(f"no kgwell sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS.values() for t in (False, True)]
    else:
        runs = [(WORKLOADS[args.workload], bool(args.trace))]
    measurements = []
    for workload, trace in runs:
        m = measure(workload, args.seed, args.seconds, trace)
        report(m)
        measurements.append(m)

    attempted = sum(m.attempted for m in measurements)
    failed = sum(m.failed for m in measurements)
    complete = all(m.metrics for m in measurements)
    if args.workload == "all":
        metrics = {f"{m.workload.name}/{k}": v for m in measurements for k, v in m.metrics.items()}
    else:
        metrics = measurements[0].metrics
    correct = failed == 0 and complete
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
