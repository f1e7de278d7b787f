"""One `kgwell run` in a fresh process, timed from outside the program.

    python3 perfbench/child.py --src SRC --config CFG --out DIR \
        --mode plain|trace|memory --result RESULT.json [--run-id ID]

Imports kgwell from SRC, wraps the functions named in tracing.py, calls
`kgwell.cli.main(["run", ...])` once and writes its timings to RESULT.json.
The process exits with kgwell's own exit code.

  plain   times only the whole call and `prepare` / `simulate` (the
          end-to-end metrics)
  trace   also records a span at every point in tracing.TRACE_POINTS and
          writes them next to RESULT.json as spans.csv
  memory  measures tracemalloc peaks of `prepare` and `simulate`, in a pass
          of its own because tracemalloc slows every allocation
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import tracemalloc
from pathlib import Path

from tracing import ROOT, TOP_LEVEL_POINTS, TRACE_POINTS, Tracer


def _keep(store: dict, key: str, fn):
    """Wrap fn so that its last result is kept in store[key]."""
    def kept(*args, **kwargs):
        store[key] = out = fn(*args, **kwargs)
        return out
    return kept


def _peak(store: dict, key: str, fn):
    """Wrap fn so that store[key] gets the tracemalloc peak above the level
    at entry, in bytes."""
    def measured(*args, **kwargs):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return fn(*args, **kwargs)
        finally:
            store[key] = tracemalloc.get_traced_memory()[1] - base
    return measured


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--mode", choices=("plain", "trace", "memory"), required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--run-id", default="run")
    args = ap.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import numpy
    import scipy

    import kgwell
    import kgwell.cli as cli

    if Path(kgwell.__file__).resolve().parent != src / "kgwell":
        print(f"kgwell imported from {kgwell.__file__}, not from {src}", file=sys.stderr)
        return 3

    kept: dict = {}
    cli.prepare = _keep(kept, "prepare", cli.prepare)
    cli.simulate = _keep(kept, "simulate", cli.simulate)
    peaks: dict = {}
    if args.mode == "memory":
        cli.prepare = _peak(peaks, "prepare", cli.prepare)
        cli.simulate = _peak(peaks, "simulate", cli.simulate)
        tracemalloc.start()

    tracer = Tracer(args.run_id)
    tracer.install(TRACE_POINTS if args.mode == "trace" else TOP_LEVEL_POINTS)
    argv = ["run", "--config", args.config, "--out", args.out]
    code = tracer.wrap(ROOT, cli.main)(argv)
    if args.mode == "memory":
        tracemalloc.stop()

    def span_s(name):
        hits = [(end - start) * 1e-9 for n, start, end, _ in tracer.spans if n == name]
        return hits[0] if len(hits) == 1 else None

    result = {
        "exit_code": code,
        "run_s": span_s(ROOT),
        "prepare_s": span_s("dynamics.prepare"),
        "simulate_s": span_s("dynamics.simulate"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    trajectory = kept.get("simulate")
    if trajectory is not None:
        result.update(
            n_steps=trajectory.meta["n_steps"],
            samples=len(trajectory.samples),
            n_free=len(trajectory.samples[0].state.u),
        )
    prep = kept.get("prepare")
    if prep is not None and args.mode == "trace":
        from kgwell.assembly import element_quadrature_tables
        wdet = element_quadrature_tables(prep.mesh, prep.spec.quad_degree)[1]
        result["coupling_qpoints"] = int(wdet.size)
    if args.mode == "trace":
        spans_path = Path(args.result).with_name("spans.csv")
        tracer.write(spans_path)
        result["spans"] = str(spans_path)
    if args.mode == "memory":
        result.update({f"{k}_peak_mb": v / 2**20 for k, v in peaks.items()})
    Path(args.result).write_text(json.dumps(result, indent=1) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
