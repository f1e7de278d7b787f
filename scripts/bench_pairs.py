"""Parent-against-change benchmark pairs with an A/A control, written as one
JSON file.

    python3 scripts/bench_pairs.py --parent REV [--claim WORKLOAD/METRIC]
        [--topic TEXT] [--out BENCH_pairs.json] [--workdir DIR] [--pairs 10]
        [--seed0 2601] [--seconds 30]

Three sides are unpacked under --workdir (a temporary directory unless
given), so the benchmark's run directories stay out of the checkout:
`parent` and `parent-copy` are two unpacked copies of `git archive REV`,
and `change` is a copy of this checkout's working tree (tracked and
untracked, not ignored, files).

* outputs: one `kgwell run` and one `kgwell constants` of the parent and
  the change for every demo config and each benchmark workload at seed 1,
  in fresh processes with one BLAS thread; exit codes, coupling passes
  (coupling_vectors calls of the run), the four verdicts and `admissible`,
  which outputs are byte identical, the CSV drift (largest change of a
  trajectory.csv column over that column's largest magnitude), the
  constants drift (largest relative change of a constants.* key of
  report.kv) and the largest drift over perfbench/check.py's tolerances.
* pairs: `perfbench/run.py --workload W --seed S --seconds T --trace 0` on
  all three sides for --pairs seeds per workload, the sides in an order
  that rotates with the seed.  Per workload/metric: each side's values,
  medians and quartiles, the change's wins against the parent, and the A/A
  arm: the gaps parent-copy minus parent, their median and their spread
  (the larger absolute quartile of the gaps), which is what two runs of
  one tree differ by on this host.
* claim: WORKLOAD/METRIC, lower being better: met when the change wins at
  least nine tenths of the pairs and the parent-minus-change median gap
  exceeds both the parent's interquartile range and the A/A spread; null
  without --claim.
* no_regression: one row for every other workload/metric (every one
  without --claim), against the bounds of BENCHMARK.json.
* traced: one `--trace 1` invocation of the parent and the change per
  workload.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("interval-fine", "square-64", "square-128-setup")
SIDES = ("parent", "parent-copy", "change")
RUN_FILES = ("trajectory.csv", "report.kv", "report.txt", "energy.svg", "manifest.json")
VERDICTS = ("well.invariant_held", "dissipation.ok", "equivalence.ok", "decay.bound_satisfied")
THREADS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                "NUMEXPR_NUM_THREADS")}
TRACED = ("assembly.coupling_qpoints", "assembly.coupling_vectors_us_per_call",
          "assembly.coupling_vectors_calls", "dynamics.step_calls",
          "dynamics.prepare_peak_mb", "dynamics.simulate_peak_mb", "dynamics.csv_bitwise")


# -- one run in a fresh process -------------------------------------------------

def child(src: str, config: str, out: str) -> dict:
    """`kgwell run` then `kgwell constants` of config with kgwell from src:
    exit codes and coupling passes."""
    sys.path.insert(0, src)
    import kgwell.cli as cli
    import kgwell.dynamics as dynamics

    passes = 0
    vectors = dynamics.coupling_vectors

    def counted(*args, **kwargs):
        nonlocal passes
        passes += 1
        return vectors(*args, **kwargs)

    dynamics.coupling_vectors = counted
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        run_code = cli.main(["run", "--config", config, "--out", out])
    Path(out, "run.stdout").write_text(stdout.getvalue())
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        const_code = cli.main(["constants", "--config", config])
    Path(out, "constants.stdout").write_text(stdout.getvalue())
    return {"exit_codes": [run_code, const_code], "coupling_passes": passes}


def run_child(side: Path, config: Path, out: Path) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmd = [sys.executable, str(Path(__file__).resolve()), "child", "--src", str(side / "src"),
           "--config", str(config), "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          env={**os.environ, **THREADS, "PYTHONHASHSEED": "0"})
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- output comparison ------------------------------------------------------------

def _report(path: Path) -> dict:
    return dict(line.split("=", 1) for line in path.read_text().splitlines() if "=" in line)


def _columns(path: Path) -> list[list[float]]:
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return [[float(x) for x in col] for col in zip(*rows[1:])]


def compare(parent: Path, change: Path, csv_rtol: float, csv_atol: float, pin_rtol: float):
    """Drift of the change's outputs against the parent's."""
    files = RUN_FILES + ("run.stdout", "constants.stdout")
    moved = [f for f in files if (parent / f).read_bytes() != (change / f).read_bytes()]
    old, new = _columns(parent / "trajectory.csv"), _columns(change / "trajectory.csv")
    csv_drift, csv_ratio = 0.0, 0.0
    for a, b in zip(old, new):
        top = max(abs(x) for x in a)
        diff = [abs(x - y) for x, y in zip(a, b)]
        if top > 0.0:
            csv_drift = max(csv_drift, max(diff) / top)
        csv_ratio = max(csv_ratio, max((d / (csv_rtol * abs(x) + csv_atol * top)
                                        for d, x in zip(diff, a) if d), default=0.0))
    old_kv, new_kv = _report(parent / "report.kv"), _report(change / "report.kv")
    const_drift = 0.0
    for key, value in old_kv.items():
        if key.startswith("constants.") and value != new_kv[key]:
            x, y = float(value), float(new_kv[key])
            const_drift = max(const_drift, abs(x - y) / (abs(x) or abs(y)))
    manifests = [json.loads((d / "manifest.json").read_text()) for d in (parent, change)]
    return {
        "moved_files": moved,
        "csv_drift": csv_drift,
        "constants_drift": const_drift,
        "csv_over_check_tolerance": csv_ratio,
        "constants_over_check_tolerance": const_drift / pin_rtol,
        "verdicts": {key: [old_kv[key], new_kv[key]] for key in VERDICTS},
        "admissible": [m["admissible"] for m in manifests],
        "status": [m["status"] for m in manifests],
    }


def outputs(sides: dict, work: Path) -> dict:
    sys.path.insert(0, str(sides["change"] / "perfbench"))
    import check
    import workloads

    configs = {p.name: p for p in sorted((sides["change"] / "demos" / "configs").glob("*.cfg"))}
    for name in WORKLOADS:
        configs[f"{name} seed 1"] = workloads.write_config(
            workloads.WORKLOADS[name], 1, work / "configs" / f"{name}-seed1.cfg")
    table = {}
    for label, config in configs.items():
        runs = {side: run_child(sides[side], config, work / "outputs" / side / config.stem)
                for side in ("parent", "change")}
        row = compare(work / "outputs" / "parent" / config.stem,
                      work / "outputs" / "change" / config.stem,
                      check.CSV_RTOL, check.CSV_ATOL, check.PIN_RTOL)
        row["exit_codes"] = [runs["parent"]["exit_codes"], runs["change"]["exit_codes"]]
        row["coupling_passes"] = [runs["parent"]["coupling_passes"],
                                  runs["change"]["coupling_passes"]]
        table[label] = row
        print(f"outputs {label}: {json.dumps(row)}", file=sys.stderr)
    return table


# -- perfbench pairs --------------------------------------------------------------

def perfbench(side: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=side, capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    return [round(q, 6) for q in statistics.quantiles(values, n=4, method="inclusive")]


def pairs(sides: dict, seeds: list[int], seconds: float) -> dict:
    out = {}
    for workload in WORKLOADS:
        results = {side: [] for side in SIDES}
        for i, seed in enumerate(seeds):
            order = SIDES[i % 3:] + SIDES[:i % 3]
            for side in order:
                results[side].append(perfbench(sides[side], workload, seed, seconds, 0))
            print(f"pair {workload} seed {seed}: " + json.dumps(
                {s: {k: v["value"] for k, v in results[s][-1]["metrics"].items()}
                 for s in order}), file=sys.stderr)
        metrics = {}
        for name, rec in results["parent"][0]["metrics"].items():
            p, q, c = ([r["metrics"][name]["value"] for r in results[side]] for side in SIDES)
            aa = [y - x for x, y in zip(p, q)]
            metrics[f"{workload}/{name}"] = {
                "unit": rec["unit"], "parent": p, "parent_copy": q, "change": c,
                "parent_median": statistics.median(p), "change_median": statistics.median(c),
                "parent_quartiles": quartiles(p), "change_quartiles": quartiles(c),
                "change_pct": round(100.0 * (statistics.median(c) / statistics.median(p) - 1.0),
                                    2),
                "wins": sum(y < x for x, y in zip(p, c)),
                "losses": sum(y > x for x, y in zip(p, c)),
                "aa_gaps": aa, "aa_median_gap": statistics.median(aa),
                "aa_spread": max(abs(x) for x in quartiles(aa)[::2]),
            }
        out[workload] = {
            "seeds": seeds,
            "order": "the sides rotate: parent, parent-copy, change on the first seed",
            "runs_attempted": sum(r["attempted"] for s in results for r in results[s]),
            "runs_failed": sum(r["failed"] for s in results for r in results[s]),
            "all_correct": all(r["correct"] for s in results for r in results[s]),
            "metrics": metrics,
        }
    return out


def claim_verdict(table: dict, claim: str) -> dict:
    workload, metric = claim.split("/")
    m = table[workload]["metrics"][claim]
    n = len(m["parent"])
    iqr = m["parent_quartiles"][2] - m["parent_quartiles"][0]
    gap = m["parent_median"] - m["change_median"]
    met = m["wins"] >= 0.9 * n and gap > iqr and gap > m["aa_spread"]
    return {
        "metric": claim, "met": met,
        "statement": (f"over {n} pairs, {metric} moves from {m['parent_median']:.4g} to "
                      f"{m['change_median']:.4g} {m['unit']} ({m['change_pct']:+.2f}% of the "
                      f"parent median); the change wins {m['wins']} of {n} pairs, and the "
                      f"median gap ({gap:.4g}) {'exceeds' if gap > iqr else 'does not exceed'} "
                      f"the parent's interquartile range ({iqr:.4g}) and "
                      f"{'exceeds' if gap > m['aa_spread'] else 'does not exceed'} the A/A "
                      f"spread ({m['aa_spread']:.4g})"),
    }


def no_regression(table: dict, bounds: dict, claim: str | None) -> list[str]:
    rows = []
    for workload, rec in table.items():
        for key, m in rec["metrics"].items():
            if key == claim:
                continue
            bound = bounds[key.split("/")[1]]
            spread = (m["parent_quartiles"][2] - m["parent_quartiles"][0]) / m["parent_median"]
            within = m["change_median"] <= m["parent_median"] * (1.0 + bound)
            all_better = max(m["change"]) < min(m["parent"])
            if not within:
                word = "WORSE than its bound"
            elif spread > bound and not all_better:
                word = f"within, but unresolved (parent spread {spread:.1%})"
            else:
                word = "within"
            rows.append(f"{key}: {m['change_pct']:+.2f}% against a bound of +{bound:.0%} "
                        f"({m['wins']} of {len(m['parent'])} pairs faster/smaller, A/A median "
                        f"gap {m['aa_median_gap']:+.4g} {m['unit']}): {word}")
    return rows


# -- traced runs -------------------------------------------------------------------

def traced(sides: dict, seed: int, seconds: float) -> dict:
    out = {}
    for workload in WORKLOADS:
        out[workload] = {}
        for side in ("parent", "change"):
            metrics = perfbench(sides[side], workload, seed, seconds, 1)["metrics"]
            out[workload][side] = {k: metrics[k]["value"] for k in TRACED if k in metrics}
    return out


# -- both sides, and the file ------------------------------------------------------

def materialize(rev: str, work: Path) -> dict:
    sides = {side: work / side for side in SIDES}
    for d in sides.values():
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    for side in ("parent", "parent-copy"):
        subprocess.run(["tar", "-x", "-C", str(sides[side])], input=archive.stdout, check=True)
    listed = subprocess.run(["git", "ls-files", "-co", "--exclude-standard", "-z"], cwd=ROOT,
                            capture_output=True, check=True).stdout.decode().split("\0")
    for name in filter(None, listed):
        if (ROOT / name).is_file():
            (sides["change"] / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, sides["change"] / name)
    return sides


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode")
    one = sub.add_parser("child")
    one.add_argument("--src", required=True)
    one.add_argument("--config", required=True)
    one.add_argument("--out", required=True)
    ap.add_argument("--parent")
    ap.add_argument("--claim", help="WORKLOAD/METRIC, lower being better")
    ap.add_argument("--topic", default="")
    ap.add_argument("--out", default=str(ROOT / "BENCH_pairs.json"))
    ap.add_argument("--workdir")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=2601)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)
    if args.mode == "child":
        print(json.dumps(child(args.src, args.config, args.out)))
        return 0
    if not args.parent:
        ap.error("--parent is required")
    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    if args.claim:
        workload, _, metric = args.claim.partition("/")
        if workload not in WORKLOADS or metric not in bounds:
            ap.error(f"--claim must be one of {WORKLOADS} / one of {sorted(bounds)}")

    work = Path(args.workdir or tempfile.mkdtemp(prefix="bench-pairs-"))
    sides = materialize(args.parent, work)
    seeds = list(range(args.seed0, args.seed0 + args.pairs))
    result = {
        "topic": args.topic,
        "machine": machine(),
        "parent_commit": args.parent,
        "command": (f"python3 scripts/bench_pairs.py --parent {args.parent}"
                    + (f" --claim {args.claim}" if args.claim else "")
                    + f" --pairs {args.pairs} --seed0 {args.seed0} --seconds {args.seconds:g}"),
        "quartiles": "statistics.quantiles(n=4, method='inclusive') of the per-invocation "
                     "medians",
        "wins": "pairs in which the change's median is lower; ties count for neither",
        "aa_spread": "the larger absolute quartile of the gaps parent-copy minus parent",
    }
    result["outputs"] = outputs(sides, work)
    result["traced"] = {"command": f"perfbench/run.py --seed {args.seed0 + 100} --seconds "
                                   f"{args.seconds:g} --trace 1, once per side",
                        **traced(sides, args.seed0 + 100, args.seconds)}
    table = pairs(sides, seeds, args.seconds)
    result["claim"] = claim_verdict(table, args.claim) if args.claim else None
    result["no_regression"] = no_regression(table, bounds, args.claim)
    result["pairs"] = table
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result["claim"]))
    print("\n".join(result["no_regression"]))
    if not args.workdir:
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
