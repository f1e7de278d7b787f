"""Command-line surface: constants, validate, run, sweep.

Exit codes: 0 pass, 1 check failure, 2 rejected input (config key or value,
mesh or boundary split, sampling too coarse for the dissipation check),
3 numerical setup failure, 4 nonlinear solver failure.  FAILURES maps
exceptions to codes; run and sweep record the failure in manifest.json.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import diagnostics
from .config import (
    _KNOWN_KEYS,
    ConfigError,
    hypotheses_from_config,
    load_config,
    scenario_from_config,
)
from .constants import SetupError, validate_hypotheses
from .dynamics import NonlinearSolveFailure, Trajectory, prepare, simulate, write_trajectory_csv
from .geometry import MeshError
from .svgplot import line_plot

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_SETUP_FAILURE = 3
EXIT_SOLVER_FAILURE = 4

#: (exception types, exit code, manifest status); the only place an
#: exception is turned into an exit code.
FAILURES = (
    ((ConfigError, ValueError, OSError, MeshError), EXIT_CONFIG_ERROR, "config_error"),
    ((SetupError,), EXIT_SETUP_FAILURE, "setup_failure"),
    ((NonlinearSolveFailure,), EXIT_SOLVER_FAILURE, "solver_failure"),
)
_FAILURE_TYPES = tuple(t for types, _, _ in FAILURES for t in types)

#: CLI check name -> (result key, verdict attribute, call).  Checks run in
#: this order whatever the --check order.  Each call looks its function up
#: on diagnostics when it runs, so a wrapper installed there after import
#: (perfbench's tracer) is used.
CHECKS = {
    "well": ("well", "invariant_held",
             lambda traj, prep: diagnostics.well_monitor(traj, prep.constants)),
    "equivalence": ("equivalence", "ok",
                    lambda traj, prep: diagnostics.check_equivalence(traj, prep.constants)),
    "dissipation": ("dissipation", "ok",
                    lambda traj, prep: diagnostics.check_dissipation(
                        traj, prep.operators.delta_min)),
    "bound": ("decay", "bound_satisfied",
              lambda traj, prep: diagnostics.check_decay_bound(traj, prep.constants)),
}

_FORMULAS = {
    "rho": "coupling exponent",
    "dim": "space dimension",
    "R": "max |x - x0| over mesh vertices",
    "m0": "min (x - x0) . nu over damped-facet quadrature points",
    "lambda1": "smallest lambda with K x = lambda M x",
    "c0": "best |v|_Lp(domain) / |v|_V, p = 2(rho+1), times safety",
    "c1": "best |v|_L4(domain) / |v|_V, times safety",
    "c2": "best |w|_L4(damped bdry) / |w|_V, times safety",
    "c3": "best |w|_L2(damped bdry) / |w|_V, times safety",
    "N": "c0^(2(rho+1)) / (2(rho+1))",
    "lambda_star": "(1/(4N))^(1/(2 rho))",
    "N1": "(c1^4/2)(n + 1/4) + R c2^4/2 + c1^4 (n-1)",
    "lambda1_star": "(1/(4 N1))^(1/2)",
    "P": "4 (2R + (n-1)/2 + (n-1)/(2 lambda1))",
    "D": "R^3 + R + R^2 (n-1)^2 c3^2",
    "tau": "min(1/(2P), m0/D)",
    "safety": "inflation applied to c0..c3",
}


def _to_jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _to_jsonable(v) for k, v in vars(obj).items() if not k.startswith("_")}
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _write_manifest(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_to_jsonable(payload), indent=2, sort_keys=True) + "\n")


def _failure(exc: Exception) -> tuple[int, str]:
    """(exit code, manifest status) of a failure, reported on stderr."""
    code, status = next((code, status) for types, code, status in FAILURES
                        if isinstance(exc, types))
    print(f"{status.replace('_', ' ')}: {exc}", file=sys.stderr)
    return code, status


def cmd_constants(cfg: dict[str, str]) -> int:
    report = validate_hypotheses(*hypotheses_from_config(cfg))
    if not report.valid:
        print("\n".join(report.lines()))
        print("hypothesis check failed; constants not computed", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    prep = prepare(scenario_from_config(cfg))
    wc = prep.constants
    print(f"{'name':14s} {'value':>24s}  formula")
    for name, formula in _FORMULAS.items():
        print(f"{name:14s} {getattr(wc, name):>24.16g}  {formula}")
    print()
    for line in diagnostics.report_lines(wc, _setup_groups(prep)):
        print(line)
    return EXIT_OK


def cmd_validate(cfg: dict[str, str]) -> int:
    report = validate_hypotheses(*hypotheses_from_config(cfg))
    print("\n".join(report.lines()))
    return EXIT_OK if report.valid else EXIT_CHECK_FAILURE


def _setup_groups(prep) -> dict:
    """Report groups known after setup: the initial data's admissibility and
    the premises of the decay constants."""
    return {"admissibility": prep.admissibility,
            "premises": {"delta_mdotnu": prep.config.delta_kind == "mdotnu"}}


def _plot(trajectory: Trajectory, wc, path: Path) -> None:
    times = trajectory.times()
    energies = trajectory.energies()
    floor = 1e-300
    log_e = np.fromiter(map(math.log10, np.maximum(energies, floor)), float, len(energies))
    series = [(times, log_e, "log10 E(t)")]
    e0 = energies[0]
    if e0 > 0:
        rate = wc.tau / 3.0
        bound = math.log10(3.0 * e0) - rate * times / math.log(10.0)
        series.append((times, bound, "log10 bound"))
    line_plot(path, series, title="energy decay", xlabel="t", ylabel="log10 E")


def _open_manifest(out_dir: Path, cfg: dict[str, str]) -> tuple[Path, dict]:
    """(path, fields) of the run directory's manifest, written as running."""
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.json"
    manifest = {
        "scenario": cfg.get("scenario.name"),
        "status": "running",
        "exit_code": None,
        "config": dict(sorted(cfg.items())),
        "outputs": [],
    }
    _write_manifest(manifest_path, manifest)
    return manifest_path, manifest


def _finalize_failure(manifest_path: Path, manifest: dict, exc: Exception) -> int:
    """Record the failure in the manifest; returns its exit code."""
    code, status = _failure(exc)
    manifest.update(status=status, exit_code=code, error=str(exc))
    if isinstance(exc, NonlinearSolveFailure):
        manifest["failing_time"] = exc.time
    _write_manifest(manifest_path, manifest)
    return code


def _execute_run(cfg: dict[str, str], out_dir: Path, checks, no_plot: bool) -> tuple[int, dict]:
    """Shared by run and sweep; returns (exit code, summary fields)."""
    manifest_path, manifest = _open_manifest(out_dir, cfg)
    summary: dict = {}
    selected = [CHECKS[name] for name in CHECKS if name in checks]
    try:
        scenario = scenario_from_config(cfg)
        manifest["scenario"] = scenario.name
        prep = prepare(scenario)
        manifest["constants"] = prep.constants
        manifest["admissibility"] = prep.admissibility
        manifest["admissible"] = prep.admissibility.admissible
        if "dissipation" in checks:
            # the dissipation check needs fine sampling: a coarse run is
            # rejected at its widest sample pair, before its first step
            diagnostics.require_fine_sampling(min(scenario.stride, prep.n_steps) * prep.dt)
        trajectory = simulate(prep)
        results = {key: run(trajectory, prep) for key, _, run in selected}
        # a failed write (a full disk, a directory in a file's place) is
        # recorded in the manifest like any other rejected input
        csv_path = out_dir / "trajectory.csv"
        write_trajectory_csv(trajectory, prep.constants, csv_path)
        outputs = [csv_path.name]
        wc = prep.constants
        details = {**results, **_setup_groups(prep)}
        report_txt = out_dir / "report.txt"
        report_txt.write_text(
            diagnostics.render_report(wc, details, header=f"run: {scenario.name}") + "\n")
        outputs.append(report_txt.name)
        report_kv = out_dir / "report.kv"
        report_kv.write_text("\n".join(diagnostics.report_lines(wc, details)) + "\n")
        outputs.append(report_kv.name)
        if not no_plot:
            svg_path = out_dir / "energy.svg"
            _plot(trajectory, wc, svg_path)
            outputs.append(svg_path.name)
    except _FAILURE_TYPES as exc:
        return _finalize_failure(manifest_path, manifest, exc), summary

    passed = all(getattr(results[key], verdict) for key, verdict, _ in selected)
    code = EXIT_OK if passed else EXIT_CHECK_FAILURE
    manifest.update(
        status="pass" if passed else "check_failure",
        exit_code=code,
        outputs=outputs,
        checks=results,
    )
    _write_manifest(manifest_path, manifest)
    print(report_txt.read_text(), end="")

    decay = results.get("decay")
    well = results.get("well")
    summary = {
        "E0": trajectory.energies()[0],
        "fitted_rate": decay.fitted_rate if decay else math.nan,
        "invariant_held": well.invariant_held if well else True,
        "bound_satisfied": decay.bound_satisfied if decay else True,
    }
    return code, summary


def cmd_run(config_path: str, out: str, raw_checks: str, no_plot: bool) -> int:
    try:
        cfg = load_config(config_path)
        checks = _parse_checks(raw_checks)
    except ConfigError as exc:
        # a config that cannot be read still leaves a finalized manifest
        return _finalize_failure(*_open_manifest(Path(out), {}), exc)
    code, _ = _execute_run(cfg, Path(out), checks, no_plot)
    return code


def cmd_sweep(cfg: dict[str, str], out: str, parameter: str, values, checks,
              no_plot: bool) -> int:
    if not values:
        print("sweep needs a non-empty value list", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    if parameter not in _KNOWN_KEYS:
        print(f"unknown sweep parameter '{parameter}'", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    worst = EXIT_OK
    for value in values:
        sub_cfg = dict(cfg)
        sub_cfg[parameter] = value
        tag = f"{parameter.replace('.', '_')}_{value}"
        code, summary = _execute_run(sub_cfg, out_dir / tag, checks, no_plot)
        worst = max(worst, code)
        rows.append((value, summary))
    summary_path = out_dir / "sweep_summary.csv"
    with open(summary_path, "w") as fh:
        fh.write("value,E0,fitted_rate,invariant_held,bound_satisfied\n")
        for value, s in rows:
            fh.write(",".join([
                str(value),
                f"{s.get('E0', math.nan):.17g}",
                f"{s.get('fitted_rate', math.nan):.17g}",
                "true" if s.get("invariant_held", False) else "false",
                "true" if s.get("bound_satisfied", False) else "false",
            ]) + "\n")
    print(f"sweep summary written to {summary_path}")
    return worst


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kgwell",
        description="coupled wave system with boundary damping: constants, "
                    "simulation, and decay verification",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_out=True):
        p.add_argument("--config", required=True, help="flat key=value config file")
        if with_out:
            p.add_argument("--out", default="out", help="output directory")
            p.add_argument("--no-plot", action="store_true", help="skip the SVG plot")
            p.add_argument("--check", default=",".join(CHECKS),
                           help="comma list from: " + ",".join(CHECKS))

    common(sub.add_parser("constants", help="print the constants table"), with_out=False)
    common(sub.add_parser("validate", help="check the exponent/dimension hypotheses"),
           with_out=False)
    common(sub.add_parser("run", help="simulate and verify one scenario"))
    sweep = sub.add_parser("sweep", help="run a scenario per parameter value")
    common(sweep)
    sweep.add_argument("--param", required=True, help="dotted config key to vary")
    sweep.add_argument("--values", required=True,
                       help="comma-separated values for the swept key")
    return ap


def _parse_checks(raw: str):
    checks = tuple(tok.strip() for tok in raw.split(",") if tok.strip())
    for c in checks:
        if c not in CHECKS:
            raise ConfigError(f"unknown check '{c}'; valid: {', '.join(CHECKS)}")
    return checks


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, args.out, args.check, args.no_plot)
        cfg = load_config(args.config)
        if args.command == "constants":
            return cmd_constants(cfg)
        if args.command == "validate":
            return cmd_validate(cfg)
        checks = _parse_checks(args.check)
        values = [tok.strip() for tok in args.values.split(",") if tok.strip()]
        return cmd_sweep(cfg, args.out, args.param, values, checks, args.no_plot)
    except _FAILURE_TYPES as exc:
        return _failure(exc)[0]


if __name__ == "__main__":
    sys.exit(main())
