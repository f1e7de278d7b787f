import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from kgwell import diagnostics
from kgwell.cli import _FORMULAS, main
from kgwell.config import (
    INITIAL_FIELDS,
    KEYS,
    ConfigError,
    _floats,
    hypotheses_from_config,
    parse_config_text,
    scenario_from_config,
)
from kgwell.constants import WellConstants
from kgwell.dynamics import FIELD_PRESETS

DECAY_1D = """\
scenario.name = decay-1d
mesh.kind = interval
mesh.a = 0.0
mesh.b = 1.0
mesh.elements = 60        # coarse enough to keep tests quick
geometry.x0 = 0.0
coupling.rho = 1.0
time.dt = 2e-3
time.t_end = 1.0
time.stride = 10
initial.u0 = eigenfunction
initial.u0_amplitude = 0.1
initial.v0 = eigenfunction
initial.v0_amplitude = 0.1
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_config_basics():
    cfg = parse_config_text(DECAY_1D)
    assert cfg["mesh.kind"] == "interval"
    assert cfg["mesh.elements"] == "60"  # comment stripped
    assert "scenario.name" in cfg


def test_parse_config_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_config_text("mesh.kind interval\n")
    with pytest.raises(ConfigError):
        parse_config_text("mesh.kind =\n")
    with pytest.raises(ConfigError):
        parse_config_text("mesh.knid = interval\n")


def test_scenario_from_config_roundtrip():
    sc = scenario_from_config(parse_config_text(DECAY_1D))
    assert sc.name == "decay-1d"
    assert sc.mesh_kind == "interval"
    assert sc.elements == 60
    assert sc.dt == 2e-3
    assert sc.u0.preset == "eigenfunction"
    assert sc.u0.amplitude == 0.1


def test_missing_key_is_named():
    cfg = parse_config_text(DECAY_1D)
    del cfg["mesh.kind"]
    with pytest.raises(ConfigError, match="mesh.kind"):
        scenario_from_config(cfg)
    cfg2 = parse_config_text(DECAY_1D)
    del cfg2["mesh.elements"]
    with pytest.raises(ConfigError, match="mesh.elements"):
        scenario_from_config(cfg2)


def test_nonpositive_rho_rejected():
    cfg = parse_config_text(DECAY_1D)
    cfg["coupling.rho"] = "-1.0"
    with pytest.raises(ConfigError, match="rho"):
        scenario_from_config(cfg)


def test_x0_dimension_checked():
    cfg = parse_config_text(DECAY_1D)
    cfg["geometry.x0"] = "0.0 0.0"
    with pytest.raises(ConfigError, match="x0"):
        scenario_from_config(cfg)


def test_hypotheses_defaults():
    # rho is coupling.rho, n the dimension of mesh.kind, theta hypotheses.theta
    cfg = parse_config_text(DECAY_1D)
    rho, n, theta = hypotheses_from_config(cfg)
    assert (rho, n, theta) == (1.0, 1, None)
    cfg["coupling.rho"] = "0.4"
    cfg["hypotheses.theta"] = "1.4"
    assert hypotheses_from_config(cfg) == (0.4, 1, 1.4)
    rect = parse_config_text(DECAY_1D + "mesh.kind = rectangle\nmesh.lo = 0 0\nmesh.hi = 1 1\n"
                             "mesh.nx = 4\nmesh.ny = 4\ngeometry.x0 = -0.1 -0.1\n")
    assert hypotheses_from_config(rect) == (1.0, 2, None)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_constants_table(tmp_path, capsys):
    path = write_cfg(tmp_path, DECAY_1D)
    assert main(["constants", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "lambda1" in out and "tau" in out
    assert "constants.tau=0.0625" in out
    # lambda1 close to (pi/2)^2 even on the coarse mesh
    lam = [ln for ln in out.splitlines() if ln.startswith("lambda1")][0].split()[1]
    assert abs(float(lam) - (np.pi / 2) ** 2) < 1e-3 * (np.pi / 2) ** 2


def test_cli_constants_fine_interval(tmp_path, capsys):
    # 1000 elements: the eigenpair is accurate although its residual
    # relative to ||M x|| is about 2e-10
    path = write_cfg(tmp_path, DECAY_1D.replace("mesh.elements = 60",
                                                "mesh.elements = 1000"))
    assert main(["constants", "--config", path]) == 0
    assert "constants.tau=0.0625" in capsys.readouterr().out


def test_cli_constants_missing_key(tmp_path, capsys):
    path = write_cfg(tmp_path, DECAY_1D.replace("mesh.elements = 60", ""))
    assert main(["constants", "--config", path]) == 2
    assert "mesh.elements" in capsys.readouterr().err


def test_cli_constants_bad_rho(tmp_path, capsys):
    path = write_cfg(tmp_path, DECAY_1D.replace("coupling.rho = 1.0",
                                                "coupling.rho = -0.5"))
    assert main(["constants", "--config", path]) == 2


def test_cli_validate(tmp_path, capsys):
    path = write_cfg(tmp_path, DECAY_1D)
    assert main(["validate", "--config", path]) == 0
    bad = write_cfg(tmp_path, DECAY_1D + "coupling.rho = 0.2\nhypotheses.theta = 1.1\n",
                    name="bad.cfg")
    assert main(["validate", "--config", bad]) == 1
    out = capsys.readouterr().out
    assert "no regime satisfied" in out


@pytest.mark.parametrize("rho, valid", [("0.2", False), ("1.0", True)])
def test_cli_hypotheses_are_the_scenario_s(tmp_path, capsys, rho, valid):
    # 4 rho theta = 0.88 < 1 at rho = 0.2: no regime holds for the run's own
    # rho, so validate fails and constants refuses to compute
    text = DECAY_1D.replace("coupling.rho = 1.0", f"coupling.rho = {rho}")
    path = write_cfg(tmp_path, text + "hypotheses.theta = 1.1\n")
    assert main(["validate", "--config", path]) == (0 if valid else 1)
    assert f"rho={float(rho):g} n=1 theta=1.1" in capsys.readouterr().out
    assert main(["constants", "--config", path]) == (0 if valid else 2)
    captured = capsys.readouterr()
    assert ("hypothesis check failed" in captured.err) is not valid
    assert ("lambda1" in captured.out) is valid


def test_cli_run_zero_scenario(tmp_path, capsys):
    text = DECAY_1D.replace("initial.u0 = eigenfunction", "initial.u0 = zero")
    text = text.replace("initial.v0 = eigenfunction", "initial.v0 = zero")
    path = write_cfg(tmp_path, text)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out_dir), "--no-plot"]) == 0
    csv = (out_dir / "trajectory.csv").read_text().splitlines()
    energies = [float(row.split(",")[1]) for row in csv[1:]]
    assert all(e == 0.0 for e in energies)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["status"] == "pass"
    for name in manifest["outputs"]:
        assert (out_dir / name).exists()
    assert not (out_dir / "energy.svg").exists()  # --no-plot


def test_cli_run_decay_scenario(tmp_path, capsys):
    path = write_cfg(tmp_path, DECAY_1D)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out_dir)]) == 0
    kv = (out_dir / "report.kv").read_text()
    assert "decay.bound_satisfied=true" in kv
    assert "well.invariant_held=true" in kv
    svg = (out_dir / "energy.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["exit_code"] == 0
    assert manifest["admissible"] is True


def test_cli_run_check_subset(tmp_path):
    path = write_cfg(tmp_path, DECAY_1D)
    out_dir = tmp_path / "subset"
    assert main(["run", "--config", path, "--out", str(out_dir),
                 "--no-plot", "--check", "well,bound"]) == 0
    kv = (out_dir / "report.kv").read_text()
    assert "dissipation." not in kv
    assert "well.invariant_held=true" in kv


def test_cli_calls_each_check_through_diagnostics_once(tmp_path, monkeypatch):
    # perfbench's tracer wraps kgwell.diagnostics.<check> after import; a
    # default run must reach each wrapper exactly once, counting the calls
    # one check might make to another
    names = ("well_monitor", "check_equivalence", "check_dissipation", "check_decay_bound")
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in names:
        monkeypatch.setattr(diagnostics, name, counting(name, getattr(diagnostics, name)))
    path = write_cfg(tmp_path, DECAY_1D)
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert calls == dict.fromkeys(names, 1)


def test_admissibility_keys_name_the_active_threshold(tmp_path):
    path = write_cfg(tmp_path, DECAY_1D)  # rho = 1: the regular well is active
    out_dir = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out_dir), "--no-plot"]) == 0
    kv = (out_dir / "report.kv").read_text().splitlines()
    assert "admissibility.threshold_kind=regular" in kv
    keys = [line.split("=")[0] for line in kv if line.startswith("admissibility.")]
    assert "admissibility.norms_below_threshold" in keys
    assert "admissibility.L_below_quarter_threshold_sq" in keys
    assert not [key for key in keys if "lambda_star" in key]


def test_constants_table_lists_every_field_once(tmp_path):
    fields = [f.name for f in dataclasses.fields(WellConstants)]
    assert set(_FORMULAS) == set(fields)
    path = write_cfg(tmp_path, DECAY_1D)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out_dir), "--no-plot"]) == 0
    kv = (out_dir / "report.kv").read_text().splitlines()
    names = [line.split("=")[0].removeprefix("constants.") for line in kv
             if line.startswith("constants.")]
    assert sorted(names) == sorted(fields)


def test_cli_run_solver_failure(tmp_path, capsys):
    # stride * dt is far too coarse for the dissipation check, which would
    # reject the run before its first step, so that check is not selected
    text = DECAY_1D.replace("time.dt = 2e-3", "time.dt = 10.0")
    text = text.replace("time.t_end = 1.0", "time.t_end = 20.0")
    text = text.replace("initial.u0_amplitude = 0.1",
                        "initial.u0_amplitude = 5.0\ninitial.u0_scale = absolute")
    text = text.replace("initial.v0_amplitude = 0.1",
                        "initial.v0_amplitude = 5.0\ninitial.v0_scale = absolute")
    path = write_cfg(tmp_path, text)
    out_dir = tmp_path / "fail"
    assert main(["run", "--config", path, "--out", str(out_dir),
                 "--check", "well,equivalence,bound"]) == 4
    err = capsys.readouterr().err
    assert "t = 0" in err  # failing time surfaced
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["status"] == "solver_failure"
    assert manifest["exit_code"] == 4


def test_cli_run_unknown_check(tmp_path, capsys):
    path = write_cfg(tmp_path, DECAY_1D)
    assert main(["run", "--config", path, "--out", str(tmp_path / "x"),
                 "--check", "wel"]) == 2


def test_cli_setup_failure_without_clamped_boundary(tmp_path, capsys):
    # a star point inside the domain damps the whole boundary, leaving no
    # clamped nodes; eigenvalue and embedding constants are then undefined
    text = DECAY_1D.replace("geometry.x0 = 0.0", "geometry.x0 = 0.5")
    path = write_cfg(tmp_path, text)
    assert main(["constants", "--config", path]) == 3
    assert "clamped" in capsys.readouterr().err


def test_cli_best_constant_that_does_not_settle_is_a_setup_failure(tmp_path, capsys,
                                                                    monkeypatch):
    # one iteration cannot move the quotient less than BEST_CONSTANT_TOL
    import kgwell.constants as constants

    monkeypatch.setattr(constants, "BEST_CONSTANT_MAX_ITER", 1)
    config = Path(__file__).resolve().parent.parent / "demos" / "configs" / "zero.cfg"
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out_dir), "--no-plot"]) == 3
    message = "best-constant iteration did not converge within 1 iterations"
    assert capsys.readouterr().err == f"setup failure: {message}\n"
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["status"] == "setup_failure"
    assert manifest["exit_code"] == 3
    assert manifest["error"] == message
    assert not (out_dir / "trajectory.csv").exists()


def test_cli_run_check_failure(tmp_path, capsys):
    # inadmissible amplitude: the well monitor reports a violation at t = 0
    text = DECAY_1D.replace("initial.u0_amplitude = 0.1",
                            "initial.u0_amplitude = 2.0")
    text = text.replace("time.t_end = 1.0", "time.t_end = 0.1")
    path = write_cfg(tmp_path, text)
    out_dir = tmp_path / "violate"
    assert main(["run", "--config", path, "--out", str(out_dir),
                 "--no-plot", "--check", "well"]) == 1
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["status"] == "check_failure"
    assert (out_dir / "trajectory.csv").exists()  # files written regardless


def test_cli_sweep_amplitudes(tmp_path, capsys):
    path = write_cfg(tmp_path, DECAY_1D)
    out_dir = tmp_path / "sweep"
    code = main(["sweep", "--config", path, "--out", str(out_dir),
                 "--param", "initial.u0_amplitude", "--values", "0.1,0.2",
                 "--no-plot"])
    assert code == 0
    rows = (out_dir / "sweep_summary.csv").read_text().splitlines()
    assert rows[0] == "value,E0,fitted_rate,invariant_held,bound_satisfied"
    assert len(rows) == 3
    for row in rows[1:]:
        fields = row.split(",")
        assert fields[3] == "true" and fields[4] == "true"
    # per-run directories with manifests exist
    subdirs = [p for p in out_dir.iterdir() if p.is_dir()]
    assert len(subdirs) == 2
    for sub in subdirs:
        assert (sub / "manifest.json").exists()


def test_cli_sweep_rejects_empty_values(tmp_path, capsys):
    path = write_cfg(tmp_path, DECAY_1D)
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "s"),
                 "--param", "time.dt", "--values", ""]) == 2
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "s"),
                 "--param", "nope.key", "--values", "1"]) == 2


def test_cli_run_deterministic_csv(tmp_path):
    path = write_cfg(tmp_path, DECAY_1D)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--config", path, "--out", str(out1), "--no-plot"]) == 0
    assert main(["run", "--config", path, "--out", str(out2), "--no-plot"]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_cli_run_constant_damping_dissipation_holds(tmp_path):
    # delta = 0.2 everywhere on the damped end: the check must use the
    # damping that was assembled (delta_min = 0.2), not the geometric m0 = 1
    text = DECAY_1D + "delta.kind = constant\ndelta.value = 0.2\n"
    path = write_cfg(tmp_path, text)
    out_dir = tmp_path / "const"
    assert main(["run", "--config", path, "--out", str(out_dir), "--no-plot",
                 "--check", "dissipation"]) == 0
    assert "dissipation.ok=true" in (out_dir / "report.kv").read_text()


@pytest.mark.parametrize("extra,held", [
    ("", True),
    ("delta.kind = constant\ndelta.value = 0.2\n", False),
], ids=["mdotnu", "constant"])
def test_cli_records_delta_premise(tmp_path, capsys, extra, held):
    path = write_cfg(tmp_path, DECAY_1D + extra)
    line = f"premises.delta_mdotnu={'true' if held else 'false'}"
    assert main(["constants", "--config", path]) == 0
    assert line in capsys.readouterr().out.splitlines()
    out_dir = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out_dir), "--no-plot",
                 "--check", "dissipation"]) == 0
    assert line in (out_dir / "report.kv").read_text().splitlines()
    verdict = "holds" if held else "does NOT hold"
    assert f"premise delta = m.nu (assumed by m0, tau and the decay bound): {verdict}" in (
        out_dir / "report.txt").read_text().splitlines()


#: Keys that are no longer settable: an old config that sets one is rejected
#: as setting an unknown key, not run without it.
REMOVED_KEYS = ("coupling.quad_degree", "delta.floor", "hypotheses.rho", "hypotheses.n",
                *(f"initial.{name}_file" for name in INITIAL_FIELDS))

#: (subcommand, config edit) pairs that must be rejected as input errors.
INPUT_ERRORS = {
    "zero_elements": ("run", lambda tmp: "mesh.elements = 0\n"),
    "b_not_above_a": ("run", lambda tmp: "mesh.b = 0.0\n"),
    "negative_rho": ("run", lambda tmp: "coupling.rho = -1.0\n"),
    "sampling_too_coarse": ("run", lambda tmp: "time.stride = 100\n"),
    # validate reads n from the scenario, so it rejects a mesh kind run rejects
    "validate_unknown_mesh_kind": ("validate", lambda tmp: "mesh.kind = disk\n"),
    "zero_solver_tol": ("run", lambda tmp: "solver.tol = 0\n"),
    "negative_solver_tol": ("run", lambda tmp: "solver.tol = -1\n"),
    "zero_solver_max_iter": ("run", lambda tmp: "solver.max_iter = 0\n"),
    "safety_below_one": ("run", lambda tmp: "constants.safety = 0.5\n"),
    "infinite_t_end": ("run", lambda tmp: "time.t_end = inf\n"),
    "infinite_rho": ("run", lambda tmp: "coupling.rho = inf\n"),
    "constants_infinite_rho": ("constants", lambda tmp: "coupling.rho = inf\n"),
    "validate_infinite_rho": ("validate", lambda tmp: "coupling.rho = inf\n"),
    "nan_constant_delta": ("run", lambda tmp: "delta.kind = constant\ndelta.value = nan\n"),
    "infinite_constant_delta": ("run",
                                lambda tmp: "delta.kind = constant\ndelta.value = inf\n"),
    **{f"removed_{key}": ("run", lambda tmp, key=key: f"{key} = 1\n") for key in REMOVED_KEYS},
}


@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_cli_input_errors_exit_2_with_final_manifest(tmp_path, capsys, case):
    command, edit = INPUT_ERRORS[case]
    # later lines override earlier ones, so the edit replaces the base value
    path = write_cfg(tmp_path, DECAY_1D + edit(tmp_path))
    out_dir = tmp_path / "out"
    argv = [command, "--config", path]
    if command == "run":
        argv += ["--out", str(out_dir), "--no-plot"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    if case.startswith("removed_"):
        assert "unknown config key" in err
    if command == "run":
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["status"] == "config_error"
        assert manifest["exit_code"] == 2
        assert manifest["error"]
        assert not (out_dir / "trajectory.csv").exists()


def test_cli_coarse_sampling_stops_at_the_first_sample_pair(tmp_path, capsys, monkeypatch):
    # stride * dt = 0.2 over a horizon of 500 steps: rejected before the
    # first step
    import kgwell.dynamics as dynamics

    calls = []
    real_step = dynamics.step

    def counting_step(*args, **kwargs):
        calls.append(None)
        return real_step(*args, **kwargs)

    monkeypatch.setattr(dynamics, "step", counting_step)
    text = DECAY_1D + "time.stride = 100\n" + "time.t_end = 1.0\n"
    out_dir = tmp_path / "coarse"
    assert main(["run", "--config", write_cfg(tmp_path, text), "--out", str(out_dir)]) == 2
    assert "too coarse" in capsys.readouterr().err
    assert calls == []
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["status"] == "config_error"
    assert manifest["exit_code"] == 2
    assert not (out_dir / "trajectory.csv").exists()


@pytest.mark.parametrize("blocked", ["trajectory.csv", "report.kv", "energy.svg"])
def test_cli_failed_output_write_exits_2_with_final_manifest(tmp_path, capsys, blocked):
    # a directory where an output file goes makes its write fail
    text = DECAY_1D.replace("time.t_end = 1.0", "time.t_end = 0.1")
    out_dir = tmp_path / "out"
    (out_dir / blocked).mkdir(parents=True)
    assert main(["run", "--config", write_cfg(tmp_path, text), "--out", str(out_dir)]) == 2
    assert "config error" in capsys.readouterr().err
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["status"] == "config_error"
    assert manifest["exit_code"] == 2
    assert blocked in manifest["error"]


def test_cli_horizon_shorter_than_the_stride_is_one_fine_sample_pair(tmp_path):
    # stride * dt = 0.2 is coarse, but the horizon ends after 5 steps: the one
    # sample pair spans 0.05, fine enough for the dissipation check
    text = DECAY_1D + "time.dt = 0.01\ntime.stride = 20\ntime.t_end = 0.05\n"
    out_dir = tmp_path / "short"
    argv = ["run", "--config", write_cfg(tmp_path, text), "--out", str(out_dir), "--no-plot"]
    assert main(argv) == 0
    assert len((out_dir / "trajectory.csv").read_text().splitlines()) == 1 + 2


#: A 10-element interval and a 4^2 square, each run for a few steps.
SHORT_INTERVAL = DECAY_1D.replace("mesh.elements = 60", "mesh.elements = 10") + (
    "time.dt = 1e-2\ntime.t_end = 0.05\ntime.stride = 1\n")
SHORT_SQUARE = SHORT_INTERVAL + (
    "mesh.kind = rectangle\nmesh.lo = 0.0 0.0\nmesh.hi = 1.0 1.0\nmesh.nx = 4\nmesh.ny = 4\n"
    "geometry.x0 = -0.1 -0.1\n")

#: Every float-valued key that run reads (hypotheses.theta is validate's).
RUN_FLOAT_KEYS = sorted(key for key, (_, parse) in KEYS.items()
                        if parse in (float, _floats) and key != "hypotheses.theta")


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("key", RUN_FLOAT_KEYS)
def test_cli_non_finite_float_keys_exit_2_with_final_manifest(tmp_path, capsys, key, bad):
    rectangle = key in ("mesh.lo", "mesh.hi")
    text = SHORT_SQUARE if rectangle else SHORT_INTERVAL
    # the other coordinate of a rectangle's key stays finite
    text += f"{key} = {bad} 0.5\n" if rectangle else f"{key} = {bad}\n"
    if key == "delta.value":
        text += "delta.kind = constant\n"
    out_dir = tmp_path / "out"
    argv = ["run", "--config", write_cfg(tmp_path, text), "--out", str(out_dir), "--no-plot"]
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert (manifest["status"], manifest["exit_code"]) == ("config_error", 2)
    assert manifest["error"]
    assert not (out_dir / "trajectory.csv").exists()


@pytest.mark.parametrize("command,base,edit,named", [
    ("run", SHORT_INTERVAL, "mesh.b = inf\n", "b=inf"),
    ("run", SHORT_SQUARE, "mesh.hi = inf 1.0\n", "(inf, 1.0)"),
    ("run", SHORT_INTERVAL, "time.dt = nan\n", "dt must be positive and finite, got nan"),
    ("run", SHORT_INTERVAL, "time.t_end = nan\n", "t_end must be positive and finite, got nan"),
    # run does not read hypotheses.theta; validate and constants do
    *((command, SHORT_INTERVAL, f"hypotheses.theta = {bad}\n",
       f"hypotheses.theta: must be finite, got {bad}")
      for command in ("validate", "constants") for bad in ("nan", "inf")),
], ids=["interval_end", "rectangle_corner", "dt", "t_end", "validate_theta_nan",
        "validate_theta_inf", "constants_theta_nan", "constants_theta_inf"])
def test_cli_non_finite_rejection_names_the_bad_value(tmp_path, capsys, command, base, edit,
                                                     named):
    out_dir = tmp_path / "out"
    argv = [command, "--config", write_cfg(tmp_path, base + edit)]
    if command == "run":
        argv += ["--out", str(out_dir), "--no-plot"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err
    if command == "run":
        assert named in json.loads((out_dir / "manifest.json").read_text())["error"]


def test_cli_coarse_sampling_runs_without_the_dissipation_check(tmp_path):
    text = DECAY_1D + "time.stride = 100\n"
    out_dir = tmp_path / "coarse"
    argv = ["run", "--config", write_cfg(tmp_path, text), "--out", str(out_dir),
            "--no-plot", "--check", "well,equivalence,bound"]
    assert main(argv) == 0
    assert (out_dir / "trajectory.csv").exists()


def test_cli_sweep_records_bad_value_and_goes_on(tmp_path, capsys):
    path = write_cfg(tmp_path, DECAY_1D)
    out_dir = tmp_path / "sweep"
    code = main(["sweep", "--config", path, "--out", str(out_dir),
                 "--param", "mesh.elements", "--values", "10,0,20", "--no-plot"])
    assert code == 2
    statuses = {}
    for value in ("10", "0", "20"):
        manifest = json.loads((out_dir / f"mesh_elements_{value}" / "manifest.json").read_text())
        statuses[value] = (manifest["status"], manifest["exit_code"])
    assert statuses == {"10": ("pass", 0), "0": ("config_error", 2), "20": ("pass", 0)}
    rows = (out_dir / "sweep_summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["10", "0", "20"]


def test_readme_config_table_lists_exactly_the_known_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Configuration format", 1)[1].split("\n## ", 1)[0]
    listed = set()
    presets = None
    for row in section.splitlines():
        if not row.startswith("| `"):
            continue
        cells = row.split("|")
        for key in re.findall(r"`([a-z_]+\.[a-z0-9_]+)`", cells[1]):
            # an initial.u0* row stands for the same key of all four fields
            listed |= {key.replace("u0", name, 1) for name in INITIAL_FIELDS}
        if cells[1].strip().startswith("`initial.u0` "):
            presets = re.findall(r"`([a-z]+)`", cells[2])
    assert listed == set(KEYS)
    assert presets == list(FIELD_PRESETS)
