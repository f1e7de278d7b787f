"""Flat key = value configuration files (dotted sections, '#' comments).

Example::

    scenario.name = decay-1d
    mesh.kind = interval
    mesh.a = 0.0
    mesh.b = 1.0
    mesh.elements = 200
    geometry.x0 = 0.0
    coupling.rho = 1.0
    time.dt = 1e-3
    time.t_end = 50.0
    initial.u0 = eigenfunction
    initial.u0_amplitude = 0.1

Every key is a row of KEYS; a key the file omits keeps the ScenarioConfig
or FieldInit default, and value checks live in those dataclasses.
"""

from __future__ import annotations

from collections import defaultdict

from .dynamics import FieldInit, ScenarioConfig


class ConfigError(Exception):
    """Malformed, missing, or inconsistent configuration."""


def _bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split())


def _relative(raw: str) -> bool:
    if raw not in ("relative", "absolute"):
        raise ValueError(f"expected 'relative' or 'absolute', got {raw!r}")
    return raw == "relative"


#: The four initial fields, each configured by initial.<name>{,_amplitude,...}.
INITIAL_FIELDS = ("u0", "v0", "u1", "v1")

#: Config key -> (target, parser). A target without a dot is a ScenarioConfig
#: field ("a" and "b" are the interval ends); "<field>.<attr>" is a FieldInit
#: attribute of that initial field; "hypotheses.<arg>" a validator input.
KEYS = {
    "scenario.name": ("name", str),
    "mesh.kind": ("mesh_kind", str),
    "mesh.a": ("a", float),
    "mesh.b": ("b", float),
    "mesh.elements": ("elements", int),
    "mesh.lo": ("rect_lo", _floats),
    "mesh.hi": ("rect_hi", _floats),
    "mesh.nx": ("nx", int),
    "mesh.ny": ("ny", int),
    "geometry.x0": ("x0", _floats),
    "coupling.rho": ("rho", float),
    "coupling.enabled": ("coupling_enabled", _bool),
    "coupling.quad_degree": ("quad_degree", int),
    "delta.kind": ("delta_kind", str),
    "delta.value": ("delta_value", float),
    "delta.floor": ("delta_floor", float),
    "time.dt": ("dt", float),
    "time.t_end": ("t_end", float),
    "time.stride": ("stride", int),
    "solver.tol": ("solver_tol", float),
    "solver.max_iter": ("solver_max_iter", int),
    "constants.safety": ("safety", float),
    **{f"initial.{name}{suffix}": (f"{name}.{attr}", parse)
       for name in INITIAL_FIELDS
       for suffix, attr, parse in (("", "preset", str), ("_amplitude", "amplitude", float),
                                   ("_scale", "relative", _relative), ("_file", "path", str))},
    "hypotheses.rho": ("hypotheses.rho", float),
    "hypotheses.n": ("hypotheses.n", int),
    "hypotheses.theta": ("hypotheses.theta", float),
}

_KNOWN_KEYS = frozenset(KEYS)

#: Geometry keys each mesh kind requires; the other kind's keys are ignored.
_MESH_KEYS = {
    "interval": ("mesh.a", "mesh.b", "mesh.elements"),
    "rectangle": ("mesh.lo", "mesh.hi", "mesh.nx", "mesh.ny"),
}


def parse_config_text(text: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown config key '{key}'")
        cfg[key] = value
    return cfg


def load_config(path) -> dict[str, str]:
    try:
        with open(path) as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc


def _value(cfg: dict[str, str], key: str, parse):
    """The parsed value of `key`; every error names the key."""
    if key not in cfg:
        raise ConfigError(f"missing config key: {key}")
    try:
        return parse(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key}: {exc}") from None


def _targets(cfg: dict[str, str], required=(), ignored=()) -> dict[str, dict]:
    """Parsed values of the set (and the required) keys, grouped by the
    target's part before the dot ("" for ScenarioConfig fields)."""
    groups: dict[str, dict] = defaultdict(dict)
    for key, (target, parse) in KEYS.items():
        if key not in ignored and (key in cfg or key in required):
            group, _, attr = target.rpartition(".")
            groups[group][attr] = _value(cfg, key, parse)
    return groups


def scenario_from_config(cfg: dict[str, str]) -> ScenarioConfig:
    """Typed scenario from a flat config dict; errors name the bad key."""
    kind = _value(cfg, "mesh.kind", str)
    required = ("geometry.x0", *_MESH_KEYS.get(kind, ()))
    ignored = {key for keys in _MESH_KEYS.values() for key in keys} - set(required)
    groups = _targets(cfg, required, ignored)
    fields = groups[""]
    if kind == "interval":
        fields["interval"] = (fields.pop("a"), fields.pop("b"))
    try:
        return ScenarioConfig(**fields, **{name: FieldInit(**groups[name])
                                           for name in INITIAL_FIELDS})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def hypotheses_from_config(cfg: dict[str, str]) -> tuple[float, int, float | None]:
    """(rho, n, theta) for the hypothesis validator; n defaults to the mesh
    dimension, rho to the coupling exponent."""
    groups = _targets(cfg)
    fields, hyp = groups[""], groups["hypotheses"]
    if "n" not in hyp and "mesh_kind" not in fields:
        raise ConfigError("missing config key: hypotheses.n (or mesh.kind to infer it)")
    rho = hyp.get("rho", fields.get("rho", ScenarioConfig.rho))
    n = hyp.get("n", 1 if fields.get("mesh_kind") == "interval" else 2)
    return rho, n, hyp.get("theta")
