"""Byte-for-byte regression of the CLI outputs of every demo config.

golden_outputs.json holds the SHA-256 of each file `kgwell run` writes and
of the stdout of `kgwell run` and `kgwell constants`, per
demos/configs/*.cfg, together with the numpy and scipy versions they were
recorded with.  Other versions may round differently, so the test skips
there.  Re-record with

    python tests/test_golden_outputs.py --record

only for a change that is meant to move the numbers, and name that change
in CHANGES.md.  Recording prints each (config, output) whose hash differs
from the file it replaces, so that entry can list exactly what moved.
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
import scipy

from kgwell.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "demos" / "configs").glob("*.cfg"))
GOLDEN = Path(__file__).with_name("golden_outputs.json")
RUN_FILES = ("trajectory.csv", "report.kv", "report.txt", "energy.svg", "manifest.json")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _capture(argv) -> tuple[int, str]:
    buf = StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def output_hashes(cfg: Path, out_dir: Path) -> dict:
    """SHA-256 of every run output and of both commands' stdout, plus their
    exit codes."""
    run_code, run_stdout = _capture(["run", "--config", str(cfg), "--out", str(out_dir)])
    const_code, const_stdout = _capture(["constants", "--config", str(cfg)])
    hashes = {name: _sha((out_dir / name).read_bytes()) for name in RUN_FILES}
    hashes["run.stdout"] = _sha(run_stdout.encode())
    hashes["constants.stdout"] = _sha(const_stdout.encode())
    hashes["exit_codes"] = [run_code, const_code]
    return hashes


def _versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


@pytest.mark.parametrize("cfg", CONFIGS, ids=[c.name for c in CONFIGS])
def test_outputs_match_golden(cfg, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    if golden["versions"] != _versions():
        pytest.skip(f"hashes recorded with {golden['versions']}, running {_versions()}; "
                    "rounding may differ")
    expected = golden["configs"][cfg.name]
    got = output_hashes(cfg, tmp_path / "out")
    changed = sorted(k for k in expected if got.get(k) != expected[k])
    assert not changed, (
        f"{cfg.name}: outputs changed: {', '.join(changed)}.  A refactor must keep "
        "them byte for byte; re-record golden_outputs.json only with a CHANGES.md "
        "entry that names the numerics change."
    )


def changed_outputs(old: dict, new: dict) -> list[str]:
    """'config output: old -> new' for each hash (or exit code) of the
    recording `new` that differs from `old`, or that `old` lacks."""
    lines = []
    for name, hashes in sorted(new["configs"].items()):
        before = old.get("configs", {}).get(name, {})
        for key, value in sorted(hashes.items()):
            if before.get(key) != value:
                lines.append(f"{name} {key}: {before.get(key)} -> {value}")
    return lines


def test_changed_outputs_lists_each_moved_hash():
    old = {"configs": {"a.cfg": {"report.kv": "1", "energy.svg": "2"}}}
    new = {"configs": {"a.cfg": {"report.kv": "1", "energy.svg": "3"},
                       "b.cfg": {"report.kv": "4"}}}
    assert changed_outputs(old, new) == ["a.cfg energy.svg: 2 -> 3",
                                         "b.cfg report.kv: None -> 4"]
    assert changed_outputs(new, new) == []


def _record() -> None:
    import tempfile
    configs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in CONFIGS:
            configs[cfg.name] = output_hashes(cfg, Path(tmp) / cfg.stem)
    new = {"versions": _versions(), "configs": configs}
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if old.get("versions", new["versions"]) != new["versions"]:
        print(f"versions: {old['versions']} -> {new['versions']}")
    for line in changed_outputs(old, new):
        print(line)
    GOLDEN.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    _record()
