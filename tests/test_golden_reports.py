"""Bitwise golden ``RunReport``s for seven small training configs.

Each config trains on the reference combined graph with seeded features
(hidden 8, at most 30 epochs), and its report, with ``wall_time`` and ``config``
zeroed, must equal the one stored in ``golden_run_reports.json`` field for
field and bit for bit.  A change meant to leave training unchanged, such as a
refactor or a speed-up, keeps this test green; a change meant to alter
training re-captures the file.

The stored values depend on numpy and the BLAS library under it: a change of
either can move the last bits of a product and fail this test with no fault
in the code.  Re-capture with

    PYTHONPATH=src python tests/test_golden_reports.py

which prints, before it writes, each config's largest relative drift from
the file it replaces, and record every re-capture, with its reason and those
drifts, in CHANGES.md.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from jointspace.training import TrainConfig, synthetic_nc_graph, train

GOLDEN_FILE = Path(__file__).with_name("golden_run_reports.json")

CONFIGS = {
    "nc_dropout_0.3": dict(task="nc", dropout=0.3),
    "nc_trainable_curvature": dict(task="nc", trainable_curvature=True),
    "lp_dropout_0": dict(task="lp", dropout=0.0),
    "lp_3_layers_dropout_0.5": dict(task="lp", layers=3, dropout=0.5),
    "nc_dropout_0_patience_3": dict(task="nc", dropout=0.0, patience=3),
    "lp_dropout_0_patience_3": dict(task="lp", dropout=0.0, patience=3),
    "lp_dropout_0.5_patience_3": dict(task="lp", dropout=0.5, patience=3),
}
# Configs that stop on patience before the 30-epoch cap, pinning the
# early-stopping path as well as the full run.
EARLY_STOPPING = ("nc_dropout_0_patience_3", "lp_dropout_0_patience_3",
                  "lp_dropout_0.5_patience_3")


def report_fields(name: str) -> dict:
    """The named config's ``RunReport`` as JSON fields, ``wall_time`` and ``config`` zeroed."""
    cfg = TrainConfig(hidden=8, max_epochs=30, seed=5, **CONFIGS[name])
    report = train(synthetic_nc_graph(seed=7), cfg)
    return json.loads(replace(report, wall_time=0.0, config={}).to_json())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_matches_golden(name):
    golden = json.loads(GOLDEN_FILE.read_text())
    assert report_fields(name) == golden[name]


@pytest.mark.parametrize("name", EARLY_STOPPING)
def test_early_stopping_golden_stops_early(name):
    golden = json.loads(GOLDEN_FILE.read_text())
    assert golden[name]["epochs_run"] < 30


def largest_drift(old, new, path: str = "") -> tuple[float, str]:
    """Largest relative change |new - old| / max(|old|, |new|) over the numbers
    of two JSON values, and where it is.  A change of type, key set, length
    or any other value counts as drift 1."""
    if isinstance(old, bool) or isinstance(new, bool) or isinstance(old, str):
        return (0.0, path) if old == new else (1.0, path)
    if isinstance(old, (int, float)) and isinstance(new, (int, float)):
        scale = max(abs(old), abs(new))
        return (0.0 if old == new else abs(new - old) / scale), path
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        parts = [largest_drift(a, b, f"{path}[{i}]") for i, (a, b) in enumerate(zip(old, new))]
    elif isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        parts = [largest_drift(old[k], new[k], f"{path}.{k}" if path else k) for k in old]
    else:
        return (0.0, path) if old == new else (1.0, path)
    return max(parts, key=lambda part: part[0], default=(0.0, path))


def test_largest_drift_names_the_entry():
    old = {"loss": [1.0, 2.0], "beta": {"r": 4.0}, "epochs": 3, "ok": True}
    new = {"loss": [1.0, 2.0 + 4e-12], "beta": {"r": 4.0 + 4e-15}, "epochs": 3, "ok": True}
    drift, where = largest_drift(old, new)
    assert where == "loss[1]" and drift == pytest.approx(2e-12, rel=1e-3)
    assert largest_drift(old, old)[0] == 0.0
    assert largest_drift(old, {**old, "epochs": 4}) == (0.25, "epochs")
    assert largest_drift(old, {**old, "loss": [1.0]}) == (1.0, "loss")
    assert largest_drift(old, {**old, "ok": False}) == (1.0, "ok")


if __name__ == "__main__":
    reports = {name: report_fields(name) for name in sorted(CONFIGS)}
    previous = json.loads(GOLDEN_FILE.read_text()) if GOLDEN_FILE.exists() else {}
    for name, fields in reports.items():
        if name not in previous:
            print(f"{name}: new")
            continue
        drift, where = largest_drift(previous[name], fields)
        print(f"{name}: bit for bit" if fields == previous[name]
              else f"{name}: largest relative drift {drift:.2g} at {where}")
    GOLDEN_FILE.write_text(json.dumps(reports, indent=1) + "\n")
    print(f"wrote {GOLDEN_FILE}")
