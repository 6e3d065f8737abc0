"""Bitwise golden ``RunReport``s for four small training configs.

Each config trains on the reference combined graph with seeded features
(hidden 8, 30 epochs), and its report, with ``wall_time`` and ``config``
zeroed, must equal the one stored in ``golden_run_reports.json`` field for
field and bit for bit.  A change meant to leave training unchanged, such as a
refactor or a speed-up, keeps this test green; a change meant to alter
training re-captures the file.

The stored values depend on numpy and the BLAS library under it: a change of
either can move the last bits of a product and fail this test with no fault
in the code.  Re-capture with

    PYTHONPATH=src python tests/test_golden_reports.py

and record every re-capture, with its reason, in CHANGES.md.
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
}


def report_fields(name: str) -> dict:
    """The named config's ``RunReport`` as JSON fields, ``wall_time`` and ``config`` zeroed."""
    cfg = TrainConfig(hidden=8, max_epochs=30, seed=5, **CONFIGS[name])
    report = train(synthetic_nc_graph(seed=7), cfg)
    return json.loads(replace(report, wall_time=0.0, config={}).to_json())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_matches_golden(name):
    golden = json.loads(GOLDEN_FILE.read_text())
    assert report_fields(name) == golden[name]


if __name__ == "__main__":
    GOLDEN_FILE.write_text(json.dumps({name: report_fields(name)
                                       for name in sorted(CONFIGS)}, indent=1) + "\n")
    print(f"wrote {GOLDEN_FILE}")
