"""The benchmark's span tracer still wraps the library it measures.

``perfbench/spans.py`` patches library functions at the module attributes
their callers look up.  A rename or a moved call in the library leaves a
span empty without any error, so this test runs a short traced run and
checks that every span the benchmark reports recorded calls.
"""

import importlib.util
from pathlib import Path

from jointspace import hyperbolicity, training
from jointspace.graphs import reference_combined_graph
from jointspace.hyperbolicity import DELTA_MODES

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

EXPECTED_SPANS = (
    "layers.forward_train", "layers.forward_eval", "layers.gat_forward",
    "layers.hgat_forward", "layers.fusion_forward", "autodiff.backward",
    "objectives.lp_loss", "graphs.sample_non_edges", "training.Adam.step",
    "hyperbolicity.local_profile")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_every_layer_and_uninstalls():
    train, local_profile = training.train, hyperbolicity.local_profile
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        # Called through the modules, where the tracer's wrappers sit.
        for task, g in (("nc", training.synthetic_nc_graph(seed=0)),
                        ("lp", training.synthetic_lp_tree(depth=4, seed=0))):
            training.train(g, training.TrainConfig(task=task, hidden=8, q_dim=4,
                                                   max_epochs=3, patience=3))
        for mode in DELTA_MODES:
            hyperbolicity.local_profile(reference_combined_graph(), 2, mode)
    finally:
        tracer.uninstall()
    assert training.train is train and hyperbolicity.local_profile is local_profile
    calls, _ = tracer.self_times()
    assert [name for name in EXPECTED_SPANS if not calls[name]] == []
    assert all(tracer.tape.get(branch, 0) > 0
               for branch in ("gat", "hgat", "total")), tracer.tape
