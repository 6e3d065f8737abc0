"""Command-line surface: analysis, generation, training, ablations, reports.

Exit codes: 0 on success, 2 on validation/usage errors, 3 on divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

from .graphs import (_read_lines, generate_combined, generate_lattice,
                     generate_tree, load_edge_list, load_features_csv,
                     load_labels_csv, save_edge_list)
from .hyperbolicity import DELTA_MODES, histogram, local_profile, profile_to_json
from .layers import save_params_json
from .objectives import COMPARISON_MODES, normalize_delta
from .training import (RunReport, TrainConfig, TrainingDiverged,
                       analyze_hyperbolicities, identity_features,
                       message_graph, mu_profile, train)


# The TrainConfig fields the scalar training flags set; --omega-nu sets omega_nu.
_TRAIN_FLAGS = ("lr", "omega_nu", "omega_was", "k", "seed", "layers", "hidden",
                "dropout", "max_epochs", "patience")

# The variants ``ablate`` trains: name -> overrides of the base config.
_ABLATIONS = {"full": {}, "wo_nu": {"omega_nu": 0.0}, "wo_w2": {"omega_was": 0.0},
              "wo_nu_w2": {"omega_nu": 0.0, "omega_was": 0.0}}


def _emit(obj: dict | str, out: str | None) -> None:
    text = obj if isinstance(obj, str) else json.dumps(obj, indent=2)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _load_graph(args, default_identity_features: bool = False) -> "WeightedGraph":
    csvs = [f"--{name}" for name in ("features", "labels") if getattr(args, name, None)]
    if args.remap_ids and csvs:
        # The CSVs are keyed by the original ids, which the remap does not reach.
        raise ValueError(f"--remap-ids cannot be combined with {' or '.join(csvs)}: "
                         "only the edge list is remapped")
    g = load_edge_list(args.graph, weighted=not args.unweighted,
                       remap_ids=args.remap_ids)
    for name, load in (("features", load_features_csv), ("labels", load_labels_csv)):
        path = getattr(args, name, None)
        if path:
            rows = load(path)
            if len(rows) != g.num_nodes:
                raise ValueError(f"{Path(path).name}: {len(rows)} rows, but the graph "
                                 f"has {g.num_nodes} nodes")
            g = replace(g, **{name: rows})
    if g.features is None and default_identity_features:
        g = g.with_features(identity_features(g.num_nodes))
    return g


def _read_record(cls, path: str):
    """``cls.from_json`` of the file; bytes or text it cannot decode name the file."""
    text = "".join(_read_lines(path))
    try:
        return cls.from_json(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{Path(path).name}: not JSON ({exc})") from exc


def _config_from_args(args) -> TrainConfig:
    cfg = _read_record(TrainConfig, args.config) if args.config else TrainConfig()
    # Every TrainConfig field that args carries (the task always) overrides.
    return replace(cfg, **{f.name: getattr(args, f.name) for f in fields(TrainConfig)
                           if getattr(args, f.name, None) is not None})


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    g = _load_graph(args)
    profile = local_profile(g, args.k, args.mode)
    _emit(profile_to_json(profile), args.out)
    if args.hist:
        histogram(profile.values_by_node(), args.bin_width).to_csv(args.hist)
    return 0


def _cmd_generate(args) -> int:
    if args.kind == "lattice":
        g = generate_lattice(args.rows, args.cols)
    elif args.kind == "tree":
        g = generate_tree(args.branching, args.depth)
    else:
        g = generate_combined(generate_lattice(args.rows, args.cols),
                              generate_tree(args.branching, args.depth),
                              (args.glue_lattice, args.glue_tree))
    save_edge_list(g, args.out)
    print(f"wrote {g.num_nodes} nodes / {g.num_edges} edges to {args.out}")
    return 0


def _cmd_train(args) -> int:
    g = _load_graph(args, default_identity_features=True)
    result = train(g, _config_from_args(args), return_model=bool(args.checkpoint))
    if args.checkpoint:
        report, model, _ = result
        Path(args.checkpoint).write_text(save_params_json(model.state_dict()))
    else:
        report = result
    _emit(asdict(report), args.out)
    return 0


def _cmd_variants(args) -> int:
    g = _load_graph(args, default_identity_features=True)
    base = _config_from_args(args)
    table = {}
    for name, overrides in args.variants.items():
        rep = train(g, replace(base, **overrides))
        row = {"val_metric": rep.best_val_metric, "test_metric": rep.test_metric,
               "w2_nu_unif": rep.w2_nu_unif, "w2_nu_mu": rep.w2_nu_mu}
        table[name] = {column: row[column] for column in args.columns}
    _emit(table, args.out)
    if getattr(args, "csv", None):
        lines = [",".join(("variant", *args.columns))]
        lines += [",".join((name, *map(str, row.values())))
                  for name, row in table.items()]
        Path(args.csv).write_text("\n".join(lines) + "\n")
    return 0


def _cmd_report(args) -> int:
    g = _load_graph(args)
    report = _read_record(RunReport, args.run)
    # Compare against the profile the run aligned to: its k, its delta mode
    # and, for link prediction, its training-edge message graph.
    cfg = TrainConfig.from_json(json.dumps(report.config))
    profile = mu_profile(message_graph(g, cfg), cfg.k, cfg.delta_mode)
    mu = normalize_delta(profile)
    w2_unif, w2_mu = analyze_hyperbolicities(report, mu)
    _emit({"w2_nu_unif": w2_unif, "w2_nu_mu": w2_mu,
           "epoch_of_best": report.epoch_of_best,
           "test_metric": report.test_metric}, args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_graph_args(p: argparse.ArgumentParser, with_data: bool = False) -> None:
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--unweighted", action="store_true",
                   help="reject weight columns; all weights 1")
    p.add_argument("--remap-ids", dest="remap_ids", action="store_true",
                   help="remap sparse edge-list node ids to 0..n-1 "
                        "(not with --features or --labels)")
    if with_data:
        p.add_argument("--features", help="node feature CSV (node_id,f0,...)")
        p.add_argument("--labels", help="node label CSV (node_id,label)")


def _add_train_args(p: argparse.ArgumentParser, with_mode: bool = True) -> None:
    # Every flag but --config and --out sets the TrainConfig field its dest names.
    p.add_argument("--config", help="TrainConfig JSON file")
    for name in _TRAIN_FLAGS:   # each flag's type is the type of the field's default
        p.add_argument("--" + name.replace("_", "-"), dest=name,
                       type=type(getattr(TrainConfig, name)))
    if with_mode:
        p.add_argument("--mode", dest="comparison_mode", choices=COMPARISON_MODES,
                       help="comparison mode for the alignment term")
    p.add_argument("--out", help="JSON output path: the RunReport, or the table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jointspace",
        description="Local hyperbolicity profiles and joint-space GNN training")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="per-node local hyperbolicity profile")
    _add_graph_args(p)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--mode", choices=DELTA_MODES, default="inf")
    p.add_argument("--out", help="profile JSON output path")
    p.add_argument("--hist", help="histogram CSV output path")
    p.add_argument("--bin-width", dest="bin_width", type=float, default=0.5)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("generate", help="synthetic graph generators")
    p.add_argument("kind", choices=("lattice", "tree", "combined"))
    p.add_argument("--rows", type=int, default=5)
    p.add_argument("--cols", type=int, default=5)
    p.add_argument("--branching", type=int, default=2)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--glue-lattice", dest="glue_lattice", type=int, default=0)
    p.add_argument("--glue-tree", dest="glue_tree", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    for task, help_text in (("nc", "node classification run"),
                            ("lp", "link prediction run")):
        p = sub.add_parser(f"train-{task}", help=help_text)
        _add_graph_args(p, with_data=True)
        _add_train_args(p)
        p.add_argument("--checkpoint", help="write best parameters as JSON")
        p.set_defaults(func=_cmd_train, task=task)

    p = sub.add_parser("ablate", help="full model and the three reduced variants")
    _add_graph_args(p, with_data=True)
    _add_train_args(p)
    p.add_argument("--task", choices=("nc", "lp"), default="nc")
    p.add_argument("--csv", help="also write the table as CSV")
    p.set_defaults(func=_cmd_variants, variants=_ABLATIONS,
                   columns=("val_metric", "test_metric", "w2_nu_unif", "w2_nu_mu"))

    p = sub.add_parser("compare-modes",
                       help="alignment comparison modes side by side")
    _add_graph_args(p, with_data=True)
    _add_train_args(p, with_mode=False)
    p.add_argument("--task", choices=("nc", "lp"), default="nc")
    p.set_defaults(func=_cmd_variants, columns=("val_metric", "test_metric"),
                   variants={m: {"comparison_mode": m} for m in COMPARISON_MODES})

    p = sub.add_parser("report", help="learned-hyperbolicity diagnostics of a run")
    _add_graph_args(p)
    p.add_argument("--run", required=True, help="RunReport JSON file")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
