import json

import numpy as np
import pytest

from jointspace import cli, graphs, layers, training
from jointspace.cli import main
from jointspace.graphs import load_edge_list
from jointspace.hyperbolicity import local_profile
from jointspace.training import synthetic_nc_graph, train


def _never_called(*args, **kwargs):
    raise AssertionError("reached a step the run should have stopped before")


@pytest.fixture
def combined_files(tmp_path):
    """Edge list + feature/label CSVs for the synthetic two-class task."""
    g = synthetic_nc_graph(seed=0)
    edges = tmp_path / "g.edges"
    with edges.open("w") as fh:
        for u, v, _ in g.edges:
            fh.write(f"{u} {v}\n")
    feats = tmp_path / "f.csv"
    with feats.open("w") as fh:
        dim = g.features.shape[1]
        fh.write("node_id," + ",".join(f"f{i}" for i in range(dim)) + "\n")
        for i, row in enumerate(g.features):
            fh.write(f"{i}," + ",".join(repr(float(x)) for x in row) + "\n")
    labels = tmp_path / "l.csv"
    with labels.open("w") as fh:
        fh.write("node_id,label\n")
        for i, lab in enumerate(g.labels):
            fh.write(f"{i},{lab}\n")
    return edges, feats, labels


class TestGenerateAnalyze:
    def test_generate_lattice(self, tmp_path):
        out = tmp_path / "lat.edges"
        assert main(["generate", "lattice", "--rows", "3", "--cols", "4",
                     "--out", str(out)]) == 0
        g = load_edge_list(out)
        assert g.num_nodes == 12 and g.num_edges == 17

    def test_generate_combined_default_reference(self, tmp_path):
        out = tmp_path / "c.edges"
        assert main(["generate", "combined", "--out", str(out)]) == 0
        g = load_edge_list(out)
        assert g.num_nodes == 40 and g.num_edges == 55

    @pytest.mark.parametrize("mode", ["inf", "one"])
    def test_analyze_profile_and_histogram(self, tmp_path, mode):
        edges = tmp_path / "c.edges"
        main(["generate", "combined", "--out", str(edges)])
        prof_out = tmp_path / "p.json"
        hist_out = tmp_path / "h.csv"
        code = main(["analyze", "--graph", str(edges), "--k", "2",
                     "--mode", mode, "--out", str(prof_out),
                     "--hist", str(hist_out)])
        assert code == 0
        prof = json.loads(prof_out.read_text())
        assert prof["k"] == 2 and prof["mode"] == mode
        assert prof["delta"]["39"] == 0.0  # a tree leaf
        if mode == "one":
            expected = local_profile(load_edge_list(edges), 2, "one").values_by_node()
            assert [prof["delta"][str(v)] for v in range(expected.size)] == expected.tolist()
        lines = hist_out.read_text().strip().splitlines()
        assert lines[0] == "bin_left,bin_right,count"

    @pytest.mark.parametrize("width", ["inf", "nan"])
    def test_analyze_bad_bin_width_exit_2(self, tmp_path, capsys, width):
        edges = tmp_path / "lat.edges"
        main(["generate", "lattice", "--rows", "3", "--cols", "3", "--out", str(edges)])
        hist_out = tmp_path / "h.csv"
        code = main(["analyze", "--graph", str(edges), "--out", str(tmp_path / "p.json"),
                     "--hist", str(hist_out), "--bin-width", width])
        assert code == 2
        assert f"bin_width must be finite and positive, got {width}" in capsys.readouterr().err
        assert not hist_out.exists()

    @pytest.mark.parametrize("width", ["1e-300", "1e-9"])
    def test_analyze_bin_width_beyond_bin_cap_exit_2(self, tmp_path, capsys, width):
        edges = tmp_path / "lat.edges"
        main(["generate", "lattice", "--rows", "3", "--cols", "3", "--out", str(edges)])
        hist_out = tmp_path / "h.csv"
        code = main(["analyze", "--graph", str(edges), "--out", str(tmp_path / "p.json"),
                     "--hist", str(hist_out), "--bin-width", width])
        assert code == 2
        assert f"bin_width {float(width)} needs more than" in capsys.readouterr().err
        assert not hist_out.exists()

    @pytest.mark.parametrize("weight", ["1e308", "1e200"])
    def test_analyze_overweight_graph_exit_2(self, tmp_path, capsys, weight):
        # A 4-cycle whose path sums would overflow; at 1e308 it once gave delta 0.
        edges = tmp_path / "c4.edges"
        edges.write_text("".join(f"{u} {(u + 1) % 4} {weight}\n" for u in range(4)))
        out = tmp_path / "p.json"
        assert main(["analyze", "--graph", str(edges), "--out", str(out)]) == 2
        assert "total edge weight" in capsys.readouterr().err
        assert not out.exists()

    def test_analyze_huge_node_id_exit_2(self, tmp_path, capsys):
        # Id 99999999999 once sized a 745 GiB array and died with MemoryError.
        edges = tmp_path / "huge.edges"
        edges.write_text("0 1\n1 99999999999\n")
        assert main(["analyze", "--graph", str(edges)]) == 2
        assert "huge.edges:2: node id 99999999999 is not below MAX_NODES" in (
            capsys.readouterr().err)

    def test_analyze_negative_node_id_exit_2(self, tmp_path, capsys):
        edges = tmp_path / "neg.edges"
        edges.write_text("0 1\n1 -5\n")
        assert main(["analyze", "--graph", str(edges)]) == 2
        assert "neg.edges:2: negative node id -5" in capsys.readouterr().err

    def test_generate_tree_beyond_node_bound_exit_2(self, tmp_path, capsys,
                                                    monkeypatch):
        # Checked against a lowered bound, so no tree is built past it.
        monkeypatch.setattr(graphs, "MAX_NODES", 100)
        out = tmp_path / "t.edges"
        assert main(["generate", "tree", "--depth", "6", "--out", str(out)]) == 2
        assert "has more than MAX_NODES (100) nodes" in capsys.readouterr().err
        assert not out.exists()

    def test_analyze_bad_graph_exit_2(self, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("0 0\n")
        assert main(["analyze", "--graph", str(bad), "--out",
                     str(tmp_path / "p.json")]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["analyze", "--graph", str(tmp_path / "nope.edges")]) == 2


class TestTraining:
    def test_train_nc_writes_report_and_checkpoint(self, tmp_path, combined_files):
        edges, feats, labels = combined_files
        report_path = tmp_path / "r.json"
        ck_path = tmp_path / "ck.json"
        code = main(["train-nc", "--graph", str(edges),
                     "--features", str(feats), "--labels", str(labels),
                     "--hidden", "8", "--max-epochs", "10", "--patience", "10",
                     "--seed", "1", "--mode", "pairwise", "--out", str(report_path),
                     "--checkpoint", str(ck_path)])
        assert code == 0
        rep = json.loads(report_path.read_text())
        assert rep["epochs_run"] == 10
        assert rep["config"]["comparison_mode"] == "pairwise"
        ck = json.loads(ck_path.read_text())
        assert any(k.endswith("gat.W") for k in ck)
        assert all(set(v) == {"shape", "values"} for v in ck.values())

    def test_train_nc_missing_labels_exit_2(self, tmp_path, combined_files):
        edges, feats, _ = combined_files
        assert main(["train-nc", "--graph", str(edges),
                     "--features", str(feats), "--max-epochs", "5"]) == 2

    @pytest.mark.parametrize("which", ["features", "labels"])
    def test_train_nc_missing_csv_row_exit_2(self, combined_files, capsys, which):
        edges, feats, labels = combined_files
        path = feats if which == "features" else labels
        rows = path.read_text().splitlines()
        del rows[4]                      # the row of node 3
        path.write_text("\n".join(rows) + "\n")
        assert main(["train-nc", "--graph", str(edges), "--features", str(feats),
                     "--labels", str(labels), "--max-epochs", "2"]) == 2
        assert "no row for node 3" in capsys.readouterr().err

    @pytest.mark.parametrize("which, edit, fault", [
        ("labels", lambda f: ["0", f[1]], "l.csv:5: repeated node id 0"),
        ("labels", lambda f: f[:1], "l.csv:5: expected 2 fields, got 1 in '3'"),
        ("features", lambda f: f[:2], "f.csv:5: expected 9 fields, got 2"),
        ("features", lambda f: [f[0], "abc"] + f[2:],
         "f.csv:5: could not convert string to float: 'abc'"),
        ("features", lambda f: [f[0], "nan"] + f[2:], "f.csv:5: non-finite value nan"),
        ("features", lambda f: f[:-1] + ["inf"], "f.csv:5: non-finite value inf"),
    ], ids=["repeated-label", "short-label", "short-feature", "non-float-feature",
            "nan-feature", "inf-feature"])
    def test_train_nc_bad_csv_row_exit_2(self, combined_files, capsys, which, edit,
                                         fault):
        edges, feats, labels = combined_files
        path = feats if which == "features" else labels
        rows = path.read_text().splitlines()
        rows[4] = ",".join(edit(rows[4].split(",")))      # the row of node 3
        path.write_text("\n".join(rows) + "\n")
        assert main(["train-nc", "--graph", str(edges), "--features", str(feats),
                     "--labels", str(labels), "--max-epochs", "2"]) == 2
        assert fault in capsys.readouterr().err

    @pytest.mark.parametrize("given", [("features",), ("labels",),
                                       ("features", "labels")],
                             ids=["features", "labels", "both"])
    def test_remap_ids_with_csv_exit_2(self, combined_files, capsys, given):
        edges, feats, labels = combined_files
        paths = {"features": feats, "labels": labels}
        argv = ["train-nc", "--graph", str(edges), "--remap-ids", "--max-epochs", "2"]
        for name in given:
            argv += [f"--{name}", str(paths[name])]
        assert main(argv) == 2
        named = " or ".join(f"--{name}" for name in given)
        assert f"--remap-ids cannot be combined with {named}" in capsys.readouterr().err

    def test_train_nc_negative_label_exit_2(self, tmp_path, combined_files, capsys):
        edges, feats, labels = combined_files
        rows = labels.read_text().splitlines()
        rows[4] = "3,-1"
        labels.write_text("\n".join(rows) + "\n")
        assert main(["train-nc", "--graph", str(edges), "--features", str(feats),
                     "--labels", str(labels), "--max-epochs", "2"]) == 2
        assert "node 3 has negative label" in capsys.readouterr().err

    @pytest.mark.parametrize("label,message", [
        (10**30, "l.csv:3: label 1000000000000000000000000000000 is outside int64"),
        (2**16, "node 1 has label 65536; class ids must be below MAX_MODEL_SIZE")],
        ids=["beyond-int64", "beyond-model-size"])
    def test_train_nc_huge_label_exit_2(self, combined_files, capsys, label,
                                        message):
        edges, feats, labels = combined_files
        rows = labels.read_text().splitlines()
        rows[2] = f"1,{label}"
        labels.write_text("\n".join(rows) + "\n")
        assert main(["train-nc", "--graph", str(edges), "--features", str(feats),
                     "--labels", str(labels), "--max-epochs", "1"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["graph", "features", "config"])
    def test_train_nc_non_utf8_input_exit_2(self, tmp_path, combined_files, capsys,
                                            which):
        edges, feats, labels = combined_files
        files = {"graph": edges, "features": feats, "config": tmp_path / "cfg.json"}
        files["config"].write_text("{}")
        path = files[which]
        path.write_bytes(path.read_bytes() + b"\xff\n")
        assert main(["train-nc", "--graph", str(edges), "--features", str(feats),
                     "--labels", str(labels), "--config", str(files["config"]),
                     "--max-epochs", "1"]) == 2
        assert f"{path.name}: not UTF-8 text" in capsys.readouterr().err

    def test_train_nc_config_not_json_exit_2(self, tmp_path, combined_files, capsys):
        edges, feats, labels = combined_files
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{lr: 0.1}")
        assert main(["train-nc", "--graph", str(edges), "--features", str(feats),
                     "--labels", str(labels), "--config", str(cfg_path)]) == 2
        assert "cfg.json: not JSON (Expecting property name" in (
            capsys.readouterr().err)

    def test_train_nc_unknown_config_key_exit_2(self, tmp_path, combined_files,
                                                capsys):
        edges, feats, labels = combined_files
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"bogus": 1}')
        assert main(["train-nc", "--graph", str(edges), "--features", str(feats),
                     "--labels", str(labels), "--config", str(cfg_path)]) == 2
        assert "unknown config keys: bogus" in capsys.readouterr().err

    def test_train_nc_bad_config_value_exit_2(self, tmp_path, combined_files,
                                              capsys):
        edges, feats, labels = combined_files
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"weight_decay": -1}')
        assert main(["train-nc", "--graph", str(edges), "--features", str(feats),
                     "--labels", str(labels), "--config", str(cfg_path)]) == 2
        assert "weight_decay" in capsys.readouterr().err

    @pytest.mark.parametrize("text,field", [
        ('{"hidden": 8.5}', "hidden"), ('{"layers": true}', "layers"),
        ('{"split_fractions": [0.25, 0.25, 0.25, 0.25]}', "split_fractions"),
        ('{"lr": NaN}', "lr"), ('{"curvature": Infinity}', "curvature"),
        ('{"weight_decay": NaN}', "weight_decay"),
        ('{"q_dim": 1%s}' % ("0" * 400), "q_dim"),
        ('{"hidden": 100000000000000000000}', "hidden"), ('{"seed": -1}', "seed")],
        ids=["float-hidden", "bool-layers", "four-fractions", "nan-lr",
             "infinite-curvature", "nan-weight-decay",
             "401-digit-q-dim", "huge-hidden", "negative-seed"])
    def test_train_nc_wrong_typed_config_exit_2(self, tmp_path, combined_files,
                                                capsys, text, field):
        edges, feats, labels = combined_files
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        assert main(["train-nc", "--graph", str(edges), "--features", str(feats),
                     "--labels", str(labels), "--config", str(cfg_path),
                     "--max-epochs", "2"]) == 2
        assert f"error: cfg.json: {field} must be" in capsys.readouterr().err

    def test_train_nc_nan_lr_flag_exit_2(self, combined_files, capsys):
        edges, feats, labels = combined_files
        assert main(["train-nc", "--graph", str(edges), "--features", str(feats),
                     "--labels", str(labels), "--lr", "nan", "--max-epochs", "2"]) == 2
        assert "error: lr must be a finite number, got nan" in capsys.readouterr().err

    def test_train_nc_bad_profile_cache_exit_2(self, tmp_path, combined_files,
                                               capsys):
        edges, feats, labels = combined_files
        cache = tmp_path / "cache"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"cache_dir": str(cache)}))
        argv = ["train-nc", "--graph", str(edges), "--features", str(feats),
                "--labels", str(labels), "--config", str(cfg_path),
                "--max-epochs", "1"]
        assert main(argv) == 0
        path, = cache.iterdir()
        good, renamed = json.loads(path.read_text()), json.loads(path.read_text())
        renamed["delta"]["999"] = renamed["delta"].pop("3")
        bad = [(json.dumps(renamed), "no value for node 3, unexpected node 999"),
               ("[1, 2]", "profile JSON"), ("3", "profile JSON"),
               (json.dumps({**good, "k": None}), "profile JSON"),
               (json.dumps({**good, "delta": [1, 2]}), "profile JSON"),
               (json.dumps({**good, "k": 2.9}), "k must be an integer >= 1, got 2.9"),
               (json.dumps({**good, "k": "2"}), "k must be an integer >= 1, got '2'"),
               (json.dumps({**good, "k": True}), "k must be an integer >= 1, got True"),
               (json.dumps({**good, "delta": {**good["delta"], "3": "3.5"}}),
                "node 3 has value '3.5', not a number"),
               (json.dumps({**good, "delta": {**good["delta"], "3": True}}),
                "node 3 has value True, not a number")]
        for text, message in bad:
            path.write_text(text)
            capsys.readouterr()
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert path.name in err and message in err

    def test_train_nc_divergence_exit_3(self, tmp_path, combined_files):
        edges, feats, labels = combined_files
        with np.errstate(invalid="ignore", over="ignore"):
            code = main(["train-nc", "--graph", str(edges),
                         "--features", str(feats), "--labels", str(labels),
                         "--lr", "1e150", "--max-epochs", "30",
                         "--out", str(tmp_path / "r.json")])
        assert code == 3

    def test_train_lp_runs(self, tmp_path):
        from jointspace.training import synthetic_lp_tree
        g = synthetic_lp_tree(depth=3, seed=0)
        edges = tmp_path / "t.edges"
        with edges.open("w") as fh:
            for u, v, _ in g.edges:
                fh.write(f"{u} {v}\n")
        feats = tmp_path / "tf.csv"
        with feats.open("w") as fh:
            dim = g.features.shape[1]
            fh.write("node_id," + ",".join(f"f{i}" for i in range(dim)) + "\n")
            for i, row in enumerate(g.features):
                fh.write(f"{i}," + ",".join(repr(float(x)) for x in row) + "\n")
        report_path = tmp_path / "lp.json"
        code = main(["train-lp", "--graph", str(edges), "--features", str(feats),
                     "--hidden", "8", "--max-epochs", "8", "--patience", "8",
                     "--out", str(report_path)])
        assert code == 0
        rep = json.loads(report_path.read_text())
        assert 0.0 <= rep["test_metric"] <= 1.0

    @pytest.mark.parametrize("with_features,config,message", [
        (False, {}, "150 attention edges at width 40 (6000 elements) and 40 nodes "
                    "at q_dim 16 (640 elements)"),
        (True, {"q_dim": 200}, "150 attention edges at width 16 (2400 elements) "
                               "and 40 nodes at q_dim 200 (8000 elements)")],
        ids=["identity-features", "q-dim"])
    def test_train_nc_activations_beyond_bound_exit_2(
            self, tmp_path, combined_files, capsys, monkeypatch, with_features,
            config, message):
        # A featureless 64x64 lattice once gathered (17804, 4096) float64 rows
        # in the first layer; checked here against a lowered bound, before the
        # one-hot features, the profile or the model, so nothing large is
        # allocated.
        monkeypatch.setattr(training, "MAX_ACTIVATION_ELEMENTS", 5999)
        monkeypatch.setattr(training, "mu_profile", None)
        monkeypatch.setattr(np, "eye", _never_called)
        edges, feats, labels = combined_files
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        argv = ["train-nc", "--graph", str(edges), "--labels", str(labels),
                "--config", str(cfg_path), "--max-epochs", "1"]
        assert main(argv + ["--features", str(feats)] * with_features) == 2
        assert capsys.readouterr().err == (
            f"error: a layer over {message} is beyond MAX_ACTIVATION_ELEMENTS "
            "(5999)\n")

    def test_train_nc_activations_at_bound_run(self, combined_files, monkeypatch):
        # The bound is inclusive: identity features need 150 x 40 = 6000.
        monkeypatch.setattr(training, "MAX_ACTIVATION_ELEMENTS", 6000)
        edges, _, labels = combined_files
        assert main(["train-nc", "--graph", str(edges), "--labels", str(labels),
                     "--max-epochs", "1"]) == 0

    def test_train_nc_model_beyond_parameter_bound_exit_2(self, combined_files,
                                                           capsys, monkeypatch):
        # Each width is within MAX_MODEL_SIZE, but hidden 65536 over 3 layers
        # once drew a 32 GiB weight; checked here against a lowered bound,
        # before the profile, so nothing large is allocated or computed.
        monkeypatch.setattr(layers, "MAX_PARAMETERS", 1000)
        monkeypatch.setattr(training, "mu_profile", None)
        edges, feats, labels = combined_files
        assert main(["train-nc", "--graph", str(edges), "--features", str(feats),
                     "--labels", str(labels), "--layers", "3", "--hidden", "64",
                     "--max-epochs", "1"]) == 2
        assert ("error: a model of layer widths [8, 64, 64, 2] and q_dim 16 has "
                "12298 parameters, beyond MAX_PARAMETERS (1000)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("which, rows, fault", [
        ("features", 2, "f.csv: 2 rows, but the graph has 4 nodes"),
        ("labels", 3, "l.csv: 3 rows, but the graph has 4 nodes")],
        ids=["features", "labels"])
    def test_train_nc_csv_of_other_length_exit_2(self, tmp_path, capsys, which, rows,
                                                 fault):
        edges = tmp_path / "g.edges"
        edges.write_text("0 1\n1 2\n2 3\n")
        counts = {"features": 4, "labels": 4, which: rows}
        feats, labels = tmp_path / "f.csv", tmp_path / "l.csv"
        feats.write_text("node_id,f0\n" + "".join(
            f"{i},0.5\n" for i in range(counts["features"])))
        labels.write_text("node_id,label\n" + "".join(
            f"{i},{i % 2}\n" for i in range(counts["labels"])))
        assert main(["train-nc", "--graph", str(edges), "--features", str(feats),
                     "--labels", str(labels), "--max-epochs", "1"]) == 2
        assert fault in capsys.readouterr().err

    def test_config_file_with_overrides(self, tmp_path, combined_files):
        edges, feats, labels = combined_files
        from jointspace.training import TrainConfig
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(TrainConfig(task="nc", hidden=8, max_epochs=50,
                                        patience=50).to_json())
        report_path = tmp_path / "r.json"
        code = main(["train-nc", "--graph", str(edges), "--features", str(feats),
                     "--labels", str(labels), "--config", str(cfg_path),
                     "--max-epochs", "4", "--out", str(report_path)])
        assert code == 0
        rep = json.loads(report_path.read_text())
        assert rep["epochs_run"] == 4
        assert rep["config"]["hidden"] == 8


class TestAblateCompareReport:
    def test_ablate_table(self, tmp_path, combined_files, monkeypatch):
        edges, feats, labels = combined_files
        configs = []

        def recording_train(g, cfg):
            configs.append(cfg)
            return train(g, cfg)
        monkeypatch.setattr(cli, "train", recording_train)
        out = tmp_path / "ablate.json"
        csv = tmp_path / "ablate.csv"
        code = main(["ablate", "--graph", str(edges), "--features", str(feats),
                     "--labels", str(labels), "--hidden", "8",
                     "--max-epochs", "5", "--patience", "5", "--mode", "mean",
                     "--out", str(out), "--csv", str(csv)])
        assert code == 0
        table = json.loads(out.read_text())
        assert list(table) == ["full", "wo_nu", "wo_w2", "wo_nu_w2"]
        assert [(c.omega_nu, c.omega_was) for c in configs] == [
            (0.1, 0.1), (0.0, 0.1), (0.1, 0.0), (0.0, 0.0)]
        assert {(c.task, c.comparison_mode, c.hidden) for c in configs} == {
            ("nc", "mean", 8)}
        columns = ["val_metric", "test_metric", "w2_nu_unif", "w2_nu_mu"]
        assert csv.read_text().splitlines() == ["variant," + ",".join(columns)] + [
            ",".join([name] + [str(row[c]) for c in columns])
            for name, row in table.items()]

    def test_compare_modes(self, tmp_path, combined_files):
        edges, feats, labels = combined_files
        out = tmp_path / "modes.json"
        code = main(["compare-modes", "--graph", str(edges),
                     "--features", str(feats), "--labels", str(labels),
                     "--hidden", "8", "--max-epochs", "5", "--patience", "5",
                     "--out", str(out)])
        assert code == 0
        assert set(json.loads(out.read_text())) == {"distribution", "pairwise",
                                                    "mean"}

    def test_compare_modes_rejects_mode(self, tmp_path, combined_files):
        # compare-modes runs every comparison mode, so it takes no --mode.
        edges, feats, labels = combined_files
        with pytest.raises(SystemExit) as exc:
            main(["compare-modes", "--graph", str(edges), "--features", str(feats),
                  "--labels", str(labels), "--mode", "pairwise"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["ablate", "compare-modes"])
    def test_table_commands_reject_checkpoint(self, tmp_path, combined_files,
                                              command):
        # They train several variants and write a table, so no one checkpoint.
        edges, feats, labels = combined_files
        out, ck = tmp_path / "table.json", tmp_path / "ck.json"
        with pytest.raises(SystemExit) as exc:
            main([command, "--graph", str(edges), "--features", str(feats),
                  "--labels", str(labels), "--max-epochs", "1",
                  "--out", str(out), "--checkpoint", str(ck)])
        assert exc.value.code == 2
        assert not out.exists() and not ck.exists()

    def test_report_diagnostics(self, tmp_path, combined_files):
        edges, feats, labels = combined_files
        run_path = tmp_path / "run.json"
        main(["train-nc", "--graph", str(edges), "--features", str(feats),
              "--labels", str(labels), "--hidden", "8", "--max-epochs", "5",
              "--patience", "5", "--out", str(run_path)])
        out = tmp_path / "diag.json"
        code = main(["report", "--run", str(run_path), "--out", str(out)])
        assert code == 0
        diag = json.loads(out.read_text())
        assert set(diag) >= {"w2_nu_unif", "w2_nu_mu"}

    @pytest.mark.parametrize("task,extra", [("nc", ["--k", "1"]), ("lp", [])],
                             ids=["nc-k1", "lp"])
    def test_report_uses_the_runs_profile(self, tmp_path, combined_files, task,
                                          extra):
        # train compared beta with the run's own profile (its k, delta mode
        # and, for lp, training-edge message graph); report prints exactly
        # the four values the run stored.
        edges, feats, labels = combined_files
        data = ["--features", str(feats)]
        if task == "nc":
            data += ["--labels", str(labels)]
        run_path = tmp_path / "run.json"
        assert main([f"train-{task}", "--graph", str(edges), *data, *extra,
                     "--hidden", "8", "--max-epochs", "3", "--patience", "3",
                     "--out", str(run_path)]) == 0
        out = tmp_path / "diag.json"
        assert main(["report", "--run", str(run_path), "--out", str(out)]) == 0
        run = json.loads(run_path.read_text())
        keys = ("w2_nu_unif", "w2_nu_mu", "epoch_of_best", "test_metric")
        assert json.loads(out.read_text()) == {key: run[key] for key in keys}

    def test_report_takes_no_graph(self, tmp_path, combined_files):
        edges, _, _ = combined_files
        with pytest.raises(SystemExit) as exc:
            main(["report", "--graph", str(edges), "--run", str(tmp_path / "r.json")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("config,message", [
        ({"lr": "x"}, "lr must be a finite number, got 'x'"),
        ({"bogus": 1}, "unknown config keys: bogus"),
        ({"k": 0}, "k must be positive")], ids=["string-lr", "unknown-key", "zero-k"])
    def test_report_run_with_bad_config_exit_2(self, tmp_path, combined_files,
                                               capsys, config, message):
        edges, feats, labels = combined_files
        run_path = tmp_path / "run.json"
        assert main(["train-nc", "--graph", str(edges), "--features", str(feats),
                     "--labels", str(labels), "--hidden", "8", "--max-epochs", "2",
                     "--out", str(run_path)]) == 0
        run = json.loads(run_path.read_text())
        run["config"].update(config)
        run_path.write_text(json.dumps(run))
        capsys.readouterr()
        assert main(["report", "--run", str(run_path)]) == 2
        assert f"error: run.json: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--config", "--run"])
    def test_file_naming_removed_config_keys_exit_2(self, tmp_path, combined_files,
                                                    capsys, flag):
        # A run file written while TrainConfig had these fields holds all four.
        edges, feats, labels = combined_files
        removed = {"p": 2.0, "fermi_r": 2.0, "fermi_t": 1.0, "f1_average": "micro"}
        train_nc = ["train-nc", "--graph", str(edges), "--features", str(feats),
                    "--labels", str(labels), "--hidden", "8", "--max-epochs", "2"]
        old = tmp_path / "old.json"
        if flag == "--config":
            old.write_text(json.dumps(removed))
            argv = train_nc + ["--config", str(old)]
        else:
            assert main(train_nc + ["--out", str(old)]) == 0
            run = json.loads(old.read_text())
            run["config"].update(removed)
            old.write_text(json.dumps(run))
            argv = ["report", "--run", str(old)]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == ("error: old.json: unknown config keys: "
                                           "f1_average, fermi_r, fermi_t, p\n")

    def test_train_nc_repeated_config_key_exit_2(self, tmp_path, combined_files,
                                                 capsys):
        # The last value of a repeated key is not silently kept.
        edges, feats, labels = combined_files
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"lr": 0.5, "lr": 0.001}')
        assert main(["train-nc", "--graph", str(edges), "--features", str(feats),
                     "--labels", str(labels), "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == "error: cfg.json: repeated key 'lr'\n"

    def test_report_run_with_repeated_nested_key_exit_2(self, tmp_path, combined_files,
                                                        capsys):
        edges, feats, labels = combined_files
        run_path = tmp_path / "run.json"
        assert main(["train-nc", "--graph", str(edges), "--features", str(feats),
                     "--labels", str(labels), "--hidden", "8", "--max-epochs", "2",
                     "--out", str(run_path)]) == 0
        text = run_path.read_text()
        assert text.count('"config": {') == 1
        run_path.write_text(text.replace('"config": {', '"config": {"hidden": 16, ', 1))
        capsys.readouterr()
        assert main(["report", "--run", str(run_path)]) == 2
        assert capsys.readouterr().err == "error: run.json: repeated key 'hidden'\n"

    @pytest.mark.parametrize("key,present,message", [
        ("bogus", True, "unknown run report keys: bogus"),
        ("epoch_of_best", False, "missing run report keys: epoch_of_best")],
        ids=["unknown-key", "missing-key"])
    def test_report_run_with_bad_keys_exit_2(self, tmp_path, combined_files, capsys,
                                             key, present, message):
        edges, feats, labels = combined_files
        run_path = tmp_path / "run.json"
        assert main(["train-nc", "--graph", str(edges), "--features", str(feats),
                     "--labels", str(labels), "--hidden", "8", "--max-epochs", "2",
                     "--out", str(run_path)]) == 0
        run = json.loads(run_path.read_text())
        if present:
            run[key] = 1
        else:
            del run[key]
        run_path.write_text(json.dumps(run))
        assert main(["report", "--run", str(run_path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("edit,message", [
        (lambda run: run.update(beta_samples=[["a"] * 40] * 2), "beta_samples"),
        (lambda run: run.update(beta_samples=0.5), "beta_samples"),
        (lambda run: run["beta_samples"][1].pop(), "beta_samples"),
        (lambda run: run.update(beta_samples=[[float("nan")] * 40] * 2),
         "beta_samples"),
        (lambda run: run.update(test_metric="x"), "test_metric must be a finite number")],
        ids=["string-betas", "bare-number-betas", "ragged-betas", "nan-betas",
             "string-test-metric"])
    def test_report_run_with_bad_values_exit_2(self, tmp_path, combined_files,
                                               capsys, edit, message):
        edges, feats, labels = combined_files
        run_path = tmp_path / "run.json"
        assert main(["train-nc", "--graph", str(edges), "--features", str(feats),
                     "--labels", str(labels), "--hidden", "8", "--max-epochs", "2",
                     "--out", str(run_path)]) == 0
        run = json.loads(run_path.read_text())
        edit(run)
        run_path.write_text(json.dumps(run))
        capsys.readouterr()
        assert main(["report", "--run", str(run_path)]) == 2
        assert f"error: run.json: {message}" in capsys.readouterr().err

    def test_report_run_not_json_exit_2(self, tmp_path, capsys):
        run_path = tmp_path / "run.json"
        run_path.write_text('{"best_val_metric": 1.0,')
        assert main(["report", "--run", str(run_path)]) == 2
        assert "run.json: not JSON" in capsys.readouterr().err
