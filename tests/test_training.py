import json
import math
import os
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from jointspace import autodiff as ad
from jointspace import training
from jointspace.graphs import generate_tree, split_edges, split_nodes
from jointspace.layers import JointSpaceGNN, load_params_json, save_params_json
from jointspace.objectives import normalize_delta, overall_loss
from jointspace.training import (MAX_MODEL_SIZE, Adam, RunReport, TrainConfig,
                                 _beta_diagnostics, evaluate_lp, evaluate_nc,
                                 mu_profile, run_seeds,
                                 synthetic_lp_tree, synthetic_nc_graph, train)


def quick_cfg(**kw) -> TrainConfig:
    base = dict(task="nc", layers=2, hidden=8, q_dim=4, max_epochs=30,
                patience=10, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestConfig:
    def test_defaults_match_protocol(self):
        cfg = TrainConfig()
        assert cfg.hidden == 16 and cfg.patience == 100 and cfg.max_epochs == 1000
        assert cfg.k == 2

    def test_fraction_defaults_by_task(self):
        assert TrainConfig(task="nc").fractions == (0.6, 0.2, 0.2)
        assert TrainConfig(task="lp").fractions == (0.85, 0.05, 0.10)

    def test_json_round_trip(self):
        cfg = TrainConfig(task="lp", lr=0.005, split_fractions=(0.7, 0.1, 0.2))
        assert TrainConfig.from_json(cfg.to_json()) == cfg

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys: bogus, zeta"):
            TrainConfig.from_json('{"zeta": 1, "hidden": 8, "bogus": 1}')
        with pytest.raises(ValueError, match="object"):
            TrainConfig.from_json("[1, 2]")

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(task="xyz")
        with pytest.raises(ValueError):
            TrainConfig(dropout=1.0)
        with pytest.raises(ValueError):
            TrainConfig(comparison_mode="other")
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        # The size bound is inclusive; building the config builds no model.
        TrainConfig(layers=MAX_MODEL_SIZE, hidden=MAX_MODEL_SIZE, q_dim=MAX_MODEL_SIZE)

    @pytest.mark.parametrize("field,value", [
        ("delta_mode", "sup"), ("metric", "auc"), ("omega_nu", -0.5),
        ("omega_was", -0.5), ("weight_decay", -1.0), ("hidden", 8.5), ("layers", True),
        ("seed", 1.0), ("lr", "0.01"), ("trainable_curvature", 1),
        ("split_fractions", (0.25, 0.25, 0.25, 0.25)),
        ("split_fractions", (0.5, 0.25, "0.25")), ("split_fractions", (0.5, 0.5, True)),
        ("split_fractions", [0.5, 0.25, 0.25]), ("cache_dir", 5),
        ("lr", math.nan), ("lr", math.inf), ("curvature", math.inf),
        ("k", 0), ("dropout", 1.0), ("weight_decay", math.nan),
        ("omega_nu", math.inf), ("omega_was", math.nan), ("max_epochs", 0),
        ("split_fractions", (0.6, math.nan, 0.2)),
        ("split_fractions", (math.inf, 0.2, 0.2)),
        pytest.param("curvature", 10**400, id="curvature-int-beyond-float"),
        ("seed", -1), ("layers", MAX_MODEL_SIZE + 1), ("hidden", 10**20),
        pytest.param("q_dim", 10**400, id="q_dim-int-beyond-float")])
    def test_rejects_unknown_choice_or_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", [f for f in fields(TrainConfig)
                                       if type(f.default) in (bool, int, float)],
                             ids=lambda f: f.name)
    def test_each_scalar_field_checked_by_its_defaults_type(self, field):
        expected = {bool: "true or false", int: "an integer",
                    float: "a finite number"}[type(field.default)]
        with pytest.raises(ValueError, match=f"^{field.name} must be {expected}, "
                                             "got '1'$"):
            TrainConfig(**{field.name: "1"})


class TestMetrics:
    def test_accuracy_perfect_and_partial(self):
        logits = np.array([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0]])
        labels = np.array([0, 1, 1])
        assert evaluate_nc(logits, labels, [0, 1, 2]) == pytest.approx(2 / 3)
        assert evaluate_nc(logits, labels, [0, 1]) == 1.0

    def test_f1_binary(self):
        logits = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        labels = np.array([1, 0, 0, 1])
        # preds = [1,1,0,0]: tp=1, fp=1, fn=1 -> F1 = 0.5
        assert evaluate_nc(logits, labels, [0, 1, 2, 3], metric="f1") == 0.5

    def test_f1_micro_multiclass_equals_accuracy(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(20, 4))
        labels = rng.integers(0, 4, size=20)
        mask = np.arange(20)
        assert evaluate_nc(logits, labels, mask, "f1") == \
            pytest.approx(evaluate_nc(logits, labels, mask, "accuracy"))

    def test_auc_perfect_and_ties(self):
        assert evaluate_lp(np.array([0.9, 0.2, 0.6]), np.array([1, 0, 1])) == 1.0
        assert evaluate_lp(np.array([0.5, 0.5, 0.5, 0.5]),
                           np.array([1, 0, 1, 0])) == 0.5
        # Equal infinities tie: the positives get ranks 1.5 and 5.5, not the
        # 1 and 5 of their places in a stable sort.
        assert evaluate_lp(np.array([-np.inf, -np.inf, 0.0, np.inf, np.inf, 1.0]),
                           np.array([1, 0, 0, 1, 0, 0])) == 0.5

    def test_auc_hand_case(self):
        scores = np.array([0.9, 0.8, 0.3, 0.2])
        truth = np.array([1, 0, 1, 0])
        # pairs: (0.9>0.8), (0.9>0.2), (0.3<0.8), (0.3>0.2) -> 3/4
        assert evaluate_lp(scores, truth) == 0.75

    def test_auc_single_class_rejected(self):
        with pytest.raises(ValueError):
            evaluate_lp(np.array([0.5, 0.6]), np.array([1, 1]))


class TestAdam:
    def test_descends_quadratic(self):
        x = ad.DiffValue(np.array([5.0, -3.0]))
        opt = Adam([x], lr=0.1)
        for _ in range(300):
            loss = ad.sum_(ad.mul(x, x))
            ad.backward(loss)
            opt.step()
        assert np.abs(x.value).max() < 1e-2

    def test_weight_decay_shrinks(self):
        x = ad.DiffValue(np.array([1.0]))
        opt = Adam([x], lr=0.01, weight_decay=1.0)
        loss = ad.sum_(ad.mul(x, 0.0))
        ad.backward(loss)
        opt.step()
        assert x.value[0] < 1.0


class TestTrainLoop:
    def test_seed_determinism(self):
        g = synthetic_nc_graph(seed=3)
        cfg = quick_cfg(seed=3)
        r1, r2 = train(g, cfg), train(g, cfg)
        assert r1.loss_trace == r2.loss_trace
        assert r1.test_metric == r2.test_metric

    def test_missing_labels_rejected(self):
        g = generate_tree(2, 3)
        with pytest.raises(ValueError, match="labels"):
            train(g, quick_cfg())

    def test_negative_label_rejected(self):
        g = synthetic_nc_graph(seed=0)
        labels = g.labels.copy()
        labels[[7, 12]] = -1
        with pytest.raises(ValueError, match="node 7 has negative label -1"):
            train(g.with_labels(labels), quick_cfg(max_epochs=2, patience=2))

    def test_label_beyond_model_size_rejected_before_the_model(self, monkeypatch):
        # A class id of 10**8 once sized a (10**8 + 1, 16) output layer.
        def no_model(*args, **kwargs):
            raise AssertionError("a model was built")
        monkeypatch.setattr(training, "JointSpaceGNN", no_model)
        g = synthetic_nc_graph(seed=0)
        labels = g.labels.copy()
        labels[[5, 9]] = MAX_MODEL_SIZE
        with pytest.raises(ValueError, match="node 5 has label 65536; class ids "
                                             "must be below MAX_MODEL_SIZE"):
            train(g.with_labels(labels), quick_cfg(max_epochs=2, patience=2))

    @pytest.mark.parametrize("task", ["nc", "lp"])
    def test_featureless_graph_trains_on_one_hot(self, task):
        if task == "nc":
            g = generate_tree(2, 3).with_labels(
                np.array([0] + [1] * 14, dtype=np.int64))
        else:
            g = generate_tree(2, 4)
        cfg = quick_cfg(task=task, max_epochs=8, patience=8)
        bare = asdict(train(g, cfg))
        one_hot = asdict(train(g.with_features(np.eye(g.num_nodes)), cfg))
        del bare["wall_time"], one_hot["wall_time"]
        assert bare == one_hot

    def test_identity_features_work(self):
        g = generate_tree(2, 3).with_labels(
            np.array([0] + [1] * 14, dtype=np.int64))
        g = g.with_features(np.eye(g.num_nodes))
        rep = train(g, quick_cfg(max_epochs=5, patience=5,
                                 split_fractions=(0.5, 0.25, 0.25)))
        assert rep.epochs_run == 5

    def test_loss_decreases_on_synthetic(self):
        g = synthetic_nc_graph(seed=0)
        rep = train(g, quick_cfg(max_epochs=40, patience=40))
        assert rep.loss_trace[rep.epoch_of_best - 1] < rep.loss_trace[0]

    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    @pytest.mark.parametrize("max_epochs, patience, stop", [
        (200, 25, 26), (200, 1, 2), (1, 1, 1), (1, 100, 1), (5, 5, 5), (6, 5, 6)])
    def test_early_stopping_plateau_exact(self, max_epochs, patience, stop,
                                          dropout):
        # Frozen optimization: validation plateaus from the first epoch, so
        # the run stops `patience` epochs after it or at the cap.
        g = synthetic_nc_graph(seed=0)
        cfg = quick_cfg(lr=1e-30, max_epochs=max_epochs, patience=patience,
                        dropout=dropout)
        rep = train(g, cfg)
        assert rep.epoch_of_best == 1
        assert rep.epochs_run == stop
        assert len(rep.loss_trace) == stop

    @pytest.mark.parametrize("task", ["nc", "lp"])
    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    @pytest.mark.parametrize("stops_early", [False, True])
    def test_forward_count(self, monkeypatch, task, dropout, stops_early):
        # At dropout 0 the next training forward doubles as the eval forward:
        # one training forward per epoch (plus the one that finds patience
        # spent) or one last eval forward, then one forward after the restore.
        # With dropout every epoch also runs an eval forward.  No loss is
        # computed past the epoch where patience runs out.
        calls, losses = [], []
        real_forward = JointSpaceGNN.forward
        def counted(self, *args, **kwargs):
            calls.append(kwargs.get("training", False))
            return real_forward(self, *args, **kwargs)
        def counted_loss(*args):
            losses.append(None)
            return overall_loss(*args)
        monkeypatch.setattr(JointSpaceGNN, "forward", counted)
        monkeypatch.setattr(training, "overall_loss", counted_loss)
        if task == "nc":
            g = synthetic_nc_graph(seed=0)
        else:
            g = synthetic_lp_tree(depth=3, seed=0)
        epochs = 12
        cfg = quick_cfg(task=task, dropout=dropout, max_epochs=epochs,
                        patience=3 if stops_early else epochs + 1,
                        lr=1e-30 if stops_early else 0.01)
        rep = train(g, cfg)
        assert rep.epochs_run == (4 if stops_early else epochs)
        assert len(losses) == len(rep.loss_trace) == rep.epochs_run
        if dropout == 0.0:
            assert len(calls) == rep.epochs_run + 2
            assert calls.count(False) == (1 if stops_early else 2)
        else:
            assert len(calls) == 2 * rep.epochs_run + 1
            assert calls.count(True) == rep.epochs_run

    def test_never_exceeds_max_epochs(self):
        g = synthetic_nc_graph(seed=0)
        rep = train(g, quick_cfg(max_epochs=7, patience=100))
        assert rep.epochs_run == 7

    def test_test_metric_from_restored_checkpoint(self, tmp_path):
        g = synthetic_nc_graph(seed=1)
        cfg = quick_cfg(seed=1, max_epochs=25, patience=25)
        rep, model = train(g, cfg, return_model=True)
        split = split_nodes(g, cfg.fractions, cfg.seed)
        # serialize, reload into a fresh model, re-evaluate the test metric
        ck = tmp_path / "ck.json"
        ck.write_text(save_params_json(model.state_dict()))
        fresh = JointSpaceGNN(in_dim=g.features.shape[1], hidden_dim=cfg.hidden,
                              out_dim=2, num_layers=cfg.layers, q_dim=cfg.q_dim,
                              seed=999)
        fresh.load_state_dict(load_params_json(ck.read_text()))
        out, _ = fresh.forward(g, g.features, training=False)
        metric = evaluate_nc(out.z.value, g.labels, split.test)
        assert metric == rep.test_metric

    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    def test_restored_checkpoint_is_the_best_epochs_parameters(self, dropout):
        g = synthetic_lp_tree(depth=4, seed=5)
        cfg = quick_cfg(task="lp", seed=4, max_epochs=100, patience=2,
                        dropout=dropout)
        rep, model = train(g, cfg, return_model=True)
        assert 1 < rep.epoch_of_best < rep.epochs_run < cfg.max_epochs
        # A run capped at the best epoch ends there, scored by its own eval
        # forward, and must restore the same parameters.
        capped, capped_model = train(
            g, replace(cfg, max_epochs=rep.epoch_of_best), return_model=True)
        assert capped.epochs_run == capped.epoch_of_best == rep.epoch_of_best
        state, capped_state = model.state_dict(), capped_model.state_dict()
        assert all(np.array_equal(state[k], capped_state[k]) for k in state)
        assert ((capped.best_val_metric, capped.test_metric, capped.beta_samples)
                == (rep.best_val_metric, rep.test_metric, rep.beta_samples))

    @pytest.mark.parametrize("task", ["nc", "lp"])
    def test_split_is_the_seeded_default(self, task, monkeypatch):
        # An lp run profiles the split's training edges only; an nc run, the
        # whole graph.
        g = synthetic_nc_graph(seed=1) if task == "nc" else synthetic_lp_tree(seed=1)
        cfg = quick_cfg(task=task, seed=1, max_epochs=1)
        make = split_nodes if task == "nc" else split_edges
        calls, profiled = [], []

        def recording(graph, fractions, seed):
            calls.append((graph, fractions, seed))
            return make(graph, fractions, seed)

        def profiling(graph, *args):
            profiled.append(graph)
            return mu_profile(graph, *args)
        monkeypatch.setattr(training, make.__name__, recording)
        monkeypatch.setattr(training, "mu_profile", profiling)
        train(g, cfg)
        assert calls == [(g, cfg.fractions, cfg.seed)]
        split = make(g, cfg.fractions, cfg.seed)
        edges = g.edges if task == "nc" else tuple(g.edges[i] for i in split.train)
        assert [(m.num_nodes, m.edges) for m in profiled] == [(g.num_nodes, edges)]

    def test_report_round_trip(self):
        g = synthetic_nc_graph(seed=2)
        rep = train(g, quick_cfg(seed=2, max_epochs=12, patience=12))
        assert RunReport.from_json(rep.to_json()) == rep

    def test_report_json_text_pinned_and_round_trip_keeps_tuples(self):
        config = {"task": "nc", "split_fractions": (0.5, 0.25, 0.25), "cache_dir": None}
        rep = RunReport(0.5, 0.75, 3, 4, (1.25, 0.5), ((0.25, 0.75), (0.5, 0.125)),
                        0.1, 0.2, config, 1.5)
        assert rep.to_json() == (
            '{"best_val_metric": 0.5, "test_metric": 0.75, "epoch_of_best": 3, '
            '"epochs_run": 4, "loss_trace": [1.25, 0.5], '
            '"beta_samples": [[0.25, 0.75], [0.5, 0.125]], "w2_nu_unif": 0.1, '
            '"w2_nu_mu": 0.2, "config": {"task": "nc", "split_fractions": '
            '[0.5, 0.25, 0.25], "cache_dir": null}, "wall_time": 1.5}')
        assert RunReport.from_json(rep.to_json()) == rep
        full = replace(rep, config=asdict(quick_cfg(split_fractions=(0.5, 0.25, 0.25))))
        assert RunReport.from_json(full.to_json()) == full

    @pytest.mark.parametrize("add,drop,match", [
        ({"bogus": 1}, None, "unknown run report keys: bogus"),
        ({}, "test_metric", "missing run report keys: test_metric")],
        ids=["unknown-key", "missing-key"])
    def test_report_from_json_names_bad_keys(self, add, drop, match):
        obj = {"best_val_metric": 0.5, "test_metric": 0.5, "epoch_of_best": 1,
               "epochs_run": 1, "loss_trace": [1.0], "beta_samples": [[0.5]],
               "w2_nu_unif": 0.0, "w2_nu_mu": 0.0, "config": {}, "wall_time": 0.0,
               **add}
        obj.pop(drop, None)
        with pytest.raises(ValueError, match=match):
            RunReport.from_json(json.dumps(obj))

    @pytest.mark.parametrize("field,value,match", [
        ("beta_samples", (("a", "b"), ("c", "d")), "beta_samples"),
        ("beta_samples", 0.5, "beta_samples"),
        ("beta_samples", ((0.5, 0.5), (0.5,)), "beta_samples"),
        ("beta_samples", ((math.nan, math.nan),) * 2, "beta_samples"),
        ("beta_samples", ((0.5, 1.5), (0.5, 0.5)), "beta_samples"),
        ("beta_samples", ((True, 0.5), (0.5, 0.5)), "beta_samples"),
        ("test_metric", "x", "test_metric must be a finite number, got 'x'"),
        ("best_val_metric", True, "best_val_metric must be a finite number"),
        ("w2_nu_mu", math.inf, "w2_nu_mu must be a finite number"),
        ("epochs_run", 2.0, "epochs_run must be an integer, got 2.0"),
        ("epoch_of_best", "1", "epoch_of_best must be an integer"),
        ("loss_trace", (1.0, math.nan), "loss_trace"),
        ("loss_trace", 1.0, "loss_trace"),
        ("config", 5, "config must be an object"),
        ("config", {"lr": "x"}, "lr must be a finite number, got 'x'"),
        ("config", {"task": "nc", "bogus": 1}, "unknown config keys: bogus")],
        ids=["string-betas", "bare-number-betas", "ragged-betas", "nan-betas",
             "beta-above-one", "bool-beta", "string-test-metric", "bool-val-metric",
             "infinite-w2", "float-epochs", "string-epoch", "nan-loss",
             "bare-number-loss", "number-config", "string-config-lr",
             "unknown-config-key"])
    def test_report_rejects_bad_field(self, field, value, match):
        rep = RunReport(0.5, 0.75, 3, 4, (1.25, 0.5), ((0.25, 0.75), (0.5, 0.125)),
                        0.1, 0.2, {}, 1.5)
        with pytest.raises(ValueError, match=match):
            replace(rep, **{field: value})

    def test_beta_record_shape(self):
        g = synthetic_nc_graph(seed=0)
        rep = train(g, quick_cfg(layers=3, max_epochs=6, patience=6))
        assert len(rep.beta_samples) == 3
        assert all(len(b) == 40 for b in rep.beta_samples)

    def test_lp_smoke(self):
        g = synthetic_lp_tree(depth=3, seed=0)
        cfg = TrainConfig(task="lp", layers=2, hidden=8, q_dim=4,
                          max_epochs=30, patience=15, seed=0,
                          split_fractions=(0.7, 0.15, 0.15))
        rep = train(g, cfg)
        assert 0.0 <= rep.test_metric <= 1.0
        assert rep.epochs_run <= 30

    def test_divergence_detected(self):
        g = synthetic_nc_graph(seed=0)
        # An absurd learning rate sends parameters to overflow within a few
        # steps; the loop must abort with a diagnostic rather than loop on NaN.
        from jointspace.training import TrainingDiverged
        cfg = quick_cfg(lr=1e150, max_epochs=50, patience=50)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(TrainingDiverged):
                train(g, cfg)


class TestProfileCache:
    def test_cache_round_trip(self, tmp_path):
        g = synthetic_nc_graph(seed=0)
        p1 = mu_profile(g, 2, "inf", cache_dir=str(tmp_path))
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        p2 = mu_profile(g, 2, "inf", cache_dir=str(tmp_path))
        assert p1 == p2

    def test_cache_written_by_rename(self, tmp_path, monkeypatch):
        renames = []
        real_replace = os.replace
        def spy(src, dst):
            renames.append((Path(src).parent, Path(dst)))
            real_replace(src, dst)
        monkeypatch.setattr(os, "replace", spy)
        g = synthetic_nc_graph(seed=0)
        mu_profile(g, 2, "inf", cache_dir=str(tmp_path / "cache"))
        files = list((tmp_path / "cache").iterdir())
        assert renames == [(tmp_path / "cache", files[0])]
        assert len(files) == 1 and files[0].suffix == ".json"

    def test_failed_cache_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("disk full")
        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            mu_profile(synthetic_nc_graph(seed=0), 2, "inf", cache_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_cache_with_other_node_ids_rejected(self, tmp_path):
        g = synthetic_nc_graph(seed=0)
        mu_profile(g, 2, "inf", cache_dir=str(tmp_path))
        path, = tmp_path.iterdir()
        obj = json.loads(path.read_text())
        obj["delta"]["999"] = obj["delta"].pop("3")
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=rf"{path.name}: .*"
                           r"no value for node 3, unexpected node 999"):
            mu_profile(g, 2, "inf", cache_dir=str(tmp_path))

    def test_cache_for_fewer_nodes_rejected(self, tmp_path):
        g = synthetic_nc_graph(seed=0)
        mu_profile(g, 2, "inf", cache_dir=str(tmp_path))
        path, = tmp_path.iterdir()
        obj = json.loads(path.read_text())
        del obj["delta"][str(g.num_nodes - 1)]
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=rf"{path.name}: {g.num_nodes - 1} values "
                           rf"for a graph of {g.num_nodes} nodes"):
            mu_profile(g, 2, "inf", cache_dir=str(tmp_path))

    def test_cache_of_other_k_or_mode_rejected(self, tmp_path):
        # A k=1 "one" profile under the k=2 "inf" file name is named, not used.
        from jointspace.graphs import graph_hash
        from jointspace.hyperbolicity import local_profile, profile_to_json
        g = synthetic_nc_graph(seed=0)
        path = tmp_path / f"{graph_hash(g)}_k2_inf.json"
        path.write_text(profile_to_json(local_profile(g, 1, "one")))
        with pytest.raises(ValueError, match=rf"{path.name}: holds k=1 mode='one', "
                           r"but k=2 mode='inf' was asked for"):
            mu_profile(g, 2, "inf", cache_dir=str(tmp_path))

    def test_cache_keyed_by_k(self, tmp_path):
        g = synthetic_nc_graph(seed=0)
        mu_profile(g, 1, "inf", cache_dir=str(tmp_path))
        mu_profile(g, 2, "inf", cache_dir=str(tmp_path))
        assert len(list(tmp_path.iterdir())) == 2


class TestAnalysis:
    def test_matching_beta_gives_zero_w2(self):
        g = synthetic_nc_graph(seed=0)
        mu = normalize_delta(mu_profile(g, 2, "inf"))
        w2_unif, w2_mu = _beta_diagnostics((tuple(mu), tuple(mu)), mu)
        assert w2_mu == 0.0
        assert w2_unif > 0.0

    def test_uniform_beta_against_midpoint_reference(self):
        # all-0.5 weights: rank pairing against the m midpoints (i-0.5)/m
        n = 40
        beta = tuple([0.5] * n)
        w2_unif, _ = _beta_diagnostics((beta, beta), np.zeros(n))
        midpoints = (np.arange(1, n + 1) - 0.5) / n
        expected = math.sqrt(np.mean((0.5 - midpoints) ** 2))
        assert w2_unif == pytest.approx(expected, abs=1e-12)
        assert w2_unif < 0.3  # far below the 1/sqrt(3) one-sided maximum

    def test_first_two_layers_averaged(self):
        mu = np.array([0.0, 1.0])
        beta_samples = ((0.0, 0.0), (1.0, 1.0), (0.25, 0.75))
        # layers 1-2 average to (0.5, 0.5); the third layer must be ignored.
        # Rank pairing against mu = (0, 1) gives gaps of 0.5 -> W2 = 0.5.
        _, w2_mu = _beta_diagnostics(beta_samples, mu)
        assert w2_mu == pytest.approx(0.5, abs=1e-12)


class TestRunners:
    def test_run_seeds_summary(self):
        g = synthetic_nc_graph(seed=0)
        cfg = quick_cfg(max_epochs=6, patience=6)
        summary = run_seeds(g, cfg, [0, 1, 2])
        assert len(summary["reports"]) == 3
        tests = [r.test_metric for r in summary["reports"]]
        assert summary["test_mean"] == pytest.approx(np.mean(tests))
        assert summary["test_std"] == pytest.approx(np.std(tests, ddof=1))


@pytest.mark.parametrize("call, fault", [
    (lambda: evaluate_nc(np.zeros((3, 2)), np.array([0, 1, 0]), []),
     "mask must be non-empty"),
    (lambda: evaluate_nc(np.zeros((3, 2)), np.array([0, 1, 0]), [0], "auc"),
     "metric must be 'accuracy' or 'f1'"),
    (lambda: run_seeds(synthetic_nc_graph(), TrainConfig(), []),
     "need at least one seed")], ids=["empty-mask", "unknown-metric", "no-seeds"])
def test_empty_or_unknown_argument_rejected(call, fault):
    with pytest.raises(ValueError, match=fault):
        call()
