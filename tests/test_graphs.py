import math

import numpy as np
import pytest

from jointspace import graphs
from jointspace.graphs import (MAX_NODES, DistanceMatrix, EdgeListParseError,
                               GraphValidationError, SplitError,
                               WeightedGraph, _k_hop_balls, generate_combined,
                               generate_lattice, generate_tree, graph_hash,
                               k_hop_subgraph, load_edge_list,
                               load_features_csv, load_labels_csv,
                               reference_combined_graph, sample_non_edges,
                               save_edge_list, shortest_paths, split_edges,
                               split_nodes)
from jointspace.hyperbolicity import _CENTER_BLOCK, delta_inf, local_profile

from conftest import cycle_graph, path_graph, random_connected_graph, star_graph


class TestWeightedGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphValidationError, match="self-loop"):
            WeightedGraph(2, ((0, 0, 1.0),))

    def test_rejects_duplicate_either_orientation(self):
        with pytest.raises(GraphValidationError, match="duplicate"):
            WeightedGraph(3, ((0, 1, 1.0), (1, 0, 2.0)))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(GraphValidationError, match="weight"):
            WeightedGraph(2, ((0, 1, 0.0),))
        with pytest.raises(GraphValidationError, match="weight"):
            WeightedGraph(2, ((0, 1, -2.0),))

    @pytest.mark.parametrize("w", [1e308, 1e200])
    def test_rejects_total_weight_beyond_bound(self, w):
        # At 1e308 the 4-cycle's path sums overflowed and local_profile gave
        # delta 0 on every node; at 1e200 the sampler's squares would overflow.
        with pytest.raises(GraphValidationError, match="total edge weight"):
            cycle_graph(4, w)

    def test_heavy_graph_within_bound_keeps_exact_delta(self):
        g = cycle_graph(4, 1e100)
        assert local_profile(g, 2, "inf").values_by_node().tolist() == [1e100] * 4

    def test_rejects_node_count_beyond_bound(self):
        # 10**12 nodes once built; the first per-node array then died in numpy.
        with pytest.raises(GraphValidationError,
                           match=f"num_nodes must be at most {MAX_NODES}, got 10{{12}}"):
            WeightedGraph(10**12, ((0, 1, 1.0),))
        assert WeightedGraph(MAX_NODES, ((0, MAX_NODES - 1, 1.0),)).num_nodes == MAX_NODES

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(GraphValidationError):
            WeightedGraph(2, ((0, 5, 1.0),))

    def test_edges_canonicalized(self):
        g = WeightedGraph(3, ((2, 1, 1.5),))
        assert g.edges == ((1, 2, 1.5),)

    def test_adjacency(self):
        indptr, upper, neighbor, weight = path_graph(3).csr
        assert indptr.tolist() == [0, 1, 3, 4] and upper.tolist() == [0, 2, 4]
        assert neighbor[1:3].tolist() == [0, 2] and weight[1:3].tolist() == [1.0, 1.0]

    def test_scaled(self):
        g = path_graph(3).scaled(2.0)
        assert all(w == 2.0 for _, _, w in g.edges)


class TestEdgeList:
    def test_parse_unweighted(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("0 1\n1 2\n")
        g = load_edge_list(f)
        assert g.num_nodes == 3 and g.num_edges == 2
        assert all(w == 1.0 for _, _, w in g.edges)

    def test_parse_weighted(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("0 1 2.5\n")
        g = load_edge_list(f)
        assert g.edges == ((0, 1, 2.5),)

    def test_self_loop_rejected(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("0 0\n")
        with pytest.raises(EdgeListParseError, match="g.edges: self-loop at node 0"):
            load_edge_list(f)

    def test_comments_and_blanks_skipped(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("# header\n\n0 1\n")
        assert load_edge_list(f).num_edges == 1

    def test_malformed_line_reports_number(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("0 1\nbroken line here extra\n")
        with pytest.raises(EdgeListParseError, match=":2"):
            load_edge_list(f)

    def test_huge_node_id_names_file_and_line(self, tmp_path):
        p = tmp_path / "huge.edges"
        p.write_text("0 1\n1 99999999999\n")
        with pytest.raises(EdgeListParseError,
                           match="huge.edges:2: node id 99999999999 is not below"):
            load_edge_list(p)
        assert load_edge_list(p, remap_ids=True).num_nodes == 3

    def test_negative_node_id_names_file_and_line(self, tmp_path):
        p = tmp_path / "neg.edges"
        p.write_text("0 1\n1 -5\n")
        with pytest.raises(EdgeListParseError,
                           match=r"neg.edges:2: negative node id -5 \(use remap_ids"):
            load_edge_list(p)
        assert load_edge_list(p, remap_ids=True).num_nodes == 3

    def test_remap_sparse_ids(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("10 20\n20 30\n")
        g = load_edge_list(f, remap_ids=True)
        assert g.num_nodes == 3 and g.edges == ((0, 1, 1.0), (1, 2, 1.0))

    def test_round_trip(self, tmp_path):
        g = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 2.5)))
        f = tmp_path / "g.edges"
        save_edge_list(g, f)
        g2 = load_edge_list(f)
        assert g2.edges == g.edges

    def test_feature_label_csv(self, tmp_path):
        ff = tmp_path / "f.csv"
        ff.write_text("node_id,f0,f1\n0,1.0,2.0\n1,3.0,4.0\n")
        feats = load_features_csv(ff)
        assert feats.shape == (2, 2) and feats[1, 0] == 3.0
        lf = tmp_path / "l.csv"
        lf.write_text("node_id,label\n0,1\n1,0\n")
        labs = load_labels_csv(lf)
        assert labs.tolist() == [1, 0]

    def test_csv_missing_id_rejected(self, tmp_path):
        ff = tmp_path / "f.csv"
        ff.write_text("node_id,f0\n0,1.0\n3,2.0\n1,0.5\n")
        with pytest.raises(EdgeListParseError, match="f.csv: no row for node 2"):
            load_features_csv(ff)
        lf = tmp_path / "l.csv"
        lf.write_text("node_id,label\n2,1\n")
        with pytest.raises(EdgeListParseError, match="l.csv: no row for node 0"):
            load_labels_csv(lf)

    def test_csv_negative_id_rejected(self, tmp_path):
        lf = tmp_path / "l.csv"
        lf.write_text("node_id,label\n0,1\n-1,0\n")
        with pytest.raises(EdgeListParseError, match="negative node id -1"):
            load_labels_csv(lf)

    def test_csv_repeated_id_rejected(self, tmp_path):
        lf = tmp_path / "l.csv"
        lf.write_text("node_id,label\n0,1\n1,0\n0,0\n2,1\n")
        with pytest.raises(EdgeListParseError, match="l.csv:4: repeated node id 0"):
            load_labels_csv(lf)
        ff = tmp_path / "f.csv"
        ff.write_text("node_id,f0\n0,1.0\n1,2.0\n\n1,3.0\n")
        with pytest.raises(EdgeListParseError, match="f.csv:5: repeated node id 1"):
            load_features_csv(ff)

    @pytest.mark.parametrize("loader, text, fault", [
        (load_labels_csv, "node_id,label\n0,1\n1\n",
         r"data.csv:3: expected 2 fields, got 1 in '1'"),
        (load_labels_csv, "node_id,label\n0,1\n1,x\n",
         r"data.csv:3: invalid literal for int\(\) with base 10: 'x'"),
        (load_features_csv, "node_id,f0,f1\n0,1.0,2.0\n1,abc,0.5\n",
         r"data.csv:3: could not convert string to float: 'abc'"),
        (load_features_csv, "node_id,f0,f1\n0,1.0,2.0\n1,0.5\n",
         r"data.csv:3: expected 3 fields, got 2 in '1,0.5'"),
        (load_features_csv, "node_id,f0,f1\nzero,1.0,2.0\n",
         r"data.csv:2: invalid literal for int\(\) with base 10: 'zero'"),
        (load_features_csv, "node_id,f0,f1\n0,1.0,2.0\n1,NaN,0.5\n",
         r"data.csv:3: non-finite value nan"),
        (load_features_csv, "node_id,f0,f1\n0,1.0,-inf\n1,0.5,0.5\n",
         r"data.csv:2: non-finite value -inf"),
        (load_labels_csv, f"node_id,label\n0,1\n1,{10**30}\n",
         r"data.csv:3: label 10{30} is outside int64"),
        (load_features_csv, "node_id,f0\n\n",
         r"data.csv: expected header plus data rows"),
    ], ids=["short-label", "non-int-label", "non-float-feature", "short-feature",
            "non-int-id", "nan-feature", "inf-feature", "beyond-int64-label",
            "header-only"])
    def test_csv_bad_row_names_file_line_and_fault(self, tmp_path, loader, text,
                                                   fault):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(EdgeListParseError, match=fault):
            loader(path)


    @pytest.mark.parametrize("text, fault", [
        ("0 1\n1 two\n", r"g.edges:2: invalid literal for int\(\) with base 10: 'two'"),
        ("# comment only\n\n", r"g.edges: no edges found"),
        ("0 1\n1 0 2\n", r"g.edges: duplicate edge \(1,0\)"),
        ("0 1 -2\n", r"g.edges: edge \(0,1\) has weight -2.0; weights must be "
                     "finite and positive"),
        ("0 1 nan\n", r"g.edges: edge \(0,1\) has weight nan; weights must be "
                      "finite and positive"),
        ("0 1 inf\n", r"g.edges: edge \(0,1\) has weight inf; weights must be "
                      "finite and positive"),
        ("0 1 1e150\n1 2 1e150\n", r"g.edges: total edge weight 2e\+150 exceeds")],
        ids=["non-int-id", "no-edges", "duplicate", "negative-weight",
             "nan-weight", "inf-weight", "overweight"])
    def test_edge_list_fault_names_file(self, tmp_path, text, fault):
        path = tmp_path / "g.edges"
        path.write_text(text)
        with pytest.raises(EdgeListParseError, match=fault):
            load_edge_list(path)


class TestShortestPaths:
    def test_unit_path(self):
        dm = shortest_paths(path_graph(3))
        assert dm.d[0, 2] == 2.0

    def test_cycle(self):
        dm = shortest_paths(cycle_graph(4))
        assert dm.d[0, 2] == 2.0 and dm.d[0, 1] == 1.0

    def test_weighted_path(self):
        dm = shortest_paths(path_graph(3, [2.5, 1.5]))
        assert dm.d[0, 2] == 4.0

    def test_unreachable_sentinel(self):
        g = WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0)))
        dm = shortest_paths(g)
        assert math.isinf(dm.d[0, 2]) and not dm.connected
        assert math.isfinite(dm.d[0, 1])

    def test_symmetry_and_triangle_exhaustive(self):
        rng = np.random.default_rng(7)
        for trial in range(8):
            n = int(rng.integers(5, 51))
            g = random_connected_graph(rng, n, p=0.15)
            dm = shortest_paths(g)
            assert np.array_equal(dm.d, dm.d.T)
            d = dm.d
            # d[i,k] <= d[i,j] + d[j,k] for all triples, tiny float slack
            lhs = d[:, None, :]
            rhs = d[:, :, None] + d[None, :, :]
            assert (lhs <= rhs + 1e-12).all()

    def test_distance_matrix_leaves_caller_array_writable(self):
        a = np.zeros((3, 3))
        dm = DistanceMatrix(a)
        assert a.flags.writeable and not dm.d.flags.writeable

    def test_zero_diagonal(self):
        dm = shortest_paths(cycle_graph(5))
        assert np.all(np.diag(dm.d) == 0.0)

    def test_non_dyadic_weights_match_bellman_ford(self):
        # Weights drawn from [0.5, 2) round path sums; the dense kernel must
        # still be symmetric bit for bit and agree with edge relaxation.
        rng = np.random.default_rng(29)
        for trial in range(6):
            n = int(rng.integers(5, 31))
            g = random_connected_graph(rng, n, p=0.2)
            d = shortest_paths(g).d
            assert np.array_equal(d, d.T)
            for s in range(n):
                ref = [math.inf] * n
                ref[s] = 0.0
                for _ in range(n - 1):
                    for u, v, w in g.edges:
                        ref[v] = min(ref[v], ref[u] + w)
                        ref[u] = min(ref[u], ref[v] + w)
                assert np.allclose(d[s], ref, rtol=0.0, atol=1e-12)


class TestKHopSubgraph:
    def test_star_center_k1_is_whole_star(self):
        g = star_graph(6)
        sub, ids = k_hop_subgraph(g, 0, 1)
        assert sub.num_nodes == 7 and ids == tuple(range(7))

    def test_path_middle(self):
        g = path_graph(5)
        sub, ids = k_hop_subgraph(g, 2, 1)
        assert ids == (1, 2, 3)
        assert sub.num_edges == 2

    def test_lattice_center_diamond(self):
        g = generate_lattice(5, 5)
        sub, ids = k_hop_subgraph(g, 12, 2)
        # Manhattan ball of radius 2 around the center has 13 nodes
        assert sub.num_nodes == 13

    def test_node_set_matches_hop_distance(self):
        rng = np.random.default_rng(3)
        g = random_connected_graph(rng, 15, p=0.2)
        dm_unit = shortest_paths(
            WeightedGraph(g.num_nodes, tuple((u, v, 1.0) for u, v, _ in g.edges)))
        for k in (1, 2, 3):
            _, ids = k_hop_subgraph(g, 4, k)
            expected = {u for u in range(g.num_nodes) if dm_unit.d[4, u] <= k}
            assert set(ids) == expected

    def test_monotone_in_k(self):
        rng = np.random.default_rng(4)
        g = random_connected_graph(rng, 12, p=0.25)
        prev: set = set()
        for k in range(4):
            _, ids = k_hop_subgraph(g, 0, k)
            assert prev.issubset(set(ids))
            prev = set(ids)

    def test_edges_match_bruteforce_filter(self):
        rng = np.random.default_rng(12)
        for trial in range(6):
            g = random_connected_graph(rng, int(rng.integers(8, 25)), p=0.15)
            for v in range(g.num_nodes):
                for k in range(4):
                    sub, ids = k_hop_subgraph(g, v, k)
                    assert list(ids) == sorted(ids)
                    keep = set(ids)
                    expected = {e for e in g.edges if e[0] in keep and e[1] in keep}
                    assert {(ids[a], ids[b], w) for a, b, w in sub.edges} == expected


# Graphs for the ball tests: a hub with far more neighbors than any other node
# (diameter 2); two components, one with a weighted chord, plus isolated
# nodes 5, 10 and 11 (diameter 3); a float-weighted graph with more nodes than
# one block of centers.
BALL_GRAPHS = {
    "star": lambda: star_graph(40),
    "two_components": lambda: WeightedGraph(12, (
        (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (0, 4, 1.0),
        (1, 3, 2.0), (6, 7, 0.5), (7, 8, 1.5), (8, 9, 2.5))),
    "random_float": lambda: random_connected_graph(
        np.random.default_rng(17), _CENTER_BLOCK + 44, p=0.005),
}


def hop_counts(g: WeightedGraph) -> list[dict[int, int]]:
    """Per node, the hop count to every node it reaches, by plain breadth-first search."""
    nbrs: list[list[int]] = [[] for _ in range(g.num_nodes)]
    for a, b, _ in g.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    out = []
    for v in range(g.num_nodes):
        hops, queue = {v: 0}, [v]
        for u in queue:
            for w in nbrs[u]:
                if w not in hops:
                    hops[w] = hops[u] + 1
                    queue.append(w)
        out.append(hops)
    return out


class TestKHopBalls:
    @pytest.mark.parametrize("name", sorted(BALL_GRAPHS))
    def test_balls_match_bruteforce_filter(self, name):
        g = BALL_GRAPHS[name]()
        hops = hop_counts(g)
        if name != "random_float":
            assert max(max(h.values()) for h in hops) <= 3  # k = 3, 4 reach past it
        # Every node in order, and an unordered subset with a repeat.
        some = np.random.default_rng(5).permutation(g.num_nodes)[:9]
        for centers in (np.arange(g.num_nodes), np.append(some, some[0])):
            for k in range(5):
                offsets, nodes, (ball, u, v, w) = _k_hop_balls(g, centers, k)
                assert offsets.size == centers.size + 1 and offsets[-1] == nodes.size
                for i, c in enumerate(centers.tolist()):
                    ids = nodes[offsets[i]:offsets[i + 1]].tolist()
                    assert ids == sorted(x for x, h in hops[c].items() if h <= k)
                    mine = ball == i
                    assert (u[mine] < v[mine]).all()
                    got = [(ids[a], ids[b], x) for a, b, x in
                           zip(u[mine].tolist(), v[mine].tolist(), w[mine].tolist())]
                    keep = set(ids)
                    assert len(got) == len(set(got))
                    assert set(got) == {e for e in g.edges if e[0] in keep and e[1] in keep}

    @pytest.mark.parametrize("name,ks", [("two_components", (1, 2, 3, 4)),
                                         ("random_float", (1, 2))],
                             ids=["two_components", "random_float"])
    def test_local_profile_matches_per_ball(self, name, ks):
        g = BALL_GRAPHS[name]()
        for k in ks:
            prof = local_profile(g, k, "inf")
            for v in range(g.num_nodes):
                sub, _ = k_hop_subgraph(g, v, k)
                assert prof.per_node[v] == delta_inf(shortest_paths(sub)), (k, v)

    def test_csr_is_cached_read_only_adjacency(self):
        g = BALL_GRAPHS["two_components"]()
        indptr, upper, neighbor, weight = g.csr
        assert g.csr is g.csr
        for a in (indptr, upper, neighbor, weight):
            assert not a.flags.writeable
        for u in range(g.num_nodes):
            lower = list(zip(neighbor[indptr[u]:upper[u]].tolist(),
                             weight[indptr[u]:upper[u]].tolist()))
            higher = list(zip(neighbor[upper[u]:indptr[u + 1]].tolist(),
                              weight[upper[u]:indptr[u + 1]].tolist()))
            assert lower == [(a, x) for a, b, x in g.edges if b == u]
            assert higher == [(b, x) for a, b, x in g.edges if a == u]


class TestGenerators:
    @pytest.mark.parametrize("rows,cols,nodes,edges", [
        (2, 2, 4, 4), (3, 3, 9, 12), (5, 5, 25, 40)])
    def test_lattice_counts(self, rows, cols, nodes, edges):
        g = generate_lattice(rows, cols)
        assert g.num_nodes == nodes and g.num_edges == edges

    @pytest.mark.parametrize("b,d,nodes", [(2, 0, 1), (2, 3, 15), (3, 2, 13)])
    def test_tree_counts(self, b, d, nodes):
        g = generate_tree(b, d)
        assert g.num_nodes == nodes and g.num_edges == nodes - 1

    def test_tree_acyclic_connected(self):
        g = generate_tree(3, 3)
        dm = shortest_paths(g)
        assert dm.connected and g.num_edges == g.num_nodes - 1

    def test_combined_reference(self):
        g = reference_combined_graph()
        assert g.num_nodes == 40 and g.num_edges == 55
        assert shortest_paths(g).connected

    def test_combined_singletons(self):
        a = generate_tree(1, 0)
        b = generate_tree(1, 0)
        g = generate_combined(a, b, (0, 0))
        assert g.num_nodes == 2 and g.edges == ((0, 1, 1.0),)

    def test_combined_bad_glue(self):
        with pytest.raises(GraphValidationError):
            generate_combined(generate_lattice(2, 2), generate_tree(2, 1), (99, 0))

    def test_lattice_validation(self):
        with pytest.raises(GraphValidationError):
            generate_lattice(1, 5)

    def test_node_bound_checked_before_building(self, monkeypatch):
        # Against a lowered bound: unbounded, tree(2, 100) would loop over
        # about 2**101 nodes.
        monkeypatch.setattr(graphs, "MAX_NODES", 100)
        assert generate_lattice(10, 10).num_nodes == 100
        assert generate_tree(1, 99).num_nodes == 100
        assert generate_tree(3, 3).num_nodes == 40
        for make in (lambda: generate_lattice(10, 11), lambda: generate_tree(1, 100),
                     lambda: generate_tree(2, 6), lambda: generate_tree(2, 100),
                     lambda: generate_tree(10**20, 1)):
            with pytest.raises(GraphValidationError, match=r"MAX_NODES \(100\)"):
                make()


class TestSplits:
    def test_node_split_counts_and_determinism(self):
        g = generate_lattice(2, 5)  # 10 nodes
        s1 = split_nodes(g, (0.6, 0.2, 0.2), seed=11)
        s2 = split_nodes(g, (0.6, 0.2, 0.2), seed=11)
        assert (len(s1.train), len(s1.val), len(s1.test)) == (6, 2, 2)
        for part in ("train", "val", "test"):
            a, b = getattr(s1, part), getattr(s2, part)
            assert a.dtype == np.int64 and not a.flags.writeable
            assert np.array_equal(a, b)
        s3 = split_nodes(g, (0.6, 0.2, 0.2), seed=12)
        assert not np.array_equal(np.concatenate([s3.train, s3.val, s3.test]),
                                  np.concatenate([s1.train, s1.val, s1.test]))

    def test_split_disjoint_exhaustive(self):
        g = generate_lattice(4, 5)
        s = split_nodes(g, (0.6, 0.2, 0.2), seed=0)
        parts = set(s.train) | set(s.val) | set(s.test)
        assert parts == set(range(20))
        assert len(s.train) + len(s.val) + len(s.test) == 20

    def test_edge_split_85_5_10(self):
        g = generate_lattice(4, 5)  # 31 edges
        g20 = WeightedGraph(g.num_nodes, g.edges[:20])
        s = split_edges(g20, (0.85, 0.05, 0.10), seed=5)
        assert (len(s.train), len(s.val), len(s.test)) == (17, 1, 2)
        assert len(s.val_neg) == 1 and len(s.test_neg) == 2

    def test_edge_split_negatives_are_non_edges(self):
        g = generate_lattice(3, 4)
        s = split_edges(g, (0.85, 0.05, 0.10), seed=2)
        present = {(u, v) for u, v, _ in g.edges}
        for neg in (s.val_neg, s.test_neg):
            assert neg.dtype == np.int64 and not neg.flags.writeable
        for u, v in np.concatenate([s.val_neg, s.test_neg]).tolist():
            assert (min(u, v), max(u, v)) not in present

    def test_degenerate_fractions_rejected(self):
        g = generate_lattice(2, 5)
        with pytest.raises(SplitError):
            split_nodes(g, (1.0, 0.0, 0.0), seed=0)

    def test_too_small_population(self):
        g = WeightedGraph(2, ((0, 1, 1.0),))
        with pytest.raises(SplitError):
            split_nodes(g, (0.6, 0.2, 0.2), seed=0)

    def test_non_edge_sampler_matches_rebuilt_edge_set(self):
        g = random_connected_graph(np.random.default_rng(4), 30, 0.15)
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(3):           # later calls reuse the cached key set
            present = {(u, v) for u, v, _ in g.edges}
            ref: list[tuple[int, int]] = []
            while len(ref) < 25:
                u, v = int(ref_rng.integers(30)), int(ref_rng.integers(30))
                key = (min(u, v), max(u, v))
                if u != v and key not in present and key not in ref:
                    ref.append(key)
            out = sample_non_edges(g, 25, rng)
            assert out.dtype == np.int64 and not out.flags.writeable
            assert np.array_equal(out, ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert g.edge_keys == frozenset((u, v) for u, v, _ in g.edges)

    def test_non_edge_sampler_output_pinned_on_sparse_graph(self):
        g = random_connected_graph(np.random.default_rng(4), 12, 0.2)  # 19 of 66 pairs
        assert np.array_equal(sample_non_edges(g, 8, np.random.default_rng(21)), [
            (3, 9), (1, 4), (3, 7), (2, 5), (8, 11), (2, 10), (8, 9), (6, 11)])

    def test_non_edge_sampler_on_near_complete_graph(self):
        n = 40
        missing = {(i, i + 1) for i in range(0, 30, 2)} | {(0, 39), (5, 17)}
        g = WeightedGraph(n, tuple((u, v, 1.0) for u in range(n) for v in range(u + 1, n)
                                   if (u, v) not in missing))
        for count in (0, 9, len(missing)):
            out = sample_non_edges(g, count, np.random.default_rng(count))
            pairs = set(map(tuple, out.tolist()))
            assert out.shape == (count, 2) and len(pairs) == count
            assert pairs <= missing
        assert np.array_equal(sample_non_edges(g, 9, np.random.default_rng(3)),
                              sample_non_edges(g, 9, np.random.default_rng(3)))

    def test_non_edge_sampler_exhaustion(self):
        g = cycle_graph(4)  # 2 non-edges only
        rng = np.random.default_rng(0)
        assert len(sample_non_edges(g, 2, rng)) == 2
        with pytest.raises(SplitError):
            sample_non_edges(g, 3, np.random.default_rng(0))


def test_graph_hash_stability():
    g1 = path_graph(4)
    g2 = path_graph(4)
    g3 = path_graph(4, [1.0, 1.0, 2.0])
    assert graph_hash(g1) == graph_hash(g2)
    assert graph_hash(g1) != graph_hash(g3)


@pytest.mark.parametrize("make, error, fault", [
    (lambda: WeightedGraph(0, ()), GraphValidationError, "at least one node"),
    (lambda: WeightedGraph(2, ((0, 1, 1.0),), features=np.zeros((3, 2))),
     GraphValidationError, r"features must be \(num_nodes, dim\)"),
    (lambda: WeightedGraph(2, ((0, 1, 1.0),), labels=np.zeros((2, 1))),
     GraphValidationError, "labels must have one entry per node"),
    (lambda: path_graph(3).scaled(0), GraphValidationError,
     "scale factor must be positive"),
    (lambda: k_hop_subgraph(path_graph(3), 3, 1), GraphValidationError,
     "node 3 out of range"),
    (lambda: k_hop_subgraph(path_graph(3), 0, -1), GraphValidationError,
     "hop count must be >= 0"),
    (lambda: generate_tree(0, 2), GraphValidationError, "branching must be >= 1"),
    (lambda: generate_tree(2, -1), GraphValidationError, "depth must be >= 0"),
    (lambda: generate_combined(generate_lattice(2, 2), generate_tree(2, 1), (0, 3)),
     GraphValidationError, "glue node 3 not in second graph"),
    (lambda: split_nodes(generate_lattice(2, 5), (0.5, 0.25, 0.5), seed=0),
     SplitError, "fractions must sum to 1")],
    ids=["no-nodes", "feature-shape", "label-shape", "zero-scale", "hop-center",
         "negative-hops", "zero-branching", "negative-depth", "tree-glue",
         "fraction-sum"])
def test_bad_argument_rejected_by_name(make, error, fault):
    with pytest.raises(error, match=fault):
        make()
