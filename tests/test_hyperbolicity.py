import hashlib
import math
import re

import numpy as np
import pytest

from jointspace import hyperbolicity
from jointspace.graphs import (DistanceMatrix, WeightedGraph, generate_combined,
                               generate_lattice, generate_tree, k_hop_subgraph,
                               reference_combined_graph, shortest_paths)
from jointspace.hyperbolicity import (MAX_HISTOGRAM_BINS, CrossComponentError,
                                      ExactLimitExceeded, HyperbolicityProfile,
                                      delta_inf, delta_one_exact,
                                      delta_one_sampled, histogram,
                                      is_tree_metric, local_profile,
                                      profile_from_json, profile_to_json)

from conftest import (core_delta_inf, cycle_graph, naive_delta_inf, ordered_mean_tau,
                      ordered_sup_tau, path_graph, random_connected_graph,
                      random_halfint_graph, random_tree, two_core)


class TestDeltaInf:
    def test_paths_and_trees_zero(self):
        assert delta_inf(shortest_paths(path_graph(9))) == 0.0
        assert delta_inf(shortest_paths(generate_tree(2, 4))) == 0.0

    @pytest.mark.parametrize("n,expected", [(4, 1.0), (8, 2.0), (12, 3.0)])
    def test_cycles(self, n, expected):
        assert delta_inf(shortest_paths(cycle_graph(n))) == expected

    def test_scaled_cycle(self):
        assert delta_inf(shortest_paths(cycle_graph(4, w=2.0))) == 2.0

    def test_small_n_returns_zero(self):
        assert delta_inf(shortest_paths(path_graph(3))) == 0.0
        assert delta_inf(shortest_paths(path_graph(2))) == 0.0

    def test_disconnected_rejected(self):
        g = WeightedGraph(5, ((0, 1, 1.0), (2, 3, 1.0), (3, 4, 1.0)))
        with pytest.raises(CrossComponentError):
            delta_inf(shortest_paths(g))

    def test_matches_naive_enumeration_exactly(self):
        # Half-integer weights keep all path sums exactly representable, so
        # bit-exact agreement with the unpruned enumerator is well defined.
        rng = np.random.default_rng(17)
        for trial in range(40):
            n = int(rng.integers(4, 15))
            g = random_halfint_graph(rng, n)
            dm = shortest_paths(g)
            assert delta_inf(dm) == naive_delta_inf(dm)

    def test_tracks_naive_enumeration_on_float_weights(self):
        # With irrational-ish float weights the naive sums carry rounding dust
        # of order 1e-16; agreement is asserted to that scale.
        rng = np.random.default_rng(19)
        for trial in range(20):
            n = int(rng.integers(4, 13))
            dm = shortest_paths(random_connected_graph(rng, n))
            assert delta_inf(dm) == pytest.approx(naive_delta_inf(dm), abs=1e-12)

    def test_unordered_formula_equals_ordered_sup(self):
        rng = np.random.default_rng(23)
        for trial in range(15):
            n = int(rng.integers(4, 13))
            dm = shortest_paths(random_halfint_graph(rng, n))
            assert delta_inf(dm) == ordered_sup_tau(dm)

    def test_diameter_bound_and_tau_bound(self):
        # Each quadruple's defect is at most delta_inf by the comparison with
        # the ordered supremum above; this checks the diameter bound.
        rng = np.random.default_rng(31)
        for trial in range(15):
            n = int(rng.integers(4, 13))
            dm = shortest_paths(random_connected_graph(rng, n))
            assert delta_inf(dm) <= dm.d.max() / 2.0 + 1e-12

    def test_scaling_law(self):
        # Half-integer weights scale exactly under s in {0.5, 2, 10}.
        rng = np.random.default_rng(5)
        for trial in range(10):
            g = random_halfint_graph(rng, int(rng.integers(5, 12)))
            base = delta_inf(shortest_paths(g))
            for s in (0.5, 2.0, 10.0):
                scaled = delta_inf(shortest_paths(g.scaled(s)))
                if base == 0.0:
                    assert scaled == 0.0
                else:
                    assert abs(scaled - s * base) / (s * base) < 1e-12

    def test_scaling_law_float_weights(self):
        # Scaling float weights re-rounds them; agreement up to metric dust.
        rng = np.random.default_rng(8)
        for trial in range(10):
            g = random_connected_graph(rng, int(rng.integers(5, 12)))
            base = delta_inf(shortest_paths(g))
            for s in (0.5, 2.0, 10.0):
                scaled = delta_inf(shortest_paths(g.scaled(s)))
                assert abs(scaled - s * base) <= 1e-12 * max(1.0, s)

    def test_perturbation_stability_smoke(self):
        # Empirical continuity: +/- eps per edge moves the result by <= 8 eps.
        rng = np.random.default_rng(41)
        eps = 1e-3
        for trial in range(20):
            n = int(rng.integers(5, 13))
            g = random_connected_graph(rng, n)
            base = delta_inf(shortest_paths(g))
            jitter = tuple(
                (u, v, w + float(rng.uniform(-eps, eps))) for u, v, w in g.edges)
            perturbed = delta_inf(shortest_paths(WeightedGraph(n, jitter)))
            assert abs(perturbed - base) <= 8.0 * eps


def with_pendant_trees(rng: np.random.Generator, g: WeightedGraph, count: int,
                       weights) -> WeightedGraph:
    """``g`` plus ``count`` new nodes, each joined to one random earlier node.

    The new nodes form trees hung from ``g``'s nodes; each new edge's weight
    is drawn from ``weights()``.
    """
    n = g.num_nodes
    grafted = tuple((int(rng.integers(0, v)), v, weights()) for v in range(n, n + count))
    return WeightedGraph(n + count, g.edges + grafted)


def preferential_attachment(rng: np.random.Generator, n: int, m: int = 2) -> WeightedGraph:
    """Unit-weight graph where each new node joins m distinct earlier nodes.

    Nodes 0..m form a clique; each later node picks its m neighbors in
    proportion to their degree, so a few early nodes become hubs.
    """
    edges = [(u, v, 1.0) for v in range(1, m + 1) for u in range(v)]
    ends = [x for u, v, _ in edges for x in (u, v)]
    for v in range(m + 1, n):
        chosen: set[int] = set()
        while len(chosen) < m:
            chosen.add(ends[int(rng.integers(len(ends)))])
        for u in sorted(chosen):
            edges.append((u, v, 1.0))
            ends += [u, v]
    return WeightedGraph(n, tuple(edges))


def clique_chain(sizes, windmill: bool = False) -> WeightedGraph:
    """Unit-weight cliques of the given sizes, joined at single shared nodes.

    Each clique shares its first node with the previous clique's last one,
    or, for a windmill, with node 0.  Every block is a clique, so the path
    metric of the graph, and of each connected induced ball, is a tree
    metric whose 2-core is all of its nodes.
    """
    edges, start = [], 0
    for m in sizes:
        first = 0 if windmill else start
        nodes = [first] + list(range(start + 1, start + m))
        edges += [(a, b, 1.0) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
        start += m - 1
    return WeightedGraph(start + 1, tuple(edges))


def float_lattice_tree() -> WeightedGraph:
    """A 20x20 lattice with seeded U(0.5, 2) weights, glued to tree(3, 5)."""
    rng = np.random.default_rng(12)
    lattice = generate_lattice(20, 20)
    drawn = rng.uniform(0.5, 2.0, lattice.num_edges)
    lattice = WeightedGraph(lattice.num_nodes, tuple(
        (u, v, float(w)) for (u, v, _), w in zip(lattice.edges, drawn)))
    return generate_combined(lattice, generate_tree(3, 5), (210, 0))


class TestDeltaInfStack:
    @pytest.mark.parametrize("graph,k,digest", [
        ("lattice_tree", 2, "4a3a50298eb1f3e4312060fa30c3dd2df8ec10388c5828fc304422190811f796"),
        ("lattice_tree", 3, "33e10a48cbc53d35c92b859a5f27df812ecc17345d50dba49f696affd9974c74"),
        ("reference", 1, "7b6436b0c98f62380866d9432c2af0ee08ce16a171bda6951aecd95ee1307d61"),
        ("reference", 2, "4b69c0328f183e89c64fd17dc787823ce00a54ada2b94829efd200470328efa4"),
        ("reference", 3, "659b767214edd8b1b7d67a212be7256c27603cc84c24e9150859ec28bf51b21f"),
        ("reference", 4, "d1152d12fb3667b6b97a9a109adbdb072a4f8df01185d2eea04f4568ccc9b2e0"),
    ])
    def test_profile_bytes_pinned(self, graph, k, digest):
        # Worst-case profiles are maxima of elementwise float sums, with no
        # BLAS, so their bytes are the same on every platform; these digests
        # pin them through any rewrite of the kernel.
        g = float_lattice_tree() if graph == "lattice_tree" else reference_combined_graph()
        values = local_profile(g, k, "inf").values_by_node()
        assert hashlib.sha256(values.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("n", [9, 11, 14])
    def test_stack_matches_naive_and_stacks_of_one(self, n):
        # Metrics of different shapes and weights leave the walk at different
        # rows, so the stack shrinks while the others keep walking.
        rng = np.random.default_rng(59 + n)
        graphs = []
        for i in range(40):
            p = float(rng.uniform(0.15, 0.6))
            graphs.append(random_halfint_graph(rng, n, p) if i % 2
                          else random_connected_graph(rng, n, p))
        graphs += [cycle_graph(n), random_tree(rng, n)]
        d = np.stack([shortest_paths(g).d for g in graphs])
        stacked = hyperbolicity._delta_inf_stack(d)
        assert len(set(stacked.tolist())) > 20
        for i in range(d.shape[0]):
            alone = hyperbolicity._delta_inf_stack(d[i:i + 1])[0]
            assert stacked[i] == alone == naive_delta_inf(DistanceMatrix(d[i])), i


    def test_tree_metrics_certified_after_the_first_block(self, monkeypatch):
        # A tree metric's best stays 0, so it would walk all P^2 / 2 pair
        # pairs.  Only the metrics still at 0 after the first block run the
        # certificate, once, and the certified ones stop there at 0.
        rng = np.random.default_rng(97)
        trees = [clique_chain([13]), clique_chain([5, 5, 5]), clique_chain([7, 7]),
                 clique_chain([5, 5, 5], windmill=True), random_tree(rng, 13)]
        others = [cycle_graph(13)] + [random_connected_graph(rng, 13, 0.3) for _ in range(6)]
        d = np.stack([shortest_paths(g).d for g in others + trees])
        calls, certify = [], hyperbolicity._tree_mask

        def record(stack):
            tree = certify(stack)
            calls.append(tree.tolist())
            return tree

        monkeypatch.setattr(hyperbolicity, "_tree_mask", record)
        stacked = hyperbolicity._delta_inf_stack(d)
        assert calls == [[True] * len(trees)]
        assert (stacked[:len(others)] > 0.0).all()
        assert stacked[len(others):].tolist() == [0.0] * len(trees)
        for i in range(d.shape[0]):
            assert stacked[i] == naive_delta_inf(DistanceMatrix(d[i])), i

    @pytest.mark.parametrize("k", [2, 3])
    def test_lattice_cores_run_no_certificate(self, k, monkeypatch):
        # Every lattice core reaches a positive best in its first block.
        def refuse(stack):
            raise AssertionError("_tree_mask reached")

        monkeypatch.setattr(hyperbolicity, "_tree_mask", refuse)
        for g in (generate_lattice(12, 12), float_lattice_tree()):
            assert local_profile(g, k, "inf").values_by_node().any()


class TestTreeMetricCertificate:
    def test_trees_certify(self):
        rng = np.random.default_rng(2)
        for n in (5, 20, 80):
            assert is_tree_metric(shortest_paths(random_tree(rng, n)))

    def test_cycles_do_not(self):
        for n in (4, 5, 8):
            assert not is_tree_metric(shortest_paths(cycle_graph(n)))

    def test_weighted_tree(self):
        g = path_graph(6, [0.5, 2.0, 1.25, 0.75, 3.0])
        assert is_tree_metric(shortest_paths(g))

    @pytest.mark.parametrize("n", [1, 2])
    def test_fewer_than_three_nodes_certify(self, n):
        assert is_tree_metric(shortest_paths(path_graph(n)))


class TestDeltaOne:
    def test_tree_zero(self):
        assert delta_one_exact(shortest_paths(generate_tree(2, 3))) == 0.0

    def test_single_node(self):
        assert delta_one_exact(shortest_paths(WeightedGraph(1, ()))) == 0.0

    def test_c4_exact_fraction(self):
        # one quadruple with defect 1, realized by 8 of the 256 ordered tuples
        assert delta_one_exact(shortest_paths(cycle_graph(4))) == 8.0 / 256.0

    def test_matches_ordered_bruteforce(self):
        rng = np.random.default_rng(13)
        for trial in range(12):
            n = int(rng.integers(4, 13))
            dm = shortest_paths(random_connected_graph(rng, n))
            mine = delta_one_exact(dm)
            brute = ordered_mean_tau(dm)
            assert mine == pytest.approx(brute, rel=1e-10, abs=1e-14)

    def test_scaling_law(self):
        rng = np.random.default_rng(6)
        g = random_halfint_graph(rng, 10)
        base = delta_one_exact(shortest_paths(g))
        for s in (0.5, 2.0, 10.0):
            scaled = delta_one_exact(shortest_paths(g.scaled(s)))
            assert scaled == pytest.approx(s * base, rel=1e-12)

    def test_exact_limit_enforced(self):
        dm = shortest_paths(generate_tree(2, 5))  # 63 nodes
        with pytest.raises(ExactLimitExceeded, match="delta_one_sampled"):
            delta_one_exact(dm, exact_limit=60)

    def test_sampled_tree_exact_zero(self):
        dm = shortest_paths(random_tree(np.random.default_rng(1), 100))
        est, se = delta_one_sampled(dm, 1000, seed=9)
        assert est == 0.0 and se == 0.0

    def test_sampled_close_to_exact(self):
        dm = shortest_paths(cycle_graph(4))
        exact = delta_one_exact(dm)
        est, se = delta_one_sampled(dm, 100_000, seed=3)
        assert abs(est - exact) <= 3.0 * se

    def test_sampled_deterministic(self):
        dm = shortest_paths(cycle_graph(8))
        assert delta_one_sampled(dm, 5000, seed=4) == delta_one_sampled(dm, 5000, seed=4)
        assert delta_one_sampled(dm, 5000, seed=4) != delta_one_sampled(dm, 5000, seed=5)

    @pytest.mark.parametrize("seed, num_samples, expected", [
        (0, 100, (0.13, 0.03666666666666667)),
        (0, 8192, (0.1143798828125, 0.004015274887502368)),
        (0, 8193, (0.11436592212864641, 0.00401480904435068)),
        (7, 8193, (0.11692908580495545, 0.004063028705756448)),
        (7, 100_000, (0.11652, 0.0011660379464000837)),
        (2**40 * 1_000_003 + 5, 100, (0.11, 0.03450955072018601)),
        (2**40 * 1_000_003 + 5, 100_000, (0.11385, 0.0011533841848884437)),
    ])
    def test_sampled_stream_pinned(self, seed, num_samples, expected):
        # Literal values pin the Philox stream itself: one chunk, a chunk
        # boundary (8192 | 8193), many chunks, and a seed past 64 bits.
        dm = shortest_paths(generate_lattice(5, 5))
        assert delta_one_sampled(dm, num_samples, seed=seed) == expected

    def test_min_samples(self):
        dm = shortest_paths(cycle_graph(4))
        with pytest.raises(ValueError):
            delta_one_sampled(dm, 50, seed=0)


def float_star(rng: np.random.Generator, n: int) -> WeightedGraph:
    """Star on n nodes, center 0, with float weights in [0.5, 2).

    Its Gromov products at the center are exactly 0, so the tree certificate
    accepts it although its distances carry rounding.
    """
    edges = tuple((0, i, float(rng.uniform(0.5, 2.0))) for i in range(1, n))
    return WeightedGraph(num_nodes=n, edges=edges)


class TestDeltaOneStack:
    @pytest.mark.parametrize("weights", ["half", "float"])
    def test_matches_ordered_bruteforce(self, weights):
        rng = np.random.default_rng(43)
        make = random_halfint_graph if weights == "half" else random_connected_graph
        for trial in range(10):
            dm = shortest_paths(make(rng, int(rng.integers(4, 13))))
            mine = hyperbolicity._delta_one_stack(dm.d[None])[0]
            brute = ordered_mean_tau(dm)
            if weights == "half":
                # Half-integer sums are exact, so any summation order agrees.
                assert mine == brute
            else:
                assert mine == pytest.approx(brute, rel=1e-12, abs=0.0)
            assert delta_one_exact(dm) == mine

    def test_mixed_stack_equals_stacks_of_one(self):
        rng = np.random.default_rng(47)
        n = 9
        graphs = [random_connected_graph(rng, n), float_star(rng, n),
                  random_halfint_graph(rng, n), random_tree(rng, n),
                  random_connected_graph(rng, n, p=0.2), float_star(rng, n)]
        d = np.stack([shortest_paths(g).d for g in graphs])
        stacked = hyperbolicity._delta_one_stack(d)
        for i, g in enumerate(graphs):
            alone = hyperbolicity._delta_one_stack(d[i:i + 1])[0]
            assert stacked[i] == alone == delta_one_exact(shortest_paths(g)), i
        assert stacked[[1, 3, 5]].tolist() == [0.0, 0.0, 0.0]
        assert (stacked[[0, 2, 4]] > 0.0).all()

    def test_certified_float_weighted_tree_exactly_zero(self):
        rng = np.random.default_rng(53)
        for n in (4, 12, 30):
            dm = shortest_paths(float_star(rng, n))
            assert is_tree_metric(dm) and delta_one_exact(dm) == 0.0

    def test_distance_matrix_of_disconnected_graph_rejected(self):
        g = WeightedGraph(6, ((0, 1, 1.0), (1, 2, 1.5), (3, 4, 1.0), (4, 5, 2.0)))
        dm = DistanceMatrix(shortest_paths(g).d)
        with pytest.raises(CrossComponentError):
            delta_one_exact(dm)
        with pytest.raises(CrossComponentError):
            delta_one_sampled(dm, 100)

    def test_reachable_is_isfinite(self):
        g = WeightedGraph(5, ((0, 1, 1.0), (1, 2, 0.5), (3, 4, 2.0)))
        dm = shortest_paths(g)
        component = np.array([0, 0, 0, 1, 1])
        assert np.array_equal(np.isfinite(dm.d), component[:, None] == component)
        assert not dm.connected and dm.d[np.isfinite(dm.d)].max() == 2.0

    def test_profile_builds_no_distance_matrix_for_exact_balls(self, monkeypatch):
        g = generate_lattice(5, 5)
        expected = local_profile(g, 2, "one", exact_limit=13)

        def refuse(*args, **kwargs):
            raise AssertionError("per-ball call")

        for name in ("DistanceMatrix", "delta_one_exact", "delta_one_sampled"):
            monkeypatch.setattr(hyperbolicity, name, refuse)
        assert local_profile(g, 2, "one", exact_limit=13) == expected


class TestLocalProfile:
    def test_tree_profile_all_zero(self):
        g = generate_tree(2, 4)
        for mode in ("inf", "one"):
            prof = local_profile(g, 2, mode)
            assert all(v == 0.0 for v in prof.per_node.values())

    def test_lattice_center(self):
        prof = local_profile(generate_lattice(5, 5), 2, "inf")
        assert prof.per_node[12] == 2.0

    def test_combined_graph_mixture(self):
        from jointspace.graphs import reference_combined_graph
        prof = local_profile(reference_combined_graph(), 2, "inf")
        vals = prof.values_by_node()
        tree_vals = vals[25:]
        assert (tree_vals == 0.0).all()
        assert (vals[:25] >= 1.0).all()

    def test_inf_matches_naive_on_every_ball(self):
        rng = np.random.default_rng(37)
        for trial in range(6):
            g = random_halfint_graph(rng, int(rng.integers(6, 13)), p=0.3)
            for k in (1, 2):
                prof = local_profile(g, k, "inf")
                for v in range(g.num_nodes):
                    sub, _ = k_hop_subgraph(g, v, k)
                    assert prof.per_node[v] == naive_delta_inf(shortest_paths(sub))

    @pytest.mark.parametrize("mode", ["inf", "one"])
    @pytest.mark.parametrize("weights", ["half", "float"])
    def test_batched_equals_per_ball(self, weights, mode, monkeypatch):
        # A 30x30 lattice glued to tree(3, 5): tree and non-tree balls, and 671
        # balls of 13 nodes, more than one stack holds.  A lowered sample
        # count keeps the sampled balls cheap.
        monkeypatch.setattr(hyperbolicity, "DEFAULT_NUM_SAMPLES", 200)
        rng = np.random.default_rng(41)
        lattice = generate_lattice(30, 30)
        drawn = (rng.choice([0.5, 1.0, 1.5, 2.0, 2.5], size=lattice.num_edges)
                 if weights == "half" else rng.uniform(0.5, 2.0, lattice.num_edges))
        lattice = WeightedGraph(lattice.num_nodes, tuple(
            (u, v, float(w)) for (u, v, _), w in zip(lattice.edges, drawn)))
        g = generate_combined(lattice, generate_tree(3, 5), (417, 0))
        exact_limit, num_samples, seed = 8, 200, 3
        prof = local_profile(g, 2, mode, exact_limit=exact_limit, seed=seed)
        sizes = []
        for v in range(g.num_nodes):
            sub, _ = k_hop_subgraph(g, v, 2)
            sizes.append(sub.num_nodes)
            if sub.num_nodes < 4:
                expected = 0.0
            elif mode == "inf":
                whole = delta_inf(shortest_paths(sub))
                assert prof.per_node[v] <= whole
                assert math.isclose(prof.per_node[v], whole, rel_tol=1e-12, abs_tol=1e-12)
                expected = core_delta_inf(sub)
                if weights == "half":
                    assert expected == whole, v
            elif len(two_core(sub)[0]) < 4 or is_tree_metric(dm := shortest_paths(sub)):
                expected = 0.0
            elif sub.num_nodes <= exact_limit:
                expected = delta_one_exact(dm, exact_limit)
            else:
                expected, _ = delta_one_sampled(dm, num_samples,
                                                seed=seed * 1_000_003 + v)
            assert prof.per_node[v] == expected, v
        assert sizes.count(13) * 13 * 13 > 2 * hyperbolicity._STACK_ELEMENTS
        assert any(prof.per_node[v] == 0.0 and sizes[v] >= 4 for v in range(900, 1264))

    def test_sampled_seed_beyond_int64(self, monkeypatch):
        # With an np.int64 center the derived seed is an np.int64, which the
        # sampler's 0xFFFFFFFFFFFFFFFF mask overflows at any seed; 2**40 keeps
        # the derived seeds large as well.
        monkeypatch.setattr(hyperbolicity, "DEFAULT_NUM_SAMPLES", 200)
        g, seed, num_samples, exact_limit = generate_lattice(6, 6), 2**40, 200, 8
        prof = local_profile(g, 2, "one", exact_limit=exact_limit, seed=seed)
        sampled = 0
        for v in range(g.num_nodes):
            sub, _ = k_hop_subgraph(g, v, 2)
            dm = shortest_paths(sub)
            if sub.num_nodes > exact_limit and not is_tree_metric(dm):
                expected, _ = delta_one_sampled(dm, num_samples, seed=seed * 1_000_003 + v)
                assert prof.per_node[v] == expected, v
                sampled += 1
        assert sampled >= 16

    def test_values_by_node_is_read_only_and_not_copied(self):
        for prof in (local_profile(generate_lattice(5, 5), 2, "inf"),
                     HyperbolicityProfile({1: 2.0, 0: 1.0}, 2, "inf")):
            vals = prof.values_by_node()
            assert vals is prof.values_by_node()
            assert vals.dtype == np.float64 and not vals.flags.writeable
            with pytest.raises(ValueError):
                vals[0] = 5.0
            with pytest.raises(TypeError):
                prof.per_node[0] = 5.0
            assert prof.per_node[1] == vals[1] and len(prof.per_node) == len(vals)
            with pytest.raises(KeyError):
                prof.per_node[-1]
            with pytest.raises(KeyError, match="'0'"):
                prof.per_node["0"]

    def test_small_subgraph_zero(self):
        # k=1 balls on a 3-path have fewer than 4 vertices
        prof = local_profile(path_graph(3), 1, "inf")
        assert all(v == 0.0 for v in prof.per_node.values())

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            HyperbolicityProfile({0: -1.0}, 2, "inf")
        with pytest.raises(ValueError):
            HyperbolicityProfile({0: 1.0}, 2, "weird")
        with pytest.raises(ValueError, match="finite"):
            HyperbolicityProfile({0: float("nan")}, 2, "inf")

    def test_profile_keys_must_be_node_ids(self):
        with pytest.raises(ValueError,
                           match="no value for node 1, unexpected node 999"):
            HyperbolicityProfile({0: 0.0, 999: 1.0, 2: 0.5}, 2, "inf")
        with pytest.raises(ValueError, match="unexpected node '1'"):
            HyperbolicityProfile({0: 0.0, "1": 1.0}, 2, "inf")


class TestTwoCores:
    """In "inf" mode each ball is cut to its 2-core before the walk."""

    @pytest.mark.parametrize("scale", [1.0, 2.0], ids=["half", "integer"])
    def test_exact_weights_match_naive_on_whole_ball(self, scale):
        # Sums of half-integers are exact, so the core's value is bitwise
        # the whole ball's, pendant trees and all.
        rng = np.random.default_rng(71)
        stripped = positive = 0
        for trial in range(3):
            base = random_halfint_graph(rng, int(rng.integers(6, 10)), p=0.35)
            base = WeightedGraph(base.num_nodes,
                                 tuple((u, v, w * scale) for u, v, w in base.edges))
            g = with_pendant_trees(rng, base, 6,
                                   lambda: scale * float(rng.choice((0.5, 1.0, 1.5))))
            for k in (1, 2):
                prof = local_profile(g, k, "inf")
                for v in range(g.num_nodes):
                    sub, _ = k_hop_subgraph(g, v, k)
                    assert prof.per_node[v] == naive_delta_inf(shortest_paths(sub)), (k, v)
                    stripped += 4 <= len(two_core(sub)[0]) < sub.num_nodes
                    positive += prof.per_node[v] > 0
        assert stripped > 10 and positive > 10

    def float_graphs(self):
        rng = np.random.default_rng(73)
        for trial in range(4):
            base = random_connected_graph(rng, int(rng.integers(6, 12)), p=0.3)
            yield with_pendant_trees(rng, base, 8, lambda: float(rng.uniform(0.5, 2.0)))

    def test_core_metric_is_whole_ball_metric_restricted(self):
        # A stripped vertex never strictly shortens a path between core
        # nodes, so the core's Floyd-Warshall gives the whole ball's floats.
        cores = 0
        for g in self.float_graphs():
            for k in (1, 2, 3):
                for v in range(g.num_nodes):
                    sub, _ = k_hop_subgraph(g, v, k)
                    ids, edges = two_core(sub)
                    if not ids:
                        continue
                    core = shortest_paths(WeightedGraph(len(ids), edges)).d
                    whole = shortest_paths(sub).d[np.ix_(ids, ids)]
                    assert np.array_equal(core, whole), (k, v)
                    cores += len(ids) < sub.num_nodes
        assert cores > 50

    def test_float_values_are_core_values(self):
        # Exactly the core's delta_inf; at most the whole ball's, which can
        # carry rounding of sums through pendant vertices, and within 1e-12.
        for g in self.float_graphs():
            for k in (1, 2, 3):
                prof = local_profile(g, k, "inf")
                for v in range(g.num_nodes):
                    sub, _ = k_hop_subgraph(g, v, k)
                    whole = delta_inf(shortest_paths(sub))
                    assert prof.per_node[v] == core_delta_inf(sub), (k, v)
                    assert prof.per_node[v] <= whole
                    assert math.isclose(prof.per_node[v], whole, rel_tol=1e-12, abs_tol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_float_weighted_trees_exactly_zero(self, k):
        # The tree certificate rejects most float-weighted trees; their
        # cores are empty, so no walk runs and no round-off shows.
        rng = np.random.default_rng(79)
        for trial in range(4):
            n = int(rng.integers(20, 40))
            g = WeightedGraph(n, tuple((int(rng.integers(0, i)), i, float(rng.uniform(0.5, 2.0)))
                                       for i in range(1, n)))
            assert not local_profile(g, k, "inf").values_by_node().any()

    @pytest.mark.parametrize("mode", ["inf", "one"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_tree_balls_cost_no_path_metric(self, k, mode, monkeypatch):
        # Every ball's 2-core has under 4 nodes, so each value is exactly 0
        # in both modes, float weights included, and no ball is stacked.
        rng = np.random.default_rng(89)
        weight = lambda: float(rng.uniform(0.5, 2.0))  # noqa: E731
        triangle = WeightedGraph(3, ((0, 1, weight()), (0, 2, weight()), (1, 2, weight())))
        graphs = [with_pendant_trees(rng, triangle, 30, weight), generate_tree(3, 5)]
        for trial in range(3):
            n = int(rng.integers(20, 60))
            graphs.append(WeightedGraph(n, tuple((int(rng.integers(0, i)), i, weight())
                                                 for i in range(1, n))))
        stacks, build = [], hyperbolicity._path_metric_stack

        def record(count, n, *edges):
            stacks.append((count, n))
            return build(count, n, *edges)

        monkeypatch.setattr(hyperbolicity, "_path_metric_stack", record)
        for g in graphs:
            assert local_profile(g, k, mode).values_by_node().tolist() == [0.0] * g.num_nodes
        assert stacks == []

    @pytest.mark.parametrize("mode, exact_limit", [("inf", 60), ("one", 60), ("one", 8)],
                             ids=["inf", "one-exact", "one-sampled"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_block_graph_balls_are_certified(self, k, mode, exact_limit, monkeypatch):
        # Each ball's 2-core is the whole ball, yet it is a tree metric: the
        # certificate settles every stacked ball, and none is sampled.
        def refuse(*args, **kwargs):
            raise AssertionError("delta_one_sampled reached")

        calls, certify = [], hyperbolicity._tree_mask

        def record(stack):
            tree = certify(stack)
            calls.append(tree.tolist())
            return tree

        monkeypatch.setattr(hyperbolicity, "delta_one_sampled", refuse)
        monkeypatch.setattr(hyperbolicity, "_tree_mask", record)
        for g in (clique_chain([6, 8, 10, 8, 6]), clique_chain([5] * 6, windmill=True)):
            calls.clear()
            prof = local_profile(g, k, mode, exact_limit=exact_limit)
            assert prof.values_by_node().tolist() == [0.0] * g.num_nodes
            assert sum(len(c) for c in calls) == g.num_nodes and all(map(all, calls))

    def test_hub_graph_matches_per_ball(self):
        g = preferential_attachment(np.random.default_rng(83), 150)
        assert max(np.bincount(g.edge_index.ravel())) > 30
        prof = local_profile(g, 2, "inf")
        for v in range(g.num_nodes):
            sub, _ = k_hop_subgraph(g, v, 2)
            assert prof.per_node[v] == delta_inf(shortest_paths(sub)), v


class TestDistributions:
    def test_histogram_ignores_order(self):
        values = np.array([1.0, 0.0, 2.5, 0.25, 1.0])
        assert histogram(values) == histogram(np.sort(values)) == histogram(values[::-1])
        assert histogram(values).counts == (2, 0, 2, 0, 0, 1)

    def test_tree_single_bin(self):
        prof = local_profile(generate_tree(2, 3), 2, "inf")
        h = histogram(prof.values_by_node())
        assert h.counts == (15,)
        assert h.bin_edges == (0.0, 0.5)

    def test_combined_three_nonzero_bins(self):
        from jointspace.graphs import reference_combined_graph
        prof = local_profile(reference_combined_graph(), 2, "inf")
        h = histogram(prof.values_by_node())
        nonzero = [h.bin_edges[i] for i, c in enumerate(h.counts) if c > 0]
        assert nonzero == [0.0, 1.0, 2.0]

    def test_histogram_half_open_bins(self):
        h = histogram((0.0, 0.5, 0.999, 1.0), 0.5)
        assert h.counts == (1, 2, 1)

    def test_histogram_csv(self, tmp_path):
        f = tmp_path / "h.csv"
        histogram((0.0, 1.0)).to_csv(f)
        lines = f.read_text().strip().splitlines()
        assert lines[0] == "bin_left,bin_right,count"
        assert len(lines) == 4

    def test_profile_json_round_trip(self):
        prof = HyperbolicityProfile({0: 0.0, 1: 1.5}, 2, "inf")
        assert profile_from_json(profile_to_json(prof)) == prof

    @pytest.mark.parametrize("text", [
        '[1, 2]', '3', '{"k": null, "mode": "inf", "delta": {"0": 0.5}}',
        '{"k": 2, "mode": "inf", "delta": [1, 2]}',
        '{"k": 2, "mode": "inf", "delta": {"0": [0.5]}}',
        '{"k": 2, "delta": {"0": 0.5}}', '{"k": 1e400, "mode": "inf", "delta": {}}',
        '{"k": 2.9, "mode": "inf", "delta": {"0": 0.5}}',
        '{"k": "2", "mode": "inf", "delta": {"0": 0.5}}',
        '{"k": true, "mode": "inf", "delta": {"0": 0.5}}',
        '{"k": 2, "mode": "inf", "delta": {"0": "3.5"}}',
        '{"k": 2, "mode": "inf", "delta": {"0": true}}',
        '{"k": 2, "mode": "inf", "delta": {"00": 0.5}}',
        '{"k": 2, "mode": "inf", "delta": {"0": 0.5, " 1": 0.5}}'],
        ids=["list", "number", "null-k", "list-delta", "list-value", "no-mode",
             "infinite-k", "fractional-k", "string-k", "bool-k", "string-value",
             "bool-value", "padded-id", "spaced-id"])
    def test_profile_json_of_other_shapes_rejected(self, text):
        with pytest.raises(ValueError, match="profile JSON|mode"):
            profile_from_json(text)

    def test_empty_distribution_rejected(self):
        with pytest.raises(ValueError, match="at least one value"):
            histogram(np.array([]))

    @pytest.mark.parametrize("width", [math.inf, math.nan, 0.0, -0.5])
    def test_histogram_rejects_bad_width(self, width):
        with pytest.raises(ValueError, match=f"bin_width .* got {width}$"):
            histogram((0.0, 1.0), width)

    @pytest.mark.parametrize("values,bad", [
        ((0.5, math.nan, -1.0), "nan at position 1"),
        ((1.0, 0.0, -0.5), "-0.5 at position 2"),
        ((math.inf,), "inf at position 0")], ids=["nan", "negative", "inf"])
    def test_histogram_rejects_bad_values(self, values, bad):
        with pytest.raises(ValueError, match=f"finite and nonnegative, got {bad}$"):
            histogram(values)

    def test_histogram_bin_cap(self):
        values = (0.0, 1.0, 2.0)
        h = histogram(values, 1e-5)
        assert len(h.counts) == int(2.0 // 1e-5) + 1 <= MAX_HISTOGRAM_BINS
        assert sum(h.counts) == 3 and h.counts[0] == 1 and h.counts[-1] == 1
        for width in (2e-6, 1e-9, 1e-300):
            with pytest.raises(ValueError, match=f"bin_width {width} needs more than "
                                                 f"{MAX_HISTOGRAM_BINS} bins"):
                histogram(values, width)


@pytest.mark.parametrize("k, mode, fault", [
    (0, "inf", "k must be an integer >= 1, got 0"),
    (2, "sup", "mode must be 'inf' or 'one', got 'sup'")], ids=["zero-k", "unknown-mode"])
def test_local_profile_rejects_bad_argument(k, mode, fault):
    with pytest.raises(ValueError, match=fault):
        local_profile(path_graph(4), k, mode)


@pytest.mark.parametrize("k", [np.int64(2), True, 2.0, "2", -1],
                         ids=["numpy-int", "bool", "float", "string", "negative"])
def test_local_profile_checks_k_before_any_work(k, monkeypatch):
    def refuse(*args):
        raise AssertionError("_ball_stacks reached")

    monkeypatch.setattr(hyperbolicity, "_ball_stacks", refuse)
    with pytest.raises(ValueError, match=re.escape(f"k must be an integer >= 1, got {k!r}")):
        local_profile(path_graph(4), k, "inf")


@pytest.mark.parametrize("kwargs, fault", [
    ({"seed": np.int64(5)}, f"seed must be an integer, got {np.int64(5)!r}"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"exact_limit": None}, "exact_limit must be an integer, got None")],
    ids=["numpy-seed", "float-seed", "bool-seed", "none-exact-limit"])
def test_local_profile_checks_int_arguments_before_any_work(kwargs, fault, monkeypatch):
    def refuse(*args):
        raise AssertionError("_ball_stacks reached")

    monkeypatch.setattr(hyperbolicity, "_ball_stacks", refuse)
    with pytest.raises(ValueError, match=re.escape(fault)):
        local_profile(path_graph(4), 2, "one", **kwargs)


@pytest.mark.parametrize("call, fault", [
    (lambda dm: delta_one_sampled(dm, 1e3), "num_samples must be an integer, got 1000.0"),
    (lambda dm: delta_one_sampled(dm, 1000, seed=np.int64(5)),
     f"seed must be an integer, got {np.int64(5)!r}"),
    (lambda dm: delta_one_sampled(dm, 1000, seed=1.5), "seed must be an integer, got 1.5"),
    (lambda dm: delta_one_sampled(dm, 1000, seed=True), "seed must be an integer, got True"),
    (lambda dm: delta_one_exact(dm, exact_limit="x"),
     "exact_limit must be an integer, got 'x'")],
    ids=["float-samples", "numpy-seed", "float-seed", "bool-seed", "string-exact-limit"])
def test_delta_one_checks_int_arguments(call, fault):
    with pytest.raises(ValueError, match=re.escape(fault)):
        call(shortest_paths(cycle_graph(6)))


def test_negative_seed_is_its_64_bit_twin():
    dm = shortest_paths(cycle_graph(6))
    assert delta_one_sampled(dm, 200, seed=-1) == delta_one_sampled(dm, 200, seed=2**64 - 1)
