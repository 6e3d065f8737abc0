import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointspace import hyperbolicity
from jointspace.graphs import (DistanceMatrix, WeightedGraph, generate_combined,
                               generate_lattice, generate_tree, k_hop_subgraph,
                               reference_combined_graph, shortest_paths)
from jointspace.hyperbolicity import (MAX_HISTOGRAM_BINS, CrossComponentError,
                                      ExactLimitExceeded, HyperbolicityProfile,
                                      delta_inf, delta_one_exact,
                                      delta_one_sampled, four_point_tau,
                                      histogram, is_tree_metric, local_profile,
                                      profile_from_json, profile_to_json)

from conftest import (cycle_graph, naive_delta_inf, ordered_mean_tau,
                      ordered_sup_tau, path_graph, random_connected_graph,
                      random_halfint_graph, random_tree)


class TestFourPointTau:
    def test_degenerate_quadruple(self):
        dm = shortest_paths(path_graph(4))
        assert four_point_tau(dm, 1, 1, 1, 1) == 0.0

    def test_tree_quadruples_zero(self):
        dm = shortest_paths(generate_tree(3, 3))
        rng = np.random.default_rng(0)
        for _ in range(200):
            x, y, z, t = rng.integers(0, dm.num_nodes, 4)
            assert four_point_tau(dm, x, y, z, t) == 0.0

    def test_cycle_hand_value(self):
        dm = shortest_paths(cycle_graph(4))
        # pairing (0,2),(1,3): 2+2 vs 1+1 and 1+1
        assert four_point_tau(dm, 0, 2, 1, 3) == 1.0

    def test_cross_component_rejected(self):
        g = WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0)))
        dm = shortest_paths(g)
        with pytest.raises(CrossComponentError):
            four_point_tau(dm, 0, 1, 2, 3)

    @given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7),
           st.integers(0, 7), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, x, y, z, t, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2 ** 31))
        dm = shortest_paths(random_connected_graph(rng, 8, p=0.4))
        base = four_point_tau(dm, x, y, z, t)
        assert four_point_tau(dm, y, x, z, t) == base
        assert four_point_tau(dm, x, y, t, z) == base
        assert four_point_tau(dm, z, t, x, y) == base


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
        rng = np.random.default_rng(31)
        for trial in range(15):
            n = int(rng.integers(4, 13))
            dm = shortest_paths(random_connected_graph(rng, n))
            dinf = delta_inf(dm)
            assert dinf <= dm.d.max() / 2.0 + 1e-12
            for _ in range(50):
                x, y, z, t = rng.integers(0, n, 4)
                assert four_point_tau(dm, x, y, z, t) <= dinf + 1e-12

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
        ("lattice_tree", 2, "a69f8c1fd75b6e3bbb2c0cf4e6460a69211edba668b9046009dd66e61b38a9b8"),
        ("lattice_tree", 3, "0d8b698299c8790855c851fd9abb2eea05f7be1d9847d9e6e63cf17671798504"),
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
        with pytest.raises(CrossComponentError, match="nodes 0 and 3 lie"):
            four_point_tau(dm, 0, 1, 3, 2)
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
    def test_batched_equals_per_ball(self, weights, mode):
        # A 30x30 lattice glued to tree(3, 5): tree and non-tree balls, and 671
        # balls of 13 nodes, more than one stack holds.
        rng = np.random.default_rng(41)
        lattice = generate_lattice(30, 30)
        drawn = (rng.choice([0.5, 1.0, 1.5, 2.0, 2.5], size=lattice.num_edges)
                 if weights == "half" else rng.uniform(0.5, 2.0, lattice.num_edges))
        lattice = WeightedGraph(lattice.num_nodes, tuple(
            (u, v, float(w)) for (u, v, _), w in zip(lattice.edges, drawn)))
        g = generate_combined(lattice, generate_tree(3, 5), (417, 0))
        exact_limit, num_samples, seed = 8, 200, 3
        prof = local_profile(g, 2, mode, exact_limit=exact_limit,
                             num_samples=num_samples, seed=seed)
        sizes = []
        for v in range(g.num_nodes):
            sub, _ = k_hop_subgraph(g, v, 2)
            sizes.append(sub.num_nodes)
            if sub.num_nodes < 4:
                expected = 0.0
            elif mode == "inf":
                expected = delta_inf(shortest_paths(sub))
            elif is_tree_metric(dm := shortest_paths(sub)):
                expected = 0.0
            elif sub.num_nodes <= exact_limit:
                expected = delta_one_exact(dm, exact_limit)
            else:
                expected, _ = delta_one_sampled(dm, num_samples,
                                                seed=seed * 1_000_003 + v)
            assert prof.per_node[v] == expected, v
        assert sizes.count(13) * 13 * 13 > 2 * hyperbolicity._STACK_ELEMENTS
        assert any(prof.per_node[v] == 0.0 and sizes[v] >= 4 for v in range(900, 1264))

    def test_sampled_seed_beyond_int64(self):
        # With an np.int64 center the derived seed is an np.int64, which the
        # sampler's 0xFFFFFFFFFFFFFFFF mask overflows at any seed; 2**40 keeps
        # the derived seeds large as well.
        g, seed, num_samples, exact_limit = generate_lattice(6, 6), 2**40, 200, 8
        prof = local_profile(g, 2, "one", exact_limit=exact_limit,
                             num_samples=num_samples, seed=seed)
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
        '{"k": 2, "delta": {"0": 0.5}}', '{"k": 1e400, "mode": "inf", "delta": {}}'],
        ids=["list", "number", "null-k", "list-delta", "list-value", "no-mode",
             "infinite-k"])
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
