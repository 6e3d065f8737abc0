import gc
import math
import weakref

import numpy as np
import pytest

from jointspace import autodiff as ad
from jointspace import layers
from jointspace import poincare as pc
from jointspace.graphs import WeightedGraph, generate_tree
from jointspace.layers import (JointSpaceGNN, _attention_logits,
                               _parameter_count, fusion_forward, gat_forward, hgat_forward,
                               init_layer_params, load_params_json,
                               save_params_json)
from jointspace.poincare import PROJECTION_MARGIN, d_bias_messages, d_edge_distance
from jointspace.training import synthetic_lp_tree, synthetic_nc_graph

from conftest import path_graph


def attention_arrays(g):
    """The (source, destination) arrays of the graph's attention index."""
    src, dst = g.attention_index
    return src.idx, dst.idx


def ball_rows(rng, n, dim, c=1.0, scale=0.3):
    return pc._radial(rng.normal(size=(n, dim)) * scale, c, pc._project_scale)[0]


def exp_rows(z, c):
    """The ball points exp_0(z) of tangent rows, from the kernel."""
    return pc._radial(z, c, pc._exp_scale)[0]


def log_rows(x, c):
    return pc._radial(x, c, pc._log_scale)[0]


def bias_node(t, b, c):
    """log_0(exp_0(t) (+)_c exp_0(b)) as one local node composed from the kernel
    in the order of the four ball nodes it replaced (exp_0 of t, exp_0 of b as
    a row, Mobius addition, log_0), with their gradients chained."""
    t, b = ad.as_diff(t), ad.as_diff(b)
    cv = float(c.value) if isinstance(c, ad.DiffValue) else float(c)
    x, x_parts = pc._radial(t.value, cv, pc._exp_scale)
    y, y_parts = pc._radial(b.value.reshape(1, -1), cv, pc._exp_scale)
    m, m_parts = pc._mobius_add_parts(x, y, cv)
    out, log_parts = pc._radial(m, cv, pc._log_scale)

    def vjp(g):
        g_m, c_log = pc._radial_grad(g, *log_parts)
        g_x, g_y, c_add = pc._mobius_add_grad(g_m, *m_parts)
        g_t, c_x = pc._radial_grad(g_x, *x_parts)
        g_b, c_y = pc._radial_grad(ad._unbroadcast(g_y, y.shape), *y_parts)
        grads = (g_t, g_b.reshape(b.shape))
        if isinstance(c, ad.DiffValue):
            grads += (np.full(c.shape, c_log + c_add + c_x + c_y),)
        return grads
    parents = (t, b) + ((c,) if isinstance(c, ad.DiffValue) else ())
    return ad.DiffValue(out, parents, vjp)


def pair_graph(n):
    """A graph on 2n nodes whose m = n edges join node i to node n + i."""
    return WeightedGraph(2 * n, tuple((i, n + i, 1.0) for i in range(n)))


def pair_distance(x, y, c):
    """Distance between the ball points of tangent rows ``x[i]`` and ``y[i]``:
    ``d_edge_distance`` over the rows of ``x`` stacked on those of ``y`` (a
    node whose VJP splits the rows back), on ``pair_graph``, whose first n
    attention edges are the pairs (a node whose VJP pads the other edges'
    gradients with zeros)."""
    x, y = ad.as_diff(x), ad.as_diff(y)
    n = x.shape[0]
    xy = ad.DiffValue(np.concatenate([x.value, y.value]), (x, y),
                      lambda g: (g[:n], g[n:]))
    dist = d_edge_distance(xy, pair_graph(n), c)
    rest = np.zeros(dist.shape[0] - n)
    return ad.DiffValue(dist.value[:n], (dist,), lambda g: (np.concatenate([g, rest]),))


class TestDifferentiableBallOps:
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_match_numpy_kernel(self, c):
        rng = np.random.default_rng(0)
        zx = log_rows(ball_rows(rng, 6, 4, c), c)
        zy = log_rows(ball_rows(rng, 6, 4, c), c)
        b = zy[0]
        def rows(f):
            return np.stack([f(i) for i in range(6)])
        bias_np = rows(lambda i: pc.log_origin(pc.mobius_add(pc.exp_origin(zx[i], c),
                                                             pc.exp_origin(b, c))))
        assert np.allclose(d_bias_messages(zx, b, c).value, bias_np, atol=1e-14)
        dist_np = np.array([pc.hyp_distance(pc.exp_origin(zx[i], c),
                                            pc.exp_origin(zy[i], c))
                            for i in range(6)])
        assert np.allclose(pair_distance(zx, zy, c).value, dist_np, atol=1e-12)

    def test_zero_vector_exactness(self):
        z = np.zeros((2, 3))
        assert np.all(d_bias_messages(z, np.zeros(3), 1.0).value == 0.0)
        x = ad.DiffValue(np.random.default_rng(0).normal(size=(2, 3)) * 0.3)
        y = ad.DiffValue(x.value.copy())
        curv = ad.DiffValue(1.5)
        dist = pair_distance(x, y, curv)
        assert np.all(dist.value == 0.0)
        ad.backward(ad.mean_(dist))
        assert np.all(x.grad == 0.0) and np.all(y.grad == 0.0) and curv.grad == 0.0

    def test_gradients_through_ball_ops(self):
        rng = np.random.default_rng(2)
        x = ad.DiffValue(rng.normal(size=(4, 3)) * 0.3)
        y = ad.DiffValue(rng.normal(size=(4, 3)) * 0.3)
        b = ad.DiffValue(rng.normal(size=3) * 0.3)
        wts = rng.normal(size=(4, 3))

        def loss_fn():
            t = d_bias_messages(x, b, 1.0)
            d = pair_distance(x, y, 1.0)
            return ad.add(ad.mean_(ad.mul(t, wts)), ad.mean_(d))

        assert ad.finite_diff_check(loss_fn, [x, y, b]) < 1e-5

        # Each op alone, in every input and in a trainable curvature, on
        # tangent rows at the edges of its formula.  Rows are given by
        # u = sqrt(c) ||row||; exp_0 clips where tanh(u) passes the margin,
        # at u of about 6.1.
        for c in (0.5, 1.0, 2.0):
            def rows(*us, direction=None):
                v = rng.normal(size=(len(us), 3)) if direction is None \
                    else np.tile(direction, (len(us), 1))
                return v / np.linalg.norm(v, axis=1, keepdims=True) \
                    * np.array(us)[:, None] / math.sqrt(c)

            near = log_rows(rows(0.999), c)
            # Distance pairs: zero rows on either side, interior rows, an
            # identical pair, a pair 1e-3 apart, and an antipodal
            # near-boundary pair whose sqrt(c) ||-x (+) y|| is clipped at the
            # margin, so its gradient is 0.  The identical pair sits at the
            # origin: elsewhere the distance has a kink there that central
            # differences read as the conformal factor's slope, not as the
            # zero subgradient (test_zero_vector_exactness checks that one).
            close = rows(0.6)
            step = rng.normal(size=3)
            dist_x = np.vstack([rows(0.0, 0.5, 0.9, 0.0), close, near])
            dist_y = np.vstack([rows(0.4, 0.0, 0.7, 0.0),
                                close + step / np.linalg.norm(step) * 1e-3, -near])
            e = rng.normal(size=3)
            cases = {
                # a zero row, interior rows, and rows whose exp_0 clips
                "bias": (d_bias_messages, [rows(0.0, 0.5, 3.0, 8.0), rows(0.4)[0]]),
                # a zero bias
                "bias_zero_b": (d_bias_messages, [rows(0.0, 0.5, 1.5), np.zeros(3)]),
                # rows aligned with the bias whose Mobius sum passes the
                # margin and is projected, one of them with a clipped exp_0,
                # and a row whose sum stays inside
                "bias_margin": (d_bias_messages, [np.vstack([rows(5.0, 8.0, direction=e),
                                                             rows(0.7)]),
                                                  rows(4.0, direction=e)[0]]),
                "distance": (pair_distance, [dist_x, dist_y]),
            }
            clip = 2.0 * math.atanh(1.0 - PROJECTION_MARGIN) / math.sqrt(c)
            clipped = pair_distance(near, -near, c).value[0]
            assert clipped == pytest.approx(clip, rel=1e-15)
            t, b = cases["bias_margin"][1]
            sums = pc._mobius_add_parts(exp_rows(t, c), exp_rows(b, c), c)[1][-2]
            scaled = math.sqrt(c) * np.linalg.norm(sums, axis=1)
            assert np.all(scaled[:2] > 1.0 - PROJECTION_MARGIN)
            assert scaled[2] < 1.0 - PROJECTION_MARGIN
            for name, (op, arrays) in cases.items():
                leaves = [ad.DiffValue(a) for a in arrays]
                curv = ad.DiffValue(c)
                w_out = rng.normal(size=op(*leaves, curv).shape)

                def op_loss():
                    return ad.mean_(ad.mul(op(*leaves, curv), w_out))

                # h = 1e-5 leaves an O((h / 1e-3)^2) truncation error of about
                # 5e-5 on the close pair; h = 1e-6 brings it to about 5e-7.
                h = 1e-6 if name == "distance" else 1e-5
                err = ad.finite_diff_check(op_loss, leaves + [curv], h=h)
                assert err < 1e-5, (name, c, err)

    def test_projection_keeps_rows_valid(self):
        rng = np.random.default_rng(3)
        wild = rng.normal(size=(10, 4)) * 100.0
        out = pc._radial(wild, 2.0, pc._project_scale)[0]
        assert (math.sqrt(2.0) * np.linalg.norm(out, axis=1)
                <= 1.0 - PROJECTION_MARGIN + 1e-12).all()


class TestEdgeDistance:
    # Path 0-1-2, node 3 alone, and nodes 4-5 joined only to each other at
    # antipodal near-boundary points, whose distance is clipped at the margin.
    GRAPH = WeightedGraph(6, ((0, 1, 1.0), (1, 2, 1.0), (4, 5, 1.0)))

    def rows(self, rng, c):
        """Tangent rows: the log_0 images of those ball points."""
        x = ball_rows(rng, 6, 3, c, scale=0.2 / math.sqrt(c))
        x[0] = 0.0                                  # a row at the origin
        v = rng.normal(size=3)
        x[4] = v / np.linalg.norm(v) * 0.999 / math.sqrt(c)
        x[5] = -x[4]
        return log_rows(x, c)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_equals_gathered_composition(self, c):
        rng = np.random.default_rng(31)
        z0 = self.rows(rng, c)
        src, dst = self.GRAPH.attention_index
        w = rng.normal(size=src.idx.shape)
        z, curv = ad.DiffValue(z0.copy()), ad.DiffValue(c)
        dist = d_edge_distance(z, self.GRAPH, curv)
        ad.backward(ad.mean_(ad.mul(dist, w)))
        value, g_z, g_c = dist.value, z.grad, curv.grad
        g_rows = (1.0 / w.size) * w
        # The ball points exp_0(z), and the chain back through that map.
        x0, exp_parts = pc._radial(z0, c, pc._exp_scale)
        # The pair-form reference, bitwise: the row kernel once per undirected
        # edge u < v (dst = v, src = u), its value written to both directions
        # and +0.0 to the self loops; the row gradients at the sum of the two
        # directions' weights, added into u and then v with np.add.at.
        m = self.GRAPH.num_edges
        u, v = self.GRAPH.edge_index.T
        d, parts = pc._distance_parts(x0[v], x0[u], c, pc._sq_norm(x0[v]),
                                      pc._sq_norm(x0[u]))
        (g_u, g_v), pair_g_c = pc._distance_grad((g_rows[:m] + g_rows[m:2 * m])[:, None],
                                                 *parts)
        pair_g_x = np.zeros_like(x0)
        np.add.at(pair_g_x, u, g_u)
        np.add.at(pair_g_x, v, g_v)
        pair_g_z, exp_g_c = pc._radial_grad(pair_g_x, *exp_parts)
        pair_value = np.concatenate([d[:, 0], d[:, 0], np.zeros(self.GRAPH.num_nodes)])
        assert np.array_equal(value, pair_value)
        assert np.array_equal(g_z, pair_g_z) and np.array_equal(g_c, pair_g_c + exp_g_c)
        # The per-direction reference: the row kernel on the gathered endpoint
        # rows of every attention edge, and its row gradients summed into each
        # endpoint with np.add.at.  Its values are the op's bit for bit, self
        # loops +0.0 included; its gradients agree to round-off.
        xd, xs = x0[dst.idx], x0[src.idx]
        ref_value, parts = pc._distance_parts(xd, xs, c, pc._sq_norm(xd),
                                              pc._sq_norm(xs))
        (g_src, g_dst), ref_g_c = pc._distance_grad(g_rows[:, None], *parts)
        into_dst, into_src = np.zeros_like(x0), np.zeros_like(x0)
        np.add.at(into_dst, dst.idx, g_dst)
        np.add.at(into_src, src.idx, g_src)
        ref_g_z, ref_exp_g_c = pc._radial_grad(into_src + into_dst, *exp_parts)
        assert np.array_equal(value, ref_value[:, 0])
        np.testing.assert_allclose(g_z, ref_g_z, rtol=1e-12)
        np.testing.assert_allclose(g_c, ref_g_c + ref_exp_g_c, rtol=1e-12)
        loops = src.idx == dst.idx
        assert np.all(value[loops] == 0.0) and not np.any(np.signbit(value[loops]))
        clip = 2.0 * math.atanh(1.0 - PROJECTION_MARGIN) / math.sqrt(c)
        assert value[(src.idx == 4) & (dst.idx == 5)][0] == pytest.approx(clip, rel=1e-15)
        # Self loops and the clipped pair pass nothing; the path rows get some.
        assert np.all(g_z[3:] == 0.0) and np.all(np.any(g_z[:3] != 0.0, axis=1))

    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_gradcheck_with_trainable_curvature(self, c):
        rng = np.random.default_rng(32)
        z, curv = ad.DiffValue(self.rows(rng, c)), ad.DiffValue(c)
        w = rng.normal(size=attention_arrays(self.GRAPH)[0].shape)

        def loss_fn():
            return ad.mean_(ad.mul(d_edge_distance(z, self.GRAPH, curv), w))

        assert ad.finite_diff_check(loss_fn, [z, curv]) < 1e-5


class TestBiasMessages:
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_kernel_composition(self, c, seed):
        # Rows from the origin to u = sqrt(c) ||t|| = 2, whose sums stay inside
        # the ball.  Near the margin atanh multiplies the round-off of the
        # two forms by 1 / (1 - u^2), about 5e4, and they agree to about
        # 2e-12 there; test_gradients_through_ball_ops checks those rows.
        rng = np.random.default_rng(seed)
        us = np.array([0.0, 0.1, 0.5, 1.0, 1.5, 2.0])
        v = rng.normal(size=(len(us), 5))
        t0 = v / np.linalg.norm(v, axis=1, keepdims=True) * us[:, None] / math.sqrt(c)
        b0 = rng.normal(size=5)
        b0 *= 0.5 / (math.sqrt(c) * np.linalg.norm(b0))
        w = rng.normal(size=t0.shape)
        got = []
        for op in (d_bias_messages, bias_node):
            t, b, curv = ad.DiffValue(t0.copy()), ad.DiffValue(b0.copy()), ad.DiffValue(c)
            out = op(t, b, curv)
            assert out._parents == (t, b, curv)
            ad.backward(ad.mean_(ad.mul(out, w)))
            got.append((out.value, t.grad, b.grad, curv.grad))
        # The curvature's gradient is one sum over all rows, whose terms
        # cancel, so its relative error is larger.
        for name, mine, ref, bound in zip(("value", "t", "b", "c"), *got,
                                          (1e-12, 1e-12, 1e-12, 1e-11)):
            err = np.max(np.abs(mine - ref)) / np.max(np.abs(ref))
            assert err <= bound, (name, err)

    def test_untrained_curvature_is_no_parent(self):
        rng = np.random.default_rng(34)
        t, b = ad.DiffValue(rng.normal(size=(4, 3))), ad.DiffValue(rng.normal(size=3))
        assert d_bias_messages(t, b, 1.0)._parents == (t, b)


class TestConstantInputs:
    """A plain array given to a layer step is a constant: no parent, no gradient."""

    def test_linear_has_only_the_weight_as_parent(self):
        rng = np.random.default_rng(35)
        x, W0 = rng.normal(size=(5, 3)), rng.normal(size=(4, 3))
        w = rng.normal(size=(5, 4))
        results = []
        for given in (x, ad.DiffValue(x.copy())):
            W = ad.DiffValue(W0.copy())
            out = layers._linear(given, W)
            assert out._parents == ((W,) if given is x else (given, W))
            ad.backward(ad.mean_(ad.mul(out, w)))
            results.append(out.value.tobytes() + W.grad.tobytes())
        assert results[0] == results[1]

    @pytest.mark.parametrize("c", [0.7, 1.3])
    def test_edge_distance_is_a_leaf_or_hangs_on_the_curvature(self, c):
        rng = np.random.default_rng(36)
        g = TestEdgeDistance.GRAPH
        z0 = TestEdgeDistance().rows(rng, c)
        leaf = d_edge_distance(z0, g, c)
        assert leaf._parents == () and leaf._vjp is None
        w = rng.normal(size=leaf.shape)
        results = []
        for z in (z0, ad.DiffValue(z0.copy())):
            curv = ad.DiffValue(c)
            dist = d_edge_distance(z, g, curv)
            assert dist._parents == ((curv,) if z is z0 else (z, curv))
            ad.backward(ad.mean_(ad.mul(dist, w)))
            results.append((dist.value, curv.grad))
        assert results[0][0].tobytes() == results[1][0].tobytes() == leaf.value.tobytes()
        assert results[0][1].tobytes() == results[1][1].tobytes()
        assert results[0][1] != 0.0

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_model_gradients_equal_the_diffvalue_path(self, dropout):
        # Layer one reads plain features as a constant; given as a DiffValue
        # they are a tape leaf.  Every parameter gradient is bitwise the same,
        # a trained curvature included, and layer one's curvature still gets
        # a gradient through its edge distance.
        g = generate_tree(2, 2)
        feats = np.random.default_rng(37).normal(size=(7, 3))
        model = JointSpaceGNN(3, 4, 2, num_layers=2, q_dim=3, seed=5,
                              trainable_curvature=True)
        grads = []
        for given in (feats, ad.DiffValue(feats.copy())):
            out, _ = model.forward(g, given, dropout=dropout, training=True,
                                   rng=np.random.default_rng(38))
            ad.backward(ad.mean_(ad.mul(out.z, out.z)))
            grads.append({k: v.grad.tobytes() for k, v in model.named_parameters().items()})
        assert grads[0] == grads[1]
        assert model.layers[0].hgat.curvature.grad != 0.0

    def test_hgat_on_plain_input_has_no_input_node(self):
        # Nine nodes whose leaves are W, b, a and the edge distance.
        g = generate_tree(2, 2)
        rng = np.random.default_rng(39)
        lp = init_layer_params(rng, 3, 4, 2)
        nodes = _tape_nodes(hgat_forward(rng.normal(size=(7, 3)), g, lp.hgat))
        leaves = [node for node in nodes if not node._parents]
        assert len(nodes) == 9 and len(leaves) == 4
        rest = [x for x in leaves if not any(x is p for p in (lp.hgat.W, lp.hgat.b, lp.hgat.a))]
        assert len(rest) == 1 and rest[0].shape == g.attention_index[0].idx.shape


class TestAttentionEdges:
    def test_includes_both_directions_and_self_loops(self):
        g = path_graph(3)
        src, dst = attention_arrays(g)
        assert len(src) == 2 * g.num_edges + g.num_nodes
        pairs = set(zip(src.tolist(), dst.tolist()))
        assert (0, 1) in pairs and (1, 0) in pairs and (2, 2) in pairs

    def test_matches_list_construction(self):
        g = generate_tree(3, 3)
        src = [u for u, v, _ in g.edges] + [v for u, v, _ in g.edges]
        dst = [v for u, v, _ in g.edges] + [u for u, v, _ in g.edges]
        src += range(g.num_nodes)
        dst += range(g.num_nodes)
        got_src, got_dst = attention_arrays(g)
        for got, ref in ((got_src, src), (got_dst, dst)):
            assert got.dtype == np.int64 and got.tolist() == list(ref)

    def test_edge_index_is_cached_and_read_only(self):
        g = generate_tree(2, 2)
        assert g.edge_index is g.edge_index
        assert g.edge_index.shape == (g.num_edges, 2)
        assert not g.edge_index.flags.writeable
        with pytest.raises(ValueError):
            g.edge_index[0, 0] = 5


class TestAttentionIndex:
    def test_cached_and_read_only(self):
        g = synthetic_nc_graph()
        index = g.attention_index
        assert g.attention_index is index
        src, dst = index
        for got in index:
            assert got.idx.dtype == np.int64 and not got.idx.flags.writeable
            flat = got.flat(4)
            assert got.flat(4) is flat and not flat.flags.writeable
        with pytest.raises(ValueError):
            src.idx[0] = 1

    def test_offsets_equal_formula(self):
        src, dst = synthetic_nc_graph().attention_index
        for index in (src, dst):
            idx = index.idx
            assert index.flat(1) is idx
            for width in (2, 3, 16):
                want = (idx[:, None] * width + np.arange(width)).ravel()
                assert np.array_equal(index.flat(width), want)
        assert np.array_equal(dst.flat(2, 0), 2 * dst.idx)
        assert np.array_equal(src.flat(2, 1), 2 * src.idx + 1)

    @pytest.mark.parametrize("tail", [(), (3,), (2, 3)])
    def test_scatter_with_kept_offsets_equals_add_at(self, tail):
        g = synthetic_nc_graph()
        rng = np.random.default_rng(33)
        for index in g.attention_index:
            shape = index.idx.shape + tail
            rows = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
            want = np.zeros((g.num_nodes,) + tail)
            np.add.at(want, index.idx, rows)
            for _ in range(2):                   # builds the offsets, then reuses them
                got = ad._scatter_rows(rows, index, g.num_nodes)
                assert got.tobytes() == want.tobytes()

    def test_graph_and_index_are_freed_together(self):
        g = synthetic_nc_graph()
        model = JointSpaceGNN(g.features.shape[1], 4, 2, seed=0)
        out = model.forward(g, g.features, dropout=0.5, rng=np.random.default_rng(0),
                            training=True)[0]
        ad.backward(ad.mean_(out.z))            # keeps offsets on the index
        refs = [weakref.ref(g), weakref.ref(g.attention_index[0].flat(4))]
        del g, out
        gc.collect()
        assert all(ref() is None for ref in refs)


class TestAttentionLogits:
    def test_per_node_scores_match_concat_form(self):
        rng = np.random.default_rng(21)
        n, d = 30, 5
        pairs = {tuple(sorted(p)) for p in rng.integers(0, n, size=(80, 2))
                 if p[0] != p[1]}
        pairs |= {(i, i + 1) for i in range(n - 1)}        # no isolated node
        g = WeightedGraph(n, tuple((u, v, 1.0) for u, v in sorted(pairs)))
        src, dst = attention_arrays(g)
        h = ad.DiffValue(rng.normal(size=(n, d)))
        a = ad.DiffValue(rng.normal(size=2 * d))
        got = _attention_logits(h, a, src, dst).value
        old = np.concatenate([h.value[dst], h.value[src]], axis=1) @ a.value
        assert got.shape == (len(src),)
        assert np.max(np.abs(got - old)) <= 1e-12


class TestLayerOps:
    """Each fused layer step against central differences, in every input."""

    @staticmethod
    def error(op, leaves):
        w = np.random.default_rng(40).normal(size=op(*leaves).shape)
        return ad.finite_diff_check(lambda: ad.mean_(ad.mul(op(*leaves), w)), leaves)

    def test_linear(self):
        rng = np.random.default_rng(41)
        x, W = ad.DiffValue(rng.normal(size=(5, 3))), ad.DiffValue(rng.normal(size=(4, 3)))
        assert self.error(layers._linear, [x, W]) < 1e-6

    def test_attention_logits(self):
        rng = np.random.default_rng(42)
        g = generate_tree(2, 2)
        src, dst = g.attention_index
        h, a = ad.DiffValue(rng.normal(size=(7, 3))), ad.DiffValue(rng.normal(size=6))
        op = lambda h, a: _attention_logits(h, a, src, dst)
        assert self.error(op, [h, a]) < 1e-6

    def test_selection(self):
        rng = np.random.default_rng(43)
        p = init_layer_params(rng, 4, 4, 3).fusion
        p.b.value = rng.normal(size=3) * 0.5
        z_r, z_d = ad.DiffValue(rng.normal(size=(6, 4))), ad.DiffValue(ball_rows(rng, 6, 4))
        op = lambda z_r, z_d, M, b, q: layers._selection(z_r, z_d, layers.FusionParams(M, b, q))
        assert self.error(op, [z_r, z_d, p.M, p.b, p.q]) < 1e-6

    def test_mix(self):
        rng = np.random.default_rng(44)
        beta_r, beta_d = (ad.DiffValue(rng.uniform(size=6)) for _ in range(2))
        z_r, z_d = (ad.DiffValue(rng.normal(size=(6, 4))) for _ in range(2))
        assert self.error(layers._mix, [beta_r, beta_d, z_r, z_d]) < 1e-6


class TestGATLayer:
    def test_single_node_self_loop(self):
        g = WeightedGraph(1, ())
        rng = np.random.default_rng(0)
        p = init_layer_params(rng, 3, 4, 2).gat
        feats = rng.normal(size=(1, 3))
        out = gat_forward(feats, g, p)
        # softmax over the lone self-loop gives weight 1: output = ELU(W h)
        expected = p.W.value @ feats[0]
        expected = np.where(expected > 0, expected, np.exp(expected) - 1.0)
        assert np.allclose(out.value[0], expected, atol=1e-12)

    def test_hand_computed_three_node_path(self):
        g = path_graph(3)
        W = np.array([[1.0, 0.0], [1.0, 1.0]])
        a = np.array([1.0, 0.0, 0.0, 1.0])
        feats = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        from jointspace.layers import GATParams
        p = GATParams(W=ad.DiffValue(W), a=ad.DiffValue(a))
        out = gat_forward(feats, g, p).value

        # independent step-by-step evaluation with plain numpy
        h = feats @ W.T
        src, dst = attention_arrays(g)
        logits = np.array([h[d][0] + h[d][1] * 0.0 + h[s][1]  # a = [1,0,0,1]
                           for s, d in zip(src, dst)])
        # a^T [h_dst || h_src] with a=[1,0,0,1] picks h_dst[0] + h_src[1]
        logits = np.array([h[d][0] + h[s][1] for s, d in zip(src, dst)])
        e = np.where(logits > 0, logits, 0.2 * logits)
        alpha = np.zeros_like(e)
        for node in range(3):
            m = dst == node
            ex = np.exp(e[m] - e[m].max())
            alpha[m] = ex / ex.sum()
        agg = np.zeros((3, 2))
        for i, (s, d) in enumerate(zip(src, dst)):
            agg[d] += alpha[i] * h[s]
        expected = np.where(agg > 0, agg, np.exp(agg) - 1.0)
        assert np.allclose(out, expected, atol=1e-12)

    def test_attention_rows_sum_to_one_via_uniform_features(self):
        # identical features make logits equal: attention must average neighbors
        g = path_graph(4)
        rng = np.random.default_rng(1)
        p = init_layer_params(rng, 2, 3, 2).gat
        feats = np.tile([[0.5, -0.25]], (4, 1))
        out = gat_forward(feats, g, p).value
        h = feats @ p.W.value.T
        expected = np.where(h > 0, h, np.exp(h) - 1.0)
        assert np.allclose(out, expected, atol=1e-12)


class TestHGATLayer:
    def test_origin_inputs_zero_bias_give_zeros_pre_activation(self):
        g = path_graph(3)
        rng = np.random.default_rng(2)
        p = init_layer_params(rng, 3, 4, 2).hgat
        x = np.zeros((3, 3))
        tangent, ball = hgat_forward(x, g, p)
        # ELU(0) = 0 so both outputs stay exactly zero
        assert np.all(tangent.value == 0.0) and np.all(ball.value == 0.0)

    def test_two_node_matches_explicit_composition(self):
        # The pair plus a third node, joined to node 1, whose input row has
        # sqrt(c) ||z|| = 10: the layer computes W z exactly there, where a
        # log_0(exp_0(z)) round trip would clip the row's norm.
        g = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0)))
        rng = np.random.default_rng(3)
        p = init_layer_params(rng, 3, 3, 2).hgat
        p.b.value = rng.normal(size=3) * 0.1
        z = rng.normal(size=(3, 3)) * 0.3
        z[2] *= 10.0 / np.linalg.norm(z[2])
        tangent, m_out = hgat_forward(z, g, p)

        c = p.curvature
        x = exp_rows(z, c)
        t = z @ p.W.value.T
        # The messages are the bias op's, which matches the kernel composition
        # to round-off (TestBiasMessages).
        m = d_bias_messages(t, p.b, c).value
        assert np.max(np.abs(m - bias_node(t, p.b, c).value)) <= 1e-12 * np.max(np.abs(m))
        src, dst = attention_arrays(g)
        scores = (t @ p.a.value.reshape(2, 3).T).reshape(6)
        raw = scores[2 * dst] + scores[2 * src + 1]
        xd, xs = x[dst], x[src]
        dist = pc._distance_parts(xd, xs, float(c), pc._sq_norm(xd), pc._sq_norm(xs))[0][:, 0]
        # The aggregation tail in plain numpy, in the order the tape computes it.
        x = raw * dist
        e = np.where(x > 0.0, x, 0.2 * x)
        mx = np.full(3, -np.inf)
        np.maximum.at(mx, dst, e)
        ex = np.exp(e - mx[dst])
        denom = np.zeros(3)
        np.add.at(denom, dst, ex)
        alpha = ex / denom[dst]
        agg = np.zeros((3, 3))
        np.add.at(agg, dst, alpha[:, None] * m[src])
        expected = np.where(agg > 0.0, agg, np.exp(np.minimum(agg, 0.0)) - 1.0)
        assert np.array_equal(tangent.value, expected)
        assert np.array_equal(m_out.value, m)

    def test_gradcheck(self):
        g = path_graph(3)
        rng = np.random.default_rng(4)
        p = init_layer_params(rng, 3, 4, 2, curvature=0.7,
                              trainable_curvature=True).hgat
        x = ball_rows(rng, 3, 3)
        wts = rng.normal(size=(3, 4))

        def loss_fn():
            t, b = hgat_forward(x, g, p)
            return ad.add(ad.mean_(ad.mul(t, wts)), ad.mean_(ad.mul(b, wts)))

        assert ad.finite_diff_check(loss_fn, [p.W, p.b, p.a, p.curvature]) < 1e-4


def _tape_nodes(outputs, *inputs) -> list:
    """Tape nodes reachable from ``outputs`` through ``_parents``, short of ``inputs``."""
    seen, stack, nodes = {id(x) for x in inputs}, list(outputs), []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


class TestTapeSize:
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_branch_tape_nodes(self, dropout):
        # One attention-aggregation node ends each branch.
        g = generate_tree(2, 2)
        rng = np.random.default_rng(15)
        lp = init_layer_params(rng, 3, 4, 2)
        feats = ad.DiffValue(rng.normal(size=(7, 3)))
        kw = dict(dropout=dropout, rng=rng, training=True)
        assert len(_tape_nodes([gat_forward(feats, g, lp.gat, **kw)], feats)) <= 5
        assert len(_tape_nodes(hgat_forward(feats, g, lp.hgat, **kw), feats)) <= 9

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_hgat_one_edge_distance_node(self, dropout):
        # d_edge_distance maps the input rows into the ball itself: it is the
        # one node besides the linear map whose parent is the input.
        g = generate_tree(2, 2)
        rng = np.random.default_rng(16)
        lp = init_layer_params(rng, 3, 4, 2)
        z = ad.DiffValue(rng.normal(size=(7, 3)))
        out = hgat_forward(z, g, lp.hgat, dropout=dropout, rng=rng, training=True)
        nodes = _tape_nodes(out, z)
        assert len(nodes) <= 9
        readers = [node for node in nodes if any(p is z for p in node._parents)]
        assert len(readers) == 2
        assert sum(node.shape == g.attention_index[0].idx.shape for node in readers) == 1

    def test_fusion_three_nodes(self):
        # The selection weight, beta_d = 1 - beta_r and the mix.
        rng = np.random.default_rng(17)
        p = init_layer_params(rng, 4, 4, 3).fusion
        z_r, z_d = ad.DiffValue(rng.normal(size=(6, 4))), ad.DiffValue(ball_rows(rng, 6, 4))
        out = fusion_forward(z_r, z_d, p)
        nodes = _tape_nodes([out.z, out.beta_r, out.beta_d], z_r, z_d)
        assert sum(node._vjp is not None for node in nodes) <= 3
        assert np.array_equal(out.beta_d.value, 1.0 - out.beta_r.value)


class TestFusion:
    def test_beta_sums_to_one(self):
        rng = np.random.default_rng(5)
        p = init_layer_params(rng, 4, 4, 3).fusion
        z_r = rng.normal(size=(6, 4))
        z_d = ball_rows(rng, 6, 4)
        out = fusion_forward(z_r, z_d, p)
        assert np.abs(out.beta_r.value + out.beta_d.value - 1.0).max() < 1e-12

    def test_equal_branches_any_beta(self):
        rng = np.random.default_rng(6)
        p = init_layer_params(rng, 4, 4, 3).fusion
        z_r = rng.normal(size=(5, 4)) * 0.3
        out = fusion_forward(z_r, z_r.copy(), p)
        assert np.allclose(out.z.value, z_r, atol=1e-12)

    def test_shift_invariance_of_beta(self):
        # beta depends on w_r - w_d only: equal branches weigh exactly 1/2
        # whatever their scores, and swapping the branches swaps the weights
        rng = np.random.default_rng(18)
        p = init_layer_params(rng, 4, 4, 3).fusion
        z_r, z_d = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        out = fusion_forward(z_r, z_d, p)
        swapped = fusion_forward(z_d, z_r, p)
        assert np.allclose(swapped.beta_r.value, out.beta_d.value, atol=1e-12)
        assert np.all(fusion_forward(z_r, z_r, p).beta_r.value == 0.5)

    def test_saturated_selection(self):
        # score gap +20 puts all weight on the Euclidean branch
        from jointspace.layers import FusionParams
        n, h, q = 3, 2, 1
        p = FusionParams(M=ad.DiffValue(np.zeros((q, h))),
                         b=ad.DiffValue(np.array([0.0])),
                         q=ad.DiffValue(np.array([1.0])))
        z_r = np.full((n, h), 0.5)
        z_d = np.zeros((n, h))
        # tanh(M z + b) = 0 for both: force the gap through M instead
        p = FusionParams(M=ad.DiffValue(np.full((q, h), 50.0)),
                         b=ad.DiffValue(np.zeros(q)),
                         q=ad.DiffValue(np.full(q, 20.0)))
        out = fusion_forward(z_r, z_d, p)
        # w_r = 20*tanh(50) ~ 20, w_d = 20*tanh(0) = 0
        assert np.all(out.beta_r.value > 1.0 - 1e-8)
        assert np.allclose(out.z.value, z_r, atol=1e-7)

    def test_convexity_of_fused_coordinates(self):
        rng = np.random.default_rng(7)
        p = init_layer_params(rng, 4, 4, 3).fusion
        z_r = rng.normal(size=(6, 4))
        z_d = ball_rows(rng, 6, 4)
        out = fusion_forward(z_r, z_d, p).z.value
        lo = np.minimum(z_r, z_d) - 1e-12
        hi = np.maximum(z_r, z_d) + 1e-12
        assert ((out >= lo) & (out <= hi)).all()

    def test_gradcheck(self):
        rng = np.random.default_rng(8)
        p = init_layer_params(rng, 3, 3, 2).fusion
        z_r = rng.normal(size=(4, 3))
        z_d = ball_rows(rng, 4, 3)
        wts = rng.normal(size=(4, 3))

        def loss_fn():
            out = fusion_forward(z_r, z_d, p)
            return ad.add(ad.mean_(ad.mul(out.z, wts)), ad.mean_(out.beta_r))

        assert ad.finite_diff_check(loss_fn, [p.M, p.b, p.q]) < 1e-4


class TestStack:
    def test_one_layer_equals_composition(self):
        rng = np.random.default_rng(9)
        model = JointSpaceGNN(3, 4, 4, num_layers=1, q_dim=2, seed=42)
        g = generate_tree(2, 2)
        feats = rng.normal(size=(7, 3)) * 0.5
        out, _ = model.forward(g, feats)
        lp = model.layers[0]
        z_r = gat_forward(ad.as_diff(feats), g, lp.gat)
        z_d, _ = hgat_forward(feats, g, lp.hgat)
        expected = fusion_forward(z_r, z_d, lp.fusion)
        assert np.array_equal(out.z.value, expected.z.value)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_output_shapes(self, depth):
        rng = np.random.default_rng(10)
        model = JointSpaceGNN(5, 6, 3, num_layers=depth, q_dim=4, seed=0)
        g = generate_tree(2, 2)
        out, record = model.forward(g, rng.normal(size=(7, 5)))
        assert out.z.shape == (7, 3)
        assert len(record) == depth
        for r in record:
            assert r.beta_r.shape == (7,)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_parameter_count_is_the_drawn_size(self, depth):
        model = JointSpaceGNN(5, 6, 3, num_layers=depth, q_dim=4, seed=0)
        dims = [5] + [6] * (depth - 1) + [3]
        drawn = sum(v.size for v in model.state_dict().values())
        assert _parameter_count(dims, 4) == drawn

    def test_parameter_bound_checked_before_drawing(self, monkeypatch):
        # 5 -> 6 -> 3 at q_dim 4 has 122 + 71 = 193 parameters.
        monkeypatch.setattr(layers, "MAX_PARAMETERS", 193)
        JointSpaceGNN(5, 6, 3, num_layers=2, q_dim=4)
        monkeypatch.setattr(layers, "MAX_PARAMETERS", 192)
        monkeypatch.setattr(layers, "init_layer_params", None)   # never reached
        with pytest.raises(ValueError, match=r"a model of layer widths \[5, 6, 3\] "
                           r"and q_dim 4 has 193 parameters, beyond MAX_PARAMETERS "
                           r"\(192\)"):
            JointSpaceGNN(5, 6, 3, num_layers=2, q_dim=4)

    @pytest.mark.parametrize("make, fault", [
        (lambda: layers.joint_space_forward(np.zeros((3, 2)), generate_tree(2, 1), []),
         "need at least one layer"),
        (lambda: JointSpaceGNN(5, 6, 3, num_layers=0), "num_layers must be >= 1")],
        ids=["forward", "model"])
    def test_no_layers_rejected(self, make, fault):
        with pytest.raises(ValueError, match=fault):
            make()

    def test_forward_deterministic_given_seed(self):
        g = generate_tree(2, 2)
        rng = np.random.default_rng(11)
        feats = rng.normal(size=(7, 4))
        out1, _ = JointSpaceGNN(4, 5, 2, 2, q_dim=3, seed=7).forward(g, feats)
        out2, _ = JointSpaceGNN(4, 5, 2, 2, q_dim=3, seed=7).forward(g, feats)
        assert np.array_equal(out1.z.value, out2.z.value)

    def test_dropout_requires_rng_and_changes_output(self):
        g = generate_tree(2, 2)
        rng = np.random.default_rng(12)
        feats = rng.normal(size=(7, 4))
        model = JointSpaceGNN(4, 5, 2, 2, q_dim=3, seed=7)
        with pytest.raises(ValueError, match="rng"):
            model.forward(g, feats, training=True, dropout=0.5)
        drop1, _ = model.forward(g, feats, training=True, dropout=0.5,
                                 rng=np.random.default_rng(1))
        plain, _ = model.forward(g, feats, training=False)
        assert not np.array_equal(drop1.z.value, plain.z.value)

    @pytest.mark.parametrize("task", ["nc", "lp"])
    def test_training_forward_at_dropout_zero_is_the_eval_forward(self, task):
        # train() reads validation from the training forward when dropout is 0.
        if task == "nc":
            g, out_dim = synthetic_nc_graph(seed=3), 2
        else:
            g, out_dim = synthetic_lp_tree(depth=4, seed=3), 8
        model = JointSpaceGNN(g.features.shape[1], 8, out_dim, num_layers=3,
                              q_dim=4, trainable_curvature=True, seed=5)
        rng = np.random.default_rng([5, 1])
        state = rng.bit_generator.state
        out_t, rec_t = model.forward(g, g.features, training=True, dropout=0.0,
                                     rng=rng)
        out_e, rec_e = model.forward(g, g.features, training=False)
        assert rng.bit_generator.state == state
        assert np.array_equal(out_t.z.value, out_e.z.value)
        assert len(rec_t) == len(rec_e) == 3
        for r_t, r_e in zip(rec_t, rec_e):
            assert np.array_equal(r_t.beta_r.value, r_e.beta_r.value)

    def test_end_to_end_gradcheck(self):
        rng = np.random.default_rng(13)
        model = JointSpaceGNN(3, 4, 2, num_layers=2, q_dim=3, seed=5,
                              trainable_curvature=True)
        g = generate_tree(2, 2)
        feats = rng.normal(size=(7, 3)) * 0.5
        wts = rng.normal(size=(7, 2))

        def loss_fn():
            out, record = model.forward(g, feats)
            total = ad.mean_(ad.mul(out.z, wts))
            for r in record:
                total = ad.add(total, ad.mean_(ad.mul(r.beta_r, r.beta_r)))
            return total

        assert ad.finite_diff_check(loss_fn, model.parameters()) < 1e-4

    def test_ball_validity_throughout_training(self):
        # 200 optimization steps; every hyperbolic intermediate stays in the ball
        from jointspace.objectives import cross_entropy_nc
        from jointspace.training import Adam
        g = generate_tree(2, 2).with_labels(np.array([0, 1, 0, 1, 0, 1, 0]))
        rng = np.random.default_rng(14)
        feats = rng.normal(size=(7, 3)) * 5.0  # deliberately large inputs
        model = JointSpaceGNN(3, 4, 2, num_layers=2, q_dim=3, seed=3)
        opt = Adam(model.parameters(), lr=0.05)
        mask = np.arange(7)
        limit = 1.0 - PROJECTION_MARGIN + 1e-12
        for step in range(200):
            out, _ = model.forward(g, feats)
            loss = cross_entropy_nc(out.z, g.labels, mask)
            ad.backward(loss)
            opt.step()
            if step % 20 == 0:
                z = ad.as_diff(feats)
                for lp in model.layers:
                    c = float(lp.hgat.curvature)
                    # The ball points the layer forms, from the kernel: the
                    # distance endpoints exp_0(z) and the projected Mobius
                    # sums exp_0(W z) (+) exp_0(b).
                    t = z.value @ lp.hgat.W.value.T
                    x = exp_rows(z.value, c)
                    m = pc._mobius_add_parts(exp_rows(t, c),
                                             exp_rows(lp.hgat.b.value[None], c), c)[0]
                    for ball in (x, m):
                        assert (math.sqrt(c) * np.linalg.norm(ball, axis=1)
                                <= limit).all()
                    z_r = gat_forward(z, g, lp.gat)
                    z_d, _ = hgat_forward(z, g, lp.hgat)
                    z = fusion_forward(z_r, z_d, lp.fusion).z


class TestCheckpointFormat:
    def test_round_trip(self):
        model = JointSpaceGNN(3, 4, 2, num_layers=2, q_dim=3, seed=1)
        state = model.state_dict()
        restored = load_params_json(save_params_json(state))
        assert set(restored) == set(state)
        for k in state:
            assert np.array_equal(restored[k], state[k])

    def test_load_rejects_unknown_and_mismatched(self):
        model = JointSpaceGNN(3, 4, 2, num_layers=1, q_dim=3, seed=1)
        with pytest.raises(KeyError):
            model.load_state_dict({"nope": np.zeros(3)})
        state = model.state_dict()
        state["layer0.gat.W"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_load_rejects_partial_checkpoint(self):
        model = JointSpaceGNN(3, 4, 2, num_layers=1, q_dim=3, seed=1)
        before = model.state_dict()
        with pytest.raises(KeyError, match="layer0.gat.W"):
            model.load_state_dict({})
        state = JointSpaceGNN(3, 4, 2, num_layers=1, q_dim=3, seed=2).state_dict()
        del state["layer0.fusion.q"]
        with pytest.raises(KeyError, match=r"\['layer0.fusion.q'\]"):
            model.load_state_dict(state)
        after = model.state_dict()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_trainable_curvature_in_state(self):
        m = JointSpaceGNN(3, 4, 2, num_layers=1, q_dim=3, seed=1,
                          trainable_curvature=True)
        assert "layer0.hgat.curvature" in m.state_dict()

    @pytest.mark.parametrize("trainable", [False, True])
    def test_parameter_names_in_layer_order(self, trainable):
        m = JointSpaceGNN(3, 4, 2, num_layers=2, q_dim=3, seed=1,
                          trainable_curvature=trainable)
        hgat = ["W", "b", "a"] + (["curvature"] if trainable else [])
        assert list(m.named_parameters()) == [
            f"layer{i}.{group}.{name}" for i in range(2)
            for group, names in (("gat", ["W", "a"]), ("hgat", hgat),
                                 ("fusion", ["M", "b", "q"]))
            for name in names]
        # An untrained curvature is a plain float, not a tape leaf.
        assert all(isinstance(lp.hgat.curvature, ad.DiffValue) == trainable
                   for lp in m.layers)
        if not trainable:
            assert all(type(lp.hgat.curvature) is float for lp in m.layers)
