import weakref

import numpy as np
import pytest

from jointspace import autodiff as ad
from jointspace.autodiff import DiffValue
from jointspace import poincare as pc
from jointspace.graphs import WeightedGraph
from jointspace.layers import _linear
from jointspace.training import synthetic_nc_graph


def take_rows(a, idx):
    """Rows ``a[idx]`` as a node built directly; its VJP scatter-adds them back."""
    return DiffValue(np.take(a.value, idx, axis=0), (a,),
                     lambda g: (ad._scatter_rows(g, idx, a.value.shape[0]),))


def reshape(a, shape):
    """``a`` viewed at ``shape`` as a node built directly."""
    old = a.shape
    return DiffValue(a.value.reshape(shape), (a,), lambda g: (g.reshape(old),))


def log_rows(a, c):
    """Row-wise log_0 of the ball kernel as a node built directly."""
    out, parts = pc._radial(a.value, c, pc._log_scale)
    return DiffValue(out, (a,), lambda g: (pc._radial_grad(g, *parts)[0],))


class TestBasics:
    def test_diamond_accumulates_once(self):
        x = DiffValue(3.0)
        z = ad.add(ad.mul(x, x), x)  # x^2 + x
        ad.backward(z)
        assert x.grad == 7.0

    def test_shared_subexpression(self):
        x = DiffValue(2.0)
        h = ad.mul(x, x)
        z = ad.add(h, h)
        ad.backward(z)
        assert x.grad == 8.0

    def test_scalar_loss_required(self):
        v = DiffValue(np.ones(3))
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(v)

    def test_grad_norm_squared(self):
        w = DiffValue(np.array([[1.0, -2.0], [0.5, 3.0]]))
        loss = ad.mean_(ad.mul(w, w))                 # mean over 4 entries
        ad.backward(loss)
        assert np.array_equal(w.grad, 0.5 * w.value)

    def test_constants_get_grads_but_leaves_keep_values(self):
        x = DiffValue(np.array([1.0, 2.0]))
        loss = ad.mean_(ad.mul(x, np.array([3.0, 4.0])))
        ad.backward(loss)
        assert np.array_equal(x.grad, [1.5, 2.0])
        assert np.array_equal(x.value, [1.0, 2.0])

    def test_mean_is_one_node_with_the_sum_times_inverse_size(self):
        x = DiffValue(np.array([[0.1, 0.7, 0.2], [0.3, 0.9, 0.4]]))
        m = ad.mean_(x)
        assert m._parents == (x,)
        assert m.value.tobytes() == np.asarray(x.value.sum() * (1.0 / 6)).tobytes()
        ad.backward(m)
        assert x.grad.tobytes() == np.full((2, 3), 1.0 / 6).tobytes()
        assert ad.finite_diff_check(lambda: ad.mean_(ad.mul(x, x)), [x]) < 1e-5


class TestSegmentOps:
    def test_gather_scatter_gradient(self):
        a = DiffValue(np.ones((4, 2)))
        idx = np.array([0, 0, 3, 1])
        loss = ad.mean_(take_rows(a, idx))      # each entry weighs 1/8
        ad.backward(loss)
        assert (8.0 * a.grad[:, 0]).tolist() == [2.0, 1.0, 0.0, 1.0]


class TestFiniteDifferences:
    def test_random_composites(self):
        rng = np.random.default_rng(1)
        W = DiffValue(rng.normal(size=(4, 3)))
        b = DiffValue(rng.normal(size=(4,)))
        v = DiffValue(rng.normal(size=(5, 3)))

        def loss_fn():
            h = ad.add(_linear(v, W), b)
            s = reshape(ad.mul(h, ad.sub(h, 0.5)), (20,))
            pieces = [
                ad.mean_(ad.mul(h, h)),
                ad.mean_(ad.mul(s, ad.sub(1.0, s))),
                ad.mean_(take_rows(ad.mul(h, ad.sub(h, 0.3)), np.array([4, 0, 4]))),
            ]
            total = pieces[0]
            for piece in pieces[1:]:
                total = ad.add(total, piece)
            return total

        assert ad.finite_diff_check(loss_fn, [W, b, v]) < 1e-6

    def test_gather_reshape_clamp_atanh(self):
        # The clamped atanh is the ball's log map, a fused node of its own.
        rng = np.random.default_rng(3)
        a = DiffValue(rng.normal(size=(5, 3)) * 0.4)
        wts = rng.normal(size=(8, 3))

        def loss_fn():
            g = take_rows(a, np.array([0, 2, 2, 4]))
            wide = reshape(ad.mul(g, np.array([[1.0], [2.0]])[:, :, None]), (8, 3))
            at = log_rows(wide, 1.0)                        # 5 rows clipped
            return ad.mean_(ad.mul(at, wts))

        assert ad.finite_diff_check(loss_fn, [a]) < 1e-6

    def test_h_range_enforced(self):
        x = DiffValue(1.0)
        with pytest.raises(ValueError):
            ad.finite_diff_check(lambda: ad.mul(x, x), [x], h=1e-2)


class TestEdgeCases:
    def test_sigmoid_extremes_finite(self):
        s = ad._logistic(np.array([-800.0, 0.0, 800.0]))
        assert np.isfinite(s).all()
        assert s[0] == 0.0 and s[1] == 0.5 and s[2] == 1.0
        slope = s * (1.0 - s)                 # the derivative the selection node uses
        assert np.isfinite(slope).all() and slope[0] == 0.0 and slope[2] == 0.0

    def test_broadcasting_unbroadcast(self):
        a = DiffValue(np.ones((2, 1)))
        b = DiffValue(np.ones((1, 4)))
        ad.backward(ad.mean_(ad.mul(a, b)))           # each product weighs 1/8
        assert a.grad.shape == (2, 1) and np.all(a.grad == 0.5)
        assert b.grad.shape == (1, 4) and np.all(b.grad == 0.25)


def _attend_reference(e, values, src, dst, n, slope, mask):
    """Per-destination loop: softmax of leaky-ReLU logits, weighted sum, ELU."""
    if mask is None:
        mask = np.ones(len(e))
    out = np.zeros((n, values.shape[1]))
    for v in range(n):
        m = dst == v
        s = np.where(e[m] > 0, e[m], slope * e[m])
        w = np.exp(s - s.max())
        agg = (w / w.sum() * mask[m]) @ values[src[m]]
        out[v] = np.where(agg > 0, agg, np.expm1(agg))
    return out


def _attend_all_rows(e, values, src, dst, n, mask):
    """``attend`` as it ran over all 2m + n attention rows, self loops among
    them: the same node with every gather, product and scatter on every row."""
    x, hs = e, values[src]
    s = np.where(x > 0.0, x, ad.LEAKY_SLOPE * x)
    mx = np.full(n, -np.inf)
    np.maximum.at(mx, dst, s)
    ex = np.exp(s - mx[dst])
    alpha = ex / ad._scatter_rows(ex, dst, n)[dst]
    w = alpha if mask is None else alpha * mask
    agg = ad._scatter_rows(w[:, None] * hs, dst, n)
    ex_agg = np.exp(np.minimum(agg, 0.0))
    out = np.where(agg > 0.0, agg, ex_agg - 1.0)

    def vjp(g):
        gm = np.take(g * np.where(agg > 0.0, 1.0, ex_agg), dst, axis=0)
        g_values = ad._scatter_rows(gm * w[:, None], src, n)
        g_alpha = (gm * hs).sum(axis=1)
        if mask is not None:
            g_alpha = g_alpha * mask
        dot = ad._scatter_rows(g_alpha * alpha, dst, n)
        return (alpha * (g_alpha - dot[dst]) * np.where(x > 0.0, 1.0, ad.LEAKY_SLOPE),
                g_values)
    return out, vjp


class TestAttend:
    # Undirected edges 0-1, 1-2, 0-3, 2-3, 1-3, whose 10 directed rows come
    # before a self loop on every node; node 4's only edge is its self loop.
    GRAPH = WeightedGraph(5, ((0, 1, 1.0), (1, 2, 1.0), (0, 3, 1.0), (2, 3, 1.0),
                              (1, 3, 1.0)))

    def index(self, g=GRAPH):
        src, dst = g.attention_index
        return src.idx, dst.idx

    def inputs(self, seed, negative, masked, g=GRAPH):
        rng = np.random.default_rng(seed)
        rows = g.attention_index[0].idx.size
        e = rng.normal(size=rows) * 2.0
        if negative:
            e = -np.abs(e) - 0.1
        values = rng.normal(size=(g.num_nodes, 3))
        mask = (rng.random(rows) >= 0.3) / 0.7 if masked else None
        return DiffValue(e), DiffValue(values), mask, rng

    @pytest.mark.parametrize("negative", [False, True])
    @pytest.mark.parametrize("masked", [False, True])
    def test_matches_reference_and_finite_differences(self, negative, masked):
        e, values, mask, rng = self.inputs(21, negative, masked)
        out = ad.attend(e, values, self.GRAPH, mask)
        ref = _attend_reference(e.value, values.value, *self.index(), 5, 0.2, mask)
        assert out.shape == (5, 3)
        assert np.abs(out.value - ref).max() <= 1e-12
        wts = rng.normal(size=(5, 3))

        def loss_fn():
            return ad.mean_(ad.mul(ad.attend(e, values, self.GRAPH, mask), wts))

        assert ad.finite_diff_check(loss_fn, [e, values]) < 1e-6

    @pytest.mark.parametrize("negative", [False, True])
    def test_weights_sum_to_one_and_self_loop_alone_weighs_one(self, negative):
        e, values, _, rng = self.inputs(22, negative, False)
        ones = ad.attend(e, np.ones((5, 2)), self.GRAPH)
        assert np.abs(ones.value - 1.0).max() <= 1e-12    # ELU(1) = 1
        out = ad.attend(e, values, self.GRAPH)
        v = values.value[4]
        assert np.array_equal(out.value[4], np.where(v > 0, v, np.exp(v) - 1.0))
        ad.backward(ad.mean_(ad.mul(out, rng.normal(size=(5, 3)))))
        assert e.grad[14] == 0.0 and np.any(e.grad[:14] != 0.0)

    # The test graph; one with no edges, whose rows are all self loops; and a
    # 40-node graph with 2m = 110 edge rows, where sums run over many rows.
    GRAPHS = {"small": GRAPH, "no-edges": WeightedGraph(4, ()),
              "synthetic": synthetic_nc_graph()}

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_equals_all_rows_attend(self, name, masked):
        # The value and the values' gradient are the all-rows node's bit for
        # bit; the logits' gradient reads its row dots from einsum rather
        # than from a product's sum, so it agrees to round-off.
        g = self.GRAPHS[name]
        for seed in range(5):
            e, values, mask, rng = self.inputs(seed, False, masked, g)
            out = ad.attend(e, values, g, mask)
            ref, ref_vjp = _attend_all_rows(e.value, values.value, *self.index(g),
                                            g.num_nodes, mask)
            assert out.value.tobytes() == ref.tobytes()
            grad = rng.normal(size=out.shape) * 10.0 ** rng.uniform(-4, 4, size=out.shape)
            g_e, g_values = out._vjp(grad)
            ref_g_e, ref_g_values = ref_vjp(grad)
            assert g_values.tobytes() == ref_g_values.tobytes()
            assert g_e.shape == ref_g_e.shape
            assert np.abs(g_e - ref_g_e).max() <= 1e-13 * np.abs(ref_g_e).max(initial=1.0)

    def test_graph_without_edges(self):
        # Every node's one row is its self loop, of weight 1 times its mask.
        g = self.GRAPHS["no-edges"]
        e, values, mask, rng = self.inputs(23, False, True, g)
        mask[1] = 0.0
        out = ad.attend(e, values, g, mask)
        agg = values.value * mask[:, None]
        assert np.array_equal(out.value, np.where(agg > 0, agg, np.exp(agg) - 1.0))
        assert not out.value[1].any()
        wts = rng.normal(size=out.shape)

        def loss_fn():
            return ad.mean_(ad.mul(ad.attend(e, values, g, mask), wts))

        assert ad.finite_diff_check(loss_fn, [e, values]) < 1e-6
        assert not e.grad.any() and not values.grad[1].any()

    def test_masked_self_loop_rows(self):
        # Node 4's loop masked to 0 leaves it nothing; node 1's loop masked to
        # 0 leaves it its edge rows, weighed by the softmax over all of its
        # rows, the loop included.
        e, values, _, rng = self.inputs(24, False, False)
        mask = np.ones(15)
        mask[[11, 14]] = 0.0
        out = ad.attend(e, values, self.GRAPH, mask)
        ref = _attend_reference(e.value, values.value, *self.index(), 5, 0.2, mask)
        assert np.abs(out.value - ref).max() <= 1e-12
        assert not out.value[4].any()
        wts = rng.normal(size=(5, 3))

        def loss_fn():
            return ad.mean_(ad.mul(ad.attend(e, values, self.GRAPH, mask), wts))

        assert ad.finite_diff_check(loss_fn, [e, values]) < 1e-6
        assert e.grad[14] == 0.0 and not values.grad[4].any()


def _add_at_reference(rows, idx, n):
    out = np.zeros((n,) + rows.shape[1:])
    np.add.at(out, idx, rows)
    return out


class TestScatterRows:
    # Magnitudes spread over 16 decades, so a different summation order
    # would show in the low bits.
    @pytest.mark.parametrize("tail", [(), (3,), (2, 3)])
    def test_bitwise_equal_to_add_at(self, tail):
        rng = np.random.default_rng(11)
        idx = rng.integers(0, 6, size=40)
        idx[:3] = [6, 6, 6]          # repeated index
        idx[idx == 2] = 4            # row 2 untouched
        shape = (40,) + tail
        rows = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
        rows[5] = -0.0
        out = ad._scatter_rows(rows, idx, 9)   # rows 7, 8 untouched
        ref = _add_at_reference(rows, idx, 9)
        assert out.shape == ref.shape and out.dtype == np.float64
        assert out.tobytes() == ref.tobytes()
        assert not out[[2, 7, 8]].any()

    def test_empty_index(self):
        rows, idx = np.zeros((0, 4)), np.zeros(0, dtype=np.int64)
        out = ad._scatter_rows(rows, idx, 3)
        assert out.shape == (3, 4)
        assert out.tobytes() == _add_at_reference(rows, idx, 3).tobytes()

    def test_gather_and_segment_sum_use_it(self):
        rng = np.random.default_rng(12)
        a = DiffValue(rng.normal(size=(5, 2)))
        idx = np.array([4, 0, 4, 4, 1])
        w = rng.normal(size=(5, 2)) * 1e6
        ad.backward(ad.mean_(ad.mul(take_rows(a, idx), w)))
        assert a.grad.tobytes() == _add_at_reference(0.1 * w, idx, 5).tobytes()


class TestLazyGradients:
    def test_reachable_node_without_contribution_gets_zeros(self):
        w = DiffValue(np.array([1.0, -2.0]))
        x = ad.mul(w, w)
        stop = DiffValue(x.value, (x,), lambda g: (None,))
        y = DiffValue(np.array([0.5, 3.0]))
        ad.backward(ad.mean_(ad.mul(stop, y)))
        for node in (x, w):
            assert node.grad.shape == (2,) and node.grad.dtype == np.float64
            assert node.grad.tobytes() == np.zeros(2).tobytes()
        assert np.array_equal(y.grad, 0.5 * x.value)

    def test_views_do_not_alias_other_gradients(self):
        rng = np.random.default_rng(13)
        x = DiffValue(rng.normal(size=(2, 4)))
        A = rng.normal(size=(4, 2))
        B = rng.normal(size=(4, 2))
        r = reshape(x, (4, 2))
        t = DiffValue(x.value.T, (x,), lambda g: (g.T,))     # a transpose node
        ad.backward(ad.add(ad.mean_(ad.mul(r, A)), ad.mean_(ad.mul(t, B))))
        # Each mean weighs its 8 entries by 1/8, an exact scaling.
        assert np.array_equal(x.grad, (A.reshape(2, 4) + B.T) / 8)
        assert np.array_equal(r.grad, A / 8) and np.array_equal(t.grad, B / 8)

    def test_parent_listed_twice_gets_both_values(self):
        # A node may list one parent twice and return one array for both, as
        # the non-uniformity loss does for each weight; both are added, and
        # neither write touches the node's own gradient.
        x = DiffValue(np.array([[1.0, 2.0]]))
        w = np.array([[1.0, 10.0], [100.0, 1000.0]])
        pair = DiffValue(np.concatenate([x.value, x.value]), (x, x),
                         lambda g: (g[:1], g[1:]))
        ad.backward(ad.mean_(ad.mul(pair, w)))          # each entry weighs 1/4
        assert (4.0 * x.grad).tolist() == [[101.0, 1010.0]]
        assert np.array_equal(pair.grad, w / 4)

    def test_gather_rows_twice_from_one_source(self):
        rng = np.random.default_rng(14)
        a = DiffValue(rng.normal(size=(5, 2)))
        i1, i2 = np.array([0, 3, 3]), np.array([3, 4])
        w1, w2 = rng.normal(size=(3, 2)), rng.normal(size=(2, 2))
        g1, g2 = take_rows(a, i1), take_rows(a, i2)
        ad.backward(ad.add(ad.mean_(ad.mul(g1, w1)), ad.mean_(ad.mul(g2, w2))))
        w1, w2 = w1 * (1.0 / 6), w2 * (1.0 / 4)      # as mean_ weighs its entries
        expected = _add_at_reference(w1, i1, 5) + _add_at_reference(w2, i2, 5)
        assert np.array_equal(a.grad, expected)
        assert np.array_equal(g1.grad, w1) and np.array_equal(g2.grad, w2)


def scaled(a, w):
    """``a * w`` for a constant array ``w`` that only the node's VJP keeps."""
    return DiffValue(a.value * w, (a,), lambda g: (g * w,))


class TestConsumedTape:
    def test_second_backward_raises_and_keeps_the_gradients(self):
        x = DiffValue(np.array([1.0, -2.0, 3.0]))
        loss = ad.mean_(ad.mul(x, x))
        ad.backward(loss)
        grads = [node.grad for node in (loss, loss._parents[0], x)]
        with pytest.raises(RuntimeError, match="consumed by an earlier backward"):
            ad.backward(loss)
        assert all(a is b for a, b in zip(grads, (loss.grad, loss._parents[0].grad, x.grad)))
        assert np.array_equal(x.grad, 2.0 * x.value / 3.0)

    def test_loss_over_a_consumed_node_raises(self):
        # A second loss built on a swept subgraph would read released VJPs.
        x = DiffValue(np.array([1.0, 2.0]))
        h = ad.mul(x, x)
        ad.backward(ad.mean_(h))
        with pytest.raises(RuntimeError, match="consumed"):
            ad.backward(ad.mean_(ad.add(h, x)))

    def test_closure_arrays_released_and_structure_kept(self):
        x = DiffValue(np.array([1.0, 2.0, 3.0]))
        w = np.array([0.5, -1.0, 4.0])
        held = weakref.ref(w)
        node = scaled(x, w)
        expected = w / 3.0
        del w
        loss = ad.mean_(node)
        assert held() is not None                  # the VJP closure keeps it
        ad.backward(loss)
        assert held() is None
        assert loss._parents == (node,) and node._parents == (x,)
        assert np.array_equal(x.grad, expected)
        assert node.grad is not None and loss.grad == 1.0

    def test_leaves_stay_leaves(self):
        x = DiffValue(np.array([1.0, 2.0]))
        ad.backward(ad.mean_(ad.mul(x, 3.0)))
        assert x._vjp is None and repr(x).endswith("leaf=True)")
