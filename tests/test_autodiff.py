import numpy as np
import pytest

from jointspace import autodiff as ad
from jointspace.autodiff import DiffValue
from jointspace.poincare import d_log_origin


class TestBasics:
    def test_tanh_derivative_at_zero(self):
        x = DiffValue(0.0)
        y = ad.tanh(x)
        ad.backward(y)
        assert x.grad == 1.0

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
        loss = ad.sum_(ad.mul(w, w))
        ad.backward(loss)
        assert np.array_equal(w.grad, 2.0 * w.value)

    def test_operator_sugar(self):
        a, b = DiffValue(2.0), DiffValue(5.0)
        out = (a * b + a - 1.0) / b
        ad.backward(out)
        assert out.value == pytest.approx(11.0 / 5.0)
        assert a.grad == pytest.approx(6.0 / 5.0)

    def test_constants_get_grads_but_leaves_keep_values(self):
        x = DiffValue(np.array([1.0, 2.0]))
        loss = ad.sum_(ad.mul(x, np.array([3.0, 4.0])))
        ad.backward(loss)
        assert np.array_equal(x.grad, [3.0, 4.0])


class TestSegmentOps:
    def test_segment_softmax_sums_to_one(self):
        rng = np.random.default_rng(0)
        seg = np.array([0, 0, 1, 1, 1, 2])
        out = ad.segment_softmax(DiffValue(rng.normal(size=6)), seg, 3)
        sums = np.zeros(3)
        np.add.at(sums, seg, out.value)
        assert np.allclose(sums, 1.0, atol=1e-12)

    def test_singleton_softmax(self):
        logit = DiffValue(np.array([1.7]))
        out = ad.segment_softmax(logit, np.array([0]), 1)
        ad.backward(ad.sum_(out))
        assert out.value[0] == 1.0
        assert logit.grad[0] == 0.0

    def test_segment_sum_roundtrip(self):
        vals = DiffValue(np.arange(6.0).reshape(6, 1))
        seg = np.array([0, 1, 1, 2, 2, 2])
        out = ad.segment_sum(vals, seg, 3)
        assert out.value[:, 0].tolist() == [0.0, 3.0, 12.0]

    def test_gather_scatter_gradient(self):
        a = DiffValue(np.ones((4, 2)))
        idx = np.array([0, 0, 3])
        loss = ad.sum_(ad.gather_rows(a, idx))
        ad.backward(loss)
        assert a.grad[:, 0].tolist() == [2.0, 0.0, 0.0, 1.0]


class TestFiniteDifferences:
    def test_random_composites(self):
        rng = np.random.default_rng(1)
        W = DiffValue(rng.normal(size=(4, 3)))
        b = DiffValue(rng.normal(size=(4,)))
        v = DiffValue(rng.normal(size=(5, 3)))

        def loss_fn():
            h = ad.tanh(ad.add(ad.matmul(v, ad.transpose(W)), b))
            pieces = [
                ad.sum_(ad.mul(ad.vector_norm(h), ad.vector_norm(h))),
                ad.sum_(ad.sigmoid(ad.sum_(h, axis=1))),
                ad.sum_(ad.softplus(ad.mean_(h, axis=1))),
                ad.sum_(ad.elu(ad.leaky_relu(ad.sub(h, 0.3)))),
                ad.sum_(ad.exp(ad.mul(h, 0.1))),
                ad.sum_(ad.log(ad.add(ad.abs_(h), 0.5))),
                ad.sum_(ad.pow_const(ad.add(ad.mul(h, h), 0.1), 0.5)),
                ad.sum_(ad.pow_const(ad.add(ad.abs_(h), 0.2), 1.7)),
            ]
            total = pieces[0]
            for piece in pieces[1:]:
                total = ad.add(total, piece)
            return total

        assert ad.finite_diff_check(loss_fn, [W, b, v]) < 1e-6

    def test_segment_ops_gradients(self):
        rng = np.random.default_rng(2)
        seg = np.array([0, 0, 1, 1, 1, 2])
        logits = DiffValue(rng.normal(size=6))
        weights = rng.normal(size=6)

        def loss_fn():
            return ad.sum_(ad.mul(ad.segment_softmax(logits, seg, 3), weights))

        assert ad.finite_diff_check(loss_fn, [logits]) < 1e-6

    def test_concat_reshape_clamp_atanh(self):
        # The clamped atanh is the ball's log map, a fused node of its own.
        rng = np.random.default_rng(3)
        a = DiffValue(rng.normal(size=(5, 3)) * 0.4)
        wts = rng.normal(size=(8, 3))

        def loss_fn():
            g = ad.gather_rows(a, np.array([0, 2, 2, 4]))
            cc = ad.concat([g, ad.mul(g, 2.0)], axis=1)
            at = d_log_origin(ad.reshape(cc, (8, 3)), 1.0)  # 5 rows clipped
            return ad.sum_(ad.mul(at, wts))

        assert ad.finite_diff_check(loss_fn, [a]) < 1e-6

    def test_h_range_enforced(self):
        x = DiffValue(1.0)
        with pytest.raises(ValueError):
            ad.finite_diff_check(lambda: ad.mul(x, x), [x], h=1e-2)


class TestEdgeCases:
    def test_abs_sign_at_zero(self):
        x = DiffValue(0.0)
        ad.backward(ad.abs_(x))
        assert x.grad == 0.0

    def test_sigmoid_softplus_extremes_finite(self):
        x = DiffValue(np.array([-800.0, 0.0, 800.0]))
        s = ad.sigmoid(x)
        sp = ad.softplus(x)
        assert np.isfinite(s.value).all() and np.isfinite(sp.value).all()
        assert s.value[0] == 0.0 and s.value[2] == 1.0
        assert sp.value[0] == 0.0 and sp.value[2] == 800.0

    def test_broadcasting_unbroadcast(self):
        a = DiffValue(np.ones((3, 1)))
        b = DiffValue(np.ones((1, 4)))
        ad.backward(ad.sum_(ad.mul(a, b)))
        assert a.grad.shape == (3, 1) and np.all(a.grad == 4.0)
        assert b.grad.shape == (1, 4) and np.all(b.grad == 3.0)

    def test_vector_norm_zero_row(self):
        x = DiffValue(np.zeros((2, 3)))
        ad.backward(ad.sum_(ad.vector_norm(x)))
        assert np.all(x.grad == 0.0)
