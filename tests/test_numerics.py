"""Tensor/autodiff core: forward values, gradients vs finite differences,
optimizer algebra, RNG stream determinism."""

import numpy as np
import pytest

from latentdyn.numerics import (
    NumericsError,
    OptState,
    ParamStore,
    RandomStream,
    Tensor,
    adamw_step,
    attention,
    concat,
    gelu,
    gelu_max,
    grad_check,
    layer_norm,
    linear,
    matmul,
    maximum,
    mul,
    slice_last,
    softmax,
    square,
    sub,
    tmax,
    tmean,
    tsum,
)


@pytest.fixture
def stream():
    return RandomStream.derive(123, "test")


class TestTensorBasics:
    def test_shape_data_agreement(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert t.shape == (2, 3)
        assert t.size == 6

    def test_nonfinite_creation_rejected(self):
        with pytest.raises(NumericsError):
            Tensor(np.array([1.0, np.nan]))

    def test_nonfinite_op_result_rejected(self):
        a = Tensor(np.array([1.0, 0.0]))
        with pytest.raises(NumericsError):
            a / Tensor(np.array([1.0, 0.0]))

    def test_mixed_dtype_rejected(self):
        a = Tensor(np.ones(3, dtype=np.float32))
        b = Tensor(np.ones(3, dtype=np.float64))
        with pytest.raises(NumericsError):
            a + b

    def test_float32_stays_float32(self):
        a = Tensor(np.ones((2, 2), dtype=np.float32))
        assert (gelu(a * 2.0) + 1.0).dtype == np.float32


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        tsum(x).backward()
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_half_norm_squared_gradient_is_x(self):
        x = Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]), requires_grad=True)
        (tsum(square(x)) * 0.5).backward()
        assert np.allclose(x.grad, x.data)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(NumericsError):
            (x * 2.0).backward()

    def test_grad_accumulates_across_backwards(self):
        x = Tensor(np.ones(3), requires_grad=True)
        tsum(x).backward()
        tsum(x).backward()
        assert np.array_equal(x.grad, 2.0 * np.ones(3))

    def test_diamond_graph(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0
        (tsum(y * y)).backward()  # d/dx (3x)^2 = 18x
        assert np.allclose(x.grad, [36.0])

    def test_no_grad_for_constants(self):
        x = Tensor(np.ones(3))
        y = tsum(x * 2.0)
        assert not y.requires_grad
        assert y._parents == ()


class TestForwardValues:
    def test_linear_identity(self):
        y = linear(Tensor(np.array([[1.0, 2.0]])), Tensor(np.eye(2)), Tensor(np.zeros(2)))
        assert np.allclose(y.data, [[1.0, 2.0]])

    def test_linear_constant_map(self):
        y = linear(Tensor(np.array([[5.0, -7.0]])), Tensor(np.zeros((2, 2))),
                   Tensor(np.array([3.0, 3.0])))
        assert np.allclose(y.data, [[3.0, 3.0]])

    def test_linear_hand_product(self):
        w = Tensor(np.array([[1.0, 0.0], [1.0, 1.0]]))
        y = linear(Tensor(np.array([[1.0, 1.0]])), w, Tensor(np.zeros(2)))
        assert np.allclose(y.data, [[2.0, 1.0]])

    def test_linear_shape_mismatch(self):
        with pytest.raises(NumericsError):
            linear(Tensor(np.ones((1, 3))), Tensor(np.eye(2)), Tensor(np.zeros(2)))

    def test_gelu_zero_fixed_point(self):
        assert gelu(Tensor(np.array([0.0]))).data[0] == 0.0

    def test_gelu_asymptote(self):
        x = 25.0
        assert gelu(Tensor(np.array([x]))).data[0] == pytest.approx(x, rel=1e-12)

    def test_gelu_at_one_matches_normal_cdf(self):
        # x * Phi(x) with Phi the standard normal CDF, evaluated independently
        from scipy.stats import norm

        expected = 1.0 * norm.cdf(1.0)
        assert expected == pytest.approx(0.8413447460685429, abs=1e-15)
        assert gelu(Tensor(np.array([1.0]))).data[0] == pytest.approx(expected, abs=1e-12)

    def test_layer_norm_constant_row(self):
        y = layer_norm(Tensor(np.array([[5.0, 5.0, 5.0]])))
        assert np.allclose(y.data, 0.0)

    def test_layer_norm_already_normalized(self):
        y = layer_norm(Tensor(np.array([[-1.0, 1.0]])))
        assert np.allclose(y.data, [[-1.0, 1.0]], atol=1e-4)

    def test_layer_norm_row_statistics(self, stream):
        x = Tensor(stream.normal((20, 16)))
        y = layer_norm(x).data
        assert np.abs(y.mean(axis=1)).max() <= 1e-6
        assert np.abs(y.var(axis=1) - 1.0).max() <= 1e-4

    def test_attention_single_token_returns_value(self, stream):
        q = Tensor(stream.normal((1, 4)))
        k = Tensor(stream.normal((1, 4)))
        v = Tensor(stream.normal((1, 4)))
        assert np.allclose(attention(q, k, v).data, v.data)

    def test_attention_identical_keys_average_values(self, stream):
        q = Tensor(stream.normal((3, 4)))
        k = Tensor(np.tile(stream.normal((1, 4)), (3, 1)))
        v = Tensor(stream.normal((3, 4)))
        out = attention(q, k, v).data
        assert np.allclose(out, np.tile(v.data.mean(axis=0), (3, 1)), atol=1e-6)

    def test_attention_near_one_hot(self):
        # strong diagonal q=k=10*I: softmax weight on the matching row is
        # e^s/(e^s+1) with s = 100/sqrt(2)
        qk = Tensor(10.0 * np.eye(2))
        v = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        out = attention(qk, qk, v).data
        s = 100.0 / np.sqrt(2.0)
        w = np.exp(s) / (np.exp(s) + 1.0)
        expected = np.array([[w, 1.0 - w], [1.0 - w, w]])
        assert np.allclose(out, expected, atol=1e-12)

    def test_attention_shape_mismatch(self, stream):
        with pytest.raises(NumericsError):
            attention(Tensor(stream.normal((2, 3))), Tensor(stream.normal((2, 3))),
                      Tensor(stream.normal((3, 3))))

    def test_softmax_rows_sum_to_one(self, stream):
        s = softmax(Tensor(stream.normal((5, 7)))).data
        assert np.allclose(s.sum(axis=1), 1.0)

    def test_max_pool_matches_numpy(self, stream):
        x = stream.normal((4, 6, 3))
        assert np.array_equal(tmax(Tensor(x), axis=-2).data, x.max(axis=-2))

    def test_maximum_hinge_values(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]))
        assert np.array_equal(maximum(x, 0.0).data, [0.0, 0.0, 2.0])


class TestGradientChecks:
    """Analytic gradients match central differences at random points."""

    def _check(self, shapes, closure, points=20, seed=7, tol=1e-4):
        worst = 0.0
        for point in range(points):
            stream = RandomStream.derive(seed + point, "op-check")
            params = ParamStore()
            for name, shape in shapes.items():
                params.add(name, Tensor(stream.normal(shape), requires_grad=True))
            proj = {}

            def r(shape):
                key = tuple(shape)
                if key not in proj:
                    proj[key] = stream.normal(shape)
                return proj[key]

            worst = max(worst, grad_check(lambda p: closure(p, r), params))
        assert worst <= tol, f"max relative error {worst}"

    def test_quadratic_closure_is_tight(self):
        # exact gradient known; finite differences of a quadratic are exact
        # up to rounding, so the error must be deep below the op tolerance
        self._check({"x": (4, 4)}, lambda p, r: tsum(mul(square(p["x"]), r((4, 4)))),
                    points=5, tol=1e-8)

    def test_gelu_chain(self):
        self._check({"x": (3, 5), "w": (5, 4)},
                    lambda p, r: tsum(mul(gelu(matmul(gelu(p["x"]), p["w"])), r((3, 4)))))

    def test_layer_norm_gradient(self):
        self._check({"x": (4, 6)}, lambda p, r: tsum(mul(layer_norm(p["x"]), r((4, 6)))))

    def test_attention_gradient(self):
        self._check({"q": (3, 4), "k": (3, 4), "v": (3, 4)},
                    lambda p, r: tsum(mul(attention(p["q"], p["k"], p["v"]), r((3, 4)))))

    def test_softmax_gradient(self):
        self._check({"x": (3, 5)}, lambda p, r: tsum(mul(softmax(p["x"]), r((3, 5)))))

    def test_concat_slice_gradient(self):
        self._check({"a": (2, 3), "b": (2, 2)},
                    lambda p, r: tsum(mul(slice_last(concat([p["a"], p["b"]]), 1, 4),
                                          r((2, 3)))))

    def test_pooled_max_gradient(self):
        self._check({"x": (2, 5, 3)},
                    lambda p, r: tsum(mul(tmax(p["x"], axis=-2), r((2, 3)))))

    def test_gelu_max_gradient(self):
        self._check({"x": (2, 5, 3)},
                    lambda p, r: tsum(mul(gelu_max(p["x"]), r((2, 3)))))

    def test_grad_check_rejects_float32(self):
        params = ParamStore()
        params.add("x", Tensor(np.ones(3, dtype=np.float32), requires_grad=True))
        with pytest.raises(NumericsError):
            grad_check(lambda p: tsum(p["x"]), params)


def _value_and_grad(pool, x: np.ndarray, proj: np.ndarray):
    t = Tensor(x, requires_grad=True)
    out = pool(t)
    tsum(mul(out, Tensor(proj))).backward()
    return out, t.grad


def _unfused(t):
    return tmax(gelu(t), axis=-2)


def _fused(t):
    return gelu_max(t)


class TestGeluMax:
    """gelu_max(a) is tmax(gelu(a)) with GELU evaluated at each group's
    min and max only."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_to_unfused_on_standard_normals(self, stream, dtype):
        x = stream.normal((32, 8, 32, 64), dtype=dtype)
        proj = stream.normal((32, 8, 64), dtype=dtype)
        out, grad = _value_and_grad(_fused, x, proj)
        ref, ref_grad = _value_and_grad(_unfused, x, proj)
        assert out.dtype == ref.dtype == dtype
        assert np.array_equal(out.data, ref.data)
        assert np.array_equal(grad, ref_grad)

    def test_min_wins_on_all_negative_group(self):
        # gelu(-3) ~ -0.004 beats gelu(-0.2) ~ -0.084: the min is the max of GELU
        x = np.array([[-0.2], [-3.0], [-1.0]])
        out, grad = _value_and_grad(_fused, x, np.ones(1))
        at_min = Tensor(np.array([-3.0]), requires_grad=True)
        tsum(gelu(at_min)).backward()
        assert out.data[0] == gelu(Tensor(np.array([-3.0]))).data[0]
        assert np.array_equal(grad, [[0.0], [at_min.grad[0]], [0.0]])

    def test_ties_route_to_lowest_index(self):
        x = np.array([[[1.0, -2.0], [2.0, -2.0], [2.0, 0.5], [0.5, 0.5]]])
        _, grad = _value_and_grad(_fused, x, np.ones((1, 2)))
        _, ref_grad = _value_and_grad(_unfused, x, np.ones((1, 2)))
        assert np.array_equal(np.nonzero(grad[0])[0], [1, 2])  # rows of (2.0, col 0), (0.5, col 1)
        assert np.array_equal(grad, ref_grad)

    def test_float32_stays_float32(self, stream):
        x = stream.normal((2, 5, 3), dtype=np.float32)
        out, grad = _value_and_grad(_fused, x, stream.normal((2, 3), dtype=np.float32))
        assert out.dtype == np.float32
        assert grad.dtype == np.float32

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nonfinite_input_rejected(self, bad):
        t = Tensor(np.zeros((2, 3, 2)))
        t.data[1, 2, 0] = bad
        with pytest.raises(NumericsError, match="gelu_max"):
            gelu_max(t)

    def test_far_negative_float32_close_to_unfused(self, stream):
        # Below c the float32 rounding of 1 + erf makes GELU non-monotone by
        # a few 1e-9, so an inner point can beat both ends by that much.
        x = stream.normal((32, 8, 32, 64), dtype=np.float32) - np.float32(3.0)
        fused = gelu_max(Tensor(x)).data
        unfused = _unfused(Tensor(x)).data
        assert np.abs(fused - unfused).max() <= 1e-8


class TestDeterminism:
    def test_identical_seeds_bitwise_forward_and_grad(self):
        def run():
            stream = RandomStream.derive(99, "det")
            x = Tensor(stream.normal((6, 8), dtype=np.float32), requires_grad=True)
            w = Tensor(stream.normal((8, 8), dtype=np.float32), requires_grad=True)
            y = tsum(square(attention(matmul(x, w), x, gelu(x))))
            y.backward()
            return y.data.copy(), x.grad.copy(), w.grad.copy()

        y1, gx1, gw1 = run()
        y2, gx2, gw2 = run()
        assert np.array_equal(y1, y2)
        assert np.array_equal(gx1, gx2)
        assert np.array_equal(gw1, gw2)


class TestAdamW:
    def _setup(self, values, lr=1e-4, wd=0.0):
        params = ParamStore()
        params.add("p", Tensor(np.array(values), requires_grad=True))
        opt = OptState.for_params(params, lr=lr, beta1=0.9, beta2=0.999, weight_decay=wd)
        return params, opt

    @staticmethod
    def _step(params, opt, g):
        params["p"].grad = g
        adamw_step(params, opt)

    def test_zero_grad_zero_decay_is_identity(self):
        params, opt = self._setup([1.0, -2.0, 3.0])
        before = params["p"].data.copy()
        self._step(params, opt, np.zeros(3))
        assert np.array_equal(params["p"].data, before)
        assert opt.step == 1

    def test_first_step_is_sign_scaled_by_lr(self):
        # hand-evaluated step 1: m_hat = g, v_hat = g^2, so the update is
        # lr * g / (|g| + eps) = lr * sign(g) up to eps
        params, opt = self._setup([0.0, 0.0], lr=1e-3)
        g = np.array([0.5, -2.0])
        self._step(params, opt, g)
        expected = -1e-3 * g / (np.abs(g) + 1e-8)
        assert np.allclose(params["p"].data, expected, rtol=1e-10)

    def test_decoupled_weight_decay(self):
        params, opt = self._setup([2.0], lr=0.1, wd=0.5)
        self._step(params, opt, np.zeros(1))
        # pure decay: p - lr * wd * p
        assert np.allclose(params["p"].data, 2.0 - 0.1 * 0.5 * 2.0)

    def test_nan_gradient_rejected(self):
        params, opt = self._setup([1.0])
        with pytest.raises(NumericsError):
            self._step(params, opt, np.array([np.nan]))

    def test_second_step_bias_correction(self):
        params, opt = self._setup([0.0], lr=1.0)
        g = np.array([1.0])
        self._step(params, opt, g)
        self._step(params, opt, g)
        m = 0.9 * (0.1 * 1.0) + 0.1 * 1.0
        v = 0.999 * (0.001 * 1.0) + 0.001 * 1.0
        m_hat = m / (1 - 0.9 ** 2)
        v_hat = v / (1 - 0.999 ** 2)
        step1 = -1.0 / (1.0 + 1e-8)
        expected = step1 - m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.allclose(params["p"].data, expected, rtol=1e-10)


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("w", Tensor(np.ones(2)))
        with pytest.raises(NumericsError):
            store.add("w", Tensor(np.ones(2)))

    def test_iteration_order_is_insertion_order(self):
        store = ParamStore()
        for name in ("z", "a", "m"):
            store.add(name, Tensor(np.ones(1)))
        assert store.names() == ["z", "a", "m"]


class TestRandomStream:
    def test_same_key_same_draws(self):
        a = RandomStream.derive(5, "noise").normal((3, 3))
        b = RandomStream.derive(5, "noise").normal((3, 3))
        assert np.array_equal(a, b)

    def test_named_streams_differ(self):
        a = RandomStream.derive(5, "noise").raw(4)
        b = RandomStream.derive(5, "data").raw(4)
        assert not np.array_equal(a, b)

    def test_counter_replay(self):
        s = RandomStream.derive(5, "noise")
        s.raw(10)
        key, counter = s.state()
        first = s.raw(5)
        replay = RandomStream(key, counter).raw(5)
        assert np.array_equal(first, replay)

    def test_uniform_range_and_moments(self):
        u = RandomStream.derive(11, "u").uniform(200_000)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.005

    def test_normal_moments(self):
        z = RandomStream.derive(11, "n").normal(200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(), 1, 2, 7, 12, (3, 3, 3), (4, 3, 5)])
    def test_normal_is_box_muller_over_uniforms(self, shape, dtype):
        # Uniform i < m sets a radius sqrt(-2 log(1 - u)), uniform m + i its
        # angle; the m cosines come first, then the m sines, and an odd size
        # drops the last sine.
        stream = RandomStream.derive(9, "box-muller")
        stream.raw(3)
        replay = RandomStream(*stream.state())
        size = int(np.prod(shape))
        m = (size + 1) // 2
        u = replay.uniform(2 * m)
        radius = np.sqrt(-2.0 * np.log(1.0 - u[:m]))
        angle = 2.0 * np.pi * u[m:]
        expected = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:size]
        z = stream.normal(shape, dtype)
        assert z.dtype == dtype
        assert np.array_equal(z, expected.reshape(shape).astype(dtype))
        assert stream.state() == replay.state()

    def test_integers_in_range(self):
        v = RandomStream.derive(11, "i").integers(1, 101, 10_000)
        assert v.min() >= 1 and v.max() <= 100
        assert len(np.unique(v)) == 100

    def test_permutation_is_permutation(self):
        p = RandomStream.derive(11, "p").permutation(257)
        assert np.array_equal(np.sort(p), np.arange(257))

    def test_child_streams_independent(self):
        base = RandomStream.derive(7, "data")
        a = base.child(0).raw(8)
        b = base.child(1).raw(8)
        assert not np.array_equal(a, b)
