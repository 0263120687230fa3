"""Forward/backward exactness and optimizer behavior of the eps network."""

import warnings

import numpy as np
import pytest
from scipy.special import expit

from eraselab import nnet
from eraselab.errors import NumericalError, StructuralError

import oracles


def tiny_shape(input_dim=2, hidden=(5, 4), time_dim=4, embed_dim=3):
    return nnet.NetworkShape(input_dim=input_dim, hidden=hidden,
                             time_embed_dim=time_dim, concept_embed_dim=embed_dim)


def loss_value(params, z, t, c, upstream):
    out, _ = oracles.forward(params, z, t, c)
    return float(upstream @ out)


def finite_diff_grads(params, z, t, c, upstream, h=1e-5):
    """Central finite differences of <upstream, eps_hat> per tensor."""
    num = {}
    for name in params.tensor_names():
        base = params.get_tensor(name)
        grad = np.zeros_like(base)
        it = np.nditer(base, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            bumped = params.copy()
            plus = bumped.get_tensor(name).copy()
            plus[idx] += h
            bumped.set_tensor(name, plus)
            f_plus = loss_value(bumped, z, t, c, upstream)
            minus = params.copy()
            lo = minus.get_tensor(name).copy()
            lo[idx] -= h
            minus.set_tensor(name, lo)
            f_minus = loss_value(minus, z, t, c, upstream)
            grad[idx] = (f_plus - f_minus) / (2 * h)
        num[name] = grad
    return num


class TestForward:
    def test_zero_params_zero_output(self):
        shape = tiny_shape()
        params = oracles.zero_like_params(nnet.init_params(shape, 3, seed=0))
        out, _ = oracles.forward(params, np.array([0.5, -1.0]), t=3, c=1)
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_determinism(self):
        params = nnet.init_params(tiny_shape(), 3, seed=1)
        z = np.array([0.2, 0.7])
        a, _ = oracles.forward(params, z, t=5, c=2)
        b, _ = oracles.forward(params, z, t=5, c=2)
        np.testing.assert_array_equal(a, b)

    def test_concept_conditioning_changes_output(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            params = nnet.init_params(tiny_shape(), 4, seed=10 + trial)
            z = rng.standard_normal(2)
            outs = [oracles.forward(params, z, t=7, c=c)[0] for c in range(5)]
            for i in range(len(outs)):
                for j in range(i + 1, len(outs)):
                    assert np.abs(outs[i] - outs[j]).max() > 0

    def test_batch_matches_single(self):
        params = nnet.init_params(tiny_shape(), 3, seed=3)
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((6, 2))
        ts = np.array([1, 2, 3, 4, 5, 6])
        cs = np.array([0, 1, 2, 3, 0, 1])
        batch_out, _ = nnet.forward_batch(params, Z, ts, cs)
        for i in range(6):
            single, _ = oracles.forward(params, Z[i], int(ts[i]), int(cs[i]))
            np.testing.assert_allclose(batch_out[i], single, rtol=1e-13, atol=1e-15)

    def test_bad_shapes_rejected(self):
        params = nnet.init_params(tiny_shape(), 3, seed=5)
        with pytest.raises(StructuralError):
            oracles.forward(params, np.zeros(3), t=1, c=0)
        with pytest.raises(StructuralError):
            oracles.forward(params, np.zeros(2), t=1, c=7)
        with pytest.raises(StructuralError):
            nnet.Parameters(params.shape, 3, params.flat[:-1])


class TestTimeFeatureTable:
    """forward_batch looks the time features up in a table that
    time_features built; every row must keep the bits of a direct call."""

    T_TRAIN = 1000

    @staticmethod
    def time_columns(tape, dim):
        lo = tape.params.shape.input_dim
        return tape.inputs[0][:, lo:lo + dim]

    @pytest.mark.parametrize("dim", [4, 32])
    def test_rows_equal_time_features_bitwise(self, dim, monkeypatch):
        monkeypatch.setattr(nnet, "_TIME_TABLES", {})
        params = nnet.init_params(tiny_shape(time_dim=dim), 2, seed=40)
        ts = np.arange(self.T_TRAIN + 1)
        for t in ts:
            want = nnet.time_features(int(t), dim)
            scalar = self.time_columns(
                nnet.forward_batch(params, np.zeros((1, 2)), int(t), 0)[1], dim)
            batch1 = self.time_columns(
                nnet.forward_batch(params, np.zeros((1, 2)), ts[t:t + 1], 0)[1], dim)
            assert scalar[0].tobytes() == want.tobytes(), t
            assert batch1[0].tobytes() == want.tobytes(), t
        batched = self.time_columns(
            nnet.forward_batch(params, np.zeros((len(ts), 2)), ts[::-1], 1)[1], dim)
        assert batched.tobytes() == nnet.time_features(ts[::-1], dim).tobytes()
        assert len(nnet._TIME_TABLES[dim]) <= 2 * (self.T_TRAIN + 1)

    def test_t_beyond_the_first_table(self, monkeypatch):
        monkeypatch.setattr(nnet, "_TIME_TABLES", {})
        dim = 32
        params = nnet.init_params(tiny_shape(time_dim=dim), 2, seed=41)
        nnet.forward_batch(params, np.zeros((1, 2)), 3, 0)
        assert len(nnet._TIME_TABLES[dim]) == 8
        ts = np.array([2, 500, 7, 999])
        _, tape = nnet.forward_batch(params, np.zeros((4, 2)), ts, 0)
        assert self.time_columns(tape, dim).tobytes() == \
            nnet.time_features(ts, dim).tobytes()
        assert len(nnet._TIME_TABLES[dim]) == 2 * (999 + 1)

    @pytest.mark.parametrize("t", [1.5, 3.0, np.array([1.0, 2.0]), -1,
                                   np.array([3, -2])],
                             ids=["float", "integral-float", "float-vector",
                                  "negative", "negative-in-vector"])
    def test_non_integer_or_negative_t_rejected(self, t):
        params = nnet.init_params(tiny_shape(), 2, seed=42)
        with pytest.raises(StructuralError):
            nnet.forward_batch(params, np.zeros((2, 2)), t, 0)


class TestBackward:
    def test_gradcheck_random_configurations(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        for trial in range(20):
            input_dim = int(rng.integers(1, 4))
            hidden = tuple(int(rng.integers(2, 6))
                           for _ in range(int(rng.integers(1, 3))))
            shape = tiny_shape(input_dim=input_dim, hidden=hidden)
            k = int(rng.integers(1, 4))
            params = nnet.init_params(shape, k, seed=100 + trial)
            z = rng.standard_normal(input_dim)
            t = int(rng.integers(1, 50))
            c = int(rng.integers(0, k + 1))
            upstream = rng.standard_normal(input_dim)

            _, tape = oracles.forward(params, z, t, c)
            analytic = nnet.backward(tape, upstream[None])
            numeric = finite_diff_grads(params, z, t, c, upstream)
            for name in params.tensor_names():
                a = analytic.get_tensor(name)
                n = numeric[name]
                err = np.abs(a - n) / np.maximum(1.0, np.abs(n))
                worst = max(worst, float(err.max()))
        assert worst <= 1e-4

    def test_zero_upstream_zero_grads(self):
        params = nnet.init_params(tiny_shape(), 2, seed=7)
        _, tape = oracles.forward(params, np.array([0.1, 0.2]), t=2, c=0)
        grads = nnet.backward(tape, np.zeros((1, 2)))
        for name in params.tensor_names():
            np.testing.assert_array_equal(grads.get_tensor(name),
                                          np.zeros_like(params.get_tensor(name)))

    def test_unused_embedding_row_gets_zero_grad(self):
        params = nnet.init_params(tiny_shape(), 3, seed=8)
        _, tape = oracles.forward(params, np.array([0.1, -0.4]), t=4, c=1)
        grads = nnet.backward(tape, np.array([[1.0, -2.0]]))
        for row in (0, 2, 3):
            np.testing.assert_array_equal(grads.concept_embed[row],
                                          np.zeros_like(grads.concept_embed[row]))
        assert np.abs(grads.concept_embed[1]).max() > 0

    def test_batch_backward_accumulates(self):
        params = nnet.init_params(tiny_shape(), 2, seed=9)
        rng = np.random.default_rng(10)
        Z = rng.standard_normal((4, 2))
        up = rng.standard_normal((4, 2))
        _, tape = nnet.forward_batch(params, Z, 3, 1)
        batch_grads = nnet.backward(tape, up)
        total = oracles.zero_like_params(params)
        for i in range(4):
            _, tape_i = oracles.forward(params, Z[i], 3, 1)
            total.flat += nnet.backward(tape_i, up[i][None]).flat
        for name in params.tensor_names():
            np.testing.assert_allclose(batch_grads.get_tensor(name),
                                       total.get_tensor(name), rtol=1e-12, atol=1e-14)

    def test_mismatched_upstream_rejected(self):
        params = nnet.init_params(tiny_shape(), 2, seed=11)
        _, tape = oracles.forward(params, np.array([0.1, 0.2]), t=2, c=0)
        for upstream in (np.zeros((1, 3)), np.zeros(2)):
            with pytest.raises(StructuralError):
                nnet.backward(tape, upstream)

    def test_finiteness_on_default_shape(self):
        shape = nnet.NetworkShape(input_dim=2, hidden=oracles.POINTS_HIDDEN)
        params = nnet.init_params(shape, 8, seed=12)
        rng = np.random.default_rng(13)
        for _ in range(10):
            z = 5.0 * rng.standard_normal(2)
            out, tape = oracles.forward(params, z, t=int(rng.integers(1, 100)),
                                        c=int(rng.integers(0, 9)))
            assert np.all(np.isfinite(out))
            grads = nnet.backward(tape, rng.standard_normal((1, 2)))
            oracles.assert_finite_grads(grads)


class TestAdamW:
    def test_all_false_mask_is_identity(self):
        params = nnet.init_params(tiny_shape(), 2, seed=14)
        grads = oracles.zero_like_params(params)
        grads.weights[0] += 1.0
        state = nnet.OptimizerState.fresh(params, lr=0.1, weight_decay=0.0)
        out = nnet.adamw_step(params, grads, frozenset(), state)
        for name in params.tensor_names():
            assert out.get_tensor(name) is params.get_tensor(name)

    def test_zero_grad_zero_decay_is_identity(self):
        params = nnet.init_params(tiny_shape(), 2, seed=15)
        grads = oracles.zero_like_params(params)
        state = nnet.OptimizerState.fresh(params, lr=0.1, weight_decay=0.0)
        out = nnet.adamw_step(params, grads, frozenset(params.tensor_names()), state)
        for name in params.tensor_names():
            np.testing.assert_array_equal(out.get_tensor(name),
                                          params.get_tensor(name))

    def test_matches_hand_stepped_scalar_trace(self):
        lr, b1, b2, eps, wd = 0.01, 0.9, 0.999, 1e-8, 0.1
        grad_seq = [0.3, -0.5, 1.2]

        shape = tiny_shape(hidden=(1,))
        params = nnet.init_params(shape, 1, seed=16)
        theta = float(params.biases[0][0])
        state = nnet.OptimizerState.fresh(params, lr=lr, weight_decay=wd)
        mask = frozenset(["b0"])

        m = v = 0.0
        for step, g in enumerate(grad_seq, start=1):
            grads = oracles.zero_like_params(params)
            grads.biases[0][0] = g
            params = nnet.adamw_step(params, grads, mask, state)

            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** step)
            v_hat = v / (1 - b2 ** step)
            theta = theta - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * theta)
            np.testing.assert_allclose(params.biases[0][0], theta, rtol=1e-14)

    def test_nan_grads_abort_preserving_state(self):
        params = nnet.init_params(tiny_shape(), 2, seed=17)
        grads = oracles.zero_like_params(params)
        grads.weights[0][0, 0] = np.nan
        state = nnet.OptimizerState.fresh(params, lr=0.1, weight_decay=0.0)
        before = params.copy()
        with pytest.raises(NumericalError):
            nnet.adamw_step(params, grads, frozenset(params.tensor_names()), state)
        assert state.step_count == 0
        for name in params.tensor_names():
            np.testing.assert_array_equal(params.get_tensor(name),
                                          before.get_tensor(name))

    @pytest.mark.parametrize("trainable", [(), ("w0", "embed"), ("b1",), None],
                             ids=["empty", "w0-embed", "b1", "full"])
    def test_masks_match_reference(self, trainable):
        """Each mask updates only its tensors, as the per-tensor reference
        does; masked-out tensors stay bit-equal and their moments zero."""
        params = nnet.init_params(tiny_shape(), 2, seed=26)
        mask = frozenset(params.tensor_names()) if trainable is None \
            else frozenset(trainable)
        start, ref = params.copy(), params.copy()
        state = nnet.OptimizerState.fresh(params, lr=0.05, weight_decay=0.1)
        ref_state = nnet.OptimizerState.fresh(ref, lr=0.05, weight_decay=0.1)
        rng = np.random.default_rng(27)
        for step in range(1, 4):
            grads = oracles.zero_like_params(params)
            grads.flat[...] = rng.standard_normal(grads.flat.shape)
            out = nnet.adamw_step(params, grads, mask, state)
            ref = ref_adamw_step(ref, grads, mask, ref_state)
            assert state.step_count == step
            params = out
        for name in params.tensor_names():
            assert_same_bits(params.get_tensor(name), ref.get_tensor(name), name)
            m, v = state.m.get_tensor(name), state.v.get_tensor(name)
            assert_same_bits(m, ref_state.m.get_tensor(name), name)
            assert_same_bits(v, ref_state.v.get_tensor(name), name)
            if name not in mask:
                assert_same_bits(params.get_tensor(name), start.get_tensor(name), name)
                assert not m.any() and not v.any(), name

    @pytest.mark.parametrize("trainable,bad,raises", [
        (None, "b1", True), (("w0", "embed"), "embed", True),
        (("w0", "embed"), "b0", False)], ids=["full-b1", "partial-embed",
                                             "masked-out-b0"])
    def test_non_finite_gradient_names_tensor(self, trainable, bad, raises):
        params = nnet.init_params(tiny_shape(), 2, seed=28)
        mask = frozenset(params.tensor_names()) if trainable is None \
            else frozenset(trainable)
        grads = oracles.zero_like_params(params)
        grads.get_tensor(bad).flat[-1] = np.inf
        grads.get_tensor(bad).flat[0] = np.nan
        state = nnet.OptimizerState.fresh(params, lr=0.1, weight_decay=0.0)
        before = params.flat.copy()
        if raises:
            with pytest.raises(NumericalError, match=f"tensor {bad}$"):
                nnet.adamw_step(params, grads, mask, state)
            assert state.step_count == 0
            assert not state.m.flat.any() and not state.v.flat.any()
        else:
            out = nnet.adamw_step(params, grads, mask, state)
            assert_same_bits(out.get_tensor(bad), params.get_tensor(bad), bad)
        assert_same_bits(params.flat, before, "params")

    def test_mask_soundness_over_many_steps(self):
        params = nnet.init_params(tiny_shape(), 2, seed=18)
        frozen_names = [n for n in params.tensor_names() if n not in ("w0", "embed")]
        before = {n: params.get_tensor(n).copy() for n in params.tensor_names()}
        mask = frozenset(["w0", "embed"])
        state = nnet.OptimizerState.fresh(params, lr=0.05, weight_decay=0.0)
        rng = np.random.default_rng(19)
        for _ in range(20):
            _, tape = oracles.forward(params, rng.standard_normal(2),
                                      t=int(rng.integers(1, 20)), c=0)
            grads = nnet.backward(tape, rng.standard_normal((1, 2)))
            params = nnet.adamw_step(params, grads, mask, state)
        for name in frozen_names:
            assert np.linalg.norm(params.get_tensor(name) - before[name]) == 0.0
        for name in ("w0", "embed"):
            assert np.abs(params.get_tensor(name) - before[name]).max() > 0
        assert state.step_count == 20


# ---------------------------------------------------------------------------
# Oracles for the fast path: the allocating forward, backward and AdamW that
# the in-place versions replaced, kept verbatim in arithmetic.
# ---------------------------------------------------------------------------

def ref_forward_batch(params, Z, t, c):
    """Allocating forward: returns (output, layer inputs, pre-activations)."""
    n = Z.shape[0]
    c_ids = np.broadcast_to(np.asarray(c, dtype=np.int64), (n,)).copy()
    t_arr = np.broadcast_to(np.asarray(t, dtype=np.float64), (n,))
    tf = nnet.time_features(t_arr, params.shape.time_embed_dim)
    h = np.concatenate([Z, tf, params.concept_embed[c_ids]], axis=1)
    inputs, pre_acts = [], []
    n_layers = len(params.weights)
    for i in range(n_layers):
        inputs.append(h)
        pre = h @ params.weights[i].T + params.biases[i]
        if i < n_layers - 1:
            pre_acts.append(pre)
            h = pre * (1.0 / (1.0 + np.exp(-pre)))
        else:
            h = pre
    return h, inputs, pre_acts


def ref_backward(tape, upstream):
    """Zero-then-add backward that recomputes the sigmoid from pre_acts."""
    params = tape.params
    up = np.asarray(upstream, dtype=np.float64)
    grads = oracles.zero_like_params(params)
    delta = up
    n_layers = len(params.weights)
    for i in reversed(range(n_layers)):
        grads.weights[i] += delta.T @ tape.inputs[i]
        grads.biases[i] += delta.sum(axis=0)
        if i > 0:
            x = tape.pre_acts[i - 1]
            s = 1.0 / (1.0 + np.exp(-x))
            delta = (delta @ params.weights[i]) * (s * (1.0 + x * (1.0 - s)))
        else:
            delta = delta @ params.weights[i]
    embed_slice = slice(params.shape.input_dim + params.shape.time_embed_dim, None)
    np.add.at(grads.concept_embed, tape.c_ids, delta[:, embed_slice])
    return grads


def ref_adamw_step(params, grads, mask, state):
    """Allocating AdamW, tensor by tensor: each moment and parameter update
    is computed into a new array, then copied into the state's moments and
    a copy of params."""
    state.step_count += 1
    b1, b2 = nnet.ADAM_BETAS
    bc1 = 1.0 - b1 ** state.step_count
    bc2 = 1.0 - b2 ** state.step_count
    out = params.copy()
    for name in params.tensor_names():
        if name not in mask:
            continue
        g = grads.get_tensor(name)
        m, v = state.m.get_tensor(name), state.v.get_tensor(name)
        m[...] = b1 * m + (1.0 - b1) * g
        v[...] = b2 * v + (1.0 - b2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        p = params.get_tensor(name)
        update = m_hat / (np.sqrt(v_hat) + nnet.ADAM_EPS) + state.weight_decay * p
        out.set_tensor(name, p - state.lr * update)
    return out


POINTS_SHAPE = nnet.NetworkShape(input_dim=2, hidden=oracles.POINTS_HIDDEN)
GLYPH_SHAPE = nnet.NetworkShape(input_dim=256, hidden=(1024,))


# backward takes layer 0's input gradient only over the embedding columns of
# W0, so the embedding gradient may differ from ref_backward's full product
# by rounding: per step by at most EMBED_GRAD_TOL times its largest
# magnitude, and after fifty steps the embedding and its moments by at most
# EMBED_RTOL, elementwise.
EMBED_GRAD_TOL = 1e-14
EMBED_RTOL = 1e-12


def assert_same_tensors(a, b, names):
    for name in names:
        assert np.array_equal(a.get_tensor(name), b.get_tensor(name)), name


def assert_same_bits(a, b, name):
    """Equal down to the sign of zero."""
    assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestFastPathOracle:
    @pytest.mark.parametrize("shape", [POINTS_SHAPE, GLYPH_SHAPE],
                             ids=["points", "glyphs"])
    @pytest.mark.parametrize("batch", [1, 128])
    def test_forward_matches_reference(self, shape, batch):
        params = nnet.init_params(shape, 4, seed=20)
        rng = np.random.default_rng(21)
        Z = rng.standard_normal((batch, shape.input_dim))
        t = rng.integers(1, 101, size=batch)
        c = rng.integers(0, 5, size=batch)
        out, tape = nnet.forward_batch(params, Z, t, c)
        ref_out, ref_inputs, ref_pre = ref_forward_batch(params, Z, t, c)
        assert np.array_equal(out, ref_out)
        for got, want in zip(tape.inputs + tape.pre_acts, ref_inputs + ref_pre):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape", [POINTS_SHAPE, GLYPH_SHAPE],
                             ids=["points", "glyphs"])
    @pytest.mark.parametrize("batch", [1, 128])
    @pytest.mark.parametrize("trainable", [None, ("w0", "embed")],
                             ids=["full", "partial"])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.1])
    def test_fifty_steps_bit_identical(self, shape, batch, trainable,
                                       weight_decay):
        """Same tapes, same gradients, same moments, same parameters; the
        embedding and its moments within the bounds stated above."""
        lr = 1e-3
        fast = nnet.init_params(shape, 4, seed=22)
        mask = frozenset(fast.tensor_names()) if trainable is None \
            else frozenset(trainable)
        ref = fast.copy()
        fast_state = nnet.OptimizerState.fresh(fast, lr=lr,
                                               weight_decay=weight_decay)
        ref_state = nnet.OptimizerState.fresh(ref, lr=lr,
                                              weight_decay=weight_decay)
        names = fast.tensor_names()
        exact = [name for name in names if name != "embed"]
        rng = np.random.default_rng(23)
        steps = 50
        for step in range(steps):
            lr_t = lr * 0.5 * (1.0 + np.cos(np.pi * step / steps))
            fast_state.lr = ref_state.lr = lr_t
            Z = rng.standard_normal((batch, shape.input_dim))
            t = rng.integers(1, 101, size=batch)
            c = rng.integers(0, 5, size=batch)
            up = 2.0 * rng.standard_normal((batch, shape.input_dim)) / batch

            _, tape = nnet.forward_batch(fast, Z, t, c)
            grads = nnet.backward(tape, up)
            ref_grads = ref_backward(tape, up)
            for name in exact:
                assert np.array_equal(grads.get_tensor(name),
                                      ref_grads.get_tensor(name)), name
            assert np.abs(grads.concept_embed - ref_grads.concept_embed).max() \
                <= EMBED_GRAD_TOL * np.abs(ref_grads.concept_embed).max()

            before = fast.copy()
            fast = nnet.adamw_step(fast, grads, mask, fast_state)
            ref = ref_adamw_step(ref, ref_grads, mask, ref_state)
            assert_same_tensors(tape.params, before, names)

        assert_same_tensors(fast, ref, exact)
        for name in exact:
            assert np.array_equal(fast_state.m.get_tensor(name),
                                  ref_state.m.get_tensor(name)), name
            assert np.array_equal(fast_state.v.get_tensor(name),
                                  ref_state.v.get_tensor(name)), name
        for got, want in ((fast.concept_embed, ref.concept_embed),
                          (fast_state.m.concept_embed, ref_state.m.concept_embed),
                          (fast_state.v.concept_embed, ref_state.v.concept_embed)):
            np.testing.assert_allclose(got, want, rtol=EMBED_RTOL, atol=0)

    @pytest.mark.parametrize("shape", [POINTS_SHAPE, GLYPH_SHAPE],
                             ids=["points", "glyphs"])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.1])
    def test_adamw_matches_reference_bitwise(self, shape, weight_decay):
        """The in-place AdamW, with its wd*p term left out at wd == 0, equals
        the allocating step to the last bit, signed zeros included."""
        params = nnet.init_params(shape, 4, seed=24)
        rng = np.random.default_rng(25)
        # zeros of both signs in a weight and in a gradient take the paths
        # where an added +-0 could flip the sign of a zero result
        w0 = params.weights[0].copy()
        w0[0, :8] = [0.0, -0.0, 0.0, -0.0, 1e-300, -1e-300, 5.0, -5.0]
        params.set_tensor("w0", w0)
        ref = params.copy()
        mask = frozenset(params.tensor_names())
        fast_state = nnet.OptimizerState.fresh(params, lr=1e-3,
                                               weight_decay=weight_decay)
        ref_state = nnet.OptimizerState.fresh(ref, lr=1e-3,
                                              weight_decay=weight_decay)
        for _ in range(5):
            grads = oracles.zero_like_params(params)
            for name in params.tensor_names():
                g = grads.get_tensor(name)
                g[...] = rng.standard_normal(g.shape)
            grads.weights[0][0, :4] = [0.0, -0.0, -0.0, 0.0]
            params = nnet.adamw_step(params, grads, mask, fast_state)
            ref = ref_adamw_step(ref, grads, mask, ref_state)
        for name in params.tensor_names():
            assert_same_bits(params.get_tensor(name), ref.get_tensor(name), name)
            assert_same_bits(fast_state.m.get_tensor(name),
                             ref_state.m.get_tensor(name), name)
            assert_same_bits(fast_state.v.get_tensor(name),
                             ref_state.v.get_tensor(name), name)


def identity_layer_params():
    """One hidden unit whose pre-activation is z, to the last bit: W0 keeps
    only the z column, every other weight and bias is zero."""
    shape = nnet.NetworkShape(input_dim=1, hidden=(1,), time_embed_dim=2,
                              concept_embed_dim=1)
    params = nnet.init_params(shape, 1, seed=0)
    params.set_tensor("w0", np.array([[1.0, 0.0, 0.0, 0.0]]))
    params.set_tensor("b0", np.zeros(1))
    return params


class TestNumpySigmoid:
    """forward_batch builds the sigmoid from NumPy ufuncs; scipy's expit is
    the reference."""

    def test_within_1e_15_relative_of_expit(self):
        params = identity_layer_params()
        x = np.concatenate([np.random.default_rng(30).uniform(-700, 700, 200_000),
                            [-700.0, -1e-300, -0.0, 0.0, 1e-300, 700.0]])
        _, tape = nnet.forward_batch(params, x[:, None], 1, 0)
        assert np.array_equal(tape.pre_acts[0][:, 0], x)
        got, want = tape.sigmoids[0][:, 0], expit(x)
        assert np.all(np.abs(got - want) <= 1e-15 * want)

    def test_saturated_forward_warns_nothing(self):
        params = identity_layer_params()
        x = np.array([-800.0, -720.0, 720.0, 800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, tape = nnet.forward_batch(params, x[:, None], 1, 0)
        assert np.array_equal(tape.sigmoids[0][:, 0], [0.0, 0.0, 1.0, 1.0])
        assert np.array_equal(tape.sigmoids[0][:, 0], expit(x))
        assert np.all(np.isfinite(out))


# ---------------------------------------------------------------------------
# The tape-free eps primitive against forward_batch
# ---------------------------------------------------------------------------

# eps_columns sums layer 0 as three partial products where forward_batch
# takes one, so a column may differ from forward_batch by rounding: at most
# EPS_COLUMNS_RTOL times the column's largest magnitude (measured at most
# 8.6e-16 on the points shape and 1.7e-15 on the glyph shape).
EPS_COLUMNS_RTOL = 1e-14


def assert_column_close(got, want):
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= EPS_COLUMNS_RTOL * scale


class TestEpsColumns:
    K = 4

    def make(self, shape, n, seed):
        params = nnet.init_params(shape, self.K, seed=seed)
        rng = np.random.default_rng(seed + 1)
        return params, rng, rng.standard_normal((n, shape.input_dim))

    @pytest.mark.parametrize("shape", [POINTS_SHAPE, GLYPH_SHAPE],
                             ids=["points", "glyphs"])
    @pytest.mark.parametrize("t", [0, 17, 1000], ids=["t0", "t17", "T_train"])
    def test_scalar_t_columns_match_forward_batch(self, shape, t):
        params, rng, Z = self.make(shape, 50, seed=50)
        per_row = rng.integers(0, self.K + 1, size=50)
        columns = [self.K, 1, per_row]
        out = nnet.eps_columns(params, Z, t, columns)
        assert out.shape == (3, 50, shape.input_dim)
        for got, c in zip(out, columns):
            assert_column_close(got, nnet.forward_batch(params, Z, t, c)[0])

    @pytest.mark.parametrize("shape", [POINTS_SHAPE, GLYPH_SHAPE],
                             ids=["points", "glyphs"])
    def test_per_row_t_and_skipped_rows(self, shape):
        params, rng, Z = self.make(shape, 40, seed=52)
        t = rng.integers(0, 1001, size=40)
        t[:2] = [0, 1000]
        gate = rng.random(40) < 0.5
        columns = [self.K, rng.integers(0, self.K + 1, size=40),
                   np.where(gate, 2, -1)]
        out = nnet.eps_columns(params, Z, t, columns)
        for got, c in zip(out[:2], columns[:2]):
            assert_column_close(got, nnet.forward_batch(params, Z, t, c)[0])
        assert not out[2][~gate].any()
        assert_column_close(out[2][gate],
                            nnet.forward_batch(params, Z[gate], t[gate], 2)[0])

    @pytest.mark.parametrize("shape", [POINTS_SHAPE, GLYPH_SHAPE],
                             ids=["points", "glyphs"])
    def test_matches_stacked_forward_batch_oracle(self, shape):
        params, rng, Z = self.make(shape, 30, seed=54)
        t = rng.integers(1, 101, size=30)
        columns = [self.K, rng.integers(0, self.K + 1, size=30),
                   np.where(rng.random(30) < 0.3, 0, -1), 3]
        got = nnet.eps_columns(params, Z, t, columns)
        want = oracles.eps_columns(params, Z, t, columns)
        for g, w in zip(got, want):
            assert_column_close(g, w)
        assert np.array_equal(got == 0, want == 0)

    def test_repeated_pair_evaluated_once(self):
        params, _, Z = self.make(POINTS_SHAPE, 20, seed=56)
        out = nnet.eps_columns(params, Z, 9, [self.K, 2, self.K, 2])
        assert np.array_equal(out[0], out[2]) and np.array_equal(out[1], out[3])

    def test_all_rows_skipped_is_zero(self):
        params, _, Z = self.make(POINTS_SHAPE, 5, seed=58)
        out = nnet.eps_columns(params, Z, 9, [-1, np.full(5, -1)])
        assert out.shape == (2, 5, 2) and not out.any()

    @pytest.mark.parametrize("Z,t,columns", [
        (np.zeros((3, 3)), 1, [0]),
        (np.zeros((3, 2)), 1, [K + 1]),
        (np.zeros((3, 2)), 1, [np.array([0, -2, 1])]),
        (np.zeros((3, 2)), 1.5, [0]),
        (np.zeros((3, 2)), np.array([1.0, 2.0, 3.0]), [0]),
        (np.zeros((3, 2)), -1, [0]),
        (np.zeros((3, 2)), np.array([3, -2, 1]), [0]),
    ], ids=["z-width", "concept-above", "concept-below", "float-t",
            "float-t-vector", "negative-t", "negative-t-in-vector"])
    def test_bad_input_rejected(self, Z, t, columns):
        params = nnet.init_params(tiny_shape(), self.K, seed=60)
        with pytest.raises(StructuralError):
            nnet.eps_columns(params, Z, t, columns)

    def test_empty_batch_named_by_both_forwards(self):
        params = nnet.init_params(tiny_shape(), self.K, seed=61)
        with pytest.raises(StructuralError, match="empty batch"):
            nnet.forward_batch(params, np.zeros((0, 2)), 3, 0)
        with pytest.raises(StructuralError, match="empty batch"):
            nnet.eps_columns(params, np.zeros((0, 2)), 3, [0])
