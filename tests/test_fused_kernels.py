"""Equivalence suite: every fused kernel against its unfused reference.

The performance work in ``repro.nn`` (fused affine / affine+activation /
log-softmax / cross-entropy nodes), ``repro.events.aer`` (zero-copy
decode) and the ``Sequential`` pair-fusion rewrite all carry the same
contract: **bitwise** identity with the reference composition, forward
and gradients, including reduction tie-handling.  This suite is the
oracle check; speed is measured end to end by ``e2ebench/``, whose
traced run times every model layer (``nn.layer_us.*``).
"""

import numpy as np
import pytest

from repro.events import EventStream, Resolution
import contextlib

from repro.events.aer import AERCodec
from repro.nn import (
    Linear,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
    Tensor,
    affine,
    affine_act,
    affine_act_reference,
    affine_reference,
    cross_entropy,
    cross_entropy_reference,
    log_softmax,
    log_softmax_reference,
    stable_matmul,
)

RNG = np.random.default_rng(42)
SHAPES = [(5, 4), (1, 4), (3, 2, 4)]


def _null_ctx():
    return contextlib.nullcontext()


def _leaves(shape, out_features=6, bias=True):
    x = Tensor(RNG.normal(size=shape), requires_grad=True)
    w = Tensor(RNG.normal(size=(out_features, shape[-1])), requires_grad=True)
    b = Tensor(RNG.normal(size=(out_features,)), requires_grad=True) if bias else None
    return x, w, b


def _clone(t):
    if t is None:
        return None
    return Tensor(t.data.copy(), requires_grad=t.requires_grad)


def _grad_bits_equal(a, b):
    assert a is not None and b is not None
    assert a.dtype == b.dtype and a.shape == b.shape
    np.testing.assert_array_equal(a, b)


class TestAffine:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("stable", [False, True])
    def test_forward_and_grads_bitwise(self, shape, bias, stable):
        x, w, b = _leaves(shape, bias=bias)
        xr, wr, br = _clone(x), _clone(w), _clone(b)
        ctx = stable_matmul() if stable else _null_ctx()
        with ctx:
            fused = affine(x, w, b)
            ref = affine_reference(xr, wr, br)
            np.testing.assert_array_equal(fused.data, ref.data)
            seed = RNG.normal(size=fused.shape)
            fused.backward(seed)
            ref.backward(seed.copy())
        _grad_bits_equal(x.grad, xr.grad)
        _grad_bits_equal(w.grad, wr.grad)
        if bias:
            _grad_bits_equal(b.grad, br.grad)


class TestAffineAct:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
    def test_forward_and_grads_bitwise(self, shape, activation):
        x, w, b = _leaves(shape)
        xr, wr, br = _clone(x), _clone(w), _clone(b)
        fused = affine_act(x, w, b, activation)
        ref = affine_act_reference(xr, wr, br, activation)
        np.testing.assert_array_equal(fused.data, ref.data)
        seed = RNG.normal(size=fused.shape)
        fused.backward(seed)
        ref.backward(seed.copy())
        _grad_bits_equal(x.grad, xr.grad)
        _grad_bits_equal(w.grad, wr.grad)
        _grad_bits_equal(b.grad, br.grad)

    def test_relu_dead_zone_gets_zero_grad(self):
        x = Tensor([[-5.0, 5.0]], requires_grad=True)
        w = Tensor(np.eye(2), requires_grad=True)
        out = affine_act(x, w, None, "relu")
        out.backward(np.ones_like(out.data))
        assert x.grad[0, 0] == 0.0 and x.grad[0, 1] != 0.0

    def test_unknown_activation_rejected(self):
        x, w, b = _leaves((2, 4))
        with pytest.raises(ValueError, match="activation"):
            affine_act(x, w, b, "gelu")


class TestSequentialFusion:
    @pytest.mark.parametrize("act_cls", [ReLU, Tanh, Sigmoid])
    def test_fused_pairs_match_layerwise_execution(self, act_cls):
        rng = np.random.default_rng(0)
        model = Sequential(
            Linear(4, 8, rng=np.random.default_rng(1)),
            act_cls(),
            Linear(8, 3, rng=np.random.default_rng(2)),
        )
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        fused = model(x)
        # Reference: run each layer individually (no pair fusion).
        xr = Tensor(x.data.copy(), requires_grad=True)
        out = xr
        for layer in model.layers:
            out = layer(out)
        np.testing.assert_array_equal(fused.data, out.data)
        seed = rng.normal(size=fused.shape)
        fused.backward(seed)
        out.backward(seed.copy())
        _grad_bits_equal(x.grad, xr.grad)
        for p_f, p_r in zip(model.parameters(), model.parameters()):
            assert p_f.grad is not None


class TestLogSoftmaxAndCrossEntropy:
    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_log_softmax_bitwise(self, axis):
        x = Tensor(RNG.normal(size=(6, 5)), requires_grad=True)
        xr = _clone(x)
        fused = log_softmax(x, axis=axis)
        ref = log_softmax_reference(xr, axis=axis)
        np.testing.assert_array_equal(fused.data, ref.data)
        seed = RNG.normal(size=fused.shape)
        fused.backward(seed)
        ref.backward(seed.copy())
        _grad_bits_equal(x.grad, xr.grad)

    def test_cross_entropy_bitwise(self):
        logits = Tensor(RNG.normal(size=(7, 4)) * 10.0, requires_grad=True)
        ref_logits = _clone(logits)
        targets = np.array([0, 1, 2, 3, 0, 1, 2])
        fused = cross_entropy(logits, targets)
        ref = cross_entropy_reference(ref_logits, targets)
        np.testing.assert_array_equal(fused.data, ref.data)
        fused.backward()
        ref.backward()
        _grad_bits_equal(logits.grad, ref_logits.grad)

    def test_cross_entropy_extreme_logits_stay_finite(self):
        logits = Tensor(
            np.array([[1e4, -1e4, 0.0], [-1e4, 1e4, 0.0]]), requires_grad=True
        )
        loss = cross_entropy(logits, np.array([0, 1]))
        loss.backward()
        assert np.isfinite(loss.data)
        assert np.isfinite(logits.grad).all()


class TestReductionTies:
    """max/min backward split the gradient evenly among tied elements,
    and the direct min node must match the -max(-x) composition
    bit-for-bit (negation is an exact sign flip, so masks and splits
    coincide)."""

    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_max_ties_split_gradient_evenly(self, axis):
        data = np.array([[1.0, 2.0, 2.0], [2.0, 2.0, 0.0]])
        t = Tensor(data.copy(), requires_grad=True)
        out = t.max(axis=axis)
        out.backward(np.ones_like(out.data))
        mask = (data == data.max(axis=axis, keepdims=True)).astype(float)
        mask /= mask.sum(axis=axis, keepdims=True)
        np.testing.assert_array_equal(t.grad, mask)

    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_min_matches_negated_max_composition(self, axis):
        data = np.array([[1.0, 1.0, 3.0], [1.0, 2.0, 2.0]])
        t = Tensor(data.copy(), requires_grad=True)
        out = t.min(axis=axis)
        tr = Tensor(data.copy(), requires_grad=True)
        ref = -((-tr).max(axis=axis))
        np.testing.assert_array_equal(out.data, ref.data)
        seed = np.full(out.shape, 0.5)
        out.backward(seed)
        ref.backward(seed.copy())
        _grad_bits_equal(t.grad, tr.grad)


class TestZeroCopyAerDecode:
    def _stream(self, n=400, seed=9):
        rng = np.random.default_rng(seed)
        res = Resolution(32, 24)
        t = np.cumsum(rng.integers(0, 50, size=n)).astype(np.int64)
        x = rng.integers(0, res.width, size=n).astype(np.int32)
        y = rng.integers(0, res.height, size=n).astype(np.int32)
        p = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
        return EventStream.from_arrays(t, x, y, p, res)

    def test_fast_decode_matches_reference(self):
        enc = AERCodec(Resolution(32, 24))
        packet = enc.encode(self._stream())
        fast, fast_stats = enc.decode_with_stats(packet)
        ref, ref_stats = enc.decode_with_stats_reference(packet)
        assert fast.raw.dtype == ref.raw.dtype
        np.testing.assert_array_equal(fast.raw, ref.raw)
        assert fast.resolution == ref.resolution
        assert fast_stats == ref_stats

    def test_fast_decode_matches_reference_with_corruption(self):
        enc = AERCodec(Resolution(32, 24))
        words = enc.encode(self._stream(seed=11)).copy()
        # Garble address fields mid-packet: both decoders must drop the
        # same out-of-range words and report identical stats.
        words[20:200:13] ^= np.uint64((1 << enc.x_bits) - 1)
        words[25:200:17] ^= np.uint64(((1 << enc.y_bits) - 1) << enc.y_bits)
        fast, fast_stats = enc.decode_with_stats(words)
        ref, ref_stats = enc.decode_with_stats_reference(words)
        np.testing.assert_array_equal(fast.raw, ref.raw)
        assert fast_stats == ref_stats
