import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import peprank
from peprank import autograd as ag, threads
from peprank.autograd import ParameterStore, Tensor

from conftest import grad_check, reference_softmax


def leaf(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


class TestForwardValues:
    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(4, 4)))
        out = ag.matmul(Tensor(np.eye(4)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_matmul_hand_computed(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(
            ag.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]]
        )
        assert Tensor(np.float32([[1.5]])).data.dtype == np.float64  # every Tensor is float64

    def test_softmax_masked_uniform_over_valid(self):
        logits = Tensor(np.zeros((2, 4)))
        mask = np.array([[True, True, False, True], [True, False, False, False]])
        probs = ag.softmax_masked(logits, mask).data
        np.testing.assert_allclose(probs[0], [1 / 3, 1 / 3, 0.0, 1 / 3])
        np.testing.assert_allclose(probs[1], [1.0, 0.0, 0.0, 0.0])

    def test_softmax_all_masked_row_rejected(self):
        with pytest.raises(ValueError, match="masked"):
            ag.softmax_masked(Tensor(np.zeros((1, 3))), np.zeros((1, 3), dtype=bool))

    def test_layer_norm_constant_vector_is_zero(self):
        x = Tensor(np.full((3, 8), 4.2))
        out = ag.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_rmse_masked(self):
        pred = Tensor([1.0, 2.0, 100.0])
        target = Tensor([1.0, 4.0, 0.0])
        mask = np.array([True, True, False])
        out = ag.rmse(pred, target, mask)
        assert out.item() == pytest.approx(np.sqrt(4.0 / 2))

    def test_rmse_all_masked_rejected(self):
        with pytest.raises(ValueError, match="zero unmasked"):
            ag.rmse(Tensor([1.0]), Tensor([2.0]), np.array([False]))

    def test_dropout_eval_is_identity(self):
        x = Tensor(np.arange(6.0))
        assert ag.dropout(x, 0.5, None) is x

    def test_dropout_train_scales(self):
        rng = np.random.default_rng(1)
        x = Tensor(np.ones(10000))
        out = ag.dropout(x, 0.25, rng)
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 1 / 0.75)
        assert kept.size == pytest.approx(7500, abs=200)

    def test_concat_split_round_trip(self):
        rng = np.random.default_rng(2)
        a, b = Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(4, 3)))
        joined = ag.concat([a, b], axis=0)
        parts = ag.split(joined, [2], axis=0)
        np.testing.assert_array_equal(parts[0].data, a.data)
        np.testing.assert_array_equal(parts[1].data, b.data)

    def test_softmax_empty_row_of_a_broadcast_mask_rejected(self):
        logits = Tensor(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="masked"):
            ag.softmax_masked(logits, np.zeros((1, 3), dtype=bool))
        probs = ag.softmax_masked(logits, np.array([[True], [True]])).data
        np.testing.assert_allclose(probs, 1 / 3)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.one_of(st.integers(1, 9), st.integers(1, 300)),
           st.lists(st.integers(1, 6), max_size=3), st.sampled_from([None, "keys", "entries"]),
           st.sampled_from([1e-3, 1.0, 30.0, 1e3]))
    def test_softmax_forward_is_the_reference_bit_for_bit(self, seed, keys, leading, masking,
                                                          scale):
        """Row lengths on both sides of the short-row branches (8 and 64
        keys), leading shapes up to attention's four axes, and -inf masked
        entries: a key mask broadcast over rows, as attention passes it, or
        one mask entry per score."""
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=(*leading, keys)) * scale
        mask = None
        if masking is not None:
            shape = scores.shape if masking == "entries" else (
                *leading[:1], *[1] * len(leading[1:]), keys)
            mask = rng.random(shape) < 0.7
            mask[..., rng.integers(keys)] = True  # no row masked entirely
        got = ag._softmax_forward(scores.copy(), mask)
        np.testing.assert_array_equal(got.view(np.uint64),
                                      reference_softmax(scores, mask).view(np.uint64))

    def test_rmse_per_row(self):
        pred = Tensor([[1.0, 2.0, 100.0], [0.0, 0.0, 3.0]])
        target = Tensor([[1.0, 4.0, 0.0], [0.0, 0.0, 0.0]])
        mask = np.array([[True, True, False], [True, True, True]])
        rows = np.array([[0], [1]])
        out = ag.rmse(pred, target, mask, segments=rows)
        np.testing.assert_allclose(out.data, [np.sqrt(4.0 / 2), np.sqrt(9.0 / 3)])
        with pytest.raises(ValueError, match="zero unmasked"):
            ag.rmse(pred, target, np.array([[True] * 3, [False] * 3]), segments=rows)

    def test_rmse_segments_need_not_be_rows(self):
        pred = Tensor([1.0, 2.0, 100.0, 0.0, 3.0])
        target = Tensor([1.0, 4.0, 0.0, 0.0, 0.0])
        out = ag.rmse(pred, target, [True, True, False, True, True], segments=[0, 0, 1, 1, 1])
        np.testing.assert_allclose(out.data, [np.sqrt(4.0 / 2), np.sqrt(9.0 / 2)])

    @pytest.mark.parametrize("indices, axis", [
        ([4, 0, 3, 1, 2], 0),  # a permutation
        ([[0, 2], [2, 2], [4, 0]], 0),  # repeats, in a 2-D index
        ([1, 0, 1], 1),
    ])
    def test_take_gradient_is_np_add_at(self, indices, axis):
        rng = np.random.default_rng(27)
        a = leaf(rng, 5, 3)
        out = ag.take(a, indices, axis=axis)
        g = rng.normal(size=out.shape)
        ag.backward(ag.tensor_sum(ag.mul(out, Tensor(g))))
        expected = np.zeros_like(a.data)
        np.add.at(np.moveaxis(expected, axis, 0), np.asarray(indices), np.moveaxis(g, axis, 0))
        np.testing.assert_array_equal(a.grad, expected)

    def test_non_scalar_backward_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            ag.backward(Tensor(np.zeros(3), requires_grad=True))


class TestBackwardClosedForms:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        ag.backward(ag.tensor_sum(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_mean_square_gradient(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=8), requires_grad=True)
        ag.backward(ag.mean(ag.mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * x.data / 8)

    def test_fanout_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        out = ag.add(ag.mul(x, 2.0), ag.mul(x, 5.0))
        ag.backward(ag.tensor_sum(out))
        np.testing.assert_allclose(x.grad, [7.0])

    def test_off_path_parameter_keeps_zero_grad(self):
        store = ParameterStore(seed=0)
        used = store.create("used", (3,))
        unused = store.create("unused", (3,))
        store.zero_grad()
        ag.backward(ag.tensor_sum(used))
        np.testing.assert_array_equal(unused.grad, np.zeros(3))
        np.testing.assert_array_equal(used.grad, np.ones(3))


class TestGraphLifetime:
    def test_backward_releases_interior_nodes_and_keeps_leaf_gradients(self):
        rng = np.random.default_rng(12)
        x, w = leaf(rng, 2, 3, 4), leaf(rng, 4, 5)
        hidden = ag.matmul(x, w)
        loss = ag.tensor_sum(ag.mul(hidden, hidden))
        ag.backward(loss)
        for node in (hidden, loss):
            assert node.grad is None and node._backward is None and node._parents == ()
        np.testing.assert_allclose(w.grad, np.einsum("bij,bik->jk", x.data, 2 * hidden.data))
        np.testing.assert_allclose(x.grad, 2 * hidden.data @ w.data.T)

    def test_release_keeps_shapes_and_gradients_and_spares_leaves(self):
        rng = np.random.default_rng(14)
        x, b = leaf(rng, 3, 4), leaf(rng, 4)
        doubled = ag.mul(x, 2.0)
        summed = ag.add(doubled, b)
        loss = ag.tensor_sum(ag.mul(summed, summed))
        expected = 2 * summed.data
        x.release()
        with ag.no_grad():
            outside = ag.mul(x, 2.0)
        outside.release()
        doubled.release()  # only add reads it, and add's backward reads only shapes
        np.testing.assert_array_equal(outside.data, 2 * x.data)
        assert doubled.shape == (3, 4) and not doubled.data.any()
        with pytest.raises(ValueError, match="read-only"):
            doubled.data += 1.0
        ag.backward(loss)
        np.testing.assert_array_equal(b.grad, expected.sum(axis=0))
        np.testing.assert_array_equal(x.grad, expected * 2.0)

    def test_no_grad_records_no_graph(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with ag.no_grad():
            out = ag.linear(w, w, w)
            with ag.no_grad():
                pass
            inner = ag.mul(w, 2.0)
        for node in (out, inner):
            assert not node.requires_grad and node._parents == () and node._backward is None
        np.testing.assert_array_equal(out.data, np.full((2, 2), 3.0))  # bias added in place
        np.testing.assert_array_equal(w.data, np.ones((2, 2)))
        assert ag.mul(w, 2.0).requires_grad

    def test_no_grad_restores_the_mode_when_its_body_raises(self):
        w = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(RuntimeError, match="boom"):
            with ag.no_grad():
                raise RuntimeError("boom")
        assert ag.mul(w, 2.0).requires_grad


class TestGradientBuffers:
    """A first gradient contribution is stored without a copy only when its
    op allocated it for that tensor, so no two gradients share a buffer."""

    @pytest.mark.parametrize("case", ["add_self", "add_leaves", "shared_weight"])
    def test_leaf_gradients_are_exact_and_clipped_once(self, case):
        rng = np.random.default_rng(13)
        store = ParameterStore(seed=3)
        weights = Tensor(rng.normal(size=(3, 4)))
        if case == "add_self":
            a = store.create("a", (3, 4), scale=1.0)
            f = lambda: ag.tensor_sum(ag.mul(ag.add(a, a), weights))
        elif case == "add_leaves":
            x, y = store.create("x", (3, 4), scale=1.0), store.create("y", (3, 4), scale=1.0)
            f = lambda: ag.tensor_sum(ag.mul(ag.add(x, y), ag.add(x, weights)))
        else:
            w = store.create("w", (4, 4), scale=1.0)
            b1, b2 = store.create("b1", (4,), scale=1.0), store.create("b2", (4,), scale=1.0)
            f = lambda: ag.tensor_sum(ag.mul(ag.linear(weights, w, b1),
                                             ag.linear(ag.mul(weights, 2.0), w, b2)))
        params = store.tensors()
        assert grad_check(f, params) < 1e-8  # leaves hold their backward gradients
        grads = [p.grad.copy() for p in params]
        for i, p in enumerate(params):
            assert not any(np.shares_memory(p.grad, q.grad) for q in params[i + 1:])
        norm = store.grad_norm()
        store.clip_grad_norm(norm / 4)
        for p, grad in zip(params, grads):
            np.testing.assert_allclose(p.grad, grad * ((norm / 4) / norm), rtol=1e-12)


class TestGradCheck:
    def test_linear_map_is_exact(self):
        rng = np.random.default_rng(4)
        x = leaf(rng, 3, 5)
        w = leaf(rng, 5, 2)
        b = leaf(rng, 2)
        err = grad_check(lambda: ag.tensor_sum(ag.linear(x, w, b)), [x, w, b])
        assert err < 1e-9

    @pytest.mark.parametrize(
        "name",
        [
            "add", "mul", "matmul", "matmul_2d_right", "transpose", "reshape", "concat", "split",
            "sum", "mean", "relu", "gelu", "layer_norm", "softmax_masked",
            "rmse", "rmse_per_row", "take", "exp", "log", "sqrt", "sigmoid", "softplus",
            "dropout", "linear",
        ],
    )
    def test_each_op(self, name):
        rng = np.random.default_rng(5)
        if name == "add":
            a, b = leaf(rng, 3, 4), leaf(rng, 4)
            f = lambda: ag.tensor_sum(ag.mul(ag.add(a, b), ag.add(a, b)))
            inputs = [a, b]
        elif name == "mul":
            a, b = leaf(rng, 3, 4), leaf(rng, 3, 1)
            f = lambda: ag.tensor_sum(ag.mul(a, b))
            inputs = [a, b]
        elif name == "matmul":
            a, b = leaf(rng, 2, 3, 4), leaf(rng, 2, 4, 5)
            f = lambda: ag.tensor_sum(ag.mul(ag.matmul(a, b), ag.matmul(a, b)))
            inputs = [a, b]
        elif name == "matmul_2d_right":
            a, b = leaf(rng, 2, 3, 4), leaf(rng, 4, 5)
            np.testing.assert_allclose(ag.matmul(a, b).data, np.matmul(a.data, b.data))
            f = lambda: ag.tensor_sum(ag.mul(ag.matmul(a, b), ag.matmul(a, b)))
            inputs = [a, b]
        elif name == "transpose":
            a = leaf(rng, 2, 3, 4)
            f = lambda: ag.tensor_sum(ag.mul(ag.transpose(a, (2, 0, 1)), 3.0))
            inputs = [a]
        elif name == "reshape":
            a = leaf(rng, 6, 2)
            f = lambda: ag.tensor_sum(ag.mul(ag.reshape(a, (3, 4)), ag.reshape(a, (3, 4))))
            inputs = [a]
        elif name == "concat":
            a, b = leaf(rng, 2, 3), leaf(rng, 4, 3)
            f = lambda: ag.tensor_sum(ag.mul(ag.concat([a, b], axis=0), 2.0))
            inputs = [a, b]
        elif name == "split":
            a = leaf(rng, 6, 3)
            f = lambda: ag.tensor_sum(ag.mul(ag.split(a, [2], axis=0)[1], ag.split(a, [2], axis=0)[1]))
            inputs = [a]
        elif name == "sum":
            a = leaf(rng, 3, 4)
            f = lambda: ag.tensor_sum(ag.mul(ag.tensor_sum(a, axis=1), ag.tensor_sum(a, axis=1)))
            inputs = [a]
        elif name == "mean":
            a = leaf(rng, 3, 4)
            f = lambda: ag.tensor_sum(ag.mul(ag.mean(a, axis=0), ag.mean(a, axis=0)))
            inputs = [a]
        elif name == "relu":
            a = Tensor(rng.normal(size=(4, 4)) + np.sign(rng.normal(size=(4, 4))) * 0.1,
                       requires_grad=True)
            f = lambda: ag.tensor_sum(ag.relu(a))
            inputs = [a]
        elif name == "gelu":
            a = leaf(rng, 4, 4)
            f = lambda: ag.tensor_sum(ag.gelu(a))
            inputs = [a]
        elif name == "layer_norm":
            a, g, b = leaf(rng, 3, 8), leaf(rng, 8), leaf(rng, 8)
            f = lambda: ag.tensor_sum(ag.mul(ag.layer_norm(a, g, b), ag.layer_norm(a, g, b)))
            inputs = [a, g, b]
        elif name == "softmax_masked":
            a = leaf(rng, 2, 5)
            mask = np.array([[True] * 5, [True, True, False, True, False]])
            weights = Tensor(rng.normal(size=(2, 5)))
            f = lambda: ag.tensor_sum(ag.mul(ag.softmax_masked(a, mask), weights))
            inputs = [a]
        elif name == "rmse":
            a, t = leaf(rng, 3, 4), leaf(rng, 3, 4)
            mask = rng.random((3, 4)) > 0.3
            f = lambda: ag.rmse(a, t, mask)
            inputs = [a, t]
        elif name == "rmse_per_row":
            a, t = leaf(rng, 3, 2, 4), leaf(rng, 3, 2, 4)
            mask = rng.random((3, 2, 4)) > 0.3
            mask[:, 0, 0] = True
            weights = Tensor(rng.normal(size=3))
            rows = np.arange(3)[:, None, None]
            f = lambda: ag.tensor_sum(ag.mul(ag.rmse(a, t, mask, segments=rows), weights))
            inputs = [a, t]
        elif name == "take":
            a = leaf(rng, 5, 3)
            f = lambda: ag.tensor_sum(ag.mul(ag.take(a, [0, 2, 2], axis=0), 2.0))
            inputs = [a]
        elif name == "exp":
            a = leaf(rng, 3, 3)
            f = lambda: ag.tensor_sum(ag.exp(a))
            inputs = [a]
        elif name == "log":
            a = Tensor(rng.uniform(0.5, 3.0, size=(3, 3)), requires_grad=True)
            f = lambda: ag.tensor_sum(ag.log(a))
            inputs = [a]
        elif name == "sqrt":
            a = Tensor(rng.uniform(0.5, 3.0, size=(3, 3)), requires_grad=True)
            f = lambda: ag.tensor_sum(ag.sqrt(a))
            inputs = [a]
        elif name == "sigmoid":
            a = leaf(rng, 3, 3)
            f = lambda: ag.tensor_sum(ag.mul(ag.sigmoid(a), ag.sigmoid(a)))
            inputs = [a]
        elif name == "softplus":
            a = leaf(rng, 3, 3)
            f = lambda: ag.tensor_sum(ag.softplus(a))
            inputs = [a]
        elif name == "dropout":
            a = leaf(rng, 4, 4)
            # deterministic: a fresh, identically seeded rng on every call
            f = lambda: ag.tensor_sum(
                ag.dropout(a, 0.4, np.random.default_rng(99))
            )
            inputs = [a]
        elif name == "linear":
            x, w, b = leaf(rng, 3, 5), leaf(rng, 5, 2), leaf(rng, 2)
            f = lambda: ag.tensor_sum(ag.mul(ag.linear(x, w, b), ag.linear(x, w, b)))
            inputs = [x, w, b]
        else:
            raise AssertionError(name)
        assert grad_check(f, inputs) < 1e-4

    def test_composed_attention_style_block(self):
        """The composed multi-head block over padded keys passes a gradient
        check, and ``ag.attention`` reproduces its outputs and gradients
        bit for bit."""
        rng = np.random.default_rng(6)
        q, k, v = leaf(rng, 3, 4, 8), leaf(rng, 3, 5, 8), leaf(rng, 3, 5, 8)
        key_mask = np.ones((3, 5), dtype=bool)
        key_mask[1, 3:] = False
        key_mask[2, 1:] = False
        target = Tensor(rng.normal(size=(3, 4, 8)))

        def f():
            return ag.rmse(composed_attention(q, k, v, key_mask, n_heads=2), target)

        assert grad_check(f, [q, k, v]) < 1e-4

        results = []
        for attention in (composed_attention, padded_attention):
            for t in (q, k, v):
                t.grad = None
            out = attention(q, k, v, key_mask, n_heads=2)
            ag.backward(ag.rmse(out, target))
            results.append([out.data, q.grad, k.grad, v.grad])
        for composed, fused in zip(*results):
            np.testing.assert_array_equal(fused, composed)


def padded_attention(q, k, v, key_mask, n_heads):
    """``ag.attention`` over a padded batch [batch, n, d]: the sequences
    packed end to end as one group."""
    batch, n_q, d = q.shape
    group = ag.AttentionGroup(np.arange(batch * n_q).reshape(batch, n_q),
                              np.arange(batch * k.shape[1]).reshape(batch, -1), key_mask)
    packed = [ag.reshape(t, (-1, d)) for t in (q, k, v)]
    return ag.reshape(ag.attention(*packed, [group], n_heads), q.shape)


def composed_attention(q, k, v, key_mask, n_heads):
    """Multi-head attention from the elementary ops: split heads, scale the
    scores, masked softmax, weighted sum, merge heads."""
    batch, n_q, d = q.shape
    n_k, dh = k.shape[1], d // n_heads

    def heads(x, length):
        return ag.transpose(ag.reshape(x, (batch, length, n_heads, dh)), (0, 2, 1, 3))

    scores = ag.mul(ag.matmul(heads(q, n_q), ag.transpose(heads(k, n_k), (0, 1, 3, 2))),
                    1.0 / np.sqrt(dh))
    probs = ag.softmax_masked(scores, key_mask.reshape(batch, 1, 1, n_k))
    context = ag.transpose(ag.matmul(probs, heads(v, n_k)), (0, 2, 1, 3))
    return ag.reshape(context, (batch, n_q, d))


class TestAttention:
    def test_grad_check_on_queries_keys_and_values(self):
        rng = np.random.default_rng(21)
        q, k, v = leaf(rng, 2, 3, 6), leaf(rng, 2, 4, 6), leaf(rng, 2, 4, 6)
        key_mask = np.array([[True, True, False, True], [False, True, False, False]])
        weights = Tensor(rng.normal(size=(2, 3, 6)))
        f = lambda: ag.tensor_sum(ag.mul(padded_attention(q, k, v, key_mask, n_heads=3), weights))
        assert grad_check(f, [q, k, v]) < 1e-7

    def test_all_masked_row_rejected(self):
        rng = np.random.default_rng(22)
        q, k = leaf(rng, 2, 3, 4), leaf(rng, 2, 2, 4)
        key_mask = np.array([[True, False], [False, False]])
        with pytest.raises(ValueError, match="all entries masked"):
            padded_attention(q, k, k, key_mask, n_heads=2)

    def test_no_grad_records_no_parents(self):
        rng = np.random.default_rng(23)
        q = leaf(rng, 1, 3, 4)
        with ag.no_grad():
            out = padded_attention(q, q, q, np.ones((1, 3), dtype=bool), n_heads=2)
        assert not out.requires_grad and out._parents == () and out._backward is None
        assert out.shape == (1, 3, 4)

    def test_packed_groups_match_each_sequence_alone(self):
        """Ragged sequences packed end to end, queries and keys in different
        orders and groups listed out of order: each sequence's output and
        gradients equal attention over that sequence alone."""
        rng = np.random.default_rng(25)
        # (queries, keys) per sequence; the first two share a shape
        shapes = [(3, 4), (3, 4), (5, 2), (1, 6)]
        q_starts = np.cumsum([0] + [n_q for n_q, _ in shapes])
        k_order = [2, 0, 3, 1]  # keys stored in another order than queries
        k_starts = dict(zip(k_order, np.cumsum([0] + [shapes[i][1] for i in k_order])))
        q = leaf(rng, int(q_starts[-1]), 8)
        k, v = leaf(rng, 16, 8), leaf(rng, 16, 8)
        weights = Tensor(rng.normal(size=q.shape))
        def rows(i):
            n_q, n_k = shapes[i]
            return (np.arange(q_starts[i], q_starts[i] + n_q)[None],
                    np.arange(k_starts[i], k_starts[i] + n_k)[None])

        groups = [ag.AttentionGroup(*rows(i)) for i in (3, 0, 1, 2)]
        packed = ag.attention(q, k, v, groups, n_heads=2)
        ag.backward(ag.tensor_sum(ag.mul(packed, weights)))
        for i, (n_q, n_k) in enumerate(shapes):
            rows = slice(q_starts[i], q_starts[i] + n_q)
            keys = slice(k_starts[i], k_starts[i] + n_k)
            qi, ki, vi = (Tensor(t.data[s][None], requires_grad=True)
                          for t, s in ((q, rows), (k, keys), (v, keys)))
            alone = padded_attention(qi, ki, vi, np.ones((1, n_k), dtype=bool), n_heads=2)
            np.testing.assert_allclose(packed.data[rows], alone.data[0], rtol=0, atol=1e-14)
            ag.backward(ag.tensor_sum(ag.mul(alone, Tensor(weights.data[rows][None]))))
            for t, s, ti in ((q, rows, qi), (k, keys, ki), (v, keys, vi)):
                np.testing.assert_allclose(t.grad[s], ti.grad[0], rtol=0, atol=1e-13)
        merged = [ag.AttentionGroup(np.arange(6).reshape(2, 3), np.arange(8).reshape(2, 4))]
        q2, k2 = leaf(rng, 6, 8), leaf(rng, 8, 8)
        f = lambda: ag.tensor_sum(ag.mul(ag.attention(q2, k2, k2, merged, n_heads=4),
                                         Tensor(weights.data[:6])))
        assert grad_check(f, [q2, k2]) < 1e-7

    def test_strided_groups_match_each_gathered_sequence_alone(self):
        """Column-style groups over a row-major 3 x 4 grid, with pad keys:
        each column's output equals attention over its gathered rows alone,
        bit for bit, and so do its gradients."""
        rng = np.random.default_rng(27)
        grid = np.arange(12).reshape(3, 4)
        mask = np.ones(12, dtype=bool)
        mask[[3, 7]] = False  # the last column pads two of its three cells
        q, k, v = leaf(rng, 12, 8), leaf(rng, 12, 8), leaf(rng, 12, 8)
        weights = Tensor(rng.normal(size=q.shape))
        packed = ag.attention(q, k, v, [ag.AttentionGroup(grid.T, grid.T, mask[grid.T])],
                              n_heads=2)
        ag.backward(ag.tensor_sum(ag.mul(packed, weights)))
        for column in grid.T:
            qi, ki, vi = (Tensor(t.data[column][None], requires_grad=True) for t in (q, k, v))
            alone = padded_attention(qi, ki, vi, mask[column][None], n_heads=2)
            np.testing.assert_array_equal(packed.data[column], alone.data[0])
            ag.backward(ag.tensor_sum(ag.mul(alone, Tensor(weights.data[column][None]))))
            for t, ti in ((q, qi), (k, ki), (v, vi)):
                np.testing.assert_array_equal(t.grad[column], ti.grad[0])

    @pytest.mark.parametrize("q_rows", [[[0, 1, 2]], [[0, 1, 2, 2]]])
    def test_groups_must_index_every_row_once(self, q_rows):
        # one row missing; then one row duplicated and another missing, with
        # the row count right
        rng = np.random.default_rng(26)
        q, k = leaf(rng, 4, 4), leaf(rng, 4, 4)
        group = ag.AttentionGroup(np.array(q_rows), np.arange(4)[None])
        with pytest.raises(ValueError, match="exactly once"):
            ag.attention(q, k, k, [group], n_heads=2)

    def test_linear_output_shares_no_buffer_with_a_retained_product(self):
        rng = np.random.default_rng(24)
        x, w, b = leaf(rng, 2, 3, 4), leaf(rng, 4, 5), leaf(rng, 5)
        out = ag.linear(x, w, b)
        product = out._parents[0]
        np.testing.assert_array_equal(out.data, x.data @ w.data + b.data)
        assert product.shape == (2, 3, 5) and not np.shares_memory(out.data, product.data)
        root = product.data
        while root.base is not None:
            root = root.base
        assert root.nbytes <= product.data.itemsize  # the product's buffer is gone
        ag.backward(ag.tensor_sum(out))
        np.testing.assert_allclose(w.grad, x.data.reshape(-1, 4).sum(axis=0)[:, None]
                                   * np.ones((1, 5)))


class TestAttentionOnTheHelper:
    """An attention that records a graph hands its groups of at least
    ATTENTION_THREAD_MIN_SCORES scores to the helper thread; see the
    ``helped`` fixture."""

    @staticmethod
    def run(q, k, v, groups):
        """The output, and the input gradients of a weighted sum of it."""
        for t in (q, k, v):
            t.grad = None
        out = ag.attention(q, k, v, groups, n_heads=2)
        ag.backward(ag.tensor_sum(ag.mul(out, Tensor(np.linspace(-1.0, 1.0, out.size)
                                                      .reshape(out.shape)))))
        return [out.data.copy()] + [t.grad.copy() for t in (q, k, v)]

    @staticmethod
    def sequences(sizes, n_k):
        """One group per size: that many sequences of n_k rows, each row a query
        and a key, packed end to end."""
        starts = np.cumsum([0] + [count * n_k for count in sizes])
        rows = [np.arange(a, b).reshape(-1, n_k) for a, b in zip(starts, starts[1:])]
        return [ag.AttentionGroup(r, r) for r in rows]

    @pytest.mark.parametrize("sizes", [[3, 5, 1, 4], [5]])  # four groups; one, cut in two
    def test_dealt_groups_keep_the_bits_of_one_thread(self, helped, monkeypatch, sizes):
        rng = np.random.default_rng(31)
        groups = self.sequences(sizes, 6)
        n = sum(sizes) * 6
        q, k, v = leaf(rng, n, 8), leaf(rng, n, 8), leaf(rng, n, 8)
        mask = rng.random(n) > 0.3
        mask[::6] = True  # every sequence keeps a key
        groups = [ag.AttentionGroup(g.q, g.k, mask[g.k]) for g in groups]
        alone = self.run(q, k, v, groups)
        assert helped == []  # no group reaches the default threshold
        monkeypatch.setattr(ag, "ATTENTION_THREAD_MIN_SCORES", 0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # both threads write the shared outputs, often switching
        try:
            for run in range(20):
                dealt = self.run(q, k, v, groups)
                assert len(helped) == 2 * (run + 1)  # forward and backward
                for got, want in zip(dealt, alone):
                    assert got.tobytes() == want.tobytes()
        finally:
            sys.setswitchinterval(interval)

    def test_deal_largest_first_to_the_less_loaded_side(self, monkeypatch):
        monkeypatch.setattr(ag, "ATTENTION_THREAD_MIN_SCORES", 10)
        # 5 and 9 stay here; 30 to the helper, 20 here (30 > 14), 12 there (30 < 34)
        assert ag._deal([5, 30, 20, 12, 9]) == [1, 3]
        assert ag._deal([30]) == []  # a lone group runs here
        assert ag._deal([20, 20]) == [1]  # ties go to the calling thread
        assert ag._deal([9, 9]) == []

    def test_the_helper_runs_under_the_callers_errstate(self, helped, monkeypatch):
        monkeypatch.setattr(ag, "ATTENTION_THREAD_MIN_SCORES", 0)
        seen, softmax = [], ag._softmax_forward
        monkeypatch.setattr(ag, "_softmax_forward", lambda scores, mask: (
            seen.append((threading.current_thread().name, np.geterr())), softmax(scores, mask))[1])
        rng = np.random.default_rng(32)
        q = leaf(rng, 12, 4)
        with np.errstate(over="raise", under="warn", invalid="ignore", divide="print"):
            expected = np.geterr()
            ag.attention(q, q, q, self.sequences([1, 1], 6), n_heads=2)
        assert len(helped) == 1
        assert sorted(name.startswith("peprank-helper") for name, _ in seen) == [False, True]
        assert all(errors == expected for _, errors in seen)

    def test_a_group_that_fails_on_the_helper_raises_here(self, helped, monkeypatch):
        monkeypatch.setattr(ag, "ATTENTION_THREAD_MIN_SCORES", 0)
        rng = np.random.default_rng(33)
        q = leaf(rng, 6, 4)
        groups = self.sequences([1, 1], 3)
        mask = np.array([True, True, True, False, False, False])  # the helper's keys
        groups = [ag.AttentionGroup(g.q, g.k, mask[g.k]) for g in groups]
        with pytest.raises(ValueError, match="all entries masked"):
            ag.attention(q, q, q, groups, n_heads=2)
        (_, future), = helped
        assert future.done() and isinstance(future.exception(), ValueError)

    def test_when_both_threads_fail_the_callers_error_is_raised(self, helped, monkeypatch):
        monkeypatch.setattr(ag, "ATTENTION_THREAD_MIN_SCORES", 0)

        def fail(scores, mask):
            raise RuntimeError(threading.current_thread().name)

        monkeypatch.setattr(ag, "_softmax_forward", fail)
        q = leaf(np.random.default_rng(34), 6, 4)
        with pytest.raises(RuntimeError) as raised:
            ag.attention(q, q, q, self.sequences([1, 1], 3), n_heads=2)
        assert str(raised.value) == threading.current_thread().name
        (_, future), = helped
        assert future.done() and str(future.exception()).startswith("peprank-helper")

    def test_no_graph_no_helper(self, helped, monkeypatch):
        monkeypatch.setattr(ag, "ATTENTION_THREAD_MIN_SCORES", 0)
        rng = np.random.default_rng(35)
        groups = self.sequences([2, 2], 3)
        with ag.no_grad():
            ag.attention(leaf(rng, 12, 4), leaf(rng, 12, 4), leaf(rng, 12, 4), groups, 2)
        x = Tensor(rng.normal(size=(12, 4)))  # no input needs a gradient
        ag.attention(x, x, x, groups, n_heads=2)
        assert helped == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_starts_its_own_helper(self, helped, monkeypatch):
        monkeypatch.setattr(ag, "ATTENTION_THREAD_MIN_SCORES", 0)
        q = leaf(np.random.default_rng(37), 12, 4)
        groups = self.sequences([1, 1], 6)
        self.run(q, q, q, groups)  # the parent's helper thread is running
        pid = os.fork()
        if pid == 0:  # the child exits without returning into pytest
            code = 1
            try:
                code = 0 if self.run(q, q, q, groups)[0].shape == (12, 4) else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if status[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert status[0] == pid and os.waitstatus_to_exitcode(status[1]) == 0
        assert len(helped) == 2  # the parent's forward and backward; the child's are its own

    def test_one_usable_cpu_no_helper(self, helped, monkeypatch):
        monkeypatch.setattr(ag, "ATTENTION_THREAD_MIN_SCORES", 0)
        monkeypatch.setattr(threads.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        q = leaf(np.random.default_rng(36), 12, 4)
        self.run(q, q, q, self.sequences([2, 2], 3))
        assert threads.helper() is None and helped == []


class TestDeterminism:
    def test_forward_bit_identical(self):
        def run():
            store = ParameterStore(seed=42)
            w = store.create("w", (6, 6))
            x = Tensor(np.linspace(-1, 1, 18).reshape(3, 6))
            return ag.tensor_sum(ag.gelu(ag.matmul(x, w))).item()

        assert run() == run()


class TestParameterStore:
    def test_duplicate_name_rejected(self):
        store = ParameterStore()
        store.create("a", (2,))
        with pytest.raises(ValueError, match="duplicate"):
            store.create("a", (2,))

    def test_seeded_init_reproducible(self):
        a = ParameterStore(seed=7).create("w", (4, 4))
        b = ParameterStore(seed=7).create("w", (4, 4))
        np.testing.assert_array_equal(a.data, b.data)

    def test_clip_grad_norm(self):
        store = ParameterStore(seed=0)
        p = store.create("p", (4,))
        p.grad = np.full(4, 1.5)  # norm 3.0
        raw = store.clip_grad_norm(1.5)
        assert raw == pytest.approx(3.0)
        assert store.grad_norm() == pytest.approx(1.5)

    def test_clip_noop_below_threshold(self):
        store = ParameterStore(seed=0)
        p = store.create("p", (4,))
        p.grad = np.full(4, 0.1)
        store.clip_grad_norm(1.5)
        np.testing.assert_allclose(p.grad, 0.1)

    def test_load_arrays_shape_mismatch(self):
        store = ParameterStore(seed=0)
        store.create("w", (2, 2))
        with pytest.raises(ValueError, match="'w'"):
            store.load_arrays({"w": np.zeros((3, 3))})

    def test_load_arrays_name_mismatch(self):
        store = ParameterStore(seed=0)
        store.create("w", (2, 2))
        with pytest.raises(ValueError, match="mismatch"):
            store.load_arrays({"other": np.zeros((2, 2))})


class TestErf:
    """gelu's error function, a numpy port of Cephes, against scipy's, bit for bit."""

    @staticmethod
    def assert_same_bits(x):
        erf = pytest.importorskip("scipy.special").erf
        expected = erf(x)
        got = ag._erf(x.copy())  # _erf overwrites its argument
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.array_equal(got, expected, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_dense_grid(self):
        self.assert_same_bits(np.linspace(-9.0, 9.0, 1_000_001))

    def test_uniform_samples(self):
        self.assert_same_bits(np.random.default_rng(0).uniform(-40.0, 40.0, 1_000_000))

    def test_edges(self):
        edges = [0.0, 1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 8.0,
                 np.nextafter(8.0, 0.0), 26.64, 26.65, 1e300, np.inf, 5e-324]
        self.assert_same_bits(np.array(edges + [-e for e in edges] + [np.nan]))

    def test_gelu_inputs_of_a_desk_minibatch(self, table, monkeypatch):
        from peprank import pipeline
        from peprank.model import ModelConfig, RerankModel

        inputs, port = [], ag._erf
        monkeypatch.setattr(ag, "_erf", lambda x: (inputs.append(x.copy()), port(x))[1])
        spectra, cands = pipeline.synthesize_dataset(table, seed=1, n_spectra=24)
        instances, _ = pipeline.build_training_set(spectra, cands, table)
        model = RerankModel(ModelConfig.desk(table.tokens), table, seed=1)
        pipeline.minibatch_loss(model, instances[:16])
        monkeypatch.undo()
        assert len(inputs) == 2 * model.config.n_layers  # encoder and mixer feed-forwards
        for x in inputs:
            self.assert_same_bits(x)


def test_importing_peprank_loads_no_scipy():
    code = ("import sys\n"
            "import peprank, peprank.cli, peprank.pipeline, peprank.model\n"
            "import peprank.spectra, peprank.evaluation\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    src = str(Path(peprank.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, cwd=src)
    assert result.stdout.strip() == "[]"
