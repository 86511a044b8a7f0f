"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough machinery for the reranking model: dense ops, multi-head
attention as one op, batched matmul, masked softmax, gather, layer
normalization, dropout, and a masked RMSE loss. Values are float64, so that
finite-difference gradient checks have clean tolerances.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import threads

_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))

# Cephes' erf/erfc coefficients (S. L. Moshier, "Methods and Programs for
# Mathematical Functions", 1989), highest power first. A leading 1.0 marks
# Cephes' p1evl, whose leading coefficient is implied.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)


class Tensor:
    """An n-dimensional float array with a gradient slot and graph link."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return int(self.data.size)

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        backward(self)

    def release(self) -> None:
        """Drop a graph node's values, which must have no reader left: it keeps
        only its shape (as zeros), all that e.g. ``add`` and ``take`` backward
        read. Leaves and tensors outside a graph are left alone."""
        if self._backward is not None:
            self.data = np.broadcast_to(0.0, self.shape)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(other, mul(self, -1.0))

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _accumulate(t: Tensor, grad: np.ndarray, fresh: bool = False) -> None:
    """Add ``grad`` into ``t.grad``.

    ``fresh`` says the caller allocated ``grad`` for ``t`` alone, so a
    first contribution is stored as it is. Any other first contribution
    is copied: it may be (a view of) a buffer that another tensor also
    receives, and a later in-place update must not reach both.
    """
    if not t.requires_grad:
        return
    if t.grad is not None:
        t.grad += grad
    elif fresh and grad.shape == t.shape:
        t.grad = grad
    else:
        t.grad = np.array(np.broadcast_to(grad, t.shape))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


_grad_enabled = True


class no_grad:
    """Context in which ops record no graph: no output requires a gradient.

    The previous mode is restored on exit, also when the body raises.
    """

    def __enter__(self) -> "no_grad":
        global _grad_enabled
        self._previous, _grad_enabled = _grad_enabled, False
        return self

    def __exit__(self, *exc) -> None:
        global _grad_enabled
        _grad_enabled = self._previous


def _make(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    out = Tensor(data, requires_grad=_grad_enabled and any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def backward_fn(g):
        # g is this node's own buffer, read by nothing after this call
        _accumulate(a, _unbroadcast(g, a.shape), fresh=True)
        _accumulate(b, _unbroadcast(g, b.shape))

    return _make(data, (a, b), backward_fn)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape), fresh=True)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape), fresh=True)

    return _make(data, (a, b), backward_fn)


def matmul(a, b) -> Tensor:
    """Matrix product with numpy's broadcasting over leading axes."""
    a, b = as_tensor(a), as_tensor(b)
    data = np.matmul(a.data, b.data)

    def backward_fn(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            _accumulate(a, _unbroadcast(ga, a.shape), fresh=True)
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            _accumulate(b, _unbroadcast(gb, b.shape), fresh=True)

    return _make(data, (a, b), backward_fn)


def transpose(a, axes: Sequence[int] | None = None) -> Tensor:
    a = as_tensor(a)
    data = np.transpose(a.data, axes)
    inverse = None if axes is None else np.argsort(axes)

    def backward_fn(g):
        _accumulate(a, np.transpose(g, inverse))

    return _make(data, (a,), backward_fn)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    data = a.data.reshape(shape)

    def backward_fn(g):
        _accumulate(a, g.reshape(a.shape))

    return _make(data, (a,), backward_fn)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def backward_fn(g):
        for t, piece in zip(tensors, np.split(g, offsets, axis=axis)):
            _accumulate(t, piece)

    return _make(data, tensors, backward_fn)


def split(a, sections, axis: int = 0) -> list[Tensor]:
    """Split along an axis (int = equal sections, list = boundaries)."""
    a = as_tensor(a)
    pieces = np.split(a.data, sections, axis=axis)
    outs: list[Tensor] = []
    offset = 0
    for piece in pieces:
        start, width = offset, piece.shape[axis]
        offset += width

        def backward_fn(g, start=start, width=width):
            ga = np.zeros_like(a.data)
            index = [slice(None)] * a.ndim
            index[axis] = slice(start, start + width)
            ga[tuple(index)] = g
            _accumulate(a, ga, fresh=True)

        outs.append(_make(piece.copy(), (a,), backward_fn))
    return outs


def take(a, indices, axis: int = 0) -> Tensor:
    """Gather slices along an axis; gradients scatter-add back."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    data = np.take(a.data, idx, axis=axis)

    def backward_fn(g):
        if not a.requires_grad:
            return
        # np.add.at's sums in its order, by one bincount over flat positions
        moved = np.moveaxis(g, axis, 0).reshape(idx.size, -1)
        width = moved.shape[1]
        flat = (idx.reshape(-1, 1) * width + np.arange(width)).ravel()
        ga = np.bincount(flat, weights=moved.ravel(), minlength=a.shape[axis] * width)
        shape = (a.shape[axis],) + np.moveaxis(a.data, axis, 0).shape[1:]
        _accumulate(a, np.moveaxis(ga.reshape(shape), 0, axis), fresh=True)

    return _make(data, (a,), backward_fn)


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.shape).copy(), fresh=True)

    return _make(data, (a,), backward_fn)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.size if axis is None else a.shape[axis]

    def backward_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.shape) / count, fresh=True)

    return _make(data, (a,), backward_fn)


# ---------------------------------------------------------------------------
# nonlinearities


def relu(a) -> Tensor:
    a = as_tensor(a)
    data = np.maximum(a.data, 0.0)

    def backward_fn(g):
        _accumulate(a, g * (a.data > 0), fresh=True)

    return _make(data, (a,), backward_fn)


def _polevl(x: np.ndarray, coef: Sequence[float], out: np.ndarray | None = None) -> np.ndarray:
    """Cephes' polevl (p1evl when ``coef[0]`` is 1.0): Horner's rule with
    one rounding after every multiply and every add, in Cephes' order."""
    if coef[0] == 1.0:
        ans = np.add(x, coef[1], out=out)
    else:
        ans = np.multiply(x, coef[0], out=out)
        ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _erf(x: np.ndarray) -> np.ndarray:
    """The error function, bit for bit as Cephes computes it (and so as
    ``scipy.special.erf`` does): x*T(x^2)/U(x^2) for |x| <= 1, otherwise
    sign(x) * (1 - exp(-x^2) * P(|x|)/Q(|x|)).

    ``x`` is overwritten: it is the scratch space, so that a call
    allocates only two arrays of its size; at rerank sizes a fresh array
    costs about as much as the arithmetic done on it.

    |x| is capped at 8, where Cephes switches to its R/S pair and, past
    x^2 > MAXLOG, to erfc = 0: there erfc(|x|) < 2^-54, so 1 - erfc is
    1.0 under every one of them. The cap also keeps +-inf and huge inputs
    from overflowing the polynomials. ``exp`` is taken of a complex
    argument because that calls the C library's exp, which Cephes uses;
    numpy's float64 exp may be a vectorized one that differs in the last
    bit.
    """
    capped = x.reshape(-1)
    np.maximum(capped, -8.0, out=capped)
    np.minimum(capped, 8.0, out=capped)
    z = capped * capped
    big = (z > 1.0).nonzero()[0]
    signed = capped[big]
    y = _polevl(z, _ERF_T)
    y *= capped
    y /= _polevl(z, _ERF_U, out=capped)
    if big.size:
        a = np.abs(signed)
        erfc = np.exp((-z[big]).astype(np.complex128)).real * _polevl(a, _ERFC_P)
        erfc /= _polevl(a, _ERFC_Q)
        np.subtract(1.0, erfc, out=erfc)
        y[big] = np.copysign(erfc, signed, out=erfc)
    return y.reshape(x.shape)


def gelu(a) -> Tensor:
    """Exact Gaussian error linear unit: x * Phi(x). A graph keeps its
    derivative Phi(x) + x * phi(x), not x, so x may be released."""
    a = as_tensor(a)
    cdf = _erf(a.data / _SQRT2)  # _erf may overwrite its fresh argument
    cdf += 1.0
    cdf *= 0.5
    out = _make(a.data * cdf, (a,), None)
    if out.requires_grad:
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * a.data * a.data)
        pdf *= a.data
        cdf += pdf
        out._backward = lambda g: _accumulate(a, g * cdf, fresh=True)
    return out


def exp(a) -> Tensor:
    a = as_tensor(a)
    data = np.exp(a.data)

    def backward_fn(g):
        _accumulate(a, g * data, fresh=True)

    return _make(data, (a,), backward_fn)


def log(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data <= 0):
        raise ValueError("log requires strictly positive inputs")
    data = np.log(a.data)

    def backward_fn(g):
        _accumulate(a, g / a.data, fresh=True)

    return _make(data, (a,), backward_fn)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data < 0):
        raise ValueError("sqrt requires non-negative inputs")
    data = np.sqrt(a.data)

    def backward_fn(g):
        _accumulate(a, g / (2.0 * data), fresh=True)

    return _make(data, (a,), backward_fn)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), taking exp of -|x| only, so that it never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    data = _stable_sigmoid(a.data)

    def backward_fn(g):
        _accumulate(a, g * data * (1.0 - data), fresh=True)

    return _make(data, (a,), backward_fn)


def softplus(a) -> Tensor:
    """log(1 + exp(x)), computed stably."""
    a = as_tensor(a)
    x = a.data
    data = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    def backward_fn(g):
        _accumulate(a, g * _stable_sigmoid(x), fresh=True)

    return _make(data, (a,), backward_fn)


# ---------------------------------------------------------------------------
# structured ops


def linear(x, weight, bias) -> Tensor:
    """x @ weight + bias, with weight of shape [in, out].

    No backward reads the product x @ weight, so once the sum exists a
    graph keeps only its shape and dtype. Under ``no_grad`` the bias is
    added into the product's own buffer, which saves an array of the
    output's size per call.
    """
    product = matmul(x, weight)
    if not _grad_enabled:
        product.data += as_tensor(bias).data
        return product
    out = add(product, bias)
    product.release()
    return out


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    # Each mean is a sum over the last axis divided by its length, which
    # is what ndarray.mean computes, bit for bit, with less overhead.
    d = x.shape[-1]
    mu = x.data.sum(axis=-1, keepdims=True) / d
    xhat = x.data - mu
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat *= inv
    data = xhat * gain.data
    data += bias.data

    def backward_fn(g):
        dxhat = g * gain.data
        dx = inv * (
            dxhat
            - dxhat.sum(axis=-1, keepdims=True) / d
            - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) / d)
        )
        _accumulate(x, dx, fresh=True)
        _accumulate(gain, _unbroadcast(g * xhat, gain.shape), fresh=True)
        _accumulate(bias, _unbroadcast(g, bias.shape))

    return _make(data, (x, gain, bias), backward_fn)


def _softmax_forward(scores: np.ndarray, mask) -> np.ndarray:
    """Masked softmax over the last axis, computed in place in ``scores``.

    ``mask`` is boolean (True = valid) and broadcastable to the scores, or
    None when every entry is valid. Masked scores are forced to -inf before
    the max-shift, so their values can never influence the valid entries.
    A row with no valid entry is an error.
    """
    if mask is not None:
        valid = np.atleast_1d(np.asarray(mask, dtype=bool))
        if not valid.any(axis=-1).all():
            raise ValueError("softmax row with all entries masked")
        np.copyto(scores, -np.inf, where=~valid)
    # numpy reduces a short last axis slowly: [119, 8, 4, 4] column scores took
    # 159 us for the row max, 15 us over a key-major copy, which stopped paying
    # at 64 keys; and it sums fewer than 8 keys with in-order adds (64 us against
    # 12 us for this loop). Both branches keep the bits
    keys = scores.shape[-1]
    scores -= (np.moveaxis(scores, -1, 0).copy().max(axis=0)[..., None] if keys < 64
               else scores.max(axis=-1, keepdims=True))
    np.exp(scores, out=scores)
    if keys < 8:
        total = scores[..., 0].copy()
        for key in range(1, keys):
            total += scores[..., key]
    else:
        total = scores.sum(axis=-1)
    scores /= total[..., None]
    return scores


def _softmax_backward(g: np.ndarray, p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Gradient of the scores from the gradient ``g`` of the probabilities
    ``p``, written to ``out`` (``g`` or ``p``); ``g`` is overwritten."""
    g -= (g * p).sum(axis=-1, keepdims=True)
    return np.multiply(p, g, out=out)


def softmax_masked(logits, mask) -> Tensor:
    """Softmax over the last axis with masked-out entries at zero probability.

    ``mask`` is boolean (True = valid) and broadcastable to the logits; a
    row with no valid entry is an error.
    """
    logits = as_tensor(logits)
    p = _softmax_forward(logits.data.copy(), mask)

    def backward_fn(g):  # g is this node's own buffer
        _accumulate(logits, _softmax_backward(g, p, out=g), fresh=True)

    return _make(p, (logits,), backward_fn)


class AttentionGroup(NamedTuple):
    """Sequences of query rows ``q`` [count, n_q], each over its own key and
    value rows ``k`` [count, n_k]; ``key_mask`` [count, n_k] marks the valid
    keys (None: all)."""

    q: np.ndarray
    k: np.ndarray
    key_mask: np.ndarray | None = None


# scores per group (count x n_q x n_k, the unit of RerankModel.attn_counts) from
# which an attention that records a graph may hand the group to the helper
# thread. perfbench wide step p50 on 2 vCPUs, one BLAS thread, seeds 20-22: 485,
# 438 and 436 ms dealing nothing; 316-336 at 2,048; 330-342 at 8,192; 369-398 at
# 32,768; 420-445 at 65,536. A desk step's largest group has 6,552 scores; at
# 2,048, dealing 96 of 104 desk calls, desk-train steps read 106.2 and 110.9 ->
# 112.5 and 111.6 ms
ATTENTION_THREAD_MIN_SCORES = 8192


def _deal(scores: Sequence[int]) -> list[int]:
    """Indexes, in order, of the groups with these score counts that the
    helper runs: those of at least ``ATTENTION_THREAD_MIN_SCORES``, dealt
    largest first to the side with fewer scores so far. The calling thread
    keeps every smaller group and wins ties."""
    large = sorted((i for i, s in enumerate(scores) if s >= ATTENTION_THREAD_MIN_SCORES),
                   key=lambda i: -scores[i])
    ours, theirs, load = sum(scores) - sum(scores[i] for i in large), [], 0
    for i in large:
        if load < ours:
            theirs.append(i)
            load += scores[i]
        else:
            ours += scores[i]
    return sorted(theirs)


def attention(q, k, v, groups: Sequence[AttentionGroup], n_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over indexed sequences, as one
    graph node.

    ``q`` [n, d] and ``k``, ``v`` [m, d] hold many sequences' rows in any
    order; ``groups`` must index every row of each exactly once, and each
    group is one batched product over the rows it gathers, so no query sees
    another sequence's keys. The last axis is split into ``n_heads`` heads
    of d / n_heads; each head's scores are scaled by 1 / sqrt(d / n_heads),
    masked-softmaxed over the keys and used to weight the values, and the
    heads are merged back into [n, d] at the query rows. Beside its inputs
    the node keeps only the probabilities for the backward, which gathers
    the rows again.

    A group writes only its own rows, so when the node records a graph and
    the process may use two CPUs, the groups of at least
    ``ATTENTION_THREAD_MIN_SCORES`` scores are dealt between this thread
    and the helper (see :func:`_deal` and :func:`peprank.threads.run`),
    forward and backward, with the bits of one thread.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    n, d = q.shape
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)
    n_rows = n + k.shape[0]
    indexed = [rows for g in groups for rows in (g.q.ravel(), g.k.ravel() + n)]
    counts = np.bincount(np.concatenate(indexed), minlength=n_rows)
    if counts.size != n_rows or (counts != 1).any():
        raise ValueError("attention groups must index every query and key row exactly once")
    scores = [g.q.size * g.k.shape[1] for g in groups]
    recording = _grad_enabled and (q.requires_grad or k.requires_grad or v.requires_grad)
    dealing = (recording and max(scores, default=0) >= ATTENTION_THREAD_MIN_SCORES
               and threads.helper() is not None)
    if (dealing and len(groups) == 1 and groups[0].q.shape[0] > 1
            and scores[0] >= 2 * ATTENTION_THREAD_MIN_SCORES):
        # a lone group is cut along its sequences into two of its shape: the
        # products and the softmax work per sequence, so each keeps its bits.
        # Only when each half is large: wide's column attention, 272 sequences
        # of 10, took 21.0 -> 12.3 ms forward and backward, but 136 of 10 only
        # 9.5 -> 9.1 ms
        half = (groups[0].q.shape[0] + 1) // 2
        groups = [AttentionGroup(*(None if a is None else a[s] for a in groups[0]))
                  for s in (slice(None, half), slice(half, None))]
        scores = [g.q.size * g.k.shape[1] for g in groups]
    theirs = _deal(scores) if dealing else []

    def heads(x, rows):
        count, length = rows.shape
        return x.take(rows, axis=0).reshape(count, length, n_heads, dh).transpose(0, 2, 1, 3)

    def merge(x, out, rows):
        out[rows.ravel()] = x.transpose(0, 2, 1, 3).reshape(rows.size, d)

    data = np.empty_like(q.data)

    def forward_group(grp):
        kh, vh = heads(k.data, grp.k), heads(v.data, grp.k)
        p = np.matmul(heads(q.data, grp.q), kh.transpose(0, 1, 3, 2))
        p *= scale
        _softmax_forward(p, None if grp.key_mask is None else grp.key_mask[:, None, None, :])
        merge(np.matmul(p, vh), data, grp.q)
        return grp, p

    saved = threads.run(forward_group, groups, theirs)

    def backward_fn(g):
        gq, gk, gv = (np.empty_like(t.data) if t.requires_grad else None for t in (q, k, v))

        def backward_group(saved_group):
            grp, p = saved_group
            gh = heads(g, grp.q)
            if gv is not None:
                merge(np.matmul(np.swapaxes(p, -1, -2), gh), gv, grp.k)
            # p is read for the last time: the score gradient takes its buffer
            gs = _softmax_backward(np.matmul(gh, np.swapaxes(heads(v.data, grp.k), -1, -2)), p, p)
            gs *= scale
            if gq is not None:
                merge(np.matmul(gs, heads(k.data, grp.k)), gq, grp.q)
            if gk is not None:
                # (q.T @ gs).T is the GEMM that matmul's backward runs for k.T,
                # so the key gradient is bit-identical to the composed ops'
                qh = heads(q.data, grp.q)
                merge(np.swapaxes(np.matmul(np.swapaxes(qh, -1, -2), gs), -1, -2), gk, grp.k)

        threads.run(backward_group, saved, theirs)
        for t, grad in ((q, gq), (k, gk), (v, gv)):
            if grad is not None:
                _accumulate(t, grad, fresh=True)

    return _make(data, (q, k, v), backward_fn)


def dropout(x, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout with its mask drawn from ``rng``; the identity when
    ``rng`` is None or the rate is zero, so the generator alone switches it on."""
    x = as_tensor(x)
    if rng is None or rate == 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = (rng.random(x.shape) >= rate) / (1.0 - rate)
    data = x.data * keep

    def backward_fn(g):
        _accumulate(x, g * keep, fresh=True)

    return _make(data, (x,), backward_fn)


def rmse(pred, target, mask=None, segments=None) -> Tensor:
    """Root mean squared error over the unmasked elements.

    With ``segments`` (non-negative integers broadcastable to the shape of
    ``pred``), one RMSE per segment id 0..S-1, each over that segment's
    unmasked elements. A zero RMSE passes no gradient.
    """
    pred, target = as_tensor(pred), as_tensor(target)
    diff = pred.data - target.data
    if mask is None:
        valid = np.ones_like(diff, dtype=bool)
    else:
        valid = np.broadcast_to(np.asarray(mask, dtype=bool), diff.shape)
    squares = diff * diff * valid
    if segments is None:
        count, total = valid.sum(), squares.sum()
    else:
        ids = np.broadcast_to(np.asarray(segments, dtype=np.intp), diff.shape).ravel()
        count = np.bincount(ids, weights=valid.ravel())
        total = np.bincount(ids, weights=squares.ravel())
    if np.any(count == 0):
        raise ValueError("rmse with zero unmasked elements")
    value = np.sqrt(total / count)

    def backward_fn(g):
        denom = count * value
        scale = g / np.where(denom == 0, np.inf, denom)
        if segments is not None:
            scale = scale[ids].reshape(diff.shape)
        gp = scale * valid * diff
        _accumulate(pred, gp, fresh=True)
        _accumulate(target, -gp, fresh=True)

    return _make(np.asarray(value), (pred, target), backward_fn)


# ---------------------------------------------------------------------------
# graph traversal


def backward(loss: Tensor) -> None:
    """Populate gradients of every leaf reachable from a scalar loss.

    The graph is consumed as it is walked: once a node has passed its
    gradient on, its gradient, closure and parent links are released, so
    interior buffers are freed during the walk and only leaf gradients
    remain.
    """
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node._backward is None:
            continue
        if node.grad is not None:
            node._backward(node.grad)
        node.grad, node._backward, node._parents = None, None, ()


# ---------------------------------------------------------------------------
# trainable parameters


class ParameterStore:
    """Named trainable tensors, initialized in creation order from one seeded generator."""

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)
        self._params: dict[str, Tensor] = {}

    def create(self, name: str, shape: tuple[int, ...], init: str = "normal", scale: float = 0.02) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        if init == "normal":
            data = self._rng.normal(0.0, scale, size=shape)
        elif init == "zeros":
            data = np.zeros(shape)
        elif init == "ones":
            data = np.ones(shape)
        elif init == "xavier":
            fan_in, fan_out = shape[-2], shape[-1]
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            data = self._rng.uniform(-limit, limit, size=shape)
        else:
            raise ValueError(f"unknown initializer {init!r}")
        tensor = Tensor(data, requires_grad=True)
        self._params[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __len__(self) -> int:
        return len(self._params)

    def items(self) -> Iterable[tuple[str, Tensor]]:
        return self._params.items()

    def tensors(self) -> list[Tensor]:
        return list(self._params.values())

    def zero_grad(self) -> None:
        for tensor in self._params.values():
            tensor.grad = np.zeros_like(tensor.data)

    def grad_norm(self) -> float:
        total = 0.0
        for tensor in self._params.values():
            if tensor.grad is not None:
                total += float((tensor.grad * tensor.grad).sum())
        return float(np.sqrt(total))

    def clip_grad_norm(self, max_norm: float) -> float:
        """Scale all gradients so the global L2 norm is at most max_norm."""
        norm = self.grad_norm()
        if norm > max_norm and norm > 0:
            factor = max_norm / norm
            for tensor in self._params.values():
                if tensor.grad is not None:
                    tensor.grad *= factor
        return norm

    def export_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Overwrite parameter values in place; names and shapes must agree."""
        missing = set(self._params) - set(arrays)
        extra = set(arrays) - set(self._params)
        if missing or extra:
            raise ValueError(
                f"parameter name mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}"
            )
        for name, array in arrays.items():
            tensor = self._params[name]
            if tuple(array.shape) != tensor.shape:
                raise ValueError(
                    f"parameter {name!r}: stored shape {tuple(array.shape)} does not "
                    f"match expected {tensor.shape}"
                )
            tensor.data = np.array(array, dtype=np.float64)
