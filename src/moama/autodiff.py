"""Tape-based reverse-mode differentiation over dense float64 arrays.

Small on purpose: just the operations the encoder, decoders, and losses need.
Every op validates that its output is finite and raises NumericsError
otherwise.

``_op(forward, *partials)`` declares each op whose gradients are plain
functions of its output gradient once. The op lifts Python numbers to constant
tensors and runs ``forward(*values)``; its backward gives each input that
requires a gradient, in order, ``partials[i](g, out, *values)`` summed to its
shape by ``_unbroadcast`` (``g`` itself when the shapes match) and stored by
``_accum``. It builds ``add``, ``sub``, ``mul``, ``div``, ``matmul``,
``sqrt``, ``exp``, ``log`` and ``relu`` at import, and ``power``, ``tsum``,
``segment_sum``, ``segment_max`` and ``slice_cols`` per call, closed over
their exponent, axes, segments or columns. Four ops are written by hand:
``take_rows``, and the fused ``gin_layer``, ``sce_term`` and
``alignment_term`` (below).

A gradient reaches a tensor through one of two sinks. ``_accum`` stores a
whole gradient, or adds it to the one stored. ``_scatter_grad`` scatter-adds
rows into the tensor's gradient in index order, from +0.0 when it has none:
``take_rows``' backward, and the gathered rows of ``gin_layer`` and
``alignment_term``. Adding a finished scatter through ``_accum`` would give
other bits for a tensor gathered twice per tape (the bond embedding, by the
encoder and by the gnn decoder).

Scatter-adds (``segment_sum``'s forward and ``_scatter_grad``) go through
``_scatter_add``, which is ``np.add.at`` on flat views: each cell takes its
addends one at a time in a fixed order, so repeated runs are bit-identical.

``segment_sum`` adds each segment's rows one at a time from +0.0 in a
canonical order, so its result depends only on the multiset of addends. Only
segments with three or more addends need sorting by contents: IEEE addition
is commutative, -0.0 included, so (0 + a) + b == (0 + b) + a bit for bit.

A fused op is one tape node in place of a chain of composed ops, with a
hand-written backward that keeps the chain's bits. ``gin_layer`` is one GIN
layer, or one MLP (no edges and eps 0: ``x * 1.0`` keeps x's bits), so every
layer and every MLP of ``gin`` is one node; ``sce_term`` is one head's
scaled cosine error and ``alignment_term`` the fingerprint-alignment loss,
which share one mean of a power of a cosine gap (``_gap_mean``). The
contract of each:

- the forward evaluates the chain's numpy expressions in their order;
  ``gin_layer``'s neighbour sum is ``_segment_sum_values``, as
  ``segment_sum``'s is;
- the backward replays the chain's accumulations in the order the tape ran
  them. In ``gin_layer``, ``h`` takes ``g * (1 + eps)`` (scattered into
  ``rows`` when given) before the ``edge_src`` scatter, the bond rows take
  theirs through ``_accum`` and a learned ``eps`` the full sum. In the
  losses, a row's gradient takes the dot product's partial, then its norm's
  twice, before it is stored (``sce_term``) or scattered, and
  ``alignment_term`` scatters its first rows before its second;
- the composed ops stored each intermediate gradient through ``_accum``,
  whose ``+ 0.0`` turns a -0.0 into +0.0. The fused backward skips those
  additions. A zero's sign changes only the signs of zero results
  downstream, and each gradient that leaves the op goes through ``_accum``,
  or through ``_scatter_grad`` into a gradient that ``_accum`` stored or that
  starts at +0.0, which clears it;
- its parents are ordered so that ``backward``'s DFS reaches tensors shared
  with other consumers in the composed tape's order: ``gin_layer`` lists the
  bond rows (read by every layer) before ``h`` (read by the readout and each
  decoder); each loss has one parent: ``sce_term`` the rows it scores (a
  head's logits at masked nodes), ``alignment_term`` the graph vectors its
  chain gathered from;
- it checks for finiteness every intermediate whose overflow need not reach
  its output, so ``NumericsError`` fires exactly where the chain's tensors
  raised it: ``gin_layer`` its messages, z and pre-activation, each loss its
  cosine's denominator. The output is checked as every tensor is.

Tensors built from parents with ``requires_grad=False`` record no tape, which
makes pure inference (e.g. influence analysis) allocation-light.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericsError

_NORM_FLOOR = 1e-24   # smooths the cosine at an all-zero row
_COS_EPS = 1e-12


def _check_finite(v: np.ndarray) -> None:
    if not np.isfinite(v).all():
        raise NumericsError("non-finite tensor values")


class Tensor:
    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backprop")

    def __init__(self, values, requires_grad=False, _parents=(), _backprop=None):
        v = np.asarray(values, dtype=np.float64)
        _check_finite(v)
        self.values = v
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self._parents = _parents if self.requires_grad else ()
        self._backprop = _backprop if self.requires_grad else None

    @property
    def shape(self):
        return self.values.shape

    def item(self) -> float:
        return float(self.values)

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable input."""
        if self.values.size != 1:
            raise ValueError("backward() requires a scalar")
        if not self.requires_grad:
            raise ValueError("backward() on a graph with no differentiable inputs")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.values)
        for node in reversed(order):
            if node._backprop is not None and node.grad is not None:
                node._backprop(node.grad)

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return power(self, p)


def const(values) -> Tensor:
    return Tensor(values)


def parameter(values) -> Tensor:
    return Tensor(values, requires_grad=True)


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # g + 0.0 is zeros + g bit for bit (IEEE addition commutes), without
        # the zero buffer; ``out`` keeps a 0-d gradient an array
        t.grad = np.add(g, 0.0, out=np.empty(t.values.shape))
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _op(forward, *partials):
    """The tape op that computes ``forward`` of its inputs' values and gives
    input i the gradient ``partials[i](g, out, *values)`` (module docstring)."""

    def op(*args):
        xs = tuple(_lift(x) for x in args)
        vals = tuple(x.values for x in xs)
        out = forward(*vals)

        def back(g):
            for x, partial in zip(xs, partials):
                if x.requires_grad:
                    _accum(x, _unbroadcast(partial(g, out, *vals), x.values.shape))

        return Tensor(out, _parents=xs, _backprop=back)

    return op


add = _op(lambda a, b: a + b, lambda g, out, a, b: g, lambda g, out, a, b: g)
sub = _op(lambda a, b: a - b, lambda g, out, a, b: g, lambda g, out, a, b: -g)
mul = _op(lambda a, b: a * b, lambda g, out, a, b: g * b, lambda g, out, a, b: g * a)
# no tape reads div; the benchmark's tracer names it (tests/test_perfbench_names.py)
div = _op(lambda a, b: a / b, lambda g, out, a, b: g / b,
          lambda g, out, a, b: -g * a / (b * b))
matmul = _op(lambda a, b: a @ b, lambda g, out, a, b: g @ b.T, lambda g, out, a, b: a.T @ g)
sqrt = _op(np.sqrt, lambda g, out, a: g * 0.5 / out)
exp = _op(np.exp, lambda g, out, a: g * out)
log = _op(np.log, lambda g, out, a: g / a)
relu = _op(lambda a: a * (a > 0.0), lambda g, out, a: g * (a > 0.0))


def power(a, p) -> Tensor:
    p = float(p)
    return _op(lambda a: np.power(a, p), lambda g, out, a: g * p * np.power(a, p - 1.0))(a)


def tsum(a, axis=None, keepdims=False) -> Tensor:
    def spread(g, out, a):   # g back over the summed axes
        return np.broadcast_to(g if axis is None or keepdims else np.expand_dims(g, axis),
                               a.shape)

    return _op(lambda a: a.sum(axis=axis, keepdims=keepdims), spread)(a)


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = _lift(a)
    count = a.values.size if axis is None else a.values.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def _scatter_add(dst, idx, src) -> None:
    """``np.add.at(dst, idx, src)``: dst[idx[i]] += src[i] for i in order.

    It runs on flat views, one index per cell, which takes numpy's fast 1-D
    path. Each cell still takes its addends one at a time in the order of
    ``idx``, so the bits are the row-wise call's, into any starting ``dst``.
    """
    if not dst.flags.c_contiguous:      # no flat view to add into
        return np.add.at(dst, idx, src)
    width = math.prod(dst.shape[1:])
    cells = (idx[:, None] * width + np.arange(width)).reshape(-1)
    np.add.at(dst.reshape(-1), cells, src.reshape(-1))


def _scatter_grad(t: Tensor, idx, g: np.ndarray) -> None:
    """Scatter-add ``g``'s rows into ``t``'s gradient at rows ``idx``, in
    index order (``_scatter_add``), from +0.0 when ``t`` has none yet."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros(t.values.shape)
    _scatter_add(t.grad, idx, g)


def take_rows(a, idx) -> Tensor:
    """Gather rows by integer index; the gradient scatters back
    (``_scatter_grad``)."""
    a = _lift(a)
    idx = np.asarray(idx, dtype=np.int64)
    return Tensor(a.values[idx], _parents=(a,), _backprop=lambda g: _scatter_grad(a, idx, g))


def _canonical_order(seg: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Row order sorted by (segment, row contents lexicographically).

    Accumulating in this order makes per-segment sums independent of how the
    caller labeled the rows: the addend multiset fixes the result bit-for-bit
    (ties hold equal values, which add identically in either order).
    ``segment_sum`` applies it only to segments of three or more rows; with
    two addends or fewer every order gives the same bits.

    One stable sort of one byte string per row: the segment, then each value
    as an unsigned 64-bit integer in the same order as the floats (sign bit
    set: all bits flipped; else the sign bit set), all big-endian, so bytewise
    order is (segment, values) order. ``+ 0.0`` first turns -0.0 into 0.0,
    which it equals. The permutation is ``np.lexsort``'s over the same keys.
    """
    n = values.shape[0]
    bits = (values.reshape(n, -1) + 0.0).view(np.int64)
    flip = bits >> 63                 # all bits where the sign bit is set
    flip |= np.int64(-1 << 63)        # and the sign bit everywhere
    keys = np.empty((n, bits.shape[1] + 1), dtype=">u8")
    keys[:, 0] = seg
    keys[:, 1:] = (bits ^ flip).view(np.uint64)
    return np.argsort(keys.view(f"S{keys.shape[1] * 8}").ravel(), kind="stable")


def _segment_sum_values(vals: np.ndarray, seg: np.ndarray, n_segments: int) -> np.ndarray:
    """out[s] = sum of rows i with seg[i] == s, in canonical row order.

    Each segment accumulates from +0.0, one addend at a time
    (``_scatter_add``). Rows of 2-D (and wider) inputs follow
    ``_canonical_order`` within segments of three or more rows; 1-D inputs
    keep their given order. Segments of at most two rows skip the content
    sort, which cannot change their sum (see the module docstring).
    """
    out_vals = np.zeros((n_segments,) + vals.shape[1:], dtype=np.float64)
    order = np.arange(seg.size)
    if vals.ndim >= 2:
        big = np.bincount(seg, minlength=n_segments)[seg] >= 3
        if big.any():
            rows = order[big]
            order[big] = rows[_canonical_order(seg[rows], vals[rows])]
    _scatter_add(out_vals, seg[order], vals[order])
    return out_vals


def segment_sum(a, segments, n_segments: int) -> Tensor:
    """Per-segment sums of ``a``'s rows (``_segment_sum_values``)."""
    seg = np.asarray(segments, dtype=np.int64)
    return _op(lambda a: _segment_sum_values(a, seg, n_segments), lambda g, out, a: g[seg])(a)


def gin_layer(h, bond_embed, edge_src, edge_dst, rows, eps, w1, b1, w2, b2,
              relu_out: bool) -> Tensor:
    """One GIN layer as one tape node:
    ``w2 . relu(w1 . ((1 + eps) h + sum_{src -> dst} (h[src] + bond)) + b1) + b2``,
    rectified once more when ``relu_out``, at the destination nodes ``rows``
    (distinct node ids; None for every row of ``h``), one output row each.

    ``edge_src`` and ``edge_dst`` list the edges into those nodes: each one's
    source node and its destination's position in ``rows``. ``bond_embed``
    holds one row per edge (None when there are none) and ``eps`` is a float
    or a 0-d tensor. The forward evaluates the numpy expressions of the
    composed ops (take_rows, add, segment_sum, mul, add, matmul, add, relu,
    matmul, add, relu, with ``rows`` a take_rows of ``h`` of its own) in their
    order, so every value keeps its bits, and checks the messages, z, the
    pre-activation and the output for finiteness: a non-finite value in any
    composed tensor reaches one of them.
    The backward replays the composed ops' accumulations (see the module
    docstring). With no input that requires a gradient, each intermediate is
    dropped as soon as the next step has used it.
    """
    h, w1, b1, w2, b2 = (_lift(t) for t in (h, w1, b1, w2, b2))
    learned = isinstance(eps, Tensor)
    scale = eps.values + 1.0 if learned else 1.0 + eps
    # bond before h on the stack's top: ``backward``'s DFS reaches the shared
    # bond rows first, as it did through the composed ops
    parents = ((h,) + ((bond_embed,) if edge_src.size else ()) + ((eps,) if learned else ())
               + (w1, b1, w2, b2))
    tape = any(p.requires_grad for p in parents)

    hv = h.values
    base = hv if rows is None else hv[rows]
    if edge_src.size:
        messages = hv[edge_src]
        messages += bond_embed.values
        _check_finite(messages)
        agg = _segment_sum_values(messages, edge_dst, len(base))
        del messages   # before z: the per-edge rows are the largest array
    z = base * scale
    if edge_src.size:
        z += agg
        del agg
    _check_finite(z)
    hidden = z @ w1.values
    if not tape:
        z = None
    hidden += b1.values
    _check_finite(hidden)
    hidden *= hidden > 0.0
    out = hidden @ w2.values
    out += b2.values
    if relu_out:
        _check_finite(out)
        out *= out > 0.0
    if not tape:
        return Tensor(out)

    def back(g):
        if relu_out:
            g = g * (out > 0.0)
        _accum(b2, _unbroadcast(g, b2.values.shape))
        _accum(w2, hidden.T @ g)
        g_hidden = g @ w2.values.T
        g_hidden *= hidden > 0.0
        _accum(b1, _unbroadcast(g_hidden, b1.values.shape))
        _accum(w1, z.T @ g_hidden)
        g_z = g_hidden @ w1.values.T
        # before the edge_src scatter below
        if rows is None:
            _accum(h, g_z * scale)
        else:
            _scatter_grad(h, rows, g_z * scale)
        if learned:
            _accum(eps, _unbroadcast(g_z * base, ()))
        if edge_src.size:
            g_msg = g_z[edge_dst]
            _accum(bond_embed, g_msg)
            _scatter_grad(h, edge_src, g_msg)

    return Tensor(out, _parents=parents, _backprop=back)


def _gap_mean(a: np.ndarray, b: np.ndarray, unit_b: bool, target, p: float):
    """``mean((target - cos)^p)`` over the rows, with ``cos`` the row-wise
    ``sum(a*b) / (|a| |b| + 1e-12)`` and ``|x| = sqrt(sum(x*x) + 1e-24)``, and
    ``back(g)``: for the mean's gradient ``g``, the gradient of ``a`` and,
    unless ``unit_b``, of ``b``.

    ``unit_b`` says that ``b`` is a constant whose rows all have norm exactly
    1.0 (one-hot rows: sqrt(1 + 1e-24) == 1.0), so |b| is not computed and
    ``|a| * 1.0`` keeps |a|'s bits. Each expression is the composed ops' (mul,
    tsum, add, sqrt, div, sub, power, tmean), in their order; at ``p = 1``
    ``x ** 1.0`` is ``x`` and ``x ** 0.0`` is 1, so no power changes a bit. A
    side's gradient takes the dot's partial, then its norm's twice (once per
    input of ``x * x``), in the order the tape added them.
    """
    dot = (a * b).sum(axis=1)
    na = np.sqrt((a * a).sum(axis=1) + _NORM_FLOOR)
    nb = 1.0 if unit_b else np.sqrt((b * b).sum(axis=1) + _NORM_FLOOR)
    den = na * nb + _COS_EPS
    # den overflows when a row's sum of squares or the norms' product does,
    # which the cosine need not show (x / inf == 0); every other overflow of
    # the composed ops reaches the loss
    _check_finite(den)
    gap = target - dot / den
    terms = np.power(gap, p)
    scale = 1.0 / terms.size

    def back(g):
        g_cos = -(np.broadcast_to(g * scale, terms.shape) * p * np.power(gap, p - 1.0))
        g_dot = (g_cos / den)[:, None]
        g_den = -g_cos * dot / (den * den)
        grads = []
        sides = [(a, b, na, nb)] if unit_b else [(a, b, na, nb), (b, a, nb, na)]
        for x, other, nx, n_other in sides:
            gx = g_dot * other
            part = (g_den * n_other * 0.5 / nx)[:, None] * x
            gx += part
            gx += part
            grads.append(gx)
        return grads

    return terms.sum() * scale, back


def sce_term(rows, target: np.ndarray, gamma: float) -> Tensor:
    """GraphMAE's scaled cosine error as one tape node: the mean over the
    ``rows`` of ``(1 - cos(row, target row))^gamma`` (``_gap_mean``). Each
    row of ``target`` is a one-hot row, so its norm is exactly 1.0."""
    rows = _lift(rows)
    value, back = _gap_mean(rows.values, target, True, 1.0, float(gamma))
    return Tensor(value, _parents=(rows,), _backprop=lambda g: _accum(rows, *back(g)))


def alignment_term(h, ii, jj, sims, squared: bool) -> Tensor:
    """The mean over row pairs ``(ii, jj)`` of ``sims - cos(h[ii], h[jj])``,
    squared when ``squared``, as one tape node (``_gap_mean``).

    It keeps the bits of the two ``take_rows`` and the composed loss. The
    backward scatters the ``ii`` rows' gradient into ``h`` before the ``jj``
    rows', as the tape did.
    """
    h = _lift(h)
    value, back = _gap_mean(h.values[ii], h.values[jj], False, sims, 2.0 if squared else 1.0)

    def scatter(g):
        g_a, g_b = back(g)
        _scatter_grad(h, ii, g_a)
        _scatter_grad(h, jj, g_b)

    return Tensor(value, _parents=(h,), _backprop=scatter)


def segment_max(a, segments, n_segments: int) -> Tensor:
    """Per-segment max; gradient flows to the first (lowest row id) maximum."""
    seg = np.asarray(segments, dtype=np.int64)
    if np.any(np.bincount(seg, minlength=n_segments) == 0):
        raise ValueError("segment_max over an empty segment")

    def forward(a):
        out = np.full((n_segments,) + a.shape[1:], -np.inf)
        np.maximum.at(out, seg, a)
        return out

    def to_first_max(g, out, a):
        # per segment and column, the lowest row id that attains the max
        n = a.shape[0]
        rows = np.arange(n).reshape((n,) + (1,) * (a.ndim - 1))
        first = np.full(out.shape, n)
        np.minimum.at(first, seg, np.where(a == out[seg], rows, n))
        # a product, not np.where: g * False is -0.0 where g is negative
        return g[seg] * (rows == first[seg])

    return _op(forward, to_first_max)(a)


def slice_cols(a, start: int, stop: int) -> Tensor:
    def widen(g, out, a):   # g in the sliced columns, zero elsewhere
        ga = np.zeros_like(a)
        ga[:, start:stop] = g
        return ga

    return _op(lambda a: a[:, start:stop], widen)(a)


def log_softmax(a) -> Tensor:
    """Row-wise log-softmax via the shift-invariant log-sum-exp composition."""
    a = _lift(a)
    shift = const(a.values.max(axis=1, keepdims=True))
    z = sub(a, shift)
    lse = log(tsum(exp(z), axis=1, keepdims=True))
    return sub(z, lse)
