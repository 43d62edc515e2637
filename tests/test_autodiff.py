import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from moama import autodiff as ad
from moama.datagen import generate_corpus
from moama.errors import NumericsError
from moama.gin import EncoderConfig
from moama.smiles import parse
from moama.train import RunConfig, pretrain, save_checkpoint

from conftest import bits, fd_gradient


def _fd_check(build, arrays, rng, n_probes=6, rel=1e-5, atol=1e-8):
    """Analytic grads vs central differences on random coordinates."""
    params = [ad.parameter(a) for a in arrays]
    out = build(*params)
    out.backward()
    for p in params:
        flat_vals = p.values.reshape(-1)
        flat_grad = (p.grad if p.grad is not None else np.zeros_like(p.values)).reshape(-1)
        for _ in range(min(n_probes, flat_vals.size)):
            i = int(rng.integers(flat_vals.size))
            fd = fd_gradient(lambda: build(*params).item(), flat_vals, i)
            assert flat_grad[i] == pytest.approx(fd, rel=rel, abs=atol)


def test_grad_of_squared_norm_is_twice_param():
    w = ad.parameter(np.array([1.0, -2.0, 3.0]))
    loss = ad.tsum(w * w)
    loss.backward()
    assert np.allclose(w.grad, 2.0 * w.values)


def test_elementwise_ops_match_fd():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(4, 3)) + 3.0
    _fd_check(lambda x, y: ad.tsum(x * y + ad.div(x, y) - y), [a, b], rng)
    _fd_check(lambda x, y: ad.tmean((x - y) ** 2.0), [a, b], rng)
    _fd_check(lambda x, y: ad.tsum(ad.sqrt(ad.relu(x) + 1.0) * ad.exp(y * 0.1)), [a, b], rng)
    _fd_check(lambda x, y: ad.tsum(ad.log(ad.relu(x) + 1.5)), [a, b], rng)


def test_broadcasting_bias_grad():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 3))
    bias = rng.normal(size=(3,))
    _fd_check(lambda a, b: ad.tsum((a + b) ** 2.0), [x, bias], rng)


def test_matmul_matches_fd():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(4, 3))
    w = rng.normal(size=(3, 2))
    _fd_check(lambda x, y: ad.tsum(ad.relu(x @ y)), [a, w], rng)


def test_take_rows_accumulates_repeated_indices():
    w = ad.parameter(np.arange(6.0).reshape(3, 2))
    idx = np.array([0, 1, 0, 2, 0])
    out = ad.tsum(ad.take_rows(w, idx))
    out.backward()
    assert np.allclose(w.grad, [[3.0, 3.0], [1.0, 1.0], [1.0, 1.0]])


def test_segment_sum_values_and_grad():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 2))
    seg = np.array([0, 0, 1, 1, 1, 2])
    out = ad.segment_sum(ad.const(x), seg, 3)
    assert np.allclose(out.values[1], x[2:5].sum(axis=0))
    _fd_check(lambda a: ad.tsum(ad.segment_sum(a, seg, 3) ** 2.0), [x], rng)


def _canonical_order_reference(seg, values):
    """The former kernel: np.lexsort over the segment and every column."""
    flat = values.reshape(values.shape[0], -1)
    keys = [flat[:, i] for i in range(flat.shape[1] - 1, -1, -1)]
    keys.append(seg)
    return np.lexsort(keys)


def _accum_reference(t, g):
    """The former first gradient: a zero buffer, then += g."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.values)
    t.grad += g


def _segment_sum_reference(values, seg, n_segments):
    """Full-width canonical sort, then one sequential scatter-add."""
    out = np.zeros((n_segments,) + values.shape[1:])
    if values.ndim >= 2 and values.shape[0] > 1:
        order = _canonical_order_reference(seg, values)
        np.add.at(out, seg[order], values[order])
    else:
        np.add.at(out, seg, values)
    return out


# few distinct magnitudes so ties, duplicate rows and cancellation are common
_ADDENDS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, -0.3, 2.5, 1e-17, -1e16, 1e16])


@st.composite
def _segment_cases(draw):
    n_segments = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(0, 6), min_size=n_segments, max_size=n_segments))
    seg = np.array([s for s, k in enumerate(sizes) for _ in range(k)], dtype=np.int64)
    seg = seg[np.array(draw(st.permutations(range(len(seg)))), dtype=np.int64)]
    width = draw(st.sampled_from([None, 1, 2, 3]))
    shape = (len(seg),) if width is None else (len(seg), width)
    n_cells = int(np.prod(shape))
    cells = draw(st.lists(_ADDENDS, min_size=n_cells, max_size=n_cells))
    values = np.array(cells, dtype=np.float64).reshape(shape)
    if len(seg) > 1 and draw(st.booleans()):
        values[-1] = values[0]          # an exact duplicate row
    return values, seg, n_segments


@settings(max_examples=400, deadline=None)
@given(_segment_cases())
def test_segment_sum_bitwise_matches_reference(case):
    values, seg, n_segments = case
    got = ad.segment_sum(ad.const(values), seg, n_segments).values
    want = _segment_sum_reference(values, seg, n_segments)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# extremes of the float order too: subnormals and the largest finite values
_KEY_VALUES = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.5, 1e-17, -1e16, 1e16,
                        5e-324, -5e-324, 1.7e308, -1.7e308])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40), width=st.integers(1, 33),
       n_segments=st.integers(1, 4), relu=st.booleans(), duplicates=st.booleans())
def test_canonical_order_matches_lexsort(seed, n, width, n_segments, relu, duplicates):
    rng = np.random.default_rng(seed)
    seg = rng.integers(0, n_segments, n)
    values = rng.choice(_KEY_VALUES, size=(n, width))
    if relu:
        # first-column ties between unequal rows, as GIN messages have
        # where the rectifier zeroed column 0 of both sources
        values[:, 0] = rng.choice([0.0, -0.0], size=n)
    if duplicates and n > 1:
        values[rng.integers(0, n, n // 2)] = values[rng.integers(0, n)]
    want = _canonical_order_reference(seg, values)
    got = ad._canonical_order(seg, values)
    assert np.array_equal(got, want)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_rows=st.integers(1, 40), n_idx=st.integers(0, 300),
       width=st.sampled_from([None, 1, 3, 32]), high=st.booleans(),
       start=st.sampled_from(["none", "filled", "fortran"]))
def test_take_rows_grad_bitwise_matches_add_at(seed, n_rows, n_idx, width, high, start):
    rng = np.random.default_rng(seed)
    # high multiplicity: at most 3 rows take up to 300 indices (atom types);
    # otherwise the indices spread over every row (edge sources)
    idx = rng.integers(0, min(n_rows, 3) if high else n_rows, n_idx)
    shape = (n_rows,) if width is None else (n_rows, width)
    x = ad.parameter(rng.choice(_KEY_VALUES[:10], size=shape))
    out = ad.take_rows(x, idx)
    g = rng.choice(_KEY_VALUES[:10], size=out.values.shape)
    want = np.zeros(shape)
    if start != "none":
        want = rng.choice(_KEY_VALUES[:10], size=shape)
        x.grad = np.asfortranarray(want) if start == "fortran" else want.copy()
    np.add.at(want, idx, g)
    out._backprop(g)
    assert bits(x.grad) == bits(want)


def test_first_gradient_is_zeros_plus_g_and_stays_an_array():
    g = np.array([[-0.0, 0.0, 1.5], [-2.0, -0.0, 3.0]])
    got, want = ad.parameter(np.ones((2, 3))), ad.parameter(np.ones((2, 3)))
    ad._accum(got, g)
    _accum_reference(want, g)
    assert bits(got.grad) == bits(want.grad)     # -0.0 + 0.0 is +0.0
    eps = ad.parameter(np.array(0.25))          # a learned epsilon's 0-d gradient
    ad._accum(eps, np.array(-0.0))
    assert isinstance(eps.grad, np.ndarray) and eps.grad.shape == ()
    ad._accum(eps, np.array(1.5))
    assert eps.grad == 1.5 and isinstance(eps.grad, np.ndarray)


@pytest.mark.parametrize("learn_epsilon", [False, True])
def test_pretrain_checkpoint_bytes_match_reference_kernels(tmp_path, monkeypatch, learn_epsilon):
    """Whole training runs: the shipped kernels against the former ones."""
    graphs = [parse(s) for s in generate_corpus(40, seed=3)]
    cfg = RunConfig(epochs=2, batch_pretrain=16, seed=1,
                    encoder=EncoderConfig(learn_epsilon=learn_epsilon))

    def run(name):
        result = pretrain(graphs, cfg)
        path = tmp_path / name
        save_checkpoint(path, result.store, {}, {"seed": 1}, cfg.epochs)
        return path.read_bytes(), [(s.loss, s.rec, s.aux) for s in result.curve]

    shipped = run("shipped.moam")
    monkeypatch.setattr(ad, "_canonical_order", _canonical_order_reference)
    monkeypatch.setattr(ad, "_scatter_add", np.add.at)
    monkeypatch.setattr(ad, "_accum", _accum_reference)
    reference = run("reference.moam")
    assert shipped == reference


def test_segment_max_first_winner():
    x = ad.parameter(np.array([[1.0], [5.0], [5.0], [2.0]]))
    out = ad.segment_max(x, np.array([0, 0, 0, 1]), 2)
    assert np.allclose(out.values[:, 0], [5.0, 2.0])
    ad.tsum(out).backward()
    assert np.allclose(x.grad[:, 0], [0.0, 1.0, 0.0, 1.0])  # tie -> lowest row


def _segment_max_grad_reference(values, seg, out_vals, g):
    """Row-by-row scan: each row takes g where it is the first max seen."""
    ga = np.zeros_like(values)
    taken = np.zeros_like(out_vals, dtype=bool)
    for i in range(values.shape[0]):
        s = seg[i]
        hit = (values[i] == out_vals[s]) & ~taken[s]
        ga[i] = g[s] * hit
        taken[s] |= hit
    return ga


@settings(max_examples=300, deadline=None)
@given(case=_segment_cases(), data=st.data())
def test_segment_max_grad_bitwise_matches_reference(case, data):
    values, seg, _ = case
    assume(len(seg) > 0)
    _, seg = np.unique(seg, return_inverse=True)   # segment_max rejects empty segments
    n_segments = int(seg.max()) + 1
    # integer-valued, so ties within a segment and column are common
    values = np.trunc(values).clip(-3.0, 3.0)
    x = ad.parameter(values)
    out = ad.segment_max(x, seg, n_segments)
    # negative entries make the reference write -0.0 on rows that lose
    g_cells = data.draw(st.lists(st.sampled_from([1.0, -1.0, 0.5, -2.0, 0.0, -0.0]),
                                 min_size=out.values.size, max_size=out.values.size))
    g = np.array(g_cells, dtype=np.float64).reshape(out.values.shape)
    # -0.0 is the exact additive identity, so the accumulated grad is ga bit for bit
    x.grad = np.full_like(values, -0.0)
    out._backprop(g)
    want = _segment_max_grad_reference(values, seg, out.values, g)
    assert np.array_equal(x.grad.view(np.uint64), want.view(np.uint64))


def test_slice_cols_grad():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 5))
    _fd_check(lambda a: ad.tsum(ad.slice_cols(a, 1, 3) ** 2.0), [x], rng)


def test_log_softmax_rows_normalize():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 6)) * 3
    out = ad.log_softmax(ad.const(x))
    assert np.allclose(np.exp(out.values).sum(axis=1), 1.0)
    weights = ad.const(rng.normal(size=(4, 6)))
    _fd_check(lambda a: ad.tmean(ad.tsum(ad.log_softmax(a) * weights, axis=1)), [x], rng)


def test_mean_axis_variants():
    x = np.arange(12.0).reshape(3, 4)
    assert ad.tmean(ad.const(x)).item() == pytest.approx(x.mean())
    assert np.allclose(ad.tmean(ad.const(x), axis=1).values, x.mean(axis=1))
    assert np.allclose(ad.tsum(ad.const(x), axis=0).values, x.sum(axis=0))


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        ad.parameter(np.ones(3)).backward()
    with pytest.raises(ValueError):
        ad.tsum(ad.const(np.ones(3))).backward()  # nothing differentiable


def test_nonfinite_trips_error():
    with pytest.raises(NumericsError):
        ad.const(np.array([1.0, np.inf]))
    with np.errstate(divide="ignore"):
        with pytest.raises(NumericsError):
            ad.log(ad.const(np.array([0.0])))  # -inf output


def test_identical_graphs_identical_grads():
    rng = np.random.default_rng(6)
    vals = rng.normal(size=(5, 5))

    def run():
        w = ad.parameter(vals.copy())
        loss = ad.tsum(ad.relu(w @ w) ** 2.0)
        loss.backward()
        return w.grad.copy()

    assert np.array_equal(run(), run())


def test_reused_node_accumulates_once_per_use():
    w = ad.parameter(np.array(2.0))
    y = w * w + w * 3.0   # dy/dw = 2w + 3 = 7
    y.backward()
    assert w.grad == pytest.approx(7.0)


# --- the hand-written tape ops that ``_op`` replaced, kept as bitwise oracles

def _ref_add(a, b):
    a, b = ad._lift(a), ad._lift(b)

    def back(g):
        ad._accum(a, ad._unbroadcast(g, a.values.shape))
        ad._accum(b, ad._unbroadcast(g, b.values.shape))

    return ad.Tensor(a.values + b.values, _parents=(a, b), _backprop=back)


def _ref_sub(a, b):
    a, b = ad._lift(a), ad._lift(b)

    def back(g):
        ad._accum(a, ad._unbroadcast(g, a.values.shape))
        ad._accum(b, ad._unbroadcast(-g, b.values.shape))

    return ad.Tensor(a.values - b.values, _parents=(a, b), _backprop=back)


def _ref_mul(a, b):
    a, b = ad._lift(a), ad._lift(b)

    def back(g):
        ad._accum(a, ad._unbroadcast(g * b.values, a.values.shape))
        ad._accum(b, ad._unbroadcast(g * a.values, b.values.shape))

    return ad.Tensor(a.values * b.values, _parents=(a, b), _backprop=back)


def _ref_div(a, b):
    a, b = ad._lift(a), ad._lift(b)

    def back(g):
        ad._accum(a, ad._unbroadcast(g / b.values, a.values.shape))
        ad._accum(b, ad._unbroadcast(-g * a.values / (b.values * b.values), b.values.shape))

    return ad.Tensor(a.values / b.values, _parents=(a, b), _backprop=back)


def _ref_matmul(a, b):
    a, b = ad._lift(a), ad._lift(b)

    def back(g):
        ad._accum(a, g @ b.values.T)
        ad._accum(b, a.values.T @ g)

    return ad.Tensor(a.values @ b.values, _parents=(a, b), _backprop=back)


def _ref_sqrt(a):
    a = ad._lift(a)
    out_vals = np.sqrt(a.values)

    def back(g):
        ad._accum(a, g * 0.5 / out_vals)

    return ad.Tensor(out_vals, _parents=(a,), _backprop=back)


def _ref_exp(a):
    a = ad._lift(a)
    out_vals = np.exp(a.values)

    def back(g):
        ad._accum(a, g * out_vals)

    return ad.Tensor(out_vals, _parents=(a,), _backprop=back)


def _ref_log(a):
    a = ad._lift(a)

    def back(g):
        ad._accum(a, g / a.values)

    return ad.Tensor(np.log(a.values), _parents=(a,), _backprop=back)


def _ref_relu(a):
    a = ad._lift(a)
    mask = a.values > 0.0

    def back(g):
        ad._accum(a, g * mask)

    return ad.Tensor(a.values * mask, _parents=(a,), _backprop=back)


_REFERENCE_OPS = {"add": _ref_add, "sub": _ref_sub, "mul": _ref_mul, "div": _ref_div,
                  "matmul": _ref_matmul, "sqrt": _ref_sqrt, "exp": _ref_exp,
                  "log": _ref_log, "relu": _ref_relu}
_SCALES = (1e-8, 1e-3, 1.0, 1e3)


def _signed_values(rng, shape, scale):
    """Normal values at ``scale`` with +0.0 and -0.0 entries and a zero row."""
    v = rng.normal(size=shape) * scale
    flat = v.reshape(-1)
    flat[rng.random(flat.size) < 0.2] = 0.0
    flat[rng.random(flat.size) < 0.2] = -0.0
    if v.ndim == 2 and v.shape[0] > 1:
        v[int(rng.integers(v.shape[0]))] = -0.0 if rng.random() < 0.5 else 0.0
    return v


def _positive_values(rng, shape, scale):
    return (np.abs(rng.normal(size=shape)) + 0.1) * scale


def _tape_bits(op, values, grad_flags, g, same_tensor=False):
    """(output bits, each input's gradient bits) of ``op`` on fresh inputs."""
    xs = [v if isinstance(v, float) else ad.Tensor(np.array(v), requires_grad=r)
          for v, r in zip(values, grad_flags)]
    if same_tensor:
        xs[1] = xs[0]
    out = op(*xs)
    if out.requires_grad:
        out._backprop(g.copy())
    grads = [None if isinstance(x, float) or x.grad is None else bits(x.grad) for x in xs]
    return bits(out), out.requires_grad, len(out._parents), grads


def _assert_same_as_reference(name, values, grad_flags, rng, same_tensor=False):
    g = _signed_values(rng, _REFERENCE_OPS[name](*values).shape, 1.0)
    want = _tape_bits(_REFERENCE_OPS[name], values, grad_flags, g, same_tensor)
    got = _tape_bits(getattr(ad, name), values, grad_flags, g, same_tensor)
    assert got == want


_OPERAND_SHAPES = [((4, 3), (4, 3)), ((4, 3), ()), ((), (4, 3)), ((4, 3), (1, 3)),
                   ((1, 3), (4, 3)), ((4, 3), (4, 1)), ((4, 1), (4, 3)), ((4, 3), (3,)),
                   ((3,), (4, 3)), ((), ())]
_GRAD_FLAGS = [(True, True), (True, False), (False, True)]


@pytest.mark.parametrize("name", ["add", "sub", "mul", "div"])
def test_binary_ops_bitwise_match_hand_written_ops(name):
    rng = np.random.default_rng(11)
    for shape_a, shape_b in _OPERAND_SHAPES:
        for scale in _SCALES:
            for flags in _GRAD_FLAGS:
                a = _signed_values(rng, shape_a, scale)
                b = (_positive_values if name == "div" else _signed_values)(rng, shape_b, scale)
                _assert_same_as_reference(name, [a, b], flags, rng)


def test_matmul_bitwise_matches_hand_written_op():
    rng = np.random.default_rng(12)
    for n, k, m in [(4, 3, 2), (1, 5, 1), (6, 1, 3)]:
        for scale in _SCALES:
            for flags in _GRAD_FLAGS:
                a, b = _signed_values(rng, (n, k), scale), _signed_values(rng, (k, m), 1.0)
                _assert_same_as_reference("matmul", [a, b], flags, rng)


@pytest.mark.parametrize("name", ["sqrt", "exp", "log", "relu"])
def test_unary_ops_bitwise_match_hand_written_ops(name):
    rng = np.random.default_rng(13)
    values = _positive_values if name in ("sqrt", "log") else _signed_values
    for shape in [(4, 3), (3,), ()]:
        for scale in _SCALES:
            if name == "exp" and scale > 1.0:
                scale = 10.0                    # e^1000 overflows
            _assert_same_as_reference(name, [values(rng, shape, scale)], (True,), rng)


@pytest.mark.parametrize("name", ["add", "sub", "mul", "div", "matmul"])
def test_a_tensor_as_both_inputs_bitwise_matches_hand_written_ops(name):
    rng = np.random.default_rng(14)
    for scale in _SCALES:
        x = (_positive_values if name == "div" else _signed_values)(rng, (3, 3), scale)
        _assert_same_as_reference(name, [x, x], (True, True), rng, same_tensor=True)


@pytest.mark.parametrize("expr,name,args", [
    (lambda t: ad.sub(1.0, t), "sub", lambda t: (1.0, t)),
    (lambda t: t * 0.5, "mul", lambda t: (t, 0.5)),
    (lambda t: 0.5 * t, "mul", lambda t: (t, 0.5)),
    (lambda t: ad.div(2.0, t), "div", lambda t: (2.0, t)),
    (lambda t: ad.div(t, 4.0), "div", lambda t: (t, 4.0)),
    (lambda t: t + 1e-12, "add", lambda t: (t, 1e-12)),
    (lambda t: -t, "mul", lambda t: (t, -1.0)),
], ids=["float_minus_tensor", "mul", "rmul", "float_over_tensor", "tensor_over_float", "add",
        "neg"])
def test_python_float_operands_bitwise_match_hand_written_ops(expr, name, args):
    rng = np.random.default_rng(15)
    for scale in _SCALES:
        v = _positive_values(rng, (4, 3), scale)
        v[0, 0] = -0.0 if name != "div" else v[0, 0]
        g = _signed_values(rng, (4, 3), 1.0)
        t_got, t_want = ad.parameter(v.copy()), ad.parameter(v.copy())
        got, want = expr(t_got), _REFERENCE_OPS[name](*args(t_want))
        got._backprop(g.copy())
        want._backprop(g.copy())
        assert bits(got) == bits(want) and bits(t_got.grad) == bits(t_want.grad)
        assert len(got._parents) == len(want._parents) == 2


def _ref_power(a, p):
    a = ad._lift(a)
    p = float(p)

    def back(g):
        ad._accum(a, g * p * np.power(a.values, p - 1.0))

    return ad.Tensor(np.power(a.values, p), _parents=(a,), _backprop=back)


def _ref_tsum(a, axis=None, keepdims=False):
    a = ad._lift(a)

    def back(g):
        if axis is None:
            ad._accum(a, np.broadcast_to(g, a.values.shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            ad._accum(a, np.broadcast_to(gg, a.values.shape).copy())

    return ad.Tensor(a.values.sum(axis=axis, keepdims=keepdims), _parents=(a,), _backprop=back)


def _ref_segment_sum(a, segments, n_segments):
    a = ad._lift(a)
    seg = np.asarray(segments, dtype=np.int64)

    def back(g):
        ad._accum(a, g[seg])

    return ad.Tensor(ad._segment_sum_values(a.values, seg, n_segments), _parents=(a,),
                     _backprop=back)


def _ref_segment_max(a, segments, n_segments):
    a = ad._lift(a)
    seg = np.asarray(segments, dtype=np.int64)
    counts = np.bincount(seg, minlength=n_segments)
    if np.any(counts == 0):
        raise ValueError("segment_max over an empty segment")
    out_vals = np.full((n_segments,) + a.values.shape[1:], -np.inf)
    np.maximum.at(out_vals, seg, a.values)

    def back(g):
        if not a.requires_grad:
            return
        n = a.values.shape[0]
        rows = np.arange(n).reshape((n,) + (1,) * (a.values.ndim - 1))
        first = np.full(out_vals.shape, n)
        np.minimum.at(first, seg, np.where(a.values == out_vals[seg], rows, n))
        ad._accum(a, g[seg] * (rows == first[seg]))

    return ad.Tensor(out_vals, _parents=(a,), _backprop=back)


def _ref_slice_cols(a, start, stop):
    a = ad._lift(a)

    def back(g):
        if not a.requires_grad:
            return
        ga = np.zeros_like(a.values)
        ga[:, start:stop] = g
        ad._accum(a, ga)

    return ad.Tensor(a.values[:, start:stop], _parents=(a,), _backprop=back)


_REFERENCE_PARAM_OPS = {"power": _ref_power, "tsum": _ref_tsum, "segment_sum": _ref_segment_sum,
                        "segment_max": _ref_segment_max, "slice_cols": _ref_slice_cols}


def _param_op_bits(op, values, args, g, requires_grad=True, uses=1, prior=None):
    """Output bits and tape of ``op(x, *args)`` applied ``uses`` times to one
    fresh input x, each output's gradient ``g`` replayed in order onto x's
    gradient, which starts as ``prior`` when one is given."""
    x = ad.Tensor(np.array(values), requires_grad=requires_grad)
    if prior is not None:
        x.grad = prior.copy()
    outs = [op(x, *args) for _ in range(uses)]
    for out in outs:
        if out.requires_grad:
            out._backprop(g.copy())
    return ([(bits(o), o.requires_grad, len(o._parents)) for o in outs],
            None if x.grad is None else bits(x.grad))


def _assert_param_op_same_as_reference(name, values, args, rng, g=None):
    shape = _REFERENCE_PARAM_OPS[name](values, *args).shape
    g = _signed_values(rng, shape, 1.0) if g is None else g
    prior = _signed_values(rng, np.shape(values), 1.0)
    for requires_grad, uses, start in ((True, 1, None), (True, 2, None), (True, 2, prior),
                                       (False, 1, None)):
        want = _param_op_bits(_REFERENCE_PARAM_OPS[name], values, args, g, requires_grad,
                              uses, start)
        got = _param_op_bits(getattr(ad, name), values, args, g, requires_grad, uses, start)
        assert got == want, (name, args, requires_grad, uses, start is not None)


def test_power_bitwise_matches_hand_written_op():
    rng = np.random.default_rng(16)
    for shape in [(4, 3), (3,), ()]:
        for scale in _SCALES:
            for p in (2, 2.0, 3.0, 1.0):
                _assert_param_op_same_as_reference("power", _signed_values(rng, shape, scale),
                                                   (p,), rng)
            for p in (0.5, -1.0, -2.5):
                _assert_param_op_same_as_reference("power", _positive_values(rng, shape, scale),
                                                   (p,), rng)


def test_tsum_bitwise_matches_hand_written_op_in_every_axis_form():
    rng = np.random.default_rng(17)
    for shape in [(4, 3), (3,), (), (2, 3, 4)]:
        ndim = len(shape)
        axes = [None, *range(ndim), *range(-ndim, 0)] + ([(0, 1), (0, -1)] if ndim > 1 else [])
        for axis in axes:
            for keepdims in (False, True):
                for scale in _SCALES:
                    _assert_param_op_same_as_reference(
                        "tsum", _signed_values(rng, shape, scale), (axis, keepdims), rng)


def test_segment_sum_bitwise_matches_hand_written_op():
    rng = np.random.default_rng(18)
    for n, width, n_segments in [(7, 3, 3), (9, None, 4), (1, 2, 1), (6, 4, 8), (0, 3, 2)]:
        shape = (n,) if width is None else (n, width)
        for scale in _SCALES:
            seg = rng.integers(0, n_segments, size=n)
            _assert_param_op_same_as_reference(
                "segment_sum", _signed_values(rng, shape, scale), (seg, n_segments), rng)


def test_segment_max_bitwise_matches_hand_written_op_with_ties_and_negative_grads():
    rng = np.random.default_rng(19)
    for n, width, n_segments in [(7, 3, 3), (9, None, 4), (1, 2, 1), (12, 4, 2)]:
        shape = (n,) if width is None else (n, width)
        for _ in range(8):
            seg = np.concatenate([np.arange(n_segments), rng.integers(0, n_segments,
                                                                      size=n - n_segments)])
            values = np.trunc(rng.normal(size=shape) * 2.0).clip(-2.0, 2.0)  # many ties
            g = -np.abs(_signed_values(rng, (n_segments,) + shape[1:], 1.0))
            _assert_param_op_same_as_reference("segment_max", values, (seg, n_segments), rng, g)
            _assert_param_op_same_as_reference("segment_max", values, (seg, n_segments), rng)
    x = ad.parameter(np.array([[1.0], [5.0], [5.0], [2.0]]))
    x.grad = np.full((4, 1), -0.0)   # the additive identity that keeps a -0.0 addend's sign
    ad.segment_max(x, np.array([0, 0, 0, 1]), 2)._backprop(np.array([[-3.0], [-1.0]]))
    assert bits(x.grad) == bits(np.array([[-0.0], [-3.0], [-0.0], [-1.0]]))   # a tie: lowest row
    with pytest.raises(ValueError, match="empty segment"):
        ad.segment_max(x, np.array([0, 0, 2, 2]), 3)


def test_slice_cols_bitwise_matches_hand_written_op():
    rng = np.random.default_rng(20)
    for start, stop in [(0, 5), (1, 3), (4, 5), (2, 2)]:
        for scale in _SCALES:
            _assert_param_op_same_as_reference(
                "slice_cols", _signed_values(rng, (4, 5), scale), (start, stop), rng)
