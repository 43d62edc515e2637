import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moama import autodiff as ad
from moama import gin, parse
from moama.cli import main as cli_main
from moama.errors import NumericsError
from moama.fingerprint import fingerprint_bits
from moama.datagen import generate_corpus, write_corpus_csv
from moama.gin import (
    ATTRIBUTES,
    TARGETS,
    EncoderConfig,
    ParamStore,
    TensorGraph,
    decode_attrs,
    encode,
    init_params,
    param_shapes,
    predict_label,
    readout,
)
from moama.loss import LossConfig, aux_loss, rec_loss, total_loss
from moama.masking import MaskConfig, MaskPlan, build_plan, motif_table, motif_tables, plan_rng
from moama.molgraph import BOND_ORDER_INDEX, AtomAttr, MolGraph
from moama.motif import decompositions, default_rules

from conftest import (bits, decode_attrs_full_oracle, encode_oracle, heads_oracle,
                      odd_molecules, random_molgraph, rec_loss_full_oracle, relabel,
                      shortest_path_lengths, single)


def _zeroed(store: ParamStore) -> ParamStore:
    return ParamStore({n: ad.parameter(np.zeros_like(t.values)) for n, t in store.params.items()})


def test_zero_params_zero_representations():
    cfg = EncoderConfig(layers=2, embed_dim=8)
    store = _zeroed(init_params(cfg, seed=0))
    h = encode(single(parse("CCOC(=O)c1ccccc1")), store, cfg)
    assert np.array_equal(h.values, np.zeros_like(h.values))


def test_isolated_node_single_layer_formula():
    cfg = EncoderConfig(layers=1, embed_dim=6)
    store = init_params(cfg, seed=1)
    g = parse("C")
    h = encode(single(g), store, cfg).values
    p = {n: t.values for n, t in store.params.items()}
    x0 = p["embed.atom"][g.X[0, 0]] + p["embed.chirality"][g.X[0, 1]]
    z = np.maximum(x0 * (1.0 + cfg.epsilon) @ p["enc.0.w1"] + p["enc.0.b1"], 0.0)
    expected = z @ p["enc.0.w2"] + p["enc.0.b2"]
    assert np.array_equal(h[0], expected)


def test_encoder_matches_plain_numpy_oracle():
    rng = np.random.default_rng(2)
    cfg = EncoderConfig(layers=3, embed_dim=8)
    store = init_params(cfg, seed=2)
    for _ in range(10):
        g = random_molgraph(rng)
        got = encode(single(g), store, cfg).values
        assert np.array_equal(got, encode_oracle(g, store, cfg))


def test_permutation_equivariance_bitwise():
    rng = np.random.default_rng(3)
    cfg = EncoderConfig(layers=2, embed_dim=8)
    store = init_params(cfg, seed=3)
    for _ in range(5):
        g = random_molgraph(rng)
        perm = list(rng.permutation(g.n_atoms))
        h = encode(single(g), store, cfg).values
        hp = encode(single(relabel(g, perm)), store, cfg).values
        for old, new in enumerate(perm):
            assert np.array_equal(h[old], hp[new])


def test_readout_permutation_invariant_bitwise():
    rng = np.random.default_rng(4)
    cfg = EncoderConfig(layers=2, embed_dim=8, readout="sum")
    store = init_params(cfg, seed=4)
    g = random_molgraph(rng, n_min=5)
    perm = list(rng.permutation(g.n_atoms))
    tg, tgp = single(g), single(relabel(g, perm))
    for mode in ("mean", "sum", "max"):
        a = readout(encode(tg, store, cfg), mode, tg.s.mol, 1).values
        b = readout(encode(tgp, store, cfg), mode, tgp.s.mol, 1).values
        if mode == "max":
            assert np.array_equal(a, b)
        else:
            assert np.allclose(a, b, rtol=1e-12, atol=1e-15)


def test_readout_trivial_cases():
    h = ad.const(np.array([[1.0, 2.0], [1.0, 2.0]]))
    ids = np.array([0, 0])
    mean = readout(h, "mean", ids, 1).values
    total = readout(h, "sum", ids, 1).values
    assert np.allclose(mean, [[1.0, 2.0]])
    assert np.allclose(total, 2 * mean)
    one = readout(ad.const(np.array([[3.0, 4.0]])), "mean", np.array([0]), 1)
    assert np.allclose(one.values, [[3.0, 4.0]])


def test_receptive_field_locality():
    cfg = EncoderConfig(layers=2, embed_dim=8)
    store = init_params(cfg, seed=5)
    g = parse("CCCCCCCC")  # 8-chain
    dist = shortest_path_lengths(g, 0)
    base = encode(single(g), store, cfg).values
    x = np.array(g.X)
    x[0, 0] = 16  # change node 0's element
    changed = encode(single(g, x), store, cfg).values
    for v, d in dist.items():
        if d > cfg.layers:
            assert np.array_equal(base[v], changed[v])
    assert not np.array_equal(base[1], changed[1])


def test_mlp_decoder_ignores_graph_structure():
    cfg = EncoderConfig(layers=2, embed_dim=8, decoder="mlp")
    store = init_params(cfg, seed=6)
    g1 = parse("CCCC")
    g2 = parse("CC(C)C")  # same atoms, different edges
    h = ad.const(np.random.default_rng(0).normal(size=(4, 8)))
    every = (np.arange(4), np.arange(4))
    l1 = decode_attrs(single(g1), h, store, cfg, masked=every)["atom_type"].values
    l2 = decode_attrs(single(g2), h, store, cfg, masked=every)["atom_type"].values
    assert np.array_equal(l1, l2)


def test_gnn_decoder_on_isolated_node_equals_self_term():
    cfg = EncoderConfig(layers=1, embed_dim=8, decoder="gnn")
    store = init_params(cfg, seed=7)
    g = parse("C")
    h = ad.const(np.random.default_rng(1).normal(size=(1, 8)))
    got = decode_attrs(single(g), h, store, cfg, masked=([0], [0]))["atom_type"].values
    p = {n: t.values for n, t in store.params.items()}
    z = np.maximum(h.values * (1 + cfg.epsilon) @ p["dec.atom.w1"] + p["dec.atom.b1"], 0.0)
    z = z @ p["dec.atom.w2"] + p["dec.atom.b2"]
    expected = z @ p["dec.atom.proj.w"] + p["dec.atom.proj.b"]
    assert np.array_equal(got, expected)


def test_logit_shapes_per_target():
    g = parse("CCO")
    tg = single(g)
    masked = ([2, 0], [1])   # one row per masked node, in this order
    for targets, keys in (
        ("atom_type", {"atom_type": 119}),
        ("chirality", {"chirality": 4}),
        ("both_one_decoder", {"atom_type": 119, "chirality": 4}),
        ("both_two_decoders", {"atom_type": 119, "chirality": 4}),
    ):
        cfg = EncoderConfig(layers=1, embed_dim=8)
        store = init_params(cfg, targets=targets, seed=8)
        h = encode(tg, store, cfg)
        logits = decode_attrs(tg, h, store, cfg, targets, masked)
        assert {k: v.values.shape[1] for k, v in logits.items()} == keys
        assert {k: v.values.shape[0] for k, v in logits.items()} == {
            k: len(masked[ATTRIBUTES[k][0]]) for k in keys}
        every = decode_attrs(tg, h, store, cfg, targets, ([0, 1, 2], [0, 1, 2]))
        for k, v in logits.items():
            rows = every[k].values[masked[ATTRIBUTES[k][0]]]
            np.testing.assert_allclose(v.values, rows, rtol=1e-12, atol=0)


def test_predict_label_zero_weights_gives_half_probability():
    cfg = EncoderConfig(layers=1, embed_dim=4)
    store = _zeroed(init_params(cfg, seed=9))
    hg = ad.const(np.ones((2, 4)))
    logits = predict_label(hg, store).values
    assert np.array_equal(logits, np.zeros((2, 1)))


def test_predict_label_final_layer_linearity_and_determinism():
    cfg = EncoderConfig(layers=1, embed_dim=4)
    store = init_params(cfg, seed=10)
    hg = ad.const(np.random.default_rng(2).normal(size=(3, 4)))
    base = predict_label(hg, store).values
    store.params["head.w2"].values = store.params["head.w2"].values * 2.0
    store.params["head.b2"].values = store.params["head.b2"].values * 2.0
    assert np.allclose(predict_label(hg, store).values, 2.0 * base)
    # identical graphs in a batch produce identical rows
    g = parse("CCO")
    tg = TensorGraph.from_graphs([g, g])
    h = encode(tg, store, cfg)
    hg2 = readout(h, "mean", tg.s.mol, len(tg.s.starts))
    out = predict_label(hg2, store).values
    assert np.array_equal(out[0], out[1])


def test_adam_two_identical_steps_identical_params():
    cfg = EncoderConfig(layers=1, embed_dim=4)

    def run():
        store = init_params(cfg, seed=11)
        g = parse("CCOC")
        for _ in range(3):
            h = encode(single(g), store, cfg)
            lossv = ad.tmean(h * h)
            store.zero_grad()
            lossv.backward()
            store.adam_step(lr=0.01)
        return store

    s1, s2 = run(), run()
    for n in s1.names():
        assert np.array_equal(s1.params[n].values, s2.params[n].values)


def test_adam_moment_shapes_match():
    store = init_params(EncoderConfig(layers=2, embed_dim=4), seed=12)
    for n, t in store.params.items():
        assert store.m[n].shape == t.values.shape
        assert store.v[n].shape == t.values.shape


def _trained_one_step(store: ParamStore, cfg: EncoderConfig) -> ParamStore:
    h = encode(single(parse("CCOC")), store, cfg)
    lossv = ad.tmean(h * h)
    store.zero_grad()
    lossv.backward()
    store.adam_step(lr=0.01)
    return store


def test_adam_step_leaves_a_constant_bit_for_bit_and_advances_t():
    cfg = EncoderConfig(layers=1, embed_dim=4)
    store = _trained_one_step(init_params(cfg, seed=14), cfg).frozen(["enc.0.w1"])
    rng = np.random.default_rng(3)
    store.m["enc.0.w1"] = rng.normal(size=store.m["enc.0.w1"].shape)
    store.v["enc.0.w1"] = rng.random(store.v["enc.0.w1"].shape)
    const = store["enc.0.w1"]
    before = {n: (store[n].values.copy(), store.m[n].copy(), store.v[n].copy())
              for n in store.names()}
    _trained_one_step(store, cfg)
    const.grad = np.ones_like(const.values)     # a stray gradient is ignored too
    store.adam_step(lr=0.01)
    assert store.t == 3
    assert store["enc.0.w1"] is const
    for got, want in zip((const.values, store.m["enc.0.w1"], store.v["enc.0.w1"]),
                         before["enc.0.w1"]):
        assert got.tobytes() == want.tobytes()
    # every parameter that is not a constant moved
    assert not np.array_equal(store["enc.0.w2"].values, before["enc.0.w2"][0])
    assert not np.array_equal(store.m["enc.0.w2"], before["enc.0.w2"][1])


def test_copy_keeps_constness_and_values():
    cfg = EncoderConfig(layers=1, embed_dim=4)
    store = init_params(cfg, seed=15).frozen(["embed.atom", "enc.0.b1"])
    dup = store.copy()
    for n in store.names():
        assert dup[n].requires_grad == store[n].requires_grad
        assert dup[n] is not store[n]
        assert dup[n].values.tobytes() == store[n].values.tobytes()
    assert not dup["embed.atom"].requires_grad and dup["enc.0.w1"].requires_grad


def test_frozen_leaves_its_source_and_returns_a_frozen_store_as_is():
    cfg = EncoderConfig(layers=1, embed_dim=4, learn_epsilon=True)
    store = _trained_one_step(init_params(cfg, seed=16), cfg)
    before = {n: (t, t.values.copy()) for n, t in store.params.items()}
    frozen = store.frozen()
    assert all(not frozen[n].requires_grad for n in frozen.names())
    for n, (t, values) in before.items():
        assert store[n] is t and t.requires_grad
        assert t.values.tobytes() == values.tobytes()
        assert frozen[n].values.tobytes() == values.tobytes()
        assert frozen.m[n].tobytes() == store.m[n].tobytes()
    assert frozen.t == store.t
    assert frozen.frozen() is frozen
    assert frozen.frozen(["enc.0.w1"]) is frozen
    part = store.frozen([n for n in store.names() if not n.startswith("head.")])
    assert part.frozen([n for n in part.names() if n.startswith("enc.")]) is part
    # a frozen encoder records no tape: the head alone receives gradients
    h = encode(single(parse("CCOC")), part, cfg)
    out = predict_label(readout(h, "mean", np.zeros(4, dtype=np.int64), 1), part)
    ad.tsum(out).backward()
    assert {n for n in part.names() if part[n].grad is not None} == {
        "head.w1", "head.b1", "head.w2", "head.b2"}


def test_loss_decreases_over_50_steps_overfit():
    from moama.loss import LossConfig, rec_loss
    from moama.masking import MaskConfig, build_plan, motif_table, plan_rng
    from moama.motif import decompose

    graphs = [parse(s) for s in
              ("CCOC(=O)c1ccccc1", "CC(=O)Nc1ccncc1", "CCOc1ccccc1", "CCSc1ccccc1",
               "CCCNC(=O)C", "COc1ccc(F)cc1", "CCN(C)Cc1ccccc1", "CC(C)Oc1ccncc1")]
    cfg = EncoderConfig(layers=2, embed_dim=16)
    lcfg = LossConfig(beta=1.0)
    mcfg = MaskConfig(hop_k=2)
    store = init_params(cfg, seed=13)
    decs = [decompose(g) for g in graphs]
    plans = [build_plan(motif_table(g, d, mcfg.hop_k), mcfg, plan_rng(0, i))
             for i, (g, d) in enumerate(zip(graphs, decs))]
    tg = TensorGraph.from_graphs(graphs, plans)
    offsets = np.cumsum([0] + [g.n_atoms for g in graphs[:-1]])
    masked = ([], [])
    for off, p in zip(offsets, plans):
        for d in range(2):
            masked[d].extend(off + v for v in p.masked_nodes[d])
    x_true = np.concatenate([g.X for g in graphs])

    losses = []
    for _ in range(50):
        h = encode(tg, store, cfg)
        logits = decode_attrs(tg, h, store, cfg, lcfg.targets)
        l, n = rec_loss(logits, x_true, masked, lcfg)
        assert n > 0
        store.zero_grad()
        l.backward()
        store.adam_step(lr=0.01)
        losses.append(l.item())
    assert losses[-1] < losses[0]


def _loop_and_lexsort_batch(graphs, plans=None) -> dict:
    """TensorGraph fields as the batch builder made them before molecules
    carried their own edge arrays and the batch held their stack: per-atom and
    per-bond loops, one lexsort, the mask codes written atom by atom."""
    types, chir, gids, src, dst, order = [], [], [], [], [], []
    offset = 0
    for gi, g in enumerate(graphs):
        masked = ((), ()) if plans is None else plans[gi].masked_nodes
        types.extend(119 if v in masked[0] else a.atom_type for v, a in enumerate(g.atoms))
        chir.extend(4 if v in masked[1] else a.chirality for v, a in enumerate(g.atoms))
        gids.extend([gi] * g.n_atoms)
        for b in g.bonds:
            code = BOND_ORDER_INDEX[b.order]
            src.extend((offset + b.u, offset + b.v))
            dst.extend((offset + b.v, offset + b.u))
            order.extend((code, code))
        offset += g.n_atoms
    src, dst, order = (np.asarray(a, dtype=np.int64) for a in (src, dst, order))
    perm = np.lexsort((src, dst))
    return {"atom_type": np.asarray(types, dtype=np.int64),
            "chirality": np.asarray(chir, dtype=np.int64),
            "edge_src": src[perm], "edge_dst": dst[perm], "edge_order": order[perm],
            "graph_ids": np.asarray(gids, dtype=np.int64),
            "n_nodes": offset, "n_graphs": len(graphs)}


def _batch_fields(x, s) -> dict:
    """The former fields, read from the embedded codes ``x`` and the stack ``s``."""
    return {"atom_type": x[:, 0], "chirality": x[:, 1],
            "edge_src": s.src, "edge_dst": s.dst, "edge_order": s.order,
            "graph_ids": s.mol, "n_nodes": len(x), "n_graphs": len(s.starts)}


def _assert_batch_equals_reference(graphs, plans=None):
    tg = TensorGraph.from_graphs(graphs, plans)
    assert tg._fields == ("s", "x")
    # the embedded codes carry the masks; the stack keeps the true codes
    for x, want in ((tg.x, _loop_and_lexsort_batch(graphs, plans)),
                    (tg.s.x, _loop_and_lexsort_batch(graphs))):
        got = _batch_fields(x, tg.s)
        assert got.keys() == want.keys()
        for name, value in got.items():
            assert np.array_equal(value, want[name]), name
            assert np.asarray(value).dtype == np.asarray(want[name]).dtype, name


def _bondless_molgraph(rng) -> MolGraph:
    n = int(rng.integers(1, 4))
    return MolGraph([AtomAttr(int(rng.choice([5, 6, 7])), int(rng.integers(0, 4)))
                     for _ in range(n)], [])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 10), masked=st.booleans())
def test_from_graphs_matches_loop_and_lexsort_builder(seed, size, masked):
    rng = np.random.default_rng(seed)
    graphs = [_bondless_molgraph(rng) if rng.random() < 0.25 else random_molgraph(rng)
              for _ in range(size)]
    plans = None
    if masked:
        plans = [MaskPlan((), tuple(tuple(int(v) for v in np.flatnonzero(
            rng.random(g.n_atoms) < 0.3)) for _ in range(2)), 0.0, True) for g in graphs]
    _assert_batch_equals_reference(graphs, plans)


@pytest.mark.parametrize("mask", [MaskConfig(), MaskConfig(mode="element_wise"),
                                  MaskConfig(mode="element_wise", coverage=0.5),
                                  MaskConfig(mode="random_baseline")],
                         ids=["node_wise", "element_wise", "element_wise_half", "random_baseline"])
def test_masked_batches_match_loop_and_lexsort_builder(corpus500, mask):
    graphs = odd_molecules() + corpus500
    decs = decompositions(graphs, default_rules())
    plans = [build_plan(motif_table(g, d, mask.hop_k), mask, plan_rng(mask.seed, i))
             for i, (g, d) in enumerate(zip(graphs, decs))]
    assert sum(bool(p.all_masked) for p in plans) > len(plans) // 2
    assert any(p.masked_nodes[0] != p.masked_nodes[1] for p in plans) == (mask.coverage < 1)
    for lo in range(0, len(graphs), 32):
        _assert_batch_equals_reference(graphs[lo:lo + 32], plans[lo:lo + 32])


def test_from_graphs_of_repeated_molecule_matches_reference():
    # the influence analysis batches n+1 copies of one molecule
    rng = np.random.default_rng(15)
    for _ in range(5):
        g = random_molgraph(rng)
        for copies in (1, 2, g.n_atoms + 1):
            _assert_batch_equals_reference([g] * copies)
    _assert_batch_equals_reference([_bondless_molgraph(rng)] * 4)


def test_empty_graph_rejected():
    with pytest.raises(ValueError):
        TensorGraph.from_graphs([])


def test_from_graphs_needs_one_plan_per_molecule():
    g = parse("CCO")
    plan = MaskPlan((0,), ((0, 1), (0, 1)), 2 / 3, False)
    for plans in ([], [plan], [plan] * 3):
        with pytest.raises(ValueError, match=f"^{len(plans)} mask plans for 2 molecules$"):
            TensorGraph.from_graphs([g, g], plans)


def test_learnable_epsilon_matches_oracle_and_gets_gradient():
    from conftest import fd_gradient

    cfg = EncoderConfig(layers=2, embed_dim=6, learn_epsilon=True, epsilon=0.1)
    store = init_params(cfg, seed=14)
    g = parse("CCOC")
    tg = single(g)
    assert np.array_equal(encode(tg, store, cfg).values, encode_oracle(g, store, cfg))

    def loss():
        return ad.tmean(encode(tg, store, cfg) ** 2.0)

    store.zero_grad()
    loss().backward()
    eps = store["enc.0.eps"]
    flat = eps.values.reshape(-1)
    fd = fd_gradient(lambda: loss().item(), flat, 0)
    assert eps.grad.reshape(-1)[0] == pytest.approx(fd, rel=1e-5, abs=1e-9)


# --- reference parameter shapes ----------------------------------------------
# The if-chain of decoder heads and widths that the TARGETS table replaced
# (``conftest.heads_oracle``), kept as the oracle of the shapes and the order
# ``init_params`` draws them in.

def _param_shapes_oracle(cfg, targets):
    k = cfg.embed_dim

    def block(prefix, out_dim):
        return {f"{prefix}.w1": (k, k), f"{prefix}.b1": (k,),
                f"{prefix}.w2": (k, out_dim), f"{prefix}.b2": (out_dim,)}

    shapes = {"embed.atom": (120, k), "embed.chirality": (5, k), "embed.bond": (4, k)}
    for layer in range(cfg.layers):
        shapes.update(block(f"enc.{layer}", k))
        if cfg.learn_epsilon:
            shapes[f"enc.{layer}.eps"] = ()
    for head, out_dim in heads_oracle(targets):
        if cfg.decoder == "gnn":
            shapes.update(block(f"dec.{head}", k))
            if cfg.learn_epsilon:
                shapes[f"dec.{head}.eps"] = ()
            shapes[f"dec.{head}.proj.w"] = (k, out_dim)
            shapes[f"dec.{head}.proj.b"] = (out_dim,)
        else:
            shapes.update(block(f"dec.{head}", out_dim))
    shapes.update(block("head", 1))
    return shapes


# --- reference MLP ------------------------------------------------------------
# The composed MLP that ``gin._mlp`` fused into one ``ad.gin_layer`` node (no
# edges, eps 0): one node per op, the mlp decoder's row gather included. Kept
# as the oracle for the fused MLP's values and its gradients' bits.

def _mlp_oracle(x, store, prefix, rows=None):
    x = x if rows is None else ad.take_rows(x, rows)
    z = ad.relu(x @ store[f"{prefix}.w1"] + store[f"{prefix}.b1"])
    return z @ store[f"{prefix}.w2"] + store[f"{prefix}.b2"]


def _predict_label_oracle(h_graph, store):
    return _mlp_oracle(h_graph, store, "head")


@pytest.mark.parametrize("width", [8, 32, 76, 300])
def test_fused_mlp_keeps_the_composed_mlp_s_bits(width):
    # x is a parameter with a second consumer; row 1 is -0.0 and the rectifier
    # zeroes all of row 3; the incoming gradient holds -0.0 and 0.0
    rng = np.random.default_rng(width)
    store = init_params(EncoderConfig(layers=1, embed_dim=width), None, seed=width)
    store["head.b1"].values = rng.uniform(-0.5, 0.5, size=width)
    store["head.b2"].values = rng.uniform(-0.5, 0.5, size=1)
    x0 = rng.normal(size=(6, width))
    x0[1] = -0.0
    x0[3] = np.linalg.solve(store["head.w1"].values.T, -np.ones(width))
    assert (x0[3] @ store["head.w1"].values + store["head.b1"].values < 0.0).all()
    coef = rng.choice([-1.0, 0.0, -0.0, 2.0], size=(6, 1))
    coef[0] = -0.0
    rows = np.array([5, 1, 3, 0])
    cases = [(lambda x: predict_label(x, store), lambda x: _predict_label_oracle(x, store)),
             (lambda x: gin._mlp(x, store, "head", rows),
              lambda x: _mlp_oracle(x, store, "head", rows))]
    for fused, oracle in cases:
        seen = []
        for mlp in (fused, oracle):
            x = ad.parameter(x0.copy())
            store.zero_grad()
            out = mlp(x)
            loss = ad.tsum(out * ad.const(coef[:len(out.values)])) + ad.tsum(x * x)
            loss.backward()
            seen.append([bits(out), bits(x.grad)]
                        + [bits(store[n].grad) for n in store.names() if n.startswith("head.")])
        assert seen[0] == seen[1]


def test_fused_mlp_runs_keep_the_composed_mlp_s_bytes(tmp_path, monkeypatch):
    # mlp-decoder pretrains under every loss.targets and a full finetune from
    # one of their checkpoints, once through the fused MLP and once through
    # the composed oracle
    corpus, labeled = tmp_path / "corpus.csv", tmp_path / "labeled.csv"
    write_corpus_csv(corpus, 24, seed=3)
    write_corpus_csv(labeled, 60, seed=11, labeled=True)
    small = ["--seed", "2", "--set", "encoder.layers=2", "--set", "encoder.decoder=mlp",
             "--set", "run.epochs=2", "--set", "run.batch_pretrain=8"]
    seen = []
    for i, mlp in enumerate((gin._mlp, _mlp_oracle)):
        outputs = []
        with monkeypatch.context() as m:
            m.setattr(gin, "_mlp", mlp)
            for targets in TARGETS:
                out = tmp_path / f"{i}-{targets}"
                assert cli_main(["pretrain", "--out", str(out), "--set", f"data.input={corpus}",
                                 "--set", f"loss.targets={targets}", *small]) == 0
                outputs += [(out / name).read_bytes() for name in ("checkpoint.moam", "loss.csv")]
            out, ckpt = tmp_path / f"{i}-finetune", tmp_path / f"{i}-atom_type" / "checkpoint.moam"
            assert cli_main(["finetune", "--out", str(out), "--set", f"data.input={labeled}",
                             "--set", f"run.checkpoint={ckpt}", "--set", "run.finetune_mode=full",
                             "--set", "run.finetune_epochs=3", *small]) == 0
            outputs.append((out / "auc_report.csv").read_bytes())
        seen.append(outputs)
    assert seen[0] == seen[1]


def _coverage_half_batch(mode):
    """A batch of datagen molecules masked by coverage-0.5 plans."""
    graphs = [parse("C")] + [parse(smi) for smi in generate_corpus(10, seed=5)]
    mask = MaskConfig(mode=mode, coverage=0.5, hop_k=2)
    tables = motif_tables(graphs, default_rules(), mask)
    return TensorGraph.from_graphs(graphs, [build_plan(t, mask, plan_rng(5, i))
                                            for i, t in enumerate(tables)])


@pytest.mark.parametrize("mode", ["node_wise", "element_wise"])
@pytest.mark.parametrize("learn_epsilon", [False, True], ids=["fixed_eps", "learn_eps"])
@pytest.mark.parametrize("decoder", ["gnn", "mlp"])
@pytest.mark.parametrize("targets", list(TARGETS))
def test_masked_rows_decoders_match_the_full_decoder_oracle(targets, decoder, learn_epsilon,
                                                            mode):
    cfg = EncoderConfig(layers=2, embed_dim=8, decoder=decoder, learn_epsilon=learn_epsilon,
                        epsilon=0.25)
    shapes = param_shapes(cfg, targets)
    assert list(shapes.items()) == list(_param_shapes_oracle(cfg, targets).items())
    store = init_params(cfg, targets, seed=21)
    rng, bound = np.random.default_rng(21), 1.0 / np.sqrt(cfg.embed_dim)
    for name, shape in shapes.items():   # one stream, drawn in the oracle's order
        if len(shape) == 2:
            want = rng.uniform(-bound, bound, size=shape)
            assert np.array_equal(store[name].values.view(np.uint64), want.view(np.uint64))

    tg = _coverage_half_batch(mode)
    masked = tg.masked_nodes()
    assert 0 < masked[0].size < len(tg.x) // 2
    assert np.array_equal(*masked) == (mode == "node_wise")
    for kind in ("sce", "ce", "mse"):
        loss_cfg = LossConfig(rec_kind=kind, targets=targets, gamma=2.0)
        seen = []
        for decode, rec, predict in ((decode_attrs, rec_loss, predict_label),
                                     (decode_attrs_full_oracle, rec_loss_full_oracle,
                                      _predict_label_oracle)):
            h = encode(tg, store, cfg)
            logits = decode(tg, h, store, cfg, targets)
            loss, n_masked = rec(logits, tg.s.x, masked, loss_cfg)
            label = predict(readout(h, "mean", tg.s.mol, len(tg.s.starts)), store)
            store.zero_grad()
            (loss + ad.tmean(label)).backward()
            seen.append((logits, loss.item(), n_masked, bits(label),
                         {n: store[n].grad for n in store.names() if store[n].grad is not None}))
        (logits, loss, n_masked, label, grads), (full, *want, want_grads) = seen
        assert (n_masked, label) == tuple(want[1:])
        assert list(logits) == list(full)
        for name, rows in logits.items():   # one row per masked node of its attribute
            nodes = masked[ATTRIBUTES[name][0]]
            np.testing.assert_allclose(rows.values, full[name].values[nodes], rtol=1e-12, atol=0)
        np.testing.assert_allclose(loss, want[0], rtol=1e-12, atol=0)
        assert grads.keys() == want_grads.keys()
        for name, grad in grads.items():
            np.testing.assert_allclose(grad, want_grads[name], rtol=1e-12, atol=0, err_msg=name)


# --- reference GIN layer ----------------------------------------------------
# The composed layer that ``ad.gin_layer`` fused into one tape node: one node
# per op, with the rectifier between layers as a node of its own. Kept as the
# oracle for the fused op's values and its gradients' bits.

def _gin_layer_oracle(h, store, cfg, prefix, src, dst, bond_embed, rows=None, relu_out=False):
    eps = store[f"{prefix}.eps"] if cfg.learn_epsilon else cfg.epsilon
    base = h if rows is None else ad.take_rows(h, rows)
    if src.size:
        messages = ad.take_rows(h, src) + bond_embed
        agg = ad.segment_sum(messages, dst, len(base.values))
        z = base * (1.0 + eps) + agg
    else:
        z = base * (1.0 + eps)
    z = ad.relu(z @ store[f"{prefix}.w1"] + store[f"{prefix}.b1"])
    out = z @ store[f"{prefix}.w2"] + store[f"{prefix}.b2"]
    return ad.relu(out) if relu_out else out


def _training_step_bits(graphs, store, cfg, targets, beta, zero_nodes=()):
    """Bits of H, the logits, the loss and every gradient of one pretrain-like
    step: decoders (at the masked rows only) and (when beta < 1) the readout's
    aux loss all read H."""
    tg = TensorGraph.from_graphs(graphs)
    rng = np.random.default_rng(len(tg.x))
    masked = (np.flatnonzero(rng.random(len(tg.x)) < 0.5),
              np.flatnonzero(rng.random(len(tg.x)) < 0.5))
    loss_cfg = LossConfig(targets=targets, beta=beta)
    h = encode(tg, store, cfg, zero_nodes)
    logits = decode_attrs(tg, h, store, cfg, targets, masked)
    l_rec, _ = rec_loss(logits, np.concatenate([g.X for g in graphs]), masked, loss_cfg)
    l_aux = None
    if beta < 1.0:
        l_aux, _ = aux_loss(readout(h, cfg.readout, tg.s.mol, len(tg.s.starts)),
                            fingerprint_bits(graphs), loss_cfg)
    total = total_loss(l_rec, l_aux, beta)
    store.zero_grad()
    total.backward()
    return (bits(h), [(k, bits(v)) for k, v in logits.items()], bits(total),
            [(n, None if store[n].grad is None else bits(store[n].grad)) for n in store.names()])


def _batches():
    rng = np.random.default_rng(31)
    mixed = [parse("C"), parse("CC(=O)Nc1ccncc1")] + [random_molgraph(rng, 2, 10) for _ in range(4)]
    bondless = [parse("C"), parse("O"), _bondless_molgraph(rng)]
    return {"mixed": mixed, "bondless": bondless}


@pytest.mark.parametrize("learn_epsilon", [False, True], ids=["fixed_eps", "learn_eps"])
@pytest.mark.parametrize("width", [8, 32, 76])
def test_fused_layer_keeps_the_composed_layers_bits(monkeypatch, width, learn_epsilon):
    cfg = EncoderConfig(layers=3, embed_dim=width, learn_epsilon=learn_epsilon, epsilon=0.3)
    batches = _batches()
    cases = [("mixed", "both_two_decoders", 0.5, ()),    # H read by two decoders and readout
             ("mixed", "atom_type", 1.0, (0, 3, 7)),     # zeroed nodes, rec loss only
             ("bondless", "both_one_decoder", 0.5, ()),
             ("bondless", "chirality", 1.0, (1,))]
    for batch, targets, beta, zero_nodes in cases:
        seen = []
        for layer in (None, _gin_layer_oracle):
            store = init_params(cfg, targets, seed=width)
            with monkeypatch.context() as m:
                if layer is not None:
                    m.setattr(gin, "_gin_layer", layer)
                seen.append(_training_step_bits(batches[batch], store, cfg, targets, beta,
                                                zero_nodes))
        assert seen[0] == seen[1], (batch, targets)
        trained = [n for n, g in seen[0][3] if g is not None]
        assert {n for n in store.names() if n.startswith(("embed.", "enc."))} - set(trained) == (
            {"embed.bond"} if batch == "bondless" else set())


@pytest.mark.parametrize("subset", [False, True], ids=["every_row", "row_subset"])
def test_fused_layer_input_gradients_match_the_composed_ops(subset):
    # h and the bond rows as parameters with a second consumer each, read
    # before and after the layer; the incoming gradient holds zero rows. The
    # row subset is unsorted and holds nodes with and without in-edges.
    rng = np.random.default_rng(9)
    g = random_molgraph(rng, 6, 10)
    tg = single(g)
    cfg = EncoderConfig(layers=1, embed_dim=8, learn_epsilon=True, epsilon=-0.2)
    store = init_params(cfg, seed=9)
    rows = rng.permutation(len(tg.x))[:4] if subset else None
    edges, dst = gin._in_edges(tg, rows) if subset else (np.arange(tg.s.src.size), tg.s.dst)
    assert edges.size
    h0 = rng.normal(size=(len(tg.x), 8))
    bond0 = rng.normal(size=(edges.size, 8))
    coef = rng.choice([-1.0, 0.0, -0.0, 2.0], size=(len(tg.x) if rows is None else 4, 8))
    coef[1] = -0.0
    seen = []
    for layer in (gin._gin_layer, _gin_layer_oracle):
        h, bond = ad.parameter(h0.copy()), ad.parameter(bond0.copy())
        store.zero_grad()
        out = layer(h, store, cfg, "enc.0", tg.s.src[edges], dst, bond, rows, True)
        loss = ad.tsum(out * ad.const(coef)) + ad.tsum(h * h) + ad.tsum(bond * 2.0)
        loss.backward()
        seen.append([bits(out), bits(h.grad), bits(bond.grad)]
                    + [bits(store[n].grad) for n in store.names() if n.startswith("enc.")])
    assert seen[0] == seen[1]


@pytest.mark.parametrize("huge", [{"embed.atom": 1e10, "enc.0.w1": 1e300},      # pre-activation
                                  {"embed.atom": 1e308, "embed.bond": 1e308},    # messages
                                  {"embed.atom": 1e10, "enc.0.eps": 1e308},      # z
                                  {"embed.atom": 1e10, "enc.0.w2": 1e300}],      # output
                         ids=["w1", "messages", "eps", "w2"])
def test_overflow_inside_the_fused_layer_raises_numerics_error(monkeypatch, huge):
    cfg = EncoderConfig(layers=2, embed_dim=8, learn_epsilon=True)
    tg = single(parse("CC(=O)Nc1ccncc1"))
    for layer in (gin._gin_layer, _gin_layer_oracle):
        store = init_params(cfg, seed=3)
        for name, value in huge.items():
            store[name].values = np.full_like(store[name].values, value)
        with monkeypatch.context() as m, np.errstate(over="ignore", invalid="ignore"):
            m.setattr(gin, "_gin_layer", layer)
            with pytest.raises(NumericsError):
                encode(tg, store, cfg)


@pytest.mark.parametrize("zero_nodes", [(), (1,)])
def test_encode_records_one_tape_node_per_layer(zero_nodes):
    cfg = EncoderConfig(layers=4, embed_dim=8)
    store = init_params(cfg, seed=4)
    h = encode(single(parse("CC(=O)Nc1ccncc1")), store, cfg, zero_nodes)
    nodes, stack = {}, [h]
    while stack:
        t = stack.pop()
        if id(t) not in nodes:
            nodes[id(t)] = t
            stack.extend(t._parents)
    ops = [t for t in nodes.values() if t._backprop is not None]
    # two embedding lookups and their sum, the bond lookup, the zeroing
    # product, and one node per layer
    assert len(ops) == 4 + bool(zero_nodes) + cfg.layers
    for layer in range(cfg.layers):
        readers = [t for t in ops if any(p is store[f"enc.{layer}.w1"] for p in t._parents)]
        assert len(readers) == 1
