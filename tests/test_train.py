from dataclasses import replace

import numpy as np
import pytest

from moama import autodiff as ad
from moama import parse
from moama.datagen import generate_corpus, has_carbonyl
from moama.errors import DataError
from moama.gin import (
    EncoderConfig,
    ParamStore,
    TensorGraph,
    encode,
    init_params,
    predict_label,
    readout,
    single,
)
from moama.loss import LossConfig
from moama.masking import MaskConfig
from moama.train import (
    ProbeReport,
    RunConfig,
    _bce,
    auc_score,
    finetune_probe,
    load_checkpoint,
    loss_curve_rows,
    pretrain,
    save_checkpoint,
    scaffold_key,
    scaffold_split,
)

from conftest import auc_oracle

DESK = RunConfig(
    epochs=3,
    batch_pretrain=16,
    encoder=EncoderConfig(layers=2, embed_dim=8),
    mask=MaskConfig(hop_k=2),
    seed=0,
)


@pytest.fixture(scope="module")
def small_corpus():
    return [parse(s) for s in generate_corpus(48, seed=9)]


def test_overfit_single_molecule_rec_loss_halves():
    g = parse("CCOC(=O)c1ccc(CC)cc1")
    cfg = RunConfig(epochs=50, batch_pretrain=1, seed=1,
                    encoder=EncoderConfig(layers=2, embed_dim=16),
                    mask=MaskConfig(hop_k=2, resample_per_epoch=False),
                    loss=LossConfig(beta=1.0))
    result = pretrain([g], cfg)
    assert result.curve[-1].rec < result.curve[0].rec


def test_beta_one_skips_aux_column():
    g = parse("CCOC(=O)c1ccccc1")
    cfg = RunConfig(epochs=2, batch_pretrain=4, seed=2,
                    encoder=EncoderConfig(layers=2, embed_dim=8),
                    mask=MaskConfig(hop_k=2), loss=LossConfig(beta=1.0))
    result = pretrain([g, parse("CCNc1ccccc1")], cfg)
    assert all(s.aux is None for s in result.curve)
    rows = loss_curve_rows(result.curve, include_aux=False)
    assert rows[0] == "epoch,loss,rec,feasible_frac"
    rows_aux = loss_curve_rows(result.curve, include_aux=True)
    assert rows_aux[0].split(",") == ["epoch", "loss", "rec", "aux", "feasible_frac"]


def test_fixed_seed_bit_identical_curves(small_corpus):
    r1 = pretrain(small_corpus, DESK)
    r2 = pretrain(small_corpus, DESK)
    assert loss_curve_rows(r1.curve, True) == loss_curve_rows(r2.curve, True)
    for n in r1.store.names():
        assert np.array_equal(r1.store.params[n].values, r2.store.params[n].values)


def test_all_single_motif_corpus_rejected():
    with pytest.raises(DataError):
        pretrain([parse("c1ccccc1"), parse("C1CCCCC1")], DESK)


def test_checkpoint_round_trip_bytes_and_forward(tmp_path, small_corpus):
    result = pretrain(small_corpus, DESK)
    p1 = tmp_path / "a.moam"
    p2 = tmp_path / "b.moam"
    save_checkpoint(p1, result.store, {"encoder.layers": "2"}, {"seed": 0}, DESK.epochs)
    ck = load_checkpoint(p1)
    save_checkpoint(p2, ck.store, ck.config, ck.rng, ck.epoch)
    assert p1.read_bytes() == p2.read_bytes()

    g = small_corpus[0]
    before = encode(single(g), result.store, DESK.encoder).values
    after = encode(single(g), ck.store, DESK.encoder).values
    assert np.array_equal(before, after)


def test_resume_matches_uninterrupted(tmp_path, small_corpus):
    full = pretrain(small_corpus, DESK)
    short_cfg = RunConfig(epochs=1, batch_pretrain=DESK.batch_pretrain,
                          encoder=DESK.encoder, mask=DESK.mask, seed=DESK.seed)
    half = pretrain(small_corpus, short_cfg)
    path = tmp_path / "half.moam"
    save_checkpoint(path, half.store, {}, {"seed": DESK.seed}, 1)
    resumed = pretrain(small_corpus, DESK, resume=load_checkpoint(path))
    for n in full.store.names():
        assert np.array_equal(full.store.params[n].values, resumed.store.params[n].values)
    assert loss_curve_rows(full.curve, True)[2:] == loss_curve_rows(resumed.curve, True)[1:]


def test_bad_checkpoint_rejected(tmp_path):
    bad = tmp_path / "bad.moam"
    bad.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataError):
        load_checkpoint(bad)
    with pytest.raises(DataError):
        load_checkpoint(tmp_path / "missing.moam")


# --- scaffolds ---------------------------------------------------------------

def test_scaffold_acyclic_empty_key():
    assert scaffold_key(parse("CCOCC")) == ""
    assert scaffold_key(parse("C")) == ""


def test_scaffold_strips_side_chains():
    assert scaffold_key(parse("c1ccccc1")) == scaffold_key(parse("CCc1ccccc1"))
    assert scaffold_key(parse("CCc1ccccc1CC")) == scaffold_key(parse("c1ccccc1C"))


def test_scaffold_isomorphic_share_key_distinct_differ():
    a = scaffold_key(parse("c1ccncc1"))
    b = scaffold_key(parse("n1ccccc1"))
    assert a == b
    assert scaffold_key(parse("c1ccccc1")) != scaffold_key(parse("C1CCCCC1"))
    assert scaffold_key(parse("c1ccccc1")) != scaffold_key(parse("c1ccncc1"))
    # linkers are kept: two rings joined by a chain differ from a bare ring
    assert scaffold_key(parse("c1ccccc1CCc1ccccc1")) != scaffold_key(parse("c1ccccc1"))


def test_scaffold_key_relabel_invariant():
    from moama.molgraph import relabel

    rng = np.random.default_rng(0)
    g = parse("CCOC(=O)c1ccc2ccccc2c1")
    key = scaffold_key(g)
    for _ in range(5):
        assert scaffold_key(relabel(g, list(rng.permutation(g.n_atoms)))) == key


def test_split_ten_singletons_8_1_1():
    graphs = [parse(s) for s in (
        "c1ccccc1", "c1ccncc1", "c1ccncn1", "c1ccsc1", "c1ccoc1",
        "C1CCCCC1", "C1CCNCC1", "C1CCOCC1", "C1CCCC1", "C1CCSCC1")]
    keys = {scaffold_key(g) for g in graphs}
    assert len(keys) == 10
    train, valid, test = scaffold_split(graphs)
    assert (len(train), len(valid), len(test)) == (8, 1, 1)
    assert sorted(train + valid + test) == list(range(10))


def test_split_single_scaffold_warns_all_train():
    graphs = [parse("CCc1ccccc1"), parse("CCCc1ccccc1"), parse("c1ccccc1")]
    with pytest.warns(UserWarning):
        train, valid, test = scaffold_split(graphs)
    assert train == [0, 1, 2] and valid == [] and test == []


def test_split_order_invariant_as_sets():
    smis = generate_corpus(80, seed=3)
    graphs = [parse(s) for s in smis]
    perm = list(np.random.default_rng(1).permutation(len(graphs)))
    shuffled = [graphs[i] for i in perm]
    t1, v1, s1 = scaffold_split(graphs)
    t2, v2, s2 = scaffold_split(shuffled)
    remap = {new: old for new, old in enumerate(perm)}
    assert {remap[i] for i in t2} == set(t1)
    assert {remap[i] for i in v2} == set(v1)
    assert {remap[i] for i in s2} == set(s1)


def test_split_groups_never_straddle():
    graphs = [parse(s) for s in generate_corpus(120, seed=5)]
    train, valid, test = scaffold_split(graphs)
    assign = {}
    for name, idx in (("t", train), ("v", valid), ("s", test)):
        for i in idx:
            assign[i] = name
    keys = [scaffold_key(g) for g in graphs]
    for i, ki in enumerate(keys):
        for j, kj in enumerate(keys):
            if i < j and ki == kj:
                assert assign[i] == assign[j]


# --- AUC and probes ----------------------------------------------------------

def test_auc_perfect_predictor():
    labels = np.array([0, 1, 0, 1, 1])
    assert auc_score(labels.astype(float), labels) == 1.0


def test_auc_matches_all_pairs_oracle():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(5, 200))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.normal(size=n), 1)  # coarse values force ties
        assert auc_score(scores, labels) == pytest.approx(auc_oracle(scores, labels))


def test_auc_single_class_rejected():
    with pytest.raises(DataError):
        auc_score([0.1, 0.2], [1, 1])


def _labeled_task(n=90, seed=13):
    graphs = [parse(s) for s in generate_corpus(n, seed=seed, balanced_labels=True)]
    labels = np.array([float(has_carbonyl(g)) for g in graphs])
    return graphs, labels


def test_probe_on_separable_synthetic_label():
    graphs, labels = _labeled_task()
    cfg = RunConfig(epochs=2, finetune_epochs=25, batch_finetune=16, seed=3, lr=0.01,
                    encoder=EncoderConfig(layers=2, embed_dim=16),
                    mask=MaskConfig(hop_k=2), finetune_mode="full")
    report = finetune_probe(None, graphs, labels, cfg)
    assert report.test_auc >= 0.95
    assert report.mode == "full"


def test_probe_chance_level_on_random_labels():
    graphs, _ = _labeled_task(n=60, seed=20)
    cfg = RunConfig(epochs=2, finetune_epochs=4, batch_finetune=16, seed=0,
                    encoder=EncoderConfig(layers=1, embed_dim=8),
                    mask=MaskConfig(hop_k=2))
    aucs = []
    for seed in range(5):
        labels = np.random.default_rng(seed).integers(0, 2, size=len(graphs)).astype(float)
        try:
            report = finetune_probe(None, graphs, labels,
                                    RunConfig(epochs=2, finetune_epochs=4,
                                              batch_finetune=16, seed=seed,
                                              encoder=cfg.encoder, mask=cfg.mask))
        except DataError:
            continue  # a split came out single-class for this label draw
        aucs.append(report.test_auc)
    assert aucs, "no label draw produced a valid split"
    assert abs(np.mean(aucs) - 0.5) <= 0.25


def test_probe_single_class_split_rejected():
    graphs, labels = _labeled_task(n=40)
    cfg = RunConfig(encoder=EncoderConfig(layers=1, embed_dim=8))
    with pytest.raises(DataError):
        finetune_probe(None, graphs, np.ones_like(labels), cfg)


def test_empty_corpus_is_rejected_with_the_cli_message():
    with pytest.raises(DataError, match="^no parseable molecules in the dataset$"):
        pretrain([], DESK)


def test_mask_eligibility_is_computed_once_per_molecule(small_corpus, monkeypatch):
    import moama.masking

    calls = []
    real = moama.masking.k_hop_neighborhood

    def counting(g, v, k):
        calls.append(v)
        return real(g, v, k)

    monkeypatch.setattr(moama.masking, "k_hop_neighborhood", counting)
    baseline = MaskConfig(hop_k=2, mode="random_baseline")
    counts = []
    for cfg in (replace(DESK, epochs=1), replace(DESK, epochs=3),
                replace(DESK, epochs=3, mask=baseline)):
        calls.clear()
        pretrain(small_corpus, cfg)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
    assert counts[2] == 0


@pytest.mark.parametrize("mode", ["node_wise", "element_wise", "random_baseline"])
def test_rec_loss_gets_each_plans_entries_at_its_batch_offset(small_corpus, monkeypatch, mode):
    import moama.train

    plans, checked = [], []
    real_plan, real_rec = moama.train.build_plan, moama.train.rec_loss

    def planning(g, *args, **kwargs):
        plan = real_plan(g, *args, **kwargs)
        plans.append((g.n_atoms, plan))
        return plan

    def checking(logits, x_true, masked, cfg):
        # the batch's plans were all built, in batch order, before its loss
        expected, offset = ([], []), 0
        for n_atoms, plan in plans:
            for d in range(2):
                expected[d].extend(offset + v for v in plan.masked_nodes[d])
            offset += n_atoms
        assert [list(m) for m in masked] == list(expected)
        checked.append(len(expected[0]) + len(expected[1]))
        plans.clear()
        return real_rec(logits, x_true, masked, cfg)

    monkeypatch.setattr(moama.train, "build_plan", planning)
    monkeypatch.setattr(moama.train, "rec_loss", checking)
    mask = MaskConfig(hop_k=2, mode=mode, coverage=0.5)
    pretrain(small_corpus, replace(DESK, epochs=1, mask=mask))
    assert len(checked) == 3 and sum(checked) > 0


def _name_filtered_adam(store, lr, names):
    """Adam as ``ParamStore.adam_step(names=...)`` ran it before parameters
    could be frozen: every tensor trainable, only ``names`` updated."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    store.t += 1
    for name in sorted(names) if names is not None else store.names():
        p = store.params[name]
        g = p.grad if p.grad is not None else np.zeros_like(p.values)
        store.m[name] = beta1 * store.m[name] + (1.0 - beta1) * g
        store.v[name] = beta2 * store.v[name] + (1.0 - beta2) * (g * g)
        m_hat = store.m[name] / (1.0 - beta1 ** store.t)
        v_hat = store.v[name] / (1.0 - beta2 ** store.t)
        p.values = p.values - lr * m_hat / (np.sqrt(v_hat) + eps)


def _finetune_probe_oracle(pretrained, graphs, labels, cfg):
    """``finetune_probe``'s training loop as it was before probe mode froze
    the encoder: backward runs through the whole store and probe mode
    filters Adam by name."""
    labels = np.asarray(labels, dtype=np.float64)
    train_idx, valid_idx, test_idx = scaffold_split(graphs)
    store = init_params(cfg.encoder, cfg.loss.targets, seed=cfg.seed + 104729)
    if pretrained is not None:
        store.load_values(pretrained, [n for n in store.names()
                                       if n.startswith(("embed.", "enc."))])
    trainable = None
    if cfg.finetune_mode == "probe":
        trainable = [n for n in store.names() if n.startswith("head.")]

    def logits_for(idx):
        tg = TensorGraph.from_graphs([graphs[i] for i in idx])
        h = encode(tg, store, cfg.encoder)
        return predict_label(readout(h, cfg.encoder.readout, tg.graph_ids, tg.n_graphs), store)

    best = (-1.0, 0, None)
    for epoch in range(cfg.finetune_epochs):
        order = np.random.default_rng([cfg.seed, 11, epoch]).permutation(len(train_idx))
        for lo in range(0, len(train_idx), cfg.batch_finetune):
            batch = [train_idx[i] for i in order[lo:lo + cfg.batch_finetune]]
            lossv = _bce(logits_for(batch), ad.const(labels[batch][:, None]))
            store.zero_grad()
            lossv.backward()
            _name_filtered_adam(store, cfg.lr, trainable)
        v_auc = auc_score(logits_for(valid_idx).values[:, 0], labels[valid_idx])
        if v_auc > best[0]:
            best = (v_auc, epoch + 1, store.copy())
    store = best[2]
    test_auc = auc_score(logits_for(test_idx).values[:, 0], labels[test_idx])
    return ProbeReport(test_auc, best[0], best[1], cfg.finetune_mode,
                       (len(train_idx), len(valid_idx), len(test_idx)))


def _probe_cfg(mode, learn_epsilon):
    encoder = EncoderConfig(layers=2, embed_dim=8, learn_epsilon=learn_epsilon, epsilon=0.25)
    return RunConfig(epochs=1, finetune_epochs=4, batch_finetune=16, batch_pretrain=16,
                     seed=2, lr=0.01, encoder=encoder, mask=MaskConfig(hop_k=2),
                     finetune_mode=mode)


@pytest.mark.parametrize("learn_epsilon", [False, True], ids=["fixed_eps", "learn_eps"])
@pytest.mark.parametrize("pretrained", [False, True], ids=["fresh", "pretrained"])
@pytest.mark.parametrize("mode", ["probe", "full"])
def test_finetune_equals_the_name_filtered_adam_loop(mode, pretrained, learn_epsilon):
    graphs, labels = _labeled_task()
    cfg = _probe_cfg(mode, learn_epsilon)
    store = pretrain(graphs[:32], cfg).store if pretrained else None
    got = finetune_probe(store, graphs, labels, cfg)
    assert got == _finetune_probe_oracle(store, graphs, labels, cfg)
    assert got.mode == mode


@pytest.mark.parametrize("encoder,tensor", [(EncoderConfig(layers=3, embed_dim=8), "enc.2."),
                                            (EncoderConfig(layers=2, embed_dim=16), "embed.atom")],
                         ids=["deeper", "wider"])
def test_finetune_rejects_a_store_that_does_not_fit_the_encoder(encoder, tensor):
    graphs, labels = _labeled_task()
    pretrained = init_params(EncoderConfig(layers=2, embed_dim=8), seed=0)
    cfg = replace(_probe_cfg("probe", False), encoder=encoder)
    with pytest.raises(DataError, match=tensor):
        finetune_probe(pretrained, graphs, labels, cfg)


@pytest.mark.parametrize("mode", ["probe", "full"])
def test_probe_step_leaves_gradients_only_on_the_head(mode, monkeypatch):
    seen = []
    real = ParamStore.adam_step

    def recording(self, *args, **kwargs):
        seen.append({n for n, p in self.params.items() if p.grad is not None})
        return real(self, *args, **kwargs)

    monkeypatch.setattr(ParamStore, "adam_step", recording)
    graphs, labels = _labeled_task()
    finetune_probe(None, graphs, labels, replace(_probe_cfg(mode, True), finetune_epochs=1))
    assert seen
    head = {"head.w1", "head.b1", "head.w2", "head.b2"}
    for names in seen:
        if mode == "probe":
            assert names == head
        else:
            assert names > head and "enc.0.w1" in names and "enc.1.eps" in names
