import json
import re
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest

import moama.train
from moama import autodiff as ad
from moama import parse
from moama.datagen import generate_corpus, has_carbonyl
from moama.errors import ConfigError, DataError
from moama.fingerprint import FingerprintConfig, fingerprint_bits, morgan_fingerprints, tanimoto_matrix
from moama.gin import (
    TARGETS,
    EncoderConfig,
    ParamStore,
    TensorGraph,
    encode,
    init_params,
    predict_label,
    readout,
)
from moama.loss import LossConfig
from moama.masking import MaskConfig
from moama.molgraph import AtomAttr, MolGraph
from moama.train import (
    CHECKPOINT_VERSION,
    Checkpoint,
    EpochStats,
    ProbeReport,
    RunConfig,
    _bce,
    _decode_checkpoint,
    _frozen_graph_vectors,
    auc_score,
    finetune_probe,
    load_checkpoint,
    loss_curve_rows,
    pretrain,
    save_checkpoint,
    scaffold_key,
    scaffold_keys,
    scaffold_split,
)

from conftest import (
    auc_oracle,
    bits,
    odd_molecules,
    relabel,
    scaffold_key_oracle,
    scaffold_keys_ring_loop_oracle,
    single,
    write_checkpoint_naming_twice,
)

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


def test_loss_curve_cells_follow_the_one_csv_cell_rule():
    # a numpy float is written as its float's repr, which repr() of it is not under numpy 2
    curve = [EpochStats(np.int64(1), np.float64(0.5), np.float64(0.25), np.float64(1e-20),
                        np.float64(1.0))]
    assert loss_curve_rows(curve, True) == ["epoch,loss,rec,aux,feasible_frac",
                                            "1,0.5,0.25,1e-20,1.0"]
    assert loss_curve_rows(curve, False) == ["epoch,loss,rec,feasible_frac", "1,0.5,0.25,1.0"]


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


def test_resume_of_a_store_that_does_not_fit_the_encoder_is_a_data_error(tmp_path, small_corpus):
    path = tmp_path / "narrow.moam"
    save_checkpoint(path, init_params(EncoderConfig(layers=2, embed_dim=8), seed=0),
                    {}, {"seed": 0}, 1)
    wider = replace(DESK, encoder=EncoderConfig(layers=2, embed_dim=16))
    with pytest.raises(DataError, match="embed.atom"):
        pretrain(small_corpus, wider, resume=load_checkpoint(path))


@pytest.mark.parametrize("change,tensor", [
    ({"loss": LossConfig(targets="chirality")}, "dec.atom.b1"),
    ({"encoder": replace(DESK.encoder, decoder="mlp")}, "dec.atom.b2"),
])
def test_resume_of_a_store_whose_decoder_does_not_fit_is_a_data_error(
        tmp_path, small_corpus, change, tensor):
    # an atom_type store with gnn decoders, resumed under other decoder settings
    path = tmp_path / "atom_gnn.moam"
    save_checkpoint(path, init_params(DESK.encoder, "atom_type", seed=0), {}, {"seed": 0}, 1)
    with pytest.raises(DataError, match=f"tensor {tensor} .*decoder settings"):
        pretrain(small_corpus, replace(DESK, **change), resume=load_checkpoint(path))


def _offset_by_hand_decode(data):
    """The former checkpoint decoder, which moved its offset by hand after
    each field."""
    pos = 4
    (version,) = struct.unpack_from("<I", data, pos)
    pos += 4
    if version != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version {version}")
    blobs = []
    for _ in range(2):
        (ln,) = struct.unpack_from("<I", data, pos)
        pos += 4
        blobs.append(json.loads(data[pos:pos + ln].decode()))
        pos += ln
    if not (isinstance(blobs[0], dict) and all(isinstance(v, str) for v in blobs[0].values())):
        raise ValueError("its config snapshot is not a JSON object of strings")
    adam_t, epoch = struct.unpack_from("<QI", data, pos)
    pos += 12
    (count,) = struct.unpack_from("<I", data, pos)
    pos += 4
    params = {}
    moments_m, moments_v = {}, {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", data, pos)
        pos += 2
        name = data[pos:pos + name_len].decode()
        pos += name_len
        (ndim,) = struct.unpack_from("<B", data, pos)
        pos += 1
        shape = struct.unpack_from(f"<{ndim}I", data, pos)
        pos += 4 * ndim
        size = int(np.prod(shape, dtype=np.int64)) if ndim else 1
        arrays = []
        for _ in range(3):
            arr = np.frombuffer(data, dtype="<f8", count=size, offset=pos)
            pos += 8 * size
            arrays.append(arr.reshape(shape).astype(np.float64))
        params[name] = ad.parameter(arrays[0])
        moments_m[name], moments_v[name] = arrays[1], arrays[2]
    store = ParamStore(params)
    store.m, store.v, store.t = moments_m, moments_v, adam_t
    return Checkpoint(store, blobs[0], blobs[1], epoch)


def _outcome(decode, data):
    """Every bit a decode gives, or its exception's type and message."""
    try:
        ck = decode(data)
    except Exception as e:   # the message is what is compared
        return type(e).__name__, str(e)
    s = ck.store
    return (ck.config, ck.rng, ck.epoch, s.t, s.names(),
            [(bits(s[n]), bits(s.m[n]), bits(s.v[n])) for n in s.names()])


@pytest.fixture(scope="module")
def learned_eps_store(small_corpus):
    cfg = replace(DESK, epochs=1, encoder=replace(DESK.encoder, learn_epsilon=True))
    return pretrain(small_corpus[:16], cfg).store


def test_checkpoint_cursor_gives_the_former_decoder_outcome_at_every_cut(tmp_path,
                                                                          learned_eps_store):
    # the trained store's 0-d and 1-d encoder tensors keep the file to a few
    # hundred bytes, so every cut is tried
    names = [n for n in learned_eps_store.names() if n.endswith(("eps", "b1", "b2"))]
    store = ParamStore({n: learned_eps_store[n] for n in names})
    store.m = {n: learned_eps_store.m[n] for n in names}
    store.v = {n: learned_eps_store.v[n] for n in names}
    store.t = learned_eps_store.t
    path = tmp_path / "small.moam"
    save_checkpoint(path, store, {"encoder.learn_epsilon": "true"}, {"seed": 0}, 1)
    data = path.read_bytes()
    assert len(data) > 600 and any(store[n].values.ndim == 0 for n in names)
    outcomes = [_outcome(lambda d: _decode_checkpoint(d, path), data[:cut])
                for cut in range(4, len(data) + 1)]
    assert outcomes == [_outcome(_offset_by_hand_decode, data[:cut])
                        for cut in range(4, len(data) + 1)]
    assert len({o for o in outcomes[:-1] if len(o) == 2}) > 20   # many distinct messages
    assert len(outcomes[-1]) == 6


def test_learned_eps_checkpoint_round_trip_keeps_every_bit(tmp_path, learned_eps_store):
    p1, p2 = tmp_path / "a.moam", tmp_path / "b.moam"
    save_checkpoint(p1, learned_eps_store, {"encoder.learn_epsilon": "true"}, {"seed": 0}, 1)
    ck = load_checkpoint(p1)
    save_checkpoint(p2, ck.store, ck.config, ck.rng, ck.epoch)
    assert p1.read_bytes() == p2.read_bytes()
    assert _outcome(lambda d: _decode_checkpoint(d, p1), p1.read_bytes()) == _outcome(
        _offset_by_hand_decode, p1.read_bytes())
    for n in learned_eps_store.names():
        assert bits(ck.store[n]) == bits(learned_eps_store[n])
        assert bits(ck.store.m[n]) == bits(learned_eps_store.m[n])
        assert bits(ck.store.v[n]) == bits(learned_eps_store.v[n])
    assert {n for n in ck.store.names() if ck.store[n].values.ndim == 0} == {
        "dec.atom.eps", "enc.0.eps", "enc.1.eps"}


def test_bad_checkpoint_rejected(tmp_path):
    bad = tmp_path / "bad.moam"
    bad.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataError):
        load_checkpoint(bad)
    with pytest.raises(DataError):
        load_checkpoint(tmp_path / "missing.moam")


@pytest.mark.parametrize("extra", [1, 8, 100])
def test_a_checkpoint_with_bytes_after_its_last_tensor_is_corrupt(tmp_path, learned_eps_store,
                                                                  extra):
    path = tmp_path / "long.moam"
    save_checkpoint(path, learned_eps_store, {}, {"seed": 0}, 1)
    assert len(load_checkpoint(path).store.names()) == len(learned_eps_store.names())
    path.write_bytes(path.read_bytes() + b"\x00" * extra)
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))} is truncated or corrupt: "
                                        rf"{extra} bytes after its last tensor$"):
        load_checkpoint(path)


def test_a_checkpoint_naming_a_tensor_twice_is_a_data_error(tmp_path, learned_eps_store):
    path = tmp_path / "twice.moam"
    ck = Checkpoint(learned_eps_store, {}, {"seed": 0}, 1)
    for name in ("dec.atom.eps", "enc.0.w1"):   # a 0-d and a 2-d tensor
        write_checkpoint_naming_twice(path, ck, name)
        with pytest.raises(DataError, match=re.escape(f"{path}: tensor {name} is stored twice")):
            load_checkpoint(path)


# --- scaffolds ---------------------------------------------------------------

def test_scaffold_acyclic_empty_key():
    assert scaffold_key(parse("CCOCC")) == ""
    assert scaffold_key(parse("C")) == ""
    graphs = [parse(s) for s in ("C", "CC", "CCO", "CC(C)(C)C", "CC=CC#N", "[Na+]")]
    assert scaffold_keys(graphs) == [""] * len(graphs)
    assert scaffold_keys([]) == []


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
    rng = np.random.default_rng(0)
    g = parse("CCOC(=O)c1ccc2ccccc2c1")
    key = scaffold_key(g)
    for _ in range(5):
        assert scaffold_key(relabel(g, list(rng.permutation(g.n_atoms)))) == key


def test_scaffold_keys_match_the_per_molecule_oracle(refinement_corpora):
    for graphs in [*refinement_corpora.values(), odd_molecules()]:
        assert scaffold_keys(graphs) == [scaffold_key_oracle(g) for g in graphs]
    assert len(set(scaffold_keys(refinement_corpora["corpus500"]))) > 10
    assert scaffold_keys(odd_molecules()) == ["", "", scaffold_key(parse("c1ccccc1")), ""]


def test_scaffold_keys_equal_the_ring_loop_kernel(refinement_corpora):
    bondless = [MolGraph([AtomAttr(6)] * n, []) for n in (1, 3)]
    for graphs in [*refinement_corpora.values(), odd_molecules(), bondless,
                   bondless + odd_molecules() + refinement_corpora["seed2"][:20] + bondless]:
        assert scaffold_keys(graphs) == scaffold_keys_ring_loop_oracle(graphs)


def test_a_scaffold_key_does_not_depend_on_its_corpus(corpus500):
    graphs = corpus500[:80] + odd_molecules()
    perm = np.random.default_rng(4).permutation(len(graphs))
    alone = [scaffold_key(g) for g in graphs]
    assert scaffold_keys(graphs) == alone
    assert scaffold_keys(iter([graphs[i] for i in perm])) == [alone[i] for i in perm]


def test_corpus_kernels_raise_no_numpy_warning(corpus500):
    """uint64 array arithmetic wraps silently; a scalar left in the kernel
    would warn on overflow, and library callers see warnings."""
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        morgan_fingerprints(corpus500, FingerprintConfig(3, 65536))
        morgan_fingerprints([], FingerprintConfig())
        scaffold_keys(corpus500)
        scaffold_keys(odd_molecules())
        scaffold_keys([])


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



def _tie_loop_auc(scores, labels):
    # auc_score with its ranks from the hand-written tie loop np.unique replaced
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(labels) == 1
    n_pos = int(pos.sum())
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores), dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j < len(scores) and sorted_scores[j] == sorted_scores[i]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + 1 + j)
        i = j
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * (len(scores) - n_pos)))


def test_auc_bits_equal_the_tie_loop():
    rng = np.random.default_rng(9)
    for case in range(1000):
        n = int(rng.integers(2, 120))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        if case % 2:   # few distinct values force ties; signed zeros tie with each other
            scores = rng.choice([-0.0, 0.0, 0.5, -1.25, 3.0, 1e-300, rng.normal()], size=n)
        else:
            scores = rng.normal(size=n) * 10.0 ** rng.uniform(-5, 5)
        assert bits(auc_score(scores, labels)) == bits(_tie_loop_auc(scores, labels)), case


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


def test_a_batch_with_a_constant_loss_takes_no_step(small_corpus, monkeypatch):
    # beta=1 leaves no pair to align, so in batches of one a single-motif
    # molecule, or one whose plan masks no atom type, gives a constant loss
    import moama.gin

    graphs = [parse(s) for s in ("CCO", "c1ccccc1", "CC(C)C")] + small_corpus[:6]
    cfg = replace(DESK, epochs=2, batch_pretrain=1, loss=LossConfig(beta=1.0))
    masked = []
    real = moama.gin.apply_mask

    def spy(g, plan):
        masked.append(bool(plan.masked_nodes[0]))
        return real(g, plan)

    monkeypatch.setattr(moama.gin, "apply_mask", spy)
    result = pretrain(graphs, cfg)
    assert len(masked) == 2 * len(graphs) and 0 < sum(masked) < len(masked)
    assert result.store.t == sum(masked)


def test_settings_with_nothing_to_learn_fail_before_the_first_epoch(small_corpus):
    single = [parse(s) for s in ("CCO", "c1ccccc1", "CC(C)C")]
    with pytest.raises(DataError, match=r"^no molecule has a motif eligible at mask\.hop_k=2; "
                                        "nothing can be masked$"):
        pretrain(single, DESK)
    random = replace(DESK, epochs=1, mask=MaskConfig(hop_k=2, mode="random_baseline"))
    assert len(pretrain(single, random).curve) == 1
    aux_only = replace(DESK, loss=LossConfig(beta=0.0))
    with pytest.raises(ConfigError, match=r"^loss\.beta=0 .* run\.batch_pretrain=16 over 1 "):
        pretrain(small_corpus[:1], aux_only)
    with pytest.raises(ConfigError, match=r"run\.batch_pretrain=1 over 48 "):
        pretrain(small_corpus, replace(aux_only, batch_pretrain=1))


def test_a_constant_batch_counts_in_the_epoch_means(small_corpus, monkeypatch):
    # 17 molecules in batches of 16 leave a lone last batch: nothing to align
    cfg = replace(DESK, epochs=1, loss=LossConfig(beta=0.0))
    graphs = small_corpus[:17]
    seen = []
    real = ad.Tensor.backward

    def spy(self):
        seen.append(self.item())
        real(self)

    monkeypatch.setattr(ad.Tensor, "backward", spy)
    result = pretrain(graphs, cfg)
    assert result.store.t == 1 and len(seen) == 1
    assert result.curve[0].loss == (seen[0] + 0.0) / 2


def test_empty_corpus_is_rejected_with_the_cli_message():
    with pytest.raises(DataError, match="^no parseable molecules in the dataset$"):
        pretrain([], DESK)


@pytest.mark.parametrize("mode", ["node_wise", "element_wise", "random_baseline"])
def test_a_run_checks_mask_eligibility_once_per_molecule(small_corpus, monkeypatch, mode):
    import moama.masking

    calls = []
    real = moama.masking.k_hop_neighborhood

    def counting(g, v, k):
        calls.append(v)
        return real(g, v, k)

    monkeypatch.setattr(moama.masking, "k_hop_neighborhood", counting)
    counts = []
    for epochs in (1, 3):
        calls.clear()
        pretrain(small_corpus, replace(DESK, epochs=epochs, mask=replace(DESK.mask, mode=mode)))
        counts.append(len(calls))
    # one BFS per molecule builds its table before epoch 1; epochs draw from it.
    # The baseline's plans read only the atom counts, so it makes none.
    assert counts == [0 if mode == "random_baseline" else len(small_corpus)] * 2


def test_each_batch_aligns_with_its_own_fingerprints(small_corpus, monkeypatch):
    import moama.train

    batches, checked = [], []
    real_tg, real_aux = moama.train.TensorGraph, moama.train.aux_loss

    class Recording:
        @staticmethod
        def from_graphs(graphs, plans=None):
            batches.append(list(graphs))
            return real_tg.from_graphs(graphs, plans)

    def checking(h_graphs, fingerprints, cfg):
        # the run's bit matrix, sliced per batch: the batch's fingerprints in batch order
        want = tanimoto_matrix(fingerprint_bits(batches[-1], FingerprintConfig(1, 64)))
        assert bits(tanimoto_matrix(fingerprints)) == bits(want)
        checked.append(len(batches[-1]))
        return real_aux(h_graphs, fingerprints, cfg)

    monkeypatch.setattr(moama.train, "TensorGraph", Recording)
    monkeypatch.setattr(moama.train, "aux_loss", checking)
    pretrain(small_corpus, replace(DESK, epochs=2, fp=FingerprintConfig(1, 64)))
    assert checked == [16, 16, 16] * 2


@pytest.mark.parametrize("mode", ["node_wise", "element_wise", "random_baseline"])
def test_rec_loss_gets_each_plans_entries_at_its_batch_offset(small_corpus, monkeypatch, mode):
    import moama.train

    plans, checked = [], []
    real_plan, real_rec = moama.train.build_plan, moama.train.rec_loss

    def planning(table, *args, **kwargs):
        plan = real_plan(table, *args, **kwargs)
        plans.append((table.n_atoms, plan))
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
    store = init_params(cfg.encoder, None, seed=cfg.seed + 104729)
    if pretrained is not None:
        store.load_values(pretrained, [n for n in store.names()
                                       if n.startswith(("embed.", "enc."))])
    trainable = None
    if cfg.finetune_mode == "probe":
        trainable = [n for n in store.names() if n.startswith("head.")]

    def logits_for(idx):
        tg = TensorGraph.from_graphs([graphs[i] for i in idx])
        h = encode(tg, store, cfg.encoder)
        return predict_label(readout(h, cfg.encoder.readout, tg.s.mol, len(tg.s.starts)), store)

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


def _probe_cfg(mode, learn_epsilon, readout_mode="mean", embed_dim=8):
    encoder = EncoderConfig(layers=2, embed_dim=embed_dim, readout=readout_mode,
                            learn_epsilon=learn_epsilon, epsilon=0.25)
    return RunConfig(epochs=1, finetune_epochs=4, batch_finetune=16, batch_pretrain=16,
                     seed=2, lr=0.01, encoder=encoder, mask=MaskConfig(hop_k=2),
                     finetune_mode=mode)


@pytest.mark.parametrize("learn_epsilon", [False, True], ids=["fixed_eps", "learn_eps"])
@pytest.mark.parametrize("pretrained", [False, True], ids=["fresh", "pretrained"])
@pytest.mark.parametrize("mode", ["probe", "full"])
def test_finetune_equals_the_name_filtered_adam_loop(mode, pretrained, learn_epsilon):
    graphs, labels = _labeled_task()
    for readout_mode in ("mean", "sum", "max"):
        cfg = _probe_cfg(mode, learn_epsilon, readout_mode)
        store = pretrain(graphs[:32], cfg).store if pretrained else None
        got = finetune_probe(store, graphs, labels, cfg)
        assert got == _finetune_probe_oracle(store, graphs, labels, cfg), readout_mode
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


@pytest.mark.parametrize("mode", ["probe", "full"])
def test_finetune_draws_no_decoder_and_the_heads_bits_ignore_targets(mode, monkeypatch):
    drawn, stores = [], []
    real_init, real_step = moama.train.init_params, ParamStore.adam_step

    def drawing(*args, **kwargs):
        store = real_init(*args, **kwargs)
        drawn.append({n: bits(store[n]) for n in store.names()})
        return store

    def recording(self, *args, **kwargs):
        stores.append(self.names())
        return real_step(self, *args, **kwargs)

    monkeypatch.setattr(moama.train, "init_params", drawing)
    monkeypatch.setattr(ParamStore, "adam_step", recording)
    graphs, labels = _labeled_task()
    reports = []
    for targets in TARGETS:
        cfg = replace(_probe_cfg(mode, True), loss=LossConfig(targets=targets))
        reports.append(finetune_probe(None, graphs, labels, cfg))
        assert reports[-1] == _finetune_probe_oracle(None, graphs, labels, cfg)
    assert len(drawn) == len(TARGETS) and stores
    assert not [n for store in drawn for n in store if n.startswith("dec.")]
    assert all(store == drawn[0] for store in drawn)   # the head's bits among them
    assert "head.w1" in drawn[0] and "enc.1.eps" in drawn[0]
    for names in stores:
        assert not [n for n in names if n.startswith("dec.")]
    assert all(r == reports[0] for r in reports)


def _batch_graph_vectors(graphs, store, cfg, idx):
    tg = TensorGraph.from_graphs([graphs[i] for i in idx])
    h = encode(tg, store, cfg.encoder)
    return readout(h, cfg.encoder.readout, tg.s.mol, len(tg.s.starts)).values


@pytest.mark.parametrize("readout_mode", ["mean", "sum", "max"])
@pytest.mark.parametrize("embed_dim", [8, 32])
def test_cached_graph_vectors_equal_per_batch_encodes(embed_dim, readout_mode):
    # widths 76 and up are left out: there BLAS rows depend on the batch
    graphs, _ = _labeled_task()
    cfg = _probe_cfg("probe", True, readout_mode, embed_dim)
    store = init_params(cfg.encoder, seed=4).frozen()
    cached = _frozen_graph_vectors(graphs, store, cfg)
    assert cached.shape == (len(graphs), embed_dim)
    order = np.random.default_rng(0).permutation(len(graphs))
    for size in (cfg.batch_finetune, 5, len(graphs)):
        for lo in range(0, len(graphs), size):
            idx = order[lo:lo + size]
            assert np.array_equal(cached[idx], _batch_graph_vectors(graphs, store, cfg, idx))


@pytest.mark.parametrize("embed_dim", [8, 32])
def test_a_one_row_tail_chunk_joins_the_chunk_before_it(embed_dim):
    graphs, _ = _labeled_task(n=32)
    graphs.append(parse("C"))                      # one atom, n = 33 = 1 (mod 16)
    cfg = _probe_cfg("probe", False, "mean", embed_dim)
    store = init_params(cfg.encoder, seed=4).frozen()
    cached = _frozen_graph_vectors(graphs, store, cfg)
    for idx in ([31, 32], [0, 32], list(range(16, 33))):
        assert np.array_equal(cached[32], _batch_graph_vectors(graphs, store, cfg, idx)[-1])


def _counting_encodes(monkeypatch):
    import moama.train

    calls = []
    real = moama.train.encode

    def counting(tg, *args, **kwargs):
        calls.append(len(tg.s.starts))
        return real(tg, *args, **kwargs)

    monkeypatch.setattr(moama.train, "encode", counting)
    return calls


@pytest.mark.parametrize("tail", [False, True], ids=["no_tail", "one_row_tail"])
def test_probe_encodes_each_molecule_once(tail, monkeypatch):
    graphs, labels = _labeled_task()
    if tail:                                       # n = 91 = 1 (mod 15)
        graphs, labels = graphs + [parse("C")], np.append(labels, 0.0)
    cfg = replace(_probe_cfg("probe", False), batch_finetune=15 if tail else 16)
    calls = _counting_encodes(monkeypatch)
    finetune_probe(None, graphs, labels, cfg)
    chunks = -(-len(graphs) // cfg.batch_finetune)
    assert len(calls) == (chunks - 1 if tail else chunks)
    assert sum(calls) == len(graphs)


def test_full_mode_encodes_every_batch_and_each_evaluation(monkeypatch):
    graphs, labels = _labeled_task()
    cfg = _probe_cfg("full", False)
    calls = _counting_encodes(monkeypatch)
    finetune_probe(None, graphs, labels, cfg)
    n_train = len(scaffold_split(graphs)[0])
    per_epoch = -(-n_train // cfg.batch_finetune) + 1     # training batches, then valid
    assert len(calls) == cfg.finetune_epochs * per_epoch + 1


def test_pretrain_plans_do_not_depend_on_the_planning_order(small_corpus, monkeypatch):
    # each plan keyed by the stream counter it was drawn at, (0, 0, epoch, i)
    real = moama.train.build_plan
    drawn = []

    def planning(table, cfg, rng):
        counter = rng.bit_generator.state["state"]["counter"].tolist()
        assert counter[:2] == [0, 0]
        drawn.append((tuple(counter[2:]), real(table, cfg, rng)))
        return drawn[-1][1]

    monkeypatch.setattr(moama.train, "build_plan", planning)
    runs = []
    for seed, batch in ((0, 16), (1, 5)):   # other shuffles, other batches; one mask seed
        drawn.clear()
        pretrain(small_corpus, replace(DESK, epochs=2, seed=seed, batch_pretrain=batch,
                                       mask=MaskConfig(hop_k=2, coverage=0.5, seed=3)))
        runs.append(list(drawn))
    assert [k for k, _ in runs[0]] != [k for k, _ in runs[1]]
    assert sorted(runs[0]) == sorted(runs[1])
    assert sorted(k for k, _ in runs[0]) == [(e, i) for e in range(2)
                                             for i in range(len(small_corpus))]
