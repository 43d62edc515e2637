import numpy as np
import pytest

from moama import autodiff as ad
from moama import morgan_fingerprint, parse
from moama.fingerprint import tanimoto_matrix
from moama.gin import ATTRIBUTES, TARGETS
from moama.loss import LossConfig, _one_dim_loss, aux_loss, rec_loss, total_loss

from conftest import bits, fd_gradient


def _single_dim(logit_rows, codes, cfg, n_classes=119):
    logits = {"atom_type": ad.parameter(np.asarray(logit_rows, dtype=float))}
    x_true = np.zeros((len(codes), 2), dtype=np.int64)
    x_true[:, 0] = codes
    masked = (list(range(len(codes))), [])
    return rec_loss(logits, x_true, masked, cfg)


def test_sce_perfect_direction_zero():
    cfg = LossConfig(rec_kind="sce", gamma=1.0)
    row = np.zeros(119)
    row[7] = 2.5  # any positive multiple of the one-hot target
    lossv, n = _single_dim([row], [7], cfg)
    assert n == 1
    assert lossv.item() == pytest.approx(0.0, abs=1e-9)


def test_sce_orthogonal_row_gamma_one_is_one():
    cfg = LossConfig(rec_kind="sce", gamma=1.0)
    row = np.zeros(119)
    row[3] = 1.0
    lossv, _ = _single_dim([row], [7], cfg)
    assert lossv.item() == pytest.approx(1.0)


def test_sce_invariant_to_positive_rescale():
    cfg = LossConfig(rec_kind="sce", gamma=2.0)
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(4, 119))
    l1, _ = _single_dim(rows, [5, 9, 0, 118], cfg)
    l2, _ = _single_dim(rows * 3.7, [5, 9, 0, 118], cfg)
    assert l1.item() == pytest.approx(l2.item(), rel=1e-12)


def test_ce_certain_true_class_zero():
    cfg = LossConfig(rec_kind="ce")
    row = np.full(119, -1000.0)
    row[11] = 1000.0
    lossv, _ = _single_dim([row], [11], cfg)
    assert lossv.item() == pytest.approx(0.0, abs=1e-12)


def test_mse_exact_onehot_zero():
    cfg = LossConfig(rec_kind="mse")
    row = np.full(119, -1000.0)
    row[4] = 1000.0
    lossv, _ = _single_dim([row], [4], cfg)
    assert lossv.item() == pytest.approx(0.0, abs=1e-12)


def test_all_losses_nonnegative_random():
    rng = np.random.default_rng(1)
    for kind in ("sce", "ce", "mse"):
        cfg = LossConfig(rec_kind=kind)
        rows = rng.normal(size=(6, 119))
        lossv, _ = _single_dim(rows, rng.integers(0, 119, size=6), cfg)
        assert lossv.item() >= 0.0


def test_empty_masked_set_returns_zero_flag():
    cfg = LossConfig()
    logits = {"atom_type": ad.const(np.zeros((3, 119)))}
    lossv, n = rec_loss(logits, np.zeros((3, 2), dtype=np.int64), ([], []), cfg)
    assert n == 0
    assert lossv.item() == 0.0


def test_two_decoder_loss_is_average_one_decoder_is_sum():
    rng = np.random.default_rng(2)
    atom_rows = rng.normal(size=(3, 119))
    chir_rows = rng.normal(size=(3, 4))
    x_true = np.zeros((3, 2), dtype=np.int64)
    x_true[:, 0] = [1, 2, 3]
    x_true[:, 1] = [0, 1, 2]
    masked = ([0, 1, 2], [0, 1, 2])
    logits = {"atom_type": ad.const(atom_rows), "chirality": ad.const(chir_rows)}
    two = rec_loss(logits, x_true, masked, LossConfig(targets="both_two_decoders"))[0]
    one = rec_loss(logits, x_true, masked, LossConfig(targets="both_one_decoder"))[0]
    la = rec_loss({"atom_type": ad.const(atom_rows)}, x_true, masked, LossConfig())[0]
    lc = rec_loss({"chirality": ad.const(chir_rows)}, x_true, masked,
                  LossConfig(targets="chirality"))[0]
    assert two.item() == pytest.approx(0.5 * (la.item() + lc.item()))
    assert one.item() == pytest.approx(la.item() + lc.item())


def test_rec_loss_gradients_match_fd():
    rng = np.random.default_rng(3)
    codes = rng.integers(0, 119, size=5)
    x_true = np.zeros((5, 2), dtype=np.int64)
    x_true[:, 0] = codes
    masked = (list(range(5)), [])
    for kind in ("sce", "ce", "mse"):
        cfg = LossConfig(rec_kind=kind, gamma=1.0 if kind != "sce" else 2.0)
        rows = rng.normal(size=(5, 119))

        def build():
            logits = {"atom_type": param}
            return rec_loss(logits, x_true, masked, cfg)[0]

        param = ad.parameter(rows)
        out = build()
        out.backward()
        flat_vals = param.values.reshape(-1)
        flat_grad = param.grad.reshape(-1)
        for _ in range(8):
            i = int(rng.integers(flat_vals.size))
            fd = fd_gradient(lambda: build().item(), flat_vals, i)
            assert flat_grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-8), kind


def _sce_term_oracle(rows, codes, n_classes, gamma):
    # the sce chain before the shared cosine: the one-hot target's norm left out
    onehot = np.zeros((len(codes), n_classes))
    onehot[np.arange(len(codes)), codes] = 1.0
    dot = ad.tsum(rows * ad.const(onehot), axis=1)
    norm = ad.sqrt(ad.tsum(rows * rows, axis=1) + 1e-24)
    return ad.tmean((1.0 - dot / (norm + 1e-12)) ** gamma)


def _sce_rec_loss_oracle(logits, x_true, masked_nodes, cfg):
    terms = []
    for name in logits:
        dim, n_classes = ATTRIBUTES[name]
        idx = np.asarray(masked_nodes[dim], dtype=np.int64)
        if idx.size:
            terms.append(_sce_term_oracle(ad.take_rows(logits[name], idx), x_true[idx, dim],
                                          n_classes, cfg.gamma))
    if len(terms) < 2:
        return terms[0] if terms else ad.const(0.0)
    return (terms[0] + terms[1]) * 0.5 if len(TARGETS[cfg.targets]) == 2 else terms[0] + terms[1]


def _awkward_rows(rng, n, width, scale):
    # zero rows and -0.0 columns among rows of one scale
    rows = rng.normal(size=(n, width)) * scale
    rows[rng.random(n) < 0.2] = 0.0
    rows[:, rng.random(width) < 0.2] = -0.0
    return rows


def _logits(values, targets):
    # the heads decode_attrs returns: both_one_decoder slices one joint tensor
    if targets == "both_one_decoder":
        return {"atom_type": ad.slice_cols(values, 0, 119),
                "chirality": ad.slice_cols(values, 119, 123)}
    return dict(zip((a for _, attrs in TARGETS[targets] for a in attrs), values))


@pytest.mark.parametrize("targets", sorted(TARGETS))
def test_sce_bits_equal_the_chain_without_the_target_norm(targets):
    rng = np.random.default_rng(11)
    widths = [ATTRIBUTES[a][1] for _, attrs in TARGETS[targets] for a in attrs]
    for case in range(400):
        scale = 10.0 ** rng.uniform(-8, 3)
        gamma = (1.0, 1.5, 2.0)[case % 3]
        n = int(rng.integers(1, 9))
        x_true = np.stack([rng.integers(0, 119, n), rng.integers(0, 4, n)], axis=1)
        masked = tuple(sorted(rng.choice(n, int(rng.integers(0, n + 1)), replace=False))
                       for _ in range(2))
        rows = [_awkward_rows(rng, n, w, scale) for w in widths]
        if targets == "both_one_decoder":
            rows = [np.concatenate(rows, axis=1)]
        cfg = LossConfig(gamma=gamma, targets=targets)
        runs = []
        for rec in (lambda lg: rec_loss(lg, x_true, masked, cfg)[0],
                    lambda lg: _sce_rec_loss_oracle(lg, x_true, masked, cfg)):
            params = [ad.parameter(r.copy()) for r in rows]
            lossv = rec(_logits(params[0] if targets == "both_one_decoder" else params, targets))
            if lossv.requires_grad:
                lossv.backward()
            runs.append([bits(lossv)] + [bits(np.zeros_like(p.values) if p.grad is None else p.grad)
                                         for p in params])
        assert runs[0] == runs[1], (targets, case)


@pytest.mark.parametrize("width", [4, 5, 119])
def test_sce_term_bits_equal_the_chain_at_any_width(width):
    rng = np.random.default_rng(width)
    for case in range(300):
        rows = _awkward_rows(rng, int(rng.integers(1, 9)), width, 10.0 ** rng.uniform(-8, 3))
        codes = rng.integers(0, width, len(rows))
        gamma = (1.0, 1.5, 2.0)[case % 3]
        runs = []
        for term in (lambda r: _one_dim_loss(r, codes, width, LossConfig(gamma=gamma)),
                     lambda r: _sce_term_oracle(r, codes, width, gamma)):
            param = ad.parameter(rows.copy())
            lossv = term(param)
            lossv.backward()
            runs.append((bits(lossv), bits(param.grad)))
        assert runs[0] == runs[1], (width, case)


def test_aux_identical_molecules_identical_embeddings_zero():
    g = parse("CCO")
    fps = [morgan_fingerprint(g), morgan_fingerprint(g)]
    h = ad.const(np.tile(np.array([1.0, 2.0, 3.0]), (2, 1)))
    lossv, pairs = aux_loss(h, fps, LossConfig())
    assert pairs == 1
    assert lossv.item() == pytest.approx(0.0, abs=1e-12)


def test_aux_matching_similarity_zero_term():
    # cosine of the two rows is 0.5; fingerprints engineered to tanimoto 0.5
    from moama.fingerprint import Fingerprint

    fa = Fingerprint(0b0011, 16, 2)
    fb = Fingerprint(0b0110, 16, 2)  # intersection 1, union 3
    fc = Fingerprint(0b0011, 16, 2)
    h = ad.const(np.array([[1.0, 0.0], [0.5, np.sqrt(3) / 2]]))  # cos = 0.5
    lossv, _ = aux_loss(h, [fa, fc], LossConfig())  # tanimoto 1 vs cos 0.5
    assert lossv.item() == pytest.approx(0.25)
    h2 = ad.const(np.array([[1.0, 0.0], [1.0, 0.0]]))
    lossv2, _ = aux_loss(h2, [fa, fb], LossConfig())  # tanimoto 1/3 vs cos 1
    assert lossv2.item() == pytest.approx((1.0 / 3.0 - 1.0) ** 2)


def test_aux_three_graph_batch_matches_pair_oracle():
    rng = np.random.default_rng(4)
    graphs = [parse(s) for s in ("CCO", "CCN", "c1ccccc1")]
    fps = [morgan_fingerprint(g) for g in graphs]
    h = rng.normal(size=(3, 8))
    from moama.fingerprint import tanimoto

    expected_terms = []
    for i in range(3):
        for j in range(i + 1, 3):
            cos = h[i] @ h[j] / (np.linalg.norm(h[i]) * np.linalg.norm(h[j]))
            expected_terms.append((tanimoto(fps[i], fps[j]) - cos) ** 2)
    lossv, pairs = aux_loss(ad.const(h), fps, LossConfig())
    assert pairs == 3
    assert lossv.item() == pytest.approx(np.mean(expected_terms), rel=1e-9)


def test_aux_raw_difference_mode():
    rng = np.random.default_rng(5)
    graphs = [parse(s) for s in ("CCO", "CCN", "c1ccccc1")]
    fps = [morgan_fingerprint(g) for g in graphs]
    h = rng.normal(size=(3, 8))
    from moama.fingerprint import tanimoto

    expected = []
    for i in range(3):
        for j in range(i + 1, 3):
            cos = h[i] @ h[j] / (np.linalg.norm(h[i]) * np.linalg.norm(h[j]))
            expected.append(tanimoto(fps[i], fps[j]) - cos)
    lossv, _ = aux_loss(ad.const(h), fps, LossConfig(aux_form="raw_difference"))
    assert lossv.item() == pytest.approx(np.mean(expected), rel=1e-9)


def test_aux_small_batch_zero_flag():
    lossv, pairs = aux_loss(ad.const(np.ones((1, 4))), [None], LossConfig())
    assert pairs == 0 and lossv.item() == 0.0


def test_aux_symmetric_under_batch_permutation():
    rng = np.random.default_rng(6)
    graphs = [parse(s) for s in ("CCO", "CCN", "c1ccccc1", "CCS")]
    fps = [morgan_fingerprint(g) for g in graphs]
    h = rng.normal(size=(4, 6))
    base = aux_loss(ad.const(h), fps, LossConfig())[0].item()
    perm = [2, 0, 3, 1]
    shuffled = aux_loss(ad.const(h[perm]), [fps[i] for i in perm], LossConfig())[0].item()
    assert shuffled == pytest.approx(base, rel=1e-12)


def test_aux_gradients_match_fd():
    rng = np.random.default_rng(7)
    graphs = [parse(s) for s in ("CCO", "CCN", "c1ccccc1")]
    fps = [morgan_fingerprint(g) for g in graphs]
    vals = rng.normal(size=(3, 6))
    param = ad.parameter(vals)

    def build():
        return aux_loss(param, fps, LossConfig())[0]

    build().backward()
    flat_vals = param.values.reshape(-1)
    flat_grad = param.grad.reshape(-1)
    for _ in range(8):
        i = int(rng.integers(flat_vals.size))
        fd = fd_gradient(lambda: build().item(), flat_vals, i)
        assert flat_grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def _aux_loss_oracle(h_graphs, fingerprints, cfg):
    # aux_loss before the shared cosine
    ii, jj = np.triu_indices(h_graphs.values.shape[0], k=1)
    a = ad.take_rows(h_graphs, ii)
    b = ad.take_rows(h_graphs, jj)
    dots = ad.tsum(a * b, axis=1)
    na = ad.sqrt(ad.tsum(a * a, axis=1) + 1e-24)
    nb = ad.sqrt(ad.tsum(b * b, axis=1) + 1e-24)
    diff = ad.const(tanimoto_matrix(fingerprints)[ii, jj]) - dots / (na * nb + 1e-12)
    return ad.tmean(diff ** 2.0 if cfg.aux_form == "squared" else diff)


@pytest.mark.parametrize("aux_form", ["squared", "raw_difference"])
def test_aux_bits_equal_the_chain_before_the_shared_cosine(aux_form):
    rng = np.random.default_rng(8)
    fps = [morgan_fingerprint(parse(s)) for s in ("CCO", "CCN", "c1ccccc1", "CCS", "CC(=O)O", "C")]
    cfg = LossConfig(aux_form=aux_form)
    for case in range(200):
        idx = rng.choice(len(fps), int(rng.integers(2, len(fps) + 1)), replace=False)
        h = _awkward_rows(rng, len(idx), int(rng.integers(1, 10)), 10.0 ** rng.uniform(-8, 3))
        runs = []
        for aux in (lambda t: aux_loss(t, [fps[i] for i in idx], cfg)[0],
                    lambda t: _aux_loss_oracle(t, [fps[i] for i in idx], cfg)):
            param = ad.parameter(h.copy())
            lossv = aux(param)
            lossv.backward()
            runs.append((bits(lossv), bits(param.grad)))
        assert runs[0] == runs[1], (aux_form, case)


def test_total_loss_affine_combination():
    lr = ad.const(0.4)
    la = ad.const(0.2)
    assert total_loss(lr, la, 1.0).item() == pytest.approx(0.4)
    assert total_loss(lr, la, 0.0).item() == pytest.approx(0.2)
    assert total_loss(lr, la, 0.5).item() == pytest.approx(0.3)
    assert total_loss(lr, None, 1.0).item() == pytest.approx(0.4)
    with pytest.raises(ValueError):
        total_loss(lr, None, 0.5)


def test_config_validation():
    with pytest.raises(ValueError):
        LossConfig(gamma=0.5)
    with pytest.raises(ValueError):
        LossConfig(beta=1.5)
    with pytest.raises(ValueError):
        LossConfig(rec_kind="huber")
