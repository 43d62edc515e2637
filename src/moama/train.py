"""Pre-training loop, scaffold splitting, probe/fine-tune evaluation, and the
binary checkpoint format.

All randomness is derived statelessly: the epoch shuffle comes from
(seed, epoch) and each molecule's mask plan from (mask seed XOR molecule
index, epoch), so runs are bit-reproducible and resuming from a checkpoint
matches an uninterrupted run exactly.

Checkpoint layout (little-endian):
  magic "MOAM" | u32 version | u32 len + config JSON | u32 len + RNG JSON |
  u64 adam step | u32 epochs completed | u32 tensor count | per tensor
  (sorted by name): u16 name len + name | u8 ndim + u32 dims | float64 values
  | float64 Adam m | float64 Adam v
"""

from __future__ import annotations

import json
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .config import RunConfig, build_section
from .errors import ConfigError, DataError, read_input, write_output
from .fingerprint import hash_rows, morgan_fingerprints, refine
from .gin import (
    EncoderConfig,
    ParamStore,
    TensorGraph,
    decode_attrs,
    encode,
    encoder_shapes,
    init_params,
    param_shapes,
    predict_label,
    readout,
)
from .loss import aux_loss, rec_loss, total_loss
from .masking import apply_mask, build_plan, eligible_motifs, plan_rng
from .molgraph import MASK_ATOM_TYPE, MASK_CHIRALITY, MolGraph, stack_edges
from .motif import decompose

CHECKPOINT_MAGIC = b"MOAM"
CHECKPOINT_VERSION = 1

# Train/valid/test shares of the scaffold split (Hu et al. 2020)
SPLIT_FRACTIONS = (0.8, 0.1, 0.1)


@dataclass
class Checkpoint:
    store: ParamStore
    config: dict[str, str]
    rng: dict
    epoch: int

    def encoder_config(self) -> EncoderConfig:
        """The encoder settings of the config snapshot, checked against the
        checkpoint's own encoder tensors."""
        try:
            enc = build_section(EncoderConfig, "encoder", self.config)
        except ConfigError as e:
            raise DataError(f"checkpoint config snapshot: {e}") from e
        check_encoder_tensors(self.store, enc)
        return enc


def check_encoder_tensors(store: ParamStore, enc: EncoderConfig) -> list[str]:
    """Names of the encoder tensors (``embed.*``, ``enc.*``) of ``enc``.

    Raises DataError unless ``store`` holds exactly those encoder tensors,
    each with the shape ``init_params(enc)`` gives it.
    """
    return _check_tensors(store, encoder_shapes(enc), ("embed.", "enc."))


def _check_tensors(store: ParamStore, shapes: dict, prefixes: tuple[str, ...]) -> list[str]:
    """Names of the tensors in ``shapes`` under ``prefixes``; raises DataError
    unless ``store`` holds exactly those tensors under them, each with its
    shape. The message names the tensor."""
    want = {n: s for n, s in shapes.items() if n.startswith(prefixes)}
    have = {n: store[n].values.shape for n in store.names() if n.startswith(prefixes)}
    for name in sorted(have.keys() | want.keys()):
        part = "decoder" if name.startswith("dec.") else "encoder"
        if name not in have:
            raise DataError(f"checkpoint lacks {part} tensor {name}")
        if name not in want:
            raise DataError(f"checkpoint tensor {name} is not in its {part} settings")
        if have[name] != want[name]:
            raise DataError(f"checkpoint tensor {name} has shape {have[name]}, "
                            f"its {part} settings need {want[name]}")
    return sorted(want)


def save_checkpoint(path, store: ParamStore, config: dict[str, str],
                    rng: dict, epoch: int) -> None:
    """Write the byte-exact checkpoint; save->load->save is identical."""
    out = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    for blob in (config, rng):
        data = json.dumps(blob, sort_keys=True, separators=(",", ":")).encode()
        out.append(struct.pack("<I", len(data)))
        out.append(data)
    out.append(struct.pack("<QI", store.t, epoch))
    names = store.names()
    out.append(struct.pack("<I", len(names)))
    for name in names:
        raw = name.encode()
        t = store.params[name]
        out.append(struct.pack("<H", len(raw)))
        out.append(raw)
        out.append(struct.pack("<B", t.values.ndim))
        out.append(struct.pack(f"<{t.values.ndim}I", *t.values.shape))
        for arr in (t.values, store.m[name], store.v[name]):
            out.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    write_output(path, b"".join(out), "checkpoint")


def load_checkpoint(path) -> Checkpoint:
    data = read_input(path, "checkpoint", text=False)
    if data[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"{path} is not a checkpoint (bad magic)")
    try:
        return _decode_checkpoint(data)
    except (struct.error, ValueError) as e:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and the short
        # buffers np.frombuffer rejects: all mean a truncated or corrupt file
        raise DataError(f"{path} is truncated or corrupt: {e}") from e


def _decode_checkpoint(data: bytes) -> Checkpoint:
    pos = 4   # the read cursor, just past the magic

    def advance(n: int) -> int:   # the cursor's offset; the cursor moves n bytes on
        nonlocal pos
        pos += n
        return pos - n

    def unpack(fmt: str) -> tuple:
        return struct.unpack_from(fmt, data, advance(struct.calcsize(fmt)))

    def blob(fmt: str) -> bytes:   # bytes after their length, packed in fmt
        (n,) = unpack(fmt)
        start = advance(n)
        return data[start:start + n]

    (version,) = unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version {version}")
    config, rng = [json.loads(blob("<I").decode()) for _ in range(2)]
    if not (isinstance(config, dict) and all(isinstance(v, str) for v in config.values())):
        raise ValueError("its config snapshot is not a JSON object of strings")
    adam_t, epoch = unpack("<QI")
    (count,) = unpack("<I")
    params, moments_m, moments_v = {}, {}, {}
    for _ in range(count):
        name = blob("<H").decode()
        (ndim,) = unpack("<B")
        shape = unpack(f"<{ndim}I")
        size = int(np.prod(shape, dtype=np.int64)) if ndim else 1
        values, moments_m[name], moments_v[name] = [
            np.frombuffer(data, "<f8", size, advance(8 * size)).reshape(shape).astype(np.float64)
            for _ in range(3)]
        params[name] = ad.parameter(values)
    store = ParamStore(params)
    store.m, store.v, store.t = moments_m, moments_v, adam_t
    return Checkpoint(store, config, rng, epoch)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    loss: float
    rec: float
    aux: float | None
    feasible_frac: float


@dataclass
class PretrainResult:
    store: ParamStore
    curve: list[EpochStats]


def loss_curve_rows(curve, include_aux: bool) -> list[str]:
    header = "epoch,loss,rec,aux,feasible_frac" if include_aux else "epoch,loss,rec,feasible_frac"
    rows = [header]
    for s in curve:
        cells = [str(s.epoch), repr(s.loss), repr(s.rec)]
        if include_aux:
            cells.append(repr(s.aux))
        cells.append(repr(s.feasible_frac))
        rows.append(",".join(cells))
    return rows


def pretrain(graphs, cfg: RunConfig, resume: Checkpoint | None = None,
             progress=None) -> PretrainResult:
    """Masked-reconstruction pre-training over a molecule corpus.

    Per epoch: fresh mask plans per molecule, encode the masked attributes,
    decode, combine losses, one Adam step per batch. An infeasible plan (one
    that stays at or below ``alpha_min``) still masks the motifs it selected;
    only a molecule whose plan is empty adds no reconstruction loss. A batch
    whose loss is a constant (nothing masked, no pair to align) takes no Adam
    step, and its loss still counts in the epoch means. Each
    molecule's mask eligibility (``masking.eligible_motifs``) does not depend
    on the epoch, so it is computed once per molecule, before the first epoch.
    Settings that leave every batch nothing to learn fail before it: a DataError
    when no molecule has an eligible motif under a motif mask mode, and a
    ConfigError when ``loss.beta`` is 0 and no batch can hold a pair.
    A ``resume`` store whose encoder or decoder tensors do not fit
    ``cfg.encoder`` and ``cfg.loss.targets`` is a DataError.
    """
    graphs = list(graphs)
    if not graphs:
        raise DataError("no parseable molecules in the dataset")
    if cfg.loss.beta == 0.0 and min(len(graphs), cfg.batch_pretrain) < 2:
        raise ConfigError(f"loss.beta=0 needs batches of two molecules or more; "
                          f"run.batch_pretrain={cfg.batch_pretrain} over {len(graphs)} "
                          "molecules gives none")
    if resume is not None:
        check_encoder_tensors(resume.store, cfg.encoder)
        _check_tensors(resume.store, param_shapes(cfg.encoder, cfg.loss.targets), ("dec.",))
        store, start_epoch = resume.store, resume.epoch
    else:
        store, start_epoch = init_params(cfg.encoder, cfg.loss.targets, seed=cfg.seed), 0
    rules = cfg.motif.rule_table()
    decomps = [decompose(g, rules) for g in graphs]
    motif_masking = cfg.mask.mode != "random_baseline"
    eligible = ([eligible_motifs(g, d, cfg.mask.hop_k) for g, d in zip(graphs, decomps)]
                if motif_masking else [None] * len(graphs))
    if motif_masking and not any(eligible):
        raise DataError(f"no molecule has a motif eligible at mask.hop_k={cfg.mask.hop_k}; "
                        "nothing can be masked")

    use_aux = cfg.loss.beta < 1.0
    fps = morgan_fingerprints(graphs, cfg.fp) if use_aux else None

    curve: list[EpochStats] = []
    n = len(graphs)
    for epoch in range(start_epoch, cfg.epochs):
        order = np.random.default_rng([cfg.seed, 7, epoch]).permutation(n)
        epoch_resample = epoch if cfg.mask.resample_per_epoch else 0
        sums = {"loss": 0.0, "rec": 0.0, "aux": 0.0}
        n_batches = 0
        n_feasible = 0
        for lo in range(0, n, cfg.batch_pretrain):
            batch_idx = order[lo:lo + cfg.batch_pretrain]
            batch_graphs = [graphs[i] for i in batch_idx]
            plans = [
                build_plan(graphs[i], decomps[i], cfg.mask,
                           plan_rng(cfg.mask.seed, int(i), epoch_resample), eligible[i])
                for i in batch_idx
            ]
            n_feasible += sum(p.feasible for p in plans)
            x_masked = [apply_mask(g, p) for g, p in zip(batch_graphs, plans)]
            tg = TensorGraph.from_graphs(batch_graphs, x_masked)
            # mask codes lie outside the real code spaces: they mark the plans
            masked = (np.flatnonzero(tg.atom_type == MASK_ATOM_TYPE),
                      np.flatnonzero(tg.chirality == MASK_CHIRALITY))
            x_true = np.concatenate([g.X for g in batch_graphs])

            h = encode(tg, store, cfg.encoder)
            logits = decode_attrs(tg, h, store, cfg.encoder, cfg.loss.targets)
            l_rec, _ = rec_loss(logits, x_true, masked, cfg.loss)
            l_aux = None
            if use_aux:
                h_graph = readout(h, cfg.encoder.readout, tg.graph_ids, tg.n_graphs)
                batch_fps = [fps[i] for i in batch_idx]
                l_aux, _ = aux_loss(h_graph, batch_fps, cfg.loss)
            total = total_loss(l_rec, l_aux, cfg.loss.beta)

            if total.requires_grad:   # a constant loss has nothing to learn
                store.zero_grad()
                total.backward()
                store.adam_step(lr=cfg.lr)

            sums["loss"] += total.item()
            sums["rec"] += l_rec.item()
            if use_aux:
                sums["aux"] += l_aux.item()
            n_batches += 1

        stats = EpochStats(
            epoch=epoch + 1,
            loss=sums["loss"] / n_batches,
            rec=sums["rec"] / n_batches,
            aux=sums["aux"] / n_batches if use_aux else None,
            feasible_frac=n_feasible / n,
        )
        curve.append(stats)
        if progress is not None:
            progress(stats)

    return PretrainResult(store, curve)


# --- scaffold splitting ----------------------------------------------------

def scaffold_keys(graphs) -> list[str]:
    """Canonical key for each molecule's ring systems plus linkers.

    Side chains are pruned by repeatedly deleting non-ring atoms with at most
    one kept neighbor; the result does not depend on the deletion order, so
    every molecule is pruned at once. The remainder is hashed with iterated
    neighborhood refinement (``fingerprint.refine``, one call per round for
    the whole corpus) over (atom type, bond order): a molecule with k kept
    atoms runs k rounds, then its key is the hash of k and its sorted codes.
    Isomorphic scaffolds share a key and acyclic molecules map to the empty
    key.
    """
    graphs = list(graphs)
    if not graphs:
        return []
    sizes = [g.n_atoms for g in graphs]
    offsets = np.cumsum([0] + sizes[:-1]).tolist()
    src, dst, order = stack_edges(graphs)
    n = sum(sizes)
    on_ring = np.zeros(n, dtype=bool)
    on_ring[[off + v for g, off in zip(graphs, offsets)
             for b in g.bonds if b.in_ring for v in (b.u, b.v)]] = True
    kept = np.ones(n, dtype=bool)
    while True:
        drop = kept & ~on_ring & (np.bincount(dst[kept[src]], minlength=n) <= 1)
        if not drop.any():
            break
        kept &= ~drop

    nodes = np.flatnonzero(kept)
    mol = np.repeat(np.arange(len(graphs)), sizes)[nodes]
    n_kept = np.bincount(mol, minlength=len(graphs))
    index = np.cumsum(kept) - 1
    sub = kept[src] & kept[dst]
    src, dst, order = index[src[sub]], index[dst[sub]], order[sub]
    atom_type = np.concatenate([g.X[:, 0] for g in graphs])[nodes]
    codes = hash_rows([np.ones(len(nodes), dtype=np.uint64), atom_type])
    rounds = n_kept[mol]
    for r in range(1, int(n_kept.max()) + 1):
        codes = np.where(rounds >= r, refine(codes, src, dst, order, 2), codes)
    by_mol = codes[np.lexsort((codes, mol))]
    final = hash_rows([n_kept], by_mol, n_kept)
    return [format(h, "016x") if k else "" for h, k in zip(final.tolist(), n_kept.tolist())]


def scaffold_key(g: MolGraph) -> str:
    """``scaffold_keys`` of one molecule."""
    return scaffold_keys([g])[0]


def scaffold_split(graphs):
    """Group records by scaffold key (``scaffold_keys``, one call for the
    whole corpus) and fill train/valid/test in order.

    Groups are sorted by descending size then key and never straddle splits:
    train fills until it holds at least its share (``SPLIT_FRACTIONS``) of
    records, then valid until train and valid hold theirs; the rest is test.
    """
    train_share, valid_share, _ = SPLIT_FRACTIONS
    groups: dict[str, list[int]] = {}
    for i, key in enumerate(scaffold_keys(graphs)):
        groups.setdefault(key, []).append(i)
    ordered = sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0]))

    n = sum(len(members) for members in groups.values())
    train, valid, test = [], [], []
    for _, members in ordered:
        if len(train) < train_share * n:
            train.extend(members)
        elif len(train) + len(valid) < (train_share + valid_share) * n:
            valid.extend(members)
        else:
            test.extend(members)
    if not valid or not test:
        warnings.warn("scaffold split left an empty valid or test set")
    return sorted(train), sorted(valid), sorted(test)


# --- evaluation ------------------------------------------------------------

def auc_score(scores, labels) -> float:
    """Area under the ROC curve via the rank statistic; ties count half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC needs both classes present")
    # a run of tied scores takes its mean 1-based rank, a half-integer
    _, run, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = 0.5 * (ends - counts + 1 + ends)[run]
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


@dataclass(frozen=True)
class ProbeReport:
    test_auc: float
    valid_auc: float
    best_epoch: int
    mode: str
    split_sizes: tuple[int, int, int]


def _bce(logits, y_const):
    # stable binary cross-entropy on logits: relu(z) - z*y + log(1 + e^-|z|)
    z = logits
    abs_z = ad.relu(z) + ad.relu(-z)
    return ad.tmean(ad.relu(z) - z * y_const + ad.log(1.0 + ad.exp(-abs_z)))


def _graph_vectors(graphs, store: ParamStore, enc: EncoderConfig) -> ad.Tensor:
    """Readout of one batch of molecules: one row per molecule."""
    tg = TensorGraph.from_graphs(graphs)
    return readout(encode(tg, store, enc), enc.readout, tg.graph_ids, tg.n_graphs)


def _frozen_graph_vectors(graphs, store: ParamStore, cfg: RunConfig) -> np.ndarray:
    """One readout row per molecule, in corpus order, from an encoder that
    ``store`` holds constant. Encodes chunks of ``cfg.batch_finetune``
    molecules. A chunk of one node row would take BLAS's matrix-vector path,
    whose bits differ from those of a row of a matrix product, so it joins
    its neighbour unless the whole corpus is one row."""
    chunks = []
    for lo in range(0, len(graphs), cfg.batch_finetune):
        chunk = graphs[lo:lo + cfg.batch_finetune]
        if chunks and 1 in (sum(g.n_atoms for g in chunk), sum(g.n_atoms for g in chunks[-1])):
            chunks[-1] = chunks[-1] + chunk
        else:
            chunks.append(chunk)
    return np.concatenate([_graph_vectors(chunk, store, cfg.encoder).values for chunk in chunks])


def finetune_probe(pretrained: ParamStore | None, graphs, labels,
                   cfg: RunConfig) -> ProbeReport:
    """Scaffold-split probe or full fine-tune on a binary task.

    Attaches a fresh prediction head, trains with binary cross-entropy,
    selects the epoch by validation AUC, reports test AUC. ``probe`` mode
    freezes every parameter except ``head.*`` (``ParamStore.frozen``), so a
    molecule's graph vector cannot change: it encodes and reads out each
    molecule once, before the first epoch, in chunks of ``batch_finetune``
    molecules (``_frozen_graph_vectors``), and the head trains on those rows.
    ``full`` updates everything and encodes every batch.
    """
    graphs = list(graphs)
    labels = np.asarray(labels, dtype=np.float64)
    if len(graphs) != len(labels):
        raise DataError("labels and graphs differ in length")
    if np.isnan(labels).any():
        raise DataError("missing labels in fine-tuning dataset")
    bad = labels[~np.isin(labels, (0.0, 1.0))]
    if bad.size:
        raise DataError(f"fine-tuning labels must be 0 or 1, got {float(bad[0])}")
    train_idx, valid_idx, test_idx = scaffold_split(graphs)
    for name, idx in (("train", train_idx), ("valid", valid_idx), ("test", test_idx)):
        if not idx:
            raise DataError(f"{name} split is empty")
        if len(set(labels[idx])) < 2:
            raise DataError(f"single-class {name} split; AUC undefined")

    # drawn with the decoders, which come first, so the head keeps its initial
    # bits; then the decoders are dropped: nothing here reads them
    drawn = init_params(cfg.encoder, cfg.loss.targets, seed=cfg.seed + 104729)
    store = ParamStore({n: t for n, t in drawn.params.items() if not n.startswith("dec.")})
    if pretrained is not None:
        # only the encoder transfers; the head is fresh
        store.load_values(pretrained, check_encoder_tensors(pretrained, cfg.encoder))
    if cfg.finetune_mode == "probe":
        store = store.frozen([n for n in store.names() if not n.startswith("head.")])
        hg_all = _frozen_graph_vectors(graphs, store, cfg)

        def graph_vectors(idx):
            return ad.const(hg_all[idx])
    else:
        def graph_vectors(idx):
            return _graph_vectors([graphs[i] for i in idx], store, cfg.encoder)

    def scores_for(idx):
        return predict_label(graph_vectors(idx), store).values[:, 0]

    best = (-1.0, 0, None)
    for epoch in range(cfg.finetune_epochs):
        order = np.random.default_rng([cfg.seed, 11, epoch]).permutation(len(train_idx))
        for lo in range(0, len(train_idx), cfg.batch_finetune):
            batch = [train_idx[i] for i in order[lo:lo + cfg.batch_finetune]]
            logits = predict_label(graph_vectors(batch), store)
            y = ad.const(labels[batch][:, None])
            lossv = _bce(logits, y)
            store.zero_grad()
            lossv.backward()
            store.adam_step(lr=cfg.lr)
        v_auc = auc_score(scores_for(valid_idx), labels[valid_idx])
        if v_auc > best[0]:
            best = (v_auc, epoch + 1, store.copy())

    store = best[2]
    test_auc = auc_score(scores_for(test_idx), labels[test_idx])
    return ProbeReport(test_auc, best[0], best[1], cfg.finetune_mode,
                       (len(train_idx), len(valid_idx), len(test_idx)))
