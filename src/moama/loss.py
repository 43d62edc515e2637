"""Reconstruction losses, the fingerprint-alignment auxiliary loss, and the
beta-combined training objective.

Reconstruction compares decoder rows against one-hot targets. The decoder
computes rows only at masked nodes (``gin.decode_attrs``), so each
attribute's rows arrive already gathered, one per masked node:
  sce   mean of (1 - cos(target, row))^gamma over masked nodes, computed on
        the raw (softmax-free) rows; invariant to positive row rescaling
  ce    mean categorical cross-entropy of the softmaxed rows
  mse   mean squared error between softmaxed rows and the one-hot targets

The auxiliary loss aligns graph-vector cosines with fingerprint Tanimoto
similarity over the unordered pairs of the current batch. The squared
difference is the default; ``raw_difference`` keeps the signed form.

Each head's sce term (``autodiff.sce_term``) and the auxiliary loss
(``autodiff.alignment_term``) are single tape nodes, with the bits of the
composed chains they replaced. ce, mse, the two-head sum or average and the
beta combination are composed of the tape's primitive ops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .fingerprint import tanimoto_matrix
from .gin import ATTRIBUTES, TARGETS

REC_KINDS = ("sce", "ce", "mse")
AUX_FORMS = ("squared", "raw_difference")


@dataclass(frozen=True)
class LossConfig:
    rec_kind: str = "sce"
    gamma: float = 1.0
    beta: float = 0.5
    targets: str = "atom_type"
    aux_form: str = "squared"

    def __post_init__(self):
        if self.rec_kind not in REC_KINDS:
            raise ValueError(f"rec_kind must be one of {', '.join(REC_KINDS)}")
        if self.gamma < 1.0:
            raise ValueError("gamma must be >= 1")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")
        if self.targets not in TARGETS:
            raise ValueError(f"targets must be one of {', '.join(TARGETS)}")
        if self.aux_form not in AUX_FORMS:
            raise ValueError(f"aux_form must be one of {', '.join(AUX_FORMS)}")


def _one_dim_loss(rows: Tensor, codes: np.ndarray, cfg: LossConfig) -> Tensor:
    """One attribute's loss over its masked nodes' ``rows``, whose true codes
    are ``codes``: each row is scored against the one-hot row of its code."""
    onehot = np.zeros(rows.shape)
    onehot[np.arange(len(codes)), codes] = 1.0
    if cfg.rec_kind == "sce":
        return ad.sce_term(rows, onehot, cfg.gamma)
    target = ad.const(onehot)
    log_p = ad.log_softmax(rows)
    if cfg.rec_kind == "ce":
        picked = ad.tsum(log_p * target, axis=1)
        return ad.tmean(-picked)
    probs = ad.exp(log_p)
    return ad.tmean((probs - target) ** 2.0)


def rec_loss(logits: dict[str, Tensor], x_true: np.ndarray,
             masked_nodes: tuple, cfg: LossConfig) -> tuple[Tensor, int]:
    """Reconstruction loss over masked nodes.

    ``x_true`` holds pre-mask attribute codes for the whole batch;
    ``masked_nodes`` gives batch-level node indices per attribute dimension,
    and ``logits`` one row per node of them, in their order
    (``gin.decode_attrs``). Returns (loss, number of masked entries); the loss
    is exactly 0 when nothing is masked (empty plans).
    """
    terms = []
    n_masked = 0
    for name in logits:
        dim = ATTRIBUTES[name][0]
        idx = np.asarray(masked_nodes[dim], dtype=np.int64)
        if idx.size == 0:
            continue
        if logits[name].shape[0] != idx.size:
            raise ValueError(f"{logits[name].shape[0]} {name} rows for {idx.size} masked nodes")
        n_masked += idx.size
        terms.append(_one_dim_loss(logits[name], x_true[idx, dim], cfg))
    if not terms:
        return ad.const(0.0), 0
    if len(terms) == 1:
        return terms[0], n_masked
    if len(TARGETS[cfg.targets]) == 2:
        # two decoders' losses are independent; average them
        return (terms[0] + terms[1]) * 0.5, n_masked
    return terms[0] + terms[1], n_masked


def aux_loss(h_graphs: Tensor, fingerprints, cfg: LossConfig) -> tuple[Tensor, int]:
    """Tanimoto-alignment loss over unordered batch pairs. ``fingerprints``
    holds the batch's packed fingerprint bits, one row per graph
    (``fingerprint.fingerprint_bits``).

    Returns (loss, pair count); 0 with no pairs when the batch is smaller
    than two graphs.
    """
    n = h_graphs.values.shape[0]
    if n < 2:
        return ad.const(0.0), 0
    ii, jj = np.triu_indices(n, k=1)
    sims = tanimoto_matrix(fingerprints)[ii, jj]
    return ad.alignment_term(h_graphs, ii, jj, sims, cfg.aux_form == "squared"), len(ii)


def total_loss(l_rec: Tensor, l_aux: Tensor | None, beta: float) -> Tensor:
    """beta * L_rec + (1 - beta) * L_aux, exactly."""
    if beta == 1.0:
        return l_rec
    if l_aux is None:
        raise ValueError("l_aux is required when beta < 1")
    if beta == 0.0:
        return l_aux
    return l_rec * beta + l_aux * (1.0 - beta)
