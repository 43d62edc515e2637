"""Reconstruction losses, the fingerprint-alignment auxiliary loss, and the
beta-combined training objective.

Reconstruction compares decoder rows at masked nodes against one-hot targets:
  sce   mean of (1 - cos(target, row))^gamma over masked nodes, computed on
        the raw (softmax-free) rows; invariant to positive row rescaling
  ce    mean categorical cross-entropy of the softmaxed rows
  mse   mean squared error between softmaxed rows and the one-hot targets

The auxiliary loss aligns graph-vector cosines with fingerprint Tanimoto
similarity over the unordered pairs of the current batch. The squared
difference is the default; ``raw_difference`` keeps the signed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .fingerprint import tanimoto_matrix
from .gin import ATTRIBUTES, TARGETS

_NORM_FLOOR = 1e-24   # smooths the cosine at an all-zero row
_COS_EPS = 1e-12

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


def _cosine(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise cosine of ``a`` and ``b``, its norms floored at an all-zero row."""
    return ad.tsum(a * b, axis=1) / (ad.sqrt(ad.tsum(a * a, axis=1) + _NORM_FLOOR)
                                     * ad.sqrt(ad.tsum(b * b, axis=1) + _NORM_FLOOR) + _COS_EPS)


def _one_dim_loss(rows: Tensor, target_codes: np.ndarray, n_classes: int,
                  cfg: LossConfig) -> Tensor:
    onehot = np.zeros((len(target_codes), n_classes))
    onehot[np.arange(len(target_codes)), target_codes] = 1.0
    target = ad.const(onehot)
    if cfg.rec_kind == "sce":
        # the one-hot target's norm is sqrt(1 + 1e-24) == 1.0, so its product is exact
        return ad.tmean((1.0 - _cosine(rows, target)) ** cfg.gamma)
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
    ``masked_nodes`` gives batch-level node indices per attribute dimension.
    Returns (loss, number of masked entries); the loss is exactly 0 when
    nothing is masked (infeasible-plan molecules).
    """
    terms = []
    n_masked = 0
    for name in logits:
        dim, n_classes = ATTRIBUTES[name]
        idx = np.asarray(masked_nodes[dim], dtype=np.int64)
        if idx.size == 0:
            continue
        n_masked += idx.size
        rows = ad.take_rows(logits[name], idx)
        codes = x_true[idx, dim]
        terms.append(_one_dim_loss(rows, codes, n_classes, cfg))
    if not terms:
        return ad.const(0.0), 0
    if len(terms) == 1:
        return terms[0], n_masked
    if len(TARGETS[cfg.targets]) == 2:
        # two decoders' losses are independent; average them
        return (terms[0] + terms[1]) * 0.5, n_masked
    return terms[0] + terms[1], n_masked


def aux_loss(h_graphs: Tensor, fingerprints, cfg: LossConfig) -> tuple[Tensor, int]:
    """Tanimoto-alignment loss over unordered batch pairs.

    Returns (loss, pair count); 0 with no pairs when the batch is smaller
    than two graphs.
    """
    n = h_graphs.values.shape[0]
    if n < 2:
        return ad.const(0.0), 0
    ii, jj = np.triu_indices(n, k=1)
    sims = tanimoto_matrix(fingerprints)[ii, jj]
    diff = ad.const(sims) - _cosine(ad.take_rows(h_graphs, ii), ad.take_rows(h_graphs, jj))
    if cfg.aux_form == "squared":
        diff = diff ** 2.0
    return ad.tmean(diff), len(ii)


def total_loss(l_rec: Tensor, l_aux: Tensor | None, beta: float) -> Tensor:
    """beta * L_rec + (1 - beta) * L_aux, exactly."""
    if beta == 1.0:
        return l_rec
    if l_aux is None:
        raise ValueError("l_aux is required when beta < 1")
    if beta == 0.0:
        return l_aux
    return l_rec * beta + l_aux * (1.0 - beta)
