"""Motif-aware attribute masking plans and the masked attribute matrix.

A plan selects non-adjacent motifs until the masked-node fraction lands
strictly inside (alpha_min, alpha_max), then picks a coverage fraction of
nodes inside each selected motif, either node-wise (same nodes masked in both
attribute dimensions) or element-wise (independent per-dimension draws). A
uniform random baseline without motif constraints is also provided; its
fraction defaults to the midpoint of the alpha bounds so budgets match.

Selection criteria for a motif:
  1. every node in it has some node outside the motif within hop_k hops, so
     masked nodes keep access to unmasked context inside the receptive field;
  2. selected motifs are pairwise non-adjacent.

Criterion 1 depends only on the molecule, its decomposition and hop_k, and
draws no random numbers. ``eligible_motifs`` is its one implementation; a
caller that plans the same molecule many times (pre-training, once per epoch)
computes it once per molecule and passes it to ``build_plan``, which otherwise
computes it itself.

Molecules where no selection can reach alpha_min (e.g. a single giant motif)
keep an empty or undersized plan with ``feasible=False``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .molgraph import MASK_ATOM_TYPE, MASK_CHIRALITY, MolGraph, k_hop_neighborhood
from .motif import MotifDecomposition, motif_adjacency

MASK_MODES = ("node_wise", "element_wise", "random_baseline")


@dataclass(frozen=True)
class MaskConfig:
    alpha_min: float = 0.15
    alpha_max: float = 0.25
    coverage: float = 1.0
    mode: str = "node_wise"
    hop_k: int = 5
    seed: int = 0
    resample_per_epoch: bool = True

    def __post_init__(self):
        if not 0.0 < self.alpha_min < self.alpha_max < 1.0:
            raise ValueError("alpha_min and alpha_max need 0 < alpha_min < alpha_max < 1")
        if not 0.0 < self.coverage <= 1.0:
            raise ValueError("coverage must be in (0, 1]")
        if self.mode not in MASK_MODES:
            raise ValueError(f"mode must be one of {', '.join(MASK_MODES)}")
        if self.hop_k < 0:
            raise ValueError("hop_k must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class MaskPlan:
    selected_motifs: tuple[int, ...]
    masked_nodes: tuple[tuple[int, ...], tuple[int, ...]]  # per attribute dim
    realized_alpha: float
    feasible: bool

    @property
    def all_masked(self) -> frozenset[int]:
        return frozenset(self.masked_nodes[0]) | frozenset(self.masked_nodes[1])


def _coverage_count(size: int, coverage: float) -> int:
    # round half-up with a floor of one node
    return max(1, int(np.floor(coverage * size + 0.5)))


def eligible_motifs(g: MolGraph, dec: MotifDecomposition, hop_k: int) -> tuple[int, ...]:
    """Ascending indices of the motifs whose every member has a non-member
    within hop_k hops (selection criterion 1).

    Distance is symmetric, so that holds when one BFS from all of the
    motif's non-members, cut at hop_k, reaches every member.
    """
    n = g.n_atoms
    eligible = []
    for mi, motif in enumerate(dec.motifs):
        members = set(motif.node_ids)
        if len(members) == n:
            continue  # no inter-motif nodes exist
        outside = [u for u in range(n) if u not in members]
        if members <= k_hop_neighborhood(g, outside, hop_k):
            eligible.append(mi)
    return tuple(eligible)


def sample_motifs(
    g: MolGraph,
    dec: MotifDecomposition,
    cfg: MaskConfig,
    rng: np.random.Generator,
    eligible: tuple[int, ...] | None = None,
) -> MaskPlan:
    """Draw a motif-aware plan: shuffled greedy selection, then coverage.

    ``eligible`` is ``eligible_motifs(g, dec, cfg.hop_k)``, computed here
    when not given.
    """
    n = g.n_atoms
    if eligible is None:
        eligible = eligible_motifs(g, dec, cfg.hop_k)

    adj = motif_adjacency(dec)
    selected: list[int] = []
    total = 0
    for idx in rng.permutation(len(eligible)):
        mi = eligible[idx]
        if any(mi in adj[sj] for sj in selected):
            continue
        new_total = total + dec.motifs[mi].size
        if new_total / n >= cfg.alpha_max:
            continue
        selected.append(mi)
        total = new_total
        if total / n > cfg.alpha_min:
            break

    realized = total / n
    feasible = cfg.alpha_min < realized < cfg.alpha_max

    dim_sets: tuple[list[int], list[int]] = ([], [])
    for mi in sorted(selected):
        nodes = np.array(dec.motifs[mi].node_ids, dtype=np.int64)
        count = _coverage_count(len(nodes), cfg.coverage)
        for d in range(2):
            # node-wise masking is element-wise masking with one shared draw
            if d == 0 or cfg.mode == "element_wise":
                picked = rng.choice(nodes, size=count, replace=False)
            dim_sets[d].extend(int(x) for x in picked)

    return MaskPlan(
        tuple(sorted(selected)),
        (tuple(sorted(dim_sets[0])), tuple(sorted(dim_sets[1]))),
        realized,
        feasible,
    )


def random_mask(g: MolGraph, fraction: float, rng: np.random.Generator) -> MaskPlan:
    """Uniform node sample without motif constraints (baseline strategy)."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    n = g.n_atoms
    count = _coverage_count(n, fraction)
    picked = tuple(sorted(int(x) for x in rng.choice(n, size=count, replace=False)))
    return MaskPlan((), (picked, picked), count / n, True)


def build_plan(
    g: MolGraph,
    dec: MotifDecomposition,
    cfg: MaskConfig,
    rng: np.random.Generator,
    eligible: tuple[int, ...] | None = None,
) -> MaskPlan:
    """Dispatch on cfg.mode; the baseline budget is the alpha midpoint.

    ``eligible`` is passed on to ``sample_motifs``; the baseline ignores it.
    """
    if cfg.mode == "random_baseline":
        return random_mask(g, (cfg.alpha_min + cfg.alpha_max) / 2.0, rng)
    return sample_motifs(g, dec, cfg, rng, eligible)


def apply_mask(g: MolGraph, plan: MaskPlan) -> np.ndarray:
    """Masked attribute matrix: the mask codes (``MASK_ATOM_TYPE``,
    ``MASK_CHIRALITY``), which lie outside the real code spaces, on masked
    entries and X elsewhere."""
    x = np.array(g.X, dtype=np.int64)
    for d, code in enumerate((MASK_ATOM_TYPE, MASK_CHIRALITY)):
        idx = list(plan.masked_nodes[d])
        if idx:
            x[idx, d] = code
    return x


def plan_rng(seed: int, molecule_index: int, epoch: int = 0) -> np.random.Generator:
    """Per-molecule mask RNG: seed XOR molecule index, epoch as extra entropy.

    Stateless derivation keeps plans reproducible whatever order molecules are
    planned in.
    """
    return np.random.default_rng([seed ^ molecule_index, epoch])
