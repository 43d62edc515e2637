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

Criterion 1 draws no random numbers; ``eligible_motifs`` checks it with one
BFS per molecule, from the atoms of its cut bonds. What a decomposition fixes
(eligibility, motif adjacency, each motif's nodes) is the molecule's
``MotifTable``: ``train.pretrain`` builds each molecule's table once per run,
before the first epoch, and ``build_plan`` draws every epoch's plan from it.
``motif_tables`` decomposes a corpus and builds its tables; under the random
baseline a table holds only the atom count, and no molecule is decomposed.
At coverage 1.0 a plan masks every node of each selected motif, so the
shuffle of the eligible motifs is its only draw.

A plan's draws come from a counter-based stream (Salmon et al., SC 2011): one
``PlanStreams`` per run holds one Philox bit generator keyed by the mask seed,
and each plan of molecule i in epoch e resets its whole state to the counter
(0, 0, e, i). Draws advance only the low counter words, so no two plans share
a stream, and a plan does not depend on which plans were drawn before it.

Molecules where no selection can reach alpha_min (e.g. a single giant motif)
keep an empty or undersized plan with ``feasible=False``. Such a plan still
masks the motifs it selected: they meet both selection criteria, and
``train.pretrain`` trains on them.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .molgraph import MASK_ATOM_TYPE, MASK_CHIRALITY, MolGraph, k_hop_neighborhood
from .motif import MotifDecomposition, decompositions, motif_adjacency

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
        if not 0 <= self.seed < 2 ** 128:   # the Philox key's width
            raise ValueError("seed must be >= 0 and below 2**128")


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

    For hop_k >= 1, a node has a node of another motif within hop_k hops
    exactly when it lies within hop_k - 1 hops of an atom of a cut bond: the
    last bond of a shortest path to the nearest such node joins two motifs, so
    it is a cut bond. Conversely, every cut bond joins two motifs, so each of
    its atoms lies in a motif other than the node's or is bonded to one.
    """
    border = {v for pair in dec.cut_pairs for v in pair} if hop_k else ()
    reach = k_hop_neighborhood(g, border, max(hop_k - 1, 0))
    return tuple(mi for mi, m in enumerate(dec.motifs) if reach.issuperset(m.node_ids))


class MotifTable(NamedTuple):
    """What a molecule's decomposition fixes about its plans at one hop_k:
    its atom count, its eligible motifs (``eligible_motifs``), the motif
    adjacency (``motif.motif_adjacency``) and each motif's nodes. Only the
    draws differ from plan to plan."""

    n_atoms: int
    eligible: tuple[int, ...]
    adjacency: tuple[frozenset[int], ...]
    nodes: tuple[tuple[int, ...], ...]


def motif_table(g: MolGraph, dec: MotifDecomposition, hop_k: int) -> MotifTable:
    """The ``MotifTable`` of one molecule: one eligibility BFS."""
    return MotifTable(g.n_atoms, eligible_motifs(g, dec, hop_k), motif_adjacency(dec),
                      tuple(m.node_ids for m in dec.motifs))


def motif_tables(graphs, rules, cfg: MaskConfig) -> Iterator[MotifTable]:
    """The table ``build_plan`` reads under ``cfg`` of each molecule of a
    corpus, decomposed with the rule table ``rules`` (``motif.decompositions``)
    and built when the iterator reaches it. The random baseline reads only the
    atom count, so under it a table holds no motif and nothing is decomposed."""
    if cfg.mode == "random_baseline":
        return (MotifTable(g.n_atoms, (), (), ()) for g in graphs)
    graphs = list(graphs)
    decomps = decompositions(graphs, rules)
    return (motif_table(g, dec, cfg.hop_k) for g, dec in zip(graphs, decomps))


def _draw_motifs(table: MotifTable, cfg: MaskConfig, rng: np.random.Generator) -> MaskPlan:
    """Shuffled greedy selection over the table's eligible motifs, then
    coverage. At coverage 1.0 every node of a selected motif is masked, so
    the permutation is the only draw."""
    n = table.n_atoms
    selected: list[int] = []
    blocked: set[int] = set()   # the motifs adjacent to a selected one
    total = 0
    for idx in rng.permutation(len(table.eligible)).tolist():
        mi = table.eligible[idx]
        if mi in blocked:
            continue
        new_total = total + len(table.nodes[mi])
        if new_total / n >= cfg.alpha_max:
            continue
        selected.append(mi)
        blocked |= table.adjacency[mi]
        total = new_total
        if total / n > cfg.alpha_min:
            break
    selected.sort()

    realized = total / n
    feasible = cfg.alpha_min < realized < cfg.alpha_max
    if cfg.coverage == 1.0:
        masked = tuple(sorted(v for mi in selected for v in table.nodes[mi]))
        return MaskPlan(tuple(selected), (masked, masked), realized, feasible)

    dim_sets: tuple[list[int], list[int]] = ([], [])
    for mi in selected:
        nodes = np.array(table.nodes[mi], dtype=np.int64)
        count = _coverage_count(len(nodes), cfg.coverage)
        for d in range(2):
            # node-wise masking is element-wise masking with one shared draw
            if d == 0 or cfg.mode == "element_wise":
                picked = rng.choice(nodes, size=count, replace=False)
            dim_sets[d].extend(int(x) for x in picked)

    return MaskPlan(
        tuple(selected),
        (tuple(sorted(dim_sets[0])), tuple(sorted(dim_sets[1]))),
        realized,
        feasible,
    )


def sample_motifs(g: MolGraph, dec: MotifDecomposition, cfg: MaskConfig,
                  rng: np.random.Generator) -> MaskPlan:
    """Draw a motif-aware plan for one molecule from its ``motif_table``."""
    return _draw_motifs(motif_table(g, dec, cfg.hop_k), cfg, rng)


def random_mask(g: MolGraph, fraction: float, rng: np.random.Generator) -> MaskPlan:
    """Uniform node sample without motif constraints (baseline strategy)."""
    return _random_plan(g.n_atoms, fraction, rng)


def _random_plan(n: int, fraction: float, rng: np.random.Generator) -> MaskPlan:
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    count = _coverage_count(n, fraction)
    picked = tuple(sorted(int(x) for x in rng.choice(n, size=count, replace=False)))
    return MaskPlan((), (picked, picked), count / n, True)


def build_plan(table: MotifTable, cfg: MaskConfig, rng: np.random.Generator) -> MaskPlan:
    """One plan of the molecule of ``table``. Dispatches on cfg.mode; the
    baseline budget is the alpha midpoint."""
    if cfg.mode == "random_baseline":
        return _random_plan(table.n_atoms, (cfg.alpha_min + cfg.alpha_max) / 2.0, rng)
    return _draw_motifs(table, cfg, rng)


def apply_mask(g: MolGraph, plan: MaskPlan) -> np.ndarray:
    """Masked attribute matrix of one molecule of a ``gin.TensorGraph.from_graphs``
    batch: the mask codes (``MASK_ATOM_TYPE``, ``MASK_CHIRALITY``), which lie
    outside the real code spaces, on masked entries and X elsewhere."""
    x = np.array(g.X, dtype=np.int64)
    for d, code in enumerate((MASK_ATOM_TYPE, MASK_CHIRALITY)):
        idx = list(plan.masked_nodes[d])
        if idx:
            x[idx, d] = code
    return x


class PlanStreams:
    """The plans' random streams of one run: one ``np.random.Philox`` keyed
    by the mask seed, behind one Generator.

    ``rng(i, epoch)`` resets the bit generator's whole state (counter
    ``(0, 0, epoch, i)``, an empty output buffer and no cached 32-bit half)
    and returns the Generator, so a plan's draws depend only on (seed, i,
    epoch), whatever order molecules are planned in. Each call invalidates
    the Generator it returned before: draw one plan at a time.
    """

    def __init__(self, seed: int):
        self._bits = np.random.Philox(key=seed)
        self._rng = np.random.Generator(self._bits)
        self._fresh = self._bits.state   # counter 0, buffer empty, no 32-bit half

    def rng(self, molecule_index: int, epoch: int = 0) -> np.random.Generator:
        self._fresh["state"]["counter"][2:] = (epoch, molecule_index)
        self._bits.state = self._fresh
        return self._rng


def plan_rng(seed: int, molecule_index: int, epoch: int = 0) -> np.random.Generator:
    """The stream of one plan (``PlanStreams``), on a stream object of its
    own: the draws of molecule ``molecule_index`` in ``epoch`` under mask
    seed ``seed``."""
    return PlanStreams(seed).rng(molecule_index, epoch)
