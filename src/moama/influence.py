"""Inter- and intra-motif influence measurement.

The influence of a source node u on a target node v is the L2 distance
between v's encoder representation and the representation obtained when u's
layer-0 embedding is replaced by the zero vector, everything else unchanged.
Encoding always runs on clean (unmasked) attributes, through a frozen store
(``ParamStore.frozen``), so no encode records a tape. One encode covers a
molecule's clean copy and its n zeroed copies, batched as n+1 copies of the
molecule like any other batch, split into chunks only for large molecules.

Motif-level influence averages the top-k most influential candidate nodes so
small motifs and large inter-motif pools compare on equal footing; pools
smaller than k fall back to all candidates (flagged), and nodes whose own
motif has no other member are excluded from aggregates but counted.

Aggregates:
  InfRatio  node-level and graph-level means of inter/intra influence ratios.
  MRR       motifs ranked per node by descending motif influence (ties break
            toward the lower motif index); reciprocal ranks of each node's
            own motif are averaged at node, graph, and motif-count level,
            with single-motif graphs excluded. The per-motif-count
            inter-motif transfer score is one minus the restricted MRR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gin import EncoderConfig, ParamStore, TensorGraph, encode
from .molgraph import MolGraph
from .motif import MotifDecomposition

INTER_MODES = ("top_k", "size_weighted")

# Node rows per stacked encode. A molecule's copies are encoded in chunks of
# at most this many rows (one copy at least), so memory stays bounded for
# large molecules; datagen molecules fit in a single chunk.
STACK_ROWS = 1024


@dataclass(frozen=True)
class InfluenceConfig:
    """The ``influence.*`` keys of the ``influence`` command."""

    top_k: int = 3
    inter_mode: str = "top_k"
    max_graphs: int = 0   # 0 = no limit

    def __post_init__(self):
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.inter_mode not in INTER_MODES:
            raise ValueError(f"inter_mode must be one of {', '.join(INTER_MODES)}")
        if self.max_graphs < 0:
            raise ValueError("max_graphs must be >= 0 (0 = no limit)")


def _influence_rows(g: MolGraph, store: ParamStore, cfg: EncoderConfig,
                    sources) -> np.ndarray:
    """S[i, v] = s(sources[i], v), with S[i, sources[i]] = 0.

    Copy 0 of a stacked graph is the clean molecule and copy c >= 1 has
    source c-1 zeroed; copies never share an edge, so each encodes exactly as
    it would alone. The copies go through ``encode`` in chunks of at most
    STACK_ROWS node rows.
    """
    frozen = store.frozen()
    n = g.n_atoms
    per_chunk = max(1, STACK_ROWS // n)
    copies = len(sources) + 1
    s = np.zeros((len(sources), n))
    for lo in range(0, copies, per_chunk):
        hi = min(copies, lo + per_chunk)
        zeroed = range(max(lo, 1), hi)
        out = encode(TensorGraph.from_graphs([g] * (hi - lo)), frozen, cfg,
                     zero_nodes=[(c - lo) * n + sources[c - 1] for c in zeroed])
        out = out.values.reshape(hi - lo, n, -1)
        if lo == 0:
            h = out[0]
        for c in zeroed:
            u, h_wo = sources[c - 1], out[c - lo]
            for v in range(n):
                if v != u:
                    s[c - 1, v] = np.linalg.norm(h[v] - h_wo[v])
    return s


def influence_pair(g: MolGraph, store: ParamStore, cfg: EncoderConfig,
                   u: int, v: int) -> float:
    """s(u, v): representation shift at v when u's initial embedding is zero."""
    if u == v:
        raise ValueError("influence_pair requires u != v")
    return float(_influence_rows(g, store, cfg, [u])[0, v])


def influence_matrix(g: MolGraph, store: ParamStore, cfg: EncoderConfig) -> np.ndarray:
    """S[u, v] = s(u, v) for all ordered pairs; diagonal fixed at 0."""
    return _influence_rows(g, store, cfg, range(g.n_atoms))


def _topk_mean(values: np.ndarray, top_k: int | None) -> float:
    """Mean of the top_k largest values (of all of them if top_k is None)."""
    if top_k is None or len(values) <= top_k:
        return float(values.mean())
    return float(np.sort(values)[::-1][:top_k].mean())


def _motif_mean(s_col: np.ndarray, nodes, v: int, top_k: int | None) -> float | None:
    """Top-k mean of s(u, v) over the members u != v; None if there are none."""
    candidates = [u for u in nodes if u != v]
    return _topk_mean(s_col[candidates], top_k) if candidates else None


@dataclass(frozen=True)
class NodeInfluence:
    graph_index: int
    node: int
    n_motifs: int
    intra: float | None
    inter: float | None
    rank: int | None
    truncated: bool


def _node_row(gi: int, dec: MotifDecomposition, s_col: np.ndarray, v: int,
              top_k: int, mode: str) -> NodeInfluence:
    """Influence row of node v from its column s_col = S[:, v].

    ``top_k`` mode draws the same number of top candidates from the node's
    own motif and from the pooled outside nodes; ``size_weighted`` keeps the
    plain means over all candidates on both sides. Motifs are ranked by their
    top_k means in either mode.
    """
    if mode not in INTER_MODES:
        raise ValueError(f"unknown inter mode {mode!r}")
    k = top_k if mode == "top_k" else None
    own = dec.motif_of[v]
    intra = _motif_mean(s_col, dec.motifs[own].node_ids, v, k)
    inter_nodes = [u for u, m in enumerate(dec.motif_of) if m != own]
    inter = _topk_mean(s_col[inter_nodes], k) if inter_nodes else None
    truncated = intra is not None and dec.motifs[own].size - 1 < top_k
    rank = None
    if dec.n_motifs >= 2 and intra is not None:
        keys = []
        for mi, motif in enumerate(dec.motifs):
            val = _motif_mean(s_col, motif.node_ids, v, top_k)
            keys.append((np.inf if val is None else -val, mi))
        rank = 1 + sum(key < keys[own] for key in keys)
    return NodeInfluence(gi, v, dec.n_motifs, intra, inter, rank, truncated)


@dataclass(frozen=True)
class InfluenceReport:
    nodes: tuple[NodeInfluence, ...]
    top_k: int
    inter_mode: str
    inf_ratio_node: float
    inf_ratio_graph: float
    mrr_node: float
    mrr_graph: float
    mrr_motif: float
    mrr_inter: tuple[tuple[int, float, int], ...]  # (n_motifs, score, graph_count)
    excluded_nodes: int


def analyze_dataset(graphs, decomps, store: ParamStore, cfg: EncoderConfig,
                    top_k: int = 3, mode: str = "top_k") -> InfluenceReport:
    """Per-node influence rows plus dataset-level aggregates."""
    store = store.frozen()  # once here, so each molecule's encode reuses it
    rows = []
    for gi, (g, dec) in enumerate(zip(graphs, decomps)):
        s = influence_matrix(g, store, cfg)
        rows.extend(_node_row(gi, dec, s[:, v], v, top_k, mode) for v in range(g.n_atoms))
    rows = tuple(rows)

    ratios_by_graph: dict[int, list[float]] = {}
    excluded = 0
    for r in rows:
        if r.intra is None or r.inter is None or r.intra <= 0.0:
            excluded += 1
            continue
        ratios_by_graph.setdefault(r.graph_index, []).append(r.inter / r.intra)
    all_ratios = [x for v in ratios_by_graph.values() for x in v]
    inf_node = float(np.mean(all_ratios)) if all_ratios else float("nan")
    per_graph_means = [np.mean(v) for v in ratios_by_graph.values()]
    inf_graph = float(np.mean(per_graph_means)) if per_graph_means else float("nan")

    mrr = mrr_from_rows(rows)
    return InfluenceReport(rows, top_k, mode, inf_node, inf_graph,
                           mrr["node"], mrr["graph"], mrr["motif"],
                           mrr["inter"], excluded)


def mrr_from_rows(rows) -> dict:
    """Aggregate reciprocal ranks (multi-motif graphs only)."""
    by_graph: dict[int, list[float]] = {}
    motifs_of_graph: dict[int, int] = {}
    for r in rows:
        if r.n_motifs < 2 or r.rank is None:
            continue
        by_graph.setdefault(r.graph_index, []).append(1.0 / r.rank)
        motifs_of_graph[r.graph_index] = r.n_motifs

    if not by_graph:
        return {"node": float("nan"), "graph": float("nan"),
                "motif": float("nan"), "inter": ()}

    all_rr = [x for v in by_graph.values() for x in v]
    mrr_node = float(np.mean(all_rr))
    mrr_graph = float(np.mean([np.mean(v) for v in by_graph.values()]))

    n_graphs_total = len(by_graph)
    by_count: dict[int, list[int]] = {}
    for gi, n in motifs_of_graph.items():
        by_count.setdefault(n, []).append(gi)
    mrr_motif = 0.0
    inter_table = []
    for n in sorted(by_count):
        gids = by_count[n]
        rr = [x for gi in gids for x in by_graph[gi]]
        restricted = float(np.mean(rr))
        mrr_motif += (len(gids) / (n_graphs_total * len(rr))) * sum(rr)
        inter_table.append((n, 1.0 - restricted, len(gids)))
    return {"node": mrr_node, "graph": mrr_graph, "motif": float(mrr_motif),
            "inter": tuple(inter_table)}
