"""Inter- and intra-motif influence measurement.

The influence of a source node u on a target node v is the L2 distance
between v's encoder representation and the representation obtained when u's
layer-0 embedding is replaced by the zero vector, everything else unchanged.
Encoding always runs on clean (unmasked) attributes, through a frozen store
(``ParamStore.frozen``), so no encode records a tape. One encode covers a
molecule's clean copy and its n zeroed copies, batched as n+1 copies of the
molecule like any other batch, split into chunks only for large molecules.
A chunk's distances are one stacked 1-row dot, the BLAS kernel that
``np.linalg.norm`` runs on one vector, so each keeps the bits of a per-pair
``norm`` call; ``einsum`` and ``norm(axis=-1)`` sum in other orders.

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
    source c-1 zeroed; copies never share an edge. Each copy encodes to the
    same bits as it would alone only where BLAS row results do not depend on
    the batch: that fails at widths congruent to 4 mod 8 from 76 up, and for
    one-row products (a one-atom molecule alone). The copies go through
    ``encode`` in chunks of at most STACK_ROWS node rows.

    With D the clean rows minus a chunk's zeroed rows, each distance is
    BLAS's 1-row dot ``D[..., None, :] @ D[..., :, None]``, the kernel and so
    the bits of ``np.linalg.norm(h[v] - h_wo[v])``. ``einsum``,
    ``(D * D).sum(-1)`` and ``norm(axis=-1)`` sum in other orders.
    """
    frozen = store.frozen()
    sources = np.asarray(sources, dtype=np.int64)
    n = g.n_atoms
    per_chunk = max(1, STACK_ROWS // n)
    copies = len(sources) + 1
    s = np.zeros((len(sources), n))
    for lo in range(0, copies, per_chunk):
        hi = min(copies, lo + per_chunk)
        first = max(lo, 1)   # the first zeroed copy of the chunk
        out = encode(TensorGraph.from_graphs([g] * (hi - lo)), frozen, cfg,
                     zero_nodes=np.arange(first - lo, hi - lo) * n + sources[first - 1:hi - 1])
        out = out.values.reshape(hi - lo, n, -1)
        if lo == 0:
            h = out[0]
        d = h - out[first - lo:]
        s[first - 1:hi - 1] = np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])
    s[np.arange(len(sources)), sources] = 0.0
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


@dataclass(frozen=True)
class NodeInfluence:
    graph_index: int
    node: int
    n_motifs: int
    intra: float | None
    inter: float | None
    rank: int | None
    truncated: bool


def _topk_means(vals: np.ndarray, top_k: int | None) -> np.ndarray:
    """Row means of the top_k largest values (all if top_k is None), as np.mean per row."""
    if top_k is None or vals.shape[1] <= top_k:
        return vals.mean(axis=1)
    return np.sort(vals, axis=1)[:, ::-1][:, :top_k].mean(axis=1)


def _node_rows(gi: int, dec: MotifDecomposition, S: np.ndarray,
               settings: InfluenceConfig) -> list[NodeInfluence]:
    """Influence rows of one molecule's nodes from its matrix S.

    ``top_k`` mode draws the same number of top candidates from the node's
    own motif and from the pooled outside nodes; ``size_weighted`` keeps the
    plain means over all candidates on both sides. Motifs are ranked by their
    top_k means in either mode. Each motif of size s gathers from the rows of
    S.T, in node order, its other s-1 members for each member and all s for
    each outside node.
    """
    top_k = settings.top_k
    k = top_k if settings.inter_mode == "top_k" else None
    st = np.ascontiguousarray(S.T)        # st[v, u] = s(u, v)
    motif_of = np.asarray(dec.motif_of)
    n, n_motifs = len(motif_of), dec.n_motifs
    table = np.zeros((n, n_motifs))       # top_k mean of s(u, v) over a motif's u != v
    intra, inter = np.full(n, np.nan), np.full(n, np.nan)   # nan: no candidates
    for mi, motif in enumerate(dec.motifs):
        members = np.asarray(motif.node_ids)
        outside = np.flatnonzero(motif_of != mi)
        if motif.size > 1:
            j = np.arange(motif.size - 1)
            vals = st[members[:, None], members[j + (j >= np.arange(motif.size)[:, None])]]
            table[members, mi] = _topk_means(vals, top_k)
            intra[members] = _topk_means(vals, k)
        table[outside, mi] = _topk_means(st[outside[:, None], members], top_k)
        if len(outside):
            inter[members] = _topk_means(st[members[:, None], outside], k)
    intra, inter = ([None if np.isnan(x) else x for x in a.tolist()] for a in (intra, inter))
    # motifs ahead of a node's own: a higher mean, or an equal one at a lower index
    own = table[np.arange(n), motif_of][:, None]
    ahead = (table > own) | ((table == own) & (np.arange(n_motifs) < motif_of[:, None]))
    ranks = (1 + ahead.sum(axis=1)).tolist()
    return [NodeInfluence(gi, v, n_motifs, intra[v], inter[v],
                          ranks[v] if n_motifs >= 2 and intra[v] is not None else None,
                          intra[v] is not None and dec.motifs[m].size - 1 < top_k)
            for v, m in enumerate(dec.motif_of)]


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
                    settings: InfluenceConfig = InfluenceConfig()) -> InfluenceReport:
    """Per-node influence rows plus dataset-level aggregates, by
    ``settings.top_k`` and ``settings.inter_mode``. Every graph given is
    analysed: ``max_graphs`` is for the caller to apply."""
    store = store.frozen()  # once here, so each molecule's encode reuses it
    rows = tuple(row for gi, (g, dec) in enumerate(zip(graphs, decomps))
                 for row in _node_rows(gi, dec, influence_matrix(g, store, cfg), settings))

    ratios_by_graph: dict[int, list[float]] = {}
    for r in rows:
        if r.intra is not None and r.inter is not None and r.intra > 0.0:
            ratios_by_graph.setdefault(r.graph_index, []).append(r.inter / r.intra)
    all_ratios = [x for v in ratios_by_graph.values() for x in v]
    excluded = len(rows) - len(all_ratios)
    inf_node = float(np.mean(all_ratios)) if all_ratios else float("nan")
    per_graph_means = [np.mean(v) for v in ratios_by_graph.values()]
    inf_graph = float(np.mean(per_graph_means)) if per_graph_means else float("nan")

    mrr = mrr_from_rows(rows)
    return InfluenceReport(rows, settings.top_k, settings.inter_mode, inf_node, inf_graph,
                           mrr["node"], mrr["graph"], mrr["motif"], mrr["inter"], excluded)


def mrr_from_rows(rows) -> dict:
    """Aggregate reciprocal ranks (multi-motif graphs only)."""
    by_graph: dict[int, list[float]] = {}
    by_count: dict[int, list[int]] = {}   # n_motifs -> graphs, by first row
    for r in rows:
        if r.n_motifs < 2 or r.rank is None:
            continue
        if r.graph_index not in by_graph:
            by_count.setdefault(r.n_motifs, []).append(r.graph_index)
        by_graph.setdefault(r.graph_index, []).append(1.0 / r.rank)
    if not by_graph:
        return {"node": float("nan"), "graph": float("nan"), "motif": float("nan"), "inter": ()}
    mrr_node = float(np.mean([x for v in by_graph.values() for x in v]))
    mrr_graph = float(np.mean([np.mean(v) for v in by_graph.values()]))
    mrr_motif = 0.0
    inter_table = []
    for n in sorted(by_count):
        gids = by_count[n]
        rr = [x for gi in gids for x in by_graph[gi]]
        mrr_motif += (len(gids) / (len(by_graph) * len(rr))) * sum(rr)
        inter_table.append((n, 1.0 - float(np.mean(rr)), len(gids)))
    return {"node": mrr_node, "graph": mrr_graph, "motif": float(mrr_motif),
            "inter": tuple(inter_table)}
