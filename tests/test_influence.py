import numpy as np
import pytest

from moama import autodiff as ad
from moama import parse
from moama.datagen import generate_corpus
from moama.gin import EncoderConfig, ParamStore, TensorGraph, encode, init_params
from moama.influence import (
    INTER_MODES,
    STACK_ROWS,
    InfluenceConfig,
    NodeInfluence,
    _node_rows,
    analyze_dataset,
    influence_matrix,
    influence_pair,
    mrr_from_rows,
)
from moama.molgraph import shortest_path_lengths
from moama.motif import Motif, MotifDecomposition, decompose

from conftest import encode_oracle, random_molgraph

CFG = EncoderConfig(layers=2, embed_dim=8)


# The per-pair norm loop and the per-node list code that ``_influence_rows``
# and ``_node_rows`` replaced, kept as bitwise oracles.

def _influence_matrix_oracle(g, store, cfg):
    """S[u, v] by one ``np.linalg.norm`` call per ordered pair, encoding the
    stacked copies in the same STACK_ROWS chunks as ``influence_matrix``."""
    frozen = store.frozen()
    n = g.n_atoms
    sources = range(n)
    per_chunk = max(1, STACK_ROWS // n)
    copies = n + 1
    s = np.zeros((n, n))
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


def _topk_mean(values, top_k):
    """Mean of the top_k largest values (of all of them if top_k is None)."""
    if top_k is None or len(values) <= top_k:
        return float(values.mean())
    return float(np.sort(values)[::-1][:top_k].mean())


def _motif_mean(s_col, nodes, v, top_k):
    """Top-k mean of s(u, v) over the members u != v; None if there are none."""
    candidates = [u for u in nodes if u != v]
    return _topk_mean(s_col[candidates], top_k) if candidates else None


def _node_row(gi, dec, s_col, v, settings):
    """Influence row of node v from its column s_col = S[:, v]."""
    top_k = settings.top_k
    k = top_k if settings.inter_mode == "top_k" else None
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


@pytest.fixture(scope="module")
def store():
    return init_params(CFG, seed=21)


def brute_force_influence(g, store, cfg, u, v):
    h = encode_oracle(g, store, cfg)
    h_wo = encode_oracle(g, store, cfg, zero_node=u)
    return float(np.linalg.norm(h[v] - h_wo[v]))


def test_influence_zero_beyond_receptive_field(store):
    g = parse("CCCCCCC")
    dist = shortest_path_lengths(g, 0)
    for v, d in dist.items():
        if v == 0:
            continue
        s = influence_pair(g, store, CFG, 0, v)
        if d > CFG.layers:
            assert s == 0.0
        else:
            assert s > 0.0


def test_influence_zero_params_all_zero():
    g = parse("CCOC(=O)c1ccccc1")
    zstore = ParamStore({n: ad.parameter(np.zeros_like(t.values))
                         for n, t in init_params(CFG, seed=0).params.items()})
    for u in range(3):
        for v in range(3):
            if u != v:
                assert influence_pair(g, zstore, CFG, u, v) == 0.0


def test_influence_rejects_same_node(store):
    with pytest.raises(ValueError):
        influence_pair(parse("CC"), store, CFG, 1, 1)


def test_influence_matches_brute_force_oracle_exactly(store):
    rng = np.random.default_rng(8)
    for _ in range(10):
        g = random_molgraph(rng, n_min=3, n_max=10)
        for u in range(g.n_atoms):
            for v in range(g.n_atoms):
                if u == v:
                    continue
                got = influence_pair(g, store, CFG, u, v)
                assert got == brute_force_influence(g, store, CFG, u, v)


def test_influence_matrix_matches_pairs(store):
    g = parse("CCOC(=O)C")
    s = influence_matrix(g, store, CFG)
    for u in range(g.n_atoms):
        assert s[u, u] == 0.0
        for v in range(g.n_atoms):
            if u != v:
                assert s[u, v] == influence_pair(g, store, CFG, u, v)


def _intra_inter(s, dec, v, top_k=3, mode="top_k"):
    """(intra, inter) of node v as ``analyze_dataset`` reports them."""
    row = _node_rows(-1, dec, s, InfluenceConfig(top_k=top_k, inter_mode=mode))[v]
    return row.intra, row.inter


def test_motif_influence_truncation_rules(store):
    g = parse("CCOC(=O)c1ccccc1")
    s = influence_matrix(g, store, CFG)
    # singleton motif containing only v -> undefined
    assert _motif_mean(s[:, 0], [0], 0, 3) is None
    # two candidates with top_k=3 -> mean of both
    got = _motif_mean(s[:, 0], [0, 1, 2], 0, 3)
    assert got == pytest.approx(np.mean([s[1, 0], s[2, 0]]))
    # top_k=1 -> max over candidates
    got1 = _motif_mean(s[:, 0], [0, 1, 2], 0, 1)
    assert got1 == pytest.approx(max(s[1, 0], s[2, 0]))


def test_intra_inter_single_motif_graph_undefined(store):
    g = parse("c1ccccc1")
    dec = decompose(g)
    intra, inter = _intra_inter(influence_matrix(g, store, CFG), dec, 0)
    assert intra is not None
    assert inter is None


def test_intra_inter_symmetric_star():
    # identical atoms around a center with identical weights: two equal arms
    from moama.molgraph import AtomAttr, MolGraph

    g = MolGraph([AtomAttr(5)] * 5,
                 [(0, 1, "single"), (1, 2, "single"), (2, 3, "single"), (3, 4, "single")])
    store = init_params(CFG, seed=4)
    s = influence_matrix(g, store, CFG)
    # node 2 is the center of the path; arms (1,0) and (3,4) are interchangeable
    assert s[1, 2] == pytest.approx(s[3, 2])
    assert s[0, 2] == pytest.approx(s[4, 2])

    # hand-built two-motif split along the symmetry axis: for the center,
    # intra and inter influence coincide
    from moama.motif import Motif, MotifDecomposition

    dec = MotifDecomposition(
        motifs=(Motif((0, 1, 2), (0, 1)), Motif((3, 4), (3,))),
        cut_edges=(2,), cut_pairs=((2, 3),), motif_of=(0, 0, 0, 1, 1),
    )
    intra, inter = _intra_inter(s, dec, 2, top_k=2)
    assert intra == pytest.approx(inter)


def test_intra_inter_matches_pair_enumeration(store):
    g = parse("CCOc1ccccc1OC")  # three-plus motif chain
    dec = decompose(g)
    assert dec.n_motifs >= 3
    s = influence_matrix(g, store, CFG)
    for v in range(g.n_atoms):
        own = dec.motif_of[v]
        intra_nodes = [u for u in dec.motifs[own].node_ids if u != v]
        inter_nodes = [u for u in range(g.n_atoms) if dec.motif_of[u] != own]
        intra, inter = _intra_inter(s, dec, v, top_k=3)
        if intra_nodes:
            vals = sorted((s[u, v] for u in intra_nodes), reverse=True)[:3]
            assert intra == pytest.approx(np.mean(vals))
        else:
            assert intra is None
        vals = sorted((s[u, v] for u in inter_nodes), reverse=True)[:3]
        assert inter == pytest.approx(np.mean(vals))


def test_size_weighted_mode_plain_means(store):
    g = parse("CCOc1ccccc1")
    dec = decompose(g)
    s = influence_matrix(g, store, CFG)
    v = 0
    own = dec.motif_of[v]
    inter_nodes = [u for u in range(g.n_atoms) if dec.motif_of[u] != own]
    intra, inter = _intra_inter(s, dec, v, mode="size_weighted")
    assert inter == pytest.approx(np.mean([s[u, v] for u in inter_nodes]))
    # the size-weighted average of per-motif means collapses to this mean
    total = 0.0
    for mi, motif in enumerate(dec.motifs):
        if mi == own:
            continue
        cand = [u for u in motif.node_ids if u != v]
        total += len(cand) * np.mean([s[u, v] for u in cand])
    assert inter == pytest.approx(total / len(inter_nodes))


def test_inf_ratio_arithmetic():
    rows = [
        NodeInfluence(0, 0, 2, 1.0, 0.4, 1, False),
        NodeInfluence(0, 1, 2, 1.0, 0.4, 1, False),
        NodeInfluence(1, 0, 2, 1.0, 0.6, 1, False),
    ]
    # graph ratios: g0 mean 0.4 over 2 nodes, g1 mean 0.6 over 1 node
    by_graph = {0: [0.4, 0.4], 1: [0.6]}
    node_level = np.mean([0.4, 0.4, 0.6])
    graph_level = np.mean([0.4, 0.6])
    assert node_level == pytest.approx(1.4 / 3)
    assert graph_level == pytest.approx(0.5)
    # analyze_dataset computes the same aggregation; exercise via helper math
    all_ratios = [x for v in by_graph.values() for x in v]
    assert np.mean(all_ratios) == pytest.approx(node_level)


def test_inf_ratios_single_graph_collapse(store):
    graphs = [parse("CCOC(=O)c1ccccc1")]
    decs = [decompose(g) for g in graphs]
    rep = analyze_dataset(graphs, decs, store, CFG)
    node_r, graph_r = rep.inf_ratio_node, rep.inf_ratio_graph
    assert node_r == pytest.approx(graph_r)


def test_inf_ratios_equal_sides_give_one():
    rows = [
        NodeInfluence(0, 0, 2, 0.7, 0.7, 1, False),
        NodeInfluence(1, 0, 3, 0.2, 0.2, 2, False),
    ]
    ratios = [r.inter / r.intra for r in rows]
    assert np.mean(ratios) == 1.0


def test_mrr_hand_enumerated_fixed_ranks():
    def row(gi, node, n, rank):
        return NodeInfluence(gi, node, n, 1.0, 1.0, rank, False)

    rows = [
        row(0, 0, 2, 1), row(0, 1, 2, 2), row(0, 2, 2, 1),
        row(1, 0, 2, 2), row(1, 1, 2, 2),
        row(2, 0, 3, 1), row(2, 1, 3, 3), row(2, 2, 3, 2), row(2, 3, 3, 1),
    ]
    mrr = mrr_from_rows(rows)
    assert mrr["node"] == pytest.approx(19.0 / 27.0)
    assert mrr["graph"] == pytest.approx(49.0 / 72.0)
    assert mrr["motif"] == pytest.approx(253.0 / 360.0)
    assert mrr["inter"] == (
        (2, pytest.approx(0.3), 2),
        (3, pytest.approx(7.0 / 24.0), 1),
    )


def test_mrr_single_motif_graphs_excluded():
    rows = [
        NodeInfluence(0, 0, 1, 0.5, None, None, False),
        NodeInfluence(1, 0, 2, 0.5, 0.5, 1, False),
    ]
    mrr = mrr_from_rows(rows)
    assert mrr["node"] == 1.0
    assert mrr["inter"] == ((2, 0.0, 1),)


def test_mrr_intra_always_first_gives_one_and_inter_zero():
    rows = [NodeInfluence(0, v, 3, 1.0, 0.1, 1, False) for v in range(4)]
    mrr = mrr_from_rows(rows)
    assert mrr["node"] == 1.0
    assert mrr["graph"] == 1.0
    assert mrr["motif"] == 1.0
    assert all(score == 0.0 for _, score, _ in mrr["inter"])


def test_mrr_two_motif_alternating_ranks():
    rows = [NodeInfluence(0, v, 2, 1.0, 1.0, 1 + v % 2, False) for v in range(4)]
    mrr = mrr_from_rows(rows)
    assert mrr["node"] == pytest.approx(0.75)


def test_mrr_inter_identity_on_random_ranks():
    rng = np.random.default_rng(9)
    rows = []
    for gi in range(12):
        n = int(rng.integers(2, 6))
        for v in range(int(rng.integers(2, 7))):
            rows.append(NodeInfluence(gi, v, n, 1.0, 1.0, int(rng.integers(1, n + 1)), False))
    mrr = mrr_from_rows(rows)
    for n, score, _ in mrr["inter"]:
        rr = [1.0 / r.rank for r in rows if r.n_motifs == n]
        assert score == pytest.approx(1.0 - np.mean(rr))


def test_mrr_end_to_end_matches_spreadsheet(store):
    # three molecules decomposing into 2, 2, and 3 motifs
    smis = ("CCc1ccccc1", "CCC1CCCCC1", "CCOc1ccccc1")
    graphs = [parse(s) for s in smis]
    decs = [decompose(g) for g in graphs]
    assert [d.n_motifs for d in decs] == [2, 2, 3]

    expected_rows = []
    for gi, (g, dec) in enumerate(zip(graphs, decs)):
        s = influence_matrix(g, store, CFG)
        for v in range(g.n_atoms):
            own = dec.motif_of[v]
            if not [u for u in dec.motifs[own].node_ids if u != v]:
                continue
            scores = []
            for mi, motif in enumerate(dec.motifs):
                cand = [u for u in motif.node_ids if u != v]
                val = np.mean(sorted((s[u, v] for u in cand), reverse=True)[:3]) if cand else -np.inf
                scores.append((mi, val))
            ordered = sorted(scores, key=lambda t: (-t[1], t[0]))
            rank = [mi for mi, _ in ordered].index(own) + 1
            expected_rows.append((gi, v, dec.n_motifs, rank))

    rep = analyze_dataset(graphs, decs, store, CFG)
    node, graph, motif, inter = rep.mrr_node, rep.mrr_graph, rep.mrr_motif, rep.mrr_inter
    rr = [1.0 / r for _, _, _, r in expected_rows]
    assert node == pytest.approx(np.mean(rr))
    per_graph = {}
    for gi, _, _, r in expected_rows:
        per_graph.setdefault(gi, []).append(1.0 / r)
    assert graph == pytest.approx(np.mean([np.mean(v) for v in per_graph.values()]))
    by_n = {}
    for gi, _, n, r in expected_rows:
        by_n.setdefault(n, []).append(1.0 / r)
    expected_motif = sum(
        (len({gi for gi, _, nn, _ in expected_rows if nn == n}) / (3 * len(v))) * sum(v)
        for n, v in by_n.items()
    )
    assert motif == pytest.approx(expected_motif)
    for n, score, count in inter:
        assert score == pytest.approx(1.0 - np.mean(by_n[n]))


def test_report_value_ranges(store):
    graphs = [parse(s) for s in ("CCc1ccccc1", "CCC1CCCCC1", "CCOc1ccccc1", "c1ccccc1")]
    decs = [decompose(g) for g in graphs]
    rep = analyze_dataset(graphs, decs, store, CFG)
    for r in rep.nodes:
        if r.intra is not None:
            assert r.intra >= 0.0
        if r.inter is not None:
            assert r.inter >= 0.0
        if r.rank is not None:
            assert 1 <= r.rank <= r.n_motifs
    for value in (rep.mrr_node, rep.mrr_graph, rep.mrr_motif):
        assert 0.0 < value <= 1.0
    for _, score, _ in rep.mrr_inter:
        assert 0.0 <= score < 1.0


def test_report_invariant_to_dataset_order(store):
    graphs = [parse(s) for s in ("CCc1ccccc1", "CCOC1CCCCC1", "CCOc1ccccc1")]
    decs = [decompose(g) for g in graphs]
    r1 = analyze_dataset(graphs, decs, store, CFG)
    perm = [2, 0, 1]
    r2 = analyze_dataset([graphs[i] for i in perm], [decs[i] for i in perm], store, CFG)
    assert r1.inf_ratio_node == pytest.approx(r2.inf_ratio_node)
    assert r1.inf_ratio_graph == pytest.approx(r2.inf_ratio_graph)
    assert r1.mrr_node == pytest.approx(r2.mrr_node)
    assert r1.mrr_motif == pytest.approx(r2.mrr_motif)


def test_node_beyond_reach_of_other_motifs_has_zero_inter():
    # with a 1-layer encoder, the chain end sits 5 hops from the nearest
    # inter-motif node, so zeroing any of them cannot move its embedding
    cfg1 = EncoderConfig(layers=1, embed_dim=8)
    store1 = init_params(cfg1, seed=30)
    g = parse("CCCCCOc1ccccc1")
    dec = decompose(g)
    assert dec.motif_of[0] == dec.motif_of[4]      # pentyl chain is one motif
    assert dec.motif_of[5] != dec.motif_of[0]      # ether oxygen is not
    intra, inter = _intra_inter(influence_matrix(g, store1, cfg1), dec, 0)
    assert inter == 0.0
    assert intra > 0.0



def test_stacked_influence_matches_oracle_at_default_size():
    # default 5x32 encoder; the last molecule spans more than one stacked chunk
    from moama.datagen import generate_corpus
    from moama.influence import STACK_ROWS

    cfg = EncoderConfig()
    store = init_params(cfg, seed=13)
    graphs = [parse(s) for s in generate_corpus(6, seed=31)]
    graphs.append(parse("CCCCCCCCCCc1ccc(cc1)C(=O)NCCOc1ccc(cc1)CCCCCCCCCC"))
    assert graphs[-1].n_atoms * (graphs[-1].n_atoms + 1) > STACK_ROWS
    for g in graphs:
        s = influence_matrix(g, store, cfg)
        h = encode_oracle(g, store, cfg)
        for u in range(g.n_atoms):
            h_wo = encode_oracle(g, store, cfg, zero_node=u)
            for v in range(g.n_atoms):
                expected = 0.0 if u == v else float(np.linalg.norm(h[v] - h_wo[v]))
                assert s[u, v] == expected


def _random_partition(rng, n):
    """A decomposition of n nodes into random, not necessarily connected,
    motifs, numbered by their lowest node."""
    labels = rng.integers(0, int(rng.integers(1, n + 1)), size=n).tolist()
    first = {lab: i for i, lab in reversed(list(enumerate(labels)))}
    index = {lab: mi for mi, lab in enumerate(sorted(first, key=first.get))}
    motif_of = tuple(index[lab] for lab in labels)
    motifs = tuple(Motif(tuple(v for v in range(n) if motif_of[v] == mi), ())
                   for mi in range(len(index)))
    return MotifDecomposition(motifs, (), (), motif_of)


@pytest.fixture(scope="module")
def oracle_graphs():
    """(graph, decomposition) pairs: random graphs under their rule-based and
    random decompositions, datagen molecules, a one-atom molecule, single-motif
    graphs, pools of 9 or more candidates and a molecule spanning two chunks."""
    rng = np.random.default_rng(77)
    pairs = []
    for _ in range(8):
        g = random_molgraph(rng, n_min=2, n_max=14)
        pairs += [(g, decompose(g)), (g, _random_partition(rng, g.n_atoms))]
    for smi in generate_corpus(6, seed=5) + ["C", "c1ccccc1", "CCCCCCCCCCCC",
                                             "CCCCCCCCCCOc1ccccc1"]:
        pairs.append((parse(smi), decompose(parse(smi))))
    big = parse("CCCCCCCCCCc1ccc(cc1)C(=O)NCCOc1ccc(cc1)CCCCCCCCCC")
    assert big.n_atoms * (big.n_atoms + 1) > STACK_ROWS
    pairs.append((big, decompose(big)))
    assert any(m.size - 1 >= 9 for _, d in pairs for m in d.motifs)
    assert any(len(d.motif_of) - m.size >= 9 for _, d in pairs for m in d.motifs)
    return pairs


@pytest.mark.parametrize("width", [8, 32])
def test_influence_matrix_equals_the_per_pair_norm_loop(oracle_graphs, width):
    cfg = EncoderConfig(layers=2, embed_dim=width)
    store = init_params(cfg, seed=width)
    for g, _ in oracle_graphs:
        got = influence_matrix(g, store, cfg)
        assert got.tobytes() == _influence_matrix_oracle(g, store, cfg).tobytes()


@pytest.mark.parametrize("mode", INTER_MODES)
@pytest.mark.parametrize("top_k", [1, 2, 3, 5, 8])
def test_node_rows_equal_the_node_row_oracle(oracle_graphs, store, mode, top_k):
    settings = InfluenceConfig(top_k=top_k, inter_mode=mode)
    graphs, decs = zip(*oracle_graphs)
    expected = []
    for gi, (g, dec) in enumerate(oracle_graphs):
        s = _influence_matrix_oracle(g, store, CFG)
        expected += [_node_row(gi, dec, s[:, v], v, settings) for v in range(g.n_atoms)]
    rep = analyze_dataset(graphs, decs, store, CFG, settings)
    # repr tells float from numpy scalar and -0.0 from 0.0
    assert repr(rep.nodes) == repr(tuple(expected))
    assert rep.excluded_nodes == sum(r.intra is None or r.inter is None or r.intra <= 0.0
                                     for r in expected)
