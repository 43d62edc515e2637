import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moama import apply_mask, parse, random_mask, sample_motifs
from moama.masking import (
    MaskConfig,
    MaskPlan,
    PlanStreams,
    _coverage_count,
    build_plan,
    eligible_motifs,
    motif_table,
    motif_tables,
    plan_rng,
)
from moama.molgraph import MASK_ATOM_TYPE, MASK_CHIRALITY, N_ATOM_TYPES, N_CHIRALITY, k_hop_neighborhood
from moama.motif import BricsRule, EnvPattern, decompose, decompositions, motif_adjacency

from conftest import (
    bfs_oracle,
    build_plan_oracle,
    eligible_motifs_oracle,
    odd_molecules,
    random_molgraph,
)

# cuts every acyclic single or double bond: the bundled table leaves most
# random graphs whole, this one splits them into several motifs
_ANY_ATOM = EnvPattern.compile("deg>=1")
_CUT_CHAIN_BONDS = tuple(BricsRule(1, _ANY_ATOM, _ANY_ATOM, order)
                         for order in ("single", "double"))


def _plan_for(smi, seed=0, **kw):
    g = parse(smi)
    dec = decompose(g)
    cfg = MaskConfig(**kw)
    return g, dec, sample_motifs(g, dec, cfg, np.random.default_rng(seed))


def test_config_validation():
    with pytest.raises(ValueError):
        MaskConfig(alpha_min=0.3, alpha_max=0.2)
    with pytest.raises(ValueError):
        MaskConfig(coverage=0.0)
    with pytest.raises(ValueError):
        MaskConfig(mode="banana")


def test_two_atom_motif_on_ten_atoms_gives_alpha_point_two():
    # ethyl (2 atoms) + two fused rings (8 atoms): only feasible pick is 2/10
    g = parse("CCC1CCC2(CC1)CC2")
    dec = decompose(g)
    assert sorted(m.size for m in dec.motifs) == [2, 8]
    plan = sample_motifs(g, dec, MaskConfig(hop_k=5), np.random.default_rng(0))
    assert plan.feasible
    assert plan.realized_alpha == pytest.approx(0.2)


def test_adjacent_motifs_never_coselected():
    rng = np.random.default_rng(1)
    for smi in ("CCOC(=O)c1ccccc1", "CC(=O)Nc1ccc(OC)cc1", "CCOc1ccccc1OCC"):
        g = parse(smi)
        dec = decompose(g)
        adj = motif_adjacency(dec)
        for seed in range(40):
            plan = sample_motifs(g, dec, MaskConfig(), np.random.default_rng(seed))
            for a in plan.selected_motifs:
                for b in plan.selected_motifs:
                    if a != b:
                        assert b not in adj[a]


def test_feasible_alpha_strictly_inside_bounds(corpus500):
    cfg = MaskConfig()
    n_feasible = 0
    for i, g in enumerate(corpus500[:300]):
        dec = decompose(g)
        plan = sample_motifs(g, dec, cfg, plan_rng(0, i))
        if plan.feasible:
            n_feasible += 1
            assert cfg.alpha_min < plan.realized_alpha < cfg.alpha_max
        else:
            assert plan.realized_alpha <= cfg.alpha_min
    assert n_feasible > 0


def test_masked_nodes_within_hop_k_of_inter_motif_node(corpus500):
    cfg = MaskConfig(hop_k=5)
    for i, g in enumerate(corpus500[:100]):
        dec = decompose(g)
        plan = sample_motifs(g, dec, cfg, plan_rng(3, i))
        for v in plan.all_masked:
            own = set(dec.motifs[dec.motif_of[v]].node_ids)
            hood = k_hop_neighborhood(g, v, cfg.hop_k)
            assert any(u not in own for u in hood)


def test_full_coverage_masks_whole_motif_both_dims():
    g, dec, plan = _plan_for("CCOC(=O)c1ccccc1", coverage=1.0)
    assert plan.masked_nodes[0] == plan.masked_nodes[1]
    masked = set(plan.masked_nodes[0])
    expected = {v for mi in plan.selected_motifs for v in dec.motifs[mi].node_ids}
    assert masked == expected


def test_node_wise_same_set_element_wise_independent():
    # 13 atoms; the propyl (3) and ethyl (2) motifs land inside the bounds
    g = parse("CCCOc1ccc(OCC)cc1")
    dec = decompose(g)
    node_cfg = MaskConfig(coverage=0.5, mode="node_wise")
    elem_cfg = MaskConfig(coverage=0.5, mode="element_wise")
    pn = sample_motifs(g, dec, node_cfg, np.random.default_rng(9))
    assert pn.masked_nodes[0] == pn.masked_nodes[1]
    saw_difference = False
    for seed in range(30):
        pe = sample_motifs(g, dec, elem_cfg, np.random.default_rng(seed))
        sizes = [len(pe.masked_nodes[d]) for d in range(2)]
        per_motif = sum(
            max(1, int(np.floor(0.5 * dec.motifs[mi].size + 0.5)))
            for mi in pe.selected_motifs
        )
        assert sizes == [per_motif, per_motif]
        if pe.masked_nodes[0] != pe.masked_nodes[1]:
            saw_difference = True
    assert saw_difference


def test_full_coverage_modes_identical_for_same_seed(corpus500):
    for i, g in enumerate(corpus500[:50]):
        dec = decompose(g)
        pn = sample_motifs(g, dec, MaskConfig(coverage=1.0, mode="node_wise"), plan_rng(7, i))
        pe = sample_motifs(g, dec, MaskConfig(coverage=1.0, mode="element_wise"), plan_rng(7, i))
        assert pn == pe


def test_single_motif_molecule_infeasible_empty_plan():
    g = parse("c1ccccc1")
    dec = decompose(g)
    plan = sample_motifs(g, dec, MaskConfig(), np.random.default_rng(0))
    assert not plan.feasible
    assert plan.selected_motifs == ()
    assert plan.all_masked == frozenset()


def test_apply_mask_empty_plan_is_identity():
    g = parse("c1ccccc1")
    dec = decompose(g)
    plan = sample_motifs(g, dec, MaskConfig(), np.random.default_rng(0))
    assert np.array_equal(apply_mask(g, plan), g.X)


def test_apply_mask_writes_reserved_codes():
    g, dec, plan = _plan_for("CCOC(=O)c1ccccc1")
    assert plan.feasible
    x = apply_mask(g, plan)
    for v in plan.masked_nodes[0]:
        assert x[v, 0] == 119
    for v in plan.masked_nodes[1]:
        assert x[v, 1] == 4
    untouched = set(range(g.n_atoms)) - plan.all_masked
    for v in untouched:
        assert tuple(x[v]) == tuple(g.X[v])
    assert not np.array_equal(x, g.X)
    assert np.array_equal(g.X, parse("CCOC(=O)c1ccccc1").X)  # original untouched


def test_element_wise_half_coverage_example():
    # one 4-node motif at 50% element-wise: 2 nodes masked in each dimension
    g = parse("CCCCOc1ccc(F)cc1")
    dec = decompose(g)
    four = [i for i, m in enumerate(dec.motifs) if m.size == 4]
    assert four
    cfg = MaskConfig(coverage=0.5, mode="element_wise")
    for seed in range(20):
        plan = sample_motifs(g, dec, cfg, np.random.default_rng(seed))
        if plan.selected_motifs == (four[0],):
            assert len(plan.masked_nodes[0]) == 2
            assert len(plan.masked_nodes[1]) == 2


def test_random_mask_rounding_and_determinism():
    g = parse("C" * 20)
    plan = random_mask(g, 0.15, rng=np.random.default_rng(0))
    assert len(plan.masked_nodes[0]) == 3
    assert plan.realized_alpha == pytest.approx(0.15)
    p1 = random_mask(g, 0.3, rng=np.random.default_rng(5))
    p2 = random_mask(g, 0.3, rng=np.random.default_rng(5))
    assert p1 == p2
    with pytest.raises(ValueError):
        random_mask(g, 1.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        random_mask(g, 0.0, np.random.default_rng(0))


def test_build_plan_random_baseline_budget():
    g = parse("C" * 20)
    dec = decompose(g)
    cfg = MaskConfig(mode="random_baseline")
    plan = build_plan(motif_table(g, dec, cfg.hop_k), cfg, np.random.default_rng(0))
    assert plan.realized_alpha == pytest.approx(0.2)  # midpoint of (0.15, 0.25)
    assert plan.selected_motifs == ()
    assert plan.feasible


def test_mask_codes_lie_just_outside_the_real_code_spaces():
    assert (MASK_ATOM_TYPE, MASK_CHIRALITY) == (N_ATOM_TYPES, N_CHIRALITY) == (119, 4)


def test_plan_rng_reproducible_and_index_sensitive():
    g = parse("CCOC(=O)c1ccccc1")
    dec = decompose(g)
    cfg = MaskConfig()
    a = sample_motifs(g, dec, cfg, plan_rng(0, 3, 1))
    b = sample_motifs(g, dec, cfg, plan_rng(0, 3, 1))
    assert a == b
    plans = {sample_motifs(g, dec, cfg, plan_rng(0, i)).selected_motifs
             for i in range(20)}
    assert len(plans) > 1


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), hop_k=st.integers(0, 6),
       rules=st.sampled_from([None, _CUT_CHAIN_BONDS]))
def test_eligibility_equals_a_per_atom_bfs_on_random_graphs(seed, hop_k, rules):
    g = random_molgraph(np.random.default_rng(seed), n_min=2, n_max=16)
    dec = decompose(g, rules)
    # criterion 1 by plain BFS: every member sees a non-member within hop_k
    assert eligible_motifs(g, dec, hop_k) == tuple(
        mi for mi, m in enumerate(dec.motifs)
        if all(bfs_oracle(g, v, hop_k) - set(m.node_ids) for v in m.node_ids))


@pytest.mark.parametrize("rules", [None, _CUT_CHAIN_BONDS], ids=["bundled", "cut_chains"])
def test_eligibility_equals_the_per_motif_bfs(corpus500, rules):
    graphs = corpus500 + odd_molecules()
    decomps = list(decompositions(graphs, rules))
    for hop_k in range(8):
        for g, dec in zip(graphs, decomps):
            assert eligible_motifs(g, dec, hop_k) == eligible_motifs_oracle(g, dec, hop_k)


@pytest.mark.parametrize("rules", [None, _CUT_CHAIN_BONDS], ids=["bundled", "cut_chains"])
def test_a_bond_joins_two_motifs_exactly_when_it_is_cut(corpus500, rules):
    """The fact ``eligible_motifs`` and ``motif_adjacency`` rest on."""
    rng = np.random.default_rng(11)
    graphs = corpus500 + [random_molgraph(rng, n_min=2, n_max=16) for _ in range(300)]
    for g, dec in zip(graphs, decompositions(graphs, rules)):
        joining = tuple(i for i, b in enumerate(g.bonds)
                        if dec.motif_of[b.u] != dec.motif_of[b.v])
        assert dec.cut_edges == joining
        assert dec.cut_pairs == tuple((g.bonds[i].u, g.bonds[i].v) for i in joining)


def _two_branch_sample_motifs(g, dec, cfg, rng, eligible):
    """The former ``sample_motifs``: its coverage loop had one branch that
    draws per dimension for ``element_wise`` and one that shares one draw."""
    n = g.n_atoms
    adj = motif_adjacency(dec)
    selected, total = [], 0
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
    dim_sets = ([], [])
    for mi in sorted(selected):
        nodes = np.array(dec.motifs[mi].node_ids, dtype=np.int64)
        count = _coverage_count(len(nodes), cfg.coverage)
        if cfg.mode == "element_wise":
            for d in range(2):
                picked = rng.choice(nodes, size=count, replace=False)
                dim_sets[d].extend(int(x) for x in picked)
        else:
            picked = rng.choice(nodes, size=count, replace=False)
            for d in range(2):
                dim_sets[d].extend(int(x) for x in picked)
    return MaskPlan(tuple(sorted(selected)),
                    (tuple(sorted(dim_sets[0])), tuple(sorted(dim_sets[1]))),
                    realized, cfg.alpha_min < realized < cfg.alpha_max)


@pytest.mark.parametrize("coverage", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("mode", ["node_wise", "element_wise", "random_baseline"])
def test_one_coverage_loop_equals_the_two_branch_loop(corpus500, mode, coverage):
    cfg = MaskConfig(hop_k=3, mode=mode, coverage=coverage)
    masked = 0
    for i, g in enumerate(corpus500[:200]):
        dec = decompose(g, _CUT_CHAIN_BONDS)
        eligible = eligible_motifs(g, dec, cfg.hop_k)
        for epoch in range(2):
            plan = sample_motifs(g, dec, cfg, plan_rng(7, i, epoch))
            assert plan == _two_branch_sample_motifs(g, dec, cfg, plan_rng(7, i, epoch), eligible)
            masked += len(plan.masked_nodes[0])
    assert masked > 0


@pytest.mark.parametrize("hop_k", range(8))
def test_table_plans_equal_the_decomposition_planner(corpus500, hop_k):
    rng = np.random.default_rng(hop_k)
    random_graphs = [random_molgraph(rng, n_min=2, n_max=16) for _ in range(100)]
    # the baseline reads neither coverage nor the table's motifs
    cfgs = [MaskConfig(hop_k=hop_k, mode="random_baseline")] + [
        MaskConfig(hop_k=hop_k, mode=mode, coverage=coverage)
        for mode in ("node_wise", "element_wise") for coverage in (1.0, 0.5, 0.7)]
    cases = []   # (molecule, decomposition, its table under each of cfgs)
    for graphs, rules in ((corpus500 + odd_molecules(), None), (random_graphs, _CUT_CHAIN_BONDS)):
        tables = zip(*(motif_tables(graphs, rules, cfg) for cfg in cfgs))
        cases += zip(graphs, decompositions(graphs, rules), tables)
    masked = 0
    for i, (g, dec, tables) in enumerate(cases):
        for cfg, table in zip(cfgs, tables):
            for epoch in range(3):
                plan = build_plan(table, cfg, plan_rng(7, i, epoch))
                assert plan == build_plan_oracle(g, dec, cfg, plan_rng(7, i, epoch))
                masked += len(plan.masked_nodes[0])
    assert masked > 0


@pytest.mark.parametrize("mode", ["node_wise", "element_wise"])
def test_a_coverage_one_plan_draws_only_the_motif_shuffle(corpus500, mode):
    cfg = MaskConfig(hop_k=2, mode=mode)
    decomps = decompositions(corpus500, _CUT_CHAIN_BONDS)
    selected = 0
    for i, (g, dec) in enumerate(zip(corpus500, decomps)):
        table = motif_table(g, dec, cfg.hop_k)
        rng, shuffled = plan_rng(3, i), plan_rng(3, i)
        selected += len(build_plan(table, cfg, rng).selected_motifs)
        shuffled.permutation(len(table.eligible))
        assert str(rng.bit_generator.state) == str(shuffled.bit_generator.state)
    assert selected > 0


def test_no_two_plans_share_their_first_draws():
    # the grid holds pairs the former XOR seeding gave one stream:
    # (s, i) and (s', i ^ s ^ s'), e.g. (0, 1) and (1, 0)
    grid = [(s, i, e) for s in range(4) for i in range(64) for e in range(4)]
    assert len({(s ^ i, e) for s, i, e in grid}) < len(grid)
    firsts = set()
    for seed in range(4):
        streams = PlanStreams(seed)   # one per run, as pretrain holds it
        for i in range(64):
            for epoch in range(4):
                firsts.add(tuple(streams.rng(i, epoch).bit_generator.random_raw(8).tolist()))
    assert len(firsts) == len(grid)


def test_a_plan_does_not_depend_on_the_plans_drawn_before_it(corpus500):
    # plans that draw more (coverage 0.5, the baseline's rng.choice) leave a
    # part-used output buffer or a cached 32-bit half behind; the next plan's
    # reset clears both, so it equals the plan of a fresh stream
    graphs = corpus500[:120]
    heavy = [MaskConfig(hop_k=2, mode="element_wise", coverage=0.5),
             MaskConfig(hop_k=2, mode="random_baseline")]
    heavy_tables = [list(motif_tables(graphs, _CUT_CHAIN_BONDS, cfg)) for cfg in heavy]
    streams = PlanStreams(7)
    left = set()
    planned = 0
    for cfg in (MaskConfig(hop_k=2), MaskConfig(hop_k=2, mode="element_wise", coverage=0.5)):
        for i, table in enumerate(motif_tables(graphs, _CUT_CHAIN_BONDS, cfg)):
            for before, tables in zip(heavy, heavy_tables):
                j = (i + 1) % len(graphs)
                rng = streams.rng(j, 1)
                build_plan(tables[j], before, rng)
                state = rng.bit_generator.state
                left.add((state["buffer_pos"] < 4, state["has_uint32"]))
            plan = build_plan(table, cfg, streams.rng(i, 2))
            assert plan == build_plan(table, cfg, plan_rng(7, i, 2))
            planned += bool(plan.all_masked)
    assert {(True, 0), (True, 1)} <= left and planned > 0
