import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moama import apply_mask, parse, random_mask, sample_motifs
from moama.masking import (
    MaskConfig,
    MaskPlan,
    _coverage_count,
    build_plan,
    eligible_motifs,
    plan_rng,
)
from moama.molgraph import MASK_ATOM_TYPE, MASK_CHIRALITY, N_ATOM_TYPES, N_CHIRALITY, k_hop_neighborhood
from moama.motif import BricsRule, EnvPattern, decompose, motif_adjacency

from conftest import bfs_oracle, random_molgraph

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
    plan = build_plan(g, dec, cfg, np.random.default_rng(0))
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
       mode=st.sampled_from(["node_wise", "element_wise"]),
       coverage=st.sampled_from([0.5, 1.0]),
       rules=st.sampled_from([None, _CUT_CHAIN_BONDS]))
def test_precomputed_eligibility_gives_the_same_plans(seed, hop_k, mode, coverage, rules):
    rng = np.random.default_rng(seed)
    g = random_molgraph(rng, n_min=2, n_max=16)
    dec = decompose(g, rules)
    eligible = eligible_motifs(g, dec, hop_k)
    # criterion 1 by plain BFS: every member sees a non-member within hop_k
    assert eligible == tuple(
        mi for mi, m in enumerate(dec.motifs)
        if all(bfs_oracle(g, v, hop_k) - set(m.node_ids) for v in m.node_ids))
    cfg = MaskConfig(hop_k=hop_k, mode=mode, coverage=coverage)
    for epoch in range(4):
        with_cache = build_plan(g, dec, cfg, plan_rng(seed, 5, epoch), eligible)
        assert with_cache == build_plan(g, dec, cfg, plan_rng(seed, 5, epoch))


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
            plan = sample_motifs(g, dec, cfg, plan_rng(7, i, epoch), eligible)
            assert plan == _two_branch_sample_motifs(g, dec, cfg, plan_rng(7, i, epoch), eligible)
            masked += len(plan.masked_nodes[0])
    assert masked > 0
