import numpy as np
import pytest

from moama import adjacency, k_hop_neighborhood, parse, ring_bonds
from moama.molgraph import (
    BOND_ORDER_INDEX,
    AtomAttr,
    MolGraph,
    relabel,
    shortest_path_lengths,
)

from conftest import bfs_oracle, random_molgraph, ring_bonds_oracle


def test_single_atom_has_empty_neighbor_list():
    g = parse("C")
    assert adjacency(g) == ((),)


def test_two_atom_chain_symmetric():
    g = parse("CC")
    assert adjacency(g) == ((1,), (0,))


def test_benzene_every_node_two_neighbors():
    g = parse("c1ccccc1")
    assert all(len(nbrs) == 2 for nbrs in adjacency(g))


def test_degree_sum_is_twice_bond_count():
    rng = np.random.default_rng(0)
    for _ in range(50):
        g = random_molgraph(rng)
        assert sum(g.degree(v) for v in range(g.n_atoms)) == 2 * len(g.bonds)


def test_ring_bonds_acyclic_chain_empty():
    assert ring_bonds(parse("CCCCC")) == frozenset()


def test_ring_bonds_benzene_all():
    g = parse("c1ccccc1")
    assert ring_bonds(g) == frozenset(range(6))


def test_ring_bonds_ethylbenzene_matches_oracle():
    g = parse("CCc1ccccc1")
    got = ring_bonds(g)
    assert got == ring_bonds_oracle(g)
    assert len(got) == 6


def test_ring_bonds_matches_oracle_randomized():
    rng = np.random.default_rng(7)
    for _ in range(60):
        g = random_molgraph(rng)
        assert ring_bonds(g) == ring_bonds_oracle(g)


def test_ring_bonds_invariant_under_relabel():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_molgraph(rng)
        perm = list(rng.permutation(g.n_atoms))
        h = relabel(g, perm)
        ring_pairs = {frozenset((perm[g.bonds[i].u], perm[g.bonds[i].v]))
                      for i in ring_bonds(g)}
        relabeled_pairs = {frozenset((h.bonds[i].u, h.bonds[i].v))
                           for i in ring_bonds(h)}
        assert ring_pairs == relabeled_pairs


def test_k_hop_zero_is_self():
    g = parse("CCO")
    assert k_hop_neighborhood(g, 1, 0) == frozenset({1})


def test_k_hop_path_one():
    g = parse("CCO")
    assert k_hop_neighborhood(g, 0, 1) == frozenset({0, 1})


def test_k_hop_benzene_three_hops_covers_ring():
    g = parse("c1ccccc1")
    for v in range(6):
        assert k_hop_neighborhood(g, v, 3) == frozenset(range(6))
        assert k_hop_neighborhood(g, v, 3) == bfs_oracle(g, v, 3)


def test_k_hop_monotone_and_saturates():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_molgraph(rng)
        v = int(rng.integers(g.n_atoms))
        prev = frozenset()
        for k in range(g.n_atoms + 1):
            cur = k_hop_neighborhood(g, v, k)
            assert prev <= cur
            assert cur == bfs_oracle(g, v, k)
            prev = cur
        assert prev == k_hop_neighborhood(g, v, g.n_atoms)


def test_k_hop_from_many_sources_is_the_union():
    rng = np.random.default_rng(12)
    for _ in range(30):
        g = random_molgraph(rng)
        sources = [int(v) for v in rng.choice(g.n_atoms, int(rng.integers(0, g.n_atoms + 1)),
                                              replace=False)]
        for k in range(4):
            union = frozenset().union(*(bfs_oracle(g, v, k) for v in sources))
            assert k_hop_neighborhood(g, sources, k) == union
            assert k_hop_neighborhood(g, np.array(sources, dtype=np.int64), k) == union


def _level_distances(g, v):
    """Distances by frontier sets, one hop per round, with no queue."""
    dist, frontier, hops = {v: 0}, {v}, 0
    while frontier:
        hops += 1
        frontier = {u for w in frontier for u in g.neighbors(w)} - dist.keys()
        dist.update(dict.fromkeys(frontier, hops))
    return dist


def test_shortest_path_lengths_equal_a_plain_bfs():
    rng = np.random.default_rng(13)
    graphs = [random_molgraph(rng, 2, 14) for _ in range(60)]
    graphs += [parse("C"), MolGraph([AtomAttr(5)] * 5, [(0, 1, "single"), (2, 3, "double")])]
    for g in graphs:
        for v in range(g.n_atoms):
            got = shortest_path_lengths(g, v)
            assert got == _level_distances(g, v)
            assert list(got.values()) == sorted(got.values())   # visited nearest first


def test_k_hop_rejects_bad_node():
    g = parse("CC")
    with pytest.raises(ValueError):
        k_hop_neighborhood(g, 5, 1)
    with pytest.raises(ValueError):
        k_hop_neighborhood(g, [0, 2], 1)


def test_attr_matrix_mirrors_atoms():
    g = parse("C[C@H](N)O")
    for v, a in enumerate(g.atoms):
        assert g.X[v, 0] == a.atom_type
        assert g.X[v, 1] == a.chirality
    with pytest.raises(ValueError):
        g.X[0, 0] = 3  # read-only


def test_mask_codes_rejected_on_atoms():
    with pytest.raises(ValueError):
        AtomAttr(119)
    with pytest.raises(ValueError):
        AtomAttr(5, 4)


def test_duplicate_and_self_bonds_rejected():
    atoms = [AtomAttr(5), AtomAttr(5)]
    with pytest.raises(ValueError):
        MolGraph(atoms, [(0, 1, "single"), (1, 0, "single")])
    with pytest.raises(ValueError):
        MolGraph(atoms, [(0, 0, "single")])


def test_an_unwritten_order_is_aromatic_on_a_ring_and_single_off_it():
    # two triangles joined by the bridge 2-3, every order unwritten
    ring = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    g = MolGraph([AtomAttr(5)] * 6, [(u, v, None) for u, v in ring + [(3, 2)]])
    assert [(b.u, b.v, b.order, b.in_ring) for b in g.bonds] == (
        [(u, v, "aromatic", True) for u, v in ring] + [(2, 3, "single", False)])
    assert g.edges[2].tolist() == [BOND_ORDER_INDEX[g.bonds[i].order]
                                   for a in g._adjacency for _, i in a]
    with pytest.raises(ValueError, match="unknown bond order ''"):
        MolGraph([AtomAttr(5)] * 2, [(0, 1, "")])
