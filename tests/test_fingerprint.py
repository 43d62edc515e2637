import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moama import morgan_fingerprint, parse, tanimoto
from moama.fingerprint import (
    Fingerprint,
    FingerprintConfig,
    morgan_fingerprints,
    refine,
    tanimoto_matrix,
)
from moama.molgraph import BOND_ORDER_INDEX, relabel, stack_edges

from conftest import bits, hash_ints_oracle, odd_molecules, refine_oracle


def _fp_from_bits(on_bits, width=256):
    bits = 0
    for i in on_bits:
        bits |= 1 << i
    return Fingerprint(bits, width, 2)


def test_single_atom_radius_zero_one_bit():
    fp = morgan_fingerprint(parse("C"), FingerprintConfig(radius=0))
    assert fp.popcount() == 1


def test_nonempty_molecule_sets_bits():
    assert morgan_fingerprint(parse("CCO")).popcount() >= 1


def test_relabeled_molecules_identical_fingerprints():
    rng = np.random.default_rng(2)
    for smi in ("CCOC(=O)c1ccccc1", "CC(=O)Nc1ccncc1", "C[C@H](N)C(=O)O"):
        g = parse(smi)
        fp = morgan_fingerprint(g)
        for _ in range(5):
            h = relabel(g, list(rng.permutation(g.n_atoms)))
            assert morgan_fingerprint(h) == fp


def test_different_molecules_differ():
    assert morgan_fingerprint(parse("CC")) != morgan_fingerprint(parse("CO"))


def test_fingerprint_deterministic():
    a = morgan_fingerprint(parse("CCNc1ccccc1"))
    b = morgan_fingerprint(parse("CCNc1ccccc1"))
    assert a == b and a.to_hex() == b.to_hex()


def test_width_must_be_power_of_two():
    with pytest.raises(ValueError):
        FingerprintConfig(width=100)
    with pytest.raises(ValueError):
        FingerprintConfig(radius=-1)


def test_tanimoto_trivial_values():
    f = morgan_fingerprint(parse("CCO"))
    assert tanimoto(f, f) == 1.0
    a = _fp_from_bits([1, 2])
    b = _fp_from_bits([3, 4])
    assert tanimoto(a, b) == 0.0
    c = _fp_from_bits([1, 2])
    d = _fp_from_bits([2, 3])
    assert tanimoto(c, d) == pytest.approx(1.0 / 3.0)


def test_tanimoto_empty_convention_and_mismatch():
    assert tanimoto(_fp_from_bits([]), _fp_from_bits([])) == 1.0
    with pytest.raises(ValueError):
        tanimoto(_fp_from_bits([], width=128), _fp_from_bits([], width=256))


@given(
    st.sets(st.integers(0, 255), max_size=40),
    st.sets(st.integers(0, 255), max_size=40),
)
@settings(max_examples=200, deadline=None)
def test_tanimoto_matches_set_oracle(sa, sb):
    a, b = _fp_from_bits(sa), _fp_from_bits(sb)
    got = tanimoto(a, b)
    expected = 1.0 if not (sa | sb) else len(sa & sb) / len(sa | sb)
    assert got == expected
    assert got == tanimoto(b, a)
    assert 0.0 <= got <= 1.0


@given(st.lists(st.sets(st.integers(0, 255), max_size=60), min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_tanimoto_matrix_is_the_pair_loop_bit_for_bit(sets):
    fps = [_fp_from_bits(s) for s in sets] + [_fp_from_bits([])] * 2
    want = np.array([[tanimoto(a, b) for b in fps] for a in fps])
    assert bits(tanimoto_matrix(fps)) == bits(want)


def test_tanimoto_matrix_of_datagen_fingerprints_and_its_edge_cases():
    from moama.datagen import generate_corpus

    fps = [morgan_fingerprint(parse(s)) for s in generate_corpus(40, seed=1)]
    want = np.array([[tanimoto(a, b) for b in fps] for a in fps])
    assert bits(tanimoto_matrix(fps)) == bits(want)
    assert tanimoto_matrix([_fp_from_bits([]), _fp_from_bits([])]).tolist() == [[1.0, 1.0]] * 2
    assert bits(tanimoto_matrix([])) == bits(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="width mismatch: 256 != 128"):
        tanimoto_matrix([_fp_from_bits([1]), _fp_from_bits([1]), _fp_from_bits([1], width=128)])


def test_hex_round_trip():
    fp = morgan_fingerprint(parse("CCO"), FingerprintConfig(width=256))
    assert len(fp.to_hex()) == 64
    assert int(fp.to_hex(), 16) == fp.bits


def _morgan_reference(g, radius, width):
    """The per-round loop morgan_fingerprint ran before it called refine."""
    codes = [hash_ints_oracle((0, a.atom_type, g.degree(v), a.chirality))
             for v, a in enumerate(g.atoms)]
    bits = 0
    for c in codes:
        bits |= 1 << (c % width)
    for r in range(1, radius + 1):
        nxt = []
        for v in range(g.n_atoms):
            env = sorted((BOND_ORDER_INDEX[g.bonds[bid].order], codes[u])
                         for u, bid in g._adjacency[v])
            parts = [r, codes[v]]
            for order, code in env:
                parts += [order, code]
            nxt.append(hash_ints_oracle(parts))
        codes = nxt
        for c in codes:
            bits |= 1 << (c % width)
    return bits


SHAPES = [(0, 2048), (2, 2048), (3, 64), (2, 65536)]


@pytest.mark.parametrize("radius,width", SHAPES)
def test_fingerprint_bits_match_the_reference_loop(refinement_corpora, radius, width):
    cfg = FingerprintConfig(radius, width)
    for graphs in [*refinement_corpora.values(), odd_molecules()]:
        fps = morgan_fingerprints(graphs, cfg)
        assert [fp.bits for fp in fps] == [_morgan_reference(g, radius, width) for g in graphs]
        assert {(fp.width, fp.radius) for fp in fps} == {(width, radius)}


@pytest.mark.parametrize("radius,width", SHAPES)
def test_a_fingerprint_does_not_depend_on_its_corpus(corpus500, radius, width):
    cfg = FingerprintConfig(radius, width)
    graphs = corpus500[:60] + odd_molecules()
    perm = np.random.default_rng(3).permutation(len(graphs))
    alone = [morgan_fingerprint(g, cfg) for g in graphs]
    assert morgan_fingerprints(graphs, cfg) == alone
    assert morgan_fingerprints([graphs[i] for i in perm], cfg) == [alone[i] for i in perm]


def test_an_empty_corpus_has_no_fingerprints():
    assert morgan_fingerprints([]) == []
    assert morgan_fingerprints(iter([parse("C")])) == [morgan_fingerprint(parse("C"))]


def test_refine_over_kept_hashes_the_filtered_sorted_pairs(corpus500):
    """The corpus-wide kernel over kept sub-edges equals the per-node oracle,
    on random codes of which about half are >= 2**63."""
    rng = np.random.default_rng(0)
    graphs = corpus500[:100] + odd_molecules()
    src, dst, order = stack_edges(graphs)
    n = sum(g.n_atoms for g in graphs)
    codes = rng.integers(0, 2**64 - 1, size=n, dtype=np.uint64, endpoint=True)
    assert (codes >= 2**63).any() and (codes < 2**63).any()
    kept = rng.random(n) < 0.7
    sub = kept[src] & kept[dst]
    got = refine(codes, src[sub], dst[sub], order[sub], 2)
    assert got.dtype == np.uint64
    off = 0
    for g in graphs:
        local = codes[off:off + g.n_atoms].tolist()
        local_kept = {v for v in range(g.n_atoms) if kept[off + v]}
        for v in local_kept:
            assert int(got[off + v]) == refine_oracle(g, local, v, 2, local_kept)
        off += g.n_atoms


def test_refine_of_nodes_without_edges_hashes_tag_and_code():
    codes = np.array([0, 2**63, 2**64 - 1], dtype=np.uint64)
    none = np.zeros(0, dtype=np.int64)
    assert refine(codes, none, none, none, 5).tolist() == [
        hash_ints_oracle([5, c]) for c in codes.tolist()]
