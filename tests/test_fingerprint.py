import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moama import morgan_fingerprint, parse, tanimoto
from moama.fingerprint import Fingerprint, FingerprintConfig, hash_ints, refine
from moama.molgraph import BOND_ORDER_INDEX, relabel


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


def test_hex_round_trip():
    fp = morgan_fingerprint(parse("CCO"), FingerprintConfig(width=256))
    assert len(fp.to_hex()) == 64
    assert int(fp.to_hex(), 16) == fp.bits


def _morgan_reference(g, radius, width):
    """The per-round loop morgan_fingerprint ran before it called refine."""
    codes = [hash_ints((0, a.atom_type, g.degree(v), a.chirality))
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
            nxt.append(hash_ints(parts))
        codes = nxt
        for c in codes:
            bits |= 1 << (c % width)
    return bits


@pytest.mark.parametrize("radius,width", [(2, 2048), (3, 64)])
def test_fingerprint_bits_match_the_reference_loop(corpus500, radius, width):
    for g in corpus500[:200]:
        assert morgan_fingerprint(g, FingerprintConfig(radius, width)).bits == _morgan_reference(g, radius, width)


def test_refine_over_kept_hashes_the_filtered_sorted_pairs(corpus500):
    rng = np.random.default_rng(0)
    for g in corpus500[:100]:
        codes = {v: int(rng.integers(0, 2**63)) for v in range(g.n_atoms)}
        kept = {v for v in range(g.n_atoms) if rng.random() < 0.7}
        for v in kept:
            pairs = sorted((BOND_ORDER_INDEX[g.bonds[bid].order], codes[u])
                           for u, bid in g._adjacency[v] if u in kept)
            expected = hash_ints([2, codes[v]] + [x for pair in pairs for x in pair])
            assert refine(g, codes, v, 2, kept) == expected
