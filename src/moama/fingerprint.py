"""Circular bit fingerprints (Rogers & Hahn 2010) and Tanimoto similarity.

Neighborhood codes are hashed with a fixed splitmix64-style mixer so
fingerprints are identical across platforms and runs. Round 0 hashes
(atom_type, degree, chirality); each later round hashes an atom's previous
code together with the sorted multiset of (bond order, neighbor code) pairs
(``refine``, which ``train.scaffold_key`` also uses). Every code from every
round sets one bit (code mod width).
"""

from __future__ import annotations

from dataclasses import dataclass

from .molgraph import BOND_ORDER_INDEX, MolGraph

_MASK64 = (1 << 64) - 1
_SEED = 0x6D6F616D61  # fixed hash seed
MAX_WIDTH = 1 << 16  # a fingerprint is one int of width bits; cap its memory


def _mix(h: int, value: int) -> int:
    """Absorb one 64-bit value into h (splitmix64 finalizer)."""
    h = (h ^ (value & _MASK64)) * 0x9E3779B97F4A7C15 & _MASK64
    h ^= h >> 30
    h = h * 0xBF58476D1CE4E5B9 & _MASK64
    h ^= h >> 27
    h = h * 0x94D049BB133111EB & _MASK64
    h ^= h >> 31
    return h


def hash_ints(values) -> int:
    """The fixed-seed hash of a sequence of integers."""
    h = _SEED
    for v in values:
        h = _mix(h, v)
    return h


def refine(g: MolGraph, codes, v: int, tag: int, kept=None) -> int:
    """One neighborhood-refinement step: the hash of ``[tag, codes[v]]`` and
    v's sorted (bond order, neighbor code) pairs, over the neighbors in
    ``kept`` when it is given. Sorting keeps it independent of node labels.
    """
    adjacent = g._adjacency[v]
    if kept is not None:
        adjacent = [(u, bid) for u, bid in adjacent if u in kept]
    parts = [tag, codes[v]]
    for order, code in sorted((BOND_ORDER_INDEX[g.bonds[bid].order], codes[u])
                              for u, bid in adjacent):
        parts.append(order)
        parts.append(code)
    return hash_ints(parts)


@dataclass(frozen=True)
class FingerprintConfig:
    """The ``fp.*`` keys: ``morgan_fingerprint``'s radius and width."""

    radius: int = 2
    width: int = 2048

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("radius must be >= 0")
        if not 0 < self.width <= MAX_WIDTH or self.width & (self.width - 1):
            raise ValueError(f"width must be a power of two <= {MAX_WIDTH}")


@dataclass(frozen=True)
class Fingerprint:
    """Fixed-width bitset stored as a big integer."""

    bits: int
    width: int
    radius: int

    def popcount(self) -> int:
        return self.bits.bit_count()

    def to_hex(self) -> str:
        return format(self.bits, f"0{self.width // 4}x")

    def on_bits(self) -> frozenset[int]:
        return frozenset(i for i in range(self.width) if (self.bits >> i) & 1)


def morgan_fingerprint(g: MolGraph, cfg: FingerprintConfig = FingerprintConfig()) -> Fingerprint:
    """Iterative neighborhood-hashing fingerprint.

    Invariant under node relabeling: neighbor multisets are sorted before
    hashing and initial codes depend only on local attributes.
    """
    radius, width = cfg.radius, cfg.width
    codes = [
        hash_ints((0, a.atom_type, g.degree(v), a.chirality))
        for v, a in enumerate(g.atoms)
    ]
    bits = 0
    for c in codes:
        bits |= 1 << (c % width)
    for r in range(1, radius + 1):
        codes = [refine(g, codes, v, r) for v in range(g.n_atoms)]
        for c in codes:
            bits |= 1 << (c % width)
    return Fingerprint(bits, width, radius)


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    """|a AND b| / |a OR b|; 1.0 when both bitsets are empty."""
    if a.width != b.width:
        raise ValueError(f"fingerprint width mismatch: {a.width} != {b.width}")
    union = (a.bits | b.bits).bit_count()
    if union == 0:
        return 1.0
    return (a.bits & b.bits).bit_count() / union
