"""Circular bit fingerprints (Rogers & Hahn 2010) and Tanimoto similarity.

Neighborhood codes are hashed with a fixed splitmix64-style mixer so
fingerprints are identical across platforms and runs. Round 0 hashes
(atom_type, degree, chirality); each later round hashes an atom's previous
code together with the sorted multiset of (bond order, neighbor code) pairs.
Every code from every round sets one bit (code mod width).

The hash runs on numpy ``uint64`` arrays, whose arithmetic wraps mod 2**64,
for a whole corpus at once: the molecules' stack (``molgraph.corpus_stack``)
lays them in one node and edge space, and ``refine`` gives every node its
next code in one call. Edges never join two molecules, so each molecule's
codes are those it gets alone. ``train.scaffold_keys`` runs the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .molgraph import MolGraph, corpus_stack

_SEED = 0x6D6F616D61  # fixed hash seed
MAX_WIDTH = 1 << 16  # a fingerprint is one int of width bits; cap its memory
MAX_RADIUS = 16  # each round keeps its codes; cap their memory
_K1 = np.uint64(0x9E3779B97F4A7C15)  # splitmix64's multipliers
_K2 = np.uint64(0xBF58476D1CE4E5B9)
_K3 = np.uint64(0x94D049BB133111EB)


def _mix(h: np.ndarray, value: np.ndarray) -> np.ndarray:
    """Absorb one 64-bit word per row into the uint64 hashes h (splitmix64
    finalizer). Array arithmetic wraps silently; on numpy scalars it would warn."""
    h = (h ^ value) * _K1
    h ^= h >> np.uint64(30)
    h *= _K2
    h ^= h >> np.uint64(27)
    h *= _K3
    h ^= h >> np.uint64(31)
    return h


def hash_rows(head, tail=None, lengths=None) -> np.ndarray:
    """The fixed-seed hash of each row's words, as a uint64 array.

    Row i is ``[col[i] for col in head]`` followed by its ``lengths[i]``
    words of ``tail``, the rows' tails laid end to end. Tails are absorbed in
    lock-step positions; a row whose tail has ended keeps its hash.
    """
    h = np.full(len(head[0]), _SEED, dtype=np.uint64)
    for col in head:
        h = _mix(h, np.asarray(col, dtype=np.uint64))
    if tail is None:
        return h
    starts = np.cumsum(lengths) - lengths
    for pos in range(int(lengths.max(initial=0))):
        rows = np.flatnonzero(lengths > pos)
        h[rows] = _mix(h[rows], tail[starts[rows] + pos])
    return h


def refine(codes: np.ndarray, src, dst, order, tag: int) -> np.ndarray:
    """One neighborhood-refinement step for every node: the hash of ``[tag,
    codes[v]]`` and v's sorted (bond order, neighbor code) pairs, over the
    directed edges ``src -> dst`` that end at v. Sorting keeps it independent
    of node labels; codes sort as uint64, the order of Python's ints.
    """
    perm = np.lexsort((codes[src], order, dst))
    pairs = np.empty((len(perm), 2), dtype=np.uint64)
    pairs[:, 0] = order[perm]
    pairs[:, 1] = codes[src[perm]]
    n = len(codes)
    return hash_rows([np.full(n, tag), codes], pairs.ravel(),
                     2 * np.bincount(dst, minlength=n))


@dataclass(frozen=True)
class FingerprintConfig:
    """The ``fp.*`` keys: ``morgan_fingerprint``'s radius and width."""

    radius: int = 2
    width: int = 2048

    def __post_init__(self):
        if not 0 <= self.radius <= MAX_RADIUS:
            raise ValueError(f"radius must be between 0 and {MAX_RADIUS}")
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


def fingerprint_bits(graphs, cfg: FingerprintConfig = FingerprintConfig()) -> np.ndarray:
    """The fingerprints of ``morgan_fingerprints`` as one packed uint8 matrix:
    row i holds the width / 8 bytes (at least one) of molecule i's bits,
    little-endian, as ``tanimoto_matrix`` takes them."""
    graphs = list(graphs)
    radius, width = cfg.radius, cfg.width
    if not graphs:
        return np.zeros((0, (width + 7) // 8), dtype=np.uint8)
    s = corpus_stack(graphs)
    n = len(s.x)
    codes = hash_rows([np.zeros(n, dtype=np.uint64), s.x[:, 0],
                       np.bincount(s.dst, minlength=n), s.x[:, 1]])
    rounds = [codes]
    for r in range(1, radius + 1):
        codes = refine(codes, s.src, s.dst, s.order, r)
        rounds.append(codes)
    # width is a power of two, so code & (width - 1) is code % width
    bit = (np.concatenate(rounds) & np.uint64(width - 1)).astype(np.int64)
    mol = np.tile(s.mol, radius + 1)
    packed = np.zeros((len(graphs), (width + 7) // 8), dtype=np.uint8)
    np.bitwise_or.at(packed, (mol, bit >> 3), (1 << (bit & 7)).astype(np.uint8))
    return packed


def morgan_fingerprints(graphs, cfg: FingerprintConfig = FingerprintConfig()) -> list[Fingerprint]:
    """Iterative neighborhood-hashing fingerprint of each molecule, every
    molecule's rounds run at once (``fingerprint_bits``).

    Invariant under node relabeling: neighbor multisets are sorted before
    hashing and initial codes depend only on local attributes.
    """
    return [Fingerprint(int.from_bytes(row.tobytes(), "little"), cfg.width, cfg.radius)
            for row in fingerprint_bits(graphs, cfg)]


def morgan_fingerprint(g: MolGraph, cfg: FingerprintConfig = FingerprintConfig()) -> Fingerprint:
    """``morgan_fingerprints`` of one molecule."""
    return morgan_fingerprints([g], cfg)[0]


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    """|a AND b| / |a OR b|; 1.0 when both bitsets are empty."""
    if a.width != b.width:
        raise ValueError(f"fingerprint width mismatch: {a.width} != {b.width}")
    union = (a.bits | b.bits).bit_count()
    if union == 0:
        return 1.0
    return (a.bits & b.bits).bit_count() / union


def tanimoto_matrix(packed: np.ndarray) -> np.ndarray:
    """``tanimoto`` of every pair of the fingerprints whose bits are the rows
    of ``packed`` (``fingerprint_bits``), bit for bit, as an (n, n) array.

    One product of the 0/1 bit matrices counts every intersection. Its
    addends are 0 and 1 and every partial sum is an integer below 2**53, so
    the float64 counts are exact in any summation order, and ``inter / union``
    is the correctly rounded quotient that Python's int division gives.
    """
    bits = np.unpackbits(packed, axis=1).astype(np.float64)
    inter = bits @ bits.T
    counts = np.diagonal(inter)
    union = counts[:, None] + counts[None, :] - inter
    empty = union == 0
    return np.where(empty, 1.0, inter / np.where(empty, 1.0, union))
