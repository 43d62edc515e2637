"""Shared fixtures and independent oracles.

Oracles here deliberately avoid the production code paths they check:
bridge detection via edge-removal connectivity, k-hop via plain BFS, the
encoder via a tape-free numpy re-implementation, AUC via all-pairs counting,
the corpus-wide uint64 refinement kernel via the per-node Python-int hash it
replaced.
"""

from __future__ import annotations

import numpy as np
import pytest

from moama import parse
from moama.gin import EncoderConfig
from moama.molgraph import AtomAttr, BOND_ORDER_INDEX, BOND_ORDERS, MolGraph


@pytest.fixture(scope="session")
def corpus500():
    from moama.datagen import generate_corpus

    return [parse(s) for s in generate_corpus(500, seed=42)]


@pytest.fixture(scope="session")
def refinement_corpora(corpus500):
    """Corpora for the refinement kernel's oracle tests, by name."""
    from moama.datagen import generate_corpus

    corpora = {"corpus500": corpus500}
    for seed in (1, 2, 3):
        corpora[f"seed{seed}"] = [parse(s) for s in generate_corpus(200, seed=seed)]
    return corpora


def odd_molecules() -> list[MolGraph]:
    """One atom, two disconnected molecules (``C.C`` and ``c1ccccc1.C``, built
    directly: the parser rejects a dot) and a hexavalent sulfur."""
    c = AtomAttr(5)
    return [parse("C"), MolGraph([c, c], []),
            MolGraph([c] * 7, [(i, (i + 1) % 6, "aromatic") for i in range(6)]),
            parse("S(F)(F)(F)(F)(F)F")]


def connected_without_bond(g: MolGraph, skip: int) -> bool:
    b = g.bonds[skip]
    seen = {b.u}
    stack = [b.u]
    while stack:
        v = stack.pop()
        for u, bid in g._adjacency[v]:
            if bid == skip or u in seen:
                continue
            seen.add(u)
            stack.append(u)
    return b.v in seen


def ring_bonds_oracle(g: MolGraph) -> frozenset[int]:
    return frozenset(i for i in range(len(g.bonds)) if connected_without_bond(g, i))


def bfs_oracle(g: MolGraph, v: int, k: int) -> frozenset[int]:
    frontier = {v}
    seen = {v}
    for _ in range(k):
        frontier = {u for w in frontier for u in g.neighbors(w)} - seen
        seen |= frontier
    return frozenset(seen)


_MASK64 = (1 << 64) - 1
_SEED = 0x6D6F616D61


def _mix_oracle(h: int, value: int) -> int:
    """splitmix64 finalizer on Python ints, masked to 64 bits."""
    h = (h ^ (value & _MASK64)) * 0x9E3779B97F4A7C15 & _MASK64
    h ^= h >> 30
    h = h * 0xBF58476D1CE4E5B9 & _MASK64
    h ^= h >> 27
    h = h * 0x94D049BB133111EB & _MASK64
    h ^= h >> 31
    return h


def hash_ints_oracle(values) -> int:
    """The fixed-seed hash of a sequence of integers, one word at a time."""
    h = _SEED
    for v in values:
        h = _mix_oracle(h, v)
    return h


def refine_oracle(g: MolGraph, codes, v: int, tag: int, kept=None) -> int:
    """One refinement step of node v alone: the hash of ``[tag, codes[v]]`` and
    v's sorted (bond order, neighbor code) pairs, over the neighbors in
    ``kept`` when it is given."""
    adjacent = g._adjacency[v]
    if kept is not None:
        adjacent = [(u, bid) for u, bid in adjacent if u in kept]
    parts = [tag, codes[v]]
    for order, code in sorted((BOND_ORDER_INDEX[g.bonds[bid].order], codes[u])
                              for u, bid in adjacent):
        parts += [order, code]
    return hash_ints_oracle(parts)


def scaffold_key_oracle(g: MolGraph) -> str:
    """Scaffold key by a sorted sweep that prunes one side-chain atom at a
    time, then ``len(kept)`` per-node refinement rounds over dicts."""
    kept = set(range(g.n_atoms))
    on_ring = {v for b in g.bonds if b.in_ring for v in (b.u, b.v)}
    changed = True
    while changed:
        changed = False
        for v in sorted(kept):
            if v in on_ring:
                continue
            if sum(1 for u in g.neighbors(v) if u in kept) <= 1:
                kept.remove(v)
                changed = True
    if not kept:
        return ""
    codes = {v: hash_ints_oracle((1, g.atoms[v].atom_type)) for v in kept}
    for _ in range(len(kept)):
        codes = {v: refine_oracle(g, codes, v, 2, kept) for v in kept}
    return format(hash_ints_oracle([len(kept)] + sorted(codes.values())), "016x")


def random_molgraph(rng: np.random.Generator, n_min=2, n_max=12) -> MolGraph:
    """Random connected attributed graph (tree plus a few chords)."""
    n = int(rng.integers(n_min, n_max + 1))
    atoms = [
        AtomAttr(int(rng.choice([5, 6, 7, 15, 16])), int(rng.integers(0, 4)))
        for _ in range(n)
    ]
    bonds = []
    used = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        bonds.append((u, v, str(rng.choice(BOND_ORDERS[:3]))))
        used.add((u, v))
    extra = int(rng.integers(0, max(1, n // 3) + 1))
    for _ in range(extra):
        u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        if (u, v) in used:
            continue
        used.add((u, v))
        bonds.append((u, v, str(rng.choice(BOND_ORDERS[:3]))))
    return MolGraph(atoms, bonds)


def encode_oracle(g: MolGraph, store, cfg: EncoderConfig, zero_node=None,
                  x=None) -> np.ndarray:
    """Plain-numpy encoder following the documented (dst, src) edge order."""
    p = {n: t.values for n, t in store.params.items()}
    xm = g.X if x is None else x
    h = p["embed.atom"][xm[:, 0]] + p["embed.chirality"][xm[:, 1]]
    if zero_node is not None:
        h = h.copy()
        h[zero_node] = 0.0
    edges = []
    for b in g.bonds:
        code = BOND_ORDER_INDEX[b.order]
        edges.append((b.v, b.u, code))
        edges.append((b.u, b.v, code))
    for layer in range(cfg.layers):
        agg = np.zeros_like(h)
        # contract: messages accumulate per destination in value order
        messages = sorted(
            (dst, tuple(h[src] + p["embed.bond"][code]))
            for dst, src, code in edges
        )
        for dst, msg in messages:
            agg[dst] += np.array(msg)
        eps = p[f"enc.{layer}.eps"] if cfg.learn_epsilon else cfg.epsilon
        z = h * (1.0 + eps) + agg
        z = np.maximum(z @ p[f"enc.{layer}.w1"] + p[f"enc.{layer}.b1"], 0.0)
        h = z @ p[f"enc.{layer}.w2"] + p[f"enc.{layer}.b2"]
        if layer < cfg.layers - 1:
            h = np.maximum(h, 0.0)
    return h


def bits(x) -> tuple:
    """(shape, uint64 words) of a float64 array or of a tensor's values. Two
    are equal exactly when they hold the same bits, so -0.0 differs from 0.0."""
    a = np.asarray(getattr(x, "values", x), dtype=np.float64)
    return a.shape, a.view(np.uint64).tolist()


def auc_oracle(scores, labels) -> float:
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = np.where(labels == 1)[0]
    neg = np.where(labels == 0)[0]
    total = 0.0
    for i in pos:
        for j in neg:
            if scores[i] > scores[j]:
                total += 1.0
            elif scores[i] == scores[j]:
                total += 0.5
    return total / (len(pos) * len(neg))


def fd_gradient(fn, array: np.ndarray, index, step=1e-5) -> float:
    """Central finite difference of scalar fn() w.r.t. array[index]."""
    orig = array[index]
    h = step * max(1.0, abs(orig))
    array[index] = orig + h
    up = fn()
    array[index] = orig - h
    down = fn()
    array[index] = orig
    return (up - down) / (2.0 * h)
