"""Shared fixtures and independent oracles.

Oracles here deliberately avoid the production code paths they check:
bridge detection via edge-removal connectivity, k-hop via plain BFS, the
encoder via a tape-free numpy re-implementation, AUC via all-pairs counting.
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
