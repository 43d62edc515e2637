"""Shared fixtures and independent oracles.

Oracles here deliberately avoid the production code paths they check:
bridge detection via edge-removal connectivity, k-hop via plain BFS, the
encoder via a tape-free numpy re-implementation, AUC via all-pairs counting,
the corpus-wide uint64 refinement kernel via the per-node Python-int hash it
replaced, the one-pass parser and graph constructor via the token-object parser
and the validate-then-build constructor they replaced, the corpus-wide
rule-matching kernel via the per-atom closure matcher it replaced,
``molgraph.stack`` via the edge stacker, the narrow-typed rule-matching corpus
and the bond-loop ring marks it replaced, the corpus stack that
``read_dataset`` builds and each graph's views of it via the per-molecule
arrays and their concatenation they replaced, and mask eligibility via the
per-motif BFS it replaced, table-based mask planning via the
decomposition-based planner it replaced, and the masked-row decoders via the
full decoder and the gathering loss they replaced.

``single``, ``relabel``, ``shortest_path_lengths`` and
``write_checkpoint_naming_twice`` are helpers that only the tests use.
"""

from __future__ import annotations

import operator
import re
import struct
from collections import deque

import numpy as np
import pytest

from moama import autodiff as ad
from moama import parse
from moama.errors import SmilesError
from moama.fingerprint import hash_rows, refine
from moama.gin import EncoderConfig, ParamStore, TensorGraph
from moama.loss import _one_dim_loss
from moama.masking import MaskPlan, _coverage_count, eligible_motifs, random_mask
from moama.molgraph import (
    CHIRALITY_NONE,
    CHIRALITY_OTHER,
    CHIRALITY_TET1,
    CHIRALITY_TET2,
    AtomAttr,
    BOND_ORDER_INDEX,
    BOND_ORDERS,
    Bond,
    MolGraph,
    Stack,
    bridge_flags,
    k_hop_neighborhood,
    stack,
)
from moama.motif import RuleTable, default_rules, motif_adjacency
from moama.smiles import _BRACKET_RE, _TOKEN_RE, AROMATIC_SUBSET, ATOM_CODE, SmilesToken
from moama.train import save_checkpoint


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


# SMILES the parser oracle tests add to the generated corpora: one atom, a
# hexavalent sulfur, %nn ring closures and bracket chirality marks
ODD_SMILES = ["C", "[Na+]", "S(F)(F)(F)(F)(F)F", "C%10CCCCC%10", "c1cc%11ccc%12cc%11cc%12c1",
              "C%01CC1", "N[C@@H](C)C(=O)O", "F[C@H](Cl)Br", "C[C@TH1H](N)O", "[13C@@@H2+2]C",
              "C[Si@AL2](C)=C", "c1cc[nH]c1", "C1CC2CC1CC2", "c1ccccc1-c1ccccc1", "F/C=C\\F"]


def odd_molecules() -> list[MolGraph]:
    """One atom, two disconnected molecules (``C.C`` and ``c1ccccc1.C``, built
    directly: the parser rejects a dot) and a hexavalent sulfur."""
    c = AtomAttr(5)
    return [parse("C"), MolGraph([c, c], []),
            MolGraph([c] * 7, [(i, (i + 1) % 6, "aromatic") for i in range(6)]),
            parse("S(F)(F)(F)(F)(F)F")]


def single(g: MolGraph, x=None) -> TensorGraph:
    """The batch of one molecule, optionally embedding the codes ``x``."""
    s = stack([g])
    return TensorGraph(s, s.x if x is None else x)


def relabel(g: MolGraph, perm) -> MolGraph:
    """Apply a node permutation: new id of old node i is perm[i]."""
    perm = list(perm)
    if sorted(perm) != list(range(g.n_atoms)):
        raise ValueError("perm must be a permutation of node ids")
    atoms = [None] * g.n_atoms
    for old, new in enumerate(perm):
        atoms[new] = g.atoms[old]
    bonds = [(perm[b.u], perm[b.v], b.order) for b in g.bonds]
    return MolGraph(atoms, bonds)


def shortest_path_lengths(g: MolGraph, v: int) -> dict[int, int]:
    """BFS distances from v to every reachable node, in visiting order."""
    dist = {v: 0}
    queue = deque([v])
    while queue:
        node = queue.popleft()
        for u in g.neighbors(node):
            if u not in dist:
                dist[u] = dist[node] + 1
                queue.append(u)
    return dist


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


def eligible_motifs_oracle(g: MolGraph, dec, hop_k: int) -> tuple[int, ...]:
    """The former ``masking.eligible_motifs``: one BFS per motif, from every
    atom outside it, cut at hop_k."""
    eligible = []
    for mi, motif in enumerate(dec.motifs):
        members = set(motif.node_ids)
        if len(members) == g.n_atoms:
            continue  # no inter-motif nodes exist
        outside = [u for u in range(g.n_atoms) if u not in members]
        if members <= k_hop_neighborhood(g, outside, hop_k):
            eligible.append(mi)
    return tuple(eligible)


def sample_motifs_oracle(g: MolGraph, dec, cfg, rng: np.random.Generator) -> MaskPlan:
    """The former ``masking.sample_motifs``: eligibility and motif adjacency
    recomputed for every plan, one coverage draw per selected motif even at
    coverage 1.0."""
    n = g.n_atoms
    eligible = eligible_motifs(g, dec, cfg.hop_k)
    adj = motif_adjacency(dec)
    selected: list[int] = []
    total = 0
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
    feasible = cfg.alpha_min < realized < cfg.alpha_max

    dim_sets: tuple[list[int], list[int]] = ([], [])
    for mi in sorted(selected):
        nodes = np.array(dec.motifs[mi].node_ids, dtype=np.int64)
        count = _coverage_count(len(nodes), cfg.coverage)
        for d in range(2):
            if d == 0 or cfg.mode == "element_wise":
                picked = rng.choice(nodes, size=count, replace=False)
            dim_sets[d].extend(int(x) for x in picked)

    return MaskPlan(
        tuple(sorted(selected)),
        (tuple(sorted(dim_sets[0])), tuple(sorted(dim_sets[1]))),
        realized,
        feasible,
    )


def build_plan_oracle(g: MolGraph, dec, cfg, rng: np.random.Generator) -> MaskPlan:
    """The former ``masking.build_plan``, which took the molecule and its
    decomposition."""
    if cfg.mode == "random_baseline":
        return random_mask(g, (cfg.alpha_min + cfg.alpha_max) / 2.0, rng)
    return sample_motifs_oracle(g, dec, cfg, rng)


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


# --- the former parser and graph constructor --------------------------------

_ORACLE_BOND_CHARS = {"-": "single", "=": "double", "#": "triple", ":": "aromatic",
                      "/": "single", "\\": "single"}


def molgraph_oracle(atoms, bonds) -> MolGraph:
    """The former ``MolGraph.__init__``: validate every spec, then build the
    adjacency, ring flags, ``X`` and ``edges`` from nested lists. The ring
    flag of each directed edge is read off its bond."""
    g = object.__new__(MolGraph)
    atoms = tuple(atoms)
    if not atoms:
        raise ValueError("molecule must have at least one atom")
    n = len(atoms)
    specs = []
    seen = set()
    for u, v, order in bonds:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"bond ({u}, {v}) references missing atom")
        if u == v:
            raise ValueError(f"self-bond on atom {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate bond {key}")
        seen.add(key)
        specs.append((key[0], key[1], order))
    adj = [[] for _ in range(n)]
    for i, (u, v, _) in enumerate(specs):
        adj[u].append((v, i))
        adj[v].append((u, i))
    g._adjacency = tuple(tuple(sorted(a)) for a in adj)
    bridge = bridge_flags(g._adjacency, len(specs))
    g.atoms = atoms
    g.bonds = tuple(
        Bond(u, v, order if order is not None else "single" if bridge[i] else "aromatic",
             in_ring=not bridge[i])
        for i, (u, v, order) in enumerate(specs))
    g._corpus = g._index = None
    g._views = graph_arrays_oracle(g)
    return g


def graph_arrays_oracle(g: MolGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The former per-molecule arrays: read-only ``X``, ``edges`` and
    ``ring_edges`` built from nested lists over the graph's atoms, bonds and
    sorted adjacency lists, as each graph built them before the corpus stack."""
    x = np.array([[a.atom_type, a.chirality] for a in g.atoms], dtype=np.int64)
    codes = [BOND_ORDER_INDEX[b.order] for b in g.bonds]
    nbrs = g._adjacency
    e = np.array([[u for a in nbrs for u, _ in a],
                  [v for v, a in enumerate(nbrs) for _ in a],
                  [codes[i] for a in nbrs for _, i in a]], dtype=np.int64)
    ring = np.array([g.bonds[i].in_ring for a in nbrs for _, i in a], dtype=bool)
    for a in (x, e, ring):
        a.setflags(write=False)
    return x, e, ring


def stack_oracle(graphs) -> Stack:
    """The former ``molgraph.stack``, over ``graph_arrays_oracle``'s arrays:
    every molecule's arrays concatenated, node ids offset by the atoms before."""
    arrays = [graph_arrays_oracle(g) for g in graphs]
    sizes = [len(x) for x, _, _ in arrays]
    starts = np.cumsum([0] + sizes[:-1])
    edges = np.concatenate([e for _, e, _ in arrays], axis=1)
    shift = np.repeat(starts, [e.shape[1] for _, e, _ in arrays])
    return Stack(np.concatenate([x for x, _, _ in arrays]),
                 np.repeat(np.arange(len(graphs), dtype=np.int64), sizes), starts,
                 edges[0] + shift, edges[1] + shift, edges[2],
                 np.concatenate([r for _, _, r in arrays]))


def tokenize_oracle(smiles: str) -> list[SmilesToken]:
    """The former lexer: one ``match`` per token, one SmilesToken each."""
    tokens = []
    i = 0
    while i < len(smiles):
        m = _TOKEN_RE.match(smiles, i)
        if m is None:
            if smiles[i] == "[":
                raise SmilesError("unterminated bracket atom", i)
            raise SmilesError(f"unexpected character {smiles[i]!r}", i)
        tokens.append(SmilesToken(m.lastgroup, m.group(), i))
        i = m.end()
    return tokens


def _element_oracle(symbol: str, pos: int) -> tuple[int, bool]:
    if symbol in AROMATIC_SUBSET:
        return ATOM_CODE[symbol.capitalize()], True
    if symbol in ATOM_CODE:
        return ATOM_CODE[symbol], False
    raise SmilesError(f"unknown element symbol {symbol!r}", pos)


def _bracket_oracle(token: SmilesToken) -> tuple[int, int, bool]:
    m = _BRACKET_RE.match(token.text)
    if m is None:
        raise SmilesError(f"malformed bracket atom {token.text!r}", token.pos)
    code, aromatic = _element_oracle(m.group("symbol"), token.pos)
    mark = m.group("chirality")
    if mark is None:
        chirality = CHIRALITY_NONE
    elif mark == "@":
        chirality = CHIRALITY_TET1
    elif mark == "@@":
        chirality = CHIRALITY_TET2
    else:
        chirality = CHIRALITY_OTHER
    return code, chirality, aromatic


def parse_oracle(smiles: str) -> MolGraph:
    """The former parser: token objects, an ``add_bond`` closure, a fresh
    AtomAttr per atom and ``molgraph_oracle``."""
    tokens = tokenize_oracle(smiles)
    if not any(t.kind.endswith("atom") for t in tokens):
        raise SmilesError("no atoms in input", 0)
    atoms, aromatic_atom, bonds, bond_keys = [], [], [], set()
    prev = None
    pending_bond = None
    pending_pos = 0
    branch_stack = []
    open_rings = {}

    def add_bond(u, v, order, pos):
        if u == v:
            raise SmilesError("ring closure bonds an atom to itself", pos)
        key = (min(u, v), max(u, v))
        if key in bond_keys:
            raise SmilesError("duplicate bond", pos)
        bond_keys.add(key)
        if order is None and not (aromatic_atom[u] and aromatic_atom[v]):
            order = "single"
        bonds.append((u, v, order))

    for tok in tokens:
        if tok.kind == "dot":
            raise SmilesError("multi-fragment input (dot) not supported", tok.pos)
        if tok.kind == "bond":
            if pending_bond is not None:
                raise SmilesError("two consecutive bond symbols", tok.pos)
            if prev is None:
                raise SmilesError("bond with no preceding atom", tok.pos)
            pending_bond = _ORACLE_BOND_CHARS[tok.text]
            pending_pos = tok.pos
            continue
        if tok.kind == "branch_open":
            if prev is None:
                raise SmilesError("branch with no preceding atom", tok.pos)
            if pending_bond is not None:
                raise SmilesError("bond symbol before branch open", tok.pos)
            branch_stack.append((prev, tok.pos))
            continue
        if tok.kind == "branch_close":
            if not branch_stack:
                raise SmilesError("unmatched branch close", tok.pos)
            if pending_bond is not None:
                raise SmilesError("dangling bond before branch close", tok.pos)
            prev, _ = branch_stack.pop()
            continue
        if tok.kind == "ring_closure":
            if prev is None:
                raise SmilesError("ring closure with no preceding atom", tok.pos)
            num = int(tok.text[1:]) if tok.text.startswith("%") else int(tok.text)
            if num in open_rings:
                other, other_order, _ = open_rings.pop(num)
                order = pending_bond if pending_bond is not None else other_order
                if (pending_bond is not None and other_order is not None
                        and pending_bond != other_order):
                    raise SmilesError("conflicting ring closure bond orders", tok.pos)
                add_bond(other, prev, order, tok.pos)
            else:
                open_rings[num] = (prev, pending_bond, tok.pos)
            pending_bond = None
            continue
        if tok.kind == "organic_atom":
            code, aromatic = _element_oracle(tok.text, tok.pos)
            chirality = CHIRALITY_NONE
        else:
            code, chirality, aromatic = _bracket_oracle(tok)
        atoms.append((code, chirality))
        aromatic_atom.append(aromatic)
        idx = len(atoms) - 1
        if prev is not None:
            add_bond(prev, idx, pending_bond, tok.pos)
        pending_bond = None
        prev = idx

    if pending_bond is not None:
        raise SmilesError("dangling bond at end of input", pending_pos)
    if branch_stack:
        raise SmilesError("unclosed branch", branch_stack[0][1])
    if open_rings:
        first = min(open_rings.values(), key=lambda item: item[2])
        raise SmilesError("unpaired ring closure", first[2])
    return molgraph_oracle([AtomAttr(c, ch) for c, ch in atoms], bonds)


def graph_state(g: MolGraph) -> tuple:
    """Everything a MolGraph holds, as plain values: atoms, bonds, adjacency,
    and the bytes, shape, dtype and writeability of ``X``, ``edges`` and
    ``ring_edges``."""
    arrays = tuple((a.tobytes(), a.shape, a.dtype.str, a.flags.writeable)
                   for a in (g.X, g.edges, g.ring_edges))
    return g.atoms, g.bonds, g._adjacency, arrays


# --- the former per-atom rule matcher -----------------------------------------

_CMP_ORACLE = {"=": operator.eq, ">=": operator.ge, "<=": operator.le}
_DEG_ORACLE = re.compile(r"^deg(?P<op>>=|<=|=)(?P<n>\d+)$")
_NBR_ORACLE = re.compile(r"^nbr\((?P<spec>[^)]+)\)(?P<op>>=|<=|=)(?P<n>\d+)$")
_MARKS_ORACLE = {
    "!-": lambda b: b.order != "single",
    "-@": lambda b: b.order == "single" and b.in_ring,
    "-": lambda b: b.order == "single",
    "=": lambda b: b.order == "double",
    "#": lambda b: b.order == "triple",
    ":": lambda b: b.order == "aromatic",
    "@": lambda b: b.in_ring,
}


class GraphContextOracle:
    """The former per-graph atom facts: Python lists and a carbonyl set."""

    def __init__(self, g: MolGraph):
        n = g.n_atoms
        self.g = g
        self.elem = [a.atom_type for a in g.atoms]
        self.degree = [g.degree(v) for v in range(n)]
        self.aromatic = [False] * n
        self.on_ring = [False] * n
        self.carbonyl = frozenset(
            a for b in g.bonds if b.order == "double"
            for a, o in ((b.u, b.v), (b.v, b.u))
            if self.elem[a] == ATOM_CODE["C"] and self.elem[o] == ATOM_CODE["O"])
        for b in g.bonds:
            if b.order == "aromatic":
                self.aromatic[b.u] = self.aromatic[b.v] = True
            if b.in_ring:
                self.on_ring[b.u] = self.on_ring[b.v] = True


def _target_oracle(spec):
    if spec == "*":
        return lambda ctx, u: True
    if spec == "C=O":
        return lambda ctx, u: u in ctx.carbonyl
    if spec.startswith("!"):
        codes = frozenset(ATOM_CODE[s] for s in spec[1:].split("|"))
        return lambda ctx, u: ctx.elem[u] not in codes
    codes = frozenset(ATOM_CODE[s] for s in spec.split("|"))
    return lambda ctx, u: ctx.elem[u] in codes


def _nbr_oracle(spec, cmp, n):
    bond_ok = None
    for mark, mark_test in _MARKS_ORACLE.items():
        if spec.startswith(mark):
            bond_ok, spec = mark_test, spec[len(mark):]
            break
    target = _target_oracle(spec)

    def test(ctx, v):
        count = 0
        for u, bid in ctx.g._adjacency[v]:
            if (bond_ok is None or bond_ok(ctx.g.bonds[bid])) and target(ctx, u):
                count += 1
        return cmp(count, n)

    return test


def _pred_oracle(text):
    if text in ("ar", "al"):
        want = text == "ar"
        return lambda ctx, v: ctx.aromatic[v] == want
    if text in ("ring", "acyclic"):
        want = text == "ring"
        return lambda ctx, v: ctx.on_ring[v] == want
    m = _DEG_ORACLE.match(text)
    if m:
        cmp, n = _CMP_ORACLE[m.group("op")], int(m.group("n"))
        return lambda ctx, v: cmp(ctx.degree[v], n)
    m = _NBR_ORACLE.match(text)
    if m:
        return _nbr_oracle(m.group("spec"), _CMP_ORACLE[m.group("op")], int(m.group("n")))
    return _target_oracle(text)


def env_oracle(expr: str):
    """The former compiled environment: one closure ``(ctx, v) -> bool`` per
    predicate, all of which must hold."""
    preds = [_pred_oracle(p.strip()) for p in expr.split(";") if p.strip()]
    return lambda ctx, v: all(pred(ctx, v) for pred in preds)


def match_rules_oracle(g: MolGraph, rules=None) -> frozenset[int]:
    """The former ``match_rules``: each endpoint of an acyclic bond is matched
    once against every distinct environment, then the (order, env, env)
    pairs are looked up in the table's triples."""
    if rules is None:
        rules = default_rules()
    if not isinstance(rules, RuleTable):
        rules = RuleTable(rules)
    envs = {expr: env_oracle(expr) for expr in rules.envs}
    ctx = GraphContextOracle(g)
    matched = {}
    out = set()
    for i, b in enumerate(g.bonds):
        if b.in_ring:
            continue
        for v in (b.u, b.v):
            if v not in matched:
                matched[v] = [e for e, env in envs.items() if env(ctx, v)]
        if any((b.order, x, y) in rules.pairs for x in matched[b.u] for y in matched[b.v]):
            out.add(i)
    return frozenset(out)


# --- the former stackers: edges, the rule-matching corpus, scaffold ring marks --

def stack_edges_oracle(graphs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The former ``molgraph.stack_edges``: (src, dst, bond order code) of the
    molecules' directed edges, node ids offset by the atoms before."""
    sizes = [g.n_atoms for g in graphs]
    edges = np.concatenate([g.edges for g in graphs], axis=1)
    shift = np.repeat(np.cumsum([0] + sizes[:-1]), [g.edges.shape[1] for g in graphs])
    return edges[0] + shift, edges[1] + shift, edges[2]


_C, _O = ATOM_CODE["C"], ATOM_CODE["O"]
_DOUBLE, _AROMATIC = BOND_ORDER_INDEX["double"], BOND_ORDER_INDEX["aromatic"]


class NarrowCorpusOracle:
    """The former ``motif._Corpus``: its own sizes, ring and element
    concatenations over ``stack_edges_oracle``, cast to int32 node ids and
    int8 orders and elements. ``s`` holds the narrow edge arrays under the
    names the compiled predicates read."""

    def __init__(self, graphs):
        self.sizes = [g.n_atoms for g in graphs]
        self.n = n = sum(self.sizes)
        src, dst, order = stack_edges_oracle(graphs)
        src, dst, order = src.astype(np.int32), dst.astype(np.int32), order.astype(np.int8)
        ring = np.concatenate([g.ring_edges for g in graphs])
        self.s = Stack(None, None, None, src, dst, order, ring)
        self.elem = elem = np.concatenate([g.X[:, 0] for g in graphs]).astype(np.int8)

        def marked(edge):
            return np.bincount(dst[edge], minlength=n) > 0

        self.degree = np.bincount(dst, minlength=n)
        self.aromatic = marked(order == _AROMATIC)
        self.on_ring = marked(ring)
        self.carbonyl = (elem == _C) & marked((order == _DOUBLE) & (elem[src] == _O))


def cleavable_bonds_narrow_oracle(graphs, rules=None) -> list[frozenset[int]]:
    """The former ``motif.cleavable_bonds``: ``NarrowCorpusOracle`` facts, and
    each cut edge mapped back to its molecule by ``np.searchsorted`` over the
    corpus' own ``cumsum`` starts."""
    graphs = list(graphs)
    if rules is None:
        rules = default_rules()
    if not isinstance(rules, RuleTable):
        rules = RuleTable(rules)
    ctx = NarrowCorpusOracle(graphs)
    acyclic = (ctx.s.src < ctx.s.dst) & ~ctx.s.ring
    u, v, order = ctx.s.src[acyclic], ctx.s.dst[acyclic], ctx.s.order[acyclic]
    at_u, at_v = {}, {}
    for expr, env in rules.envs.items():
        hit = env.matches(ctx)
        at_u[expr], at_v[expr] = hit[u], hit[v]
    cut = np.zeros(len(u), dtype=bool)
    for bond_order, x, y in rules.pairs:
        cut |= (order == BOND_ORDER_INDEX[bond_order]) & at_u[x] & at_v[y]
    starts = np.cumsum([0] + ctx.sizes)
    mol = np.searchsorted(starts, u[cut], side="right") - 1
    found: list[list[int]] = [[] for _ in graphs]
    for k, a, b in zip(mol.tolist(), (u[cut] - starts[mol]).tolist(),
                       (v[cut] - starts[mol]).tolist()):
        found[k] += [bid for w, bid in graphs[k]._adjacency[a] if w == b]
    return [frozenset(bids) for bids in found]


def scaffold_keys_ring_loop_oracle(graphs) -> list[str]:
    """The former ``train.scaffold_keys``: its own offsets, a Python loop over
    each molecule's ring bonds to mark ring atoms, ``stack_edges_oracle`` and
    its own molecule ids and atom types."""
    graphs = list(graphs)
    sizes = [g.n_atoms for g in graphs]
    offsets = np.cumsum([0] + sizes[:-1]).tolist()
    src, dst, order = stack_edges_oracle(graphs)
    n = sum(sizes)
    on_ring = np.zeros(n, dtype=bool)
    on_ring[[off + v for g, off in zip(graphs, offsets)
             for b in g.bonds if b.in_ring for v in (b.u, b.v)]] = True
    kept = np.ones(n, dtype=bool)
    while True:
        drop = kept & ~on_ring & (np.bincount(dst[kept[src]], minlength=n) <= 1)
        if not drop.any():
            break
        kept &= ~drop
    nodes = np.flatnonzero(kept)
    mol = np.repeat(np.arange(len(graphs)), sizes)[nodes]
    n_kept = np.bincount(mol, minlength=len(graphs))
    index = np.cumsum(kept) - 1
    sub = kept[src] & kept[dst]
    src, dst, order = index[src[sub]], index[dst[sub]], order[sub]
    atom_type = np.concatenate([g.X[:, 0] for g in graphs])[nodes]
    codes = hash_rows([np.ones(len(nodes), dtype=np.uint64), atom_type])
    rounds = n_kept[mol]
    for r in range(1, int(n_kept.max()) + 1):
        codes = np.where(rounds >= r, refine(codes, src, dst, order, 2), codes)
    by_mol = codes[np.lexsort((codes, mol))]
    final = hash_rows([n_kept], by_mol, n_kept)
    return [format(h, "016x") if k else "" for h, k in zip(final.tolist(), n_kept.tolist())]


# --- the full decoder --------------------------------------------------------
# The decoders as they were before they read only masked nodes: every node's
# rows, one composed op per step, and the reconstruction loss that gathered
# the masked rows from them, with the if-chain of heads and the target test
# that ``gin.TARGETS`` replaced. ``gin.decode_attrs`` and ``loss.rec_loss``
# match them within rounding.

def heads_oracle(targets):
    """(head, width) of each decoder head of ``targets``."""
    if targets == "atom_type":
        return (("atom", 119),)
    if targets == "chirality":
        return (("chir", 4),)
    if targets == "both_one_decoder":
        return (("joint", 119 + 4),)
    if targets == "both_two_decoders":
        return (("atom", 119), ("chir", 4))
    raise ValueError(targets)


def decode_attrs_full_oracle(tg, h, store, cfg, targets):
    """Every node's reconstruction rows, keyed by attribute."""
    out = {}
    if tg.s.src.size:   # one bond lookup, shared by the heads
        bond = ad.take_rows(store["embed.bond"], tg.s.order)
    for head, _ in heads_oracle(targets):
        p = f"dec.{head}"
        if cfg.decoder == "gnn":
            eps = store[f"{p}.eps"] if cfg.learn_epsilon else cfg.epsilon
            z = h * (1.0 + eps)
            if tg.s.src.size:
                z = z + ad.segment_sum(ad.take_rows(h, tg.s.src) + bond,
                                       tg.s.dst, len(tg.x))
            z = ad.relu(z @ store[f"{p}.w1"] + store[f"{p}.b1"])
            z = z @ store[f"{p}.w2"] + store[f"{p}.b2"]
            logits = z @ store[f"{p}.proj.w"] + store[f"{p}.proj.b"]
        else:
            z = ad.relu(h @ store[f"{p}.w1"] + store[f"{p}.b1"])
            logits = z @ store[f"{p}.w2"] + store[f"{p}.b2"]
        if head == "joint":
            out["atom_type"] = ad.slice_cols(logits, 0, 119)
            out["chirality"] = ad.slice_cols(logits, 119, 119 + 4)
        elif head == "atom":
            out["atom_type"] = logits
        else:
            out["chirality"] = logits
    return out


def rec_loss_full_oracle(logits, x_true, masked, cfg):
    """(loss, masked entries) over every node's rows ``logits``, gathered at
    the masked nodes."""
    terms, n_masked = [], 0
    for name in logits:
        dim = {"atom_type": 0, "chirality": 1}[name]
        idx = np.asarray(masked[dim], dtype=np.int64)
        if idx.size == 0:
            continue
        n_masked += idx.size
        terms.append(_one_dim_loss(ad.take_rows(logits[name], idx), x_true[idx, dim], cfg))
    if not terms:
        return ad.const(0.0), 0
    if len(terms) == 1:
        return terms[0], n_masked
    if cfg.targets == "both_two_decoders":
        return (terms[0] + terms[1]) * 0.5, n_masked
    return terms[0] + terms[1], n_masked


def write_checkpoint_naming_twice(path, ck, name) -> None:
    """Write checkpoint ``ck`` to ``path`` with one more record after its
    last: tensor ``name`` again, its values plus one. Every other byte is
    ``save_checkpoint``'s, the tensor count included."""
    save_checkpoint(path, ParamStore({}), ck.config, ck.rng, ck.epoch)
    head = len(path.read_bytes())   # the bytes before the first record
    again = ParamStore({name: ad.parameter(ck.store[name].values + 1.0)})
    save_checkpoint(path, again, ck.config, ck.rng, ck.epoch)
    record = path.read_bytes()[head:]
    save_checkpoint(path, ck.store, ck.config, ck.rng, ck.epoch)
    data = path.read_bytes()
    (count,) = struct.unpack_from("<I", data, head - 4)
    path.write_bytes(data[:head - 4] + struct.pack("<I", count + 1) + data[head:] + record)
