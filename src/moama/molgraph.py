"""Attributed molecular graph model.

Molecules are heavy-atom graphs: nodes carry a (atom_type, chirality) code
pair, bonds carry an order and a derived ring flag. Hydrogens are implicit and
are no nodes, except a hydrogen written as a bracket atom (``[H]``, ``[2H]``),
which is a node of atom type 0 as any atom is. Graphs are immutable after
construction. One private builder fills a graph from bond specs that are
already normalized and valid, plus their ring flags. The parser hands it the
flags it reads off its own parse tree; the public constructor first
validates, normalizes and indexes the bond specs in one sweep, then finds the
flags with one bridge search (``bridge_flags``).

A ``Stack`` lays many molecules into one node and directed-edge space: the
disjoint-union layout of Fey & Lenssen 2019 (arXiv:1903.02428). Arrays live
only in stacks. ``build_stack`` lays a corpus out once, one ``np.fromiter``
per field: ``smiles.read_dataset`` calls it on the molecules it parses, and a
graph made alone becomes a corpus of one when its arrays are first read. A
graph's ``X``, ``edges`` and ``ring_edges`` are read-only views of its rows of
its corpus. The corpus kernels (the rule matcher ``motif._Corpus``, the
fingerprints and the scaffold keys) read a corpus whole through
``corpus_stack``. ``stack`` concatenates the arrays of molecules that are not
one whole corpus, such as a GIN batch (``gin.TensorGraph``). Only this module
reads a graph's ``edges`` or ``ring_edges``.

Attribute code spaces:
  atom_type  0..118 for real atoms (element number - 1); 119 is reserved for
             the mask token and is rejected on construction.
  chirality  0..3 for real atoms (0 none, 1/2 tetrahedral tags, 3 other);
             4 is reserved for the mask token.
"""

from __future__ import annotations

import functools
import operator
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

N_ATOM_TYPES = 119
N_CHIRALITY = 4
MASK_ATOM_TYPE = 119
MASK_CHIRALITY = 4

CHIRALITY_NONE = 0
CHIRALITY_TET1 = 1
CHIRALITY_TET2 = 2
CHIRALITY_OTHER = 3

BOND_ORDERS = ("single", "double", "triple", "aromatic")
BOND_ORDER_INDEX = {name: i for i, name in enumerate(BOND_ORDERS)}


@dataclass(frozen=True)
class AtomAttr:
    """Node attributes: categorical atom type and chirality tag."""

    atom_type: int
    chirality: int = CHIRALITY_NONE

    def __post_init__(self):
        if not 0 <= self.atom_type < N_ATOM_TYPES:
            raise ValueError(f"atom_type {self.atom_type} outside [0, {N_ATOM_TYPES})")
        if not 0 <= self.chirality < N_CHIRALITY:
            raise ValueError(f"chirality {self.chirality} outside [0, {N_CHIRALITY})")


@dataclass(frozen=True)
class Bond:
    """Undirected bond; endpoints are normalized so u < v."""

    u: int
    v: int
    order: str
    in_ring: bool = False

    def __post_init__(self):
        if self.u == self.v:
            raise ValueError("bond endpoints must be distinct")
        if self.order not in BOND_ORDER_INDEX:
            raise ValueError(f"unknown bond order {self.order!r}")


@functools.lru_cache(maxsize=1 << 16, typed=True)
def _bond(u, v, order, in_ring) -> Bond:
    """One Bond per distinct value: Bond is frozen, so graphs share it."""
    return Bond(u, v, order, in_ring)


class MolGraph:
    """Immutable attributed molecular graph.

    ``bonds`` ring flags are derived at construction time, never
    caller-supplied: ``smiles.parse`` reads them off its parse tree, and
    ``MolGraph(atoms, bonds)``, which also takes disconnected and hand-built
    graphs, runs ``bridge_flags``. A bond spec's order may be None, meaning
    unwritten: it becomes ``"aromatic"`` when the bond lies on a ring and
    ``"single"`` otherwise. The attribute matrix ``X`` is the read-only
    (|V|, 2) integer matrix of (atom_type, chirality) codes. ``edges`` is the
    read-only (3, 2|E|) integer array of directed edges, rows (src, dst, bond
    order code), sorted by (dst, src): the order in which the encoder sums
    each node's messages. ``ring_edges`` is the read-only boolean ring flag of
    each of those directed edges. All three are views of the graph's rows of
    its corpus (``build_stack``), in the graph's own node ids; a graph made
    alone becomes a corpus of one when they are first read.
    """

    __slots__ = ("atoms", "bonds", "_adjacency", "_corpus", "_index", "_views")

    def __init__(self, atoms, bonds):
        """Build a graph from AtomAttr values and (u, v, order) bond specs;
        an order of None is resolved by the bond's ring flag."""
        atoms = tuple(atoms)
        n = len(atoms)
        if not n:
            raise ValueError("molecule must have at least one atom")
        # one sweep validates each spec, normalizes it to u < v and fills the adjacency
        adj = [[] for _ in range(n)]
        specs = []
        for i, (u, v, order) in enumerate(bonds):
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bond ({u}, {v}) references missing atom")
            if u == v:
                raise ValueError(f"self-bond on atom {u}")
            key = (u, v) if u < v else (v, u)
            if any(w == v for w, _ in adj[u]):
                raise ValueError(f"duplicate bond {key}")
            specs.append((*key, order))
            adj[u].append((v, i))
            adj[v].append((u, i))
        self._build(atoms, specs, [not b for b in bridge_flags(adj, len(specs))], adj)

    def _build(self, atoms, specs, ring, adj) -> MolGraph:
        """Fill this graph from a tuple of atoms, bond specs that are already
        normalized (u < v) and valid, each spec's ring flag, and each node's
        list of (neighbor, bond id) pairs in any order; returns the graph,
        which belongs to no corpus yet."""
        self.atoms = atoms
        self.bonds = tuple(
            _bond(u, v, order if order is not None else "aromatic" if r else "single", r)
            for (u, v, order), r in zip(specs, ring)
        )
        for a in adj:
            a.sort()
        self._adjacency = tuple(map(tuple, adj))
        self._corpus = self._index = self._views = None
        return self

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(``X``, ``edges``, ``ring_edges``), made once as views of the
        corpus."""
        if self._views is None:
            if self._corpus is None:
                build_stack([self])
            c, i = self._corpus, self._index
            n0, n1, e0, e1 = c.nodes[i], c.nodes[i + 1], c.edges[i], c.edges[i + 1]
            self._views = c.stack.x[n0:n1], c.local[:, e0:e1], c.stack.ring[e0:e1]
        return self._views

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def X(self) -> np.ndarray:
        return self._arrays()[0]

    @property
    def edges(self) -> np.ndarray:
        return self._arrays()[1]

    @property
    def ring_edges(self) -> np.ndarray:
        return self._arrays()[2]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(u for u, _ in self._adjacency[v])

    def degree(self, v: int) -> int:
        return len(self._adjacency[v])


def adjacency(g: MolGraph) -> tuple[tuple[int, ...], ...]:
    """Neighbor lists per node, each sorted ascending."""
    return tuple(tuple(u for u, _ in nbrs) for nbrs in g._adjacency)


class Stack(NamedTuple):
    """Molecules laid end to end in one node space and one directed-edge
    space: node ids are offset by the atoms of the molecules before, so no
    edge joins two molecules and the edges stay (dst, src)-sorted."""

    x: np.ndarray       # (n, 2) attribute codes of every node, as ``MolGraph.X``
    mol: np.ndarray     # the molecule of each node
    starts: np.ndarray  # the first node id of each molecule
    src: np.ndarray     # the directed edges, as ``MolGraph.edges``' rows
    dst: np.ndarray
    order: np.ndarray
    ring: np.ndarray    # the ring flag of each directed edge


class _Corpus(NamedTuple):
    """A corpus's ``Stack`` and what its molecules' views read besides."""

    stack: Stack
    local: np.ndarray   # (3, edges): src and dst in their molecule's node ids, and stack.order
    nodes: list[int]    # molecule i holds stack nodes nodes[i]:nodes[i + 1]
    edges: list[int]    # and directed edges edges[i]:edges[i + 1]


def build_stack(graphs) -> Stack:
    """Lay molecules into one new corpus and return its read-only ``Stack``;
    each molecule's ``X``, ``edges`` and ``ring_edges`` become views of it.

    Each field is one ``np.fromiter`` over the molecules' atoms, bonds or
    (neighbor, bond id) adjacency lists, fed by iterators, then array
    arithmetic: walking each molecule's sorted adjacency lists in node order
    yields its directed edges sorted by (dst, src), and a directed edge takes
    its bond's order code and ring flag by the bond's corpus-wide id.
    """
    graphs = list(graphs)
    nodes = [0, *accumulate(len(g.atoms) for g in graphs)]
    bond_starts = [0, *accumulate(len(g.bonds) for g in graphs)]
    edges = [2 * b for b in bond_starts]
    n, n_bonds, n_edges = nodes[-1], bond_starts[-1], edges[-1]

    def each(field, attr=None):   # every molecule's atoms, bonds or adjacency lists in turn
        items = chain.from_iterable(map(operator.attrgetter(field), graphs))
        return items if attr is None else map(operator.attrgetter(attr), items)

    x = np.empty((n, 2), dtype=np.int64)
    for col, attr in enumerate(("atom_type", "chirality")):
        x[:, col] = np.fromiter(each("atoms", attr), np.int64, n)
    pairs = np.fromiter(chain.from_iterable(chain.from_iterable(each("_adjacency"))),
                        np.int64, 2 * n_edges).reshape(n_edges, 2)
    degree = np.fromiter(map(len, each("_adjacency")), np.int64, n)
    code = np.fromiter(map(BOND_ORDER_INDEX.__getitem__, each("bonds", "order")),
                       np.int64, n_bonds)
    flag = np.fromiter(each("bonds", "in_ring"), bool, n_bonds)

    mol = np.repeat(np.arange(len(graphs), dtype=np.int64), np.diff(nodes))
    starts = np.array(nodes[:-1], dtype=np.int64)
    dst = np.repeat(np.arange(n, dtype=np.int64), degree)
    edge_mol = mol[dst]
    shift = starts[edge_mol]
    bond = pairs[:, 1] + np.array(bond_starts[:-1], dtype=np.int64)[edge_mol]
    local = np.empty((3, n_edges), dtype=np.int64)
    local[0] = pairs[:, 0]
    np.subtract(dst, shift, out=local[1])
    local[2] = code[bond]
    s = Stack(x, mol, starts, local[0] + shift, dst, local[2], flag[bond])
    for a in (*s, local):
        a.setflags(write=False)
    corpus = _Corpus(s, local, nodes, edges)
    for i, g in enumerate(graphs):
        g._corpus, g._index, g._views = corpus, i, None
    return s


def corpus_stack(graphs) -> Stack:
    """The ``Stack`` of one or more molecules. When they are all of one
    corpus in its order (``smiles.read_dataset``'s molecules, or one molecule
    made alone), it is that corpus's stack, built once; otherwise their arrays
    are concatenated (``stack``)."""
    graphs = list(graphs)
    c = graphs[0]._corpus
    if c is None and len(graphs) == 1:
        return build_stack(graphs)
    if (c is not None and len(c.nodes) == len(graphs) + 1
            and all(g._corpus is c and g._index == i for i, g in enumerate(graphs))):
        return c.stack
    return stack(graphs)


def stack(graphs) -> Stack:
    """The ``Stack`` of one or more molecules, made by concatenating their
    arrays: int64 arrays and a boolean ``ring``."""
    sizes = [g.n_atoms for g in graphs]
    starts = np.cumsum([0] + sizes[:-1])
    edges = np.concatenate([g.edges for g in graphs], axis=1)
    shift = np.repeat(starts, [g.edges.shape[1] for g in graphs])
    return Stack(np.concatenate([g.X for g in graphs]),
                 np.repeat(np.arange(len(graphs), dtype=np.int64), sizes), starts,
                 edges[0] + shift, edges[1] + shift, edges[2],
                 np.concatenate([g.ring_edges for g in graphs]))


def ring_bonds(g: MolGraph) -> frozenset[int]:
    """Ids of bonds lying on at least one cycle (the non-bridge edges)."""
    return frozenset(i for i, b in enumerate(g.bonds) if b.in_ring)


def k_hop_neighborhood(g: MolGraph, v: int | Iterable[int], k: int) -> frozenset[int]:
    """All nodes at shortest-path distance <= k from v, including v.

    ``v`` is one node id or a collection of them; for a collection, one BFS
    gives the nodes within k hops of any of them.
    """
    sources = [int(v)] if isinstance(v, (int, np.integer)) else [int(s) for s in v]
    for s in sources:
        if not 0 <= s < g.n_atoms:
            raise ValueError(f"node id {s} out of range")
    if k < 0:
        raise ValueError("hop count must be >= 0")
    dist = dict.fromkeys(sources, 0)
    queue = deque(dist)
    while queue:
        node = queue.popleft()
        if dist[node] == k:
            continue
        for u, _ in g._adjacency[node]:
            if u not in dist:
                dist[u] = dist[node] + 1
                queue.append(u)
    return frozenset(dist)


def bridge_flags(adj, n_edges: int) -> list[bool]:
    """Mark bridge edges (removal disconnects) via iterative low-link DFS
    over ``adj``, each node's (neighbor, edge id) pairs."""
    n = len(adj)
    disc = [-1] * n
    low = [0] * n
    is_bridge = [False] * n_edges
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        path = [(root, -1, iter(adj[root]))]
        while path:
            node, parent_edge, it = path[-1]
            pushed = False
            for nbr, eid in it:
                if eid == parent_edge:
                    continue
                if disc[nbr] == -1:
                    disc[nbr] = low[nbr] = timer
                    timer += 1
                    path.append((nbr, eid, iter(adj[nbr])))
                    pushed = True
                    break
                low[node] = min(low[node], disc[nbr])
            if not pushed:
                path.pop()
                if path:
                    pnode = path[-1][0]
                    low[pnode] = min(low[pnode], low[node])
                    if low[node] > disc[pnode]:
                        is_bridge[parent_edge] = True
    return is_bridge
