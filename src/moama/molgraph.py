"""Attributed molecular graph model.

Molecules are heavy-atom graphs: nodes carry a (atom_type, chirality) code
pair, bonds carry an order and a derived ring flag. Hydrogens are implicit and
never appear as nodes. Graphs are immutable after construction, so arrays
derived once (``edges``) can be shared by every batch that holds the graph.

Attribute code spaces:
  atom_type  0..118 for real atoms (element number - 1); 119 is reserved for
             the mask token and is rejected on construction.
  chirality  0..3 for real atoms (0 none, 1/2 tetrahedral tags, 3 other);
             4 is reserved for the mask token.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass

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


class MolGraph:
    """Immutable attributed molecular graph.

    ``bonds`` ring flags are derived with bridge detection at construction
    time, never caller-supplied. A bond spec's order may be None, meaning
    unwritten: it becomes ``"aromatic"`` when the bond lies on a ring and
    ``"single"`` otherwise. The attribute matrix ``X`` is the read-only
    (|V|, 2) integer matrix of (atom_type, chirality) codes. ``edges`` is the
    read-only (3, 2|E|) integer array of directed edges, rows (src, dst, bond
    order code), sorted by (dst, src): the order in which the encoder sums
    each node's messages.
    """

    __slots__ = ("atoms", "bonds", "_adjacency", "_X", "_edges")

    def __init__(self, atoms, bonds):
        """Build a graph from AtomAttr values and (u, v, order) bond specs;
        an order of None is resolved by the bond's ring flag."""
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
        self._adjacency = tuple(tuple(sorted(a)) for a in adj)

        bridge = bridge_flags(self._adjacency, len(specs))
        self.atoms = atoms
        self.bonds = tuple(
            Bond(u, v, order if order is not None else "single" if bridge[i] else "aromatic",
                 in_ring=not bridge[i])
            for i, (u, v, order) in enumerate(specs)
        )

        x = np.array([[a.atom_type, a.chirality] for a in atoms], dtype=np.int64)
        x.setflags(write=False)
        self._X = x

        # each adjacency list is sorted by neighbor, so walking the lists in
        # node order yields the directed edges sorted by (dst, src)
        codes = [BOND_ORDER_INDEX[b.order] for b in self.bonds]
        nbrs = self._adjacency
        e = np.array([[u for a in nbrs for u, _ in a],
                      [v for v, a in enumerate(nbrs) for _ in a],
                      [codes[i] for a in nbrs for _, i in a]], dtype=np.int64)
        e.setflags(write=False)
        self._edges = e

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def X(self) -> np.ndarray:
        return self._X

    @property
    def edges(self) -> np.ndarray:
        return self._edges

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(u for u, _ in self._adjacency[v])

    def degree(self, v: int) -> int:
        return len(self._adjacency[v])


def adjacency(g: MolGraph) -> tuple[tuple[int, ...], ...]:
    """Neighbor lists per node, each sorted ascending."""
    return tuple(tuple(u for u, _ in nbrs) for nbrs in g._adjacency)


def stack_edges(graphs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(src, dst, bond order code) of the directed edges of one or more
    molecules stacked in order, node ids offset by the atoms of the molecules
    before. Each molecule's edges are (dst, src)-sorted and later molecules
    hold higher node ids, so the stacked edges are (dst, src)-sorted too."""
    sizes = [g.n_atoms for g in graphs]
    edges = np.concatenate([g.edges for g in graphs], axis=1)
    shift = np.repeat(np.cumsum([0] + sizes[:-1]), [g.edges.shape[1] for g in graphs])
    return edges[0] + shift, edges[1] + shift, edges[2]


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
    return frozenset(_bfs(g, sources, k))


def shortest_path_lengths(g: MolGraph, v: int) -> dict[int, int]:
    """BFS distances from v to every reachable node."""
    return _bfs(g, [v])


def _bfs(g: MolGraph, sources, k: int | None = None) -> dict[int, int]:
    """Distance from the nearest source to each node within k hops (every
    reachable node when k is None), in visiting order."""
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
    return dist


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
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            node, parent_edge, it = stack[-1]
            pushed = False
            for nbr, eid in it:
                if eid == parent_edge:
                    continue
                if disc[nbr] == -1:
                    disc[nbr] = low[nbr] = timer
                    timer += 1
                    stack.append((nbr, eid, iter(adj[nbr])))
                    pushed = True
                    break
                low[node] = min(low[node], disc[nbr])
            if not pushed:
                stack.pop()
                if stack:
                    pnode = stack[-1][0]
                    low[pnode] = min(low[pnode], low[node])
                    if low[node] > disc[pnode]:
                        is_bridge[parent_edge] = True
    return is_bridge
