"""Rule-based decomposition of molecules into disjoint motifs.

Cleavable bonds are found by matching each acyclic bond's endpoint
environments against a rule table (see ``rules/brics.tsv`` for the bundled
sixteen link environments and the predicate grammar). Cleaving removes edges
only; motifs are the connected components that remain, so their union always
reconstructs the molecule exactly and ring bonds are never cut. Which bonds
lie on a ring is ``Bond.in_ring``, from ``MolGraph``'s one ring perception.

Matching runs once per corpus. ``_Corpus`` holds the molecules' stack
(``molgraph.corpus_stack``, the one ``read_dataset`` built for a parsed
corpus: its per-directed-edge src, dst, order and ring arrays and its
elements) and the per-atom degree, aromatic, on_ring and carbonyl facts
derived from it. Each predicate compiles, when the table loads, into an array
test ``(ctx) -> bool[n_atoms]``; ``nbr(...)`` counts the marked edges from
matching neighbors with one ``np.bincount``, and an environment is the AND of
its predicates. A loaded table (``RuleTable``) also builds, once, the set of
(bond order, left expr, right expr) triples that holds every rule in both
orientations and the table of distinct environments.
``cleavable_bonds`` evaluates each distinct environment once over the corpus
and cuts an acyclic bond when one triple holds at its two endpoints;
``decompositions`` splits every molecule at its cut bonds. ``match_rules`` and
``decompose`` are their one-molecule calls. ``default_rules`` loads the
bundled table once; ``MotifConfig.rule_table`` always gives a ``RuleTable``,
the bundled one when ``motif.rules`` is empty.
"""

from __future__ import annotations

import functools
import operator
import re
from collections.abc import Iterator
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import DataError, ascii_number, read_input
from .molgraph import BOND_ORDER_INDEX, BOND_ORDERS, N_ATOM_TYPES, MolGraph, corpus_stack
from .smiles import ATOM_CODE

_C = ATOM_CODE["C"]
_O = ATOM_CODE["O"]
_SINGLE, _DOUBLE, _TRIPLE, _AROMATIC = (BOND_ORDER_INDEX[o] for o in BOND_ORDERS)

_CMP = {"=": operator.eq, ">=": operator.ge, "<=": operator.le}

_DEG_RE = re.compile(r"^deg(?P<op>>=|<=|=)(?P<n>\d+)$", re.ASCII)
_NBR_RE = re.compile(r"^nbr\((?P<spec>[^)]+)\)(?P<op>>=|<=|=)(?P<n>\d+)$", re.ASCII)
_ELEMSET_RE = re.compile(r"^[A-Z][a-z]?(\|[A-Z][a-z]?)*$")

# The one table of bond marks, each a test on every directed edge. Its order
# is the match order: a mark is tried before any mark that is a prefix of it
# ("!-" and "-@" before "-").
_BOND_MARKS = {
    "!-": lambda s: s.order != _SINGLE,
    "-@": lambda s: (s.order == _SINGLE) & s.ring,
    "-": lambda s: s.order == _SINGLE,
    "=": lambda s: s.order == _DOUBLE,
    "#": lambda s: s.order == _TRIPLE,
    ":": lambda s: s.order == _AROMATIC,
    "@": lambda s: s.ring,
}


def _parse_elemset(text: str) -> np.ndarray:
    """A boolean lookup table over atom types, True at each listed element."""
    if not _ELEMSET_RE.match(text):
        raise DataError(f"bad element set {text!r} in rule environment")
    member = np.zeros(N_ATOM_TYPES, dtype=bool)
    for sym in text.split("|"):
        if sym not in ATOM_CODE:
            raise DataError(f"unknown element {sym!r} in rule environment")
        member[ATOM_CODE[sym]] = True
    return member


def _parse_target(spec: str):
    if spec == "*":
        return lambda ctx: np.ones(ctx.n, dtype=bool)
    if spec == "C=O":
        return lambda ctx: ctx.carbonyl
    member = _parse_elemset(spec.removeprefix("!"))
    if spec.startswith("!"):
        member = ~member
    return lambda ctx: member[ctx.elem]


def _nbr_count(spec: str, cmp, n: int):
    bond_ok = None
    for mark, mark_test in _BOND_MARKS.items():
        if spec.startswith(mark):
            bond_ok, spec = mark_test, spec[len(mark):]
            break
    target = _parse_target(spec)

    def test(ctx):
        hit = target(ctx)[ctx.s.src]
        if bond_ok is not None:
            hit &= bond_ok(ctx.s)
        return cmp(np.bincount(ctx.s.dst[hit], minlength=ctx.n), n)

    return test


def _parse_pred(text: str):
    """Compile one predicate into a test ``(ctx) -> bool[n_atoms]``."""
    if text in ("ar", "al"):
        want = text == "ar"
        return lambda ctx: ctx.aromatic == want
    if text in ("ring", "acyclic"):
        want = text == "ring"
        return lambda ctx: ctx.on_ring == want
    m = _DEG_RE.match(text)
    if m:
        cmp, n = _CMP[m.group("op")], int(m.group("n"))
        return lambda ctx: cmp(ctx.degree, n)
    m = _NBR_RE.match(text)
    if m:
        return _nbr_count(m.group("spec"), _CMP[m.group("op")], int(m.group("n")))
    if _ELEMSET_RE.match(text):
        return _parse_target(text)  # the element-set target, tested on each atom
    raise DataError(f"cannot parse rule predicate {text!r}")


@dataclass(frozen=True)
class EnvPattern:
    """Compiled conjunction of endpoint-environment predicates."""

    expr: str
    preds: tuple

    @classmethod
    def compile(cls, expr: str) -> "EnvPattern":
        parts = [p.strip() for p in expr.split(";") if p.strip()]
        if not parts:
            raise DataError("empty rule environment expression")
        return cls(expr, tuple(_parse_pred(p) for p in parts))

    def matches(self, ctx: "_Corpus") -> np.ndarray:
        """Which atoms of the corpus match every predicate."""
        hit = self.preds[0](ctx)
        for pred in self.preds[1:]:
            hit = hit & pred(ctx)
        return hit


@dataclass(frozen=True)
class BricsRule:
    rule_id: int
    left: EnvPattern
    right: EnvPattern
    bond_order: str


class _Corpus:
    """What every compiled predicate reads: the molecules' stack (``s``,
    ``molgraph.corpus_stack``) and four atom facts derived from it once. The
    stack's int64 arrays are read as they are: narrower copies cost more to
    make than they save in matching."""

    def __init__(self, graphs):
        self.s = s = corpus_stack(graphs)
        self.n = n = len(s.mol)
        self.elem = elem = s.x[:, 0]

        def marked(edge):   # atoms at the head of at least one marked edge
            return np.bincount(s.dst[edge], minlength=n) > 0

        self.degree = np.bincount(s.dst, minlength=n)
        self.aromatic = marked(s.order == _AROMATIC)
        self.on_ring = marked(s.ring)
        self.carbonyl = (elem == _C) & marked((s.order == _DOUBLE) & (elem[s.src] == _O))


def carbonyl_carbons(g: MolGraph) -> frozenset[int]:
    """Ids of the carbons double-bonded to an oxygen."""
    return frozenset(np.flatnonzero(_Corpus([g]).carbonyl).tolist())


class RuleTable(tuple):
    """A tuple of rules, compiled for ``cleavable_bonds`` once: ``pairs``
    holds every rule's (bond order, left expr, right expr) in both
    orientations and ``envs`` each distinct environment by its expression
    text. A slice is a plain tuple, which ``cleavable_bonds`` compiles per
    call."""

    def __new__(cls, rules):
        table = super().__new__(cls, rules)
        table.pairs = frozenset((r.bond_order, a.expr, b.expr) for r in table
                                for a, b in ((r.left, r.right), (r.right, r.left)))
        table.envs = {e.expr: e for r in table for e in (r.left, r.right)}
        return table


@dataclass(frozen=True)
class MotifConfig:
    """The ``motif.*`` keys; empty ``rules`` selects the bundled table."""

    rules: str = ""

    def rule_table(self) -> RuleTable:
        """The rule table to decompose with; the bundled one when ``rules`` is empty."""
        return load_rules(self.rules) if self.rules else default_rules()


def load_rules(path=None) -> RuleTable:
    """Load a rule table; the bundled default when ``path`` is None."""
    origin = "bundled rules" if path is None else str(path)
    if path is None:
        path = resources.files("moama") / "rules" / "brics.tsv"
    text = read_input(path, "rule file")

    rules = []
    envs: dict[str, EnvPattern] = {}   # each expression text compiled once, shared by its rules
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise DataError(f"{origin}:{lineno}: expected 4 tab-separated fields")
        rid_text, left, right, order = (p.strip() for p in parts)
        try:
            rid = ascii_number(rid_text, int)
        except ValueError as e:
            raise DataError(f"{origin}:{lineno}: bad rule id {rid_text!r}") from e
        if not 1 <= rid <= 16:
            raise DataError(f"{origin}:{lineno}: rule id {rid} outside 1..16")
        if order not in BOND_ORDERS:
            raise DataError(f"{origin}:{lineno}: unknown bond order {order!r}")
        try:
            for expr in (left, right):
                if expr not in envs:
                    envs[expr] = EnvPattern.compile(expr)
            rules.append(BricsRule(rid, envs[left], envs[right], order))
        except DataError as e:
            raise DataError(f"{origin}:{lineno}: {e}") from e
    if not rules:
        raise DataError(f"{origin}: no rules found")
    return RuleTable(rules)


@functools.cache
def default_rules() -> RuleTable:
    """The bundled rule table, loaded once."""
    return load_rules()


def cleavable_bonds(graphs, rules=None) -> list[frozenset[int]]:
    """Bond ids cleavable under the rule table, per molecule of a corpus, in
    one pass over the whole corpus. Ring bonds never match.

    Each distinct environment of the table, keyed by its expression text, is
    matched once against every atom. An acyclic bond (u, v), u < v, is
    cleavable when one (u env, v env) pair is in the set of (bond order, left,
    right) rule triples, which holds every rule in both orientations. Any
    sequence of rules works; a ``RuleTable`` brings its set already built.
    """
    graphs = list(graphs)
    if not graphs:
        return []
    if rules is None:
        rules = default_rules()
    if not isinstance(rules, RuleTable):
        rules = RuleTable(rules)
    ctx = _Corpus(graphs)
    s = ctx.s
    acyclic = (s.src < s.dst) & ~s.ring    # each acyclic bond once, u = src < v = dst
    u, v, order = s.src[acyclic], s.dst[acyclic], s.order[acyclic]
    at_u, at_v = {}, {}
    for expr, env in rules.envs.items():
        hit = env.matches(ctx)
        at_u[expr], at_v[expr] = hit[u], hit[v]
    cut = np.zeros(len(u), dtype=bool)
    for bond_order, x, y in rules.pairs:
        cut |= (order == BOND_ORDER_INDEX[bond_order]) & at_u[x] & at_v[y]

    # each cut edge back to its molecule and that molecule's bond id
    u, v = u[cut], v[cut]
    mol = s.mol[u]
    found: list[list[int]] = [[] for _ in graphs]
    for k, a, b in zip(mol.tolist(), (u - s.starts[mol]).tolist(), (v - s.starts[mol]).tolist()):
        found[k] += [bid for w, bid in graphs[k]._adjacency[a] if w == b]
    return [frozenset(bids) for bids in found]


def match_rules(g: MolGraph, rules=None) -> frozenset[int]:
    """Bond ids of one molecule cleavable under the rule table; see
    ``cleavable_bonds``."""
    return cleavable_bonds([g], rules)[0]


@dataclass(frozen=True)
class Motif:
    """Connected induced subgraph: node ids plus internal bond ids."""

    node_ids: tuple[int, ...]
    induced_edges: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.node_ids)


@dataclass(frozen=True)
class MotifDecomposition:
    """Node partition into motifs. Every cut bond joins two motifs, and every
    bond joining two motifs is a cut bond."""

    motifs: tuple[Motif, ...]
    cut_edges: tuple[int, ...]
    cut_pairs: tuple[tuple[int, int], ...]
    motif_of: tuple[int, ...]

    @property
    def n_motifs(self) -> int:
        return len(self.motifs)


def decompositions(graphs, rules=None) -> Iterator[MotifDecomposition]:
    """Split each molecule of a corpus into motifs by removing every
    cleavable bond. The rule table is matched for the whole corpus at the
    call; each molecule is split when the iterator reaches it, so a caller
    that streams holds one decomposition at a time."""
    graphs = list(graphs)
    return map(_split, graphs, cleavable_bonds(graphs, rules))


def decompose(g: MolGraph, rules=None) -> MotifDecomposition:
    """Split one molecule into motifs; see ``decompositions``."""
    return next(decompositions([g], rules))


def _split(g: MolGraph, cut: frozenset[int]) -> MotifDecomposition:
    """The motifs left when the ``cut`` bonds are removed, in order of their
    smallest atom."""
    n = g.n_atoms
    comp = [-1] * n
    order = []
    for start in range(n):
        if comp[start] != -1:
            continue
        comp[start] = len(order)
        todo = [start]
        members = [start]
        while todo:
            v = todo.pop()
            for u, bid in g._adjacency[v]:
                if bid in cut or comp[u] != -1:
                    continue
                comp[u] = comp[start]
                todo.append(u)
                members.append(u)
        order.append(sorted(members))

    edges_by_comp: list[list[int]] = [[] for _ in order]
    for i, b in enumerate(g.bonds):
        if i not in cut:
            edges_by_comp[comp[b.u]].append(i)
    motifs = tuple(
        Motif(tuple(nodes), tuple(sorted(edges)))
        for nodes, edges in zip(order, edges_by_comp)
    )
    cut_sorted = tuple(sorted(cut))
    cut_pairs = tuple((g.bonds[i].u, g.bonds[i].v) for i in cut_sorted)
    return MotifDecomposition(motifs, cut_sorted, cut_pairs, tuple(comp))


def motif_adjacency(dec: MotifDecomposition) -> tuple[frozenset[int], ...]:
    """Motif-level neighbor sets: i ~ j iff a cut edge joins them."""
    nbrs: list[set[int]] = [set() for _ in dec.motifs]
    for u, v in dec.cut_pairs:
        mu, mv = dec.motif_of[u], dec.motif_of[v]
        nbrs[mu].add(mv)
        nbrs[mv].add(mu)
    return tuple(frozenset(s) for s in nbrs)
