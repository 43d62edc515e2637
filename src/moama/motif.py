"""Rule-based decomposition of molecules into disjoint motifs.

Cleavable bonds are found by matching each acyclic bond's endpoint
environments against a rule table (see ``rules/brics.tsv`` for the bundled
sixteen link environments and the predicate grammar). Cleaving removes edges
only; motifs are the connected components that remain, so their union always
reconstructs the molecule exactly and ring bonds are never cut. Which bonds
lie on a ring is ``Bond.in_ring``, from ``MolGraph``'s one ring perception.

Each predicate compiles, when the table loads, into a test ``(ctx, v) ->
bool`` on one atom; ``nbr(...)`` compiles its bond mark and target into
smaller tests. A loaded table (``RuleTable``) also builds, once, the set of
(bond order, left expr, right expr) triples that holds every rule in both
orientations and the table of distinct environments. ``match_rules`` lists
the environments each bond endpoint matches and looks the pair up in that set.
``default_rules`` loads the bundled table once; ``MotifConfig.rule_table``
always gives a ``RuleTable``, the bundled one when ``motif.rules`` is empty.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass
from importlib import resources

from .errors import DataError, read_input
from .molgraph import BOND_ORDERS, MolGraph
from .smiles import ATOM_CODE

_C = ATOM_CODE["C"]
_O = ATOM_CODE["O"]

_CMP = {"=": operator.eq, ">=": operator.ge, "<=": operator.le}

_DEG_RE = re.compile(r"^deg(?P<op>>=|<=|=)(?P<n>\d+)$")
_NBR_RE = re.compile(r"^nbr\((?P<spec>[^)]+)\)(?P<op>>=|<=|=)(?P<n>\d+)$")
_ELEMSET_RE = re.compile(r"^[A-Z][a-z]?(\|[A-Z][a-z]?)*$")

# The one table of bond marks. Its order is the match order: a mark is tried
# before any mark that is a prefix of it ("!-" and "-@" before "-").
_BOND_MARKS = {
    "!-": lambda b: b.order != "single",
    "-@": lambda b: b.order == "single" and b.in_ring,
    "-": lambda b: b.order == "single",
    "=": lambda b: b.order == "double",
    "#": lambda b: b.order == "triple",
    ":": lambda b: b.order == "aromatic",
    "@": lambda b: b.in_ring,
}


def _parse_elemset(text: str) -> frozenset[int]:
    if not _ELEMSET_RE.match(text):
        raise DataError(f"bad element set {text!r} in rule environment")
    codes = []
    for sym in text.split("|"):
        if sym not in ATOM_CODE:
            raise DataError(f"unknown element {sym!r} in rule environment")
        codes.append(ATOM_CODE[sym])
    return frozenset(codes)


def _parse_target(spec: str):
    if spec == "*":
        return lambda ctx, u: True
    if spec == "C=O":
        return lambda ctx, u: u in ctx.carbonyl
    if spec.startswith("!"):
        codes = _parse_elemset(spec[1:])
        return lambda ctx, u: ctx.elem[u] not in codes
    codes = _parse_elemset(spec)
    return lambda ctx, u: ctx.elem[u] in codes


def _nbr_count(spec: str, cmp, n: int):
    bond_ok = None
    for mark, mark_test in _BOND_MARKS.items():
        if spec.startswith(mark):
            bond_ok, spec = mark_test, spec[len(mark):]
            break
    target = _parse_target(spec)

    def test(ctx, v):
        count = 0
        for u, bid in ctx.g._adjacency[v]:
            if (bond_ok is None or bond_ok(ctx.g.bonds[bid])) and target(ctx, u):
                count += 1
        return cmp(count, n)

    return test


def _parse_pred(text: str):
    """Compile one predicate into a test ``(ctx, v) -> bool``."""
    if text in ("ar", "al"):
        want = text == "ar"
        return lambda ctx, v: ctx.aromatic[v] == want
    if text in ("ring", "acyclic"):
        want = text == "ring"
        return lambda ctx, v: ctx.on_ring[v] == want
    m = _DEG_RE.match(text)
    if m:
        cmp, n = _CMP[m.group("op")], int(m.group("n"))
        return lambda ctx, v: cmp(ctx.degree[v], n)
    m = _NBR_RE.match(text)
    if m:
        return _nbr_count(m.group("spec"), _CMP[m.group("op")], int(m.group("n")))
    if _ELEMSET_RE.match(text):
        return _parse_target(text)  # the element-set target, tested on v
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


@dataclass(frozen=True)
class BricsRule:
    rule_id: int
    left: EnvPattern
    right: EnvPattern
    bond_order: str


class _GraphContext:
    """Per-graph derived atom facts used by environment matching."""

    def __init__(self, g: MolGraph):
        n = g.n_atoms
        self.g = g
        self.elem = [a.atom_type for a in g.atoms]
        self.degree = [g.degree(v) for v in range(n)]
        self.aromatic = [False] * n
        self.on_ring = [False] * n
        self.carbonyl = carbonyl_carbons(g)
        for b in g.bonds:
            if b.order == "aromatic":
                self.aromatic[b.u] = self.aromatic[b.v] = True
            if b.in_ring:
                self.on_ring[b.u] = self.on_ring[b.v] = True


def carbonyl_carbons(g: MolGraph) -> frozenset[int]:
    """Ids of the carbons double-bonded to an oxygen."""
    return frozenset(a for b in g.bonds if b.order == "double"
                     for a, o in ((b.u, b.v), (b.v, b.u))
                     if g.atoms[a].atom_type == _C and g.atoms[o].atom_type == _O)


def _env_matches(env: EnvPattern, ctx: _GraphContext, v: int) -> bool:
    for pred in env.preds:
        if not pred(ctx, v):
            return False
    return True


class RuleTable(tuple):
    """A tuple of rules, compiled for ``match_rules`` once: ``pairs`` holds
    every rule's (bond order, left expr, right expr) in both orientations and
    ``envs`` each distinct environment by its expression text. A slice is a
    plain tuple, which ``match_rules`` compiles per call."""

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
        line = line.strip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise DataError(f"{origin}:{lineno}: expected 4 tab-separated fields")
        rid_text, left, right, order = (p.strip() for p in parts)
        try:
            rid = int(rid_text)
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


def match_rules(g: MolGraph, rules=None) -> frozenset[int]:
    """Bond ids cleavable under the rule table. Ring bonds never match.

    Each endpoint of an acyclic bond is matched once against every distinct
    environment, keyed by its expression text. The bond is cleavable when one
    (endpoint-0 env, endpoint-1 env) pair is in the set of (bond order, left,
    right) rule triples, which holds every rule in both orientations. Any
    sequence of rules works; a ``RuleTable`` brings its set already built.
    """
    if rules is None:
        rules = default_rules()
    if not isinstance(rules, RuleTable):
        rules = RuleTable(rules)
    pairs, envs = rules.pairs, rules.envs
    ctx = _GraphContext(g)
    matched: dict[int, list[str]] = {}
    out = set()
    for i, b in enumerate(g.bonds):
        if b.in_ring:
            continue
        for v in (b.u, b.v):
            if v not in matched:
                matched[v] = [e for e, env in envs.items() if _env_matches(env, ctx, v)]
        if any((b.order, x, y) in pairs for x in matched[b.u] for y in matched[b.v]):
            out.add(i)
    return frozenset(out)


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
    """Node partition into motifs; cut edges join different motifs."""

    motifs: tuple[Motif, ...]
    cut_edges: tuple[int, ...]
    cut_pairs: tuple[tuple[int, int], ...]
    motif_of: tuple[int, ...]

    @property
    def n_motifs(self) -> int:
        return len(self.motifs)


def decompose(g: MolGraph, rules=None) -> MotifDecomposition:
    """Split a molecule into motifs by removing every cleavable bond."""
    cut = match_rules(g, rules)
    n = g.n_atoms
    comp = [-1] * n
    order = []
    for start in range(n):
        if comp[start] != -1:
            continue
        comp[start] = len(order)
        stack = [start]
        members = [start]
        while stack:
            v = stack.pop()
            for u, bid in g._adjacency[v]:
                if bid in cut or comp[u] != -1:
                    continue
                comp[u] = comp[start]
                stack.append(u)
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
        if mu != mv:
            nbrs[mu].add(mv)
            nbrs[mv].add(mu)
    return tuple(frozenset(s) for s in nbrs)
