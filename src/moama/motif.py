"""Rule-based decomposition of molecules into disjoint motifs.

Cleavable bonds are found by matching each acyclic bond's endpoint
environments against a rule table (see ``rules/brics.tsv`` for the bundled
sixteen link environments and the predicate grammar). Cleaving removes edges
only; motifs are the connected components that remain, so their union always
reconstructs the molecule exactly and ring bonds are never cut.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import DataError
from .molgraph import BOND_ORDERS, MolGraph
from .smiles import ATOM_CODE

_C = ATOM_CODE["C"]
_O = ATOM_CODE["O"]

_CMP = {
    "=": lambda a, b: a == b,
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
}

_DEG_RE = re.compile(r"^deg(?P<op>>=|<=|=)(?P<n>\d+)$")
_NBR_RE = re.compile(r"^nbr\((?P<spec>[^)]+)\)(?P<op>>=|<=|=)(?P<n>\d+)$")
_ELEMSET_RE = re.compile(r"^[A-Z][a-z]?(\|[A-Z][a-z]?)*$")

_BOND_MARKS = {
    "!-": "nonsingle",
    "-@": "single_ring",
    "-": "single",
    "=": "double",
    "#": "triple",
    ":": "aromatic",
    "@": "ring",
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


def _parse_pred(text: str):
    if text == "ar":
        return ("arom", True)
    if text == "al":
        return ("arom", False)
    if text == "ring":
        return ("ring", True)
    if text == "acyclic":
        return ("ring", False)
    m = _DEG_RE.match(text)
    if m:
        return ("deg", m.group("op"), int(m.group("n")))
    m = _NBR_RE.match(text)
    if m:
        spec = m.group("spec")
        bond = "any"
        for mark in ("!-", "-@", "-", "=", "#", ":", "@"):
            if spec.startswith(mark):
                bond = _BOND_MARKS[mark]
                spec = spec[len(mark):]
                break
        if spec == "*":
            target = ("any",)
        elif spec == "C=O":
            target = ("carbonyl",)
        elif spec.startswith("!"):
            target = ("notelem", _parse_elemset(spec[1:]))
        else:
            target = ("elem", _parse_elemset(spec))
        return ("nbr", bond, target, m.group("op"), int(m.group("n")))
    if _ELEMSET_RE.match(text):
        return ("elem", _parse_elemset(text))
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
        for b in g.bonds:
            if b.order == "aromatic":
                self.aromatic[b.u] = self.aromatic[b.v] = True
            if b.in_ring:
                self.on_ring[b.u] = self.on_ring[b.v] = True
        self.carbonyl = [False] * n
        for b in g.bonds:
            if b.order == "double":
                for a, o in ((b.u, b.v), (b.v, b.u)):
                    if self.elem[a] == _C and self.elem[o] == _O:
                        self.carbonyl[a] = True


def _bond_matches(kind: str, bond) -> bool:
    if kind == "any":
        return True
    if kind == "ring":
        return bond.in_ring
    if kind == "single_ring":
        return bond.order == "single" and bond.in_ring
    if kind == "nonsingle":
        return bond.order != "single"
    return bond.order == kind


def _target_matches(target, ctx: _GraphContext, u: int) -> bool:
    if target[0] == "any":
        return True
    if target[0] == "elem":
        return ctx.elem[u] in target[1]
    if target[0] == "notelem":
        return ctx.elem[u] not in target[1]
    return ctx.carbonyl[u]


def _env_matches(env: EnvPattern, ctx: _GraphContext, v: int) -> bool:
    for pred in env.preds:
        kind = pred[0]
        if kind == "elem":
            if ctx.elem[v] not in pred[1]:
                return False
        elif kind == "arom":
            if ctx.aromatic[v] != pred[1]:
                return False
        elif kind == "ring":
            if ctx.on_ring[v] != pred[1]:
                return False
        elif kind == "deg":
            if not _CMP[pred[1]](ctx.degree[v], pred[2]):
                return False
        else:  # nbr count
            _, bond_kind, target, op, n = pred
            count = 0
            for u, bid in ctx.g._adjacency[v]:
                b = ctx.g.bonds[bid]
                if _bond_matches(bond_kind, b) and _target_matches(target, ctx, u):
                    count += 1
            if not _CMP[op](count, n):
                return False
    return True


@dataclass(frozen=True)
class MotifConfig:
    """The ``motif.*`` keys; empty ``rules`` selects the bundled table."""

    rules: str = ""


def load_rules(path=None) -> tuple[BricsRule, ...]:
    """Load a rule table; the bundled default when ``path`` is None."""
    if path is None:
        text = resources.files("moama").joinpath("rules/brics.tsv").read_text("utf-8")
        origin = "bundled rules"
    else:
        origin = str(path)
        try:
            text = Path(path).read_text("utf-8")
        except (OSError, ValueError) as e:  # ValueError: a NUL or bad UTF-8
            raise DataError(f"cannot read rule file {path}: {e}") from e

    envs: dict[str, EnvPattern] = {}
    rules = []
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
            lenv = envs.setdefault(left, EnvPattern.compile(left))
            renv = envs.setdefault(right, EnvPattern.compile(right))
        except DataError as e:
            raise DataError(f"{origin}:{lineno}: {e}") from e
        rules.append(BricsRule(rid, lenv, renv, order))
    if not rules:
        raise DataError(f"{origin}: no rules found")
    return tuple(rules)


_default_rules: tuple[BricsRule, ...] | None = None


def default_rules() -> tuple[BricsRule, ...]:
    global _default_rules
    if _default_rules is None:
        _default_rules = load_rules()
    return _default_rules


def match_rules(g: MolGraph, rules=None) -> frozenset[int]:
    """Bond ids cleavable under the rule table. Ring bonds never match."""
    if rules is None:
        rules = default_rules()
    ctx = _GraphContext(g)
    cache: dict[tuple[int, int], bool] = {}

    def matches(env: EnvPattern, v: int) -> bool:
        key = (id(env), v)
        got = cache.get(key)
        if got is None:
            got = cache[key] = _env_matches(env, ctx, v)
        return got

    out = set()
    for i, b in enumerate(g.bonds):
        if b.in_ring:
            continue
        for rule in rules:
            if rule.bond_order != b.order:
                continue
            if (matches(rule.left, b.u) and matches(rule.right, b.v)) or (
                matches(rule.left, b.v) and matches(rule.right, b.u)
            ):
                out.add(i)
                break
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
