"""SMILES parsing into MolGraph; the only data-ingestion path.

Supported grammar (a documented subset, not full OpenSMILES):

  atoms      organic subset B C N O P S F Cl Br I, aromatic b c n o p s,
             bracket atoms ``[<isotope?><symbol><chirality?><Hcount?><charge?>]``
  chirality  ``@`` -> tag 1, ``@@`` -> tag 2, extended marks (``@TH1``,
             ``@AL2``, ``@@@`` ...) -> tag 3 ("other")
  bonds      ``-`` ``=`` ``#`` ``:`` plus ``/`` ``\\`` which are accepted
             lexically and treated as single bonds
  branches   ``(`` ``)``
  rings      single digits and two-digit ``%nn`` closures; digits are reusable
             after they close
  dots       rejected: one molecule per record

Isotopes, H-counts, and charges are parsed then discarded. A bond written
without an order between two aromatic atoms is left unwritten (None), and
becomes aromatic when it lies on a ring and single otherwise; any other bond
written without an order is single. Errors report the offset of the offending
token as a character index into the string, not a byte offset.

``parse`` makes one pass over a record: it walks ``_TOKEN_RE``'s matches and
applies the grammar to each token as it comes, with no token list. The pass
keeps its parse tree, each atom's parent and creating bond. The ring-closure
bonds are exactly the bonds outside that tree, so a bond lies on a ring when it
is a closure or a tree bond on a closure's cycle, and the pass marks each
closure's cycle as it closes. ``MolGraph``'s builder then takes the bond specs,
already normalized and checked, with these ring flags; the bridge search of
``MolGraph(atoms, bonds)`` is not run. The pass stops at its first error, so
only then is the whole string lexed again with ``_lex``: a lexical error
anywhere wins, then a record with no atoms, then the pass's error. Organic-
subset atoms come from a table, and every atom of one (atom_type, chirality)
is the same frozen ``AtomAttr`` value. ``tokenize`` wraps ``_lex``.
"""

from __future__ import annotations

import csv
import functools
import io
import re
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError, SmilesError, read_input
from .molgraph import (
    CHIRALITY_NONE,
    CHIRALITY_OTHER,
    CHIRALITY_TET1,
    CHIRALITY_TET2,
    AtomAttr,
    MolGraph,
)

ELEMENTS = (
    "H", "He", "Li", "Be", "B", "C", "N", "O", "F", "Ne",
    "Na", "Mg", "Al", "Si", "P", "S", "Cl", "Ar", "K", "Ca",
    "Sc", "Ti", "V", "Cr", "Mn", "Fe", "Co", "Ni", "Cu", "Zn",
    "Ga", "Ge", "As", "Se", "Br", "Kr", "Rb", "Sr", "Y", "Zr",
    "Nb", "Mo", "Tc", "Ru", "Rh", "Pd", "Ag", "Cd", "In", "Sn",
    "Sb", "Te", "I", "Xe", "Cs", "Ba", "La", "Ce", "Pr", "Nd",
    "Pm", "Sm", "Eu", "Gd", "Tb", "Dy", "Ho", "Er", "Tm", "Yb",
    "Lu", "Hf", "Ta", "W", "Re", "Os", "Ir", "Pt", "Au", "Hg",
    "Tl", "Pb", "Bi", "Po", "At", "Rn", "Fr", "Ra", "Ac", "Th",
    "Pa", "U", "Np", "Pu", "Am", "Cm", "Bk", "Cf", "Es", "Fm",
    "Md", "No", "Lr", "Rf", "Db", "Sg", "Bh", "Hs", "Mt", "Ds",
    "Rg", "Cn", "Nh", "Fl", "Mc", "Lv", "Ts", "Og",
)
ATOM_CODE = {sym: i for i, sym in enumerate(ELEMENTS)}

AROMATIC_SUBSET = {"b", "c", "n", "o", "p", "s"}

_BOND_CHAR_ORDER = {"-": "single", "=": "double", "#": "triple", ":": "aromatic",
                    "/": "single", "\\": "single"}

# each group name is the kind of the tokens it matches
_TOKEN_RE = re.compile(
    r"""(?P<bracket_atom>\[[^\]]*\])
      | (?P<organic_atom>Cl|Br|[BCNOPSFI]|[bcnops])
      | (?P<bond>[-=\#:/\\])
      | (?P<branch_open>\()
      | (?P<branch_close>\))
      | (?P<ring_closure>%\d{2}|\d)
      | (?P<dot>\.)
    """,
    re.X,
)

_BRACKET_RE = re.compile(
    r"""^\[
        (?P<isotope>\d+)?
        (?P<symbol>[A-Z][a-z]?|[a-z]{1,2})
        (?P<chirality>@{1,3}(?:TH|AL|SP|TB|OH)?\d*)?
        (?P<hcount>H\d*)?
        (?P<charge>\+\d+|-\d+|\++|-+)?
    \]$""",
    re.X,
)


@dataclass(frozen=True)
class SmilesToken:
    kind: str
    text: str
    pos: int


def _lex_error(smiles: str, pos: int) -> SmilesError:
    """The error of a character that starts no token."""
    if smiles[pos] == "[":
        return SmilesError("unterminated bracket atom", pos)
    return SmilesError(f"unexpected character {smiles[pos]!r}", pos)


def _lex(smiles: str) -> list[tuple[str, str, int]]:
    """(kind, text, pos) of each token of a SMILES string; raises SmilesError
    at the first character that starts no token."""
    tokens = []
    pos = 0
    for m in _TOKEN_RE.finditer(smiles):
        if m.start() != pos:
            break
        tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    if pos != len(smiles):
        raise _lex_error(smiles, pos)
    return tokens


def tokenize(smiles: str) -> list[SmilesToken]:
    """Lex a SMILES string; token texts concatenate back to the input. Each
    token's kind is one of ``bracket_atom``, ``organic_atom``, ``bond``,
    ``branch_open``, ``branch_close``, ``ring_closure`` and ``dot``."""
    return [SmilesToken(*token) for token in _lex(smiles)]


@functools.cache
def _atom(code: int, chirality: int) -> AtomAttr:
    """The one AtomAttr of (atom_type, chirality); AtomAttr is frozen, so
    every graph shares it."""
    return AtomAttr(code, chirality)


def _element(symbol: str, pos: int) -> tuple[int, bool]:
    """(atom_type, aromatic-flag) of an element symbol; the aromatic subset
    is written in lower case."""
    if symbol in AROMATIC_SUBSET:
        return ATOM_CODE[symbol.capitalize()], True
    if symbol in ATOM_CODE:
        return ATOM_CODE[symbol], False
    raise SmilesError(f"unknown element symbol {symbol!r}", pos)


# (atom, aromatic-flag) of each organic-subset token text
_ORGANIC = {sym: (_atom(ATOM_CODE[sym.capitalize()], CHIRALITY_NONE), sym in AROMATIC_SUBSET)
            for sym in ("B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I", *AROMATIC_SUBSET)}

_CHIRALITY = {None: CHIRALITY_NONE, "@": CHIRALITY_TET1, "@@": CHIRALITY_TET2}


def _bracket_atom(text: str, pos: int) -> tuple[AtomAttr, bool]:
    """Decode a bracket atom into (atom, aromatic-flag)."""
    m = _BRACKET_RE.match(text)
    if m is None:
        raise SmilesError(f"malformed bracket atom {text!r}", pos)
    code, aromatic = _element(m.group("symbol"), pos)
    return _atom(code, _CHIRALITY.get(m.group("chirality"), CHIRALITY_OTHER)), aromatic


def parse(smiles: str) -> MolGraph:
    """Parse one SMILES record into an attributed MolGraph.

    Deterministic: node ids follow atom-token order, bonds follow creation
    order. A lexical error anywhere wins over every other error, and a record
    with no atoms over every grammar error. Raises SmilesError with the
    character offset of the problem.
    """
    try:
        return _parse(smiles)
    except SmilesError as e:
        error = e
    # the pass stopped at its first error; a lexical error after it, or no atoms, comes first
    if not any(kind.endswith("atom") for kind, _, _ in _lex(smiles)):
        raise SmilesError("no atoms in input", 0)
    raise error


def _parse(smiles: str) -> MolGraph:
    """The one pass of ``parse``: it raises the first error in string order."""
    atoms: list[AtomAttr] = []
    aromatic: list[bool] = []
    bonds: list[tuple[int, int, str | None]] = []
    bond_keys: set[tuple[int, int]] = set()
    adj: list[list[tuple[int, int]]] = []
    # the parse tree: each atom's parent, its creating bond (the root has
    # neither) and each bond's ring flag
    parent: list[int] = []
    tree_bond: list[int] = []
    ring: list[bool] = []

    prev: int | None = None
    pending_bond: str | None = None          # explicit order awaiting its atom
    pending_pos = 0
    branch_stack: list[tuple[int | None, int]] = []
    open_rings: dict[int, tuple[int, str | None, int]] = {}

    end = 0
    for m in _TOKEN_RE.finditer(smiles):
        pos = m.start()
        if pos != end:
            break
        end = m.end()
        kind = m.lastgroup
        if kind == "organic_atom" or kind == "bracket_atom":
            text = m.group()
            atom, arom = _ORGANIC[text] if kind == "organic_atom" else _bracket_atom(text, pos)
            idx = len(atoms)
            atoms.append(atom)
            aromatic.append(arom)
            if prev is None:
                adj.append([])
                parent.append(-1)
                tree_bond.append(-1)
            else:
                # the builder resolves an unwritten bond between aromatic atoms by its ring flag
                if pending_bond is None and not (arom and aromatic[prev]):
                    pending_bond = "single"
                b = len(bonds)
                bonds.append((prev, idx, pending_bond))
                bond_keys.add((prev, idx))
                ring.append(False)
                adj[prev].append((idx, b))
                adj.append([(prev, b)])
                parent.append(prev)
                tree_bond.append(b)
                pending_bond = None
            prev = idx
        elif kind == "bond":
            if pending_bond is not None:
                raise SmilesError("two consecutive bond symbols", pos)
            if prev is None:
                raise SmilesError("bond with no preceding atom", pos)
            pending_bond = _BOND_CHAR_ORDER[m.group()]
            pending_pos = pos
        elif kind == "branch_open":
            if prev is None:
                raise SmilesError("branch with no preceding atom", pos)
            if pending_bond is not None:
                raise SmilesError("bond symbol before branch open", pos)
            branch_stack.append((prev, pos))
        elif kind == "branch_close":
            if not branch_stack:
                raise SmilesError("unmatched branch close", pos)
            if pending_bond is not None:
                raise SmilesError("dangling bond before branch close", pos)
            prev = branch_stack.pop()[0]
        elif kind == "ring_closure":
            if prev is None:
                raise SmilesError("ring closure with no preceding atom", pos)
            text = m.group()
            num = int(text[1:]) if text[0] == "%" else int(text)
            if num in open_rings:
                other, other_order, _ = open_rings.pop(num)
                if (pending_bond is not None and other_order is not None
                        and pending_bond != other_order):
                    raise SmilesError("conflicting ring closure bond orders", pos)
                if other == prev:
                    raise SmilesError("ring closure bonds an atom to itself", pos)
                key = (other, prev) if other < prev else (prev, other)
                if key in bond_keys:
                    raise SmilesError("duplicate bond", pos)
                bond_keys.add(key)
                order = pending_bond if pending_bond is not None else other_order
                if order is None and not (aromatic[other] and aromatic[prev]):
                    order = "single"
                b = len(bonds)
                bonds.append((*key, order))
                ring.append(True)
                adj[other].append((prev, b))
                adj[prev].append((other, b))
                # the closure's cycle: the tree path between its endpoints,
                # walked up from the larger id (parents have lower ids)
                u, v = key
                while u != v:
                    ring[tree_bond[v]] = True
                    v = parent[v]
                    if u > v:
                        u, v = v, u
            else:
                open_rings[num] = (prev, pending_bond, pos)
            pending_bond = None
        else:
            raise SmilesError("multi-fragment input (dot) not supported", pos)

    if end != len(smiles):
        raise _lex_error(smiles, end)
    if not atoms:
        raise SmilesError("no atoms in input", 0)
    if pending_bond is not None:
        raise SmilesError("dangling bond at end of input", pending_pos)
    if branch_stack:
        raise SmilesError("unclosed branch", branch_stack[0][1])
    if open_rings:
        first = min(open_rings.values(), key=lambda item: item[2])
        raise SmilesError("unpaired ring closure", first[2])

    # specs are normalized and valid here, so MolGraph's own checks are skipped
    return MolGraph.__new__(MolGraph)._build(tuple(atoms), bonds, ring, adj)


@dataclass(frozen=True)
class DatasetRecord:
    smiles: str
    graph: MolGraph
    label: float   # NaN when the cell is empty or no label column was read


@dataclass(frozen=True)
class Dataset:
    records: tuple[DatasetRecord, ...]
    skipped: int
    parse_errors: tuple[tuple[int, str], ...]

    def graphs(self) -> list[MolGraph]:
        return [r.graph for r in self.records]


@dataclass(frozen=True)
class DataConfig:
    """The ``data.*`` keys; finetune reads the ``label`` column if none is set."""

    input: str = ""
    label: str = ""


def read_dataset(path, label: str | None = None) -> Dataset:
    """Read a CSV with a ``smiles`` column and, if ``label`` names one, a
    numeric label column.

    Unparseable SMILES rows are skipped and counted, not fatal. Record order
    matches file order. Empty label cells become NaN (missing).
    """
    path = Path(path)
    reader = csv.DictReader(io.StringIO(read_input(path, "dataset"), newline=""))
    try:
        if reader.fieldnames is None or "smiles" not in reader.fieldnames:
            raise DataError(f"dataset {path} is missing a 'smiles' column")
        if label is not None and label not in reader.fieldnames:
            raise DataError(f"dataset {path} is missing label column {label!r}")

        records = []
        errors = []
        for row_idx, row in enumerate(reader):
            smi = (row.get("smiles") or "").strip()
            try:
                graph = parse(smi)
            except SmilesError as e:
                errors.append((row_idx, str(e)))
                continue
            cell = (row.get(label) or "").strip() if label is not None else ""
            try:
                value = float(cell) if cell else float("nan")
            except ValueError as e:
                # line_num: the file lines read so far, this row's last line included
                raise DataError(f"dataset {path} at line {reader.line_num}: label "
                                f"{label}={cell!r} is not numeric") from e
            records.append(DatasetRecord(smi, graph, value))
    except csv.Error as e:  # a field over csv's size limit; line_num counts the lines before it
        raise DataError(f"cannot read dataset {path} at line {reader.line_num + 1}: {e}") from e
    return Dataset(tuple(records), len(errors), tuple(errors))
