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

Isotopes, H-counts, and charges are parsed then discarded. Bonds written
without an order become aromatic when both endpoints are aromatic atoms and
the bond lies on a ring (the ring perception pass); otherwise single. Errors
report the byte offset of the offending token.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError, SmilesError
from .molgraph import (
    CHIRALITY_NONE,
    CHIRALITY_OTHER,
    CHIRALITY_TET1,
    CHIRALITY_TET2,
    AtomAttr,
    MolGraph,
    bridge_flags,
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

_TOKEN_RE = re.compile(
    r"""(?P<bracket>\[[^\]]*\])
      | (?P<organic>Cl|Br|[BCNOPSFI]|[bcnops])
      | (?P<bond>[-=\#:/\\])
      | (?P<open>\()
      | (?P<close>\))
      | (?P<ring>%\d{2}|\d)
      | (?P<dot>\.)
    """,
    re.X,
)

_TOKEN_KINDS = {
    "bracket": "bracket-atom",
    "organic": "organic-atom",
    "bond": "bond",
    "open": "branch-open",
    "close": "branch-close",
    "ring": "ring-closure-digit",
    "dot": "dot",
}

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


def tokenize(smiles: str) -> list[SmilesToken]:
    """Lex a SMILES string; token texts concatenate back to the input."""
    tokens = []
    i = 0
    while i < len(smiles):
        m = _TOKEN_RE.match(smiles, i)
        if m is None:
            if smiles[i] == "[":
                raise SmilesError("unterminated bracket atom", i)
            raise SmilesError(f"unexpected character {smiles[i]!r}", i)
        tokens.append(SmilesToken(_TOKEN_KINDS[m.lastgroup], m.group(), i))
        i = m.end()
    return tokens


def _parse_bracket(token: SmilesToken) -> tuple[int, int, bool]:
    """Decode a bracket atom into (atom_type, chirality, aromatic-flag)."""
    m = _BRACKET_RE.match(token.text)
    if m is None:
        raise SmilesError(f"malformed bracket atom {token.text!r}", token.pos)
    symbol = m.group("symbol")
    if symbol in AROMATIC_SUBSET:
        code = ATOM_CODE[symbol.capitalize()]
        aromatic = True
    elif symbol in ATOM_CODE:
        code = ATOM_CODE[symbol]
        aromatic = False
    else:
        raise SmilesError(f"unknown element symbol {symbol!r}", token.pos)
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


def parse(smiles: str) -> MolGraph:
    """Parse one SMILES record into an attributed MolGraph.

    Deterministic: node ids follow atom-token order, bonds follow creation
    order. Raises SmilesError with a byte offset on grammar violations.
    """
    tokens = tokenize(smiles)
    if not any(t.kind.endswith("atom") for t in tokens):
        raise SmilesError("no atoms in input", 0)

    atoms: list[tuple[int, int]] = []       # (atom_type, chirality)
    aromatic_atom: list[bool] = []
    bonds: list[tuple[int, int, str | None]] = []
    bond_keys: set[tuple[int, int]] = set()

    prev: int | None = None
    pending_bond: str | None = None          # explicit order awaiting its atom
    pending_pos = 0
    branch_stack: list[tuple[int | None, int]] = []
    open_rings: dict[int, tuple[int, str | None, int]] = {}

    def add_bond(u: int, v: int, order: str | None, pos: int) -> None:
        if u == v:
            raise SmilesError("ring closure bonds an atom to itself", pos)
        key = (min(u, v), max(u, v))
        if key in bond_keys:
            raise SmilesError("duplicate bond", pos)
        bond_keys.add(key)
        bonds.append((u, v, order))

    for tok in tokens:
        if tok.kind == "dot":
            raise SmilesError("multi-fragment input (dot) not supported", tok.pos)
        if tok.kind == "bond":
            if pending_bond is not None:
                raise SmilesError("two consecutive bond symbols", tok.pos)
            if prev is None:
                raise SmilesError("bond with no preceding atom", tok.pos)
            pending_bond = _BOND_CHAR_ORDER[tok.text]
            pending_pos = tok.pos
            continue
        if tok.kind == "branch-open":
            if prev is None:
                raise SmilesError("branch with no preceding atom", tok.pos)
            if pending_bond is not None:
                raise SmilesError("bond symbol before branch open", tok.pos)
            branch_stack.append((prev, tok.pos))
            continue
        if tok.kind == "branch-close":
            if not branch_stack:
                raise SmilesError("unmatched branch close", tok.pos)
            if pending_bond is not None:
                raise SmilesError("dangling bond before branch close", tok.pos)
            prev, _ = branch_stack.pop()
            continue
        if tok.kind == "ring-closure-digit":
            if prev is None:
                raise SmilesError("ring closure with no preceding atom", tok.pos)
            num = int(tok.text[1:]) if tok.text.startswith("%") else int(tok.text)
            if num in open_rings:
                other, other_order, other_pos = open_rings.pop(num)
                order = pending_bond if pending_bond is not None else other_order
                if (pending_bond is not None and other_order is not None
                        and pending_bond != other_order):
                    raise SmilesError("conflicting ring closure bond orders", tok.pos)
                add_bond(other, prev, order, tok.pos)
            else:
                open_rings[num] = (prev, pending_bond, tok.pos)
            pending_bond = None
            continue

        # atom token
        if tok.kind == "organic-atom":
            sym = tok.text
            if sym in AROMATIC_SUBSET:
                code, chirality, aromatic = ATOM_CODE[sym.capitalize()], CHIRALITY_NONE, True
            else:
                code, chirality, aromatic = ATOM_CODE[sym], CHIRALITY_NONE, False
        else:
            code, chirality, aromatic = _parse_bracket(tok)
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

    # Ring perception: bonds with no written order become aromatic only when
    # both endpoints are aromatic atoms and the bond sits on a cycle.
    bridge = bridge_flags(len(atoms), [(u, v) for u, v, _ in bonds])
    resolved = []
    for i, (u, v, order) in enumerate(bonds):
        if order is None:
            if aromatic_atom[u] and aromatic_atom[v] and not bridge[i]:
                order = "aromatic"
            else:
                order = "single"
        resolved.append((u, v, order))

    return MolGraph([AtomAttr(c, ch) for c, ch in atoms], resolved)


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
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as e:  # ValueError: a NUL in the path or bad UTF-8
        raise DataError(f"cannot read dataset {path}: {e}") from e
    reader = csv.DictReader(io.StringIO(text, newline=""))
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
            raise DataError(f"row {row_idx}: label {label}={cell!r} is not numeric") from e
        records.append(DatasetRecord(smi, graph, value))
    return Dataset(tuple(records), len(errors), tuple(errors))
