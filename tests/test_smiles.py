import numpy as np
import pytest

from moama import parse, read_dataset, tokenize
from moama import molgraph
from moama import smiles as smiles_module
from moama.datagen import generate_corpus
from moama.errors import DataError, SmilesError
from moama.molgraph import (
    CHIRALITY_NONE,
    CHIRALITY_OTHER,
    CHIRALITY_TET1,
    CHIRALITY_TET2,
    AtomAttr,
    MolGraph,
)
from moama.smiles import _BRACKET_RE, _TOKEN_RE, AROMATIC_SUBSET, ATOM_CODE


def test_single_carbon():
    g = parse("C")
    assert g.n_atoms == 1
    assert len(g.bonds) == 0
    assert g.atoms[0].atom_type == ATOM_CODE["C"] == 5


def test_unclosed_branch_offset():
    with pytest.raises(SmilesError) as e:
        parse("C(")
    assert e.value.offset == 1


def test_benzene_aromatic_cycle():
    g = parse("c1ccccc1")
    assert g.n_atoms == 6
    assert len(g.bonds) == 6
    assert all(b.order == "aromatic" for b in g.bonds)
    assert all(b.in_ring for b in g.bonds)


def test_token_stream_round_trips():
    for smi in ("CC(=O)Oc1ccccc1", "C[C@@H](N)C(=O)O", "c1ccc2ccccc2c1",
                "CC%10CCC%10", "F/C=C/F"):
        assert "".join(t.text for t in tokenize(smi)) == smi


def test_atom_and_bond_counts_follow_grammar():
    # bonds = atom tokens - 1 + ring closures for one connected fragment
    cases = {"CCO": (3, 2), "C1CC1": (3, 3), "c1ccccc1C1CCCC1": (11, 12)}
    for smi, (atoms, bonds) in cases.items():
        g = parse(smi)
        assert (g.n_atoms, len(g.bonds)) == (atoms, bonds)


def test_chirality_tags():
    g = parse("C[C@H](N)O")
    assert g.atoms[1].chirality == CHIRALITY_TET1
    g = parse("C[C@@H](N)O")
    assert g.atoms[1].chirality == CHIRALITY_TET2
    g = parse("C[C@TH1H](N)O")
    assert g.atoms[1].chirality == CHIRALITY_OTHER
    assert parse("CC").atoms[0].chirality == CHIRALITY_NONE


def test_charges_and_isotopes_discarded():
    g = parse("[13CH4]")
    assert g.atoms[0].atom_type == ATOM_CODE["C"]
    g = parse("C[N+](C)(C)C")
    assert g.atoms[1].atom_type == ATOM_CODE["N"]
    g = parse("[O-]C")
    assert g.atoms[0].atom_type == ATOM_CODE["O"]


def test_stereo_bond_marks_are_single_bonds():
    g = parse("F/C=C/F")
    orders = [b.order for b in g.bonds]
    assert orders.count("double") == 1
    assert orders.count("single") == 2


def test_two_letter_elements():
    g = parse("ClCBr")
    assert [a.atom_type for a in g.atoms] == [ATOM_CODE["Cl"], ATOM_CODE["C"], ATOM_CODE["Br"]]


def test_bracket_aromatic_nitrogen():
    g = parse("c1cc[nH]c1")
    assert g.atoms[3].atom_type == ATOM_CODE["N"]
    assert any(b.order == "aromatic" for b in g.bonds)


def test_percent_ring_closure():
    g = parse("C%12CCCC%12")
    assert len(g.bonds) == 5
    assert sum(b.in_ring for b in g.bonds) == 5


def test_explicit_aromatic_bond_kept():
    g = parse("c1ccccc1")
    h = parse("c1:c:c:c:c:c1")
    assert [b.order for b in g.bonds] == [b.order for b in h.bonds]


def test_unspecified_bond_between_aromatic_atoms_off_ring_is_single():
    g = parse("c1ccccc1c1ccccc1")  # biphenyl without explicit single bond
    bridge = [b for b in g.bonds if not b.in_ring]
    assert len(bridge) == 1
    assert bridge[0].order == "single"


def test_errors_report_offsets():
    cases = {
        "CC.CC": ("dot", 2),
        "C1CC": ("unpaired ring closure", 1),
        "CC)C": ("unmatched branch close", 2),
        "C=": ("dangling bond", 1),
        "[Xx]C": ("unknown element", 0),
        "C==C": ("consecutive bond", 2),
        "C11": ("itself", 2),
        "[C": ("unterminated bracket", 0),
    }
    for smi, (_, offset) in cases.items():
        with pytest.raises(SmilesError) as e:
            parse(smi)
        assert e.value.offset == offset, smi


@pytest.mark.parametrize("smi,message,offset", [
    ("C1C1", "duplicate bond", 3),
    ("=C", "bond with no preceding atom", 0),
    ("(C)", "branch with no preceding atom", 0),
    ("C=(C)", "bond symbol before branch open", 2),
    ("C(C=)C", "dangling bond before branch close", 4),
    ("1CC", "ring closure with no preceding atom", 0),
    ("C=1CC-1", "conflicting ring closure bond orders", 6),
    ("[C@X]", "malformed bracket atom '[C@X]'", 0),
])
def test_grammar_errors_name_the_problem_and_its_offset(smi, message, offset):
    with pytest.raises(SmilesError) as e:
        parse(smi)
    assert str(e.value) == f"{message} at offset {offset}" and e.value.offset == offset


def test_parse_deterministic():
    g1 = parse("CCOC(=O)c1ccccc1")
    g2 = parse("CCOC(=O)c1ccccc1")
    assert [(b.u, b.v, b.order) for b in g1.bonds] == [(b.u, b.v, b.order) for b in g2.bonds]
    assert np.array_equal(g1.X, g2.X)


def test_read_dataset_basic(tmp_path):
    p = tmp_path / "mols.csv"
    p.write_text("smiles\nC\nCC\n")
    ds = read_dataset(p)
    assert len(ds.records) == 2
    assert ds.skipped == 0


def test_read_dataset_skips_malformed(tmp_path):
    p = tmp_path / "mols.csv"
    p.write_text("smiles\nC\nC(\nCC\n")
    ds = read_dataset(p)
    assert len(ds.records) == 2
    assert ds.skipped == 1
    assert ds.parse_errors[0][0] == 1


def test_read_dataset_labels_in_row_order(tmp_path):
    p = tmp_path / "mols.csv"
    p.write_text("smiles,y\nC,1\nCC,0\nCCC,\n")
    ds = read_dataset(p, label="y")
    vals = [r.label for r in ds.records]
    assert vals[0] == 1.0 and vals[1] == 0.0 and np.isnan(vals[2])


def test_read_dataset_missing_column(tmp_path):
    p = tmp_path / "mols.csv"
    p.write_text("structure\nC\n")
    with pytest.raises(DataError):
        read_dataset(p)
    with pytest.raises(DataError):
        read_dataset(tmp_path / "absent.csv")


def test_token_kinds_are_the_lexer_group_names():
    table = [("C", "organic_atom"), ("Cl", "organic_atom"), ("c", "organic_atom"),
             ("[13C@@H+]", "bracket_atom"), ("=", "bond"), ("/", "bond"),
             ("(", "branch_open"), (")", "branch_close"), ("1", "ring_closure"),
             ("%12", "ring_closure"), (".", "dot")]
    tokens = tokenize("".join(text for text, _ in table))
    assert [(t.text, t.kind) for t in tokens] == table
    assert [t.pos for t in tokens] == [0, 1, 3, 4, 13, 14, 15, 16, 17, 18, 21]
    kinds = {kind for _, kind in table}
    assert kinds == set(_TOKEN_RE.groupindex)
    assert all(f"``{kind}``" in tokenize.__doc__ for kind in kinds)


# --- the parser's former ring perception, kept as an oracle --------------------

def _edge_list_bridge_flags(n, edges):
    """The former ``bridge_flags(n, edges)``: it built its own adjacency from
    an edge list, in edge order, then ran the low-link DFS."""
    adj = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        adj[u].append((v, i))
        adj[v].append((u, i))
    disc = [-1] * n
    low = [0] * n
    is_bridge = [False] * len(edges)
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


def _parse_then_resolve(smi):
    """(atoms, bonds as (u, v, order, in_ring)) by the former path: the parser
    resolved every unwritten bond itself, aromatic when both endpoints are
    aromatic atoms and the bond is no bridge of the raw edge list, and
    MolGraph searched the same edges again for the ring flags."""
    specs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(smiles_module, "MolGraph", lambda atoms, bonds: specs.append((atoms, bonds)))
        parse(smi)
    (atoms, bonds), = specs
    aromatic = [t.text in AROMATIC_SUBSET if t.kind == "organic_atom"
                else _BRACKET_RE.match(t.text).group("symbol") in AROMATIC_SUBSET
                for t in tokenize(smi) if t.kind.endswith("atom")]
    bridge = _edge_list_bridge_flags(len(atoms), [(u, v) for u, v, _ in bonds])
    resolved = []
    for i, (u, v, order) in enumerate(bonds):
        if order is None:
            assert aromatic[u] and aromatic[v]   # only such bonds wait for MolGraph
            order = "aromatic" if not bridge[i] else "single"
        resolved.append((min(u, v), max(u, v), order, not bridge[i]))
    return [(a.atom_type, a.chirality) for a in atoms], resolved


RING_CASES = ["c1ccccc1", "c1ccc2ccccc2c1", "c1ccc2c(c1)ccc1ccccc12", "c1ccccc1c1ccccc1",
              "c1ccccc1-c1ccccc1", "c1ccccc1:c1ccccc1", "c1ccccc1Cc1ccccc1", "C1CC2CC1CC2",
              "c1cc2cc1cc2", "cc", "c:c", "c-c", "n1cccc1C(=O)c1ccco1", "[nH]1cccc1",
              "c1cc[nH]c1-c1ccccc1", "C1=CC=CC=C1c1ccccc1", "c1ccc1c", "c%10ccccc%10"]


def test_ring_perception_equals_the_former_parse_then_resolve():
    # corpus500's SMILES
    for smi in generate_corpus(500, seed=42) + RING_CASES:
        g = parse(smi)
        atoms, bonds = _parse_then_resolve(smi)
        assert [(a.atom_type, a.chirality) for a in g.atoms] == atoms, smi
        assert [(b.u, b.v, b.order, b.in_ring) for b in g.bonds] == bonds, smi
        former = MolGraph([AtomAttr(*a) for a in atoms], [b[:3] for b in bonds])
        assert g._adjacency == former._adjacency, smi
        assert np.array_equal(g.edges, former.edges), smi


def test_parse_runs_the_bridge_search_once(monkeypatch):
    calls = []
    real = molgraph.bridge_flags
    monkeypatch.setattr(molgraph, "bridge_flags", lambda *args: calls.append(args) or real(*args))
    g = parse("c1ccccc1c1ccccc1")
    assert calls == [(g._adjacency, 13)]
    assert not hasattr(smiles_module, "bridge_flags")
