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
from moama.smiles import _TOKEN_RE, ATOM_CODE

from conftest import ODD_SMILES, graph_state, parse_oracle, tokenize_oracle


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
    ("CC(C1)1", "duplicate bond", 6),    # the ring closes back onto the branch's first bond
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


# --- ring flags from the parse tree against the low-link search ---------------

RING_CASES = ["c1ccccc1", "c1ccc2ccccc2c1", "c1ccc2c(c1)ccc1ccccc12", "c1ccccc1c1ccccc1",
              "c1ccccc1-c1ccccc1", "c1ccccc1:c1ccccc1", "c1ccccc1Cc1ccccc1", "C1CC2CC1CC2",
              "c1cc2cc1cc2", "cc", "c:c", "c-c", "n1cccc1C(=O)c1ccco1", "[nH]1cccc1",
              "c1cc[nH]c1-c1ccccc1", "C1=CC=CC=C1c1ccccc1", "c1ccc1c", "c%10ccccc%10"]


def _parse_and_specs(smi):
    """The graph ``parse`` builds and the atoms and bond specs it hands
    ``MolGraph._build``, unwritten orders still None."""
    handed = []
    real = MolGraph._build
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MolGraph, "_build", lambda g, atoms, specs, *rest:
                   handed.append((atoms, list(specs))) or real(g, atoms, specs, *rest))
        g = parse(smi)
    (atoms, specs), = handed
    return g, atoms, specs


def test_ring_perception_equals_the_low_link_search():
    smiles = generate_corpus(500, seed=42) + RING_CASES + ODD_SMILES
    for seed in (1, 2, 3):
        smiles += generate_corpus(200, seed=seed)
    # a spiro atom, a bridged bicycle, a closure whose opening atom has the
    # higher id, and one whose endpoints sit on two branches, neither the
    # other's ancestor
    smiles += ["C1CCC2(C1)CCCC2", "C1CC2CCC1C2", "CC(CC1)1", "C(C1)CC1"]
    for smi in smiles:
        g, atoms, specs = _parse_and_specs(smi)
        assert all(u < v for u, v, _ in specs), smi
        # the public constructor validates the same specs and runs bridge_flags
        assert graph_state(g) == graph_state(MolGraph(atoms, specs)), smi
    assert [b.in_ring for b in parse("CC(CC1)1").bonds] == [False, True, True, True]


def test_only_the_public_constructor_runs_the_bridge_search(monkeypatch):
    calls = []
    real = molgraph.bridge_flags
    monkeypatch.setattr(molgraph, "bridge_flags", lambda *args: calls.append(args) or real(*args))
    g = parse("c1ccccc1c1ccccc1")
    assert calls == []
    MolGraph(g.atoms, [(b.u, b.v, b.order) for b in g.bonds])
    assert len(calls) == 1
    assert not hasattr(smiles_module, "bridge_flags")


# --- the one-pass parser against the former one --------------------------------

def test_parse_equals_the_former_parser():
    smiles = generate_corpus(500, seed=42) + ODD_SMILES + RING_CASES
    for seed in (1, 2, 3):
        smiles += generate_corpus(200, seed=seed)
    for smi in smiles:
        assert graph_state(parse(smi)) == graph_state(parse_oracle(smi)), smi
        assert tokenize(smi) == tokenize_oracle(smi), smi


def test_parse_shares_one_atom_value_per_code_pair():
    a, b = parse("CC[C@H](N)c1ccccc1"), parse("[C@H]1CC1")
    assert a.atoms[0] is a.atoms[1] is b.atoms[1]
    assert a.atoms[2] is b.atoms[0] and a.atoms[2] == AtomAttr(ATOM_CODE["C"], CHIRALITY_TET1)
    assert a.atoms[4] is parse("c").atoms[0] == AtomAttr(ATOM_CODE["C"])
    assert parse("CC").bonds[0] is parse("CCO").bonds[0] == molgraph.Bond(0, 1, "single")


# characters and multi-character tokens of the grammar, a few that are not,
# and bits of bracket atoms that are malformed on their own
_PIECES = list("CNOSPFIBcnosp()[]=#-:/\\.%@+123456789 0xH*") + [
    "Cl", "Br", "%12", "%1", "[nH]", "[C@@H]", "[13C]", "[Xx]", "[O-]", "[N+]", "[C@X]",
    "[Na+]", "[C@TH1H]", "[", "]", "%%", "c1ccccc1", "C(=O)O"]


def _outcome(parser, smiles):
    """The graph a parser builds, or its exception's type, text and offset."""
    try:
        return graph_state(parser(smiles))
    except Exception as e:   # any type: a wrong one must fail the comparison
        return type(e), str(e), getattr(e, "offset", None)


def test_parse_errors_equal_the_former_parser():
    rng = np.random.default_rng(20)
    seeds = generate_corpus(100, seed=9) + ODD_SMILES
    kinds = {}
    for i in range(20000):
        if i % 2:
            text = "".join(rng.choice(_PIECES, size=int(rng.integers(0, 12))))
        else:   # one to three point edits of a valid record
            text = seeds[int(rng.integers(len(seeds)))]
            for _ in range(int(rng.integers(1, 4))):
                at = int(rng.integers(len(text) + 1))
                piece = str(rng.choice(_PIECES))
                edit = int(rng.integers(3))
                text = (text[:at] + piece + text[at:] if edit == 0 else
                        text[:at] + text[at + 1:] if edit == 1 else
                        text[:at] + piece + text[at + 1:])
        got = _outcome(parse, text)
        assert got == _outcome(parse_oracle, text), text
        kind = "graph" if isinstance(got[0], tuple) else got[1].split(" at offset")[0]
        kinds[kind] = kinds.get(kind, 0) + 1
    # the strings reach every error the parser raises, and parse too
    assert kinds["graph"] > 1000
    errors = {k.split(" '")[0].split(" \"")[0] for k in kinds if k != "graph"}
    assert {"unexpected character", "unterminated bracket atom", "no atoms in input",
            "unknown element symbol", "malformed bracket atom", "two consecutive bond symbols",
            "bond with no preceding atom", "branch with no preceding atom",
            "bond symbol before branch open", "unmatched branch close",
            "dangling bond before branch close", "ring closure with no preceding atom",
            "conflicting ring closure bond orders", "ring closure bonds an atom to itself",
            "duplicate bond", "multi-fragment input (dot) not supported",
            "dangling bond at end of input", "unclosed branch", "unpaired ring closure"} <= errors


@pytest.mark.parametrize("smi,message,offset", [
    (")C!", "unexpected character '!'", 2),   # a lexical error wins over a grammar error before it
    ("((", "no atoms in input", 0),           # no atoms wins over every grammar error
    ("[Xx]C!", "unexpected character '!'", 5),
    ("C.C!", "unexpected character '!'", 3),
])
def test_error_precedence(smi, message, offset):
    with pytest.raises(SmilesError) as e:
        parse(smi)
    assert str(e.value) == f"{message} at offset {offset}" and e.value.offset == offset


def test_error_offsets_count_characters_not_bytes():
    with pytest.raises(SmilesError) as e:
        parse("[é]C!")
    assert e.value.offset == 4 == "[é]C!".index("!") != "[é]C!".encode().index(b"!")


def test_read_dataset_parses_each_row_once(tmp_path, monkeypatch):
    calls = []
    real = smiles_module.parse
    monkeypatch.setattr(smiles_module, "parse", lambda smi: calls.append(smi) or real(smi))
    p = tmp_path / "mols.csv"
    p.write_text("smiles\nCCO\nC(\n c1ccccc1 \nC.C\n")
    ds = read_dataset(p)
    assert calls == ["CCO", "C(", "c1ccccc1", "C.C"]
    assert [r.smiles for r in ds.records] == ["CCO", "c1ccccc1"] and ds.skipped == 2
