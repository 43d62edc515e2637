import numpy as np
import pytest

from moama import parse, read_dataset, tokenize
from moama.errors import DataError, SmilesError
from moama.molgraph import CHIRALITY_NONE, CHIRALITY_OTHER, CHIRALITY_TET1, CHIRALITY_TET2
from moama.smiles import ATOM_CODE


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
