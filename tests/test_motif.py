import operator
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moama import (
    Motif,
    MotifDecomposition,
    cleavable_bonds,
    decompose,
    decompositions,
    load_rules,
    match_rules,
    motif_adjacency,
    parse,
    ring_bonds,
)
from moama.cli import main
from moama.datagen import has_carbonyl
from moama.errors import DataError
from moama.molgraph import AtomAttr, MolGraph
from moama.motif import (
    _BOND_MARKS,
    EnvPattern,
    MotifConfig,
    RuleTable,
    _Corpus,
    carbonyl_carbons,
    default_rules,
)
from moama.smiles import ATOM_CODE

from conftest import (
    ODD_SMILES,
    GraphContextOracle,
    NarrowCorpusOracle,
    cleavable_bonds_narrow_oracle,
    match_rules_oracle,
    odd_molecules,
    random_molgraph,
    relabel,
)

ROOT = Path(__file__).resolve().parents[1]


def _bond_id(g, u, v):
    key = (min(u, v), max(u, v))
    for i, b in enumerate(g.bonds):
        if (b.u, b.v) == key:
            return i
    raise AssertionError(f"no bond {key}")


def test_benzene_nothing_cleavable():
    assert match_rules(parse("c1ccccc1")) == frozenset()


def test_ethylbenzene_chain_to_ring_bond_cleaved():
    g = parse("CCc1ccccc1")
    assert match_rules(g) == frozenset({_bond_id(g, 1, 2)})


def test_phenyl_acetate_ester_linkage_cleaved():
    g = parse("CC(=O)Oc1ccccc1")
    got = match_rules(g)
    assert _bond_id(g, 1, 3) in got          # carbonyl C - O single bond
    assert _bond_id(g, 0, 1) not in got      # methyl stays on the acyl motif


def test_decompose_benzene_single_motif():
    dec = decompose(parse("c1ccccc1"))
    assert dec.n_motifs == 1
    assert dec.cut_edges == ()
    assert dec.motifs[0].node_ids == tuple(range(6))


def test_decompose_single_atom():
    dec = decompose(parse("C"))
    assert dec.n_motifs == 1
    assert dec.motifs[0].node_ids == (0,)


def test_decompose_ethylbenzene_two_motifs():
    dec = decompose(parse("CCc1ccccc1"))
    sizes = sorted(m.size for m in dec.motifs)
    assert sizes == [2, 6]
    assert len(dec.cut_edges) == 1


def test_motif_adjacency_single_motif():
    dec = decompose(parse("c1ccccc1"))
    assert motif_adjacency(dec) == (frozenset(),)


def test_motif_adjacency_ethylbenzene():
    dec = decompose(parse("CCc1ccccc1"))
    adj = motif_adjacency(dec)
    assert adj[0] == frozenset({1})
    assert adj[1] == frozenset({0})


def test_motif_adjacency_linear_three_motif_chain():
    # ring - ether oxygen - ring: the oxygen motif sits between the rings
    g = parse("c1ccccc1Oc1ccccc1")
    dec = decompose(g)
    assert dec.n_motifs == 3
    adj = motif_adjacency(dec)
    middle = dec.motif_of[6]  # the oxygen
    ends = [i for i in range(3) if i != middle]
    assert adj[middle] == frozenset(ends)
    assert adj[ends[0]] == frozenset({middle})
    assert adj[ends[1]] == frozenset({middle})


def _check_partition(g, dec):
    seen = set()
    for m in dec.motifs:
        for v in m.node_ids:
            assert v not in seen
            seen.add(v)
        assert dec.motif_of[m.node_ids[0]] == dec.motifs.index(m)
    assert seen == set(range(g.n_atoms))
    induced = {e for m in dec.motifs for e in m.induced_edges}
    cut = set(dec.cut_edges)
    assert induced | cut == set(range(len(g.bonds)))
    assert induced & cut == set()
    for m in dec.motifs:
        for e in m.induced_edges:
            b = g.bonds[e]
            assert dec.motif_of[b.u] == dec.motif_of[b.v]
    for e in cut:
        b = g.bonds[e]
        assert dec.motif_of[b.u] != dec.motif_of[b.v]


def test_partition_and_ring_preservation_on_corpus(corpus500):
    for g in corpus500[:200]:
        dec = decompose(g)
        _check_partition(g, dec)
        assert not (set(dec.cut_edges) & ring_bonds(g))


def test_decompose_deterministic_and_relabel_equivariant():
    rng = np.random.default_rng(5)
    for smi in ("CCOC(=O)c1ccccc1", "CC(=O)Nc1ccncc1", "CCOc1ccc(CC)cc1"):
        g = parse(smi)
        d1, d2 = decompose(g), decompose(g)
        assert d1 == d2
        perm = list(rng.permutation(g.n_atoms))
        h = relabel(g, perm)
        dh = decompose(h)
        parts_g = {frozenset(perm[v] for v in m.node_ids) for m in d1.motifs}
        parts_h = {frozenset(m.node_ids) for m in dh.motifs}
        assert parts_g == parts_h


def test_motif_size_statistics_on_corpus(corpus500):
    decs = [decompose(g) for g in corpus500]
    sizes = [m.size for d in decs for m in d.motifs]
    assert 2.0 <= np.mean(sizes) <= 5.0
    # motif count grows with molecule size, direction only
    n_atoms = np.array([g.n_atoms for g in corpus500])
    counts = np.array([d.n_motifs for d in decs])
    small = counts[n_atoms <= np.median(n_atoms)].mean()
    large = counts[n_atoms > np.median(n_atoms)].mean()
    assert large > small


def test_rule_file_loads_and_validates(tmp_path):
    rules = load_rules()
    assert len(rules) > 0
    assert all(1 <= r.rule_id <= 16 for r in rules)

    good = tmp_path / "ok.tsv"
    good.write_text("4\tC;al;deg>=2;nbr(=*)=0\tO;al;deg=2\tsingle\n")
    custom = load_rules(good)
    assert len(custom) == 1
    g = parse("CCOCC")  # ether: both C-O bonds match, one per orientation
    assert len(match_rules(g, custom)) == 2

    bad_id = tmp_path / "bad_id.tsv"
    bad_id.write_text("17\tC\tO\tsingle\n")
    with pytest.raises(DataError):
        load_rules(bad_id)

    bad_pred = tmp_path / "bad_pred.tsv"
    bad_pred.write_text("1\tC;degg=3\tO\tsingle\n")
    with pytest.raises(DataError):
        load_rules(bad_pred)


def test_rules_share_one_pattern_per_expression_text():
    rules = load_rules()
    sides = [e for r in rules for e in (r.left, r.right)]
    patterns = {id(e): e for e in sides}
    assert len(sides) == 92 and len(patterns) == 15
    assert sorted(e.expr for e in patterns.values()) == sorted({e.expr for e in sides})
    assert all(rules.envs[e.expr] is e for e in sides)


def test_env_grammar_predicates():
    # each test alone and at the offsets a corpus gives it: the ester has 10 atoms
    ester, pyridine = parse("CC(=O)Oc1ccccc1"), parse("c1ccncc1")
    carbonyl_c = EnvPattern.compile("C;al;deg=3;nbr(=O)>=1")
    aromatic_c = EnvPattern.compile("C;ar;nbr(:C)>=2")
    ring_pred = EnvPattern.compile("ring")
    hetero = EnvPattern.compile("C;ar;nbr(:N|O|S)>=1;nbr(:C|N|O|S)>=2")
    for corpus, at_ester, at_pyridine in (([ester], 0, None), ([pyridine], None, 0),
                                          ([ester, pyridine], 0, 10), ([pyridine, ester], 6, 0)):
        ctx = _Corpus(corpus)
        hits = {env.expr: env.matches(ctx).tolist()
                for env in (carbonyl_c, aromatic_c, ring_pred, hetero)}
        assert all(len(h) == ctx.n for h in hits.values())
        if at_ester is not None:
            assert hits[carbonyl_c.expr][at_ester + 1]
            assert not hits[carbonyl_c.expr][at_ester + 0]
            assert hits[aromatic_c.expr][at_ester + 5]
            assert hits[ring_pred.expr][at_ester + 4]
            assert not hits[ring_pred.expr][at_ester + 3]
        if at_pyridine is not None:
            assert hits[aromatic_c.expr][at_pyridine + 1]       # both aromatic neighbors are C
            assert not hits[aromatic_c.expr][at_pyridine + 2]   # one aromatic neighbor is N
            assert hits[hetero.expr][at_pyridine + 2]
            assert not hits[hetero.expr][at_pyridine + 1]


# --- reference matcher ------------------------------------------------------
# The tuple interpreter and the loop over rules that match_rules replaced,
# kept as the oracle: each predicate parses to a tagged tuple, each bond tries
# every rule in both orientations, and atom facts come from the graph directly.

_ORACLE_CMP = {"=": operator.eq, ">=": operator.ge, "<=": operator.le}
_ORACLE_ORDER = {"-": "single", "=": "double", "#": "triple", ":": "aromatic"}


def _oracle_elems(text):
    return frozenset(ATOM_CODE[sym] for sym in text.split("|"))


def _oracle_mark(spec):
    for mark in ("!-", "-@", "-", "=", "#", ":", "@"):
        if spec.startswith(mark):
            return mark, spec[len(mark):]
    return "any", spec


def _oracle_pred(text):
    if text in ("ar", "al"):
        return ("arom", text == "ar")
    if text in ("ring", "acyclic"):
        return ("ring", text == "ring")
    m = re.fullmatch(r"deg(>=|<=|=)(\d+)", text)
    if m:
        return ("deg", m[1], int(m[2]))
    m = re.fullmatch(r"nbr\(([^)]+)\)(>=|<=|=)(\d+)", text)
    if m:
        bond, spec = _oracle_mark(m[1])
        if spec == "*":
            target = ("any",)
        elif spec == "C=O":
            target = ("carbonyl",)
        elif spec.startswith("!"):
            target = ("notelem", _oracle_elems(spec[1:]))
        else:
            target = ("elem", _oracle_elems(spec))
        return ("nbr", bond, target, m[2], int(m[3]))
    return ("elem", _oracle_elems(text))


def _oracle_bond(kind, b):
    if kind == "any":
        return True
    if kind == "@":
        return b.in_ring
    if kind == "-@":
        return b.order == "single" and b.in_ring
    if kind == "!-":
        return b.order != "single"
    return b.order == _ORACLE_ORDER[kind]


def _oracle_target(target, facts, u):
    elem, _, _, carbonyl = facts
    if target[0] == "any":
        return True
    if target[0] == "elem":
        return elem[u] in target[1]
    if target[0] == "notelem":
        return elem[u] not in target[1]
    return u in carbonyl


def _oracle_env(preds, g, facts, v):
    elem, arom, ring, _ = facts
    for pred in preds:
        kind = pred[0]
        if kind == "elem":
            ok = elem[v] in pred[1]
        elif kind == "arom":
            ok = (v in arom) == pred[1]
        elif kind == "ring":
            ok = (v in ring) == pred[1]
        elif kind == "deg":
            ok = _ORACLE_CMP[pred[1]](len(g._adjacency[v]), pred[2])
        else:
            _, bond, target, op, n = pred
            count = sum(1 for u, bid in g._adjacency[v]
                        if _oracle_bond(bond, g.bonds[bid]) and _oracle_target(target, facts, u))
            ok = _ORACLE_CMP[op](count, n)
        if not ok:
            return False
    return True


def _oracle_match(g, rules):
    elem = [a.atom_type for a in g.atoms]
    c, o = ATOM_CODE["C"], ATOM_CODE["O"]
    facts = (
        elem,
        {x for b in g.bonds if b.order == "aromatic" for x in (b.u, b.v)},
        {x for b in g.bonds if b.in_ring for x in (b.u, b.v)},
        {a for b in g.bonds if b.order == "double"
         for a, other in ((b.u, b.v), (b.v, b.u)) if elem[a] == c and elem[other] == o},
    )

    def preds(env):
        return [_oracle_pred(p.strip()) for p in env.expr.split(";") if p.strip()]

    parsed = [(r.bond_order, preds(r.left), preds(r.right)) for r in rules]
    out = set()
    for i, b in enumerate(g.bonds):
        if b.in_ring:
            continue
        for order, left, right in parsed:
            if order != b.order:
                continue
            if (_oracle_env(left, g, facts, b.u) and _oracle_env(right, g, facts, b.v)) or (
                _oracle_env(left, g, facts, b.v) and _oracle_env(right, g, facts, b.u)
            ):
                out.add(i)
                break
    return frozenset(out)


def _oracle_decompose(g, cut):
    # union by smaller root, so each component's root is its smallest member
    # and motifs come out in order of their smallest member
    root = list(range(g.n_atoms))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for i, b in enumerate(g.bonds):
        if i not in cut:
            ru, rv = find(b.u), find(b.v)
            root[max(ru, rv)] = min(ru, rv)
    index = {r: k for k, r in enumerate(sorted({find(v) for v in range(g.n_atoms)}))}
    motif_of = tuple(index[find(v)] for v in range(g.n_atoms))
    motifs = tuple(
        Motif(tuple(v for v in range(g.n_atoms) if motif_of[v] == k),
              tuple(i for i, b in enumerate(g.bonds) if i not in cut and motif_of[b.u] == k))
        for k in range(len(index))
    )
    cut_sorted = tuple(sorted(cut))
    pairs = tuple((g.bonds[i].u, g.bonds[i].v) for i in cut_sorted)
    return MotifDecomposition(motifs, cut_sorted, pairs, motif_of)


# Asymmetric rules over every predicate kind, every bond mark (and none),
# every nbr target (*, a set, !set, C=O) and every comparator.
EVERY_KIND_TABLE = """\
# rule_id\tleft_env\tright_env\tbond_order
1\tC;al;deg>=2;nbr(-*)>=1\tN|O;deg<=2;nbr(=*)=0\tsingle
2\tC|N;ar;nbr(:C)>=2\tC;al;deg>=2;nbr(-*)>=1\tsingle
3\tC;ring;nbr(-@C|N)>=1\tO|S|Cl;acyclic;deg=1\tsingle
4\tC|N;nbr(!-*)>=1;nbr(C=O)<=1\tC|S;nbr(@!O)>=2;deg<=3\tsingle
5\tC;al;deg>=2;nbr(-*)>=1\tN|C;nbr(#*)=1\ttriple
6\tC;acyclic;nbr(!N|O)>=1;nbr(*)<=3\tO;nbr(C=O)>=1\tsingle
7\tC;nbr(=O)>=1\tC|N;ar;nbr(:C)>=2\tsingle
8\tC|N;nbr(!-*)>=1;nbr(C=O)<=1\tC|N;nbr(!-*)>=1;nbr(C=O)<=1\tdouble
9\tN|O;deg<=2;nbr(=*)=0\tC|S;nbr(@!O)>=2;deg<=3\tdouble
10\tC;al;deg>=2;nbr(-*)>=1\tO|S|Cl;acyclic;deg=1\tsingle
11\tS|N;al;nbr(C|N|O)>=1;nbr(@*)=0\tC;nbr(-C)>=1;deg<=4\tsingle
12\tC|N|O;nbr(!-*)>=1\tC|N|O|S|Cl;acyclic\tsingle
13\tC;ring;nbr(-@C|N)<=1\tC|N|O;acyclic;deg<=2\tsingle
14\tC|N;nbr(:*)=2\tC|N|O|S|Cl;acyclic\tsingle
15\tC|N;nbr(*)>=3\tC|N|O|S|Cl;acyclic\tsingle
16\tC|N|O|S;nbr(C=O)=0\tC;al\tsingle
"""


@pytest.fixture(scope="module")
def rule_tables(tmp_path_factory):
    path = tmp_path_factory.mktemp("rules") / "every_kind.tsv"
    path.write_text(EVERY_KIND_TABLE)
    return {"bundled": load_rules(), "every_kind": load_rules(path)}


def test_every_kind_table_covers_the_grammar(rule_tables, corpus500):
    specs, ops, plain = set(), set(), set()
    for line in EVERY_KIND_TABLE.splitlines()[1:]:
        for pred in ";".join(line.split("\t")[1:3]).split(";"):
            m = re.fullmatch(r"nbr\((.+)\)(>=|<=|=)\d+", pred)
            if m:
                specs.add(m[1])
                ops.add(m[2])
            else:
                plain.add(re.sub(r"\d+$", "", pred))
    marks, targets = zip(*map(_oracle_mark, specs))
    assert set(marks) == set(_BOND_MARKS) | {"any"}
    assert {"*", "C=O"} <= set(targets)
    assert any(t.startswith("!") for t in targets)
    assert any(t[0].isupper() and t != "C=O" for t in targets)
    assert ops == {"=", ">=", "<="}
    assert {"ar", "al", "ring", "acyclic", "deg=", "deg>=", "deg<=", "C|N"} <= plain
    assert sum(len(match_rules(g, rule_tables["every_kind"])) for g in corpus500) > 0


@settings(max_examples=200, deadline=None)
@given(table=st.sampled_from(["bundled", "every_kind"]),
       source=st.one_of(st.tuples(st.just("random"), st.integers(0, 2**32 - 1)),
                        st.tuples(st.just("datagen"), st.integers(0, 499))))
def test_matching_equals_the_tuple_interpreter(rule_tables, corpus500, table, source):
    kind, key = source
    if kind == "random":
        g = random_molgraph(np.random.default_rng(key), 2, 16)
    else:
        g = corpus500[key]
    rules = rule_tables[table]
    expected = _oracle_match(g, rules)
    assert match_rules(g, rules) == expected
    assert decompose(g, rules) == _oracle_decompose(g, expected)
    for i in range(len(rules)):  # alone, so no other rule hides a wrong match
        assert match_rules(g, rules[i:i + 1]) == _oracle_match(g, rules[i:i + 1])


# molecules without an acyclic bond: nothing to cut
NO_ACYCLIC_BOND = ["C", "c1ccccc1", "C1CCCCC1", "C1CC2CC1CC2", "c1ccc2ccccc2c1", "c1ccncc1"]


@pytest.fixture(scope="module")
def matcher_corpora(refinement_corpora):
    odd = odd_molecules() + [parse(s) for s in ODD_SMILES + NO_ACYCLIC_BOND]
    return {**refinement_corpora, "odd": odd}


@pytest.mark.parametrize("table", ["bundled", "every_kind"])
def test_corpus_kernel_equals_the_per_atom_matcher(rule_tables, matcher_corpora, table):
    rules = rule_tables[table]
    cut = 0
    for name, graphs in matcher_corpora.items():
        expected = [match_rules_oracle(g, rules) for g in graphs]
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            assert cleavable_bonds(graphs, rules) == expected, name
            assert list(decompositions(graphs, rules)) == [
                _oracle_decompose(g, c) for g, c in zip(graphs, expected)], name
        cut += sum(map(len, expected))
    assert cut > 1000
    graphs = matcher_corpora["corpus500"]
    for i in range(len(rules)):   # alone, so no other rule hides a wrong match
        assert cleavable_bonds(graphs, rules[i:i + 1]) == [
            match_rules_oracle(g, rules[i:i + 1]) for g in graphs]


@pytest.mark.parametrize("table", ["bundled", "every_kind"])
def test_cut_sets_do_not_depend_on_the_rest_of_the_corpus(rule_tables, matcher_corpora, table):
    rules = rule_tables[table]
    graphs = matcher_corpora["seed1"] + matcher_corpora["odd"]
    together = cleavable_bonds(graphs, rules)
    assert together == [match_rules(g, rules) for g in graphs]
    assert list(decompositions(graphs, rules)) == [decompose(g, rules) for g in graphs]
    perm = np.random.default_rng(31).permutation(len(graphs))
    assert cleavable_bonds([graphs[i] for i in perm], rules) == [together[i] for i in perm]


@pytest.mark.parametrize("table", ["bundled", "every_kind"])
def test_the_stack_corpus_equals_the_narrow_typed_corpus(rule_tables, matcher_corpora, table):
    rules = rule_tables[table]
    bondless = [MolGraph([AtomAttr(6)] * n, []) for n in (1, 2)]
    for name, graphs in {**matcher_corpora, "bondless": bondless,
                         "mixed": bondless + matcher_corpora["odd"] + bondless}.items():
        ctx, narrow = _Corpus(graphs), NarrowCorpusOracle(graphs)
        for fact in ("elem", "degree", "aromatic", "on_ring", "carbonyl"):
            assert np.array_equal(getattr(ctx, fact), getattr(narrow, fact)), (name, fact)
        for env in rules.envs.values():
            assert np.array_equal(env.matches(ctx), env.matches(narrow)), (name, env.expr)
        assert cleavable_bonds(graphs, rules) == cleavable_bonds_narrow_oracle(graphs, rules), name


def test_an_empty_corpus_and_molecules_without_acyclic_bonds():
    assert cleavable_bonds([]) == [] and list(decompositions([])) == []
    graphs = [parse(s) for s in NO_ACYCLIC_BOND]
    assert all(b.in_ring for g in graphs for b in g.bonds)
    assert cleavable_bonds(graphs) == [frozenset()] * len(graphs)
    assert [d.n_motifs for d in decompositions(graphs)] == [1] * len(graphs)


def test_decompositions_match_at_the_call_and_split_as_they_are_read(monkeypatch):
    import moama.motif

    graphs = [parse(s) for s in ("CCc1ccccc1", "CC(=O)Oc1ccccc1", "C")]
    calls, splits = [], []
    real_match, real_split = moama.motif.cleavable_bonds, moama.motif._split
    monkeypatch.setattr(moama.motif, "cleavable_bonds",
                        lambda gs, rules=None: calls.append(len(gs)) or real_match(gs, rules))
    monkeypatch.setattr(moama.motif, "_split", lambda g, cut: splits.append(g) or real_split(g, cut))
    decs = decompositions(iter(graphs))
    assert calls == [3] and splits == []
    assert next(decs).n_motifs == 2 and splits == graphs[:1]
    assert [d.n_motifs for d in decs] == [3, 1] and splits == graphs and calls == [3]


@pytest.mark.parametrize("pred", ["nbr(=)>=1", "nbr(!)=0", "nbr(-Xx)=1", "deg>3", "nbr(C)"])
def test_malformed_predicate_names_its_line_and_exits_2(tmp_path, capsys, pred):
    path = tmp_path / "bad.tsv"
    path.write_text(f"# one malformed predicate\n4\tC;al;{pred}\tO;al;deg=2\tsingle\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:2: ")):
        load_rules(path)
    data = tmp_path / "mols.csv"
    data.write_text("smiles\nCCOCC\n")
    code = main(["decompose", "--out", str(tmp_path / "out"), "--set", f"data.input={data}",
                 "--set", f"motif.rules={path}"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"data error: {path}:2: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_docs_name_every_bond_mark_and_their_examples_compile():
    readme = (ROOT / "README.md").read_text("utf-8")
    paragraph = readme.split("## Motif rule table", 1)[1].split("\n## ", 1)[0]
    spans = re.findall(r"`([^`]+)`", paragraph)
    readme_tokens = {t for span in spans for t in span.split()}
    table = (ROOT / "src/moama/rules/brics.tsv").read_text("utf-8")
    header_tokens = {t for line in table.splitlines() if line.startswith("#")
                     for t in line[1:].split()}
    for mark in _BOND_MARKS:
        assert mark in readme_tokens, mark
        assert mark in header_tokens, mark
    examples = [span for span in spans if span.startswith(("nbr(", "deg"))]
    assert len(examples) >= 5
    for example in examples:
        EnvPattern.compile(example)


# --- reference carbonyl tests -----------------------------------------------
# The two loops that carbonyl_carbons replaced: the former per-graph context's
# per-atom flags and datagen.has_carbonyl's search for a C=O bond.

def _context_carbonyl_oracle(g):
    elem = [a.atom_type for a in g.atoms]
    flags = [False] * g.n_atoms
    for b in g.bonds:
        if b.order == "double":
            for a, o in ((b.u, b.v), (b.v, b.u)):
                if elem[a] == ATOM_CODE["C"] and elem[o] == ATOM_CODE["O"]:
                    flags[a] = True
    return flags


def _has_carbonyl_oracle(g):
    c, o = ATOM_CODE["C"], ATOM_CODE["O"]
    for b in g.bonds:
        if b.order == "double":
            if {g.atoms[b.u].atom_type, g.atoms[b.v].atom_type} == {c, o}:
                return True
    return False


def test_carbonyl_carbons_equal_the_loops_they_replaced(corpus500):
    rng = np.random.default_rng(17)
    graphs = list(corpus500) + [random_molgraph(rng, 2, 16) for _ in range(500)]
    found = 0
    for g in graphs:
        got = carbonyl_carbons(g)
        flags = _context_carbonyl_oracle(g)
        assert got == frozenset(v for v, flag in enumerate(flags) if flag)
        assert [v in GraphContextOracle(g).carbonyl for v in range(g.n_atoms)] == flags
        assert has_carbonyl(g) == _has_carbonyl_oracle(g) == bool(got)
        found += bool(got)
    assert 0 < found < len(graphs)
    stacked = _Corpus(graphs).carbonyl.tolist()   # the whole corpus at once
    assert stacked == [f for g in graphs for f in _context_carbonyl_oracle(g)]


def test_the_bundled_table_is_loaded_once_and_is_the_empty_settings_table(tmp_path):
    assert MotifConfig().rule_table() is default_rules()
    assert default_rules() is default_rules()
    assert isinstance(default_rules(), RuleTable)
    assert default_rules().pairs == load_rules().pairs
    table = tmp_path / "one.tsv"
    table.write_text("1\tdeg>=1\tdeg>=1\tsingle\n")
    assert isinstance(MotifConfig(str(table)).rule_table(), RuleTable)
