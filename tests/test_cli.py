import csv
import os
import pickle
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import moama.influence
from moama.cli import COMMANDS, main
from moama.config import DEFAULTS, RunConfig, build_section, effective_config
from moama.datagen import write_corpus_csv
from moama.gin import MAX_EMBED_DIM, MAX_LAYERS, EncoderConfig, ParamStore, init_params
from moama import autodiff as ad
from moama import fingerprint, molgraph, motif, train
from moama.errors import (DataError, MoamaError, NumericsError, SmilesError, csv_text,
                          write_output)
from moama.masking import MaskConfig, build_plan, motif_tables, plan_rng
from moama.motif import default_rules
from moama.smiles import parse
from moama.train import load_checkpoint, save_checkpoint

from conftest import build_plan_oracle, stack_oracle, write_checkpoint_naming_twice


@pytest.fixture()
def mols_csv(tmp_path):
    p = tmp_path / "mols.csv"
    p.write_text("smiles\nCCOC(=O)c1ccccc1\nCCNc1ccccc1\nCCOc1ccncc1\n")
    return p


def _error_classes(cls=MoamaError):
    """``cls`` and every subclass of it, depth first."""
    return [cls, *(c for sub in cls.__subclasses__() for c in _error_classes(sub))]


def test_every_package_error_survives_a_pickle_round_trip():
    # influence sends a forked child's exception to its parent pickled
    classes = _error_classes()
    assert SmilesError in classes and NumericsError in classes
    for cls in classes:
        err = cls("bad", 3) if issubclass(cls, SmilesError) else cls("bad")
        back = pickle.loads(pickle.dumps(err, pickle.HIGHEST_PROTOCOL))
        assert type(back) is cls and str(back) == str(err)
        assert getattr(back, "offset", None) == getattr(err, "offset", None)
    assert str(pickle.loads(pickle.dumps(SmilesError("bad", 3)))) == "bad at offset 3"


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_decompose_three_rows(mols_csv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["decompose", "--out", str(out), "--set", f"data.input={mols_csv}"]) == 0
    rows = _read_rows(out / "motifs.csv")
    assert len(rows) == 3
    assert all(int(r["n_motifs"]) >= 2 for r in rows)
    assert (out / "effective-config.decompose").exists()


def test_mask_preview_columns(mols_csv, tmp_path):
    out = tmp_path / "out"
    assert main(["mask-preview", "--out", str(out), "--seed", "4",
                 "--set", f"data.input={mols_csv}"]) == 0
    rows = _read_rows(out / "mask_plans.csv")
    assert len(rows) == 3
    feasible = [r for r in rows if r["feasible"] == "1"]
    assert feasible
    for r in feasible:
        assert 0.15 < float(r["realized_alpha"]) < 0.25


def _no_concatenation(graphs):
    raise AssertionError("a corpus kernel concatenated a parsed corpus")


def test_corpus_kernels_keep_the_concatenating_oracle_s_bytes(tmp_path, monkeypatch):
    # each command once as it runs, with the prep commands barred from
    # concatenating, and once with the corpus kernels on the oracle stack
    labeled, data = tmp_path / "labeled.csv", tmp_path / "skips.csv"
    write_corpus_csv(labeled, 60, seed=11, labeled=True)
    rows = []
    for i, row in enumerate(_read_rows(labeled)):
        if i % 9 == 4:
            rows.append(["C1CC", 1])   # an unclosed ring: a skipped row
        rows.append([row["smiles"], row["label"]])
    data.write_text(csv_text(["smiles", "label"], rows))
    runs = [("decompose", "motifs.csv"), ("fingerprint", "fingerprints.csv"),
            ("mask-preview", "mask_plans.csv"), ("finetune", "auc_report.csv")]
    seen = []
    for i, oracle in enumerate((False, True)):
        outputs = []
        with monkeypatch.context() as m:
            if oracle:
                for module in (motif, fingerprint, train):
                    m.setattr(module, "corpus_stack", stack_oracle)
            for command, name in runs:
                out = tmp_path / f"{i}-{command}"
                with monkeypatch.context() as bar:
                    if command != "finetune":
                        bar.setattr(molgraph, "stack", _no_concatenation)
                    assert main([command, "--out", str(out), "--set", f"data.input={data}",
                                 "--set", "run.finetune_epochs=3"]) == 0
                outputs.append((out / name).read_bytes())
        seen.append(outputs)
    assert seen[0] == seen[1]
    assert seen[0][0].count(b"\r\n") == 1 + 60   # the header and the 60 parsed rows


def test_mask_preview_plans_are_the_one_plan_helpers(tmp_path):
    # one stream object serves every row; each row resets it fully, so the
    # draw-heavy element-wise plans equal those of a stream of their own
    data = tmp_path / "mols.csv"
    write_corpus_csv(data, 60, seed=3)
    out = tmp_path / "out"
    settings = ["mask.mode=element_wise", "mask.coverage=0.5", "mask.hop_k=2"]
    assert main(["mask-preview", "--out", str(out), "--seed", "4", "--set", f"data.input={data}",
                 *(a for kv in settings for a in ("--set", kv))]) == 0
    graphs = [parse(r["smiles"]) for r in _read_rows(data)]
    cfg = MaskConfig(mode="element_wise", coverage=0.5, hop_k=2, seed=4)
    tables = motif_tables(graphs, default_rules(), cfg)
    rows = _read_rows(out / "mask_plans.csv")
    assert len(rows) == len(graphs)
    for i, (row, table) in enumerate(zip(rows, tables)):
        plan = build_plan(table, cfg, plan_rng(4, i))
        assert (row["masked_atom_type"], row["masked_chirality"]) == tuple(
            "|".join(map(str, nodes)) for nodes in plan.masked_nodes)
    assert any(r["masked_atom_type"] != r["masked_chirality"] for r in rows)


def test_fingerprint_hex_output(mols_csv, tmp_path):
    out = tmp_path / "out"
    assert main(["fingerprint", "--out", str(out), "--set", f"data.input={mols_csv}",
                 "--set", "fp.width=256"]) == 0
    rows = _read_rows(out / "fingerprints.csv")
    assert len(rows) == 3
    for r in rows:
        assert len(r["fingerprint_hex"]) == 64
        int(r["fingerprint_hex"], 16)


def test_fingerprint_of_a_header_only_csv_is_a_header_only_csv(tmp_path):
    data = tmp_path / "empty.csv"
    data.write_text("smiles\n")
    out = tmp_path / "out"
    assert main(["fingerprint", "--out", str(out), "--set", f"data.input={data}"]) == 0
    assert (out / "fingerprints.csv").read_bytes() == b"smiles,fingerprint_hex\r\n"


def test_fingerprint_of_lone_atoms_keeps_its_bytes(tmp_path):
    data = tmp_path / "atoms.csv"
    data.write_text("smiles\nC\nN\n[Na+]\n")
    out = tmp_path / "out"
    assert main(["fingerprint", "--out", str(out), "--set", f"data.input={data}",
                 "--set", "fp.width=64"]) == 0
    assert (out / "fingerprints.csv").read_bytes() == (
        b"smiles,fingerprint_hex\r\nC,8000000000040010\r\nN,0004000200000004\r\n"
        b"[Na+],0200000008080000\r\n")


def test_finetune_of_a_header_only_csv_has_an_empty_train_split(tmp_path, capsys):
    data = tmp_path / "empty.csv"
    data.write_text("smiles,label\n")
    assert main(["finetune", "--out", str(tmp_path / "out"), "--set", f"data.input={data}",
                 "--set", "data.label=label"]) == 2
    assert capsys.readouterr().err == "data error: train split is empty\n"


def test_exit_codes(tmp_path):
    out = ["--out", str(tmp_path / "out")]
    assert main(["decompose", *out, "--set", "bogus.key=1"]) == 1   # unknown key
    assert main(["decompose", *out]) == 1                           # missing input
    assert main(["decompose", *out, "--set", "data.input=/nonexistent.csv"]) == 2


def test_exit_code_numerical_failure(mols_csv, tmp_path):
    # a checkpoint full of huge weights overflows the forward pass
    cfg = EncoderConfig(layers=2, embed_dim=8)
    store = init_params(cfg, seed=0)
    for t in store.params.values():
        t.values = t.values * 0.0 + 1e300
    ckpt = tmp_path / "huge.moam"
    save_checkpoint(ckpt, store, {
        "encoder.layers": "2", "encoder.embed_dim": "8", "encoder.readout": "mean",
        "encoder.epsilon": "0.0", "encoder.learn_epsilon": "false",
        "encoder.decoder": "gnn"}, {"seed": 0}, 0)
    with np.errstate(over="ignore"):
        code = main(["influence", "--out", str(tmp_path / "out"),
                     "--set", f"data.input={mols_csv}",
                     "--set", f"run.checkpoint={ckpt}"])
    assert code == 3


def test_pretrain_same_seed_byte_identical(tmp_path):
    data = tmp_path / "corpus.csv"
    write_corpus_csv(data, 24, seed=3)
    args_common = [
        "pretrain", "--seed", "7",
        "--set", f"data.input={data}",
        "--set", "run.epochs=2", "--set", "run.batch_pretrain=8",
        "--set", "encoder.layers=2", "--set", "encoder.embed_dim=8",
    ]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args_common + ["--out", str(out1)]) == 0
    assert main(args_common + ["--out", str(out2)]) == 0
    assert (out1 / "checkpoint.moam").read_bytes() == (out2 / "checkpoint.moam").read_bytes()
    assert (out1 / "loss.csv").read_text() == (out2 / "loss.csv").read_text()


def test_effective_config_reproduces_run(tmp_path):
    data = tmp_path / "corpus.csv"
    write_corpus_csv(data, 16, seed=5)
    out1 = tmp_path / "a"
    assert main(["pretrain", "--out", str(out1), "--seed", "3",
                 "--set", f"data.input={data}",
                 "--set", "run.epochs=1", "--set", "encoder.layers=2",
                 "--set", "encoder.embed_dim=8", "--set", "run.batch_pretrain=8"]) == 0
    out2 = tmp_path / "b"
    assert main(["pretrain", "--out", str(out2),
                 "--config", str(out1 / "effective-config.pretrain")]) == 0
    assert (out1 / "checkpoint.moam").read_bytes() == (out2 / "checkpoint.moam").read_bytes()
    assert (out1 / "effective-config.pretrain").read_text() == \
        (out2 / "effective-config.pretrain").read_text()


def test_effective_config_survives_shared_out_dir(tmp_path):
    # later commands into the same --out must not clobber earlier provenance
    data = tmp_path / "corpus.csv"
    write_corpus_csv(data, 16, seed=5)
    out = tmp_path / "shared"
    args = ["pretrain", "--out", str(out), "--seed", "3",
            "--set", f"data.input={data}",
            "--set", "run.epochs=1", "--set", "encoder.layers=2",
            "--set", "encoder.embed_dim=8", "--set", "run.batch_pretrain=8"]
    assert main(args) == 0
    first = (out / "checkpoint.moam").read_bytes()
    assert main(["fingerprint", "--out", str(out), "--set", f"data.input={data}"]) == 0
    out2 = tmp_path / "redo"
    assert main(["pretrain", "--out", str(out2),
                 "--config", str(out / "effective-config.pretrain")]) == 0
    assert (out2 / "checkpoint.moam").read_bytes() == first


def test_influence_with_zero_checkpoint(mols_csv, tmp_path):
    cfg = EncoderConfig(layers=2, embed_dim=8)
    store = init_params(cfg, seed=0)
    zero = ParamStore({n: ad.parameter(np.zeros_like(t.values))
                       for n, t in store.params.items()})
    ckpt = tmp_path / "zero.moam"
    snapshot = {
        "encoder.layers": "2", "encoder.embed_dim": "8", "encoder.readout": "mean",
        "encoder.epsilon": "0.0", "encoder.learn_epsilon": "false",
        "encoder.decoder": "gnn",
    }
    save_checkpoint(ckpt, zero, snapshot, {"seed": 0}, 0)
    out = tmp_path / "out"
    assert main(["influence", "--out", str(out),
                 "--set", f"data.input={mols_csv}",
                 "--set", f"run.checkpoint={ckpt}"]) == 0
    rows = _read_rows(out / "influence_nodes.csv")
    for r in rows:
        if r["s_intra"]:
            assert float(r["s_intra"]) == 0.0
        if r["s_inter"]:
            assert float(r["s_inter"]) == 0.0
    assert (out / "influence_summary.csv").exists()
    assert (out / "mrr_inter.csv").exists()


def test_finetune_cli_end_to_end(tmp_path):
    data = tmp_path / "labeled.csv"
    write_corpus_csv(data, 60, seed=11, labeled=True)
    out = tmp_path / "out"
    code = main(["finetune", "--out", str(out), "--seed", "2",
                 "--set", f"data.input={data}", "--set", "data.label=label",
                 "--set", "run.finetune_epochs=3", "--set", "run.batch_finetune=16",
                 "--set", "encoder.layers=2", "--set", "encoder.embed_dim=8"])
    assert code == 0
    rows = _read_rows(out / "auc_report.csv")
    assert len(rows) == 1
    assert 0.0 <= float(rows[0]["test_auc"]) <= 1.0


def test_finetune_adopts_checkpoint_encoder_settings(tmp_path):
    corpus = tmp_path / "corpus.csv"
    labeled = tmp_path / "labeled.csv"
    write_corpus_csv(corpus, 20, seed=8)
    write_corpus_csv(labeled, 60, seed=12, labeled=True)
    pre_out = tmp_path / "pre"
    assert main(["pretrain", "--out", str(pre_out), "--seed", "1",
                 "--set", f"data.input={corpus}",
                 "--set", "run.epochs=1", "--set", "run.batch_pretrain=8",
                 "--set", "encoder.layers=3", "--set", "encoder.embed_dim=16"]) == 0
    out = tmp_path / "ft"
    # no encoder flags here: the defaults disagree with the checkpoint
    code = main(["finetune", "--out", str(out), "--seed", "2",
                 "--set", f"data.input={labeled}",
                 "--set", f"run.checkpoint={pre_out / 'checkpoint.moam'}",
                 "--set", "run.finetune_epochs=2", "--set", "run.batch_finetune=16"])
    assert code == 0
    assert (out / "auc_report.csv").exists()


@pytest.mark.parametrize("key,value", [("influence.top_k", "0"), ("influence.top_k", "-2"),
                                       ("influence.max_graphs", "-1"),
                                       ("influence.inter_mode", "bogus"),
                                       ("loss.targets", "bogus")])
def test_influence_rejects_bad_limits(mols_csv, tmp_path, capsys, key, value):
    cfg = EncoderConfig(layers=2, embed_dim=8)
    ckpt = tmp_path / "ckpt.moam"
    save_checkpoint(ckpt, init_params(cfg, seed=0), {
        "encoder.layers": "2", "encoder.embed_dim": "8", "encoder.readout": "mean",
        "encoder.epsilon": "0.0", "encoder.learn_epsilon": "false",
        "encoder.decoder": "gnn"}, {"seed": 0}, 0)
    out = tmp_path / "out"
    assert main(["influence", "--out", str(out), "--set", f"data.input={mols_csv}",
                 "--set", f"run.checkpoint={ckpt}", "--set", f"{key}={value}"]) == 1
    assert key in capsys.readouterr().err
    assert not (out / "influence_nodes.csv").exists()


def test_truncated_checkpoint_is_a_data_error(mols_csv, tmp_path, capsys):
    # every section: header, both JSON blobs, a 0-d and a 2-d tensor
    store = ParamStore({"enc.0.eps": ad.parameter(np.array(0.5)),
                        "enc.0.w1": ad.parameter(np.arange(6.0).reshape(2, 3))})
    full = tmp_path / "full.moam"
    save_checkpoint(full, store, {"encoder.layers": "1"}, {"seed": 0}, 3)
    data = full.read_bytes()
    load_checkpoint(full)
    cut = tmp_path / "cut.moam"
    for offset in range(len(data)):
        cut.write_bytes(data[:offset])
        with pytest.raises(DataError):
            load_checkpoint(cut)
    cut.write_bytes(data[:len(data) // 2])
    assert main(["influence", "--out", str(tmp_path / "out"), "--set", f"data.input={mols_csv}",
                 "--set", f"run.checkpoint={cut}"]) == 2
    assert "truncated or corrupt" in capsys.readouterr().err


@pytest.mark.parametrize("spelling", ["yes", "1"])
def test_learn_epsilon_spelling_survives_checkpoint(tmp_path, spelling):
    data = tmp_path / "corpus.csv"
    write_corpus_csv(data, 16, seed=5)
    outs = {}
    for value in ("true", spelling):
        pre, inf = tmp_path / f"pre-{value}", tmp_path / f"inf-{value}"
        assert main(["pretrain", "--out", str(pre), "--seed", "3",
                     "--set", f"data.input={data}", "--set", "run.epochs=2",
                     "--set", "run.batch_pretrain=8", "--set", "encoder.layers=2",
                     "--set", "encoder.embed_dim=8",
                     "--set", f"encoder.learn_epsilon={value}"]) == 0
        ckpt = pre / "checkpoint.moam"
        assert load_checkpoint(ckpt).encoder_config().learn_epsilon is True
        assert main(["influence", "--out", str(inf), "--set", f"data.input={data}",
                     "--set", f"run.checkpoint={ckpt}"]) == 0
        outs[value] = [(inf / name).read_bytes() for name in
                       ("influence_nodes.csv", "influence_summary.csv", "mrr_inter.csv")]
    assert outs[spelling] == outs["true"]


def test_malformed_checkpoint_encoder_setting_is_a_data_error(mols_csv, tmp_path):
    ckpt = tmp_path / "ckpt.moam"
    save_checkpoint(ckpt, init_params(EncoderConfig(layers=2, embed_dim=8), seed=0), {
        "encoder.layers": "two", "encoder.embed_dim": "8", "encoder.readout": "mean",
        "encoder.epsilon": "0.0", "encoder.learn_epsilon": "false",
        "encoder.decoder": "gnn"}, {"seed": 0}, 0)
    with pytest.raises(DataError, match="encoder.layers"):
        load_checkpoint(ckpt).encoder_config()
    assert main(["influence", "--out", str(tmp_path / "out"), "--set", f"data.input={mols_csv}",
                 "--set", f"run.checkpoint={ckpt}"]) == 2


@pytest.mark.parametrize("key,value", [("fp.width", "1000"), ("fp.width", "0"),
                                       ("fp.width", str(2 ** 17)), ("fp.width", str(2 ** 40)),
                                       ("fp.radius", "-1"), ("fp.radius", "17"),
                                       ("fp.radius", "1000000000")])
def test_fingerprint_rejects_bad_settings(mols_csv, tmp_path, capsys, key, value):
    out = tmp_path / "out"
    assert main(["fingerprint", "--out", str(out), "--set", f"data.input={mols_csv}",
                 "--set", f"{key}={value}"]) == 1
    err = capsys.readouterr().err
    assert key in err and err.count("\n") == 1
    assert not (out / "fingerprints.csv").exists()


def _no_init(*args, **kwargs):
    raise AssertionError("an out-of-range encoder reached init_params")


@pytest.mark.parametrize("key,value", [("encoder.layers", str(MAX_LAYERS + 1)),
                                       ("encoder.embed_dim", str(MAX_EMBED_DIM + 1))])
def test_oversized_encoder_is_a_config_error(mols_csv, tmp_path, capsys, monkeypatch,
                                             key, value):
    import moama.train

    monkeypatch.setattr(moama.train, "init_params", _no_init)
    out = tmp_path / "out"
    assert main(["pretrain", "--out", str(out), "--set", f"data.input={mols_csv}",
                 "--set", f"{key}={value}"]) == 1
    err = capsys.readouterr().err
    assert key in err and err.count("\n") == 1
    assert not (out / "loss.csv").exists()
    # the bounds themselves are allowed, and so is paper scale
    EncoderConfig(layers=MAX_LAYERS, embed_dim=MAX_EMBED_DIM)
    EncoderConfig(layers=5, embed_dim=300)


@pytest.mark.parametrize("key,value", [("encoder.layers", str(MAX_LAYERS + 1)),
                                       ("encoder.embed_dim", str(MAX_EMBED_DIM + 1))])
def test_oversized_encoder_in_a_checkpoint_is_a_data_error(mols_csv, tmp_path, capsys,
                                                           monkeypatch, key, value):
    import moama.train

    ckpt = tmp_path / "ckpt.moam"
    snapshot = {"encoder.layers": "2", "encoder.embed_dim": "8", "encoder.readout": "mean",
                "encoder.epsilon": "0.0", "encoder.learn_epsilon": "false",
                "encoder.decoder": "gnn", key: value}
    save_checkpoint(ckpt, init_params(EncoderConfig(layers=2, embed_dim=8), seed=0),
                    snapshot, {"seed": 0}, 0)
    with pytest.raises(DataError, match=key):
        load_checkpoint(ckpt).encoder_config()
    monkeypatch.setattr(moama.train, "init_params", _no_init)
    capsys.readouterr()
    assert main(["influence", "--out", str(tmp_path / "out"), "--set", f"data.input={mols_csv}",
                 "--set", f"run.checkpoint={ckpt}"]) == 2
    err = capsys.readouterr().err
    assert key in err and err.count("\n") == 1


def test_pretrain_uses_the_configured_rules_and_fingerprint(mols_csv, tmp_path, capsys,
                                                             monkeypatch):
    import moama.train

    rules = tmp_path / "comments.tsv"
    rules.write_text("# a table without rules\n")
    args = ["--set", f"data.input={mols_csv}", "--set", "run.epochs=1",
            "--set", "encoder.layers=2", "--set", "encoder.embed_dim=8"]
    for command in ("decompose", "pretrain"):
        assert main([command, "--out", str(tmp_path / command), *args,
                     "--set", f"motif.rules={rules}"]) == 2
        assert "no rules found" in capsys.readouterr().err

    seen = []
    real = moama.train.fingerprint_bits

    def spy(graphs, cfg):
        seen.append((len(graphs), cfg.radius, cfg.width))
        return real(graphs, cfg)

    monkeypatch.setattr(moama.train, "fingerprint_bits", spy)
    assert main(["pretrain", "--out", str(tmp_path / "fp"), *args,
                 "--set", "fp.radius=1", "--set", "fp.width=64"]) == 0
    assert seen == [(3, 1, 64)]


@pytest.mark.parametrize("bad", ["a_directory", "not_utf8"])
@pytest.mark.parametrize("setting,code,message", [
    ("--config", 1, "config error: cannot read config"),
    ("motif.rules", 2, "data error: cannot read rule file"),
])
def test_config_or_rule_file_that_cannot_be_read_is_one_line(mols_csv, tmp_path, capsys, bad,
                                                             setting, code, message):
    path = tmp_path / bad
    if bad == "a_directory":
        path.mkdir()
    else:
        path.write_bytes(b"mask.seed=1\n\xff\xfe\n")
    args = ["--config", str(path)] if setting == "--config" else ["--set", f"{setting}={path}"]
    assert main(["decompose", "--out", str(tmp_path / "out"), "--set", f"data.input={mols_csv}",
                 *args]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"{message} {path}:") and err.count("\n") == 1


def test_dataset_that_is_not_utf8_is_a_data_error(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_bytes(b"smiles\nCCO\n\xff\xfeCC\n")
    assert main(["decompose", "--out", str(tmp_path / "out"), "--set", f"data.input={data}"]) == 2
    err = capsys.readouterr().err
    assert str(data) in err and "Traceback" not in err


@pytest.mark.parametrize("which", ["dataset", "config", "rules"])
def test_a_text_input_with_a_leading_byte_order_mark_reads_as_its_twin(mols_csv, tmp_path,
                                                                       capsys, which):
    from importlib import resources

    path, out = tmp_path / f"input.{which}", tmp_path / "out"
    text, argv = {
        "dataset": (mols_csv.read_text(), ["--set", f"data.input={path}"]),
        "config": (f"data.input={mols_csv}\nmask.seed=1\n", ["--config", str(path)]),
        "rules": ((resources.files("moama") / "rules" / "brics.tsv").read_text("utf-8"),
                  ["--set", f"data.input={mols_csv}", "--set", f"motif.rules={path}"]),
    }[which]
    runs = []
    for mark in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(mark + text.encode("utf-8"))
        code = main(["decompose", "--out", str(out), *argv])
        runs.append((code, capsys.readouterr(), {f.name: f.read_bytes() for f in out.iterdir()}))
        for f in out.iterdir():
            f.unlink()
    assert runs[0][0] == 0 and runs[1] == runs[0]


@pytest.mark.parametrize("below", ["", "sub"])
def test_out_that_cannot_be_created_is_a_data_error(mols_csv, tmp_path, capsys, below):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    out = blocker / below if below else blocker
    assert main(["decompose", "--out", str(out), "--set", f"data.input={mols_csv}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_checkpoint_that_cannot_be_written_is_a_data_error(mols_csv, tmp_path, capsys):
    args = ["pretrain", "--set", f"data.input={mols_csv}", "--set", "run.epochs=1",
            "--set", "encoder.layers=2", "--set", "encoder.embed_dim=8"]
    missing = tmp_path / "no_such_dir" / "x.moam"
    assert main(args + ["--out", str(tmp_path / "a"), "--set", f"run.checkpoint={missing}"]) == 2
    captured = capsys.readouterr()
    assert "epoch 1" not in captured.out          # rejected before any training
    assert str(missing.parent) in captured.err and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err

    # a checkpoint path taken by a directory is a data error too
    a_dir = tmp_path / "a_dir"
    a_dir.mkdir()
    assert main(args + ["--out", str(tmp_path / "b"), "--set", f"run.checkpoint={a_dir}"]) == 2
    captured = capsys.readouterr()
    assert "cannot write checkpoint" in captured.err and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


_SMALL = ["--set", "encoder.layers=2", "--set", "encoder.embed_dim=8", "--set", "run.epochs=1",
          "--set", "run.finetune_epochs=1", "--set", "run.batch_pretrain=8"]


@pytest.fixture()
def small_inputs(tmp_path):
    """A corpus, a labelled corpus and a checkpoint, enough for every command."""
    corpus, labeled, ckpt = tmp_path / "corpus.csv", tmp_path / "labeled.csv", tmp_path / "c.moam"
    write_corpus_csv(corpus, 16, seed=5)
    write_corpus_csv(labeled, 60, seed=11, labeled=True)
    snapshot = {key: text for key, text in DEFAULTS.items() if key.startswith("encoder.")}
    snapshot.update({"encoder.layers": "2", "encoder.embed_dim": "8"})
    save_checkpoint(ckpt, init_params(EncoderConfig(layers=2, embed_dim=8), seed=0),
                    snapshot, {"seed": 0}, 0)
    return {"corpus": corpus, "labeled": labeled, "checkpoint": ckpt}


def _inputs_for(command, small_inputs):
    data = small_inputs["labeled" if command == "finetune" else "corpus"]
    args = ["--set", f"data.input={data}", *_SMALL]
    if command == "influence":
        args += ["--set", f"run.checkpoint={small_inputs['checkpoint']}"]
    return args


@pytest.mark.parametrize("command,name", [("influence", "influence_nodes.csv"),
                                          ("finetune", "auc_report.csv")])
def test_commands_that_read_the_small_checkpoint_succeed(small_inputs, tmp_path, command, name):
    args = _inputs_for(command, small_inputs)
    if command == "finetune":
        args += ["--set", f"run.checkpoint={small_inputs['checkpoint']}"]
    out = tmp_path / "out"
    assert main([command, "--out", str(out), *args]) == 0
    assert (out / name).is_file()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_influence_files_do_not_depend_on_the_cpu_count(small_inputs, tmp_path, monkeypatch):
    outputs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(moama.influence, "usable_cpus", lambda: cpus)
        out = tmp_path / f"out-{cpus}"
        assert main(["influence", "--out", str(out), *_inputs_for("influence", small_inputs)]) == 0
        _no_child_left()
        outputs[cpus] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert len(outputs[1]) == 4 and outputs[2] == outputs[1]


def test_influence_numerical_failure_in_a_child_is_one_line(small_inputs, tmp_path, monkeypatch,
                                                            capsys):
    parent = os.getpid()
    real = moama.influence.influence_matrix

    def influence_matrix(g, store, cfg):
        if os.getpid() != parent:
            raise NumericsError("non-finite tensor values")
        return real(g, store, cfg)
    monkeypatch.setattr(moama.influence, "influence_matrix", influence_matrix)
    monkeypatch.setattr(moama.influence, "usable_cpus", lambda: 2)
    out = tmp_path / "out"
    assert main(["influence", "--out", str(out), *_inputs_for("influence", small_inputs)]) == 3
    _no_child_left()
    assert capsys.readouterr().err == "numerical failure: non-finite tensor values\n"
    assert not (out / "influence_nodes.csv").exists()


def _child(script: str) -> subprocess.CompletedProcess:
    """``script`` run by a fresh interpreter with the package on its path; its
    warnings reach stderr as they do outside pytest."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)


def test_influence_leaves_numpy_random_unloaded(small_inputs, tmp_path):
    # importing numpy.random costs about 6 MB of resident memory, and nothing
    # the influence command runs draws a random number
    args = ["influence", "--out", str(tmp_path / "out"), *_inputs_for("influence", small_inputs)]
    child = _child("import sys\nfrom moama.cli import main\n"
                   f"code = main({args!r})\nprint(code, 'numpy.random' in sys.modules)\n")
    assert child.returncode == 0, child.stderr
    assert child.stdout.split()[-2:] == ["0", "False"]


@pytest.mark.parametrize("command,setting,code,message", [
    ("pretrain", "run.lr=1e300", 3, "numerical failure: non-finite tensor values"),
    ("pretrain", "loss.gamma=1e308", 3, "numerical failure: non-finite tensor values"),
    ("finetune", None, 2, "data error: valid split is empty"),
], ids=["overflow", "sce_power_overflow", "one_scaffold"])
def test_a_failure_that_warns_first_is_still_one_line_on_stderr(small_inputs, tmp_path,
                                                                 command, setting, code, message):
    # an overflow warns from numpy, and a split with one scaffold from scaffold_split
    args = [command, "--out", str(tmp_path / "out"), *_inputs_for(command, small_inputs)]
    if setting:
        args += ["--set", setting]
    else:
        one_scaffold = tmp_path / "one_scaffold.csv"
        one_scaffold.write_text("smiles,label\nCCc1ccccc1,0\nCCCc1ccccc1,1\nc1ccccc1,0\n")
        args += ["--set", f"data.input={one_scaffold}"]
    child = _child(f"import sys\nfrom moama.cli import main\nsys.exit(main({args!r}))\n")
    assert child.returncode == code
    assert child.stderr == message + "\n"


@pytest.mark.parametrize("command,name", [
    ("decompose", "motifs.csv"), ("decompose", "effective-config.decompose"),
    ("mask-preview", "mask_plans.csv"), ("fingerprint", "fingerprints.csv"),
    ("pretrain", "loss.csv"), ("pretrain", "checkpoint.moam"),
    ("finetune", "auc_report.csv"), ("influence", "influence_nodes.csv"),
    ("influence", "influence_summary.csv"), ("influence", "mrr_inter.csv"),
])
def test_output_name_taken_by_a_directory_is_a_data_error(small_inputs, tmp_path, capsys,
                                                           command, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert main([command, "--out", str(out), *_inputs_for(command, small_inputs)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("data error:") and captured.err.count("\n") == 1
    assert str(out / name) in captured.err and "Traceback" not in captured.err
    assert "epoch 1" not in captured.out          # rejected before any work


def test_checkpoint_path_holding_a_nul_is_a_data_error(small_inputs, tmp_path, capsys):
    for command, verb in (("pretrain", "write"), ("finetune", "read"), ("influence", "read")):
        args = [*_inputs_for(command, small_inputs),
                "--set", f"run.checkpoint={tmp_path / 'a'}\x00b"]
        assert main([command, "--out", str(tmp_path / "out"), *args]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"data error: cannot {verb} checkpoint"), command
        assert captured.err.count("\n") == 1 and "epoch 1" not in captured.out


@pytest.mark.parametrize("checkpoint,clash", [
    ("out/loss.csv", "the curve output"),
    ("out/effective-config.pretrain", "the config output"),
    ("mols.csv", "the data.input file"),
    ("out/../out/loss.csv", "the curve output"),
], ids=["curve", "effective_config", "dataset", "other_spelling"])
def test_an_output_that_is_another_file_of_the_run_is_a_data_error(mols_csv, tmp_path, capsys,
                                                                   checkpoint, clash):
    dataset = mols_csv.read_bytes()
    out = tmp_path / "out"
    code, err = _run_cli(["pretrain", "--out", str(out), "--set", f"data.input={mols_csv}",
                          "--set", f"run.checkpoint={tmp_path / checkpoint}"], capsys)
    assert code == 2
    assert err == (f"data error: cannot write checkpoint {tmp_path / checkpoint}: "
                   f"it is also {clash}\n")
    assert list(out.iterdir()) == []              # not even the effective config
    assert mols_csv.read_bytes() == dataset


@pytest.mark.parametrize("command,key,name,role", [
    ("influence", "run.checkpoint", "mrr_inter.csv", "mrr"),
    ("influence", "run.checkpoint", "effective-config.influence", "config"),
    ("finetune", "run.checkpoint", "auc_report.csv", "report"),
    ("decompose", "motif.rules", "motifs.csv", "motifs"),
    ("mask-preview", "motif.rules", "mask_plans.csv", "plans"),
    ("pretrain", "motif.rules", "loss.csv", "curve"),
    ("influence", "motif.rules", "effective-config.influence", "config"),
], ids=["influence_checkpoint_mrr", "influence_checkpoint_config", "finetune_checkpoint",
        "decompose_rules", "mask_preview_rules", "pretrain_rules", "influence_rules"])
def test_an_output_that_is_an_input_of_the_run_is_a_data_error(small_inputs, tmp_path, capsys,
                                                               command, key, name, role):
    from importlib import resources

    out = tmp_path / "out"
    out.mkdir()
    held = out / name   # the input, where the command would write an output
    held.write_bytes(small_inputs["checkpoint"].read_bytes() if key == "run.checkpoint" else
                     (resources.files("moama") / "rules" / "brics.tsv").read_bytes())
    before = held.read_bytes()
    code, err = _run_cli([command, "--out", str(out), *_inputs_for(command, small_inputs),
                          "--set", f"{key}={held}"], capsys)
    assert code == 2
    assert err == f"data error: cannot write {role} {held}: it is also the {key} file\n"
    assert held.read_bytes() == before
    assert [f.name for f in out.iterdir()] == [name]   # nothing else written


def test_a_run_may_rewrite_the_effective_config_it_reads(mols_csv, tmp_path):
    out = tmp_path / "out"
    assert main(["decompose", "--out", str(out), "--set", f"data.input={mols_csv}"]) == 0
    config = out / "effective-config.decompose"
    first = config.read_bytes()
    assert main(["decompose", "--out", str(out), "--config", str(config)]) == 0
    assert config.read_bytes() == first


@pytest.mark.parametrize("command", ["influence", "finetune"])
@pytest.mark.parametrize("key,value,tensor", [("encoder.layers", "3", "enc.2."),
                                              ("encoder.embed_dim", "16", "embed.atom")])
def test_checkpoint_tensors_that_disagree_with_its_encoder_settings_are_a_data_error(
        small_inputs, tmp_path, capsys, command, key, value, tensor):
    # 2 layers of width 8, saved under a snapshot that says otherwise
    ckpt = tmp_path / "mismatched.moam"
    save_checkpoint(ckpt, init_params(EncoderConfig(layers=2, embed_dim=8), seed=0), {
        "encoder.layers": "2", "encoder.embed_dim": "8", "encoder.readout": "mean",
        "encoder.epsilon": "0.0", "encoder.learn_epsilon": "false",
        "encoder.decoder": "gnn", key: value}, {"seed": 0}, 0)
    with pytest.raises(DataError, match=tensor):
        load_checkpoint(ckpt).encoder_config()
    data = small_inputs["labeled" if command == "finetune" else "corpus"]
    out = tmp_path / "out"
    assert main([command, "--out", str(out), "--set", f"data.input={data}", *_SMALL,
                 "--set", f"run.checkpoint={ckpt}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1
    assert tensor in err and "Traceback" not in err
    assert not any(out.glob("*.csv"))


@pytest.mark.parametrize("command", ["influence", "finetune"])
@pytest.mark.parametrize("snapshot,layers", [
    (5, 2), ([1], 2), ({"encoder.layers": None}, 2), ({"encoder.layers": 2.5}, 2),
    ({"encoder.layers": True}, 1),
], ids=["number", "list", "null", "float", "bool"])
def test_config_snapshot_that_is_not_an_object_of_strings_is_a_data_error(
        small_inputs, tmp_path, capsys, command, snapshot, layers):
    if isinstance(snapshot, dict):
        snapshot = {**{key: text for key, text in DEFAULTS.items() if key.startswith("encoder.")},
                    "encoder.embed_dim": "8", **snapshot}
    ckpt = tmp_path / "typed.moam"
    save_checkpoint(ckpt, init_params(EncoderConfig(layers=layers, embed_dim=8), seed=0),
                    snapshot, {"seed": 0}, 0)
    with pytest.raises(DataError, match="config snapshot"):
        load_checkpoint(ckpt)
    out = tmp_path / "out"
    assert main([command, "--out", str(out), *_inputs_for(command, small_inputs),
                 "--set", f"run.checkpoint={ckpt}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1
    assert str(ckpt) in err and "Traceback" not in err
    assert not any(out.glob("*.csv"))


@pytest.mark.parametrize("command", ["influence", "finetune"])
def test_a_config_snapshot_without_a_key_is_a_data_error_naming_it(small_inputs, tmp_path,
                                                                    capsys, command):
    ck = load_checkpoint(small_inputs["checkpoint"])
    snapshot = {key: text for key, text in ck.config.items() if key != "encoder.layers"}
    bad = tmp_path / "no_layers.moam"
    save_checkpoint(bad, ck.store, snapshot, ck.rng, ck.epoch)
    argv = [command, "--out", str(tmp_path / "out"), *_inputs_for(command, small_inputs),
            "--set", f"run.checkpoint={bad}"]
    assert _run_cli(argv, capsys) == (
        2, "data error: checkpoint config snapshot: encoder.layers is missing\n")


@pytest.mark.parametrize("command", ["influence", "finetune"])
@pytest.mark.parametrize("fault", ["bytes_after", "tensor_twice"])
def test_a_checkpoint_with_bytes_after_it_or_a_tensor_twice_is_one_data_error_line(
        small_inputs, tmp_path, capsys, command, fault):
    bad = tmp_path / "bad.moam"
    if fault == "bytes_after":
        bad.write_bytes(small_inputs["checkpoint"].read_bytes() + b"\x00" * 8)
        err = f"{bad} is truncated or corrupt: 8 bytes after its last tensor"
    else:
        write_checkpoint_naming_twice(bad, load_checkpoint(small_inputs["checkpoint"]), "enc.0.w1")
        err = f"{bad}: tensor enc.0.w1 is stored twice"
    argv = [command, "--out", str(tmp_path / "out"), *_inputs_for(command, small_inputs),
            "--set", f"run.checkpoint={bad}"]
    assert _run_cli(argv, capsys) == (2, f"data error: {err}\n")


@pytest.mark.parametrize("line", [1, 3], ids=["header", "row"])
def test_dataset_cell_over_the_csv_field_limit_is_a_data_error(tmp_path, capsys, line):
    huge = "C" * 200_000
    data = tmp_path / "huge.csv"
    data.write_text(f"{huge}\nCCO\n" if line == 1 else f"smiles\nCCO\n{huge}\nCCN\n")
    assert main(["decompose", "--out", str(tmp_path / "out"), "--set", f"data.input={data}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot read dataset {data} at line {line}:")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_non_numeric_label_names_the_file_and_its_line(tmp_path, capsys):
    # a label is ASCII with no digit separator: float() reads "0_1" as 0.1 and
    # U+0661 (ARABIC-INDIC DIGIT ONE) as 1.0
    for cell in ("x", "0_1", "\u0661"):
        data = tmp_path / "labels.csv"
        data.write_text(f"smiles,label\nCCO,1\nCCN,{cell}\nCCC,0\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["finetune", "--out", str(out), "--set", f"data.input={data}", *_SMALL]) == 2
        err = capsys.readouterr().err
        assert err == (f"data error: dataset {data} at line 3: "
                       f"label label={cell!r} is not numeric\n")
        assert not (out / "auc_report.csv").exists()


def test_pretrain_on_only_unparseable_smiles_is_a_data_error(tmp_path, capsys):
    data = tmp_path / "unparseable.csv"
    data.write_text("smiles\nC1CC\nnot-a-smiles\n(((\n")
    out = tmp_path / "out"
    assert main(["pretrain", "--out", str(out), "--set", f"data.input={data}", *_SMALL]) == 2
    err = capsys.readouterr().err
    assert err == "data error: no parseable molecules in the dataset\n"
    assert not (out / "checkpoint.moam").exists()


# influence once wrote an all-nan summary "over 0 molecules" and exited 0
@pytest.mark.parametrize("text", ["smiles\n", "smiles\nC1CC\nnot-a-smiles\n(((\n"],
                         ids=["header_only", "only_unparseable"])
def test_influence_on_no_parseable_smiles_is_a_data_error(small_inputs, tmp_path, capsys, text):
    small_inputs["corpus"].write_text(text)
    out = tmp_path / "out"
    assert main(["influence", "--out", str(out), *_inputs_for("influence", small_inputs)]) == 2
    assert capsys.readouterr().err == "data error: no parseable molecules in the dataset\n"
    for name in COMMANDS["influence"][1].values():
        assert not (out / name).exists()


# each setting once ended in "backward() on a graph with no differentiable inputs"
# in the first epoch: a batch where nothing is masked and no pair is aligned
@pytest.mark.parametrize("n,settings", [
    (129, []),                                      # a lone last batch
    (40, ["run.batch_pretrain=1"]),
], ids=["lone_last_batch", "batches_of_one"])
def test_pretrain_on_a_batch_with_nothing_to_learn_succeeds(tmp_path, capsys, n, settings):
    data = tmp_path / "mols.csv"
    write_corpus_csv(data, n, seed=1)
    out = tmp_path / "out"
    args = ["pretrain", "--out", str(out), "--set", f"data.input={data}", "--set", "run.epochs=2"]
    assert main(args + [a for kv in settings for a in ("--set", kv)]) == 0
    assert capsys.readouterr().err == ""
    assert len(_read_rows(out / "loss.csv")) == 2


# each setting once trained every epoch without an Adam step and exited 0
@pytest.mark.parametrize("settings,code,err", [
    (["loss.beta=0", "run.batch_pretrain=1"], 1,  # no pair in a batch of one
     "config error: loss.beta=0 needs batches of two molecules or more; "
     "run.batch_pretrain=1 over 40 molecules gives none\n"),
    (["mask.hop_k=0", "loss.beta=1"], 2,          # no motif can be masked
     "data error: no molecule has a motif eligible at mask.hop_k=0; nothing can be masked\n"),
], ids=["aux_only_batches_of_one", "nothing_maskable"])
def test_pretrain_with_nothing_to_learn_fails_before_training(tmp_path, capsys, settings,
                                                              code, err):
    data = tmp_path / "mols.csv"
    write_corpus_csv(data, 40, seed=1)
    out = tmp_path / "out"
    args = ["pretrain", "--out", str(out), "--set", f"data.input={data}", "--set", "run.epochs=3"]
    assert main(args + [a for kv in settings for a in ("--set", kv)]) == code
    assert capsys.readouterr().err == err
    assert not (out / "checkpoint.moam").exists() and not (out / "loss.csv").exists()


def _run_cli(argv, capsys):
    """(exit code, stderr) of one command-line run."""
    code = main(argv)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("line,err", [
    ("1\tC\tC", "expected 4 tab-separated fields"),
    ("17\tC\tC\tsingle", "rule id 17 outside 1..16"),
    ("1\tC\tC\tquadruple", "unknown bond order 'quadruple'"),
    ("1\t;\tC\tsingle", "empty rule environment expression"),
    ("x\tC\tC\tsingle", "bad rule id 'x'"),
    # int() reads U+0661 (ARABIC-INDIC DIGIT ONE) as 1 and "1_6" as 16
    ("\u0661\tC\tC\tsingle", "bad rule id '\u0661'"),
    ("1_6\tC\tC\tsingle", "bad rule id '1_6'"),
    # a count is ASCII digits; U+0662 is ARABIC-INDIC DIGIT TWO
    ("1\tdeg>=\u0662\tC\tsingle", "cannot parse rule predicate 'deg>=\u0662'"),
    ("1\tnbr(C)=\u0662\tC\tsingle", "cannot parse rule predicate 'nbr(C)=\u0662'"),
], ids=["two_fields", "rule_id_17", "quadruple", "empty_environment", "non_integer_id",
        "non_ascii_id", "id_with_separator", "non_ascii_degree", "non_ascii_neighbour_count"])
def test_a_bad_rule_file_line_is_a_data_error(mols_csv, tmp_path, capsys, line, err):
    rules = tmp_path / "rules.tsv"
    rules.write_text(f"# one rule\n{line}\n", encoding="utf-8")
    argv = ["decompose", "--out", str(tmp_path / "out"), "--set", f"data.input={mols_csv}",
            "--set", f"motif.rules={rules}"]
    assert _run_cli(argv, capsys) == (2, f"data error: {rules}:2: {err}\n")


def test_a_config_file_line_without_equals_is_a_config_error(mols_csv, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("# a comment line is skipped\nrun.epochs=1\n")
    argv = ["decompose", "--config", str(config), "--set", f"data.input={mols_csv}"]
    assert _run_cli(argv + ["--out", str(tmp_path / "ok")], capsys) == (0, "")
    config.write_text("# a comment line is skipped\nrun.epochs\n")
    assert _run_cli(argv + ["--out", str(tmp_path / "bad")], capsys) == (
        1, f"config error: {config}:2: expected key=value\n")


@pytest.mark.parametrize("settings,err", [
    (["foo"], "--set expects KEY=VALUE, got 'foo'"),
    (["mask.hop_k=-1"], "mask.hop_k must be >= 0"),
    (["run.seed=-1", "mask.seed=0"], "run.seed must be >= 0"),
    ([f"mask.seed={2 ** 128}"], "mask.seed must be >= 0 and below 2**128"),
    (["run.lr=0"], "run.lr must be positive"),
    (["run.lr=-1"], "run.lr must be positive"),
    (["run.lr=inf"], "run.lr: not a finite number: 'inf'"),
    (["mask.coverage=nan"], "mask.coverage: not a finite number: 'nan'"),
    # int() and float() read other scripts' digits and "_" separators
    (["run.epochs=\u0661"], "run.epochs: not an ASCII int: '\u0661'"),
    (["run.epochs=1_0"], "run.epochs: not an ASCII int: '1_0'"),
    (["run.lr=\u0661e-3"], "run.lr: not an ASCII float: '\u0661e-3'"),
    (["mask.coverage=0_5"], "mask.coverage: not an ASCII float: '0_5'"),
], ids=["set_without_equals", "negative_hop_k", "negative_run_seed", "mask_seed_past_the_key",
        "zero_lr", "negative_lr", "infinite_lr", "nan_coverage", "non_ascii_int",
        "int_with_separator", "non_ascii_float", "float_with_separator"])
def test_bad_settings_are_config_errors(mols_csv, tmp_path, capsys, settings, err):
    argv = ["decompose", "--out", str(tmp_path / "out"), "--set", f"data.input={mols_csv}"]
    argv += [a for kv in settings for a in ("--set", kv)]
    assert _run_cli(argv, capsys) == (1, f"config error: {err}\n")


@pytest.mark.parametrize("argv,err", [
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    (["decompose", "--bogus"], "unrecognized arguments: --bogus"),
    ([], "the following arguments are required: command"),
    (["decompose", "--seed", "x"], "run.seed: invalid literal for int() with base 10: 'x'"),
], ids=["unknown_command", "unknown_option", "no_command", "seed_not_a_number"])
def test_a_command_line_that_does_not_parse_is_one_config_error_line(tmp_path, capsys, argv,
                                                                    err):
    code, stderr = _run_cli(argv + ["--out", str(tmp_path / "out")], capsys)
    assert code == 1 and stderr.startswith(f"config error: {err}") and stderr.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: moama ")


def test_seed_text_is_read_as_set_run_seed_reads_it(mols_csv, tmp_path):
    echoes = []
    for i, flag in enumerate([["--seed", "007"], ["--set", "run.seed=007"]]):
        out = tmp_path / str(i)
        argv = ["decompose", "--out", str(out), "--set", f"data.input={mols_csv}", *flag]
        assert main(argv) == 0
        echoes.append((out / "effective-config.decompose").read_bytes())
    assert echoes[0] == echoes[1]
    assert b"\nrun.seed=007\n" in echoes[0] and b"\nmask.seed=007\n" in echoes[0]


def test_a_checkpoint_of_another_version_is_a_data_error(small_inputs, tmp_path, capsys):
    ckpt = tmp_path / "v2.moam"
    data = bytearray(small_inputs["checkpoint"].read_bytes())
    data[4:8] = struct.pack("<I", 2)
    ckpt.write_bytes(bytes(data))
    argv = ["influence", "--out", str(tmp_path / "out"), *_inputs_for("influence", small_inputs),
            "--set", f"run.checkpoint={ckpt}"]
    assert _run_cli(argv, capsys) == (2, "data error: unsupported checkpoint version 2\n")


def test_finetune_label_errors_are_data_errors(small_inputs, tmp_path, capsys):
    labeled = small_inputs["labeled"]
    argv = ["finetune", "--out", str(tmp_path / "out"), *_inputs_for("finetune", small_inputs)]
    assert _run_cli(argv + ["--set", "data.label=nope"], capsys) == (
        2, f"data error: dataset {labeled} is missing label column 'nope'\n")
    lines = labeled.read_text().splitlines()
    lines[2] = lines[2].split(",")[0] + ","
    blank = tmp_path / "blank.csv"
    blank.write_text("\n".join(lines) + "\n")
    assert _run_cli(argv + ["--set", f"data.input={blank}"], capsys) == (
        2, "data error: missing labels in fine-tuning dataset\n")


def test_write_output_under_a_regular_file_is_a_data_error(tmp_path):
    (tmp_path / "file").write_text("")
    with pytest.raises(DataError, match=r"^cannot write report .*file/out\.csv: "):
        write_output(tmp_path / "file" / "out.csv", "x", "report")


def test_csv_text_writes_each_cell_by_one_rule():
    # a numpy float is written as its float's repr, which repr() of it is not under numpy 2
    cells = [0.1, np.float64(0.1), 1e-20, np.float64(-2.5e300), None, 3, np.int64(4), "a|b", ""]
    assert csv_text(["h"] * len(cells), [cells]) == (
        "h,h,h,h,h,h,h,h,h\r\n0.1,0.1,1e-20,-2.5e+300,,3,4,a|b,\r\n")
    assert csv_text(["x"], [[float("nan")], [np.float64("-inf")], [-0.0]]) == (
        "x\r\nnan\r\n-inf\r\n-0.0\r\n")


@pytest.mark.parametrize("bad,every,labels", [("0.5", 3, {"0", "0.5", "1"}),
                                              ("-3", 1, {"-3", "1"})])
def test_finetune_rejects_labels_other_than_0_and_1(small_inputs, tmp_path, capsys,
                                                    bad, every, labels):
    rows = _read_rows(small_inputs["labeled"])
    for i, r in enumerate(rows):
        if r["label"] == "0" and i % every == 0:
            r["label"] = bad
    assert {r["label"] for r in rows} == labels
    data = tmp_path / "relabeled.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.DictWriter(fh, ["smiles", "label"])
        writer.writeheader()
        writer.writerows(rows)
    out = tmp_path / "out"
    assert main(["finetune", "--out", str(out), "--set", f"data.input={data}", *_SMALL]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1 and "Traceback" not in err
    assert not (out / "auc_report.csv").exists()


def test_outputs_keep_their_line_endings_and_encoding(small_inputs, tmp_path):
    out = tmp_path / "out"
    for command in ("decompose", "pretrain", "finetune"):
        assert main([command, "--out", str(out), *_inputs_for(command, small_inputs)]) == 0
    assert main(["decompose", "--out", str(tmp_path / "u"), "--set", "data.label=\u00e9t\u00e9",
                 "--set", f"data.input={small_inputs['corpus']}"]) == 0
    written = {name: (out / name).read_bytes() for name in (
        "motifs.csv", "auc_report.csv", "loss.csv", "effective-config.decompose",
        "effective-config.pretrain", "effective-config.finetune")}
    written["accented config"] = (tmp_path / "u" / "effective-config.decompose").read_bytes()
    assert "data.label=\u00e9t\u00e9\n".encode("utf-8") in written["accented config"]
    for name, raw in written.items():
        raw.decode("utf-8")
        if name in ("motifs.csv", "auc_report.csv"):   # csv.writer's line ends
            assert raw.endswith(b"\r\n") and raw.count(b"\n") == raw.count(b"\r\n"), name
        else:
            assert raw.endswith(b"\n") and b"\r" not in raw, name


def test_readme_command_table_matches_the_outputs_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    table = readme.split("| command", 1)[1].split("\n\n", 1)[0].splitlines()[2:]
    listed = {}
    for line in table:
        command, files = (cell.strip() for cell in line.split("|")[1:3])
        names = set(re.findall(r"`([^`]+)`", files)) - set(DEFAULTS)   # config keys named in passing
        listed[command.strip("`")] = names
    assert listed == {command: set(names.values()) for command, (_, names, _) in COMMANDS.items()}


def test_default_effective_config_is_unchanged(tmp_path):
    out = tmp_path / "out"
    assert main(["decompose", "--out", str(out)]) == 1   # data.input is required
    assert (out / "effective-config.decompose").read_text() == """\
data.input=
data.label=
encoder.decoder=gnn
encoder.embed_dim=32
encoder.epsilon=0.0
encoder.layers=5
encoder.learn_epsilon=false
encoder.readout=mean
fp.radius=2
fp.width=2048
influence.inter_mode=top_k
influence.max_graphs=0
influence.top_k=3
loss.aux_form=squared
loss.beta=0.5
loss.gamma=1.0
loss.rec_kind=sce
loss.targets=atom_type
mask.alpha_max=0.25
mask.alpha_min=0.15
mask.coverage=1.0
mask.hop_k=5
mask.mode=node_wise
mask.resample_per_epoch=true
mask.seed=0
motif.rules=
run.batch_finetune=32
run.batch_pretrain=32
run.checkpoint=
run.epochs=30
run.finetune_epochs=20
run.finetune_mode=probe
run.lr=0.001
run.seed=0
"""


def test_the_default_settings_build_the_default_config():
    # an empty setting is the empty string: run.checkpoint is no exception
    assert build_section(RunConfig, "run", effective_config(None)) == RunConfig()
    assert RunConfig().checkpoint == ""


def test_readme_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    block = readme.split("Configuration is flat", 1)[1].split("```")[1]
    listed = {line.split("=", 1)[0] for line in block.splitlines() if "=" in line}
    assert listed >= set(DEFAULTS)


_VALUES = st.one_of(st.just(""), st.text(max_size=12), st.integers(),
                    st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(sorted(DEFAULTS)), value=_VALUES)
@example(key="run.lr", value="abc")
@example(key="data.label", value="a\nb")
@example(key="mask.mode", value="a\u2028b")
@example(key="data.input", value="\x00")
@example(key="motif.rules", value="\x00")
@example(key="data.label", value="\udcff")
@example(key="run.checkpoint", value="\x00")
def test_any_single_setting_ends_in_an_exit_code(mols_csv, small_inputs, tmp_path, key, value):
    text = str(value)
    # influence reads every input kind: config, dataset, rule table and checkpoint
    for command, ckpt in (("decompose", ""), ("influence", small_inputs["checkpoint"])):
        code = main([command, "--out", str(tmp_path / "out"), "--set", f"data.input={mols_csv}",
                     "--set", f"run.checkpoint={ckpt}", "--set", f"{key}={text}"])
        assert code in (0, 1, 2), command
        if len(text.strip().splitlines()) > 1:   # the echo could not round-trip it
            assert code == 1
        if key == "run.lr" and text == "abc":
            assert code == 1
        if key == "run.checkpoint" and text == "\x00" and command == "influence":
            assert code == 2


# rows every command must skip: a grammar error and a multi-fragment record
_BAD_ROWS = ["C(", "C.C"]
_SUMMARY = {
    "decompose": r"decomposed 16 molecules \(2 rows skipped\)",
    "mask-preview": r"planned masks for 16 molecules \(2 rows skipped\)",
    "pretrain": r"pretrained on 16 molecules \(2 rows skipped\)",
    "finetune": r"test AUC \S+ \(valid \S+, epoch \d+, probe\) \(2 rows skipped\)",
    "influence": r"influence report over 16 molecules \(2 rows skipped\) -> \S+",
    "fingerprint": r"fingerprinted 16 molecules \(2 rows skipped\)",
}


def _with_bad_rows(small_inputs, command) -> int:
    """Append ``_BAD_ROWS`` to the command's small corpus; the number of
    parseable rows before them."""
    data = small_inputs["labeled" if command == "finetune" else "corpus"]
    lines = data.read_text().splitlines()
    label = ",1" if "," in lines[0] else ""
    data.write_text("\n".join(lines + [smi + label for smi in _BAD_ROWS]) + "\n")
    return len(lines) - 1


def test_every_command_has_a_summary_pattern():
    assert set(_SUMMARY) == set(COMMANDS)


@pytest.mark.parametrize("command", list(_SUMMARY))
def test_every_dataset_command_reports_its_skipped_rows(small_inputs, tmp_path, capsys, command):
    assert _with_bad_rows(small_inputs, command) == (60 if command == "finetune" else 16)
    assert main([command, "--out", str(tmp_path / "out"), *_inputs_for(command, small_inputs)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    skipped = [line for line in captured.out.splitlines() if "skipped" in line]
    assert len(skipped) == 1 and re.fullmatch(_SUMMARY[command], skipped[0])


def test_fingerprint_names_the_rows_it_skipped(tmp_path, capsys):
    data = tmp_path / "mols.csv"
    data.write_text("smiles\nC.C\nCCO\nC(\n")
    assert main(["fingerprint", "--out", str(tmp_path / "out"), "--set", f"data.input={data}"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "fingerprinted 1 molecules (2 rows skipped)"


@pytest.mark.parametrize("command,matched", [
    ("decompose", [16]), ("mask-preview", [16]), ("pretrain", [16]), ("influence", [16]),
    ("finetune", []), ("fingerprint", []),
])
def test_each_command_parses_each_row_once_and_matches_the_rules_once(
        small_inputs, tmp_path, monkeypatch, command, matched):
    import moama.motif
    import moama.smiles

    rows = _with_bad_rows(small_inputs, command)
    parsed, seen = [], []
    parse, cleavable_bonds = moama.smiles.parse, moama.motif.cleavable_bonds

    def parse_spy(smiles):
        parsed.append(smiles)
        return parse(smiles)

    def match_spy(graphs, rules=None):
        graphs = list(graphs)
        seen.append(len(graphs))
        return cleavable_bonds(graphs, rules)

    monkeypatch.setattr(moama.smiles, "parse", parse_spy)
    monkeypatch.setattr(moama.motif, "cleavable_bonds", match_spy)
    assert main([command, "--out", str(tmp_path / "out"), *_inputs_for(command, small_inputs)]) == 0
    assert len(parsed) == rows + len(_BAD_ROWS) and parsed[-2:] == _BAD_ROWS
    assert seen == matched


@pytest.mark.parametrize("command", ["mask-preview", "pretrain"])
def test_the_random_baseline_decomposes_nothing_and_plans_as_the_oracle(
        small_inputs, tmp_path, monkeypatch, command):
    import moama.cli
    import moama.motif
    import moama.train

    matched, planned = [], []
    cleavable_bonds = moama.motif.cleavable_bonds

    def match_spy(graphs, rules=None):
        matched.append(graphs)
        return cleavable_bonds(graphs, rules)

    def plan_spy(table, cfg, rng):
        # the stream's counter names the plan's molecule and epoch (masking.PlanStreams)
        epoch, i = rng.bit_generator.state["state"]["counter"][2:].tolist()
        plan = build_plan(table, cfg, rng)
        planned.append((i, epoch, plan))
        return plan

    monkeypatch.setattr(moama.motif, "cleavable_bonds", match_spy)
    monkeypatch.setattr(moama.cli, "build_plan", plan_spy)
    monkeypatch.setattr(moama.train, "build_plan", plan_spy)
    argv = [command, "--out", str(tmp_path / "out"), *_inputs_for(command, small_inputs),
            "--seed", "4", "--set", "mask.mode=random_baseline", "--set", "run.epochs=2"]
    assert main(argv) == 0
    assert matched == []
    graphs = [parse(r["smiles"]) for r in _read_rows(small_inputs["corpus"])]
    cfg = MaskConfig(mode="random_baseline", seed=4)
    epochs = 2 if command == "pretrain" else 1
    assert sorted((i, epoch) for i, epoch, _ in planned) == [
        (i, epoch) for i in range(len(graphs)) for epoch in range(epochs)]
    for i, epoch, plan in planned:
        assert plan == build_plan_oracle(graphs[i], None, cfg, plan_rng(4, i, epoch))


def test_the_process_entry_freezes_the_collector_and_main_does_not(mols_csv, tmp_path, monkeypatch):
    import gc

    import moama.cli

    calls = []
    real_main = moama.cli.main
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    argv = ["decompose", "--out", str(tmp_path / "out"), "--set", f"data.input={mols_csv}"]
    assert real_main(argv) == 0 and calls == []     # in-process callers keep their collector
    monkeypatch.setattr(moama.cli, "main", lambda: calls.append("main") or real_main(argv))
    assert moama.cli.entry() == 0 and calls == ["freeze", "main"]


def test_the_console_script_and_the_module_run_the_entry(mols_csv, tmp_path):
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text("utf-8")
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n\n", 1)[0]
    assert scripts == 'moama = "moama.cli:entry"'
    argv = ["moama", "decompose", "--out", str(tmp_path / "out"), "--set", f"data.input={mols_csv}"]
    child = _child("import gc, runpy, sys\n"
                   "gc.freeze = lambda: print('frozen', flush=True)\n"
                   f"sys.argv = {argv!r}\n"
                   "runpy.run_module('moama.cli', run_name='__main__')\n")
    assert child.returncode == 0, child.stderr
    assert child.stdout.startswith("frozen\n")
    assert child.stdout.splitlines()[-1] == "decomposed 3 molecules (0 rows skipped)"


@pytest.mark.parametrize("command", ["influence", "finetune"])
@pytest.mark.parametrize("part,value", [("values", np.nan), ("Adam m", np.inf),
                                        ("Adam v", -np.inf)])
def test_a_non_finite_checkpoint_tensor_is_a_data_error_naming_file_and_tensor(
        small_inputs, tmp_path, capsys, command, part, value):
    ck = load_checkpoint(small_inputs["checkpoint"])
    name = "enc.0.w1"
    arrays = {"values": ck.store[name].values, "Adam m": ck.store.m[name],
              "Adam v": ck.store.v[name]}
    arrays[part][1, 2] = value
    bad = tmp_path / "bad.moam"
    save_checkpoint(bad, ck.store, ck.config, ck.rng, ck.epoch)
    argv = [command, "--out", str(tmp_path / "out"), *_inputs_for(command, small_inputs),
            "--set", f"run.checkpoint={bad}"]
    assert _run_cli(argv, capsys) == (
        2, f"data error: {bad}: tensor {name} holds non-finite {part}\n")


@pytest.mark.parametrize("command,name", [("influence", "influence_nodes.csv"),
                                          ("finetune", "auc_report.csv")])
def test_checkpoint_encoder_settings_replace_the_run_s_with_a_notice(
        small_inputs, tmp_path, capsys, command, name):
    args = [*_inputs_for(command, small_inputs),
            "--set", f"run.checkpoint={small_inputs['checkpoint']}"]
    assert main([command, "--out", str(tmp_path / "same"), *args]) == 0
    assert "using encoder settings" not in capsys.readouterr().out
    assert main([command, "--out", str(tmp_path / "other"), *args,
                 "--set", "encoder.layers=3"]) == 0
    assert ("using encoder settings from checkpoint: EncoderConfig(layers=2, embed_dim=8,"
            in capsys.readouterr().out)
    assert (tmp_path / "same" / name).read_bytes() == (tmp_path / "other" / name).read_bytes()


@pytest.mark.parametrize("name", ["enc.0\nw1", "enc.0\rw1", "enc.0\u2028w1"])
def test_a_checkpoint_tensor_name_with_a_line_break_is_one_line(small_inputs, tmp_path, capsys,
                                                                name):
    data = small_inputs["checkpoint"].read_bytes()
    bad = tmp_path / "renamed.moam"
    raw = name.encode()
    bad.write_bytes(data.replace(struct.pack("<H", 8) + b"enc.0.w1",
                                 struct.pack("<H", len(raw)) + raw))
    argv = ["influence", "--out", str(tmp_path / "out"), *_inputs_for("influence", small_inputs),
            "--set", f"run.checkpoint={bad}"]
    assert _run_cli(argv, capsys) == (
        2, f"data error: {bad} is truncated or corrupt: tensor name {name!r} is not printable\n")
