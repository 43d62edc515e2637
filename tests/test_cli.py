import csv
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from moama.cli import COMMANDS, main
from moama.config import DEFAULTS, RunConfig, build_section, effective_config
from moama.datagen import write_corpus_csv
from moama.gin import MAX_EMBED_DIM, MAX_LAYERS, EncoderConfig, ParamStore, init_params
from moama import autodiff as ad
from moama.errors import DataError, write_output
from moama.train import load_checkpoint, save_checkpoint


@pytest.fixture()
def mols_csv(tmp_path):
    p = tmp_path / "mols.csv"
    p.write_text("smiles\nCCOC(=O)c1ccccc1\nCCNc1ccccc1\nCCOc1ccncc1\n")
    return p


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
                                       ("fp.radius", "-1")])
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
    real = moama.train.morgan_fingerprints

    def spy(graphs, cfg):
        seen.append((len(graphs), cfg.radius, cfg.width))
        return real(graphs, cfg)

    monkeypatch.setattr(moama.train, "morgan_fingerprints", spy)
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


@pytest.mark.parametrize("command,code,message", [
    ("pretrain", 3, "numerical failure: non-finite tensor values"),
    ("finetune", 2, "data error: valid split is empty"),
], ids=["overflow", "one_scaffold"])
def test_a_failure_that_warns_first_is_still_one_line_on_stderr(small_inputs, tmp_path,
                                                                 command, code, message):
    # an overflow warns from numpy, and a split with one scaffold from scaffold_split
    args = [command, "--out", str(tmp_path / "out"), *_inputs_for(command, small_inputs)]
    if command == "pretrain":
        args += ["--set", "run.lr=1e300"]
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
    data = tmp_path / "labels.csv"
    data.write_text("smiles,label\nCCO,1\nCCN,x\nCCC,0\n")
    out = tmp_path / "out"
    assert main(["finetune", "--out", str(out), "--set", f"data.input={data}", *_SMALL]) == 2
    err = capsys.readouterr().err
    assert err == f"data error: dataset {data} at line 3: label label='x' is not numeric\n"
    assert not (out / "auc_report.csv").exists()


def test_pretrain_on_only_unparseable_smiles_is_a_data_error(tmp_path, capsys):
    data = tmp_path / "unparseable.csv"
    data.write_text("smiles\nC1CC\nnot-a-smiles\n(((\n")
    out = tmp_path / "out"
    assert main(["pretrain", "--out", str(out), "--set", f"data.input={data}", *_SMALL]) == 2
    err = capsys.readouterr().err
    assert err == "data error: no parseable molecules in the dataset\n"
    assert not (out / "checkpoint.moam").exists()


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
], ids=["two_fields", "rule_id_17", "quadruple", "empty_environment"])
def test_a_bad_rule_file_line_is_a_data_error(mols_csv, tmp_path, capsys, line, err):
    rules = tmp_path / "rules.tsv"
    rules.write_text(f"# one rule\n{line}\n")
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
], ids=["set_without_equals", "negative_hop_k", "negative_run_seed"])
def test_bad_settings_are_config_errors(mols_csv, tmp_path, capsys, settings, err):
    argv = ["decompose", "--out", str(tmp_path / "out"), "--set", f"data.input={mols_csv}"]
    argv += [a for kv in settings for a in ("--set", kv)]
    assert _run_cli(argv, capsys) == (1, f"config error: {err}\n")


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
    assert listed == {command: set(names.values()) for command, (_, names) in COMMANDS.items()}


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
