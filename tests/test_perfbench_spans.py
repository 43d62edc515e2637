"""The benchmark's traced spans still see work. A span whose name resolves
(test_perfbench_names.py) can still read 0 calls, when the work moved to
another function, and a tracer counter can read an attribute the program no
longer has. Both would only show at benchmark time. This test runs each
command under the unchanged ``perfbench/traced_cli.py`` on small datagen
corpora and reads the spans back with ``tracer.summarize``."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from moama.datagen import write_corpus_csv
from moama.gin import EncoderConfig, param_shapes

ROOT = Path(__file__).resolve().parents[1]
TRACED_CLI = ROOT / "perfbench" / "traced_cli.py"

COMMON = ("cli.main", "smiles.read_dataset", "smiles.parse")

# The spans each command exercises: each must read calls > 0.
EXERCISED = {
    "pretrain": COMMON + (
        "molgraph.k_hop_neighborhood", "masking.build_plan", "masking.apply_mask",
        "gin.TensorGraph.from_graphs", "gin.encode", "gin.decode_attrs", "gin.readout",
        "loss.rec_loss", "loss.aux_loss", "autodiff.Tensor.backward",
        "gin.ParamStore.adam_step", "train.pretrain", "train.save_checkpoint",
        "autodiff.take_rows", "autodiff.matmul", "autodiff.segment_sum"),
    "mask-preview": COMMON + ("molgraph.k_hop_neighborhood", "masking.build_plan"),
    "decompose": COMMON,
    "fingerprint": COMMON,
    "influence": COMMON + (
        "train.load_checkpoint", "influence.analyze_dataset", "influence.influence_matrix",
        "gin.TensorGraph.from_graphs", "gin.encode"),
    "finetune": COMMON + (
        "train.load_checkpoint", "train.scaffold_split", "train.finetune_probe",
        "train.auc_score", "gin.TensorGraph.from_graphs", "gin.encode", "gin.readout",
        "gin.predict_label", "gin.ParamStore.adam_step", "autodiff.Tensor.backward"),
}

# The counters each command's run must hold. Each is taken at a span's exit
# from what the span returned or was given: Dataset.skipped, MaskPlan.feasible,
# Tensor.values, ParamStore.params and each parameter's grad.
COUNTERS = {
    "pretrain": ("smiles.read_dataset.skipped", "autodiff.tensors", "masking.plans",
                 "masking.feasible", "gin.encode.nodes", "autodiff.grad_elems",
                 "autodiff.grad_applied"),
    "mask-preview": ("smiles.read_dataset.skipped", "masking.plans", "masking.feasible"),
    "decompose": ("smiles.read_dataset.skipped",),
    "fingerprint": ("smiles.read_dataset.skipped",),
    "influence": ("smiles.read_dataset.skipped", "autodiff.tensors", "gin.encode.nodes",
                  "influence.molecules"),
    "finetune": ("smiles.read_dataset.skipped", "autodiff.tensors", "gin.encode.nodes",
                 "autodiff.grad_elems", "autodiff.grad_applied"),
}

# Spans known to read 0 calls on every command (ROADMAP item 1): they wrap the
# one-molecule calls, and the commands call the corpus kernels
# (motif.decompositions, fingerprint.morgan_fingerprints). Nothing is asserted
# about them.
KNOWN_IDLE = ("motif.decompose", "fingerprint.morgan_fingerprint")

# Tensors that each batch of the traced pretrain put on the autodiff tape when
# the sce and alignment losses were composed chains: 69. The run built 309,
# 33 of them the parameter store.
COMPOSED_LOSS_TENSORS_PER_BATCH = 69


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """{command: (exit code, stderr, span calls by name, counters)} of one
    traced run of each command; influence and finetune read pretrain's
    checkpoint."""
    work = tmp_path_factory.mktemp("traced")
    write_corpus_csv(work / "corpus.csv", 40, seed=1)
    write_corpus_csv(work / "labeled.csv", 60, seed=1, labeled=True)
    ckpt = "run.checkpoint=pretrain/checkpoint.moam"
    runs = {
        "pretrain": ["data.input=corpus.csv", "run.epochs=2"],
        "mask-preview": ["data.input=corpus.csv"],
        "decompose": ["data.input=corpus.csv"],
        "fingerprint": ["data.input=corpus.csv"],
        "influence": ["data.input=corpus.csv", ckpt],
        "finetune": ["data.input=labeled.csv", ckpt],
    }
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")])}
    tracer = _tracer()
    out = {}
    for command, settings in runs.items():
        argv = [sys.executable, str(TRACED_CLI), f"{command}.spans", command, "--out", command]
        for s in settings:
            argv += ["--set", s]
        proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True)
        layers, counters = ({}, {}) if proc.returncode else tracer.summarize(
            work / f"{command}.spans")
        out[command] = (proc.returncode, proc.stderr,
                        {name: calls for name, (calls, _) in layers.items()}, counters)
    return out


def test_expected_names_are_traced():
    tracer = _tracer()
    traced = ({f"{module}.{path}" for module, path in tracer.SPANS}
              | {f"autodiff.{op}" for op in tracer.OPS})
    for names in (*EXERCISED.values(), KNOWN_IDLE):
        assert set(names) <= traced


@pytest.mark.parametrize("command", list(EXERCISED))
def test_traced_spans_see_work(traced, command):
    code, stderr, calls, counters = traced[command]
    assert code == 0, stderr
    idle = [name for name in EXERCISED[command] if calls.get(name, 0) == 0]
    assert idle == []
    assert [c for c in COUNTERS[command] if c not in counters] == []
    assert counters["smiles.read_dataset.skipped"] == 0


def test_pretrain_masks_every_planned_molecule_once(traced):
    _, _, calls, counters = traced["pretrain"]
    assert calls["masking.apply_mask"] == calls["masking.build_plan"] == counters["masking.plans"]
    assert calls["gin.TensorGraph.from_graphs"] == 4   # 2 epochs of 2 batches


def test_pretrain_checks_mask_eligibility_once_per_molecule(traced):
    # each molecule's motif table is built once per run, before epoch 1
    _, _, calls, _ = traced["pretrain"]
    assert calls["molgraph.k_hop_neighborhood"] == 40


def test_influence_runs_no_backward(traced):
    _, _, calls, counters = traced["influence"]
    assert calls["autodiff.Tensor.backward"] == 0
    assert counters["influence.molecules"] == 40


def test_pretrain_tape_is_a_third_of_the_composed_losses_tape(traced):
    # ROADMAP's 3x target for the tape: 23 tensors per batch, where the
    # parameter store is built once per run
    _, _, calls, counters = traced["pretrain"]
    params = len(param_shapes(EncoderConfig(), "atom_type"))
    per_batch = (counters["autodiff.tensors"] - params) / calls["gin.TensorGraph.from_graphs"]
    assert per_batch * 3 <= COMPOSED_LOSS_TENSORS_PER_BATCH
