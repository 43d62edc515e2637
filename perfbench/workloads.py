"""The benchmark's workloads: what each runs, how it is checked, and its
main-stage throughput. README.md says why each was chosen.

Every path handed to the program is relative to the checkout root, so the
outputs do not depend on where the checkout lives.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

# Heavy atoms of a SMILES string, counted without the program: bracket atoms,
# two-letter halogens, then the organic subset (aliphatic and aromatic).
_ATOM = re.compile(r"\[[^\]]*\]|Br|Cl|[BCNOPSFI]|[bcnops]")
_EPOCH = re.compile(r"^epoch (\d+):")


def heavy_atoms(smiles: str) -> int:
    return len(_ATOM.findall(smiles))


def read_smiles(path: Path) -> list[str]:
    with path.open(newline="", encoding="utf-8") as fh:
        return [row["smiles"] for row in csv.DictReader(fh)]


@dataclass(frozen=True)
class Output:
    """One file a command writes under --out and what it must hold."""

    name: str
    rows: int | None = None          # data rows; None: at least one
    numeric: tuple[str, ...] = ()    # columns whose cells are finite numbers
    may_be_empty: tuple[str, ...] = ()
    table: bool = True               # False: binary, only non-empty


@dataclass
class Command:
    args: list[str]                  # arguments after `python -m moama.cli`
    outputs: list[Output] = field(default_factory=list)


def check_output(out_dir: Path, spec: Output) -> list[str]:
    path = out_dir / spec.name
    if not path.is_file() or path.stat().st_size == 0:
        return [f"{spec.name}: missing or empty"]
    if not spec.table:
        return []
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    errors = []
    if spec.rows is None and not rows:
        errors.append(f"{spec.name}: no rows")
    elif spec.rows is not None and len(rows) != spec.rows:
        errors.append(f"{spec.name}: {len(rows)} rows, expected {spec.rows}")
    for i, row in enumerate(rows):
        for col in spec.numeric:
            cell = row.get(col)
            if cell == "" and col in spec.may_be_empty:
                continue
            try:
                ok = math.isfinite(float(cell))
            except (TypeError, ValueError):
                ok = False
            if not ok:
                errors.append(f"{spec.name} row {i} {col}={cell!r}: not a finite number")
                return errors
    return errors


class Workload:
    """Base: corpus set-up, the commands of one pass, their checks."""

    name = ""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root            # the checkout; commands run here
        self.work = work            # relative to root
        self.seed = seed
        self.out = work / "out"

    def cli(self, command: str, *settings: str, out: Path | None = None) -> list[str]:
        args = [command, "--seed", str(self.seed), "--out", str(out or self.out)]
        for s in settings:
            args += ["--set", s]
        return args

    def prepare(self, harness) -> None:
        raise NotImplementedError

    def commands(self) -> list[Command]:
        raise NotImplementedError

    def main_stage(self, runs) -> tuple[float, float]:
        """(molecules, seconds) of one pass's main stage; mol_per_s of a
        run is the sum of the first over the sum of the second."""
        raise NotImplementedError

    def make_corpus(self, harness, path: Path, n: int, labeled: bool = False) -> list[str]:
        """Untimed set-up: a datagen corpus with a seed-independent size
        profile (see corpus.py)."""
        harness.setup_python([str(Path(__file__).resolve().parent / "corpus.py"),
                              str(path), str(n), str(self.seed)] + (["--labeled"] if labeled else []))
        return read_smiles(self.root / path)

    def make_checkpoint(self, harness) -> Path:
        """Untimed set-up: a short pre-training run whose checkpoint the
        influence and finetune workloads read."""
        corpus = self.work / "ckpt_corpus.csv"
        self.make_corpus(harness, corpus, 240)
        ckpt = self.work / "ckpt.moam"
        harness.setup_command(self.cli("pretrain", f"data.input={corpus}", "run.epochs=2",
                                       f"run.checkpoint={ckpt}", out=self.work / "setup"))
        return ckpt


class Pretrain(Workload):
    name = "pretrain"

    def prepare(self, harness):
        self.n = 240
        self.epochs = 6
        self.corpus = self.work / "corpus.csv"
        self.make_corpus(harness, self.corpus, self.n)

    def commands(self):
        return [Command(
            self.cli("pretrain", f"data.input={self.corpus}", f"run.epochs={self.epochs}"),
            [Output("loss.csv", self.epochs, ("epoch", "loss", "rec", "aux", "feasible_frac")),
             Output("checkpoint.moam", table=False)])]

    def main_stage(self, runs):
        # molecule-epochs between the first and last epoch line; epoch 1
        # (and everything before it) is excluded
        epochs = [(t, int(m.group(1))) for t, line in runs[0].lines
                  if (m := _EPOCH.match(line))]
        (t0, e0), (t1, e1) = epochs[0], epochs[-1]
        return (e1 - e0) * self.n, t1 - t0


class Influence(Workload):
    name = "influence"

    def prepare(self, harness):
        self.ckpt = self.make_checkpoint(harness)
        self.corpus = self.work / "corpus.csv"
        smiles = self.make_corpus(harness, self.corpus, 120)
        self.n = len(smiles)
        self.atoms = sum(heavy_atoms(s) for s in smiles)

    def commands(self):
        return [Command(
            self.cli("influence", f"data.input={self.corpus}", f"run.checkpoint={self.ckpt}"),
            [Output("influence_nodes.csv", self.atoms, ("graph", "node", "n_motifs", "s_intra",
                                                         "s_inter", "rank", "truncated"),
                    may_be_empty=("s_intra", "s_inter", "rank")),
             Output("influence_summary.csv", 1, ("inf_ratio_node", "inf_ratio_graph", "mrr_node",
                                                  "mrr_graph", "mrr_motif", "excluded_nodes")),
             Output("mrr_inter.csv", None, ("n", "score", "graph_count"))])]

    def main_stage(self, runs):
        return self.n, runs[0].wall_s - runs[0].setup_s


class Finetune(Workload):
    name = "finetune"

    def prepare(self, harness):
        self.ckpt = self.make_checkpoint(harness)
        self.corpus = self.work / "labeled.csv"
        self.n = len(self.make_corpus(harness, self.corpus, 200, labeled=True))
        self.epochs = 20

    def commands(self):
        return [Command(
            self.cli("finetune", f"data.input={self.corpus}", f"run.checkpoint={self.ckpt}",
                     f"run.finetune_epochs={self.epochs}"),
            [Output("auc_report.csv", 1, ("test_auc", "valid_auc", "best_epoch",
                                          "train", "valid", "test"))])]

    def main_stage(self, runs):
        with (self.root / self.out / "auc_report.csv").open(newline="") as fh:
            train = int(next(csv.DictReader(fh))["train"])
        return train * self.epochs, runs[0].wall_s - runs[0].setup_s


class Prep(Workload):
    name = "prep"

    def prepare(self, harness):
        self.corpus = self.work / "corpus.csv"
        self.n = len(self.make_corpus(harness, self.corpus, 1000))

    def commands(self):
        data = f"data.input={self.corpus}"
        return [
            Command(self.cli("decompose", data),
                    [Output("motifs.csv", self.n, ("n_motifs", "cut_edges"))]),
            Command(self.cli("fingerprint", data), [Output("fingerprints.csv", self.n)]),
            Command(self.cli("mask-preview", data),
                    [Output("mask_plans.csv", self.n, ("feasible", "realized_alpha"))]),
        ]

    def main_stage(self, runs):
        return len(runs) * self.n, sum(r.wall_s - r.setup_s for r in runs)


WORKLOADS = {w.name: w for w in (Pretrain, Influence, Finetune, Prep)}


def layer_coverage(wl: Workload, layers: dict) -> dict[str, bool]:
    """The traced counts that show what a prepared workload exercises or
    bypasses (README.md), each with whether it held."""
    k_hop = layers["molgraph.k_hop_neighborhood.calls"]
    checks = {}
    if wl.name in ("pretrain", "prep"):
        checks["k_hop_neighborhood.calls > 0"] = k_hop > 0
    else:
        checks["k_hop_neighborhood.calls == 0"] = k_hop == 0
    if wl.name in ("influence", "prep"):
        checks["Tensor.backward.calls == 0"] = layers["autodiff.Tensor.backward.calls"] == 0
    if wl.name == "influence":
        expected = wl.atoms + wl.n
        checks[f"gin.encode.calls == sum(n_atoms + 1) == {expected}"] = (
            layers["gin.encode.calls"] == expected)
    if wl.name == "finetune":
        checks["autodiff.grad_used_frac < 1"] = layers["autodiff.grad_used_frac"] < 1
    return checks
