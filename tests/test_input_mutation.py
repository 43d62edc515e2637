"""A standing, seeded sweep of byte-mutated inputs through the command line,
in process: every run ends in exit code 0, 1, 2 or 3 with at most one line on
stderr and no traceback.

Each surface mutates one input kind: a labelled CSV read by ``fingerprint``
and ``finetune``, a rule file read by ``decompose``, and a checkpoint read by
``influence``.
"""

from importlib import resources

import numpy as np
import pytest

from moama.cli import main
from moama.config import DEFAULTS
from moama.datagen import write_corpus_csv
from moama.gin import EncoderConfig, init_params
from moama.train import save_checkpoint

MUTANTS = 40
_SMALL = ["--set", "encoder.layers=2", "--set", "encoder.embed_dim=8",
          "--set", "run.finetune_epochs=1"]


def mutate(data: bytes, rng: np.random.Generator) -> bytes:
    """One or two random edits of ``data``: a byte replaced by one of its own
    bytes or by any byte, a byte deleted, one of its bytes inserted, or, one
    edit in ten, the tail cut off. Most edits keep a text file text."""
    b = bytearray(data)
    for _ in range(int(rng.integers(1, 3))):
        kind = rng.choice(5, p=[0.35, 0.15, 0.2, 0.2, 0.1])
        pos, own = int(rng.integers(len(b) + 1)), data[int(rng.integers(len(data)))]
        if kind == 0 and pos < len(b):
            b[pos] = own
        elif kind == 1 and pos < len(b):
            b[pos] = int(rng.integers(256))
        elif kind == 2:
            del b[pos:pos + 1]
        elif kind == 3:
            b.insert(pos, own)
        elif kind == 4:
            del b[pos:]
    return bytes(b)


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """The unmutated inputs: a corpus, a labelled corpus, the bundled rule
    table and a two-layer checkpoint."""
    root = tmp_path_factory.mktemp("originals")
    corpus, labeled, ckpt = root / "corpus.csv", root / "labeled.csv", root / "c.moam"
    write_corpus_csv(corpus, 12, seed=5)
    write_corpus_csv(labeled, 40, seed=11, labeled=True)
    snapshot = {key: text for key, text in DEFAULTS.items() if key.startswith("encoder.")}
    snapshot.update({"encoder.layers": "2", "encoder.embed_dim": "8"})
    save_checkpoint(ckpt, init_params(EncoderConfig(layers=2, embed_dim=8), seed=0),
                    snapshot, {"seed": 0}, 0)
    rules = (resources.files("moama") / "rules" / "brics.tsv").read_bytes()
    return {"corpus": corpus, "labeled": labeled.read_bytes(), "rules": rules,
            "checkpoint": ckpt.read_bytes()}


# surface: (input kind, commands, the argument that names the mutated file)
SURFACES = {
    "labeled_csv": ("labeled", ("fingerprint", "finetune"), "data.input"),
    "rule_file": ("rules", ("decompose",), "motif.rules"),
    "checkpoint": ("checkpoint", ("influence",), "run.checkpoint"),
}


@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_mutated_inputs_end_in_an_exit_code_and_one_line(originals, tmp_path, capsys, surface):
    kind, commands, key = SURFACES[surface]
    rng = np.random.default_rng([21, sorted(SURFACES).index(surface)])
    codes = []
    for i in range(MUTANTS):
        path = tmp_path / f"mutant{i}"
        path.write_bytes(mutate(originals[kind], rng))
        for command in commands:
            argv = [command, "--out", str(tmp_path / "out"), *_SMALL,
                    "--set", f"data.input={originals['corpus']}",
                    "--set", "influence.max_graphs=4", "--set", f"{key}={path}"]
            code = main(argv)   # an exception escaping main fails here, with its traceback
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3), (surface, i, command)
            assert err.count("\n") == (code != 0) and "Traceback" not in err, (surface, i, err)
            codes.append(code)
    if surface == "checkpoint":
        assert set(codes) <= {0, 2}
    assert 0 < codes.count(0) < len(codes)   # the sweep reaches both outcomes
