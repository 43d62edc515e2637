"""Datagen corpora whose size profile does not depend on the seed.

    PYTHONPATH=src python3 perfbench/corpus.py OUT.csv N SEED [--labeled]

moama.datagen draws molecules of varying size. Influence work grows with the
square of a molecule's size, so plain datagen corpora of 120 molecules differ
in work by about 7 % between seeds, which would swamp the benchmark's bounds.
Here the seed still picks every molecule, from datagen's own stream, but each
corpus has the same histogram of (heavy-atom count, label) as the corpus of
the reference seed: a drawn molecule is kept while its bucket has room.
Labelled corpora alternate forced carbonyl / no carbonyl draws as
``write_corpus_csv(..., labeled=True)`` does; the label is datagen's.
"""

from __future__ import annotations

import csv
import random
import sys
from collections import Counter

from moama.datagen import generate_smiles, has_carbonyl
from moama.smiles import parse

from workloads import heavy_atoms

REFERENCE_SEED = 0
MAX_DRAWS_PER_MOLECULE = 1000


def _stream(seed: int, labeled: bool):
    rng = random.Random(seed)
    i = 0
    while True:
        smi = generate_smiles(rng, with_carbonyl=(i % 2 == 0) if labeled else None)
        i += 1
        yield smi, int(has_carbonyl(parse(smi))) if labeled else None


def corpus(n: int, seed: int, labeled: bool) -> list[tuple[str, int | None]]:
    def key(item):
        return heavy_atoms(item[0]), item[1]

    reference = _stream(REFERENCE_SEED, labeled)
    room = Counter(key(next(reference)) for _ in range(n))
    out = []
    stream = _stream(seed, labeled)
    for _ in range(MAX_DRAWS_PER_MOLECULE * n):
        if len(out) == n:
            return out
        item = next(stream)
        if room[key(item)] > 0:
            room[key(item)] -= 1
            out.append(item)
    raise RuntimeError(f"seed {seed}: corpus profile not filled")


def main() -> int:
    path, n, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    labeled = "--labeled" in sys.argv[4:]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["smiles", "label"] if labeled else ["smiles"])
        for smi, label in corpus(n, seed, labeled):
            writer.writerow([smi, label] if labeled else [smi])
    return 0


if __name__ == "__main__":
    sys.exit(main())
