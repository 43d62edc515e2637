"""Deterministic synthetic drug-like SMILES corpus for desk-scale runs.

Molecules are assembled from ring systems joined to chains through common
linkages (esters, amides, ethers, amines, sulfonamides), which the bundled
decomposition rules cleave, so generated corpora decompose into several
motifs each. The optional binary label marks a functional pattern: whether
the molecule contains a carbonyl carbon.
"""

from __future__ import annotations

import random
from pathlib import Path

from .errors import csv_text, write_output
from .molgraph import MolGraph
from .motif import carbonyl_carbons
from .smiles import parse

_RINGS = (
    "c1ccccc1", "c1ccncc1", "c1ccncn1", "c1ccsc1", "c1ccoc1",
    "C1CCCCC1", "C1CCNCC1", "C1CCOCC1", "C1CCCC1",
)
# one substitution slot marked {r}
_RINGS_SUB = (
    "c1ccc({r})cc1", "c1ccc({r})nc1", "c1cc({r})ccn1", "c1cc({r})cs1",
    "C1CCC({r})CC1", "C1CC({r})CN1", "C1CCN({r})CC1", "c1cc({r})co1",
)
_CARBONYL_LINKS = ("C(=O)O", "C(=O)N", "OC(=O)", "NC(=O)", "C(=O)")
_PLAIN_LINKS = ("O", "N", "CO", "OC", "NC", "CN", "S", "S(=O)(=O)N", "C=C", "CC", "C")
_CHAINS = (
    "C", "CC", "CCC", "C(C)C", "CCO", "CCN", "CC(C)C", "C(F)(F)F",
    "C[C@H](N)C", "C[C@@H](O)C", "CC#N", "CCl", "CBr", "CCF",
)


def generate_smiles(rng: random.Random, with_carbonyl: bool | None = None) -> str:
    """One synthetic molecule; carbonyl presence forced when requested.

    Chains and rings carry no carbonyl, so the chosen linkage alone decides
    the label pattern.
    """
    if with_carbonyl is None:
        with_carbonyl = rng.random() < 0.5
    link = rng.choice(_CARBONYL_LINKS if with_carbonyl else _PLAIN_LINKS)
    parts = [rng.choice(_CHAINS), link]
    if rng.random() < 0.7:
        template = rng.choice(_RINGS_SUB)
        parts.append(template.format(r=rng.choice(_CHAINS)))
    else:
        parts.append(rng.choice(_RINGS))
    if rng.random() < 0.35:
        parts.append(rng.choice(_PLAIN_LINKS))
        parts.append(rng.choice(_RINGS))
    return "".join(parts)


def generate_corpus(n: int, seed: int = 0, balanced_labels: bool = False) -> list[str]:
    rng = random.Random(seed)
    out = []
    for i in range(n):
        force = (i % 2 == 0) if balanced_labels else None
        out.append(generate_smiles(rng, with_carbonyl=force))
    return out


def has_carbonyl(g: MolGraph) -> bool:
    return bool(carbonyl_carbons(g))


def write_corpus_csv(path, n: int, seed: int = 0, labeled: bool = False) -> None:
    """Write a dataset CSV; the label column marks carbonyl presence."""
    rows = [[smi, int(has_carbonyl(parse(smi)))] if labeled else [smi]
            for smi in generate_corpus(n, seed, balanced_labels=labeled)]
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    write_output(path, csv_text(["smiles", "label"] if labeled else ["smiles"], rows))
