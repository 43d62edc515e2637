"""Command-line surface.

Commands: decompose, mask-preview, pretrain, finetune, influence,
fingerprint. Every run writes an ``effective-config`` artifact to the output
directory; re-running with it reproduces the run bit-identically.

Exit codes: 1 config error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import RunConfig, build_section, effective_config, format_effective, parse_config_file
from .errors import ConfigError, DataError, NumericsError
from .fingerprint import morgan_fingerprint
from .influence import analyze_dataset
from .masking import build_plan, plan_rng
from .motif import decompose, load_rules
from .smiles import read_dataset
from .train import (
    PretrainResult,
    finetune_probe,
    load_checkpoint,
    loss_curve_rows,
    pretrain,
    save_checkpoint,
)

COMMANDS = ("decompose", "mask-preview", "pretrain", "finetune", "influence", "fingerprint")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="moama", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--config", metavar="PATH", help="key=value config file")
    p.add_argument("--seed", type=int, metavar="N", help="override run.seed")
    p.add_argument("--out", metavar="DIR", default="out", help="output directory")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override one config key")
    return p


def _load_config(args) -> dict[str, str]:
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {}
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    if args.seed is not None:
        overrides["run.seed"] = str(args.seed)
    return effective_config(file_values, overrides)


def _require_input(run: RunConfig) -> str:
    if not run.data.input:
        raise ConfigError("data.input is required (use --set data.input=FILE.csv)")
    return run.data.input


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _rules_for(run: RunConfig):
    return load_rules(run.motif.rules) if run.motif.rules else None


def cmd_decompose(run: RunConfig, cfg, out_dir: Path) -> None:
    data = read_dataset(_require_input(run))
    rules = _rules_for(run)
    rows = []
    for rec in data.records:
        dec = decompose(rec.graph, rules)
        sizes = "|".join(str(m.size) for m in dec.motifs)
        rows.append([rec.smiles, dec.n_motifs, sizes, len(dec.cut_edges)])
    _write_csv(out_dir / "motifs.csv", ["smiles", "n_motifs", "motif_sizes", "cut_edges"], rows)
    print(f"decomposed {len(rows)} molecules ({data.skipped} rows skipped)")


def cmd_mask_preview(run: RunConfig, cfg, out_dir: Path) -> None:
    data = read_dataset(_require_input(run))
    rules = _rules_for(run)
    rows = []
    for i, rec in enumerate(data.records):
        dec = decompose(rec.graph, rules)
        plan = build_plan(rec.graph, dec, run.mask, plan_rng(run.mask.seed, i))
        rows.append([
            rec.smiles,
            int(plan.feasible),
            repr(plan.realized_alpha),
            "|".join(map(str, plan.selected_motifs)),
            "|".join(map(str, plan.masked_nodes[0])),
            "|".join(map(str, plan.masked_nodes[1])),
        ])
    _write_csv(out_dir / "mask_plans.csv",
               ["smiles", "feasible", "realized_alpha", "selected_motifs",
                "masked_atom_type", "masked_chirality"], rows)
    print(f"planned masks for {len(rows)} molecules")


def cmd_pretrain(run: RunConfig, cfg, out_dir: Path) -> PretrainResult:
    data = read_dataset(_require_input(run))
    if not data.records:
        raise DataError("no parseable molecules in the dataset")

    def progress(stats):
        aux = "" if stats.aux is None else f" aux={stats.aux:.5f}"
        print(f"epoch {stats.epoch}: loss={stats.loss:.5f} rec={stats.rec:.5f}"
              f"{aux} feasible={stats.feasible_frac:.2f}")

    result = pretrain(data.graphs(), run, config_snapshot=cfg, progress=progress)
    ckpt_path = Path(run.checkpoint) if run.checkpoint else out_dir / "checkpoint.moam"
    save_checkpoint(ckpt_path, result.store, cfg, {"seed": run.seed}, run.epochs)
    curve_path = out_dir / "loss.csv"
    curve_path.write_text("\n".join(loss_curve_rows(result.curve, run.loss.beta < 1.0)) + "\n")
    print(f"checkpoint: {ckpt_path}")
    print(f"loss curve: {curve_path}")
    return result


def cmd_finetune(run: RunConfig, cfg, out_dir: Path) -> None:
    label = run.data.label or "label"
    data = read_dataset(_require_input(run), label_columns=[label])
    graphs = data.graphs()
    labels = np.array([r.labels[0] for r in data.records])
    pretrained = None
    if run.checkpoint:
        ckpt = load_checkpoint(run.checkpoint)
        pretrained = ckpt.store
        enc = ckpt.encoder_config()
        if enc != run.encoder:
            print(f"using encoder settings from checkpoint: {enc}")
            run = replace(run, encoder=enc)
    report = finetune_probe(pretrained, graphs, labels, run)
    _write_csv(out_dir / "auc_report.csv",
               ["test_auc", "valid_auc", "best_epoch", "mode", "train", "valid", "test"],
               [[repr(report.test_auc), repr(report.valid_auc), report.best_epoch,
                 report.mode, *report.split_sizes]])
    print(f"test AUC {report.test_auc:.4f} (valid {report.valid_auc:.4f}, "
          f"epoch {report.best_epoch}, {report.mode})")


def cmd_influence(run: RunConfig, cfg, out_dir: Path) -> None:
    if not run.checkpoint:
        raise ConfigError("influence requires run.checkpoint")
    ckpt = load_checkpoint(run.checkpoint)
    enc = ckpt.encoder_config()
    data = read_dataset(_require_input(run))
    rules = _rules_for(run)
    graphs = data.graphs()[:run.influence.max_graphs or None]   # 0 = all
    decomps = [decompose(g, rules) for g in graphs]
    report = analyze_dataset(graphs, decomps, ckpt.store, enc, top_k=run.influence.top_k,
                             mode=run.influence.inter_mode)
    _write_csv(out_dir / "influence_nodes.csv",
               ["graph", "node", "n_motifs", "s_intra", "s_inter", "rank", "truncated"],
               [[r.graph_index, r.node, r.n_motifs,
                 "" if r.intra is None else repr(r.intra),
                 "" if r.inter is None else repr(r.inter),
                 "" if r.rank is None else r.rank,
                 int(r.truncated)] for r in report.nodes])
    _write_csv(out_dir / "influence_summary.csv",
               ["inf_ratio_node", "inf_ratio_graph", "mrr_node", "mrr_graph",
                "mrr_motif", "top_k", "inter_mode", "excluded_nodes"],
               [[repr(report.inf_ratio_node), repr(report.inf_ratio_graph),
                 repr(report.mrr_node), repr(report.mrr_graph), repr(report.mrr_motif),
                 report.top_k, report.inter_mode, report.excluded_nodes]])
    _write_csv(out_dir / "mrr_inter.csv", ["n", "score", "graph_count"],
               [[n, repr(score), count] for n, score, count in report.mrr_inter])
    print(f"influence report over {len(graphs)} molecules -> {out_dir}")


def cmd_fingerprint(run: RunConfig, cfg, out_dir: Path) -> None:
    data = read_dataset(_require_input(run))
    rows = [[rec.smiles, morgan_fingerprint(rec.graph, run.fp.radius, run.fp.width).to_hex()]
            for rec in data.records]
    _write_csv(out_dir / "fingerprints.csv", ["smiles", "fingerprint_hex"], rows)
    print(f"fingerprinted {len(rows)} molecules")


_HANDLERS = {
    "decompose": cmd_decompose,
    "mask-preview": cmd_mask_preview,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "influence": cmd_influence,
    "fingerprint": cmd_fingerprint,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        run = build_section(RunConfig, "run", cfg)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        effective = format_effective(cfg)
        # command-scoped so runs sharing one --out keep their provenance
        (out_dir / f"effective-config.{args.command}").write_text(effective)
        sys.stdout.write(effective)
        _HANDLERS[args.command](run, cfg, out_dir)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericsError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
