"""Command-line surface.

Commands: decompose, mask-preview, pretrain, finetune, influence,
fingerprint. Every run writes an ``effective-config`` artifact to the output
directory; re-running with it reproduces the run bit-identically.

Exit codes: 1 config error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import RunConfig, build_section, effective_config, format_effective, parse_config_file
from .errors import ConfigError, DataError, NumericsError, csv_text, write_output
from .fingerprint import morgan_fingerprints
from .influence import analyze_dataset
from .masking import build_plan, plan_rng
from .motif import decompose
from .smiles import read_dataset
from .train import finetune_probe, load_checkpoint, loss_curve_rows, pretrain, save_checkpoint


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


def _output_paths(command: str, run: RunConfig, out_dir: Path) -> dict[str, Path]:
    paths = {role: out_dir / name for role, name in COMMANDS[command][1].items()}
    if command == "pretrain" and run.checkpoint:
        paths["checkpoint"] = Path(run.checkpoint)
    # command-scoped, so runs that share one --out keep their provenance
    return {"config": out_dir / f"effective-config.{command}", **paths}


def cmd_decompose(run: RunConfig, cfg, out: dict[str, Path]) -> None:
    data = read_dataset(_require_input(run))
    rules = run.motif.rule_table()
    rows = []
    for rec in data.records:
        dec = decompose(rec.graph, rules)
        sizes = "|".join(str(m.size) for m in dec.motifs)
        rows.append([rec.smiles, dec.n_motifs, sizes, len(dec.cut_edges)])
    write_output(out["motifs"], csv_text(["smiles", "n_motifs", "motif_sizes", "cut_edges"], rows))
    print(f"decomposed {len(rows)} molecules ({data.skipped} rows skipped)")


def cmd_mask_preview(run: RunConfig, cfg, out: dict[str, Path]) -> None:
    data = read_dataset(_require_input(run))
    rules = run.motif.rule_table()
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
    write_output(out["plans"], csv_text(
        ["smiles", "feasible", "realized_alpha", "selected_motifs",
         "masked_atom_type", "masked_chirality"], rows))
    print(f"planned masks for {len(rows)} molecules")


def cmd_pretrain(run: RunConfig, cfg, out: dict[str, Path]) -> None:
    data = read_dataset(_require_input(run))

    def progress(stats):
        aux = "" if stats.aux is None else f" aux={stats.aux:.5f}"
        print(f"epoch {stats.epoch}: loss={stats.loss:.5f} rec={stats.rec:.5f}"
              f"{aux} feasible={stats.feasible_frac:.2f}")

    result = pretrain(data.graphs(), run, progress=progress)
    save_checkpoint(out["checkpoint"], result.store, cfg, {"seed": run.seed}, run.epochs)
    write_output(out["curve"], "\n".join(loss_curve_rows(result.curve, run.loss.beta < 1.0)) + "\n")
    print(f"checkpoint: {out['checkpoint']}")
    print(f"loss curve: {out['curve']}")


def cmd_finetune(run: RunConfig, cfg, out: dict[str, Path]) -> None:
    data = read_dataset(_require_input(run), label=run.data.label or "label")
    graphs = data.graphs()
    labels = np.array([r.label for r in data.records])
    pretrained = None
    if run.checkpoint:
        ckpt = load_checkpoint(run.checkpoint)
        pretrained = ckpt.store
        enc = ckpt.encoder_config()
        if enc != run.encoder:
            print(f"using encoder settings from checkpoint: {enc}")
            run = replace(run, encoder=enc)
    report = finetune_probe(pretrained, graphs, labels, run)
    write_output(out["report"], csv_text(
        ["test_auc", "valid_auc", "best_epoch", "mode", "train", "valid", "test"],
        [[repr(report.test_auc), repr(report.valid_auc), report.best_epoch,
          report.mode, *report.split_sizes]]))
    print(f"test AUC {report.test_auc:.4f} (valid {report.valid_auc:.4f}, "
          f"epoch {report.best_epoch}, {report.mode})")


def cmd_influence(run: RunConfig, cfg, out: dict[str, Path]) -> None:
    if not run.checkpoint:
        raise ConfigError("influence requires run.checkpoint")
    ckpt = load_checkpoint(run.checkpoint)
    enc = ckpt.encoder_config()
    data = read_dataset(_require_input(run))
    rules = run.motif.rule_table()
    graphs = data.graphs()[:run.influence.max_graphs or None]   # 0 = all
    decomps = [decompose(g, rules) for g in graphs]
    report = analyze_dataset(graphs, decomps, ckpt.store, enc, run.influence)
    write_output(out["nodes"], csv_text(
        ["graph", "node", "n_motifs", "s_intra", "s_inter", "rank", "truncated"],
        [[r.graph_index, r.node, r.n_motifs,
          "" if r.intra is None else repr(r.intra),
          "" if r.inter is None else repr(r.inter),
          "" if r.rank is None else r.rank,
          int(r.truncated)] for r in report.nodes]))
    write_output(out["summary"], csv_text(
        ["inf_ratio_node", "inf_ratio_graph", "mrr_node", "mrr_graph",
         "mrr_motif", "top_k", "inter_mode", "excluded_nodes"],
        [[repr(report.inf_ratio_node), repr(report.inf_ratio_graph),
          repr(report.mrr_node), repr(report.mrr_graph), repr(report.mrr_motif),
          report.top_k, report.inter_mode, report.excluded_nodes]]))
    write_output(out["mrr"], csv_text(["n", "score", "graph_count"], [
        [n, repr(score), count] for n, score, count in report.mrr_inter]))
    print(f"influence report over {len(graphs)} molecules -> {out['nodes'].parent}")


def cmd_fingerprint(run: RunConfig, cfg, out: dict[str, Path]) -> None:
    data = read_dataset(_require_input(run))
    fps = morgan_fingerprints([rec.graph for rec in data.records], run.fp)
    rows = [[rec.smiles, fp.to_hex()] for rec, fp in zip(data.records, fps)]
    write_output(out["fingerprints"], csv_text(["smiles", "fingerprint_hex"], rows))
    print(f"fingerprinted {len(rows)} molecules")


# Each command's handler and the files it writes under --out, by role; README's
# table lists the same files. pretrain's checkpoint goes to run.checkpoint if set.
COMMANDS = {
    "decompose": (cmd_decompose, {"motifs": "motifs.csv"}),
    "mask-preview": (cmd_mask_preview, {"plans": "mask_plans.csv"}),
    "pretrain": (cmd_pretrain, {"checkpoint": "checkpoint.moam", "curve": "loss.csv"}),
    "finetune": (cmd_finetune, {"report": "auc_report.csv"}),
    "influence": (cmd_influence, {"nodes": "influence_nodes.csv",
                                  "summary": "influence_summary.csv", "mrr": "mrr_inter.csv"}),
    "fingerprint": (cmd_fingerprint, {"fingerprints": "fingerprints.csv"}),
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        run = build_section(RunConfig, "run", cfg)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise DataError(f"cannot create --out {out_dir}: {e.strerror or e}") from e
        out = _output_paths(args.command, run, out_dir)
        for role, path in out.items():   # before any work, so a bad path costs none
            reason = ("it is a directory" if path.is_dir() else
                      f"no directory {path.parent}" if not path.parent.is_dir() else
                      "it holds a NUL byte" if "\0" in str(path) else None)
            if reason:
                raise DataError(f"cannot write {role} {path}: {reason}")
        effective = format_effective(cfg)
        write_output(out["config"], effective, "config")
        sys.stdout.write(effective)
        # numpy's RuntimeWarnings and library warnings would print more than the one
        # line below on stderr; neither filter changes a computed bit
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            COMMANDS[args.command][0](run, cfg, out)
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
