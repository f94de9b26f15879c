"""Command-line interface for the augmentation toolkit."""

from __future__ import annotations

import dataclasses
import json
import logging
import sys
from pathlib import Path

import click

from .checked import check, dump, parse_json
from .clients import ClientError
from .corpus import CorpusError, iter_records, load_corpus, save_corpus, validate_dialogue
from .ingest import SOURCES, adapt
from .metrics import (
    aggregate_similarity,
    dataset_stats,
    disclosure_curve,
    evaluate_dialogue_coverage,
    format_wer_report,
    ga_smr,
    slot_f1_micro,
)
from .pipeline import (
    PipelineConfig,
    RunResult,
    StageToggles,
    build_clients,
    load_config,
    register_audio,
    run_pipeline,
    split_corpus,
    wer_validation,
)
from .synthesis import write_manifest
from .turntaking import (
    STRATEGY_NAMES,
    StrategyConfig,
    evaluate_set,
    format_report,
    read_streams,
)

log = logging.getLogger(__name__)


class _CleanErrors(click.Group):
    """Render domain failures as one-line errors instead of tracebacks."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except click.ClickException:
            raise
        except (CorpusError, ClientError, ValueError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_CleanErrors)
@click.option("--seed", type=int, default=None, help="Global seed override.")
@click.option("--stub/--no-stub", default=None, help="Force offline stub clients on or off.")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="JSON pipeline config.")
@click.option("-v", "--verbose", is_flag=True, help="Debug logging.")
@click.pass_context
def main(ctx: click.Context, seed: int | None, stub: bool | None, config_path: str | None, verbose: bool) -> None:
    """Spoken task-oriented dialogue augmentation toolkit."""
    logging.basicConfig(level=logging.DEBUG if verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    cfg = load_config(config_path) if config_path else PipelineConfig()
    if seed is not None:
        cfg = dataclasses.replace(cfg, global_seed=seed)
    if stub is not None:
        cfg = dataclasses.replace(cfg, stub=stub)
    ctx.obj = cfg


@main.command()
@click.option("--source", type=click.Choice(SOURCES), required=True, help="Source corpus format.")
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("output_path", type=click.Path(dir_okay=False))
def ingest(source: str, input_path: str, output_path: str) -> None:
    """Convert source-corpus records into the unified schema."""
    dialogues = []
    for i, raw in enumerate(iter_records(input_path)):
        try:
            d = adapt(source, raw)
        except (LookupError, TypeError, AttributeError, ValueError, CorpusError) as exc:
            raise click.ClickException(f"{input_path}[{i}]: {type(exc).__name__}: {exc}") from exc
        violations = validate_dialogue(d)
        if violations:
            found = "; ".join(f"{v.rule}{v.at('@')}: {v.detail}" for v in violations)
            raise click.ClickException(f"{input_path}[{i}]: {found}")
        dialogues.append(d)
    save_corpus(dialogues, output_path)
    click.echo(f"ingested {len(dialogues)} dialogues -> {output_path}")


def _write_run(verb: str, result: RunResult, output_path: str, out_dir: str) -> None:
    """Save the corpus, then out_dir's synthesis manifest (if it has rows) and quarantine.jsonl."""
    save_corpus(result.dialogues, output_path)
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    if result.manifest:
        write_manifest(result.manifest, root / "synthesis_manifest.jsonl")
    with open(root / "quarantine.jsonl", "w", encoding="utf-8") as fh:
        for row in result.quarantined:
            fh.write(json.dumps(row.to_dict()) + "\n")
    click.echo(f"{verb} {len(result.dialogues)} dialogues ({len(result.quarantined)} quarantined) -> {output_path}")


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("output_path", type=click.Path(dir_okay=False))
@click.option("--out-dir", type=click.Path(file_okay=False), default=None,
              help="Directory for audio and manifests (default: config out_dir).")
@click.option("--workers", type=int, default=None, help="Worker pool size override.")
@click.option("--no-synthesis", is_flag=True, help="Skip the synthesis stage.")
@click.pass_obj
def augment(cfg: PipelineConfig, input_path: str, output_path: str,
            out_dir: str | None, workers: int | None, no_synthesis: bool) -> None:
    """Run the augmentation stages and write the augmented corpus."""
    if out_dir is not None:
        cfg = dataclasses.replace(cfg, out_dir=out_dir)
    if workers is not None:
        cfg = dataclasses.replace(cfg, workers=workers)
    if no_synthesis:
        cfg = dataclasses.replace(cfg, stages=dataclasses.replace(cfg.stages, synthesis=False))
    _write_run("augmented", run_pipeline(load_corpus(input_path), cfg), output_path, cfg.out_dir)


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("output_path", type=click.Path(dir_okay=False))
@click.option("--out-dir", type=click.Path(file_okay=False), default=None)
@click.pass_obj
def synthesize(cfg: PipelineConfig, input_path: str, output_path: str, out_dir: str | None) -> None:
    """Render audio for an already-augmented corpus in the voices augment assigned:
    with no speaker manifest there is no pool, so the speakers stage does not run."""
    if out_dir is not None:
        cfg = dataclasses.replace(cfg, out_dir=out_dir)
    cfg = dataclasses.replace(
        cfg,
        stages=StageToggles(crossturn=False, bargein=False, disfluency=False,
                            emotion=False, synthesis=True),
        speaker_manifest=None, assistant_manifest=None,
    )
    _write_run("synthesized", run_pipeline(load_corpus(input_path), cfg), output_path, cfg.out_dir)


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
def validate(input_path: str) -> None:
    """Check every dialogue against the schema invariants."""
    bad = 0
    for d in load_corpus(input_path):
        violations = validate_dialogue(d)
        for v in violations:
            click.echo(f"{d.dialogue_id}\t{v.at('turn ') or '-'}\t{v.rule}\t{v.detail}")
        bad += bool(violations)
    if bad:
        click.echo(f"{bad} dialogues with violations", err=True)
        sys.exit(1)
    click.echo("all dialogues valid")


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_dir", type=click.Path(file_okay=False))
@click.option("--ratios", default="0.75,0.10,0.15", show_default=True,
              help="Comma-separated train,valid,test ratios.")
@click.pass_obj
def split(cfg: PipelineConfig, input_path: str, out_dir: str, ratios: str) -> None:
    """Partition a corpus into train/valid/test files."""
    try:
        parts = tuple(float(x) for x in ratios.split(","))
    except ValueError:
        parts = ()  # not numbers: split_corpus words the error
    dialogues = load_corpus(input_path)
    train, valid, test = split_corpus(dialogues, parts, seed=cfg.global_seed)
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    for name, chunk in (("train", train), ("valid", valid), ("test", test)):
        save_corpus(chunk, root / f"{name}.jsonl")
    click.echo(f"split {len(dialogues)} -> {len(train)}/{len(valid)}/{len(test)}")


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
def stats(input_path: str) -> None:
    """Corpus statistics with behavior breakdowns."""
    click.echo(json.dumps(dataset_stats(load_corpus(input_path)), indent=2))


@main.command("eval-turn-taking")
@click.argument("streams_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--strategy", type=click.Choice(STRATEGY_NAMES), default="linear_weighted",
              show_default=True)
@click.option("--t-turnend", type=float, default=None, help="Turn-end threshold override.")
@click.option("--t-bargein", type=float, default=None, help="Barge-in threshold override.")
def eval_turn_taking(streams_path: str, strategy: str, t_turnend: float | None, t_bargein: float | None) -> None:
    """Score labeled probability streams under one strategy."""
    cfg = StrategyConfig(strategy, t_turnend=t_turnend, t_bargein=t_bargein)
    streams = read_streams(streams_path)
    report = evaluate_set(((s.frames, s.truth) for s in streams), cfg)
    click.echo(json.dumps(format_report(report, cfg), indent=2))


@main.command("eval-dialogue")
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--pred", "pred_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="JSON map dialogue_id -> predicted final belief state for slot F1.")
@click.option("--curve-csv", type=click.Path(dir_okay=False), default=None,
              help="Write the disclosure curve as CSV.")
@click.option("--wer-sample", type=int, default=0,
              help="Also transcribe N sampled dialogues and report WER per accent.")
@click.option("--similarity/--no-similarity", default=False,
              help="Report speaker similarity over synthesized user turns.")
@click.pass_obj
def eval_dialogue(cfg: PipelineConfig, input_path: str, pred_path: str | None,
                  curve_csv: str | None, wer_sample: int, similarity: bool) -> None:
    """Goal coverage (GA/SMR), disclosure curve, and optional F1/WER/similarity."""
    dialogues = load_corpus(input_path)
    clients = build_clients(cfg)
    for d in dialogues:
        register_audio(clients.directory, d, cfg.out_dir)
    states = [evaluate_dialogue_coverage(d, clients.judge) for d in dialogues]
    coverage = ga_smr(states)
    out: dict[str, object] = {"dialogues": len(dialogues), **dump(coverage)}
    curve = disclosure_curve(states)
    if curve_csv:
        with open(curve_csv, "w", encoding="utf-8") as fh:
            fh.write("turn,coverage\n")
            for i, value in enumerate(curve, 1):
                fh.write(f"{i},{value:.6f}\n")
        out["curve_csv"] = curve_csv
    else:
        out["disclosure_curve"] = [round(v, 6) for v in curve]
    if pred_path:
        preds = check(pred_path, parse_json(pred_path, ValueError), "dict", ValueError)
        for dialogue_id, state in preds.items():
            check(f"{pred_path}[{dialogue_id!r}]", state, "dict[str, str]", ValueError)
        pairs = []
        for d in dialogues:
            gold = d.state_at(len(d.turns) - 1) or {}
            pairs.append((preds.get(d.dialogue_id, {}), gold))
        out["slot_f1"] = dump(slot_f1_micro(pairs))
    if wer_sample > 0:
        result = wer_validation(dialogues, wer_sample, clients.asr, cfg.out_dir, seed=cfg.global_seed)
        out["wer"] = {
            group: {"wer_pct": round(100 * cell.wer, 2), "utterances": cell.utterances}
            for group, cell in result.report.items()
        }
        out["wer_failed_files"] = result.failed_files
        click.echo(format_wer_report(result.report), err=True)
    if similarity:
        vectors = []
        for d in dialogues:
            user_vecs = []
            for t in d.user_turns():
                if t.audio_ref:
                    try:
                        user_vecs.append(clients.embed.embed(str(Path(cfg.out_dir) / t.audio_ref)))
                    except ClientError as exc:
                        log.warning("embedding failed on %s turn %d; turn skipped: %s", d.dialogue_id, t.index, exc)
            if len(user_vecs) >= 2:
                vectors.append(user_vecs)
        if vectors:
            sim = aggregate_similarity(vectors)
            out["similarity"] = {key: dump(getattr(sim, key), {"n": None}) for key in ("sim_first", "sim_prev")}
    click.echo(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
