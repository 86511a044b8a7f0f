"""Command-line interface.

One executable with subcommands covering the toolkit: metric
computation, spectrum preprocessing, synthetic data generation,
training, reranking, evaluation, and the analysis reports. Exit codes:
0 success, 1 usage error, 2 data or validation error, 3 runtime
failure. Every run echoes its resolved configuration and seed to
stderr; all reports are TSV with a header row.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from typing import Callable, Iterator, Sequence, TextIO, TypeVar

from . import pipeline
from .evaluation import (
    contribution_analysis,
    corpus_stats,
    length_binned_recall,
    residue_confusion,
)
from .masses import MassTable, default_mass_table, load_mass_table, parse_peptide
from .metrics import gap_penalty, pmd_many, rmd
from .model import MODEL_KEYS, ModelConfig
from .spectra import RawSpectrum, parse_mgf, write_mgf

T = TypeVar("T")

# `train --config` keys: the model's scalar fields, the two embedding limits a
# user may tune (the m/z window stays fixed), and every TrainConfig field.
CONFIG_MODEL_KEYS = MODEL_KEYS + ("max_len", "max_charge")
CONFIG_TRAIN_KEYS = tuple(
    f.name for f in dataclasses.fields(pipeline.TrainConfig) if f.name != "model"
)


class CliParser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _echo(args: argparse.Namespace, resolved: dict) -> None:
    payload = dict(resolved)
    if hasattr(args, "seed"):
        payload.setdefault("seed", args.seed)
    print(f"# resolved: {json.dumps(payload, sort_keys=True)}", file=sys.stderr)


def _read(path: str, reader: Callable[[TextIO], T]) -> T:
    with open(path, "r", encoding="utf-8") as handle:
        return reader(handle)


def _load_table(args: argparse.Namespace) -> MassTable:
    if getattr(args, "mass_table", None):
        return _read(args.mass_table, load_mass_table)
    return default_mass_table()


def _read_corpus(args) -> tuple[list[RawSpectrum], list[pipeline.CandidateSet]]:
    """The --mgf spectra and the --candidates sets."""
    return _read(args.mgf, parse_mgf), _read(args.candidates, pipeline.load_candidates)


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """Write to ``path``, or to stdout when it is absent or ``-``."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as sink:
            yield sink


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_metrics(args) -> int:
    table = _load_table(args)
    _echo(args, {"subcommand": "metrics", "pairs": args.pairs})
    gap = gap_penalty(table)
    pairs = []  # every pair parses before the output is opened
    with open(args.pairs, "r", encoding="utf-8") as handle:
        header_allowed = True  # only the first non-blank, non-comment line
        for lineno, line in enumerate(handle, start=1):
            text = line.rstrip("\n")
            if not text or text.startswith("#"):
                continue
            parts = text.split("\t")
            if len(parts) != 2:
                raise ValueError(
                    f"{args.pairs}:{lineno}: expected 'query<TAB>target'"
                )
            if header_allowed and parts == ["query", "target"]:
                header_allowed = False
                continue
            header_allowed = False
            try:
                pairs.append((parts, *(parse_peptide(part, table) for part in parts)))
            except ValueError as exc:
                raise ValueError(f"{args.pairs}:{lineno}: {exc}") from None
    scores = pmd_many([(query, target) for _, query, target in pairs], table, gap=gap).tolist()
    with _output(args.out) as sink:
        sink.write("query\ttarget\tpmd\trmd\n")
        for (parts, query, target), score in zip(pairs, scores):
            if len(query) and len(target):
                deviations = ",".join(
                    repr(float(v)) for v in rmd(query, target, table)
                )
            else:
                deviations = ""  # rmd is defined only for non-empty pairs
            sink.write(f"{parts[0]}\t{parts[1]}\t{score!r}\t{deviations}\n")
    return 0


def _cmd_preprocess(args) -> int:
    table = _load_table(args)
    _echo(args, {"subcommand": "preprocess", "mgf": args.mgf, "strict": args.strict})
    spectra = _read(args.mgf, parse_mgf)
    kept, exclusions = [], []
    for raw in spectra:
        label = (None if raw.label is None
                 else pipeline.parse_peptides(raw.spectrum_id, [raw.label], table)[0])
        processed, reason = pipeline.gate_spectrum(raw, label, table)
        if reason is None:
            kept.append(processed)
        else:
            pipeline.skip_record(exclusions, raw.spectrum_id, reason, args.strict)
    with open(args.out, "w", encoding="utf-8") as sink:
        write_mgf((spec.to_raw() for spec in kept), sink)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as sink:
            sink.write("spectrum_id\treason\n")
            for spectrum_id, reason in exclusions:
                sink.write(f"{spectrum_id}\t{reason}\n")
    print(f"# kept {len(kept)} of {len(spectra)} spectra", file=sys.stderr)
    return 0


def _cmd_synth(args) -> int:
    table = _load_table(args)
    config = pipeline.SynthConfig(n_candidates=args.n_candidates)
    _echo(args, {"subcommand": "synth", "n_spectra": args.n_spectra,
                 "config": dataclasses.asdict(config)})
    spectra, candidate_sets = pipeline.synthesize_dataset(
        table, args.seed, args.n_spectra, config
    )
    with open(args.out_mgf, "w", encoding="utf-8") as sink:
        write_mgf(spectra, sink)
    with open(args.out_candidates, "w", encoding="utf-8") as sink:
        pipeline.write_candidates(candidate_sets, sink)
    return 0


def _train_config(args, vocab: Sequence[str]) -> pipeline.TrainConfig:
    if args.profile == "desk":
        config = pipeline.TrainConfig.desk(vocab)
    else:
        config = pipeline.TrainConfig.paper_scale(vocab)
    if args.config:
        overrides = _read(args.config, json.load)
        if not isinstance(overrides, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        unknown = set(overrides) - set(CONFIG_MODEL_KEYS) - set(CONFIG_TRAIN_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        model = ModelConfig.from_dict({
            **config.model.to_dict(),
            **{k: v for k, v in overrides.items() if k in CONFIG_MODEL_KEYS},
        })
        config = dataclasses.replace(
            config, model=model,
            **{k: v for k, v in overrides.items() if k in CONFIG_TRAIN_KEYS},
        )
    return config


def _cmd_train(args) -> int:
    table = _load_table(args)
    config = _train_config(args, table.tokens)
    _echo(args, {"subcommand": "train", "profile": args.profile,
                 "model": config.model.to_dict(),
                 "train": {k: getattr(config, k) for k in CONFIG_TRAIN_KEYS}})
    spectra, candidate_sets = _read_corpus(args)
    instances, excluded = pipeline.build_training_set(
        spectra, candidate_sets, table, config.model.embedding
    )
    print(f"# training on {len(instances)} instances ({len(excluded)} excluded)",
          file=sys.stderr)
    with (open(args.loss_log, "w", encoding="utf-8") if args.loss_log
          else contextlib.nullcontext()) as log_sink:
        checkpoint, _history = pipeline.train(
            config, instances, table, seed=args.seed, log_sink=log_sink
        )
    pipeline.save_checkpoint(checkpoint, args.out)
    return 0


def _cmd_rerank(args) -> int:
    table = _load_table(args)
    checkpoint = pipeline.load_checkpoint(args.checkpoint)
    _echo(args, {"subcommand": "rerank", "checkpoint": args.checkpoint,
                 "model": checkpoint.config.to_dict(), "seed": checkpoint.seed})
    model = checkpoint.build_model(table)
    spectra, candidate_sets = _read_corpus(args)
    selections = pipeline.rerank_run(model, spectra, candidate_sets, strict=args.strict)
    print(f"# reranked {len(selections)} of {len(candidate_sets)} spectra "
          f"({len(candidate_sets) - len(selections)} excluded)", file=sys.stderr)
    with _output(args.out) as sink:
        pipeline.write_selections(selections, sink)
    return 0


def _selected_records(args) -> list[tuple[pipeline.Selection, pipeline.CandidateSet]]:
    """Each --selections row with its --candidates record, which must carry a
    label, one candidate per score and the selected candidate at its index."""
    selections = _read(args.selections, pipeline.read_selections)
    by_id = {cs.spectrum_id: cs for cs in _read(args.candidates, pipeline.load_candidates)}
    joined = []
    for sel in selections:
        cs = by_id.get(sel.spectrum_id)
        if cs is None:
            raise ValueError(f"selection {sel.spectrum_id!r} has no candidate record")
        if cs.label is None:
            raise ValueError(f"spectrum {sel.spectrum_id!r} has no label")
        if (len(sel.scores) != len(cs.candidates)  # so that the selected index is in range
                or cs.candidates[sel.index] != (sel.model_name, sel.peptide)):
            raise ValueError(f"spectrum {sel.spectrum_id!r}: selection {sel.index} "
                             f"({sel.model_name} {sel.peptide}, {len(sel.scores)} scores) "
                             f"does not match its {len(cs.candidates)} candidates")
        joined.append((sel, cs))
    return joined


def _evaluation_pairs(args, table: MassTable):
    """(pred, truth) peptide pairs from either input layout."""
    if args.predictions:
        records = _read(args.predictions, pipeline.load_predictions)
        return [pipeline.parse_peptides(r["spectrum_id"], [r["pred"], r["truth"]], table)
                for r in records]
    if not (args.selections and args.candidates):
        raise ValueError(
            "provide either --predictions or both --selections and --candidates"
        )
    return [pipeline.parse_peptides(sel.spectrum_id, [sel.peptide, cs.label], table)
            for sel, cs in _selected_records(args)]


def _cmd_evaluate(args) -> int:
    table = _load_table(args)
    _echo(args, {"subcommand": "evaluate"})
    pairs = _evaluation_pairs(args, table)
    stats = corpus_stats(pairs, table)
    with _output(args.out) as sink:
        sink.write("metric\tvalue\n")
        sink.write(f"n_match_pep\t{stats.n_match_pep}\n")
        sink.write(f"n_all_pep\t{stats.n_all_pep}\n")
        sink.write(f"n_match_aa\t{stats.n_match_aa}\n")
        sink.write(f"n_all_aa\t{stats.n_all_aa}\n")
        sink.write(f"aa_precision\t{stats.aa_precision!r}\n")
        sink.write(f"peptide_recall\t{stats.peptide_recall!r}\n")
    return 0


def _parse_bins(text: str) -> list[tuple[int, int]]:
    bins = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        lo, hi = chunk.split("-", 1) if "-" in chunk else (chunk, chunk)
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise ValueError(f"--bins: chunk {chunk!r} is not N or LO-HI") from None
        if lo > hi:
            raise ValueError(f"--bins: chunk {chunk!r} has lo > hi")
        for other, (other_lo, other_hi) in bins:
            if lo <= other_hi and other_lo <= hi:
                raise ValueError(f"--bins: chunks {other!r} and {chunk!r} overlap")
        bins.append((chunk, (lo, hi)))
    return [bounds for _, bounds in bins]


def _cmd_analyze(args) -> int:
    table = _load_table(args)
    _echo(args, {"subcommand": "analyze", "analysis": args.analysis})
    with _output(args.out) as sink:
        if args.analysis == "length":
            if not (args.predictions and args.bins):
                raise ValueError("length analysis needs --predictions and --bins")
            pairs = _evaluation_pairs(args, table)
            recalls = length_binned_recall(pairs, table, _parse_bins(args.bins))
            sink.write("bin_lo\tbin_hi\tpeptide_recall\n")
            for (lo, hi), recall in sorted(recalls.items()):
                sink.write(f"{lo}\t{hi}\t{recall!r}\n")
        elif args.analysis == "confusion":
            if not args.predictions:
                raise ValueError("confusion analysis needs --predictions")
            pairs = _evaluation_pairs(args, table)
            recalls = residue_confusion(pairs, table)
            sink.write("token\trecall\n")
            for token in sorted(recalls):
                sink.write(f"{token}\t{recalls[token]!r}\n")
        elif args.analysis == "contribution":
            if not (args.selections and args.candidates):
                raise ValueError("contribution analysis needs --selections and --candidates")
            records = []
            for sel, cs in _selected_records(args):
                *candidates, selected, truth = pipeline.parse_peptides(
                    sel.spectrum_id, [*cs.peptides, sel.peptide, cs.label], table)
                models = [model for model, _ in cs.candidates]
                records.append((list(zip(models, candidates)), selected, truth))
            shares = contribution_analysis(records, table)
            sink.write("model\tshare\n")
            for model in sorted(shares):
                sink.write(f"{model}\t{shares[model]!r}\n")
        elif args.analysis == "zeroshot":
            if not (args.checkpoint and args.mgf and args.candidates and args.subsets):
                raise ValueError(
                    "zeroshot analysis needs --checkpoint, --mgf, --candidates, --subsets"
                )
            checkpoint = pipeline.load_checkpoint(args.checkpoint)
            model = checkpoint.build_model(table)
            spectra, candidate_sets = _read_corpus(args)
            subsets = [
                [name.strip() for name in chunk.split(",") if name.strip()]
                for chunk in args.subsets.split(";")
                if chunk.strip()
            ]
            reports = pipeline.zero_shot_eval(model, spectra, candidate_sets, subsets)
            sink.write("subset\tn_spectra\tpeptide_recall\n")
            for report in reports:
                sink.write(
                    f"{','.join(report.models)}\t{report.n_spectra}\t{report.peptide_recall!r}\n"
                )
        else:  # unreachable behind argparse choices
            raise ValueError(f"unknown analysis {args.analysis!r}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> CliParser:
    parser = CliParser(prog="peprank", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=CliParser)

    def common(p, seed=False, strict=False):
        p.add_argument("--mass-table", help="residue mass TSV (default: built-in table)")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if strict:
            p.add_argument("--strict", action="store_true",
                           help="turn ingestion warnings into failures")

    p = sub.add_parser("metrics", help="peptide-pair mass deviation scores from a TSV")
    common(p)
    p.add_argument("--pairs", required=True, help="TSV with query and target columns")
    p.add_argument("--out", help="output TSV (default: stdout)")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("preprocess", help="filter an MGF and emit an exclusion report")
    common(p, strict=True)
    p.add_argument("--mgf", required=True)
    p.add_argument("--out", required=True, help="filtered MGF path")
    p.add_argument("--report", help="exclusion report TSV")
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("synth", help="generate a labeled synthetic corpus")
    common(p, seed=True)
    p.add_argument("--n-spectra", type=int, required=True)
    p.add_argument("--n-candidates", type=int, default=4)
    p.add_argument("--out-mgf", required=True)
    p.add_argument("--out-candidates", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a reranker on labeled spectra + candidates")
    common(p, seed=True)
    p.add_argument("--mgf", required=True)
    p.add_argument("--candidates", required=True)
    p.add_argument("--profile", choices=("desk", "paper"), default="desk")
    p.add_argument("--config", help="JSON file overriding profile hyperparameters")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--loss-log", help="per-step loss TSV")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("rerank", help="select candidates with a trained checkpoint")
    common(p, strict=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mgf", required=True)
    p.add_argument("--candidates", required=True)
    p.add_argument("--out", help="selections TSV (default: stdout)")
    p.set_defaults(func=_cmd_rerank)

    p = sub.add_parser("evaluate", help="corpus precision/recall report")
    common(p)
    p.add_argument("--predictions", help="JSON Lines with pred/truth per spectrum")
    p.add_argument("--selections", help="selections TSV from rerank")
    p.add_argument("--candidates", help="candidate JSONL with labels")
    p.add_argument("--out", help="report TSV (default: stdout)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("analyze", help="length / confusion / contribution / zero-shot reports")
    common(p)
    p.add_argument("--analysis", required=True,
                   choices=("length", "confusion", "contribution", "zeroshot"))
    p.add_argument("--predictions")
    p.add_argument("--selections")
    p.add_argument("--candidates")
    p.add_argument("--checkpoint")
    p.add_argument("--mgf")
    p.add_argument("--bins", help="length bins, e.g. '7-9,10-12,13-20'")
    p.add_argument("--subsets", help="model subsets, e.g. 'model_1;model_1,model_2'")
    p.add_argument("--out", help="report TSV (default: stdout)")
    p.set_defaults(func=_cmd_analyze)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
