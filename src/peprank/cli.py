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
import ctypes
import dataclasses
import itertools
import json
import os
import sys
from typing import Callable, Iterable, Iterator, Sequence, TextIO, TypeVar

import numpy as np

from . import pipeline
from .evaluation import (
    contribution_analysis,
    corpus_stats,
    length_binned_recall,
    residue_confusion,
)
from .masses import (MassTable, Peptide, default_mass_table, load_mass_table, parse_lines,
                     parse_peptide, tab_fields)
from .metrics import gap_penalty, pmd_many, rmd
from .model import MODEL_KEYS, ModelConfig
from .spectra import parse_mgf, write_mgf

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


def _named(path: str, call: Callable[..., T], *args, **kwargs) -> T:
    """``call(*args, **kwargs)``, whose ValueError ``line N: reason`` becomes
    ``path:N: reason``, and any other ``path: reason``."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        line, _, reason = str(exc).partition(": ")
        raise ValueError(f"{path}:{line[5:]}: {reason}" if line[:5] == "line " and
                         line[5:].isdigit() else f"{path}: {exc}") from None


def _read(path: str, reader: Callable[[TextIO], T],
          check: Callable[[T], object] | None = None) -> T:
    """``reader`` of the file at ``path``, then ``check`` of it if given, both :func:`_named`."""
    with open(path, "r", encoding="utf-8") as handle:
        result = _named(path, reader, handle)
    if check is not None:
        _named(path, check, result)
    return result


def _load_table(args: argparse.Namespace, scores_pmd: bool = False) -> MassTable:
    """The --mass-table, else the default table; with ``scores_pmd``, one that
    has a PMD gap penalty, checked while the file is read."""
    if getattr(args, "mass_table", None):
        return _read(args.mass_table, load_mass_table, gap_penalty if scores_pmd else None)
    return default_mass_table()


def _label(spectrum_id: str, text: str | None, table: MassTable) -> Peptide | None:
    """The label peptide of ``text``, or None without one; an error names the spectrum."""
    return None if text is None else pipeline.parse_peptides(spectrum_id, [text], table)[0]


def _read_spectra(path: str, table: MassTable) -> list[tuple]:
    """Each spectrum of the MGF at ``path`` with its :func:`_label`, parsed as it is read."""
    return _read(path, lambda handle: [(raw, _label(raw.spectrum_id, raw.label, table))
                                       for raw in parse_mgf(handle)])


def _read_pairs(source: TextIO, table: MassTable) -> list[tuple]:
    """Each ``query<TAB>target`` line and its two peptides, after an optional header."""
    rows = itertools.count()  # numbers the data lines: only the first may be the header

    def pair(text: str) -> tuple | None:
        fields = tab_fields(text, 2, "expected 'query<TAB>target'")
        if next(rows) > 0 or fields != ["query", "target"]:
            return fields, *(parse_peptide(field, table) for field in fields)

    return [row for row in parse_lines(source, pair, comments=True, strip=False) if row]


def _write_report(path: str | None, header: str, rows: Iterable[Sequence]) -> None:
    """A TSV report: the header row, then each row's cells as ``str`` (a float's repr)."""
    with _output(path) as sink:
        sink.write(header + "\n")
        for row in rows:
            sink.write("\t".join(map(str, row)) + "\n")


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
    table = _load_table(args, scores_pmd=True)
    _echo(args, {"subcommand": "metrics", "pairs": args.pairs})
    pairs = _read(args.pairs, lambda handle: _read_pairs(handle, table))  # before any output
    scores = pmd_many([(query, target) for _, query, target in pairs], table).tolist()
    _write_report(args.out, "query\ttarget\tpmd\trmd", (
        (*fields, score, ",".join(map(repr, rmd(query, target, table).tolist()))
         if len(query) and len(target) else "")  # rmd needs two non-empty peptides
        for (fields, query, target), score in zip(pairs, scores)))
    return 0


def _cmd_preprocess(args) -> int:
    table = _load_table(args)
    _echo(args, {"subcommand": "preprocess", "mgf": args.mgf, "strict": args.strict})
    spectra = _read_spectra(args.mgf, table)
    kept, exclusions = [], []
    for raw, label in spectra:
        processed, reason = pipeline.gate_spectrum(raw, label, table)
        if reason is None:
            kept.append(processed)
        else:
            pipeline.skip_record(exclusions, raw.spectrum_id, reason, args.strict)
    with open(args.out, "w", encoding="utf-8") as sink:
        write_mgf((spec.to_raw() for spec in kept), sink)
    if args.report:
        _write_report(args.report, "spectrum_id\treason", exclusions)
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


def _config_object(source: TextIO) -> dict:
    if not isinstance(value := json.load(source), dict):
        raise ValueError("config must be a JSON object")
    return value


def _train_config(args, vocab: Sequence[str]) -> pipeline.TrainConfig:
    if args.profile == "desk":
        config = pipeline.TrainConfig.desk(vocab)
    else:
        config = pipeline.TrainConfig.paper_scale(vocab)
    if args.config:
        overrides = _read(args.config, _config_object)
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
    table = _load_table(args, scores_pmd=True)
    config = _train_config(args, table.tokens)
    _echo(args, {"subcommand": "train", "profile": args.profile,
                 "model": config.model.to_dict(),
                 "train": {k: getattr(config, k) for k in CONFIG_TRAIN_KEYS}})
    spectra = [raw for raw, _ in _read_spectra(args.mgf, table)]
    candidate_sets = _read(args.candidates, pipeline.load_candidates)
    instances, excluded = _named(args.candidates, pipeline.build_training_set,
                                 spectra, candidate_sets, table, config.model.embedding)
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
    checkpoint = _named(args.checkpoint, pipeline.load_checkpoint, args.checkpoint)
    get_threads = _openblas("get_num_threads")
    _echo(args, {"subcommand": "rerank", "checkpoint": args.checkpoint,
                 "model": checkpoint.config.to_dict(), "seed": checkpoint.seed,
                 "blas_threads": get_threads() if get_threads else None})
    model = _named(args.checkpoint, checkpoint.build_model, table)
    spectra = [raw for raw, _ in _read_spectra(args.mgf, table)]
    candidate_sets = _read(args.candidates, pipeline.load_candidates)
    selections = _named(args.candidates, pipeline.rerank_run, model, spectra, candidate_sets,
                        strict=args.strict)
    print(f"# reranked {len(selections)} of {len(candidate_sets)} spectra "
          f"({len(candidate_sets) - len(selections)} excluded)", file=sys.stderr)
    with _output(args.out) as sink:
        pipeline.write_selections(selections, sink)
    return 0


def _corpus(records: list) -> None:
    if not records:
        raise ValueError("corpus is empty")


def _matched(sel: pipeline.Selection, record: tuple | None) -> tuple:
    """A selection's parsed record, checked: labeled, one candidate per score, the selected
    one at its index. Returns what :func:`contribution_analysis` takes of a record."""
    if record is None:
        raise ValueError(f"selection {sel.spectrum_id!r} has no candidate record")
    cs, candidates, label = record
    if label is None:
        raise ValueError(f"spectrum {sel.spectrum_id!r} has no label")
    if (len(sel.scores) != len(cs.candidates)  # so that the selected index is in range
            or cs.candidates[sel.index] != (sel.model_name, sel.peptide)):
        raise ValueError(f"spectrum {sel.spectrum_id!r}: selection {sel.index} "
                         f"({sel.model_name!r} {sel.peptide!r}, {len(sel.scores)} scores) "
                         f"does not match its {len(cs.candidates)} candidates")
    return [(m, c) for (m, _), c in zip(cs.candidates, candidates)], candidates[sel.index], label


def _selected_records(args, table: MassTable, check=None) -> list[tuple]:
    """Each --selections row's :func:`_matched` --candidates record, whose peptides and
    :func:`_label` are parsed as that file is read; the list is passed to ``check``.
    Errors name the file they come from."""
    by_id = _read(args.candidates, lambda handle: {cs.spectrum_id: (
        cs, pipeline.parse_peptides(cs.spectrum_id, cs.peptides, table),
        _label(cs.spectrum_id, cs.label, table)) for cs in pipeline.load_candidates(handle)})
    return _read(args.selections, lambda handle: [
        _matched(sel, by_id.get(sel.spectrum_id))
        for sel in pipeline.read_selections(handle)], check)


def _evaluation_pairs(args, table: MassTable):
    """(pred, truth) peptide pairs from either input layout."""
    if args.predictions:
        return _read(args.predictions, lambda handle: [
            pipeline.parse_peptides(r["spectrum_id"], [r["pred"], r["truth"]], table)
            for r in pipeline.load_predictions(handle)], _corpus)
    if not (args.selections and args.candidates):
        raise ValueError(
            "provide either --predictions or both --selections and --candidates"
        )
    return [(selected, label) for _, selected, label in _selected_records(args, table, _corpus)]


def _cmd_evaluate(args) -> int:
    table = _load_table(args)
    _echo(args, {"subcommand": "evaluate"})
    stats = corpus_stats(_evaluation_pairs(args, table), table)
    _write_report(args.out, "metric\tvalue", [
        (name, getattr(stats, name)) for name in ("n_match_pep", "n_all_pep", "n_match_aa",
                                                  "n_all_aa", "aa_precision", "peptide_recall")])
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
    if args.analysis == "length":
        if not (args.predictions and args.bins):
            raise ValueError("length analysis needs --predictions and --bins")
        pairs = _evaluation_pairs(args, table)
        recalls = length_binned_recall(pairs, table, _parse_bins(args.bins))
        header, rows = "bin_lo\tbin_hi\tpeptide_recall", [
            (lo, hi, recall) for (lo, hi), recall in sorted(recalls.items())]
    elif args.analysis == "confusion":
        if not args.predictions:
            raise ValueError("confusion analysis needs --predictions")
        recalls = residue_confusion(_evaluation_pairs(args, table), table)
        header, rows = "token\trecall", [(token, recalls[token]) for token in sorted(recalls)]
    elif args.analysis == "contribution":
        if not (args.selections and args.candidates):
            raise ValueError("contribution analysis needs --selections and --candidates")
        shares = contribution_analysis(_selected_records(args, table, _corpus), table)
        header, rows = "model\tshare", [(model, shares[model]) for model in sorted(shares)]
    else:  # zeroshot, the last of argparse's choices
        if not (args.checkpoint and args.mgf and args.candidates and args.subsets):
            raise ValueError(
                "zeroshot analysis needs --checkpoint, --mgf, --candidates, --subsets"
            )
        subsets = [
            [name.strip() for name in chunk.split(",") if name.strip()]
            for chunk in args.subsets.split(";")
            if chunk.strip()
        ]
        if not subsets:
            raise ValueError(f"--subsets {args.subsets!r} names no model")
        checkpoint = _named(args.checkpoint, pipeline.load_checkpoint, args.checkpoint)
        model = _named(args.checkpoint, checkpoint.build_model, table)
        spectra = [raw for raw, _ in _read_spectra(args.mgf, table)]
        candidate_sets = _read(args.candidates, pipeline.load_candidates)
        reports = _named(args.candidates, pipeline.zero_shot_eval, model, spectra,
                         candidate_sets, subsets)
        header, rows = "subset\tn_spectra\tpeptide_recall", [
            (",".join(subset), stats.n_all_pep, stats.peptide_recall)
            for subset, stats in zip(subsets, reports)]
    _write_report(args.out, header, rows)  # once every input has been read
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


def _openblas(call: str) -> Callable[..., int] | None:
    """numpy's OpenBLAS ``set_num_threads`` or ``get_num_threads``, or None without one."""
    try:
        library = ctypes.CDLL((getattr(np, "_core", None) or np.core)._multiarray_umath.__file__)
    except OSError:
        return None
    return next((getattr(library, name) for name in (
        f"scipy_openblas_{call}64_", f"openblas_{call}64_", f"openblas_{call}")
        if hasattr(library, name)), None)


def entrypoint() -> None:
    # rerank scores on two threads; BLAS threads of each would oversubscribe the
    # CPUs and busy-wait. An explicit thread variable wins.
    if (not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"} & set(os.environ)
            and (set_threads := _openblas("set_num_threads"))):
        set_threads(1)
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
