"""Dataset plumbing, synthetic data, the training loop, and reranking runs.

Candidate files are JSON Lines, one record per spectrum:
``{"spectrum_id": ..., "candidates": [{"model": ..., "peptide": ...}],
"label": ...}`` with label optional. Selections are written as TSV.
Checkpoints use a small binary container (magic ``RNKV``).
"""

from __future__ import annotations

import io
import json
import logging
import math
import os
import struct
from dataclasses import dataclass, replace
from typing import Iterable, Sequence, TextIO

import numpy as np

from . import autograd as ag, threads
from .autograd import ParameterStore, Tensor
from .encoders import EmbeddingConfig, check_field_types, grid_shapes
from .evaluation import CorpusStats, corpus_stats, pair_matches
from .evaluation import aa_match  # noqa: F401  (perfbench's tracer wraps pipeline.aa_match)
from .masses import (
    PROTON_MASS,
    WATER_MASS,
    MassTable,
    Peptide,
    Precursor,
    cumulative_masses,
    parse_lines,
    parse_peptide,
    peptide_neutral_mass,
    tab_fields,
)
from .metrics import pmd_many, rmd_many
from .metrics import pmd, rmd  # noqa: F401  (perfbench's tracer wraps pipeline.pmd and .rmd)
from .model import ModelConfig, RerankModel, joint_loss, rerank_select
from .spectra import (MZ_MAX, MZ_MIN, ProcessedSpectrum, RawSpectrum, preprocess_spectrum,
                      validate_precursor)

logger = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"RNKV"
CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------------
# candidate files


@dataclass
class CandidateSet:
    """One spectrum's candidates, in file order, with optional label text."""

    spectrum_id: str
    candidates: list[tuple[str, str]]  # (model name, peptide text)
    label: str | None = None

    @property
    def peptides(self) -> list[str]:
        return [peptide for _, peptide in self.candidates]


def _json_object(text: str) -> dict:
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON ({exc.msg})") from None
    if not isinstance(record, dict):
        raise ValueError("record must be a JSON object")
    return record


def _require_strings(record: dict, keys: tuple[str, ...], peptides: tuple[str, ...] = ()) -> None:
    """Each of ``keys`` and ``peptides`` is a string field, and each peptide non-empty."""
    for key in keys + peptides:
        if key not in record:
            raise ValueError(f"missing field {key!r}")
        if not isinstance(record[key], str):
            raise ValueError(f"{key!r} must be a string, got {record[key]!r}")
    for key in peptides:
        if not record[key]:
            raise ValueError(f"{key!r} must be a non-empty peptide")


def _spectrum_id(record: CandidateSet | Selection) -> str:
    return f"spectrum_id {record.spectrum_id!r}"


def _candidate_set(text: str) -> CandidateSet:
    record = _json_object(text)
    _require_strings(record, ("spectrum_id",))
    spectrum_id, raw_candidates = record["spectrum_id"], record.get("candidates")
    if not spectrum_id:
        raise ValueError("spectrum_id must be a non-empty string")
    if not isinstance(raw_candidates, list) or not raw_candidates:
        raise ValueError("candidates must be a non-empty list")
    for entry in raw_candidates:
        if not isinstance(entry, dict):
            raise ValueError("each candidate must be a JSON object")
        _require_strings(entry, ("model",), ("peptide",))
    names = [("spectrum_id", spectrum_id)] + [("model", c["model"]) for c in raw_candidates]
    for key, value in names:  # each is one field of a selections row
        if "\t" in value or "\r" in value or "\n" in value:
            raise ValueError(f"{key} {value!r} holds a tab or line break")
    label = record.get("label")
    if label is not None:
        _require_strings(record, (), ("label",))
    return CandidateSet(spectrum_id, [(c["model"], c["peptide"]) for c in raw_candidates], label)


def load_candidates(source: TextIO | Iterable[str]) -> list[CandidateSet]:
    """Parse a JSON Lines candidate file, in file order; a duplicate
    ``spectrum_id`` is an error that names its line."""
    return parse_lines(source, _candidate_set, unique=_spectrum_id)


def write_candidates(sets: Iterable[CandidateSet], sink: TextIO) -> None:
    for cs in sets:
        record: dict = {
            "spectrum_id": cs.spectrum_id,
            "candidates": [{"model": m, "peptide": p} for m, p in cs.candidates],
        }
        if cs.label is not None:
            record["label"] = cs.label
        sink.write(json.dumps(record) + "\n")


def _prediction(text: str) -> dict:
    record = _json_object(text)
    _require_strings(record, ("spectrum_id",), ("pred", "truth"))
    return record


def load_predictions(source: TextIO | Iterable[str]) -> list[dict]:
    """Parse a prediction corpus: JSON Lines of spectrum_id / pred / truth."""
    return parse_lines(source, _prediction,
                       unique=lambda record: f"spectrum_id {record['spectrum_id']!r}")


# ---------------------------------------------------------------------------
# record admission


def parse_peptides(spectrum_id: str, texts: Sequence[str], table: MassTable) -> list[Peptide]:
    """One spectrum's peptides, in order; a parse error names the spectrum."""
    try:
        return [parse_peptide(text, table) for text in texts]
    except ValueError as exc:
        raise ValueError(f"spectrum {spectrum_id!r}: {exc}") from None


def parse_record(spectrum_id: str, label_text: str | None, texts: Sequence[str],
                 table: MassTable) -> tuple[Peptide | None, list[Peptide]]:
    """A record's label (None without ``label_text``) and its peptides
    ``texts``, in order, each distinct text parsed once, the label's first;
    a parse error names the spectrum."""
    distinct = list(dict.fromkeys(([] if label_text is None else [label_text]) + list(texts)))
    parsed = dict(zip(distinct, parse_peptides(spectrum_id, distinct, table)))
    return None if label_text is None else parsed[label_text], [parsed[text] for text in texts]


def gate_spectrum(raw: RawSpectrum, label: Peptide | None,
                  table: MassTable) -> tuple[ProcessedSpectrum | None, str | None]:
    """Precursor check against the label (when given), then preprocessing.
    Returns ``(processed, None)`` or ``(None, reason)``."""
    if label is not None and not validate_precursor(raw, label, table):
        return None, "precursor_mismatch"
    processed = preprocess_spectrum(raw)
    return processed, (None if processed is not None else "empty_after_preprocessing")


def skip_record(excluded: list[tuple[str, str]], spectrum_id: str, reason: str,
                strict: bool, detail: str = "") -> None:
    """Log and list one excluded record; with ``strict``, raise instead."""
    message = f"spectrum {spectrum_id!r} excluded: {reason}{detail}"
    if strict:
        raise ValueError(message)
    logger.warning("%s", message)
    excluded.append((spectrum_id, reason))


def admit_records(spectra: Sequence[RawSpectrum], candidate_sets: Sequence[CandidateSet],
                  table: MassTable, limits: EmbeddingConfig, labeled: bool,
                  strict: bool = False) -> tuple[list[tuple], list[tuple[str, str]]]:
    """Decide which candidate sets a run uses, and why not the others.

    Joins each set to its spectrum by id, resolves the label (the set's,
    else the spectrum's) when ``labeled``, parses every peptide, applies
    the model's ``limits`` and then :func:`gate_spectrum`. Each distinct
    peptide text is parsed once, the label's first. Unless ``labeled``, the
    label is the set's own (None without one): it is parsed and returned,
    but neither counts toward ``max_len`` nor gates the precursor. An
    unjoinable id, a missing label and an empty or unparseable peptide are
    hard errors. Admitted: ``(candidate_set, processed, candidates, label)``.
    """
    by_id = {s.spectrum_id: s for s in spectra}
    admitted: list[tuple] = []
    excluded: list[tuple[str, str]] = []
    for cs in candidate_sets:
        spectrum_id = cs.spectrum_id
        raw = by_id.get(spectrum_id)
        if raw is None:
            raise ValueError(f"candidate set {spectrum_id!r} has no matching spectrum")
        label_text = raw.label if labeled and cs.label is None else cs.label
        if labeled and label_text is None:
            raise ValueError(f"spectrum {spectrum_id!r} has no label peptide")
        label, candidates = parse_record(spectrum_id, label_text, cs.peptides, table)
        peptides = candidates + ([label] if labeled else [])
        if not all(peptides):
            raise ValueError(f"spectrum {spectrum_id!r} has an empty label or candidate")
        longest, charge = max(len(p) for p in peptides), raw.precursor.charge
        if longest > limits.max_len:
            skip_record(excluded, spectrum_id, "too_long", strict,
                        f" ({longest} residues, max_len={limits.max_len})")
        elif not 1 <= charge <= limits.max_charge:
            skip_record(excluded, spectrum_id, "charge_out_of_range", strict,
                        f" (charge {charge}, max_charge={limits.max_charge})")
        else:
            processed, reason = gate_spectrum(raw, label if labeled else None, table)
            if reason is not None:
                skip_record(excluded, spectrum_id, reason, strict)
            else:
                admitted.append((cs, processed, candidates, label))
    return admitted, excluded


# ---------------------------------------------------------------------------
# training instances


@dataclass
class TrainingInstance:
    """One spectrum joined with its candidates and supervision targets."""

    spectrum: ProcessedSpectrum
    candidates: list[Peptide]
    pmd_targets: np.ndarray  # [c]
    rmd_targets: list[np.ndarray]  # per candidate, one value per residue


def build_training_set(
    spectra: Sequence[RawSpectrum],
    candidate_sets: Sequence[CandidateSet],
    table: MassTable,
    limits: EmbeddingConfig = EmbeddingConfig(d=64),
) -> tuple[list[TrainingInstance], list[tuple[str, str]]]:
    """Admit labeled records under the model's ``limits`` and compute their
    supervision targets. Admitted records whose candidates all match the
    label carry no ranking signal; they are excluded last, as
    ``all_candidates_correct``. A peptide match needs the label's length, so
    only records whose candidates all have it are matched, in one walk.
    """
    admitted, excluded = admit_records(spectra, candidate_sets, table, limits, labeled=True)
    gated = [(k, c, label) for k, (_, _, candidates, label) in enumerate(admitted)
             if all(len(c) == len(label) for c in candidates) for c in candidates]
    _, matched = pair_matches([(c, label) for _, c, label in gated], table)
    all_correct = {k for k, _, _ in gated} - {k for (k, _, _), ok in zip(gated, matched) if not ok}
    kept = []
    for k, (cs, spectrum, candidates, label) in enumerate(admitted):
        if k in all_correct:
            skip_record(excluded, cs.spectrum_id, "all_candidates_correct", strict=False)
        else:
            kept.append((spectrum, candidates, label))
    targets = pmd_many([(c, label) for _, candidates, label in kept for c in candidates], table)
    splits = np.cumsum([len(candidates) for _, candidates, _ in kept])[:-1]
    instances = [
        TrainingInstance(
            spectrum=spectrum,
            candidates=candidates,
            pmd_targets=pmd_targets,
            rmd_targets=rmd_many(candidates, label, table),
        )
        for (spectrum, candidates, label), pmd_targets in zip(kept, np.split(targets, splits))
    ]
    return instances, excluded


# ---------------------------------------------------------------------------
# synthetic data

SYNTH_MIN_CHARGE, SYNTH_MAX_CHARGE = 2, 3  # precursor charges, drawn uniformly
MASS_SIMILARITY_SCALE = 10.0  # Da, softness of mutation preference


@dataclass(frozen=True)
class SynthConfig:
    """Shape of the generated desk-scale corpus."""

    n_candidates: int = 4  # label plus n-1 mutants
    min_length: int = 7
    max_length: int = 20
    noise_peaks: int = 8
    peak_dropout: float = 0.1

    def __post_init__(self):  # every record needs a candidate and a non-empty label
        if self.n_candidates < 1 or self.min_length < 1:
            raise ValueError(f"n_candidates and min_length must be at least 1, in {self}")


def _mutate(peptide: Peptide, table: MassTable, rng: np.random.Generator) -> Peptide:
    """One substitution, insertion, or deletion; substitutions prefer
    replacements of similar mass but never a mass-identical one."""
    residues = list(peptide.residues)
    kinds = ["substitution", "insertion"] + (["deletion"] if len(residues) > 1 else [])
    kind = kinds[rng.integers(len(kinds))]
    tokens = table.tokens
    if kind == "substitution":
        pos = int(rng.integers(len(residues)))
        current_mass = table.mass(residues[pos])
        options = [t for t in tokens if abs(table.mass(t) - current_mass) > 0.01]
        weights = np.array(
            [math.exp(-abs(table.mass(t) - current_mass) / MASS_SIMILARITY_SCALE)
             for t in options]
        )
        choice = options[rng.choice(len(options), p=weights / weights.sum())]
        residues[pos] = choice
    elif kind == "insertion":
        pos = int(rng.integers(len(residues) + 1))
        residues.insert(pos, tokens[rng.integers(len(tokens))])
    else:
        pos = int(rng.integers(len(residues)))
        del residues[pos]
    return Peptide(tuple(residues))


def synthesize_dataset(
    table: MassTable,
    seed: int,
    n_spectra: int,
    config: SynthConfig = SynthConfig(),
) -> tuple[list[RawSpectrum], list[CandidateSet]]:
    """Generate labeled spectra with candidate sets, reproducibly from the seed.

    Peaks are theoretical singly-charged b- and y-ions of the label plus
    uniform noise, with random peak dropout. Each candidate set holds the
    label and mutated variants, shuffled over the candidate slots so no
    slot is trivially correct; slot i is attributed to "model_{i+1}". A
    negative ``n_spectra`` is an error.
    """
    if n_spectra < 0:
        raise ValueError(f"n_spectra must be at least 0, got {n_spectra}")
    rng = np.random.default_rng(seed)
    tokens = table.tokens
    spectra: list[RawSpectrum] = []
    candidate_sets: list[CandidateSet] = []
    for index in range(n_spectra):
        length = int(rng.integers(config.min_length, config.max_length + 1))
        label = Peptide(tuple(tokens[i] for i in rng.integers(len(tokens), size=length)))
        neutral = peptide_neutral_mass(label, table)
        charge = int(rng.integers(SYNTH_MIN_CHARGE, SYNTH_MAX_CHARGE + 1))
        precursor = Precursor.from_mz((neutral + charge * PROTON_MASS) / charge, charge)

        prefixes = cumulative_masses(label, table, "prefix")
        suffixes = cumulative_masses(label, table, "suffix")
        ions = [prefixes[i] + PROTON_MASS for i in range(length - 1)]
        ions += [suffixes[i] + WATER_MASS + PROTON_MASS for i in range(1, length)]
        keep = rng.random(len(ions)) >= config.peak_dropout
        if not keep.any():
            keep[:] = True
        mzs = [ion for ion, k in zip(ions, keep) if k]
        intensities = list(rng.uniform(0.3, 1.0, size=len(mzs)))
        noise_mz = rng.uniform(MZ_MIN, min(MZ_MAX, neutral), size=config.noise_peaks)
        mzs += list(noise_mz)
        intensities += list(rng.uniform(0.02, 0.15, size=config.noise_peaks))

        spectrum_id = f"synth_{index:05d}"
        spectra.append(
            RawSpectrum(
                spectrum_id=spectrum_id,
                mz=np.array(mzs),
                intensity=np.array(intensities),
                precursor=precursor,
                label=label.render(),
            )
        )

        variants = [label] + [
            _mutate(label, table, rng) for _ in range(config.n_candidates - 1)
        ]
        slots: list[str | None] = [None] * config.n_candidates
        for variant, slot in zip(variants, rng.permutation(config.n_candidates)):
            slots[slot] = variant.render()
        candidate_sets.append(
            CandidateSet(
                spectrum_id=spectrum_id,
                candidates=[(f"model_{i + 1}", text) for i, text in enumerate(slots)],
                label=label.render(),
            )
        )
    return spectra, candidate_sets


# ---------------------------------------------------------------------------
# optimizer and schedule


class AdamW:
    """Adaptive-moment optimizer with decoupled weight decay."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, store: ParameterStore, weight_decay: float = 0.0):
        self.store = store
        self.weight_decay = weight_decay
        self.t = 0
        self._m = {name: np.zeros_like(t.data) for name, t in store.items()}
        self._v = {name: np.zeros_like(t.data) for name, t in store.items()}

    def step(self, lr: float) -> None:
        self.t += 1
        bias1 = 1.0 - self.BETA1 ** self.t
        bias2 = 1.0 - self.BETA2 ** self.t
        for name, param in self.store.items():
            grad = param.grad
            if grad is None:
                continue
            m = self._m[name]
            v = self._v[name]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * grad
            v *= self.BETA2
            v += (1.0 - self.BETA2) * grad * grad
            update = (m / bias1) / (np.sqrt(v / bias2) + self.EPS)
            param.data -= lr * (update + self.weight_decay * param.data)


def learning_rate(step: int, base_lr: float, warmup_steps: int, total_steps: int) -> float:
    """Linear warmup from zero, then cosine decay to zero."""
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * step / warmup_steps
    remaining = max(total_steps - warmup_steps, 1)
    progress = min((step - warmup_steps) / remaining, 1.0)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters around a model config."""

    model: ModelConfig
    lr: float = 1e-3
    weight_decay: float = 0.0
    batch_size: int = 16
    epochs: int = 30
    warmup_epochs: float = 1.0
    clip_norm: float = 1.5

    def __post_init__(self):
        check_field_types(self)
        for name, valid, rule in (
            ("lr", 0 < self.lr < math.inf, "finite and > 0"),
            ("weight_decay", 0 <= self.weight_decay < math.inf, "finite and >= 0"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("epochs", self.epochs >= 1, ">= 1"),
            ("warmup_epochs", 0 <= self.warmup_epochs < math.inf, "finite and >= 0"),
            ("clip_norm", 0 < self.clip_norm < math.inf, "finite and > 0"),
        ):
            if not valid:
                raise ValueError(f"TrainConfig: {name} must be {rule}, got {getattr(self, name)!r}")

    @classmethod
    def desk(cls, vocab: Sequence[str], **overrides) -> "TrainConfig":
        return replace(cls(model=ModelConfig.desk(vocab), epochs=60), **overrides)

    @classmethod
    def paper_scale(cls, vocab: Sequence[str]) -> "TrainConfig":
        return cls(
            model=ModelConfig.paper_scale(vocab),
            lr=1e-4,
            weight_decay=8e-5,
            batch_size=256,
            epochs=5,
        )


@dataclass
class StepRecord:
    step: int
    lr: float
    loss: float
    grad_norm: float


def minibatch_loss(model: RerankModel, instances: Sequence[TrainingInstance],
                   dropout_rng: np.random.Generator | None = None) -> Tensor:
    """Mean over the instances of each one's joint loss, from one packed
    forward with dropout drawn from ``dropout_rng`` (none without it)."""
    output, _ = model.forward(
        [i.spectrum for i in instances], [i.candidates for i in instances], dropout_rng
    )
    pmd_targets = [i.pmd_targets for i in instances]
    rmd_targets = [np.concatenate(i.rmd_targets) for i in instances]
    ids = np.arange(len(instances))
    return joint_loss(output, np.concatenate(pmd_targets), np.concatenate(rmd_targets),
                      model.config.loss_lambda,
                      (np.repeat(ids, [t.size for t in pmd_targets]),
                       np.repeat(ids, [t.size for t in rmd_targets])))


def train(
    config: TrainConfig,
    instances: Sequence[TrainingInstance],
    table: MassTable,
    seed: int = 0,
    log_sink: TextIO | None = None,
) -> tuple["Checkpoint", list[StepRecord]]:
    """Run the optimizer over the training instances.

    Deterministic given (config, instances, seed): parameter init, epoch
    shuffling, and dropout all derive from the seed. Each minibatch is one
    forward and one backward (:func:`minibatch_loss`); the backward
    consumes the step's graph. A non-finite loss or gradient norm aborts,
    before the optimizer step, and so does a trained model that gives the
    first instance a non-finite score (its parameters can be finite, yet
    large enough to overflow a forward).
    """
    if not instances:
        raise ValueError("training set is empty")
    model = RerankModel(config.model, table, seed=seed)
    optimizer = AdamW(model.store, weight_decay=config.weight_decay)
    data_rng = np.random.default_rng(seed + 1)
    dropout_rng = np.random.default_rng(seed + 2)

    n = len(instances)
    steps_per_epoch = math.ceil(n / config.batch_size)
    total_steps = config.epochs * steps_per_epoch
    warmup_steps = int(round(config.warmup_epochs * steps_per_epoch))

    history: list[StepRecord] = []
    if log_sink is not None:
        log_sink.write("step\tlr\tloss\tgrad_norm\n")
    step = 0
    for _epoch in range(config.epochs):
        order = data_rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = [instances[i] for i in order[start : start + config.batch_size]]
            lr = learning_rate(step, config.lr, warmup_steps, total_steps)
            model.store.zero_grad()
            loss = minibatch_loss(model, batch, dropout_rng)
            loss_value = float(loss.data)
            if not math.isfinite(loss_value):
                raise RuntimeError(
                    f"training diverged: non-finite loss {loss_value} at step {step} "
                    f"(lr={lr:.3g}); inspect targets and learning rate"
                )
            ag.backward(loss)
            grad_norm = model.store.clip_grad_norm(config.clip_norm)
            if not math.isfinite(grad_norm):  # before AdamW writes it into the parameters
                first = next((f"parameter {name!r}" for name, t in model.store.items()
                              if not np.isfinite(t.grad).all()), "none (their squares overflow)")
                raise RuntimeError(
                    f"training diverged: non-finite gradient norm {grad_norm} at step {step} "
                    f"(lr={lr:.3g}); first non-finite gradient: {first}"
                )
            optimizer.step(lr)
            record = StepRecord(step=step, lr=lr, loss=loss_value, grad_norm=grad_norm)
            history.append(record)
            if log_sink is not None:
                log_sink.write(f"{step}\t{lr!r}\t{loss_value!r}\t{grad_norm!r}\n")
            step += 1
    first = instances[0]
    with ag.no_grad(), np.errstate(all="ignore"):  # non-finite scores are checked below
        scores = model.forward(first.spectrum, first.candidates, residues=False)[0].pmd_pred.data
    if not np.isfinite(scores).all():
        raise RuntimeError(
            f"training diverged: the trained model scores spectrum "
            f"{first.spectrum.spectrum_id!r} {scores.tolist()} (lr={config.lr:.3g})"
        )
    checkpoint = Checkpoint(
        config=config.model,
        params=model.store.export_arrays(),
        seed=seed,
        step_count=step,
    )
    return checkpoint, history


# ---------------------------------------------------------------------------
# inference


@dataclass
class Selection:
    """One reranking decision with the full score vector."""

    spectrum_id: str
    index: int
    model_name: str
    peptide: str
    scores: list[float]


# grid cells per rerank forward: ~12 desk spectra or one wide one. Desk rerank
# in shape order read (spectra/s, seeds 11-13) 456-467 at 512, 475-486 at 768,
# 481-490 at 1024; 768 and 1024 tied on seeds 70-74, and a 1000-spectrum
# rerank's peak RSS grew 3.2 MB over 512 at 768 and 5.6 MB at 1024
RERANK_CHUNK_CELLS = 768
# mean preprocessed peaks per admitted spectrum from which a rerank scores odd
# chunks on a helper thread; threaded/serial rerank rate on 2 vCPUs, one BLAS
# thread: 0.94x at 24 peaks, 0.95x at 73, 1.35x at 81, 1.63x at 103, 1.62x at
# 143 (wide) and 300. A helper's malloc arena cost desk-train up to 9.6 MB RSS
RERANK_THREAD_MIN_PEAKS = 80


def cell_chunks(peaks: Sequence[int], shapes: np.ndarray) -> tuple[list[int], list[slice]]:
    """Shape order, the stable sort of spectra by (``peaks``, w_b, c_b) with
    (c_b, w_b) from ``shapes`` (see :func:`~peprank.encoders.grid_shapes`),
    cut into slices whose c_b x w_b grid cells sum to at most
    ``RERANK_CHUNK_CELLS``; a spectrum over it is a slice of its own."""
    shapes = np.asarray(shapes).tolist()
    order = sorted(range(len(shapes)), key=lambda b: (peaks[b], shapes[b][1], shapes[b][0]))
    chunks, start, total = [], 0, 0
    for i, b in enumerate(order):
        c, w = shapes[b]
        if i > start and total + c * w > RERANK_CHUNK_CELLS:
            chunks.append(slice(start, i))
            start, total = i, 0
        total += c * w
    if order:
        chunks.append(slice(start, len(order)))
    return order, chunks


def rerank_run(model: RerankModel, spectra: Sequence[RawSpectrum],
               candidate_sets: Sequence[CandidateSet], strict: bool = False) -> list[Selection]:
    """Forward every candidate set admitted, unlabeled, under the model's
    limits (see :func:`admit_records`) and pick per spectrum (see
    :func:`_rerank_admitted`)."""
    admitted, excluded = admit_records(spectra, candidate_sets, model.table,
                                       model.config.embedding, labeled=False, strict=strict)
    return [sel for sel, _ in _rerank_admitted(model, admitted, excluded, strict)]


def _rerank_admitted(model: RerankModel, admitted: list[tuple], excluded: list[tuple[str, str]],
                     strict: bool) -> list[tuple[Selection, tuple]]:
    """Each admitted record's selection, paired with the record.

    The admitted spectra are cut, in shape order, into chunks of at most
    ``RERANK_CHUNK_CELLS`` grid cells (see :func:`cell_chunks`), so that
    chunk-mates share attention groups, and each chunk is one forward that
    records no graph. No attention crosses spectra and the peptide head runs
    per spectrum, so each spectrum's scores are the bits of its B=1 forward.
    When the admitted spectra average at least ``RERANK_THREAD_MIN_PEAKS``
    peaks and the process may use two CPUs, the helper thread scores the
    odd chunks as one share (see :func:`peprank.threads.run`). The scores
    are then taken in file order: a spectrum with a non-finite score is
    excluded as ``non_finite_scores``, and selections keep file order. Rows
    keep candidate-file order; exact score ties resolve to the lowest index.
    """
    order, chunks = cell_chunks([processed.n_peaks for _, processed, _, _ in admitted],
                                grid_shapes([candidates for _, _, candidates, _ in admitted]))
    peaks = sum(processed.n_peaks for _, processed, _, _ in admitted)
    theirs = range(1, len(chunks), 2) if peaks >= RERANK_THREAD_MIN_PEAKS * len(admitted) else ()

    def score(chunk: slice) -> list:  # errstate is per thread; no_grad is the caller's
        rows = order[chunk]
        _, processed, candidates, _ = zip(*(admitted[b] for b in rows))
        with np.errstate(all="ignore"):  # non-finite scores are checked below
            output, batch = model.forward(processed, candidates, residues=False)
        return list(zip(rows, np.split(output.pmd_pred.data, np.cumsum(batch.shapes[:-1, 0]))))

    with ag.no_grad():
        scored = dict(pair for pairs in threads.run(score, chunks, theirs) for pair in pairs)
    picked: list[tuple[Selection, tuple]] = []
    for b, record in enumerate(admitted):
        cs, scores = record[0], scored[b]
        if not np.isfinite(scores).all():
            skip_record(excluded, cs.spectrum_id, "non_finite_scores", strict)
            continue
        index = rerank_select(scores)
        selection = Selection(cs.spectrum_id, index, *cs.candidates[index], scores.tolist())
        picked.append((selection, record))
    return picked


def write_selections(selections: Iterable[Selection], sink: TextIO) -> None:
    sink.write("spectrum_id\tselected_index\tselected_model\tselected_peptide\tscores\n")
    for sel in selections:
        scores = ",".join(repr(v) for v in sel.scores)
        sink.write(
            f"{sel.spectrum_id}\t{sel.index}\t{sel.model_name}\t{sel.peptide}\t{scores}\n"
        )


def _selection(text: str) -> Selection:
    spectrum_id, raw_index, model_name, peptide, raw_scores = tab_fields(
        text, 5, "expected 5 tab-separated fields")
    index, scores = int(raw_index), [float(v) for v in raw_scores.split(",")]
    if not all(math.isfinite(v) for v in scores):
        raise ValueError(f"non-finite score in {raw_scores!r}")
    if not 0 <= index < len(scores):
        raise ValueError(f"selected_index {index} outside its {len(scores)} scores")
    return Selection(spectrum_id, index, model_name, peptide, scores)


def read_selections(source: TextIO | Iterable[str]) -> list[Selection]:
    lines = iter(source)
    if not next(lines, "").startswith("spectrum_id\t"):
        raise ValueError("selections file missing header row")
    return parse_lines(lines, _selection, strip=False, first=2, unique=_spectrum_id)


def zero_shot_eval(model: RerankModel, spectra: Sequence[RawSpectrum],
                   candidate_sets: Sequence[CandidateSet],
                   model_subsets: Sequence[Sequence[str]]) -> list[CorpusStats]:
    """Rerank with candidates restricted to each base-model subset; the
    selections' :func:`corpus_stats` for each subset, in subset order.

    Every candidate set must match a spectrum, keep a candidate under each
    subset, and have a label (its own, else its spectrum's) for the recall.
    Each subset's sets carry that label text and go through rerank's own
    admission and selection (see :func:`_rerank_admitted`), so each subset
    parses each distinct text of a record once, parse errors follow record
    order, and the selected candidate and the label are admission's peptides.
    """
    by_id = {s.spectrum_id: s for s in spectra}
    labels = {}
    for cs in candidate_sets:
        if cs.spectrum_id not in by_id:
            raise ValueError(f"candidate set {cs.spectrum_id!r} has no matching spectrum")
        labels[cs.spectrum_id] = cs.label if cs.label is not None else by_id[cs.spectrum_id].label
        if labels[cs.spectrum_id] is None:
            raise ValueError(f"spectrum {cs.spectrum_id!r} has no label")
    reports: list[CorpusStats] = []
    for subset in model_subsets:
        allowed = set(subset)
        filtered = [CandidateSet(cs.spectrum_id, [c for c in cs.candidates if c[0] in allowed],
                                 labels[cs.spectrum_id]) for cs in candidate_sets]
        for cs in filtered:
            if not cs.candidates:
                raise ValueError(
                    f"spectrum {cs.spectrum_id!r} has no candidates from subset {sorted(allowed)}"
                )
        admitted, excluded = admit_records(spectra, filtered, model.table,
                                           model.config.embedding, labeled=False)
        picked = _rerank_admitted(model, admitted, excluded, strict=False)
        if not picked:
            raise ValueError(f"subset {sorted(allowed)}: every spectrum was excluded")
        reports.append(corpus_stats([(candidates[sel.index], label)
                                     for sel, (_, _, candidates, label) in picked], model.table))
    return reports


# ---------------------------------------------------------------------------
# checkpoints


@dataclass
class Checkpoint:
    """Serializable training state: config, parameters, seed, step count."""

    config: ModelConfig
    params: dict[str, np.ndarray]
    seed: int
    step_count: int

    def build_model(self, table: MassTable) -> RerankModel:
        """Instantiate the model and load the stored parameters into it."""
        model = RerankModel(self.config, table, seed=self.seed)
        model.store.load_arrays(self.params)
        return model


def save_checkpoint(checkpoint: Checkpoint, path: str) -> None:
    for name, array in checkpoint.params.items():  # checked before the file is opened
        if not np.isfinite(array).all():
            raise ValueError(f"refusing to save parameter {name!r}: it holds non-finite values")
    header = {
        "model": checkpoint.config.to_dict(),
        "seed": checkpoint.seed,
        "step_count": checkpoint.step_count,
    }
    header_bytes = json.dumps(header).encode("utf-8")
    with open(path, "wb") as sink:
        sink.write(CHECKPOINT_MAGIC)
        sink.write(struct.pack("<I", CHECKPOINT_VERSION))
        sink.write(struct.pack("<I", len(header_bytes)))
        sink.write(header_bytes)
        sink.write(struct.pack("<I", len(checkpoint.params)))
        for name, array in checkpoint.params.items():
            name_bytes = name.encode("utf-8")
            sink.write(struct.pack("<I", len(name_bytes)))
            sink.write(name_bytes)
            sink.write(struct.pack("<I", array.ndim))
            for dim in array.shape:
                sink.write(struct.pack("<Q", dim))
            sink.write(np.ascontiguousarray(array, dtype="<f8").tobytes())


def _read_exact(source, count: int, what: str) -> bytes:
    """Read ``count`` bytes. A count above one read buffer is checked
    against the bytes left in the file first, so a corrupt length
    allocates nothing."""
    if count > io.DEFAULT_BUFFER_SIZE:
        left = os.fstat(source.fileno()).st_size - source.tell()
        if count > left:
            raise ValueError(
                f"truncated checkpoint while reading {what}: needs {count} bytes, {left} left"
            )
    data = source.read(count)
    if len(data) != count:
        raise ValueError(f"truncated checkpoint while reading {what}")
    return data


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as source:
        magic = _read_exact(source, 4, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(
                f"not a checkpoint: expected magic {CHECKPOINT_MAGIC!r}, got {magic!r}"
            )
        (version,) = struct.unpack("<I", _read_exact(source, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        (header_len,) = struct.unpack("<I", _read_exact(source, 4, "header length"))
        header = json.loads(_read_exact(source, header_len, "header").decode("utf-8"))
        if not isinstance(header, dict) or set(header) != {"model", "seed", "step_count"}:
            raise ValueError("checkpoint header must hold exactly model, seed and step_count")
        if not (type(header["seed"]) is int and type(header["step_count"]) is int):
            raise ValueError("checkpoint header: seed and step_count must be integers")
        config = ModelConfig.from_dict(header["model"])
        (n_params,) = struct.unpack("<I", _read_exact(source, 4, "parameter count"))
        params: dict[str, np.ndarray] = {}
        for _ in range(n_params):
            (name_len,) = struct.unpack("<I", _read_exact(source, 4, "name length"))
            name = _read_exact(source, name_len, "name").decode("utf-8")
            (ndim,) = struct.unpack("<I", _read_exact(source, 4, "rank"))
            shape = tuple(
                struct.unpack("<Q", _read_exact(source, 8, "dimension"))[0]
                for _ in range(ndim)
            )
            payload = _read_exact(source, math.prod(shape) * 8, f"payload of {name!r}")
            params[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
            if not np.isfinite(params[name]).all():
                raise ValueError(f"parameter {name!r} holds non-finite values")
        if source.read(1):
            raise ValueError("trailing bytes after the last parameter record")
        return Checkpoint(
            config=config,
            params=params,
            seed=header["seed"],
            step_count=header["step_count"],
        )
