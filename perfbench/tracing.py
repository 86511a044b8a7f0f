"""Outside-in tracing: spans and counters installed by wrapping public names.

A wrapper is installed at the name the caller looks up (a module global
such as ``peprank.model.assemble_msa`` or a class attribute such as
``RerankModel.axial_block``), so no library file changes. Spans are kept
in memory as ``(name, start, end, parent)`` tuples; a layer's self time
is its duration minus the durations of its direct children. Spans nest
strictly because the benchmark runs one call at a time on one thread.
"""

from __future__ import annotations

import inspect
from collections import Counter, defaultdict
from time import perf_counter

# public functions of peprank.autograd that are not graph ops
NON_OP_NAMES = frozenset({"as_tensor", "backward", "grad_check"})


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counters: Counter = Counter()
        self.models: dict[int, object] = {}  # RerankModel instances that ran forward
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- installing and restoring -------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        self._patches.append((owner, attr, original, had_own))
        setattr(owner, attr, replacement)

    def span(self, owner, attr: str, name: str, after=None) -> None:
        """Wrap ``owner.attr`` so each call records a span named ``name``.

        ``after(tracer, args, result)``, when given, runs after the call
        to update counters from its arguments and result.
        """
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(self, args, result)
            return result

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr: str, key: str) -> None:
        """Wrap ``owner.attr`` so each call adds one to ``counters[key]``."""
        fn = getattr(owner, attr)
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped name back as it was, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- reading results ----------------------------------------------------

    def finished_spans(self) -> list[tuple[str, float, float, int]]:
        if self._stack:
            raise RuntimeError("spans still open")
        return list(self.spans)


def self_times(spans) -> dict[str, float]:
    """Self time per span name: duration minus the direct children's durations."""
    totals: dict[str, float] = defaultdict(float)
    for name, start, end, parent in spans:
        duration = end - start
        totals[name] += duration
        if parent >= 0:
            totals[spans[parent][0]] -= duration
    return dict(totals)


def autograd_ops(ag) -> list[str]:
    """Names of the public graph ops defined in the autograd module."""
    return sorted(
        name
        for name, obj in vars(ag).items()
        if inspect.isfunction(obj)
        and obj.__module__ == ag.__name__
        and not name.startswith("_")
        and name not in NON_OP_NAMES
    )


# -- counters fed from call arguments and results ------------------------------


def _count_pmd(tracer, args, result):
    query, target = args[0], args[1]
    tracer.counters["metrics.pmd.calls"] += 1
    tracer.counters["metrics.pmd.cells"] += (len(query) + 1) * (len(target) + 1)


def _count_calls(key):
    def after(tracer, args, result):
        tracer.counters[key] += 1
    return after


def _count_peaks(tracer, args, result):
    tracer.counters["encoders.embed_spectrum.peaks"] += args[0].n_peaks


def _count_grid(tracer, args, result):
    tracer.counters["encoders.assemble_msa.cells"] += int(result.mask.size)
    tracer.counters["encoders.assemble_msa.tokens"] += int(result.mask.sum())


def _remember_model(tracer, args, result):
    model = args[0]
    tracer.models[id(model)] = model


def install_peprank(tracer: Tracer) -> Tracer:
    """Wrap peprank's public layers at the names their callers look up."""
    from peprank import autograd, evaluation, masses, model, pipeline, spectra

    spans = [
        # (owner, attribute, span name, counter hook)
        (spectra, "parse_mgf", "spectra.parse_mgf", None),
        (pipeline, "preprocess_spectrum", "spectra.preprocess_spectrum",
         _count_calls("spectra.preprocess_spectrum.calls")),
        (masses, "parse_peptide", "masses.parse_peptide",
         _count_calls("masses.parse_peptide.calls")),
        (pipeline, "parse_peptide", "masses.parse_peptide",
         _count_calls("masses.parse_peptide.calls")),
        (pipeline, "pmd", "metrics.pmd", _count_pmd),
        (pipeline, "rmd", "metrics.rmd", None),
        (pipeline, "aa_match", "evaluation.aa_match",
         _count_calls("evaluation.aa_match.calls")),
        (evaluation, "aa_match", "evaluation.aa_match",
         _count_calls("evaluation.aa_match.calls")),
        (evaluation, "corpus_stats", "evaluation.corpus_stats", None),
        (pipeline, "load_candidates", "pipeline.load_candidates", None),
        (pipeline, "build_training_set", "pipeline.build_training_set", None),
        (pipeline, "train", "pipeline.train", None),
        (pipeline.AdamW, "step", "pipeline.adamw_step", None),
        (pipeline, "save_checkpoint", "pipeline.save_checkpoint", None),
        (pipeline, "load_checkpoint", "pipeline.load_checkpoint", None),
        (pipeline.Checkpoint, "build_model", "pipeline.build_model", None),
        (pipeline, "rerank_run", "pipeline.rerank_run", None),
        (pipeline, "write_selections", "pipeline.write_selections", None),
        (pipeline, "joint_loss", "model.joint_loss", None),
        (model.RerankModel, "forward", "model.forward", _remember_model),
        (model.RerankModel, "spectrum_encoder", "model.spectrum_encoder", None),
        (model.RerankModel, "axial_block", "model.axial_block", None),
        (model.RerankModel, "predict_heads", "model.predict_heads", None),
        (model, "embed_spectrum", "encoders.embed_spectrum", _count_peaks),
        (model, "assemble_msa", "encoders.assemble_msa", _count_grid),
        (autograd, "backward", "autograd.backward", None),
        (autograd.ParameterStore, "zero_grad", "autograd.zero_grad", None),
        (autograd.ParameterStore, "clip_grad_norm", "autograd.clip_grad_norm", None),
    ]
    try:
        for op in autograd_ops(autograd):
            tracer.count(autograd, op, "autograd.ops")
        for owner, attr, name, after in spans:
            tracer.span(owner, attr, name, after)
    except BaseException:
        tracer.restore()
        raise
    return tracer
