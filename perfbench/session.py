"""One workload session: its phases, output checks, accounting and metrics.

A session is a closed loop with one client. It calls peprank's public
functions in-process, one call at a time, in the order of the ``train``
then ``rerank`` then ``evaluate`` subcommands:

    prep      parse_mgf + load_candidates + build_training_set
    train     train, then save_checkpoint
    setup     load_checkpoint + Checkpoint.build_model   (repeated)
    serve     rerank requests (parse_mgf + load_candidates + rerank_run
              + write_selections), alternating with prep requests
    evaluate  parse_peptide + corpus_stats over the selections

The corpus comes in part files and each call of a repeated phase is one
request for one part. After training, rerank and prep requests alternate
over the parts until the workload's share of ``--seconds`` is spent,
after at least one whole rerank pass (exactly one, without prep, when
traced). Throughputs are medians over requests, at reference speed
(see ``reference_kernel``). Training is a
fixed amount of work, so its loss history, the selections and the
quality figures are deterministic for a seed.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from peprank import default_mass_table, evaluation, masses, pipeline, spectra

from .tracing import Tracer, install_peprank, self_times
from .workloads import Inputs, Workload

REFERENCES_PATH = Path(__file__).resolve().parent / "references.jsonl"
SETUP_REPEATS = 5
OVERHEAD_PAIRS = 4
LOSS_RTOL = 1e-9  # per-step loss against a recorded reference
SCORE_TOL = 1e-9  # |score - reference| <= SCORE_TOL * max(1, |reference|)
P90_MIN_SAMPLES = 100  # a p90 needs at least ten samples beyond it
# nominal time of reference_kernel(); its median ranged 0.8-1.3 ms between
# runs on a shared 2-vCPU Intel Xeon (Python 3.11.7, numpy 2.4.6, OpenBLAS
# 0.3.31 single-threaded)
REFERENCE_KERNEL_S = 0.001

# ROADMAP's measured split of desk training time, for comparison
BASELINE_TRAIN_SHARES = {
    "autograd.backward": 0.49,
    "model.axial_block": 0.26,
    "encoders.assemble_msa": 0.09,
    "model.spectrum_encoder": 0.08,
    "encoders.embed_spectrum": 0.02,
    "pipeline.adamw_step": 0.01,
}


class StepClock:
    """A loss-log sink for ``train``: it timestamps each line written.

    ``train`` writes a header before its first step and one line after
    each step, so consecutive lines bound the steps. Each write also times
    the reference kernel, which is left out of the step times and scales
    them to reference speed.
    """

    def __init__(self):
        self.stamps: list[tuple[float, float, float]] = []  # (entry, exit, kernel s)

    def write(self, text: str) -> int:
        entry = perf_counter()
        kernel_s = reference_kernel()
        self.stamps.append((entry, perf_counter(), kernel_s))
        return len(text)

    def step_seconds(self) -> list[float]:
        return [b[0] - a[1] for a, b in zip(self.stamps, self.stamps[1:])]

    def step_reference_seconds(self) -> list[float]:
        return [
            (b[0] - a[1]) * REFERENCE_KERNEL_S / ((a[2] + b[2]) / 2)
            for a, b in zip(self.stamps, self.stamps[1:])
        ]


@dataclass
class Checks:
    """Named output checks; any failure makes the run incorrect."""

    results: dict[str, bool] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        ok = bool(ok)
        self.results[name] = self.results.get(name, True) and ok
        if not ok:
            self.notes.append(f"{name}: {detail}" if detail else name)

    @property
    def ok(self) -> bool:
        return all(self.results.values())


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of interpreter and small-array numpy work.

    Its time tracks how fast the shared machine runs Python at the moment,
    which drifts by up to a factor of two over tens of seconds.
    """
    start = perf_counter()
    total = 0
    for i in range(6000):
        total += i * i % 7
    x = np.ones((16, 64))
    w = np.full((64, 64), 0.01)
    for _ in range(60):
        x = np.tanh(x @ w + 0.1)
    return perf_counter() - start


@dataclass
class Request:
    """One timed request, with the reference kernel's time around it."""

    index: int  # part number
    result: object
    seconds: float
    kernel_s: float

    @property
    def reference_seconds(self) -> float:
        """The request's time scaled to the reference machine speed."""
        return self.seconds * REFERENCE_KERNEL_S / self.kernel_s


def timed(index: int, fn, part) -> Request:
    before = reference_kernel()
    start = perf_counter()
    result = fn(part)
    seconds = perf_counter() - start
    return Request(index, result, seconds, (before + reference_kernel()) / 2)


def serve(parts, rerank, prep, budget_s: float, once: bool):
    """Alternate rerank and prep requests over the parts until ``budget_s`` has elapsed.

    The first pass of rerank requests always completes; with ``once`` it is
    the only one and no prep request is made. Interleaving lets both
    phases sample the same stretch of time. Returns the two lists of requests.
    """
    reranks, preps = [], []
    start = perf_counter()
    while True:
        for index, part in enumerate(parts):
            reranks.append(timed(index, rerank, part))
            if not once:
                preps.append(timed(index, prep, part))
            if len(reranks) >= len(parts) and (once or perf_counter() - start >= budget_s):
                return reranks, preps


def per_second(done: list[Request], parts, scaled: bool = True) -> float:
    """Median over requests of spectra per second, at reference speed when ``scaled``."""
    return statistics.median(
        parts[r.index].n_spectra / (r.reference_seconds if scaled else r.seconds)
        for r in done
    )


def selection_rows(selections) -> list[tuple]:
    return [(s.spectrum_id, s.index, s.model_name, s.peptide, tuple(s.scores))
            for s in selections]


def load_references(path: Path = REFERENCES_PATH) -> dict:
    """``{workload: {seed: outputs}}`` from JSON Lines of ``{workload, seed, outputs}``."""
    references: dict = {}
    if path.exists():
        with open(path, "r", encoding="utf-8") as source:
            for line in source:
                record = json.loads(line)
                references.setdefault(record["workload"], {})[record["seed"]] = record["outputs"]
    return references


class Session:
    """Runs one workload on generated inputs and keeps what it measured."""

    def __init__(self, workload: Workload, seed: int, inputs: Inputs, workdir: Path,
                 seconds: float, tracer: Tracer | None = None):
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.workdir = workdir
        self.seconds = seconds
        self.tracer = tracer
        self.table = default_mass_table()
        self.checks = Checks()
        self.phase_wall: dict[str, float] = {}
        self.ops: dict[str, int] = {}
        self.accounting: dict = {}

    # -- phases -------------------------------------------------------------

    def _prep_request(self, part):
        with open(part.mgf, "r", encoding="utf-8") as handle:
            raw = spectra.parse_mgf(handle)
        with open(part.candidates, "r", encoding="utf-8") as handle:
            candidate_sets = pipeline.load_candidates(handle)
        instances, excluded = pipeline.build_training_set(raw, candidate_sets, self.table)
        return raw, candidate_sets, instances, excluded

    def _rerank_request(self, model, part):
        with open(part.mgf, "r", encoding="utf-8") as handle:
            raw = spectra.parse_mgf(handle)
        with open(part.candidates, "r", encoding="utf-8") as handle:
            candidate_sets = pipeline.load_candidates(handle)
        selections = pipeline.rerank_run(model, raw, candidate_sets)
        with open(self.workdir / f"{part.mgf.stem}.tsv", "w", encoding="utf-8") as sink:
            pipeline.write_selections(selections, sink)
        return candidate_sets, selections

    def _load_model(self, path: Path):
        checkpoint = pipeline.load_checkpoint(str(path))
        return checkpoint.build_model(self.table)

    def _op_count(self) -> int:
        return self.tracer.counters["autograd.ops"] if self.tracer else 0

    def run(self) -> None:
        w, once, parts = self.workload, self.tracer is not None, self.inputs.parts

        start = perf_counter()
        preps = [timed(index, self._prep_request, part) for index, part in enumerate(parts)]
        self.phase_wall["prep"] = perf_counter() - start
        candidate_sets = [cs for r in preps for cs in r.result[1]]
        instances = [inst for r in preps for inst in r.result[2]]
        excluded = [item for r in preps for item in r.result[3]]

        train_set = instances[: w.train_instances] if w.train_instances else instances
        config = w.train_config(self.table.tokens)
        self.expected_steps = config.epochs * math.ceil(len(train_set) / config.batch_size)
        clock = StepClock()
        ops_before = self._op_count()
        start = perf_counter()
        checkpoint, self.history = pipeline.train(
            config, train_set, self.table, seed=self.seed, log_sink=clock
        )
        self.ops["train"] = self._op_count() - ops_before
        self.train_instances = config.epochs * len(train_set)
        self.step_s = clock.step_seconds()
        self.step_reference_s = clock.step_reference_seconds()
        trained_path = self.workdir / "trained.ckpt"
        pipeline.save_checkpoint(checkpoint, str(trained_path))
        self.phase_wall["train"] = perf_counter() - start
        self._check_training()

        rerank_path = self.inputs.checkpoint if w.generated_checkpoint else trained_path
        start = perf_counter()
        self.setups = [timed(0, self._load_model, rerank_path) for _ in range(SETUP_REPEATS)]
        model = self.setups[-1].result
        self.phase_wall["setup"] = perf_counter() - start

        ops_before = self._op_count()
        start = perf_counter()
        reranks, more_preps = serve(
            parts, lambda part: self._rerank_request(model, part), self._prep_request,
            w.serve_share * self.seconds, once,
        )
        self.phase_wall["serve"] = perf_counter() - start
        self.ops["rerank"] = self._op_count() - ops_before
        preps += more_preps
        self.preps, self.reranks = preps, reranks
        self._check_prep(preps)
        self._check_reranks(reranks)
        self.selections = [sel for r in reranks[: len(parts)] for sel in r.result[1]]

        start = perf_counter()
        labels = {cs.spectrum_id: cs.label for cs in candidate_sets}
        pairs = [
            (masses.parse_peptide(s.peptide, self.table),
             masses.parse_peptide(labels[s.spectrum_id], self.table))
            for s in self.selections
        ]
        self.stats = evaluation.corpus_stats(pairs, self.table)
        self.phase_wall["evaluate"] = perf_counter() - start
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        self.accounting = {
            "prep": {
                "requests": len(preps),
                "spectra_parsed": {
                    "attempted": sum(parts[r.index].n_spectra for r in preps),
                    "failed": sum(parts[r.index].n_spectra - len(r.result[0]) for r in preps),
                },
                "instances": {"attempted": len(candidate_sets), "built": len(instances),
                              "excluded": dict(Counter(reason for _, reason in excluded))},
            },
            "train": {"steps": {"attempted": self.expected_steps,
                                "failed": self.expected_steps - len(self.history)},
                      "instances": len(train_set)},
            "rerank": {
                "requests": len(reranks),
                "spectra": {
                    "attempted": sum(parts[r.index].n_spectra for r in reranks),
                    "failed": sum(parts[r.index].n_spectra - len(r.result[1]) for r in reranks),
                },
            },
            "evaluate": {"spectra": self.stats.n_all_pep,
                         "peptides_matched": self.stats.n_match_pep},
        }

    # -- output checks ------------------------------------------------------

    def _check_repeats(self, phase: str, done, key) -> None:
        """Every repeated request of a part gives what its first request gave."""
        first = {}
        for r in done:
            value = key(r.result)
            self.checks.add(f"{phase}.repeats_identical", first.setdefault(r.index, value) == value)

    def _check_prep(self, preps) -> None:
        self._check_repeats("prep", preps, lambda r: [
            (i.spectrum.spectrum_id, tuple(i.pmd_targets)) for i in r[2]])
        for r in preps:
            raw, candidate_sets, instances, excluded = r.result
            self.checks.add("prep.one_spectrum_per_record",
                            len(raw) == len(candidate_sets) == self.inputs.parts[r.index].n_spectra)
            self.checks.add("prep.instances_accounted",
                            len(instances) + len(excluded) == len(candidate_sets))

    def _check_training(self) -> None:
        losses = [r.loss for r in self.history]
        self.checks.add("train.steps_run", len(losses) == self.expected_steps,
                        f"{len(losses)} of {self.expected_steps} steps")
        self.checks.add("train.loss_finite", all(math.isfinite(v) for v in losses))
        self.checks.add("train.step_clock", len(self.step_s) == len(losses))

    def _check_reranks(self, reranks) -> None:
        self._check_repeats("rerank", reranks, lambda r: selection_rows(r[1]))
        last = {}
        for r in reranks:
            candidate_sets, selections = r.result
            last[r.index] = selections
            self.checks.add("rerank.one_selection_per_spectrum",
                            [s.spectrum_id for s in selections]
                            == [cs.spectrum_id for cs in candidate_sets]
                            and len(selections) == self.inputs.parts[r.index].n_spectra)
            for cs, sel in zip(candidate_sets, selections):
                scores = np.asarray(sel.scores)
                finite = bool(np.isfinite(scores).all())
                self.checks.add("rerank.scores_finite", finite, sel.spectrum_id)
                self.checks.add(
                    "rerank.lowest_index_argmin",
                    finite and len(scores) == len(cs.candidates)
                    and sel.index == int(np.argmin(scores))
                    and (sel.model_name, sel.peptide) == cs.candidates[sel.index],
                    sel.spectrum_id,
                )
        for index, selections in last.items():
            path = self.workdir / f"{self.inputs.parts[index].mgf.stem}.tsv"
            with open(path, "r", encoding="utf-8") as source:
                written = pipeline.read_selections(source)
            self.checks.add("rerank.written_selections",
                            selection_rows(written) == selection_rows(selections))

    def check_reference(self, references: dict) -> bool:
        """Compare with the recorded outputs for this seed; False if none exist."""
        ref = references.get(self.workload.name, {}).get(str(self.seed))
        if ref is None:
            return False
        losses = [r.loss for r in self.history]
        self.checks.add(
            "reference.loss",
            len(losses) == len(ref["loss"]) and all(
                abs(a - b) <= LOSS_RTOL * abs(b) for a, b in zip(losses, ref["loss"])
            ),
            f"per-step loss differs from the reference by more than {LOSS_RTOL} relative",
        )
        # a candidate scored within the tolerance of the minimum is a numerical
        # tie (identical candidate rows score alike): either choice is accepted
        same = len(self.selections) == len(ref["selections"]) and all(
            sel.index == index
            or expected[sel.index] - min(expected) <= SCORE_TOL * max(1.0, abs(min(expected)))
            for sel, index, expected in zip(self.selections, ref["selections"], ref["scores"])
        )
        self.checks.add("reference.selections", same,
                        "selected indices differ from the reference beyond numerical ties")
        ok = len(self.selections) == len(ref["scores"])
        for sel, expected in zip(self.selections, ref["scores"]):
            ok = ok and len(sel.scores) == len(expected) and all(
                abs(a - b) <= SCORE_TOL * max(1.0, abs(b))
                for a, b in zip(sel.scores, expected)
            )
        self.checks.add("reference.scores", ok,
                        f"scores differ from the reference by more than {SCORE_TOL}")
        return True

    def reference(self) -> dict:
        """The outputs a later run of this seed must reproduce."""
        return {
            "loss": [r.loss for r in self.history],
            "selections": [s.index for s in self.selections],
            "scores": [list(s.scores) for s in self.selections],
        }

    # -- metrics ------------------------------------------------------------

    def setup_kernel_s(self) -> float:
        """Median time of the reference kernel around the requests of the run."""
        return statistics.median(r.kernel_s for r in self.preps + self.reranks + self.setups)

    def end_to_end(self, import_s: float) -> dict[str, tuple[float, str]]:
        """End-to-end metrics at reference speed.

        Requests and training steps are scaled by the kernel timed around
        each; setup, a single cold import, by the run's median kernel time.
        """
        parts = self.inputs.parts
        setup_s = import_s + statistics.median(r.seconds for r in self.setups)
        return {
            "setup_s": (setup_s * REFERENCE_KERNEL_S / self.setup_kernel_s(), "s"),
            "prep.spectra_per_s": (per_second(self.preps, parts), "1/s"),
            "train.instances_per_s": (self.train_instances / sum(self.step_reference_s), "1/s"),
            "train.step_ms.p50": (1000.0 * statistics.median(self.step_reference_s), "ms"),
            "rerank.spectra_per_s": (per_second(self.reranks, parts), "1/s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
            "quality.aa_precision": (self.stats.aa_precision, "ratio"),
        }

    def wall_clock(self, import_s: float) -> dict[str, float]:
        """The scaled end-to-end metrics unscaled, and the run's median kernel time."""
        parts = self.inputs.parts
        return {
            "setup_s": import_s + statistics.median(r.seconds for r in self.setups),
            "prep.spectra_per_s": per_second(self.preps, parts, scaled=False),
            "train.instances_per_s": self.train_instances / sum(self.step_s),
            "train.step_ms.p50": 1000.0 * statistics.median(self.step_s),
            "rerank.spectra_per_s": per_second(self.reranks, parts, scaled=False),
            "reference_kernel_s": self.setup_kernel_s(),
        }

    def step_p90_ms(self) -> float | None:
        """p90 step time, only when at least ten steps lie beyond it."""
        if len(self.step_s) < P90_MIN_SAMPLES:
            return None
        return 1000.0 * statistics.quantiles(self.step_s, n=10)[-1]

    def per_layer(self, overhead: float) -> dict[str, tuple[float, str]]:
        tracer = self.tracer
        selfs = self_times(tracer.finished_spans())
        counters = tracer.counters
        attn = {"spectrum": 0, "row": 0, "col": 0, "cross": 0}
        for model in tracer.models.values():
            for key in attn:
                attn[key] += model.attn_counts[key]
        wall = sum(self.phase_wall.values())
        metrics = {
            name + ".self_s": (selfs.get(name, 0.0), "s")
            for name in (
                "autograd.backward", "autograd.clip_grad_norm", "autograd.zero_grad",
                "model.forward", "model.spectrum_encoder", "model.axial_block",
                "model.predict_heads", "model.joint_loss",
                "encoders.embed_spectrum", "encoders.assemble_msa",
                "metrics.pmd", "metrics.rmd",
                "evaluation.aa_match", "evaluation.corpus_stats",
                "spectra.parse_mgf", "spectra.preprocess_spectrum", "masses.parse_peptide",
                "pipeline.load_checkpoint", "pipeline.build_model", "pipeline.adamw_step",
                "pipeline.train", "pipeline.save_checkpoint", "pipeline.build_training_set",
                "pipeline.load_candidates", "pipeline.rerank_run", "pipeline.write_selections",
            )
        }
        cells = counters["encoders.assemble_msa.cells"]
        metrics.update({
            "autograd.ops_per_step": (self.ops["train"] / len(self.history), "count"),
            "autograd.ops_per_spectrum": (self.ops["rerank"] / self.workload.n_spectra, "count"),
            "model.attn_scores.spectrum": (attn["spectrum"], "count"),
            "model.attn_scores.row": (attn["row"], "count"),
            "model.attn_scores.col": (attn["col"], "count"),
            "model.attn_scores.cross": (attn["cross"], "count"),
            "encoders.embed_spectrum.peaks": (counters["encoders.embed_spectrum.peaks"], "count"),
            "encoders.assemble_msa.cells": (cells, "count"),
            "encoders.grid_fill": (counters["encoders.assemble_msa.tokens"] / cells, "ratio"),
            "metrics.pmd.calls": (counters["metrics.pmd.calls"], "count"),
            "metrics.pmd.cells": (counters["metrics.pmd.cells"], "count"),
            "evaluation.aa_match.calls": (counters["evaluation.aa_match.calls"], "count"),
            "spectra.preprocess_spectrum.calls":
                (counters["spectra.preprocess_spectrum.calls"], "count"),
            "masses.parse_peptide.calls": (counters["masses.parse_peptide.calls"], "count"),
            "trace.coverage": (sum(selfs.values()) / wall, "ratio"),
            "trace.overhead": (overhead, "ratio"),
        })
        return metrics

    def train_shares(self) -> dict[str, float]:
        """Each layer's self time inside ``pipeline.train``, as a share of it."""
        spans = self.tracer.finished_spans()
        root: list[int] = []
        for i, (_, _, _, parent) in enumerate(spans):
            root.append(i if parent < 0 else root[parent])
        inside = [i for i in range(len(spans)) if spans[root[i]][0] == "pipeline.train"]
        position = {i: k for k, i in enumerate(inside)}
        local = []
        for i in inside:
            name, start, end, parent = spans[i]
            local.append((name, start, end, position[parent] if parent >= 0 else -1))
        selfs = self_times(local)
        total = sum(end - start for _, start, end, parent in local if parent < 0)
        return {name: t / total for name, t in sorted(selfs.items(), key=lambda x: -x[1])}

    def measure_overhead(self) -> float:
        """Traced / untraced time of a small train + rerank slice, minus one.

        Each slice is timed like a request, at reference speed. Pairs
        alternate which side runs first; the median ratio is reported.
        """
        w = self.workload
        raw, candidate_sets, instances, _ = self._prep_request(self.inputs.parts[0])
        config = replace(w.train_config(self.table.tokens), epochs=1)
        batch = instances[: config.batch_size]
        k = w.overhead_spectra

        def run_slice(traced: bool) -> None:
            tracer = install_peprank(Tracer()) if traced else None
            try:
                checkpoint, _ = pipeline.train(config, batch, self.table, seed=self.seed)
                model = checkpoint.build_model(self.table)
                pipeline.rerank_run(model, raw[:k], candidate_sets[:k])
            finally:
                if tracer is not None:
                    tracer.restore()

        def slice_seconds(traced: bool) -> float:
            return timed(0, run_slice, traced).reference_seconds

        ratios = []
        for pair in range(OVERHEAD_PAIRS):
            if pair % 2 == 0:
                untraced = slice_seconds(False)
                traced = slice_seconds(True)
            else:
                traced = slice_seconds(True)
                untraced = slice_seconds(False)
            ratios.append(traced / untraced)
        return statistics.median(ratios) - 1.0


def fingerprint() -> dict:
    """What the numbers depend on and this benchmark does not control."""
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as source:
            for line in source:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in thread_vars},
        "uncontrolled": "CPU frequency scaling and core isolation are not controlled",
    }
