"""Workload definitions, input generation from a seed, and the provenance guard.

Each workload is a session a user would run: prepare a corpus, train,
save and load a checkpoint, rerank, evaluate. The corpus is written as
several part files, one request each, so that a phase's throughput is a
median over many requests. The workloads differ in
corpus shape and in how much of each phase they do, so that each one
stresses a different layer:

* ``desk-train``: the desk corpus trained for 8 epochs. The write path
  (forward, backward, AdamW) dominates; per-op Python overhead is the cost.
* ``desk-rerank``: desk-shaped spectra, a thousand of them, reranked
  forward-only with a desk-profile checkpoint saved by input generation.
  Training is a short slice, so inference dominates.
* ``wide``: 10 candidates of 25-40 residues and ~150 peaks. Attention
  arithmetic grows with grid size while per-op overhead does not, and the
  PMD dynamic program dominates preparation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from peprank import default_mass_table
from peprank import pipeline
from peprank.model import RerankModel
from peprank.spectra import write_mgf

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


@dataclass(frozen=True)
class Workload:
    name: str
    n_spectra: int
    part_size: int  # spectra per part file
    synth: pipeline.SynthConfig = field(default_factory=pipeline.SynthConfig)
    epochs: int = 1
    batch_size: int = 16
    train_instances: int | None = None  # None trains on every instance
    generated_checkpoint: bool = False  # rerank with a saved desk-profile init
    serve_share: float = 0.3  # of --seconds, spent on rerank and prep requests
    overhead_spectra: int = 8  # spectra per side of the tracing-overhead pairs

    def train_config(self, vocab) -> pipeline.TrainConfig:
        return pipeline.TrainConfig.desk(
            vocab, epochs=self.epochs, batch_size=self.batch_size
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-train",
            n_spectra=200,
            part_size=20,
            epochs=8,
        ),
        Workload(
            name="desk-rerank",
            n_spectra=1000,
            part_size=50,
            train_instances=512,
            generated_checkpoint=True,
            serve_share=0.6,
        ),
        Workload(
            name="wide",
            n_spectra=96,
            part_size=8,
            synth=pipeline.SynthConfig(
                n_candidates=10, min_length=25, max_length=40, noise_peaks=90
            ),
            batch_size=8,
            serve_share=0.5,
            overhead_spectra=4,
        ),
    )
}


@dataclass(frozen=True)
class Part:
    mgf: Path
    candidates: Path
    n_spectra: int


@dataclass(frozen=True)
class Inputs:
    parts: tuple[Part, ...]
    checkpoint: Path | None

    def files(self) -> list[Path]:
        files = [path for part in self.parts for path in (part.mgf, part.candidates)]
        return files + ([self.checkpoint] if self.checkpoint is not None else [])


def generate(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Write the workload's MGF and candidate JSONL parts and, optionally, a checkpoint."""
    table = default_mass_table()
    spectra, candidate_sets = pipeline.synthesize_dataset(
        table, seed=seed, n_spectra=workload.n_spectra, config=workload.synth
    )
    parts = []
    for number, start in enumerate(range(0, workload.n_spectra, workload.part_size)):
        stop = start + workload.part_size
        part = Part(directory / f"part{number:03d}.mgf",
                    directory / f"part{number:03d}.jsonl",
                    len(spectra[start:stop]))
        with open(part.mgf, "w", encoding="utf-8") as sink:
            write_mgf(spectra[start:stop], sink)
        with open(part.candidates, "w", encoding="utf-8") as sink:
            pipeline.write_candidates(candidate_sets[start:stop], sink)
        parts.append(part)
    inputs = Inputs(
        parts=tuple(parts),
        checkpoint=directory / "init.ckpt" if workload.generated_checkpoint else None,
    )
    if inputs.checkpoint is not None:
        config = workload.train_config(table.tokens).model
        model = RerankModel(config, table, seed=seed)
        checkpoint = pipeline.Checkpoint(
            config=config, params=model.store.export_arrays(), seed=seed, step_count=0
        )
        pipeline.save_checkpoint(checkpoint, str(inputs.checkpoint))
    return inputs


def digest(inputs: Inputs) -> str:
    """SHA-256 over each generated file's name and bytes, in a fixed order."""
    hasher = hashlib.sha256()
    for path in inputs.files():
        hasher.update(path.name.encode("utf-8") + b"\0")
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def load_digests(path: Path = DIGESTS_PATH) -> dict:
    if not path.exists():
        return {}
    with open(path, "r", encoding="utf-8") as source:
        return json.load(source)


class ProvenanceError(Exception):
    """Generated inputs differ from the bytes recorded for this workload and seed."""


def check_provenance(workload: str, seed: int, actual: str, recorded: dict) -> bool:
    """True when a digest was recorded and matches; False when none was recorded."""
    expected = recorded.get(workload, {}).get(str(seed))
    if expected is None:
        return False
    if expected != actual:
        raise ProvenanceError(
            f"inputs for workload {workload!r} seed {seed} hash to {actual}, but "
            f"{expected} was recorded: input generation changed; re-record the "
            f"digests only if the change is intended"
        )
    return True
