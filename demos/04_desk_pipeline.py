#!/usr/bin/env python3
"""End-to-end desk run: synthesize, train, rerank, evaluate, analyze.

A scaled-down version of the full pipeline (60 spectra, a small model,
a couple of minutes of CPU). The same steps are exposed as CLI
subcommands; see the README. For the full desk-scale run behind the
acceptance suite use 200 spectra and the default desk profile.
"""

import time

import numpy as np

from peprank import default_mass_table, parse_peptide
from peprank.encoders import EmbeddingConfig
from peprank.evaluation import contribution_analysis, corpus_stats
from peprank.model import ModelConfig
from peprank.pipeline import (
    TrainConfig,
    build_training_set,
    rerank_run,
    synthesize_dataset,
    train,
    zero_shot_eval,
)

table = default_mass_table()

print("1. synthesize a labeled corpus (b/y ions + noise, 4 candidate slots)")
spectra, candidate_sets = synthesize_dataset(table, seed=11, n_spectra=60)
instances, excluded = build_training_set(spectra, candidate_sets, table)
print(f"   {len(instances)} training instances ({len(excluded)} excluded)")

print("2. train a small reranker")
config = TrainConfig(
    model=ModelConfig(
        d=32, n_layers=2, n_heads=4, ff_dim=64,
        embedding=EmbeddingConfig(d=32), vocab=table.tokens,
    ),
    lr=1e-3, batch_size=16, epochs=40,
)
start = time.time()
checkpoint, history = train(config, instances, table, seed=0)
print(f"   loss {history[0].loss:.3f} -> {history[-1].loss:.3f} "
      f"in {time.time() - start:.0f} s ({len(history)} steps)")

print("3. rerank the corpus with the trained model")
model = checkpoint.build_model(table)
selections = rerank_run(model, spectra, candidate_sets)
by_id = {cs.spectrum_id: cs for cs in candidate_sets}  # an excluded spectrum has no selection
pairs = [
    (parse_peptide(sel.peptide, table), parse_peptide(by_id[sel.spectrum_id].label, table))
    for sel in selections
]
stats = corpus_stats(pairs, table)
print(f"   peptide recall {stats.peptide_recall:.3f}, "
      f"amino-acid precision {stats.aa_precision:.3f}")

print("4. compare against the fixed-slot baselines")
for slot in range(4):
    slot_pairs = [
        (parse_peptide(cs.peptides[slot], table), parse_peptide(cs.label, table))
        for cs in candidate_sets
    ]
    recall = corpus_stats(slot_pairs, table).peptide_recall
    print(f"   always pick slot {slot}: recall {recall:.3f}")

print("5. which slot-model uniquely provided the correct picks?")
records = [
    ([(name, parse_peptide(text, table)) for name, text in by_id[sel.spectrum_id].candidates],
     parse_peptide(sel.peptide, table), parse_peptide(by_id[sel.spectrum_id].label, table))
    for sel in selections
]
for name, share in sorted(contribution_analysis(records, table).items()):
    print(f"   {name}: {share:.2%}")

print("6. zero-shot style subset evaluation (fewer candidate sources)")
subsets = [["model_1", "model_2"], ["model_1", "model_2", "model_3", "model_4"]]
for subset, stats in zip(subsets, zero_shot_eval(model, spectra, candidate_sets, subsets)):
    print(f"   subset {','.join(subset)}: recall {stats.peptide_recall:.3f}")
