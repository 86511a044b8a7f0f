#!/usr/bin/env python3
"""Poke at the reranking model: shapes, axial attention costs, symmetry.

Candidates for one spectrum are stacked into a token grid and mixed by
row attention (within a candidate), column attention (across
candidates), and cross attention to the encoded spectrum. There is no
row-index embedding, so shuffling the candidates just shuffles the
outputs, and the attention-score count grows like c*(L+1)^2 +
(L+1)*c^2 + c*(L+1)*k instead of the (c*(L+1))^2 of joint attention.
"""

import numpy as np

from peprank import default_mass_table, parse_peptide
from peprank.encoders import EmbeddingConfig
from peprank.masses import Precursor
from peprank.model import ModelConfig, RerankModel, rerank_select
from peprank.spectra import RawSpectrum, preprocess_spectrum

table = default_mass_table()
config = ModelConfig(
    d=32, n_layers=2, n_heads=4, ff_dim=64,
    embedding=EmbeddingConfig(d=32, max_len=20, max_charge=4),
    vocab=table.tokens,
)
model = RerankModel(config, table, seed=0)
print(f"model: d={config.d}, {config.n_layers}+{config.n_layers} layers, "
      f"{len(model.store)} parameter tensors")

rng = np.random.default_rng(0)
spectrum = preprocess_spectrum(RawSpectrum(
    spectrum_id="demo",
    mz=rng.uniform(60, 1500, size=24),
    intensity=rng.uniform(0.1, 3.0, size=24),
    precursor=Precursor.from_mz(379.714925, 2),
))
candidates = [parse_peptide(t, table) for t in ("GAVKPW", "GAVQPW", "GAVKP", "AGVKPW")]

model.reset_attention_counts()
output, batch = model.forward(spectrum, candidates)
print(f"\npeptide scores: {np.array2string(output.pmd_pred.data, precision=4)}")
print(f"residue scores: {output.rmd_pred.size} "
      f"(one per residue of the {sum(len(p) for p in candidates)} in the candidates)")
print(f"selected candidate: {candidates[rerank_select(output.pmd_pred)]}")

c, width, k = len(candidates), batch.width, spectrum.n_peaks
print(f"\nattention scores per mixer pass (c={c}, L+1={width}, k={k}):")
for kind in ("row", "col", "cross"):
    print(f"  {kind:<6} {model.attn_counts[kind] // config.n_layers:>6}")
row_col = (model.attn_counts["row"] + model.attn_counts["col"]) // config.n_layers
print(f"  row+col {row_col} vs joint attention over the grid {(c * width) ** 2}")
print("  (the cross-attention cost is the same under either design)")

# Row-permutation equivariance: scores travel with their candidates.
perm = np.random.default_rng(1).permutation(len(candidates))
shuffled, _ = model.forward(spectrum, [candidates[i] for i in perm])
print("\nmax score drift under row permutation:",
      float(np.abs(shuffled.pmd_pred.data - output.pmd_pred.data[perm]).max()))
