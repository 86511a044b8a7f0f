"""The candidate reranking model.

A transformer encoder extracts spectrum features from the embedded peak
list. Candidates form a grid of residue tokens (one row per candidate,
plus a CLS column); each mixer block applies row-wise self-attention
within candidates, column-wise self-attention across candidates,
cross-attention from candidate tokens to spectrum features, and a
feed-forward sublayer, all pre-norm residual. Two linear heads read the
final grid: a peptide-level mass-deviation score per candidate from its
CLS vector, and a residue-level deviation per token. Reranking selects
the candidate with the smallest predicted peptide-level deviation.

The forward pass takes B spectra at once, packed with no padding across
spectra: the peaks as [sum of K_b, d] and each spectrum's own c_b x w_b
candidate grid as rows of one [N, d] array. Token-wise ops run once over
the packed rows; each attention runs per spectrum, grouping sequences of
equal shape into one batched product. A training minibatch is one such
batch (one autograd graph); a single spectrum is the one-spectrum batch,
with the same outputs in the same format.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from . import autograd as ag
from .autograd import ParameterStore, Tensor
from .encoders import (
    EmbeddingConfig,
    MsaBatch,
    assemble_msa,
    check_field_types,
    collate_peaks,
    create_embedding_params,
    embed_spectrum,
)
from .masses import MassTable, Peptide
from .spectra import ProcessedSpectrum


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and loss hyperparameters."""

    d: int = 64
    n_layers: int = 2  # depth of both the spectrum encoder and the mixer
    n_heads: int = 8
    ff_dim: int = 128
    dropout_rate: float = 0.0
    loss_lambda: float = 0.5
    embedding: EmbeddingConfig = field(default_factory=lambda: EmbeddingConfig(d=64))
    vocab: tuple[str, ...] = ()

    def __post_init__(self):
        check_field_types(self)
        for name in ("n_layers", "n_heads", "ff_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.d % self.n_heads != 0:
            raise ValueError(f"d={self.d} not divisible by n_heads={self.n_heads}")
        if not 0.0 <= self.loss_lambda <= 1.0:
            raise ValueError(f"loss_lambda must be in [0, 1], got {self.loss_lambda}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.embedding.d != self.d:
            raise ValueError("embedding dimension must equal the model dimension")
        if not self.vocab:
            raise ValueError("model config needs a residue vocabulary")

    @classmethod
    def desk(cls, vocab: Sequence[str]) -> "ModelConfig":
        """CPU-sized profile used by the synthetic-data pipeline (the field defaults)."""
        return cls(vocab=tuple(vocab))

    @classmethod
    def paper_scale(cls, vocab: Sequence[str]) -> "ModelConfig":
        """Full-size profile (not runnable at desk scale in sensible time)."""
        return cls(
            d=512,
            n_layers=8,
            ff_dim=1024,
            dropout_rate=0.30,
            embedding=EmbeddingConfig(d=512),
            vocab=tuple(vocab),
        )

    def to_dict(self) -> dict:
        """Flat header: MODEL_KEYS, then EMBEDDING_KEYS, then the vocabulary."""
        data = {name: getattr(self, name) for name in MODEL_KEYS}
        data.update((name, getattr(self.embedding, name)) for name in EMBEDDING_KEYS)
        data["vocab"] = list(self.vocab)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        if not isinstance(data, dict):
            raise ValueError("model config must be a JSON object")
        expected = {*MODEL_KEYS, *EMBEDDING_KEYS, "vocab"}
        missing, unknown = expected - set(data), set(data) - expected
        if missing or unknown:
            raise ValueError(
                f"model config: missing keys {sorted(missing)}, unknown keys {sorted(unknown)}"
            )
        if not (isinstance(data["vocab"], list) and all(isinstance(t, str) for t in data["vocab"])):
            raise ValueError("model config: vocab must be a list of strings")
        embedding = EmbeddingConfig(d=data["d"], **{k: data[k] for k in EMBEDDING_KEYS})
        return cls(embedding=embedding, vocab=tuple(data["vocab"]),
                   **{k: data[k] for k in MODEL_KEYS})


# Serialized hyperparameter names, derived from the dataclasses; the embedding's
# d is not stored because it always equals the model's d.
MODEL_KEYS = tuple(f.name for f in fields(ModelConfig) if f.name not in ("embedding", "vocab"))
EMBEDDING_KEYS = tuple(f.name for f in fields(EmbeddingConfig) if f.name != "d")


@dataclass
class ModelOutput:
    """Peptide-level scores and residue deviations, one per entry of
    ``MsaBatch.cls_rows`` and ``residue_rows``, in that order; pad cells get none."""

    pmd_pred: Tensor  # [sum of c_b]
    rmd_pred: Tensor  # [total residues of all candidates]


class RerankModel:
    """Spectrum encoder + axial candidate mixer + prediction heads."""

    def __init__(self, config: ModelConfig, table: MassTable, seed: int = 0):
        if tuple(table.tokens) != tuple(config.vocab):
            raise ValueError(
                "mass table tokens do not match the model vocabulary; the "
                "checkpoint was built for a different residue table"
            )
        self.config = config
        self.table = table
        self.store = ParameterStore(seed)
        self._create_params(self.store)
        self.attn_counts = {"spectrum": 0, "row": 0, "col": 0, "cross": 0}

    # -- parameters ---------------------------------------------------------

    def _create_params(self, store: ParameterStore) -> None:
        cfg = self.config
        create_embedding_params(store, cfg.embedding, len(cfg.vocab))
        for i in range(cfg.n_layers):
            self._create_attention_params(store, f"enc{i}/attn")
            self._create_norm_params(store, f"enc{i}/attn_norm")
            self._create_ff_params(store, f"enc{i}/ff")
            self._create_norm_params(store, f"enc{i}/ff_norm")
        self._create_norm_params(store, "enc_final_norm")
        for i in range(cfg.n_layers):
            for sub in ("row", "col", "cross"):
                self._create_attention_params(store, f"mix{i}/{sub}")
                self._create_norm_params(store, f"mix{i}/{sub}_norm")
            self._create_ff_params(store, f"mix{i}/ff")
            self._create_norm_params(store, f"mix{i}/ff_norm")
        store.create("head/pmd_w", (cfg.d, 1), init="xavier")
        store.create("head/pmd_b", (1,), init="zeros")
        store.create("head/rmd_w", (cfg.d, 1), init="xavier")
        store.create("head/rmd_b", (1,), init="zeros")

    def _create_attention_params(self, store: ParameterStore, prefix: str) -> None:
        d = self.config.d
        for name in ("wq", "wk", "wv", "wo"):
            store.create(f"{prefix}/{name}", (d, d), init="xavier")
        for name in ("bq", "bk", "bv", "bo"):
            store.create(f"{prefix}/{name}", (d,), init="zeros")

    def _create_ff_params(self, store: ParameterStore, prefix: str) -> None:
        d, ff = self.config.d, self.config.ff_dim
        store.create(f"{prefix}/w1", (d, ff), init="xavier")
        store.create(f"{prefix}/b1", (ff,), init="zeros")
        store.create(f"{prefix}/w2", (ff, d), init="xavier")
        store.create(f"{prefix}/b2", (d,), init="zeros")

    def _create_norm_params(self, store: ParameterStore, prefix: str) -> None:
        store.create(f"{prefix}/gain", (self.config.d,), init="ones")
        store.create(f"{prefix}/bias", (self.config.d,), init="zeros")

    def reset_attention_counts(self) -> None:
        self.attn_counts = {key: 0 for key in self.attn_counts}

    # -- building blocks ----------------------------------------------------

    def _attention_sublayer(self, x: Tensor, prefix: str, groups: Sequence[ag.AttentionGroup],
                            dropout_rng, memory: Tensor | None = None) -> Tensor:
        """Pre-norm residual multi-head attention of packed rows x [n, d] over
        the packed rows [m, d] of ``memory`` (cross attention), or over their
        own normed values when it is None; one sequence per group entry."""
        store = self.store
        normed = ag.layer_norm(x, store[f"{prefix}_norm/gain"], store[f"{prefix}_norm/bias"])
        key_value = normed if memory is None else memory
        q = ag.linear(normed, store[f"{prefix}/wq"], store[f"{prefix}/bq"])
        k = ag.linear(key_value, store[f"{prefix}/wk"], store[f"{prefix}/bk"])
        v = ag.linear(key_value, store[f"{prefix}/wv"], store[f"{prefix}/bv"])
        context = ag.attention(q, k, v, groups, self.config.n_heads)
        out = ag.linear(context, store[f"{prefix}/wo"], store[f"{prefix}/bo"])
        return ag.add(x, ag.dropout(out, self.config.dropout_rate, dropout_rng))

    def _ff_sublayer(self, x: Tensor, prefix: str, dropout_rng) -> Tensor:
        store = self.store
        normed = ag.layer_norm(x, store[f"{prefix}_norm/gain"], store[f"{prefix}_norm/bias"])
        hidden = ag.gelu(ag.linear(normed, store[f"{prefix}/w1"], store[f"{prefix}/b1"]))
        out = ag.linear(hidden, store[f"{prefix}/w2"], store[f"{prefix}/b2"])
        return ag.add(x, ag.dropout(out, self.config.dropout_rate, dropout_rng))

    # -- model stages -------------------------------------------------------

    def spectrum_encoder(self, peaks: Tensor, counts: np.ndarray, dropout_rng=None) -> Tensor:
        """Self-attention stack over packed peak embeddings [n, d] -> [n, d].

        ``counts`` [B] gives each spectrum's number of peaks, in packing
        order; a peak attends to its own spectrum's peaks only.
        """
        groups = _self_groups(np.cumsum(counts) - counts, np.ones_like(counts), counts)
        for i in range(self.config.n_layers):
            peaks = self._attention_sublayer(peaks, f"enc{i}/attn", groups, dropout_rng)
            peaks = self._ff_sublayer(peaks, f"enc{i}/ff", dropout_rng)
        store = self.store
        return ag.layer_norm(peaks, store["enc_final_norm/gain"], store["enc_final_norm/bias"])

    def axial_block(self, grid: Tensor, layout: "AxialLayout", spectrum: Tensor, index: int,
                    dropout_rng=None) -> Tensor:
        """One mixer block over the packed grid [N, d]: row, column and cross
        attention, then feed-forward.

        Row attention runs over each candidate row of its spectrum's own
        grid; adjacent spectra of equal width share a group. Column
        attention runs over each column of a grid, grouped by candidate
        count; its sublayer takes the cells in column-major order (a
        permutation in and out), so a lone spectrum runs exactly the
        transposed grid's arithmetic. Cross attention lets each spectrum's
        cells query its own encoded peaks. No attention crosses spectra, so
        only pad cells need masking, as keys.
        """
        grid = self._attention_sublayer(grid, f"mix{index}/row", layout.rows, dropout_rng)
        columns = self._attention_sublayer(
            ag.take(grid, layout.to_columns, axis=0), f"mix{index}/col", layout.columns,
            dropout_rng
        )
        grid = ag.take(columns, layout.from_columns, axis=0)
        grid = self._attention_sublayer(grid, f"mix{index}/cross", layout.cross, dropout_rng,
                                        memory=spectrum)
        return self._ff_sublayer(grid, f"mix{index}/ff", dropout_rng)

    def predict_heads(self, grid: Tensor, batch: MsaBatch) -> ModelOutput:
        """Linear readouts of the packed grid [N, d]: the peptide head over
        ``batch.cls_rows``, the residue head over ``batch.residue_rows``
        (see :class:`ModelOutput`)."""
        store = self.store
        pmd_pred = ag.linear(ag.take(grid, batch.cls_rows, axis=0),
                             store["head/pmd_w"], store["head/pmd_b"])
        rmd_pred = ag.linear(ag.take(grid, batch.residue_rows, axis=0),
                             store["head/rmd_w"], store["head/rmd_b"])
        return ModelOutput(pmd_pred=ag.reshape(pmd_pred, (-1,)),
                           rmd_pred=ag.reshape(rmd_pred, (-1,)))

    def forward(self, spectra: ProcessedSpectrum | Sequence[ProcessedSpectrum],
                candidates: Sequence[Peptide] | Sequence[Sequence[Peptide]],
                dropout_rng: np.random.Generator | None = None) -> tuple[ModelOutput, MsaBatch]:
        """Score the candidates of B spectra in one packed batch.

        ``spectra`` is a sequence of B processed spectra and ``candidates``
        their candidate lists; one spectrum with its candidate list is the
        B=1 batch. Each spectrum keeps its own peaks and its own c_b x w_b
        grid (see :class:`MsaBatch`); the outputs are packed in spectrum
        order (see :class:`ModelOutput`).

        Dropout follows the generator: each sublayer draws its mask from
        ``dropout_rng`` (training), and without one nothing is dropped
        (scoring). Each call adds its attention score counts to ``attn_counts``.
        """
        if isinstance(spectra, ProcessedSpectrum):
            spectra, candidates = [spectra], [candidates]
        config = self.config.embedding
        peaks = collate_peaks(spectra)
        encoded = self.spectrum_encoder(
            embed_spectrum(peaks, self.store, config), peaks.counts, dropout_rng
        )
        batch = assemble_msa(
            candidates, [s.precursor for s in spectra], self.table, self.store, config
        )
        layout = AxialLayout.of(batch, peaks.counts)
        for key, count in layout.scores.items():
            self.attn_counts[key] += self.config.n_layers * count
        grid = batch.embeddings
        for i in range(self.config.n_layers):
            grid = self.axial_block(grid, layout, encoded, i, dropout_rng)
        return self.predict_heads(grid, batch), batch


def _self_groups(starts: np.ndarray, counts: np.ndarray, lengths: np.ndarray,
                 mask: np.ndarray | None = None) -> list[ag.AttentionGroup]:
    """Self-attention groups over blocks of ``counts[i]`` sequences of
    ``lengths[i]`` rows from row ``starts[i]``; the blocks must tile the rows
    in the order given. Adjacent blocks of equal length form one group.
    ``mask`` marks the valid rows as keys (default: all)."""
    groups: list[ag.AttentionGroup] = []
    for start, count, length in zip(starts.tolist(), counts.tolist(), lengths.tolist()):
        if groups and groups[-1].n_q == length:
            groups[-1] = groups[-1]._replace(count=groups[-1].count + count)
        else:
            groups.append(ag.AttentionGroup(start, start, count, length, length))
    if mask is not None:
        groups = [g._replace(key_mask=mask[g.q_start : g.q_start + g.count * g.n_q]
                             .reshape(g.count, g.n_q)) for g in groups]
    return groups


@dataclass
class AxialLayout:
    """How the attention of a packed grid splits into groups, built once per
    forward and shared by every mixer block.

    ``rows`` and ``cross`` index the packed rows, which hold the grids in
    spectrum order; ``columns`` index the column-major order that
    ``to_columns`` gathers (grids by candidate count, each transposed) and
    ``from_columns`` undoes. ``scores`` counts the attention scores of one
    layer: its encoder layer's over each spectrum's own peaks, and its
    mixer block's over each spectrum's own c x w grid.
    """

    rows: list[ag.AttentionGroup]
    columns: list[ag.AttentionGroup]
    cross: list[ag.AttentionGroup]
    to_columns: np.ndarray
    from_columns: np.ndarray
    scores: dict[str, int]

    @classmethod
    def of(cls, batch: MsaBatch, peak_counts: np.ndarray) -> "AxialLayout":
        shapes, mask = batch.shapes, batch.mask
        n_rows, widths = shapes[:, 0], shapes[:, 1]
        rows = _self_groups(batch.starts, n_rows, widths, mask)

        # column-major order: grids by candidate count, each transposed
        by_count = np.argsort(n_rows, kind="stable")
        to_columns = np.concatenate([batch.cells(b).T.ravel() for b in by_count])
        sizes = n_rows[by_count] * widths[by_count]
        columns = _self_groups(np.cumsum(sizes) - sizes, widths[by_count], n_rows[by_count],
                               mask[to_columns])
        from_columns = np.argsort(to_columns)

        peak_starts = np.cumsum(peak_counts) - peak_counts
        cross = [ag.AttentionGroup(int(batch.starts[b]), int(peak_starts[b]), 1,
                                   int(n_rows[b] * widths[b]), int(peak_counts[b]))
                 for b in range(len(shapes))]
        scores = {"spectrum": int((peak_counts * peak_counts).sum()),
                  "row": int((n_rows * widths * widths).sum()),
                  "col": int((widths * n_rows * n_rows).sum()),
                  "cross": int((n_rows * widths * peak_counts).sum())}
        return cls(rows, columns, cross, to_columns, from_columns, scores)


# ---------------------------------------------------------------------------
# losses and selection


def joint_loss(output: ModelOutput, pmd_targets: np.ndarray, rmd_targets: np.ndarray,
               loss_lambda: float, instances: tuple[np.ndarray, np.ndarray]) -> Tensor:
    """Mean over instances of lambda * RMSE(peptide scores) + (1 - lambda) *
    RMSE(residue scores), each RMSE taken over one instance's scores.

    ``instances`` gives the instance index of each peptide score and of
    each residue score; each instance needs both, and none is pooled.
    """
    pmd_ids, rmd_ids = instances
    pmd_term = ag.rmse(output.pmd_pred, Tensor(pmd_targets), segments=pmd_ids)
    rmd_term = ag.rmse(output.rmd_pred, Tensor(rmd_targets), segments=rmd_ids)
    if pmd_term.shape != rmd_term.shape:  # rmse drops a trailing segment with no element
        raise ValueError("an instance has zero unmasked elements (no peptide or residue score)")
    return ag.mean(ag.add(ag.mul(pmd_term, loss_lambda), ag.mul(rmd_term, 1.0 - loss_lambda)))


def rerank_select(pmd_pred) -> int:
    """Index of the smallest predicted peptide-level deviation (ties: lowest index)."""
    values = pmd_pred.data if isinstance(pmd_pred, Tensor) else np.asarray(pmd_pred)
    if values.size == 0:
        raise ValueError("cannot select from an empty candidate list")
    if not np.isfinite(values).all():
        raise ValueError(f"cannot select from non-finite scores {values.tolist()}")
    return int(np.argmin(values))
