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

The forward pass takes B spectra at once: peaks are padded to [B, K, d]
and the candidate grids to [B, C, W, d], and masks keep every padded
cell away from every real one. A training minibatch is one such batch
(one autograd graph); a single spectrum is the B=1 call.
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
        if self.d % self.n_heads != 0:
            raise ValueError(f"d={self.d} not divisible by n_heads={self.n_heads}")
        if not 0.0 <= self.loss_lambda <= 1.0:
            raise ValueError(f"loss_lambda must be in [0, 1], got {self.loss_lambda}")
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
        for key, accepted in SCALAR_TYPES.items():
            if type(data[key]) not in accepted:
                raise ValueError(f"model config: {key} has the wrong type: {data[key]!r}")
        if not (isinstance(data["vocab"], list) and all(isinstance(t, str) for t in data["vocab"])):
            raise ValueError("model config: vocab must be a list of strings")
        embedding = EmbeddingConfig(d=data["d"], **{k: data[k] for k in EMBEDDING_KEYS})
        return cls(embedding=embedding, vocab=tuple(data["vocab"]),
                   **{k: data[k] for k in MODEL_KEYS})


# Serialized hyperparameter names, derived from the dataclasses; the embedding's
# d is not stored because it always equals the model's d.
MODEL_KEYS = tuple(f.name for f in fields(ModelConfig) if f.name not in ("embedding", "vocab"))
EMBEDDING_KEYS = tuple(f.name for f in fields(EmbeddingConfig) if f.name != "d")
# JSON types accepted per serialized scalar: an int is a valid float, a bool neither.
SCALAR_TYPES = {f.name: {"int": (int,), "float": (int, float)}[f.type]
                for f in (*fields(ModelConfig), *fields(EmbeddingConfig))
                if f.name in MODEL_KEYS + EMBEDDING_KEYS}


@dataclass
class ModelOutput:
    """Per-candidate peptide-level scores and per-residue deviations."""

    pmd_pred: Tensor  # [c], or [B, C] for a batch
    rmd_pred: Tensor  # [c, L], or [B, C, W-1] for a batch; CLS column excluded


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

    def _attention(self, prefix: str, query: Tensor, key_value: Tensor,
                   key_mask: np.ndarray) -> Tensor:
        """Multi-head attention of query [batch, n_q, d] over key_value
        [batch, n_k, d]; ``key_mask`` [batch, n_k] marks the valid keys."""
        store = self.store
        q = ag.linear(query, store[f"{prefix}/wq"], store[f"{prefix}/bq"])
        k = ag.linear(key_value, store[f"{prefix}/wk"], store[f"{prefix}/bk"])
        v = ag.linear(key_value, store[f"{prefix}/wv"], store[f"{prefix}/bv"])
        context = ag.attention(q, k, v, key_mask, self.config.n_heads)
        return ag.linear(context, store[f"{prefix}/wo"], store[f"{prefix}/bo"])

    def _self_attention_sublayer(self, x: Tensor, prefix: str, key_mask: np.ndarray,
                                 training: bool, rng) -> Tensor:
        store = self.store
        normed = ag.layer_norm(x, store[f"{prefix}_norm/gain"], store[f"{prefix}_norm/bias"])
        out = self._attention(prefix, normed, normed, key_mask)
        return ag.add(x, ag.dropout(out, self.config.dropout_rate, training, rng))

    def _ff_sublayer(self, x: Tensor, prefix: str, training: bool, rng) -> Tensor:
        store = self.store
        normed = ag.layer_norm(x, store[f"{prefix}_norm/gain"], store[f"{prefix}_norm/bias"])
        hidden = ag.gelu(ag.linear(normed, store[f"{prefix}/w1"], store[f"{prefix}/b1"]))
        out = ag.linear(hidden, store[f"{prefix}/w2"], store[f"{prefix}/b2"])
        return ag.add(x, ag.dropout(out, self.config.dropout_rate, training, rng))

    # -- model stages -------------------------------------------------------

    def spectrum_encoder(self, peaks: Tensor, peak_mask: np.ndarray | None = None,
                         training: bool = False, rng=None) -> Tensor:
        """Self-attention stack over embedded peaks [B, K, d] -> [B, K, d].

        ``peak_mask`` [B, K] marks real peaks (default: all); padded peaks
        are masked as keys. One spectrum's [k, d] is encoded as [1, k, d].
        """
        x = ag.reshape(peaks, (-1, *peaks.shape[-2:]))
        if peak_mask is None:
            peak_mask = np.ones(x.shape[:2], dtype=bool)
        n_peaks = peak_mask.sum(axis=1)
        for i in range(self.config.n_layers):
            self.attn_counts["spectrum"] += int((n_peaks * n_peaks).sum())
            x = self._self_attention_sublayer(x, f"enc{i}/attn", peak_mask, training, rng)
            x = self._ff_sublayer(x, f"enc{i}/ff", training, rng)
        store = self.store
        return ag.layer_norm(x, store["enc_final_norm/gain"], store["enc_final_norm/bias"])

    def axial_block(self, grid: Tensor, mask: np.ndarray, spectrum: Tensor,
                    peak_mask: np.ndarray, index: int, training: bool = False,
                    rng=None) -> Tensor:
        """One mixer block over the grid [B, C, W, d]: row, column and cross
        attention, then feed-forward.

        ``mask`` [B, C, W] marks real tokens and ``peak_mask`` [B, K] real
        peaks. Row attention runs over the B*C rows and masks padded keys;
        a padded candidate row keeps only its CLS key, so no softmax row is
        empty. Column attention runs over the B*W columns and masks pad
        cells and padded rows; a column past its spectrum's own width has
        no real cell and attends freely, since its output reaches no real
        cell. Cross attention lets every token query its spectrum's real
        peaks. Attention counts cover each spectrum's own c x w grid.
        """
        n_spectra, n_rows, width, d = grid.shape
        real_rows, widths = mask[:, :, 0].sum(axis=1), mask.any(axis=1).sum(axis=1)
        counts = self.attn_counts
        counts["row"] += int((real_rows * widths * widths).sum())
        counts["col"] += int((widths * real_rows * real_rows).sum())
        counts["cross"] += int((real_rows * widths * peak_mask.sum(axis=1)).sum())

        row_keys = mask.copy()
        row_keys[:, :, 0] = True
        rows = ag.reshape(grid, (n_spectra * n_rows, width, d))
        rows = self._self_attention_sublayer(
            rows, f"mix{index}/row", row_keys.reshape(-1, width), training, rng
        )
        columns = ag.transpose(ag.reshape(rows, grid.shape), (0, 2, 1, 3))
        col_keys = mask.transpose(0, 2, 1)
        col_keys = col_keys | ~col_keys.any(axis=2, keepdims=True)
        columns = self._self_attention_sublayer(
            ag.reshape(columns, (n_spectra * width, n_rows, d)), f"mix{index}/col",
            col_keys.reshape(-1, n_rows), training, rng
        )
        grid = ag.transpose(ag.reshape(columns, (n_spectra, width, n_rows, d)), (0, 2, 1, 3))

        store = self.store
        flat = ag.reshape(grid, (n_spectra, n_rows * width, d))
        normed = ag.layer_norm(
            flat, store[f"mix{index}/cross_norm/gain"], store[f"mix{index}/cross_norm/bias"]
        )
        crossed = self._attention(f"mix{index}/cross", normed, spectrum, peak_mask)
        crossed = ag.dropout(crossed, self.config.dropout_rate, training, rng)
        grid = ag.add(grid, ag.reshape(crossed, grid.shape))

        return self._ff_sublayer(grid, f"mix{index}/ff", training, rng)

    def predict_heads(self, grid: Tensor) -> ModelOutput:
        """Linear readouts: CLS column -> peptide score, tokens -> residue scores."""
        n_spectra, n_rows, width, d = grid.shape
        store = self.store
        cls = ag.reshape(ag.take(grid, [0], axis=2), (n_spectra, n_rows, d))
        pmd_pred = ag.reshape(
            ag.linear(cls, store["head/pmd_w"], store["head/pmd_b"]), (n_spectra, n_rows)
        )
        tokens = ag.take(grid, np.arange(1, width), axis=2)
        rmd_pred = ag.reshape(
            ag.linear(tokens, store["head/rmd_w"], store["head/rmd_b"]),
            (n_spectra, n_rows, width - 1),
        )
        return ModelOutput(pmd_pred=pmd_pred, rmd_pred=rmd_pred)

    def forward(self, spectra: ProcessedSpectrum | Sequence[ProcessedSpectrum],
                candidates: Sequence[Peptide] | Sequence[Sequence[Peptide]],
                training: bool = False, rng=None) -> tuple[ModelOutput, MsaBatch]:
        """Score the candidates of B spectra in one padded batch.

        ``spectra`` is a sequence of B processed spectra and ``candidates``
        their candidate lists; the outputs are pmd [B, C] and rmd
        [B, C, W-1] over the padded grid that the returned batch masks.
        One spectrum with its candidate list is the B=1 call, returned
        without the batch axis: pmd [c], rmd [c, L] and a [c, L+1] mask.
        """
        if training and self.config.dropout_rate > 0 and rng is None:
            raise ValueError("training-mode forward needs an rng for dropout")
        single = isinstance(spectra, ProcessedSpectrum)
        if single:
            spectra, candidates = [spectra], [candidates]
        config = self.config.embedding
        peaks = collate_peaks(spectra, config)
        encoded = self.spectrum_encoder(
            embed_spectrum(peaks, self.store, config), peaks.mask, training, rng
        )
        batch = assemble_msa(
            candidates, [s.precursor for s in spectra], self.table, self.store, config
        )
        grid = batch.embeddings
        for i in range(self.config.n_layers):
            grid = self.axial_block(grid, batch.mask, encoded, peaks.mask, i, training, rng)
        output = self.predict_heads(grid)
        if single:
            output = ModelOutput(ag.reshape(output.pmd_pred, output.pmd_pred.shape[1:]),
                                 ag.reshape(output.rmd_pred, output.rmd_pred.shape[1:]))
            batch = MsaBatch(ag.reshape(batch.embeddings, batch.embeddings.shape[1:]),
                             batch.mask[0])
        return output, batch


# ---------------------------------------------------------------------------
# losses and selection


def joint_loss(output: ModelOutput, pmd_targets: np.ndarray, rmd_targets: np.ndarray,
               rmd_mask: np.ndarray, loss_lambda: float,
               pmd_mask: np.ndarray | None = None) -> Tensor:
    """lambda * RMSE(peptide scores) + (1 - lambda) * masked RMSE(residue scores).

    For a batch (``pmd_pred`` [B, C]) both RMSEs are taken per instance,
    over its real candidates (``pmd_mask`` [B, C]) and real residues, and
    the loss is the mean over instances of their joint losses; no RMSE is
    pooled across instances.
    """
    batched = output.pmd_pred.ndim == 2
    pmd_term = ag.rmse(output.pmd_pred, Tensor(pmd_targets), pmd_mask, per_row=batched)
    rmd_term = ag.rmse(output.rmd_pred, Tensor(rmd_targets), rmd_mask, per_row=batched)
    loss = ag.add(ag.mul(pmd_term, loss_lambda), ag.mul(rmd_term, 1.0 - loss_lambda))
    return ag.mean(loss) if batched else loss


def rerank_select(pmd_pred) -> int:
    """Index of the smallest predicted peptide-level deviation (ties: lowest index)."""
    values = pmd_pred.data if isinstance(pmd_pred, Tensor) else np.asarray(pmd_pred)
    if values.size == 0:
        raise ValueError("cannot select from an empty candidate list")
    if not np.isfinite(values).all():
        raise ValueError(f"cannot select from non-finite scores {values.tolist()}")
    return int(np.argmin(values))
