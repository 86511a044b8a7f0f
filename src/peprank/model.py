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

    pmd_pred: Tensor  # [c]
    rmd_pred: Tensor  # [c, L], CLS column excluded


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
                   key_mask: np.ndarray | None, counter: str) -> Tensor:
        store = self.store
        n_heads = self.config.n_heads
        batch, n_q, d = query.shape
        n_k = key_value.shape[1]
        dh = d // n_heads

        def heads(x, length):
            return ag.transpose(ag.reshape(x, (batch, length, n_heads, dh)), (0, 2, 1, 3))

        q = heads(ag.linear(query, store[f"{prefix}/wq"], store[f"{prefix}/bq"]), n_q)
        k = heads(ag.linear(key_value, store[f"{prefix}/wk"], store[f"{prefix}/bk"]), n_k)
        v = heads(ag.linear(key_value, store[f"{prefix}/wv"], store[f"{prefix}/bv"]), n_k)

        scores = ag.mul(ag.matmul(q, ag.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
        self.attn_counts[counter] += batch * n_q * n_k
        if key_mask is None:
            mask = np.ones((batch, 1, 1, n_k), dtype=bool)
        else:
            mask = key_mask.reshape(batch, 1, 1, n_k)
        probs = ag.softmax_masked(scores, mask)
        context = ag.matmul(probs, v)
        context = ag.reshape(ag.transpose(context, (0, 2, 1, 3)), (batch, n_q, d))
        return ag.linear(context, store[f"{prefix}/wo"], store[f"{prefix}/bo"])

    def _self_attention_sublayer(self, x: Tensor, prefix: str, key_mask: np.ndarray | None,
                                 counter: str, training: bool, rng) -> Tensor:
        store = self.store
        normed = ag.layer_norm(x, store[f"{prefix}_norm/gain"], store[f"{prefix}_norm/bias"])
        out = self._attention(prefix, normed, normed, key_mask, counter)
        return ag.add(x, ag.dropout(out, self.config.dropout_rate, training, rng))

    def _ff_sublayer(self, x: Tensor, prefix: str, training: bool, rng) -> Tensor:
        store = self.store
        normed = ag.layer_norm(x, store[f"{prefix}_norm/gain"], store[f"{prefix}_norm/bias"])
        hidden = ag.gelu(ag.linear(normed, store[f"{prefix}/w1"], store[f"{prefix}/b1"]))
        out = ag.linear(hidden, store[f"{prefix}/w2"], store[f"{prefix}/b2"])
        return ag.add(x, ag.dropout(out, self.config.dropout_rate, training, rng))

    # -- model stages -------------------------------------------------------

    def spectrum_encoder(self, peaks: Tensor, training: bool = False, rng=None) -> Tensor:
        """Self-attention stack over the embedded peaks [k, d] -> [1, k, d]."""
        k = peaks.shape[0]
        x = ag.reshape(peaks, (1, k, self.config.d))
        for i in range(self.config.n_layers):
            x = self._self_attention_sublayer(x, f"enc{i}/attn", None, "spectrum", training, rng)
            x = self._ff_sublayer(x, f"enc{i}/ff", training, rng)
        store = self.store
        return ag.layer_norm(x, store["enc_final_norm/gain"], store["enc_final_norm/bias"])

    def axial_block(self, grid: Tensor, mask: np.ndarray, spectrum: Tensor, index: int,
                    training: bool = False, rng=None) -> Tensor:
        """One mixer block: row, column, cross attention, then feed-forward.

        Row attention masks padded keys within each candidate; column
        attention masks candidates whose token at that column is padding;
        cross attention lets every candidate token query the spectrum.
        """
        c, width, d = grid.shape
        grid = self._self_attention_sublayer(
            grid, f"mix{index}/row", mask, "row", training, rng
        )
        columns = ag.transpose(grid, (1, 0, 2))
        columns = self._self_attention_sublayer(
            columns, f"mix{index}/col", mask.T.copy(), "col", training, rng
        )
        grid = ag.transpose(columns, (1, 0, 2))

        store = self.store
        flat = ag.reshape(grid, (1, c * width, d))
        normed = ag.layer_norm(
            flat, store[f"mix{index}/cross_norm/gain"], store[f"mix{index}/cross_norm/bias"]
        )
        crossed = self._attention(f"mix{index}/cross", normed, spectrum, None, "cross")
        crossed = ag.dropout(crossed, self.config.dropout_rate, training, rng)
        grid = ag.add(grid, ag.reshape(crossed, (c, width, d)))

        return self._ff_sublayer(grid, f"mix{index}/ff", training, rng)

    def predict_heads(self, grid: Tensor) -> ModelOutput:
        """Linear readouts: CLS column -> peptide score, tokens -> residue scores."""
        c, width, d = grid.shape
        store = self.store
        cls = ag.reshape(ag.take(grid, [0], axis=1), (c, d))
        pmd_pred = ag.reshape(
            ag.linear(cls, store["head/pmd_w"], store["head/pmd_b"]), (c,)
        )
        tokens = ag.take(grid, np.arange(1, width), axis=1)
        rmd_pred = ag.reshape(
            ag.linear(tokens, store["head/rmd_w"], store["head/rmd_b"]), (c, width - 1)
        )
        return ModelOutput(pmd_pred=pmd_pred, rmd_pred=rmd_pred)

    def forward(self, spectrum: ProcessedSpectrum, candidates: list[Peptide],
                training: bool = False, rng=None) -> tuple[ModelOutput, MsaBatch]:
        """Full forward pass for one spectrum and its candidate list."""
        if training and self.config.dropout_rate > 0 and rng is None:
            raise ValueError("training-mode forward needs an rng for dropout")
        peaks = embed_spectrum(spectrum, self.store, self.config.embedding)
        encoded = self.spectrum_encoder(peaks, training, rng)
        batch = assemble_msa(
            candidates, spectrum.precursor, self.table, self.store, self.config.embedding
        )
        grid = batch.embeddings
        for i in range(self.config.n_layers):
            grid = self.axial_block(grid, batch.mask, encoded, i, training, rng)
        return self.predict_heads(grid), batch


# ---------------------------------------------------------------------------
# losses and selection


def joint_loss(output: ModelOutput, pmd_targets: np.ndarray, rmd_targets: np.ndarray,
               rmd_mask: np.ndarray, loss_lambda: float) -> Tensor:
    """lambda * RMSE(peptide scores) + (1 - lambda) * masked RMSE(residue scores)."""
    pmd_term = ag.rmse(output.pmd_pred, Tensor(pmd_targets))
    rmd_term = ag.rmse(output.rmd_pred, Tensor(rmd_targets), rmd_mask)
    return ag.add(ag.mul(pmd_term, loss_lambda), ag.mul(rmd_term, 1.0 - loss_lambda))


def rerank_select(pmd_pred) -> int:
    """Index of the smallest predicted peptide-level deviation (ties: lowest index)."""
    values = pmd_pred.data if isinstance(pmd_pred, Tensor) else np.asarray(pmd_pred)
    if values.size == 0:
        raise ValueError("cannot select from an empty candidate list")
    if not np.isfinite(values).all():
        raise ValueError(f"cannot select from non-finite scores {values.tolist()}")
    return int(np.argmin(values))
