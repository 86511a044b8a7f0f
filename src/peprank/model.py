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

Scoring reads only CLS cells, so a forward without residues keeps, in its
last mixer block, each grid's first two columns: they query their whole
candidate row, then run the other sublayers alone. Two, because a one-row
product takes another BLAS path; from two rows up a row's bits match a
taller product's. The scores keep the full forward's bits, except past
256 peaks, where OpenBLAS blocks cross-attention's [n_q, 8] @ [8, K] by
n_q and they move by ~1e-14 relative.

The forward pass takes B spectra at once, packed with no padding across
spectra: the peaks as [sum of K_b, d] and each spectrum's own c_b x w_b
candidate grid as rows of one [N, d] array. Token-wise ops run once over
the packed rows; each attention gathers its sequences' rows by index,
within one spectrum each, and batches sequences of equal shape into one
product, so no sublayer reorders the grid. A training minibatch is one such
batch (one autograd graph), whose large attention groups may run on the
helper thread through :func:`peprank.threads.run`, with the same bits (see
:func:`peprank.autograd.attention`); a single spectrum is the one-spectrum
batch, with the same outputs in the same format.
"""

from __future__ import annotations

import threading
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
    ``MsaBatch.cls_rows`` and ``residue_rows``, in that order; pad cells get
    none. A forward without residues leaves ``rmd_pred`` None."""

    pmd_pred: Tensor  # [sum of c_b]
    rmd_pred: Tensor | None  # [total residues of all candidates]


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
        self._count_lock = threading.Lock()  # a rerank helper thread adds counts too

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

    def _attention_sublayer(self, x: Tensor, prefix: str, kind: str,
                            groups: Sequence[ag.AttentionGroup], dropout_rng,
                            memory: Tensor | None = None,
                            queries: np.ndarray | None = None) -> Tensor:
        """Pre-norm residual multi-head attention of packed rows x [n, d] over
        the packed rows [m, d] of ``memory`` (cross attention), or over their
        own normed values when it is None; one sequence per group entry.
        With ``queries``, only those rows of x query, and only they are
        returned, in that order. Adds the scores it computes, one per query
        and key pair, to ``attn_counts[kind]``."""
        scores = sum(g.q.size * g.k.shape[1] for g in groups)
        with self._count_lock:
            self.attn_counts[kind] += scores
        store = self.store
        normed = ag.layer_norm(x, store[f"{prefix}_norm/gain"], store[f"{prefix}_norm/bias"])
        key_value = normed if memory is None else memory
        if queries is not None:  # a layer norm is row-wise: the kept rows keep their bits
            x, normed = ag.take(x, queries, axis=0), ag.take(normed, queries, axis=0)
        q = ag.linear(normed, store[f"{prefix}/wq"], store[f"{prefix}/bq"])
        k = ag.linear(key_value, store[f"{prefix}/wk"], store[f"{prefix}/bk"])
        v = ag.linear(key_value, store[f"{prefix}/wv"], store[f"{prefix}/bv"])
        context = ag.attention(q, k, v, groups, self.config.n_heads)
        out = ag.linear(context, store[f"{prefix}/wo"], store[f"{prefix}/bo"])
        return self._residual(x, out, dropout_rng)

    def _ff_sublayer(self, x: Tensor, prefix: str, dropout_rng) -> Tensor:
        store = self.store
        normed = ag.layer_norm(x, store[f"{prefix}_norm/gain"], store[f"{prefix}_norm/bias"])
        projected = ag.linear(normed, store[f"{prefix}/w1"], store[f"{prefix}/b1"])
        hidden = ag.gelu(projected)
        projected.release()  # gelu keeps its derivative, not its input
        out = ag.linear(hidden, store[f"{prefix}/w2"], store[f"{prefix}/b2"])
        return self._residual(x, out, dropout_rng)

    def _residual(self, x: Tensor, out: Tensor, dropout_rng) -> Tensor:
        """x plus the dropped-out output. No backward reads either (an add reads
        shapes, a layer norm its own normalized copy), so the output is
        released here, and the stream x by the caller after the next sublayer."""
        dropped = ag.dropout(out, self.config.dropout_rate, dropout_rng)
        summed = ag.add(x, dropped)
        out.release()
        dropped.release()
        return summed

    # -- model stages -------------------------------------------------------

    def spectrum_encoder(self, peaks: Tensor, counts: np.ndarray, dropout_rng=None) -> Tensor:
        """Self-attention stack over packed peak embeddings [n, d] -> [n, d].

        ``counts`` [B] gives each spectrum's number of peaks, in packing
        order; a peak attends to its own spectrum's peaks only.
        """
        groups = _groups([(rows, rows) for rows in _peak_rows(counts)])
        stream = [peaks]
        for i in range(self.config.n_layers):
            stream.append(self._attention_sublayer(stream[-1], f"enc{i}/attn", "spectrum", groups,
                                                   dropout_rng))
            stream.append(self._ff_sublayer(stream[-1], f"enc{i}/ff", dropout_rng))
        store = self.store
        encoded = ag.layer_norm(stream[-1], store["enc_final_norm/gain"],
                                store["enc_final_norm/bias"])
        for x in stream[1:]:  # stream[0] is the caller's
            x.release()
        return encoded

    def axial_block(self, grid: Tensor, layout: "AxialLayout", spectrum: Tensor, index: int,
                    dropout_rng=None) -> Tensor:
        """One mixer block over the packed grid [N, d]: row, column and cross
        attention, then feed-forward, on the cells that ``layout`` keeps.

        Row attention runs over each candidate row of its spectrum's own
        grid, column attention over each column of it, and cross attention
        lets each spectrum's cells query its own encoded peaks; every
        sublayer runs on the grid as it is packed, its attention gathering
        the rows of each sequence (see :class:`AxialLayout`). No attention
        crosses spectra, so only pad cells need masking, as keys. Each
        sublayer adds the scores it computes to ``attn_counts``.
        """
        stream = [grid]
        for sub, groups, memory, queries in (("row", layout.rows, None, layout.keep),
                                             ("col", layout.columns, None, None),
                                             ("cross", layout.cross, spectrum, None)):
            stream.append(self._attention_sublayer(stream[-1], f"mix{index}/{sub}", sub, groups,
                                                   dropout_rng, memory, queries))
        out = self._ff_sublayer(stream[-1], f"mix{index}/ff", dropout_rng)
        for x in stream[1:]:  # stream[0] is the caller's
            x.release()
        return out

    def predict_heads(self, grid: Tensor, layout: "AxialLayout",
                      residue_rows: np.ndarray | None) -> ModelOutput:
        """Linear readouts of the last mixer block's output ``grid``: the
        peptide head over ``layout.cls_rows``, the residue head over
        ``residue_rows`` when given (see :class:`ModelOutput`).

        The peptide head runs once per spectrum, on its own c_b CLS rows: a
        [rows, d] @ [d, 1] product's bits depend on how the rows fall into
        the kernel's blocks, so this keeps each spectrum's scores those of
        its B=1 forward, whatever its batch-mates.
        """
        store = self.store
        pmd_pred = ag.concat([ag.linear(ag.take(grid, rows, axis=0), store["head/pmd_w"],
                                        store["head/pmd_b"]) for rows in layout.cls_rows])
        rmd_pred = None if residue_rows is None else ag.reshape(ag.linear(
            ag.take(grid, residue_rows, axis=0), store["head/rmd_w"], store["head/rmd_b"]), (-1,))
        return ModelOutput(pmd_pred=ag.reshape(pmd_pred, (-1,)), rmd_pred=rmd_pred)

    def forward(self, spectra: ProcessedSpectrum | Sequence[ProcessedSpectrum],
                candidates: Sequence[Peptide] | Sequence[Sequence[Peptide]],
                dropout_rng: np.random.Generator | None = None,
                residues: bool = True) -> tuple[ModelOutput, MsaBatch]:
        """Score the candidates of B spectra in one packed batch.

        ``spectra`` is a sequence of B processed spectra and ``candidates``
        their candidate lists; one spectrum with its candidate list is the
        B=1 batch. Each spectrum keeps its own peaks and its own c_b x w_b
        grid (see :class:`MsaBatch`); the outputs are packed in spectrum
        order (see :class:`ModelOutput`).

        Dropout follows the generator: each sublayer draws its mask from
        ``dropout_rng`` (training), and without one nothing is dropped
        (scoring). Without ``residues``, ``rmd_pred`` is None and the last
        mixer block updates only the ``SCORED_COLUMNS`` that the peptide head
        needs (see the module docstring). Each call adds its attention score
        counts to ``attn_counts``.
        """
        if isinstance(spectra, ProcessedSpectrum):
            spectra, candidates = [spectra], [candidates]
        config = self.config.embedding
        peaks = collate_peaks(spectra)
        embedded = embed_spectrum(peaks, self.store, config)
        encoded = self.spectrum_encoder(embedded, peaks.counts, dropout_rng)
        batch = assemble_msa(
            candidates, [s.precursor for s in spectra], self.table, self.store, config
        )
        layout = AxialLayout.of(batch, peaks.counts)
        last = layout if residues else AxialLayout.of(batch, peaks.counts, SCORED_COLUMNS)
        grids = [batch.embeddings]
        for i in range(self.config.n_layers):
            grids.append(self.axial_block(grids[-1], last if i == self.config.n_layers - 1
                                          else layout, encoded, i, dropout_rng))
        output = self.predict_heads(grids[-1], last, batch.residue_rows if residues else None)
        for x in [embedded] + grids[1:]:  # grids[0] is the caller's MsaBatch.embeddings
            x.release()
        return output, batch


def _groups(blocks, mask: np.ndarray | None = None) -> list[ag.AttentionGroup]:
    """Attention groups from blocks of (query rows [count, n_q], key rows
    [count, n_k]); blocks of equal shape share one group, in order of first
    appearance. ``mask`` marks the valid rows as keys (default: all)."""
    by_shape: dict[tuple[int, int], list] = {}
    for q, k in blocks:
        by_shape.setdefault((q.shape[1], k.shape[1]), []).append((q, k))
    groups = []
    for same in by_shape.values():
        q, k = (np.concatenate(rows) for rows in zip(*same))
        groups.append(ag.AttentionGroup(q, k, None if mask is None else mask[k]))
    return groups


def _peak_rows(counts: np.ndarray) -> list[np.ndarray]:
    """Each spectrum's rows of the packed peaks, as one [1, K_b] sequence."""
    return [rows[None] for rows in np.split(np.arange(counts.sum()), np.cumsum(counts)[:-1])]


SCORED_COLUMNS = 2  # the last block's when scoring: CLS and a second, see above


@dataclass
class AxialLayout:
    """How a mixer block over a packed grid splits its attention into groups,
    built once per forward and shared by the blocks that update the same cells.

    The block updates, and returns packed in spectrum, row, then column
    order, the first ``kept`` columns of each spectrum's grid (all of them
    by default); ``keep`` holds their rows in the block's input, None when
    the block keeps every cell in place. Each group indexes packed rows:
    ``rows`` each candidate row's kept cells querying all of that row's
    cells (the rows of ``MsaBatch.cells(b)``), ``columns`` each kept column
    over itself, and ``cross`` all of spectrum b's kept cells against its
    own peaks. ``cls_rows`` holds each spectrum's CLS rows in the output.
    """

    rows: list[ag.AttentionGroup]
    columns: list[ag.AttentionGroup]
    cross: list[ag.AttentionGroup]
    keep: np.ndarray | None
    cls_rows: list[np.ndarray]

    @classmethod
    def of(cls, batch: MsaBatch, peak_counts: np.ndarray, kept: int | None = None) -> "AxialLayout":
        cells = [batch.cells(b) for b in range(len(batch.shapes))]
        inputs = [grid[:, :kept] for grid in cells]
        sizes = np.array([grid.size for grid in inputs])
        outputs = [start + np.arange(grid.size).reshape(grid.shape)
                   for start, grid in zip(np.cumsum(sizes) - sizes, inputs)]
        keep = None if kept is None else np.concatenate([grid.ravel() for grid in inputs])
        rows = _groups(list(zip(outputs, cells)), batch.mask)
        columns = _groups([(grid.T, grid.T) for grid in outputs],
                          batch.mask if keep is None else batch.mask[keep])
        cross = _groups([(grid.reshape(1, -1), peaks)
                         for grid, peaks in zip(outputs, _peak_rows(peak_counts))])
        return cls(rows, columns, cross, keep, [grid[:, 0] for grid in outputs])


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
