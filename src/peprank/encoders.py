"""Deterministic embedding math for spectra and candidate peptides.

Peak positions are encoded with a sinusoid whose wavelengths are scaled
to the allowed m/z window; all masses (prefix, suffix, precursor) use a
fixed sinusoidal embedding. Candidate rows concatenate a learned residue
embedding with prefix- and suffix-mass sinusoids; a CLS row carries the
precursor. Each spectrum's candidates form its own grid, padded only to
its longest candidate with a learned pad vector; the grids of B spectra
and their peak lists are packed end to end, with no padding across
spectra. A learned positional embedding is added per column (shared
across rows, so row order carries no information).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import autograd as ag
from .autograd import ParameterStore, Tensor
from .masses import MassTable, Peptide, Precursor, cumulative_masses
from .spectra import MZ_MAX, MZ_MIN, ProcessedSpectrum

# Types accepted per declared scalar field type: an int is a valid float, a bool neither.
_SCALAR_TYPES = {"int": (int,), "float": (int, float)}


def check_field_types(config) -> None:
    """Reject a dataclass instance whose int or float field holds another type."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type in _SCALAR_TYPES and type(value) not in _SCALAR_TYPES[f.type]:
            raise ValueError(f"{type(config).__name__}: {f.name} has the wrong type: {value!r}")


@dataclass(frozen=True)
class EmbeddingConfig:
    """Dimension layout and vocabulary limits for the embedding stage."""

    d: int
    mu_min: float = MZ_MIN
    mu_max: float = MZ_MAX
    max_len: int = 100
    max_charge: int = 10

    def __post_init__(self):
        check_field_types(self)
        if self.d % 8 != 0:
            raise ValueError(f"model dimension must be divisible by 8, so that every "
                             f"sub-dimension (d/4, d/2) is even, got {self.d}")
        if not 0 < self.mu_min < self.mu_max < np.inf:  # NaN fails every comparison
            raise ValueError(f"require 0 < mu_min < mu_max < inf, got {self.mu_min}, {self.mu_max}")
        if self.max_len < 1 or self.max_charge < 1:
            raise ValueError("max_len and max_charge must be positive")

    @property
    def d_res(self) -> int:
        return self.d // 2

    @property
    def d_prefix(self) -> int:
        return self.d // 4

    @property
    def d_suffix(self) -> int:
        return self.d // 4

    @property
    def d_prec(self) -> int:
        return self.d // 2


@dataclass
class MsaBatch:
    """Candidate grids of B spectra, packed with no padding across spectra.

    Spectrum b keeps its own grid of c_b candidate rows by w_b cells (a CLS
    cell, then residues and pad cells up to its longest candidate), stored
    row-major as rows ``starts[b] : starts[b] + c_b * w_b`` of
    ``embeddings`` [N, d], in spectrum order. ``shapes`` [B, 2] holds
    (c_b, w_b).
    ``cls_rows`` [sum of c_b] and ``residue_rows`` [total residues] hold the
    packed row of each CLS cell and each residue, in spectrum, then
    candidate, then residue order; ``mask`` [N] marks their union.
    """

    embeddings: Tensor
    mask: np.ndarray
    shapes: np.ndarray
    starts: np.ndarray
    cls_rows: np.ndarray
    residue_rows: np.ndarray

    @property
    def width(self) -> int:
        """The widest grid's w."""
        return int(self.shapes[:, 1].max())

    def cells(self, b: int) -> np.ndarray:
        """Indices of spectrum b's cells in the packed rows, as its [c_b, w_b] grid."""
        n_rows, width = self.shapes[b]
        return self.starts[b] + np.arange(n_rows * width).reshape(n_rows, width)


@dataclass
class PeakBatch:
    """Peaks of B spectra packed end to end: ``mz`` and ``intensity`` are
    [sum of K_b], and ``counts`` [B] holds each spectrum's K_b."""

    mz: np.ndarray
    intensity: np.ndarray
    counts: np.ndarray

    @property
    def n_peaks(self) -> int:
        return int(self.counts.sum())


def collate_peaks(spectra: Sequence[ProcessedSpectrum]) -> PeakBatch:
    """Pack the spectra's peak lists into one :class:`PeakBatch`."""
    return PeakBatch(np.concatenate([s.mz for s in spectra]),
                     np.concatenate([s.intensity for s in spectra]),
                     np.array([s.n_peaks for s in spectra]))


def mz_sinusoid(mu, config: EmbeddingConfig) -> np.ndarray:
    """Fixed d-dimensional encoding of m/z values: [..., d] for ``mu`` [...].

    Component 2k is sin((2*pi*mu/mu_min) / (mu_max/mu_min)**(k/d)) and
    component 2k+1 the matching cosine. Every ``mu`` must lie inside the
    configured window.
    """
    mu = np.asarray(mu, dtype=np.float64)
    inside = (config.mu_min <= mu) & (mu <= config.mu_max)
    if not inside.all():
        raise ValueError(
            f"m/z {mu[~inside].flat[0]} outside embedding range "
            f"[{config.mu_min}, {config.mu_max}]"
        )
    d = config.d
    k = np.arange(d // 2, dtype=np.float64)
    scale = (config.mu_max / config.mu_min) ** (k / d)
    angle = (2.0 * np.pi * mu[..., None] / config.mu_min) / scale
    out = np.empty(mu.shape + (d,), dtype=np.float64)
    out[..., 0::2] = np.sin(angle)
    out[..., 1::2] = np.cos(angle)
    return out


def mass_sinusoid(m, dim: int) -> np.ndarray:
    """Fixed sinusoidal encoding of non-negative masses: [..., dim] for ``m`` [...]."""
    if dim % 2 != 0:
        raise ValueError(f"sinusoid dimension must be even, got {dim}")
    m = np.asarray(m, dtype=np.float64)
    if (m < 0).any():
        raise ValueError(f"mass must be non-negative, got {m[m < 0].flat[0]}")
    k = np.arange(dim // 2, dtype=np.float64)
    angle = 2.0 * np.pi * m[..., None] / (10000.0 ** (k / dim))
    out = np.empty(m.shape + (dim,), dtype=np.float64)
    out[..., 0::2] = np.sin(angle)
    out[..., 1::2] = np.cos(angle)
    return out


def create_embedding_params(store: ParameterStore, config: EmbeddingConfig, vocab_size: int) -> None:
    """Register all learnable embedding tensors on a parameter store."""
    store.create("embed/residue", (vocab_size, config.d_res))
    store.create("embed/cls", (config.d_res,))
    store.create("embed/charge", (config.max_charge, config.d_prec))
    store.create("embed/pad", (config.d,))
    store.create("embed/position", (config.max_len + 1, config.d))
    store.create("spectrum/intensity_w", (1, config.d), init="xavier")
    store.create("spectrum/intensity_b", (config.d,), init="zeros")


def embed_spectrum(peaks, store: ParameterStore, config: EmbeddingConfig) -> Tensor:
    """Per-peak embeddings: m/z sinusoid plus a linear map of intensity.

    ``peaks`` holds ``mz`` and ``intensity`` arrays of one shape: [k] for
    a :class:`ProcessedSpectrum`, the packed [sum of K_b] for a
    :class:`PeakBatch`; the result is [k, d] or [sum of K_b, d]. No
    positional embedding is added; peaks are an unordered set.
    """
    intensity = Tensor(peaks.intensity[..., None])
    projected = ag.linear(intensity, store["spectrum/intensity_w"], store["spectrum/intensity_b"])
    return ag.add(Tensor(mz_sinusoid(peaks.mz, config)), projected)


def assemble_msa(
    candidates: Sequence[Sequence[Peptide]],
    precursors: Sequence[Precursor],
    table: MassTable,
    store: ParameterStore,
    config: EmbeddingConfig,
) -> MsaBatch:
    """Embed B spectra's candidate lists into one packed :class:`MsaBatch`.

    Row r of spectrum b's grid holds its r-th candidate: a CLS cell, which
    concatenates the learned CLS vector (d/2) with the precursor-mass
    sinusoid plus the learned charge embedding (d/2), then one cell per
    residue, which concatenates the learned residue embedding (d/2) with
    prefix- and suffix-mass sinusoids (d/4 each). Cells past a candidate's
    end, up to its spectrum's width, hold the learned pad vector. The
    per-column positional embedding is added to every cell. There is no
    per-row embedding, so permuting candidates permutes the grid rows
    exactly. The CLS and residue rows it records are the rows the heads read.
    """
    if not candidates or not all(candidates):
        raise ValueError("assemble_msa requires at least one candidate per spectrum")
    for peptide in (p for peptides in candidates for p in peptides):
        if len(peptide) == 0:
            raise ValueError("cannot embed an empty peptide")
        if len(peptide) > config.max_len:
            raise ValueError(
                f"candidate {peptide.render()!r} has {len(peptide)} residues, "
                f"exceeding max_len={config.max_len}"
            )
    charges = np.array([precursor.charge for precursor in precursors])
    if not ((1 <= charges) & (charges <= config.max_charge)).all():
        raise ValueError(
            f"precursor charge {charges.tolist()} outside the learned range 1..{config.max_charge}"
        )
    index = {token: i for i, token in enumerate(table.tokens)}
    n_spectra = len(candidates)
    shapes = np.array([(len(peptides), max(len(p) for p in peptides) + 1)
                       for peptides in candidates])
    sizes = shapes[:, 0] * shapes[:, 1]
    starts = np.cumsum(sizes) - sizes

    cls_rows, residue_rows, token_ids, prefixes, suffixes = [], [], [], [], []
    for b, peptides in enumerate(candidates):
        for row, peptide in enumerate(peptides):
            cls_rows.append(starts[b] + row * shapes[b, 1])
            residue_rows.extend(range(cls_rows[-1] + 1, cls_rows[-1] + len(peptide) + 1))
            try:
                token_ids.extend(index[token] for token in peptide)
            except KeyError as exc:
                raise ValueError(f"unknown residue token {exc.args[0]!r}") from None
            prefixes.append(cumulative_masses(peptide, table, "prefix"))
            suffixes.append(cumulative_masses(peptide, table, "suffix"))
    cls_rows, residue_rows = np.array(cls_rows, np.intp), np.array(residue_rows, np.intp)
    # each cell's source row: its spectrum's CLS row (0..B-1), its residue's
    # row (B..), or for a pad cell the pad row after them
    pad_row = n_spectra + len(token_ids)
    source = np.full(int(sizes.sum()), pad_row, dtype=np.intp)
    source[cls_rows] = np.repeat(np.arange(n_spectra), shapes[:, 0])
    source[residue_rows] = np.arange(n_spectra, pad_row)
    mask = source != pad_row

    residues = ag.concat([
        ag.take(store["embed/residue"], token_ids, axis=0),
        Tensor(mass_sinusoid(np.concatenate(prefixes), config.d_prefix)),
        Tensor(mass_sinusoid(np.concatenate(suffixes), config.d_suffix)),
    ], axis=1)
    precursor_part = ag.add(
        Tensor(mass_sinusoid(np.array([p.neutral_mass for p in precursors]), config.d_prec)),
        ag.take(store["embed/charge"], charges - 1, axis=0),
    )
    cls = ag.concat(
        [ag.add(np.zeros((n_spectra, config.d_res)), store["embed/cls"]), precursor_part], axis=1
    )
    sources = ag.concat([cls, residues, ag.reshape(store["embed/pad"], (1, config.d))], axis=0)
    columns = np.concatenate([np.tile(np.arange(w), c) for c, w in shapes])
    positions = ag.take(store["embed/position"], columns, axis=0)
    embeddings = ag.add(ag.take(sources, source, axis=0), positions)
    return MsaBatch(embeddings=embeddings, mask=mask, shapes=shapes, starts=starts,
                    cls_rows=cls_rows, residue_rows=residue_rows)
