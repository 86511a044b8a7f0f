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

import itertools
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import autograd as ag
from .autograd import ParameterStore, Tensor
from .masses import MassTable, Peptide, Precursor, pack_residues
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
    k = np.arange(config.d // 2, dtype=np.float64)
    scale = (config.mu_max / config.mu_min) ** (k / config.d)
    return _sin_cos((2.0 * np.pi * mu[..., None] / config.mu_min) / scale)


def mass_sinusoid(m, dim: int) -> np.ndarray:
    """Fixed sinusoidal encoding of non-negative masses: [..., dim] for ``m`` [...]."""
    if dim % 2 != 0:
        raise ValueError(f"sinusoid dimension must be even, got {dim}")
    m = np.asarray(m, dtype=np.float64)
    if (m < 0).any():
        raise ValueError(f"mass must be non-negative, got {m[m < 0].flat[0]}")
    k = np.arange(dim // 2, dtype=np.float64)
    return _sin_cos(2.0 * np.pi * m[..., None] / (10000.0 ** (k / dim)))


def _sin_cos(angle: np.ndarray) -> np.ndarray:
    """[..., 2k]: the sin of ``angle`` [..., k] at even columns, its cos at odd ones."""
    return np.stack([np.sin(angle), np.cos(angle)], axis=-1).reshape(angle.shape[:-1] + (-1,))


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


def grid_shapes(candidates: Sequence[Sequence[Peptide]]) -> np.ndarray:
    """[B, 2]: each grid's (c_b, w_b), its candidates and its longest one + 1 (the CLS cell)."""
    return np.array([(len(peptides), max(map(len, peptides)) + 1) for peptides in candidates],
                    dtype=np.int64).reshape(-1, 2)


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
    peptides = list(itertools.chain.from_iterable(candidates))
    lengths = np.array(list(map(len, peptides)))
    if (bad := np.flatnonzero((lengths == 0) | (lengths > config.max_len))).size:
        if not (peptide := peptides[bad[0]]):
            raise ValueError("cannot embed an empty peptide")
        raise ValueError(f"candidate {peptide.render()!r} has {len(peptide)} residues, "
                         f"exceeding max_len={config.max_len}")
    charges = np.array([precursor.charge for precursor in precursors])
    if not ((1 <= charges) & (charges <= config.max_charge)).all():
        raise ValueError(
            f"precursor charge {charges.tolist()} outside the learned range 1..{config.max_charge}"
        )
    n_spectra, shapes = len(candidates), grid_shapes(candidates)
    widths = shapes[:, 1].repeat(shapes[:, 0])  # each candidate row's w_b
    cls_rows = np.cumsum(widths) - widths
    starts = cls_rows[np.cumsum(shapes[:, 0]) - shapes[:, 0]]
    masses, row, position = pack_residues(peptides, table)
    residue_rows = cls_rows[row] + 1 + position
    index = {token: i for i, token in enumerate(table.tokens)}
    token_ids = list(map(index.__getitem__, itertools.chain.from_iterable(peptides)))
    grid = np.zeros((len(peptides), int(lengths.max())))
    grid[row, position] = masses  # a row-wise cumsum adds as cumulative_masses does
    prefixes = np.cumsum(grid, axis=1)[row, position]
    suffixes = np.cumsum(grid[:, ::-1], axis=1)[row, grid.shape[1] - 1 - position]
    # each cell's source row: its spectrum's CLS row (0..B-1), its residue's
    # row (B..), or for a pad cell the pad row after them
    pad_row = n_spectra + masses.size
    source = np.full(int(widths.sum()), pad_row, dtype=np.intp)
    source[cls_rows] = np.repeat(np.arange(n_spectra), shapes[:, 0])
    source[residue_rows] = np.arange(n_spectra, pad_row)
    mask = source != pad_row

    residues = ag.concat([
        ag.take(store["embed/residue"], token_ids, axis=0),
        Tensor(mass_sinusoid(prefixes, config.d_prefix)),
        Tensor(mass_sinusoid(suffixes, config.d_suffix)),
    ], axis=1)
    precursor_part = ag.add(
        Tensor(mass_sinusoid(np.array([p.neutral_mass for p in precursors]), config.d_prec)),
        ag.take(store["embed/charge"], charges - 1, axis=0),
    )
    cls = ag.concat(
        [ag.add(np.zeros((n_spectra, config.d_res)), store["embed/cls"]), precursor_part], axis=1
    )
    sources = ag.concat([cls, residues, ag.reshape(store["embed/pad"], (1, config.d))], axis=0)
    columns = np.arange(source.size) - cls_rows.repeat(widths)
    positions = ag.take(store["embed/position"], columns, axis=0)
    gathered = ag.take(sources, source, axis=0)
    embeddings = ag.add(gathered, positions)
    for dead in (sources, gathered, positions):  # their backward reads only shapes
        dead.release()
    return MsaBatch(embeddings=embeddings, mask=mask, shapes=shapes, starts=starts,
                    cls_rows=cls_rows, residue_rows=residue_rows)
