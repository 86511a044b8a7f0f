"""Deterministic embedding math for spectra and candidate peptides.

Peak positions are encoded with a sinusoid whose wavelengths are scaled
to the allowed m/z window; all masses (prefix, suffix, precursor) use a
fixed sinusoidal embedding. Candidate rows concatenate a learned residue
embedding with prefix- and suffix-mass sinusoids; a CLS row carries the
precursor. The candidates of B spectra are padded to a common length
with a learned pad vector, and to a common count, into one grid; a
learned positional embedding is added per column (shared across rows, so
row order carries no information).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autograd as ag
from .autograd import ParameterStore, Tensor
from .masses import MassTable, Peptide, Precursor, cumulative_masses
from .spectra import MZ_MAX, MZ_MIN, ProcessedSpectrum


@dataclass(frozen=True)
class EmbeddingConfig:
    """Dimension layout and vocabulary limits for the embedding stage."""

    d: int
    mu_min: float = MZ_MIN
    mu_max: float = MZ_MAX
    max_len: int = 100
    max_charge: int = 10

    def __post_init__(self):
        if self.d % 4 != 0:
            raise ValueError(f"model dimension must be divisible by 4, got {self.d}")
        for name, dim in (("d_res", self.d_res), ("d_prefix", self.d_prefix),
                          ("d_suffix", self.d_suffix), ("d_prec", self.d_prec)):
            if dim % 2 != 0:
                raise ValueError(f"sub-dimension {name}={dim} must be even (d={self.d})")
        if self.mu_min <= 0 or self.mu_max <= self.mu_min:
            raise ValueError("require 0 < mu_min < mu_max")
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
    """Padded candidate grid [B, C, W, d] with its token mask [B, C, W].

    The mask marks real cells: each real candidate's CLS cell and its
    residues. Pad cells, the rows of a spectrum with fewer than C
    candidates and the columns past a spectrum's own width are False.
    """

    embeddings: Tensor
    mask: np.ndarray

    @property
    def width(self) -> int:
        return self.mask.shape[-1]


@dataclass
class PeakBatch:
    """Peaks of B spectra padded to the largest peak count K.

    ``mz`` and ``intensity`` are [B, K]; padded peaks sit at ``mu_min``
    with zero intensity and are False in ``mask``.
    """

    mz: np.ndarray
    intensity: np.ndarray
    mask: np.ndarray

    @property
    def n_peaks(self) -> int:
        """Real peaks, padding excluded."""
        return int(self.mask.sum())


def collate_peaks(spectra: Sequence[ProcessedSpectrum], config: EmbeddingConfig) -> PeakBatch:
    """Pad the spectra's peak lists into one :class:`PeakBatch`."""
    shape = (len(spectra), max(s.n_peaks for s in spectra))
    batch = PeakBatch(np.full(shape, config.mu_min), np.zeros(shape), np.zeros(shape, dtype=bool))
    for row, spectrum in enumerate(spectra):
        k = spectrum.n_peaks
        batch.mz[row, :k] = spectrum.mz
        batch.intensity[row, :k] = spectrum.intensity
        batch.mask[row, :k] = True
    return batch


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
    a :class:`ProcessedSpectrum`, [B, K] for a :class:`PeakBatch`; the
    result is that shape plus d. No positional embedding is added; peaks
    are an unordered set.
    """
    intensity = Tensor(peaks.intensity[..., None])
    projected = ag.linear(intensity, store["spectrum/intensity_w"], store["spectrum/intensity_b"])
    return ag.add(Tensor(mz_sinusoid(peaks.mz, config)), projected)


def _candidate_cells(
    candidates: Sequence[Sequence[Peptide]],
    precursors: Sequence[Precursor],
    table: MassTable,
    store: ParameterStore,
    config: EmbeddingConfig,
) -> tuple[Tensor, np.ndarray]:
    """The padded grid [B, C, W, d] before positions, and its token mask."""
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
    n_rows = max(len(peptides) for peptides in candidates)
    longest = max(len(p) for peptides in candidates for p in peptides)
    token_ids = np.zeros((n_spectra, n_rows, longest), dtype=np.intp)
    prefixes = np.zeros((n_spectra, n_rows, longest))
    suffixes = np.zeros((n_spectra, n_rows, longest))
    mask = np.zeros((n_spectra, n_rows, longest + 1), dtype=bool)
    for b, peptides in enumerate(candidates):
        for row, peptide in enumerate(peptides):
            n = len(peptide)
            try:
                token_ids[b, row, :n] = [index[token] for token in peptide]
            except KeyError as exc:
                raise ValueError(f"unknown residue token {exc.args[0]!r}") from None
            prefixes[b, row, :n] = cumulative_masses(peptide, table, "prefix")
            suffixes[b, row, :n] = cumulative_masses(peptide, table, "suffix")
            mask[b, row, : n + 1] = True

    # residue cells: learned residue embedding, then prefix and suffix sinusoids;
    # every other cell after the CLS column is the learned pad vector
    residues = ag.concat([
        ag.take(store["embed/residue"], token_ids, axis=0),
        Tensor(mass_sinusoid(prefixes, config.d_prefix)),
        Tensor(mass_sinusoid(suffixes, config.d_suffix)),
    ], axis=-1)
    real = mask[..., 1:, None]
    residues = ag.add(ag.mul(residues, real), ag.mul(store["embed/pad"], ~real))

    # CLS cells: learned CLS vector, then precursor-mass sinusoid plus charge embedding
    precursor_part = ag.add(
        Tensor(mass_sinusoid(np.array([p.neutral_mass for p in precursors]), config.d_prec)),
        ag.take(store["embed/charge"], charges - 1, axis=0),
    )
    cls = ag.concat(
        [ag.add(np.zeros((n_spectra, config.d_res)), store["embed/cls"]), precursor_part], axis=1
    )
    cls = ag.add(np.zeros((n_spectra, n_rows, 1, config.d)),
                 ag.reshape(cls, (n_spectra, 1, 1, config.d)))
    return ag.concat([cls, residues], axis=2), mask


def embed_candidate(
    peptide: Peptide,
    precursor: Precursor,
    table: MassTable,
    store: ParameterStore,
    config: EmbeddingConfig,
) -> Tensor:
    """Embed one candidate as [len+1, d]: a CLS row then one row per residue.

    Residue rows concatenate the learned residue embedding (d/2) with
    prefix- and suffix-mass sinusoids (d/4 each). The CLS row concatenates
    the learned CLS vector (d/2) with the precursor-mass sinusoid plus the
    learned charge embedding (d/2). These are the cells of
    :func:`assemble_msa`, before positions.
    """
    cells, _ = _candidate_cells([[peptide]], [precursor], table, store, config)
    return ag.reshape(cells, cells.shape[2:])


def assemble_msa(
    candidates: Sequence[Sequence[Peptide]],
    precursors: Sequence[Precursor],
    table: MassTable,
    store: ParameterStore,
    config: EmbeddingConfig,
) -> MsaBatch:
    """Embed B spectra's candidate lists into one padded grid with its mask.

    Row c of spectrum b holds its c-th candidate (see
    :func:`embed_candidate`). Cells past a candidate's end hold the
    learned pad vector; C is the largest candidate count and W the
    longest candidate plus one, so a spectrum with fewer candidates gets
    rows of a CLS cell and pad cells. The per-column positional embedding
    is added to every row. There is no per-row embedding, so permuting
    candidates permutes the grid rows exactly.
    """
    cells, mask = _candidate_cells(candidates, precursors, table, store, config)
    positions = ag.take(store["embed/position"], np.arange(mask.shape[-1]), axis=0)
    return MsaBatch(embeddings=ag.add(cells, positions), mask=mask)
