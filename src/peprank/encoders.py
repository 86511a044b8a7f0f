"""Deterministic embedding math for spectra and candidate peptides.

Peak positions are encoded with a sinusoid whose wavelengths are scaled
to the allowed m/z window; all masses (prefix, suffix, precursor) use a
fixed sinusoidal embedding. Candidate rows concatenate a learned residue
embedding with prefix- and suffix-mass sinusoids; a CLS row carries the
precursor. Candidates are padded to a common length with a learned pad
vector and stacked into a grid; a learned positional embedding is added
per column (shared across rows, so row order carries no information).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Stacked candidate embeddings [c, L+1, d] with a validity mask [c, L+1]."""

    embeddings: Tensor
    mask: np.ndarray
    lengths: tuple[int, ...]

    @property
    def width(self) -> int:
        return self.embeddings.shape[1]


def mz_sinusoid(mu: float, config: EmbeddingConfig) -> np.ndarray:
    """Fixed d-dimensional encoding of one m/z value.

    Component 2k is sin((2*pi*mu/mu_min) / (mu_max/mu_min)**(k/d)) and
    component 2k+1 the matching cosine. ``mu`` must lie inside the
    configured window.
    """
    if not (config.mu_min <= mu <= config.mu_max):
        raise ValueError(
            f"m/z {mu} outside embedding range [{config.mu_min}, {config.mu_max}]"
        )
    d = config.d
    k = np.arange(d // 2, dtype=np.float64)
    scale = (config.mu_max / config.mu_min) ** (k / d)
    angle = (2.0 * np.pi * mu / config.mu_min) / scale
    out = np.empty(d, dtype=np.float64)
    out[0::2] = np.sin(angle)
    out[1::2] = np.cos(angle)
    return out


def mass_sinusoid(m: float, dim: int) -> np.ndarray:
    """Fixed sinusoidal encoding of a non-negative mass into ``dim`` floats."""
    if dim % 2 != 0:
        raise ValueError(f"sinusoid dimension must be even, got {dim}")
    if m < 0:
        raise ValueError(f"mass must be non-negative, got {m}")
    k = np.arange(dim // 2, dtype=np.float64)
    angle = 2.0 * np.pi * m / (10000.0 ** (k / dim))
    out = np.empty(dim, dtype=np.float64)
    out[0::2] = np.sin(angle)
    out[1::2] = np.cos(angle)
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


def embed_spectrum(spectrum: ProcessedSpectrum, store: ParameterStore, config: EmbeddingConfig) -> Tensor:
    """Per-peak embeddings [k, d]: m/z sinusoid plus a linear map of intensity.

    No positional embedding is added; peaks are an unordered set.
    """
    sinusoids = np.stack([mz_sinusoid(mz, config) for mz in spectrum.mz])
    intensity = Tensor(spectrum.intensity.reshape(-1, 1))
    projected = ag.linear(intensity, store["spectrum/intensity_w"], store["spectrum/intensity_b"])
    return ag.add(Tensor(sinusoids), projected)


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
    learned charge embedding (d/2).
    """
    if len(peptide) == 0:
        raise ValueError("cannot embed an empty peptide")
    charge = precursor.charge
    if not (1 <= charge <= config.max_charge):
        raise ValueError(
            f"precursor charge {charge} outside the learned range 1..{config.max_charge}"
        )
    index = {token: i for i, token in enumerate(table.tokens)}
    try:
        token_ids = [index[token] for token in peptide]
    except KeyError as exc:
        raise ValueError(f"unknown residue token {exc.args[0]!r}") from None

    prefixes = cumulative_masses(peptide, table, "prefix")
    suffixes = cumulative_masses(peptide, table, "suffix")
    prefix_part = Tensor(np.stack([mass_sinusoid(m, config.d_prefix) for m in prefixes]))
    suffix_part = Tensor(np.stack([mass_sinusoid(m, config.d_suffix) for m in suffixes]))
    residue_part = ag.take(store["embed/residue"], token_ids, axis=0)
    rows = ag.concat([residue_part, prefix_part, suffix_part], axis=1)

    precursor_part = ag.add(
        Tensor(mass_sinusoid(precursor.neutral_mass, config.d_prec).reshape(1, -1)),
        ag.take(store["embed/charge"], [charge - 1], axis=0),
    )
    cls_row = ag.concat(
        [ag.reshape(store["embed/cls"], (1, config.d_res)), precursor_part], axis=1
    )
    return ag.concat([cls_row, rows], axis=0)


def assemble_msa(
    candidates: list[Peptide],
    precursor: Precursor,
    table: MassTable,
    store: ParameterStore,
    config: EmbeddingConfig,
) -> MsaBatch:
    """Stack candidate embeddings into a padded grid with its mask.

    Shorter candidates are extended with the learned pad vector; the
    per-column positional embedding is added to every row. There is no
    per-row embedding, so permuting candidates permutes the grid rows
    exactly.
    """
    if not candidates:
        raise ValueError("assemble_msa requires at least one candidate")
    lengths = [len(p) for p in candidates]
    for peptide, length in zip(candidates, lengths):
        if length > config.max_len:
            raise ValueError(
                f"candidate {peptide.render()!r} has {length} residues, "
                f"exceeding max_len={config.max_len}"
            )
    longest = max(lengths)
    width = longest + 1

    rows = []
    for peptide, length in zip(candidates, lengths):
        emb = embed_candidate(peptide, precursor, table, store, config)
        if length < longest:
            pad = ag.add(
                Tensor(np.zeros((longest - length, config.d))),
                ag.reshape(store["embed/pad"], (1, config.d)),
            )
            emb = ag.concat([emb, pad], axis=0)
        rows.append(ag.reshape(emb, (1, width, config.d)))
    stacked = ag.concat(rows, axis=0)
    positions = ag.take(store["embed/position"], np.arange(width), axis=0)
    embeddings = ag.add(stacked, positions)

    mask = np.zeros((len(candidates), width), dtype=bool)
    for row, length in enumerate(lengths):
        mask[row, : length + 1] = True
    return MsaBatch(embeddings=embeddings, mask=mask, lengths=tuple(lengths))
