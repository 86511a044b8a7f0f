"""MGF ingestion and spectrum preprocessing.

Preprocessing applies, in order: m/z range filtering, truncation to the
most intense peaks, re-sorting by m/z, and square-root intensity
normalization over the retained peaks. The processed record keeps the
source intensities of the retained peaks alongside the normalized ones,
so re-running the pipeline on a processed spectrum is a no-op.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np

from .masses import (
    MassTable,
    Peptide,
    Precursor,
    peptide_mz,
    peptide_neutral_mass,
)

MZ_MIN = 50.5  # Da
MZ_MAX = 4500.0  # Da
MAX_PEAKS = 300
PRECURSOR_MZ_TOLERANCE = 2.0  # Da
PRECURSOR_PPM_TOLERANCE = 50.0


@dataclass
class RawSpectrum:
    """One MGF block: peak list, precursor, and optional label text."""

    spectrum_id: str
    mz: np.ndarray
    intensity: np.ndarray
    precursor: Precursor
    label: str | None = None

    def __post_init__(self):
        self.mz = np.asarray(self.mz, dtype=np.float64)
        self.intensity = np.asarray(self.intensity, dtype=np.float64)
        if self.mz.shape != self.intensity.shape:
            raise ValueError("mz and intensity arrays must have equal length")
        if not (np.isfinite(self.mz).all() and np.isfinite(self.intensity).all()):
            raise ValueError(
                f"spectrum {self.spectrum_id!r} has non-finite m/z or intensity values"
            )
        if np.any(self.intensity < 0):
            raise ValueError(f"spectrum {self.spectrum_id!r} has negative intensities")
        order = np.argsort(self.mz, kind="stable")
        self.mz = self.mz[order]
        self.intensity = self.intensity[order]

    @property
    def n_peaks(self) -> int:
        return int(self.mz.size)


@dataclass
class ProcessedSpectrum:
    """Filtered, truncated, normalized peak list ready for embedding."""

    spectrum_id: str
    mz: np.ndarray
    intensity: np.ndarray  # normalized, sums to 1
    raw_intensity: np.ndarray  # source intensities of the retained peaks
    precursor: Precursor
    label: str | None = None

    @property
    def n_peaks(self) -> int:
        return int(self.mz.size)

    def to_raw(self) -> RawSpectrum:
        """Reconstruct a RawSpectrum carrying the retained source peaks."""
        return RawSpectrum(
            spectrum_id=self.spectrum_id,
            mz=self.mz.copy(),
            intensity=self.raw_intensity.copy(),
            precursor=self.precursor,
            label=self.label,
        )


def _parse_charge(value: str, context: str) -> int:
    text = value.strip()
    if text.endswith("+"):
        text = text[:-1]
    if text.endswith("-") or text.startswith("-"):
        raise ValueError(f"{context}: negative precursor charge {value!r} unsupported")
    try:
        charge = int(text)
    except ValueError:
        raise ValueError(f"{context}: unparseable CHARGE {value!r}") from None
    if charge < 1:
        raise ValueError(f"{context}: precursor charge must be >= 1, got {charge}")
    return charge


def parse_mgf(source: TextIO | Iterable[str]) -> list[RawSpectrum]:
    """Parse an MGF stream into raw spectra.

    Blocks are delimited by BEGIN IONS / END IONS; PEPMASS and CHARGE are
    required per block, TITLE names the spectrum (falling back to a
    running index) and must be unique, and an optional SEQ header carries
    the label peptide.
    """
    spectra: list[RawSpectrum] = []
    block_of: dict[str, int] = {}  # spectrum id -> line of its block
    block_line = 0  # line of the open block's BEGIN IONS; 0 outside a block

    for lineno, line in enumerate(source, start=1):
        text = line.strip()
        if block_line and text[:1].isdigit():
            pass  # a peak line, even with a '=' in it: parsed below, past the other checks
        elif not text or text.startswith("#"):
            continue
        elif text == "BEGIN IONS":
            if block_line:
                raise ValueError(f"line {lineno}: nested BEGIN IONS")
            block_line = lineno
            headers: dict[str, str] = {}
            mzs: list[float] = []
            intensities: list[float] = []
            continue
        elif text == "END IONS":
            if not block_line:
                raise ValueError(f"line {lineno}: END IONS without BEGIN IONS")
            context = f"block at line {block_line}"
            if "PEPMASS" not in headers:
                raise ValueError(f"{context}: missing PEPMASS")
            if "CHARGE" not in headers:
                raise ValueError(f"{context}: missing CHARGE")
            try:
                pepmass = float(headers["PEPMASS"].split()[0])
            except (ValueError, IndexError):
                raise ValueError(
                    f"{context}: unparseable PEPMASS {headers['PEPMASS']!r}"
                ) from None
            if not np.isfinite(pepmass):
                raise ValueError(f"{context}: non-finite PEPMASS {headers['PEPMASS']!r}")
            charge = _parse_charge(headers["CHARGE"], context)
            spectrum_id = headers.get("TITLE", f"spectrum_{len(spectra)}")
            if spectrum_id in block_of:
                raise ValueError(f"{context}: duplicate TITLE {spectrum_id!r} "
                                 f"(first used by the block at line {block_of[spectrum_id]})")
            block_of[spectrum_id] = block_line
            try:
                spectrum = RawSpectrum(
                    spectrum_id=spectrum_id,
                    mz=np.array(mzs, dtype=np.float64),
                    intensity=np.array(intensities, dtype=np.float64),
                    precursor=Precursor.from_mz(pepmass, charge),
                    label=headers.get("SEQ"),
                )
            except (ValueError, OverflowError) as exc:  # a CHARGE too large for a float
                raise ValueError(f"{context}: {exc}") from None
            spectra.append(spectrum)
            block_line = 0
            continue
        elif not block_line:
            continue
        elif "=" in text:
            key, _, value = text.partition("=")
            headers[key.strip().upper()] = value.strip()
            continue
        parts = text.split()
        if len(parts) < 2:
            raise ValueError(f"line {lineno}: malformed peak line {text!r}")
        try:
            mzs.append(float(parts[0]))
            intensities.append(float(parts[1]))
        except ValueError:
            raise ValueError(f"line {lineno}: malformed peak line {text!r}") from None

    if block_line:
        raise ValueError(f"unterminated block starting at line {block_line}")
    return spectra


def write_mgf(spectra: Iterable[RawSpectrum], sink: TextIO) -> None:
    """Write spectra as MGF blocks (inverse of :func:`parse_mgf`)."""
    for spectrum in spectra:
        sink.write("BEGIN IONS\n")
        sink.write(f"TITLE={spectrum.spectrum_id}\n")
        sink.write(f"PEPMASS={float(spectrum.precursor.mz)!r}\n")
        sink.write(f"CHARGE={spectrum.precursor.charge}+\n")
        if spectrum.label is not None:
            sink.write(f"SEQ={spectrum.label}\n")
        for mz, intensity in zip(spectrum.mz, spectrum.intensity):
            sink.write(f"{float(mz)!r} {float(intensity)!r}\n")
        sink.write("END IONS\n")


def preprocess_spectrum(spectrum: RawSpectrum) -> ProcessedSpectrum | None:
    """Filter, truncate, and normalize one spectrum.

    Peaks outside [MZ_MIN, MZ_MAX] are dropped; if more than ``MAX_PEAKS``
    remain, only the most intense survive (ties keep the lower m/z);
    intensities of the retained peaks are square-root transformed and
    normalized to sum to one. Returns None when no peaks survive or their
    total intensity is zero; the caller reports the exclusion.
    """
    keep = (spectrum.mz >= MZ_MIN) & (spectrum.mz <= MZ_MAX)
    mz = spectrum.mz[keep]
    intensity = spectrum.intensity[keep]
    if mz.size > MAX_PEAKS:
        # sort by descending intensity, ascending m/z on ties
        order = np.lexsort((mz, -intensity))[:MAX_PEAKS]
        mz = mz[order]
        intensity = intensity[order]
        resort = np.argsort(mz, kind="stable")
        mz = mz[resort]
        intensity = intensity[resort]
    if mz.size == 0:
        return None
    roots = np.sqrt(intensity)
    total = roots.sum()
    if total <= 0:
        return None
    return ProcessedSpectrum(
        spectrum_id=spectrum.spectrum_id,
        mz=mz.copy(),
        intensity=roots / total,
        raw_intensity=intensity.copy(),
        precursor=spectrum.precursor,
        label=spectrum.label,
    )


def validate_precursor(spectrum: RawSpectrum, label: Peptide, table: MassTable) -> bool:
    """Check the observed precursor against the label peptide.

    True when the observed m/z is within ``PRECURSOR_MZ_TOLERANCE`` Da of
    the theoretical m/z at the observed charge and the observed neutral
    mass is within ``PRECURSOR_PPM_TOLERANCE`` parts per million of the
    label's neutral mass.
    """
    theoretical_mz = peptide_mz(label, table, spectrum.precursor.charge)
    theoretical_mass = peptide_neutral_mass(label, table)
    mz_ok = abs(spectrum.precursor.mz - theoretical_mz) <= PRECURSOR_MZ_TOLERANCE
    ppm = abs(spectrum.precursor.neutral_mass - theoretical_mass) / theoretical_mass * 1e6
    return mz_ok and ppm <= PRECURSOR_PPM_TOLERANCE
