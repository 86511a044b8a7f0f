"""Residue mass table, peptide tokenization, and precursor mass arithmetic.

Every other module builds on the primitives here: residue tokens of the
form ``X`` or ``X(mod)``, monoisotopic mass lookups, cumulative prefix /
suffix masses, :func:`pack_residues`, which lays a peptide list's residues
out for padded grids, the neutral-mass / m-z relations for precursor ions, and
:func:`parse_lines`, the line-numbered reader that every text format shares.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

WATER_MASS = 18.010565  # Da, monoisotopic H2O
PROTON_MASS = 1.007276  # Da


class MassTable:
    """Ordered token -> monoisotopic residue mass lookup.

    Token order is preserved from the source; it defines the residue
    indexing used by the divergence matrix and the model vocabulary.
    """

    def __init__(self, entries: Mapping[str, float] | Iterable[tuple[str, float]]):
        items = list(entries.items()) if isinstance(entries, Mapping) else list(entries)
        if not items:
            raise ValueError("mass table is empty")
        masses: dict[str, float] = {}
        for token, mass in items:
            if not token:
                raise ValueError("empty residue token")
            if token in masses:
                raise ValueError(f"duplicate residue token {token!r}")
            mass = float(mass)
            if not math.isfinite(mass) or mass <= 0.0:
                raise ValueError(f"mass for {token!r} must be positive, got {mass}")
            masses[token] = mass
        self._masses = masses
        self._tokens = tuple(masses)

    @property
    def tokens(self) -> tuple[str, ...]:
        return self._tokens

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._masses

    def mass(self, token: str) -> float:
        try:
            return self._masses[token]
        except KeyError:
            raise ValueError(f"unknown residue token {token!r}") from None

    def mass_array(self) -> np.ndarray:
        """Masses as a float64 vector in token order."""
        return np.array([self._masses[t] for t in self._tokens], dtype=np.float64)

    def __repr__(self) -> str:
        return f"MassTable({len(self)} tokens)"


@dataclass(frozen=True)
class Peptide:
    """Immutable ordered sequence of residue tokens."""

    residues: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.residues)

    def __iter__(self) -> Iterator[str]:
        return iter(self.residues)

    def render(self) -> str:
        return "".join(self.residues)

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class Precursor:
    """Precursor ion observation: m/z and charge, with the neutral mass they imply."""

    mz: float
    charge: int

    def __post_init__(self):
        if not math.isfinite(self.mz) or not math.isfinite(self.neutral_mass):
            raise ValueError(f"precursor m/z {self.mz} and neutral mass must be finite")

    @property
    def neutral_mass(self) -> float:
        return precursor_neutral_mass(self.mz, self.charge)

    @classmethod
    def from_mz(cls, mz: float, charge: int) -> "Precursor":
        return cls(mz=mz, charge=charge)


def parse_lines(source: Iterable[str], parse: Callable[[str], object], *, comments: bool = False,
                strip: bool = True, first: int = 1, unique: Callable | None = None) -> list:
    """``parse`` of each line, numbered from ``first``: stripped (without ``strip``, only of
    its newline) and skipped when empty or, with ``comments``, a ``#`` line. A ValueError, or
    a ``unique`` name seen before, is raised again as ``line N: reason``."""
    parsed, first_seen = [], {}  # first_seen: the line of each unique name
    for lineno, line in enumerate(source, start=first):
        text = line.strip() if strip else line.rstrip("\n")
        if not text or comments and text[0] == "#":
            continue
        try:
            parsed.append(item := parse(text))
            if unique and first_seen.setdefault(name := unique(item), lineno) != lineno:
                raise ValueError(f"duplicate {name}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return parsed


def tab_fields(text: str, count: int, message: str) -> list[str]:
    """``text`` split at tabs into exactly ``count`` fields, else ValueError(message)."""
    if len(fields := text.split("\t")) != count:
        raise ValueError(message)
    return fields


def _mass_entry(text: str) -> tuple[str, float]:
    token, raw = map(str.strip, tab_fields(text, 2, f"expected 'token<TAB>mass', got {text!r}"))
    try:
        mass = float(raw)
    except ValueError:
        raise ValueError(f"unparseable mass {raw!r}") from None
    alone = MassTable({token: mass})  # checks the mass
    try:
        parse_peptide(token, alone)
    except ValueError:
        raise ValueError(f"residue token {token!r} is not one character with an "
                         "optional (modification)") from None
    return token, mass


def load_mass_table(source: TextIO | Iterable[str]) -> MassTable:
    """Parse a ``token<TAB>mass`` stream, skipping blank lines and ``#`` comments.
    A token must tokenize back to itself (a character plus an optional
    parenthesized modification), be new, and have a positive mass."""
    return MassTable(parse_lines(source, _mass_entry, comments=True,
                                 unique=lambda entry: f"residue token {entry[0]!r}"))


def default_mass_table() -> MassTable:
    """The packaged default vocabulary: 20 canonical residues + M(O), N(D), Q(D)."""
    ref = resources.files("peprank.data").joinpath("residue_masses.tsv")
    with ref.open("r", encoding="utf-8") as handle:
        return load_mass_table(handle)


def parse_peptide(text: str, table: MassTable) -> Peptide:
    """Tokenize peptide text greedily left to right.

    A parenthesized group binds to the immediately preceding base letter,
    forming a single token, e.g. ``"M(O)K"`` -> ``[M(O), K]``. Unknown
    tokens and dangling parentheses raise ValueError.
    """
    tokens: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "(":
            raise ValueError(f"modification group without a preceding residue in {text!r}")
        if ch == ")":
            raise ValueError(f"unmatched ')' in {text!r}")
        token = ch
        i += 1
        if i < n and text[i] == "(":
            end = text.find(")", i + 1)
            if end < 0:
                raise ValueError(f"unterminated modification group in {text!r}")
            token += text[i : end + 1]
            i = end + 1
        if token not in table:
            raise ValueError(f"unknown residue token {token!r} in {text!r}")
        tokens.append(token)
    return Peptide(tuple(tokens))


def residue_masses(peptide: Peptide | Iterable[str], table: MassTable) -> np.ndarray:
    """Per-residue masses of a peptide (or any run of tokens) as a float64 vector."""
    masses = table._masses  # one dict lookup per token: this runs for every PMD pair
    try:
        return np.array([masses[t] for t in peptide], dtype=np.float64)
    except KeyError as exc:
        raise ValueError(f"unknown residue token {exc.args[0]!r}") from None


def pack_residues(peptides: Sequence[Peptide], table: MassTable) -> tuple[np.ndarray, ...]:
    """Every residue mass of ``peptides``, one after another, with its peptide and position:
    ``grid[peptide, position] = masses`` fills a zero-padded [P, longest] grid, whose row-wise
    cumsum, or that of its reversed rows, adds as :func:`cumulative_masses` does."""
    lengths = np.array(list(map(len, peptides)), dtype=np.int64)
    masses = residue_masses(itertools.chain.from_iterable(peptides), table)
    starts = (np.cumsum(lengths) - lengths).repeat(lengths)
    return masses, np.arange(len(peptides)).repeat(lengths), np.arange(masses.size) - starts


def cumulative_masses(peptide: Peptide, table: MassTable, direction: str = "prefix") -> np.ndarray:
    """Cumulative residue masses.

    ``prefix[i]`` sums residues 0..i; ``suffix[i]`` sums residues i..end.
    An empty peptide yields an empty vector.
    """
    masses = residue_masses(peptide, table)
    if direction == "prefix":
        return np.cumsum(masses)
    if direction == "suffix":
        return np.cumsum(masses[::-1])[::-1].copy()
    raise ValueError(f"direction must be 'prefix' or 'suffix', got {direction!r}")


def peptide_neutral_mass(peptide: Peptide, table: MassTable) -> float:
    """Neutral monoisotopic mass: residue masses plus one water."""
    return float(residue_masses(peptide, table).sum()) + WATER_MASS


def peptide_mz(peptide: Peptide, table: MassTable, charge: int) -> float:
    """Theoretical precursor m/z of a peptide at a given charge."""
    if charge < 1:
        raise ValueError(f"charge must be >= 1, got {charge}")
    return (peptide_neutral_mass(peptide, table) + charge * PROTON_MASS) / charge


def precursor_neutral_mass(mz: float, charge: int) -> float:
    """Neutral mass from observed precursor m/z and charge."""
    if charge < 1:
        raise ValueError(f"charge must be >= 1, got {charge}")
    if mz <= PROTON_MASS:
        raise ValueError(f"precursor m/z must exceed the proton mass, got {mz}")
    return (mz - PROTON_MASS) * charge
