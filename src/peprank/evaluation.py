"""Benchmark metrics and corpus-level analyses for peptide predictions.

The residue matching rule follows the community convention for de novo
sequencing evaluation: predicted and true residues are walked in
parallel over cumulative prefix masses, a pair is considered only while
the cumulative masses agree within ``CUM_TOLERANCE``, and a considered pair
matches when the residue masses differ by less than ``AA_TOLERANCE`` and
the cumulative masses *before* the pair also agree within ``CUM_TOLERANCE``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .masses import MassTable, Peptide, residue_masses

AA_TOLERANCE = 0.1  # Da, per-residue mass rule
CUM_TOLERANCE = 0.5  # Da, cumulative prefix/suffix rule


@dataclass(frozen=True)
class MatchResult:
    """Residue-level and peptide-level match outcome for one prediction."""

    per_residue: np.ndarray  # bool, aligned to the predicted peptide
    peptide_matched: bool

    @property
    def n_matched(self) -> int:
        return int(self.per_residue.sum())


@dataclass
class CorpusStats:
    """Counts backing amino-acid precision and peptide recall."""

    n_match_pep: int = 0
    n_all_pep: int = 0
    n_match_aa: int = 0
    n_all_aa: int = 0

    @property
    def aa_precision(self) -> float:
        return self.n_match_aa / self.n_all_aa

    @property
    def peptide_recall(self) -> float:
        return self.n_match_pep / self.n_all_pep


def _aligned_pairs(pred_masses: np.ndarray,
                   truth_masses: np.ndarray) -> list[tuple[int, int, bool]]:
    """Two-pointer walk over cumulative masses.

    Yields (pred_index, truth_index, residue_matched) for every pointer
    position where the cumulative-through masses agreed within CUM_TOLERANCE.
    """
    pairs: list[tuple[int, int, bool]] = []
    i = j = 0
    cp = ct = 0.0  # cumulative mass before the current residue
    while i < len(pred_masses) and j < len(truth_masses):
        cpi = cp + pred_masses[i]
        ctj = ct + truth_masses[j]
        if abs(cpi - ctj) < CUM_TOLERANCE:
            matched = (abs(pred_masses[i] - truth_masses[j]) < AA_TOLERANCE
                       and abs(cp - ct) < CUM_TOLERANCE)
            pairs.append((i, j, matched))
            i += 1
            j += 1
            cp, ct = cpi, ctj
        elif cpi < ctj:
            i += 1
            cp = cpi
        else:
            j += 1
            ct = ctj
    return pairs


def aa_match(pred: Peptide, truth: Peptide, table: MassTable) -> MatchResult:
    """Match a predicted peptide against the truth under mass tolerances.

    The peptide counts as matched only when every predicted residue
    matched and the two peptides have equal length.
    """
    if len(pred) == 0 or len(truth) == 0:
        raise ValueError("aa_match requires non-empty peptides")
    pm = residue_masses(pred, table)
    tm = residue_masses(truth, table)
    per_residue = np.zeros(len(pred), dtype=bool)
    for i, _, matched in _aligned_pairs(pm, tm):
        per_residue[i] = matched
    peptide_matched = bool(per_residue.all()) and len(pred) == len(truth)
    return MatchResult(per_residue, peptide_matched)


def corpus_stats(pairs: Sequence[tuple[Peptide, Peptide]], table: MassTable) -> CorpusStats:
    """Aggregate match counts over (pred, truth) pairs.

    Amino-acid precision uses the number of predicted residues as its
    denominator; peptide recall uses the number of pairs.
    """
    if not pairs:
        raise ValueError("corpus is empty")
    stats = CorpusStats()
    for pred, truth in pairs:
        result = aa_match(pred, truth, table)
        stats.n_all_pep += 1
        stats.n_match_pep += int(result.peptide_matched)
        stats.n_all_aa += len(pred)
        stats.n_match_aa += result.n_matched
    return stats


def length_binned_recall(
    pairs: Sequence[tuple[Peptide, Peptide]],
    table: MassTable,
    bins: Sequence[tuple[int, int]],
) -> dict[tuple[int, int], float]:
    """Peptide recall per truth-length bin.

    ``bins`` are inclusive (lo, hi) ranges that must cover every observed
    truth length; bins with no members are omitted from the result.
    """
    if not pairs:
        raise ValueError("corpus is empty")
    totals: Counter[tuple[int, int]] = Counter()
    matches: Counter[tuple[int, int]] = Counter()
    for pred, truth in pairs:
        length = len(truth)
        for lo, hi in bins:
            if lo <= length <= hi:
                key = (lo, hi)
                break
        else:
            raise ValueError(f"truth length {length} not covered by any bin")
        totals[key] += 1
        matches[key] += int(aa_match(pred, truth, table).peptide_matched)
    return {key: matches[key] / totals[key] for key in totals}


def residue_confusion(pairs: Sequence[tuple[Peptide, Peptide]],
                      table: MassTable) -> dict[str, float]:
    """Per-token recall over the aligned residue pairs of the corpus.

    For each truth token t: the number of aligned pairs where both sides
    carry exactly the token t, divided by the number of occurrences of t
    across all truth peptides. Alignment pairs come from the same pointer
    walk as :func:`aa_match`; token comparison is exact identity, so
    near-isobaric confusions (K vs Q, F vs M(O)) count as misses.
    """
    if not pairs:
        raise ValueError("corpus is empty")
    truth_totals: Counter[str] = Counter()
    hits: Counter[str] = Counter()
    for pred, truth in pairs:
        truth_totals.update(truth.residues)
        pm = residue_masses(pred, table)
        tm = residue_masses(truth, table)
        for i, j, _ in _aligned_pairs(pm, tm):
            if pred.residues[i] == truth.residues[j]:
                hits[truth.residues[j]] += 1
    return {token: hits[token] / total for token, total in truth_totals.items()}


def contribution_analysis(
    records: Sequence[tuple[Sequence[tuple[str, Peptide]], Peptide, Peptide]],
    table: MassTable,
) -> dict[str, float]:
    """Share of uniquely-correct selections contributed by each base model.

    Each record is (candidates, selected, truth) where candidates are
    (model_name, peptide) pairs. A record enters the tally when the
    selected peptide matches the truth and exactly one base model emitted
    a token-identical copy of it. Shares over the tallied records sum to
    one; an empty tally yields an empty mapping.
    """
    counts: Counter[str] = Counter()
    total = 0
    for candidates, selected, truth in records:
        if not aa_match(selected, truth, table).peptide_matched:
            continue
        providers = {model for model, peptide in candidates
                     if peptide.residues == selected.residues}
        if len(providers) != 1:
            continue
        counts[next(iter(providers))] += 1
        total += 1
    if total == 0:
        return {}
    return {model: count / total for model, count in counts.items()}
