"""Benchmark metrics and corpus-level analyses for peptide predictions.

The residue matching rule follows the community convention for de novo
sequencing evaluation: predicted and true residues are walked in
parallel over cumulative prefix masses, a pair is considered only while
the cumulative masses agree within ``CUM_TOLERANCE``, and a considered pair
matches when the residue masses differ by less than ``AA_TOLERANCE`` and
the cumulative masses *before* the pair also agree within ``CUM_TOLERANCE``.

:func:`align` walks every pair of a corpus at once, and every analysis
here reads its one result; :func:`aa_match` is its one-pair case.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .masses import MassTable, Peptide, pack_residues

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


def align(pairs: Sequence[tuple[Peptide, Peptide]],
          table: MassTable) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The two-pointer walk of every (pred, truth) pair, taken together.

    Returns flat arrays ``(pair, pred_index, truth_index, matched)``: one
    entry per pointer position where the cumulative-through masses agreed
    within ``CUM_TOLERANCE``, in pair order and, within a pair, in walk
    order. Each step moves the pointers of every unfinished pair at once.
    Pair p's prediction is row p of one zero-padded mass grid and its truth
    row P + p; the prefix masses are its row-wise sums, so every compare
    sees the floats of a pair-by-pair walk.
    """
    if empty := [k for k, (pred, truth) in enumerate(pairs) if not (pred and truth)]:
        raise ValueError(f"pair {empty[0]}: residue matching requires non-empty peptides")
    peptides = [pred for pred, _ in pairs] + [truth for _, truth in pairs]
    masses, row, position = pack_residues(peptides, table)
    grid = np.zeros((len(peptides), max(map(len, peptides), default=0) + 1))
    grid[row, position + 1] = masses  # residue i in column i + 1
    prefix = np.cumsum(grid, axis=1)  # column i: the mass before residue i
    n, m = np.split(np.array(list(map(len, peptides)), dtype=np.int64), 2)
    live = np.arange(len(pairs))
    i, j = np.zeros_like(live), np.zeros_like(live)
    steps = [np.zeros((3, 0), dtype=np.int64)]  # (pair, i, j) of each step's agreeing pairs
    while live.size:
        cpi, ctj = prefix[live, i + 1], prefix[live + len(pairs), j + 1]
        close = np.abs(cpi - ctj) < CUM_TOLERANCE
        steps.append(np.stack([live[close], i[close], j[close]]))
        behind = cpi < ctj
        i, j = i + (close | behind), j + (close | ~behind)
        going = (i < n[live]) & (j < m[live])
        live, i, j = live[going], i[going], j[going]
    found = np.concatenate(steps, axis=1)
    pair, i, j = found[:, np.argsort(found[0], kind="stable")]  # a pair's steps stay in order
    truth = pair + len(pairs)
    matched = ((np.abs(grid[pair, i + 1] - grid[truth, j + 1]) < AA_TOLERANCE)
               & (np.abs(prefix[pair, i] - prefix[truth, j]) < CUM_TOLERANCE))
    return pair, i, j, matched


def pair_matches(pairs: Sequence[tuple[Peptide, Peptide]],
                 table: MassTable) -> tuple[np.ndarray, np.ndarray]:
    """Per pair, from one :func:`align`: the number of matched predicted residues, and
    whether the peptide matched (every predicted residue did, and the lengths are equal)."""
    pair, _, _, matched = align(pairs, table)
    n_matched = np.bincount(pair[matched], minlength=len(pairs))
    n, m = np.array([(len(pred), len(truth)) for pred, truth in pairs]).reshape(-1, 2).T
    return n_matched, (n_matched == n) & (n == m)


def aa_match(pred: Peptide, truth: Peptide, table: MassTable) -> MatchResult:
    """Match a predicted peptide against the truth under mass tolerances: :func:`align`
    of one pair. The peptide counts as matched only when every predicted residue
    matched and the two peptides have equal length."""
    _, i, _, matched = align([(pred, truth)], table)
    per_residue = np.zeros(len(pred), dtype=bool)
    per_residue[i] = matched
    return MatchResult(per_residue, bool(per_residue.all()) and len(pred) == len(truth))


def corpus_stats(pairs: Sequence[tuple[Peptide, Peptide]], table: MassTable) -> CorpusStats:
    """Aggregate match counts over (pred, truth) pairs.

    Amino-acid precision uses the number of predicted residues as its
    denominator; peptide recall uses the number of pairs.
    """
    if not pairs:
        raise ValueError("corpus is empty")
    n_matched, peptide_matched = pair_matches(pairs, table)
    return CorpusStats(n_match_pep=int(peptide_matched.sum()), n_all_pep=len(pairs),
                       n_match_aa=int(n_matched.sum()),
                       n_all_aa=sum(len(pred) for pred, _ in pairs))


def length_binned_recall(
    pairs: Sequence[tuple[Peptide, Peptide]],
    table: MassTable,
    bins: Sequence[tuple[int, int]],
) -> dict[tuple[int, int], float]:
    """Peptide recall per truth-length bin.

    ``bins`` are inclusive (lo, hi) ranges that must cover every observed
    truth length; a length counts in the first bin that holds it, and bins
    with no members are omitted from the result.
    """
    if not pairs:
        raise ValueError("corpus is empty")
    lengths = np.array([len(truth) for _, truth in pairs])
    inside = [(lo <= lengths) & (lengths <= hi) for lo, hi in bins] + [lengths >= 0]
    member = np.argmax(inside, axis=0)  # the first bin that holds each length, else len(bins)
    if (uncovered := member == len(bins)).any():
        raise ValueError(f"truth length {lengths[uncovered][0]} not covered by any bin")
    _, peptide_matched = pair_matches(pairs, table)
    totals = np.bincount(member, minlength=len(bins))
    hits = np.bincount(member[peptide_matched], minlength=len(bins))
    return {tuple(bins[k]): int(hits[k]) / int(totals[k]) for k in dict.fromkeys(member.tolist())}


def residue_confusion(pairs: Sequence[tuple[Peptide, Peptide]],
                      table: MassTable) -> dict[str, float]:
    """Per-token recall over the aligned residue pairs of the corpus.

    For each truth token t: the number of aligned pairs where both sides
    carry exactly the token t, divided by the number of occurrences of t
    across all truth peptides. Alignment pairs come from :func:`align`;
    token comparison is exact identity, so near-isobaric confusions
    (K vs Q, F vs M(O)) count as misses.
    """
    if not pairs:
        raise ValueError("corpus is empty")
    pair, i, j, _ = align(pairs, table)
    peptides = [pred for pred, _ in pairs] + [truth for _, truth in pairs]  # as align lays them
    tokens = np.array([token for peptide in peptides for token in peptide.residues])
    starts = np.cumsum([0] + [len(peptide) for peptide in peptides])
    aligned = tokens[starts[pair + len(pairs)] + j]
    hits = Counter(aligned[tokens[starts[pair] + i] == aligned].tolist())
    totals = Counter(tokens[starts[len(pairs)]:].tolist())
    return {token: hits[token] / total for token, total in totals.items()}


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
    _, correct = pair_matches([(selected, truth) for _, selected, truth in records], table)
    providers = [{model for model, peptide in candidates if peptide.residues == selected.residues}
                 for (candidates, selected, _), matched in zip(records, correct) if matched]
    counts = Counter(next(iter(models)) for models in providers if len(models) == 1)
    total = sum(counts.values())
    return {model: count / total for model, count in counts.items()}
