"""Mass-deviation metrics between peptide sequences.

Two complementary supervision signals:

* peptide mass deviation (PMD): a Needleman-Wunsch style alignment over
  residue masses, where substituting residue a for residue b costs
  |M(a) - M(b)| and a gap costs the expected divergence between two
  distinct residues. The optimal alignment cost divided by the gap
  penalty is the score; it is zero exactly when the two peptides agree
  mass-for-mass, token position by token position.
* residue mass deviation (RMD): for each query prefix mass, the signed
  difference to the nearest target prefix mass.

:func:`pmd` scores one pair; :func:`pmd_many` scores many pairs at once,
bit for bit the same values, by filling the alignment tables of pairs of
similar length together one anti-diagonal at a time.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .masses import MassTable, Peptide, cumulative_masses, residue_masses

BRUTEFORCE_MAX_TOTAL_LEN = 12
RUN_CELLS = 1 << 17  # bound on pairs x (longest peptide + 1) in one pmd_many run


def divergence_matrix(table: MassTable) -> np.ndarray:
    """Pairwise absolute residue-mass differences, in token order.

    Symmetric with a zero diagonal. Requires at least two residue types.
    """
    if len(table) < 2:
        raise ValueError("divergence matrix needs a table with at least 2 tokens")
    masses = table.mass_array()
    return np.abs(masses[:, None] - masses[None, :])


def gap_penalty(table: MassTable) -> float:
    """Mean absolute mass difference over all ordered pairs of distinct residues.

    Used as the alignment gap cost and the PMD normalizer; a table whose
    residues all share one mass is rejected because the penalty degenerates
    to zero.
    """
    n = len(table)
    if n < 2:
        raise ValueError("gap penalty needs a table with at least 2 tokens")
    div = divergence_matrix(table)
    g = float(div.sum() / (n * (n - 1)))
    if g == 0.0:
        raise ValueError("degenerate mass table: all residue masses identical")
    return g


def pmd(query: Peptide, target: Peptide, table: MassTable, gap: float | None = None) -> float:
    """Peptide mass deviation between query and target.

    Fills the (|query|+1) x (|target|+1) alignment matrix with gap
    multiples on the first row and column and the three-way minimum of
    diagonal substitution, up-gap, and left-gap in the interior, then
    normalizes the corner value by the gap penalty. ``gap`` may be passed
    to reuse a precomputed penalty for the same table.
    """
    g = gap_penalty(table) if gap is None else gap
    qm = residue_masses(query, table).tolist()  # Python floats: same bits, faster loop
    km = residue_masses(target, table).tolist()
    n, m = len(qm), len(km)
    prev = [g * j for j in range(m + 1)]
    for i in range(1, n + 1):
        cur = [g * i] + [0.0] * m
        qi = qm[i - 1]
        for j in range(1, m + 1):
            sub = prev[j - 1] + abs(qi - km[j - 1])
            cur[j] = min(sub, prev[j] + g, cur[j - 1] + g)
        prev = cur
    return float(prev[m] / g)


def pmd_many(
    pairs: Sequence[tuple[Peptide, Peptide]], table: MassTable, gap: float | None = None
) -> np.ndarray:
    """:func:`pmd` of every (query, target) pair, bit for bit, as one vector.

    Pairs are sorted by (|query|, |target|) and cut by :func:`_length_runs`
    into runs of similar length, whose tables :func:`_wavefront` fills
    together; the values return in input order.
    """
    g = gap_penalty(table) if gap is None else gap
    n = np.array([len(query) for query, _ in pairs], dtype=np.int64)
    m = np.array([len(target) for _, target in pairs], dtype=np.int64)
    order = np.lexsort((m, n))
    out = np.zeros(len(pairs))
    for run in _length_runs(n[order].tolist(), m[order].tolist()):
        picked = order[run]
        out[picked] = _wavefront([pairs[p] for p in picked], n[picked], m[picked], table, g)
    return out / g


def _length_runs(n: list[int], m: list[int]):
    """Slices of consecutive pairs, sorted by (n, m), to fill together.

    A run grows while its padded cells, count x (N + 1) x (M + 1), stay
    within twice the sum of its pairs' own (n + 1) x (m + 1), and while
    count x (max(N, M) + 1) stays within :data:`RUN_CELLS`. So one long
    pair does not pad many short ones, and a run of several pairs needs
    about 10 MB of scratch at most (five 1 MB arrays and the temporaries
    of one step).
    """
    start = own = big_m = 0
    for p, (n_p, m_p) in enumerate(zip(n, m)):  # sorted, so n_p is the run's N
        count, wide_m, own_p = p - start + 1, max(big_m, m_p), (n_p + 1) * (m_p + 1)
        if p > start and (
            count * (n_p + 1) * (wide_m + 1) > 2 * (own + own_p)
            or count * (max(n_p, wide_m) + 1) > RUN_CELLS
        ):
            yield slice(start, p)
            start, own, wide_m = p, 0, m_p
        own, big_m = own + own_p, wide_m
    if n:
        yield slice(start, len(n))


def _wavefront(
    pairs: list[tuple[Peptide, Peptide]], n: np.ndarray, m: np.ndarray, table: MassTable, g: float
) -> np.ndarray:
    """Unnormalized alignment corners D[n_p, m_p] of all pairs, filled together.

    All P tables are filled along anti-diagonals s = i + j over
    zero-padded [P, N] query and [P, M] target masses. Each cell does the
    float ops of :func:`pmd` in its order: diagonal + |q_i - k_j|, then the
    up and left gap moves, then the three-way minimum. Only three
    diagonals of length N + 1 per pair are kept (cell (i, s - i) lives at
    index i). Padded cells never feed a real corner, because a cell reads
    only smaller i and j; pair p's corner (n_p, m_p) is read on the step
    s = n_p + m_p.
    """
    big_n, big_m = int(n.max()), int(m.max())
    q = np.zeros((len(pairs), big_n))
    k = np.zeros((len(pairs), big_m))  # reversed, so k_j sits at column big_m - j
    for p, (query, target) in enumerate(pairs):
        q[p, : n[p]] = residue_masses(query, table)
        k[p, big_m - m[p] :] = residue_masses(target, table)[::-1]
    corner = np.zeros(len(pairs))  # D[0, 0] = 0
    total, rows = n + m, np.arange(len(pairs))
    d2, d1, d0 = (np.zeros((len(pairs), big_n + 1)) for _ in range(3))
    for s in range(1, big_n + big_m + 1):
        lo, hi = max(1, s - big_m), min(big_n, s - 1)  # interior cells (i, s - i), maybe none
        prev, cells = slice(lo - 1, hi), slice(lo, hi + 1)
        sub = d2[:, prev] + np.abs(q[:, prev] - k[:, big_m - s + lo : big_m - s + hi + 1])
        d0[:, cells] = np.minimum(np.minimum(sub, d1[:, prev] + g), d1[:, cells] + g)
        if s <= big_m:
            d0[:, 0] = g * s
        if s <= big_n:
            d0[:, s] = g * s
        done = total == s
        corner[done] = d0[rows[done], n[done]]
        d2, d1, d0 = d1, d0, d2
    return corner


def pmd_bruteforce(query: Peptide, target: Peptide, table: MassTable) -> float:
    """Exhaustive-alignment oracle for :func:`pmd`.

    Enumerates every monotone alignment directly: each alignment is a
    choice of t matched index pairs, strictly increasing on both sides,
    with all unmatched residues gapped. No recurrence is shared with the
    dynamic program it checks. Limited to |query| + |target| <= 12.
    """
    n, m = len(query), len(target)
    if n + m > BRUTEFORCE_MAX_TOTAL_LEN:
        raise ValueError(
            f"brute-force alignment limited to total length {BRUTEFORCE_MAX_TOTAL_LEN}, "
            f"got {n + m}"
        )
    g = gap_penalty(table)
    qm = residue_masses(query, table)
    km = residue_masses(target, table)
    best = (n + m) * g  # all-gap alignment
    for t in range(1, min(n, m) + 1):
        gap_cost = g * (n - t) + g * (m - t)
        for qs in itertools.combinations(range(n), t):
            for ks in itertools.combinations(range(m), t):
                cost = gap_cost + sum(abs(qm[i] - km[j]) for i, j in zip(qs, ks))
                if cost < best:
                    best = cost
    return float(best / g)


def rmd(query: Peptide, target: Peptide, table: MassTable) -> np.ndarray:
    """Residue mass deviation vector: one signed Da value per query residue.

    Entry i is the query's i-th prefix mass minus the nearest target
    prefix mass; ties between equidistant target prefixes resolve to the
    smaller target index.
    """
    if len(target) == 0:
        raise ValueError("rmd requires a non-empty target peptide")
    if len(query) == 0:
        raise ValueError("rmd requires a non-empty query peptide")
    qp = cumulative_masses(query, table, "prefix")
    kp = cumulative_masses(target, table, "prefix")
    diffs = qp[:, None] - kp[None, :]
    nearest = np.argmin(np.abs(diffs), axis=1)  # first minimum = smaller index
    return diffs[np.arange(len(qp)), nearest]
