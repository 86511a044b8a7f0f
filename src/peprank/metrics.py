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

:func:`pmd_many` scores many pairs at once, by filling the alignment
tables of pairs of similar length together one anti-diagonal at a time;
:func:`pmd` is its one-pair case. :func:`rmd_many` likewise scores many
queries against one target in one array pass; :func:`rmd` is its
one-query case.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .masses import MassTable, Peptide, pack_residues, residue_masses

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
    """:func:`pmd_many` of one pair; ``gap`` may reuse a precomputed penalty for the table."""
    g = gap_penalty(table) if gap is None else gap
    n, m = np.array([len(query)]), np.array([len(target)])
    return float(_wavefront([(query, target)], n, m, table, g)[0] / g)


def pmd_many(pairs: Sequence[tuple[Peptide, Peptide]], table: MassTable) -> np.ndarray:
    """Peptide mass deviation of every (query, target) pair, as one vector.

    Pairs are sorted by (|query|, |target|) and cut by :func:`_length_runs`
    into runs of similar length, whose tables :func:`_wavefront` fills
    together; the values return in input order.
    """
    g = gap_penalty(table)
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
    about 10 MB of scratch at most (seven 1 MB arrays and the index
    vectors that fill them).
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
    zero-padded [N, P] query and [M, P] target masses. Only three
    diagonals are kept, each [N + 1, P]: cell (i, s - i) of pair p lives
    at [i, p], so one step reads and writes contiguous rows of all pairs.
    Each cell takes the diagonal + |q_i - k_j|, then the up and left gap
    moves (one shared d1 + g), then the three-way minimum: the float ops of a
    cell-by-cell program, in its order. Padded cells never feed a real corner,
    because a cell reads only smaller i and j; pair p's corner (n_p, m_p) is
    read on the step s = n_p + m_p.
    """
    count, big_n, big_m = len(pairs), int(n.max()), int(m.max())
    q, k = np.zeros((big_n, count)), np.zeros((big_m, count))
    masses, pair, position = pack_residues([query for query, _ in pairs], table)
    q[position, pair] = masses
    masses, pair, position = pack_residues([target for _, target in pairs], table)
    k[big_m - 1 - position, pair] = masses  # reversed, so k_j sits at row big_m - j
    corner = np.zeros(count)  # D[0, 0] = 0
    finish: dict[int, list[int]] = {}  # step s -> pairs whose corner it fills
    for p, s in enumerate((n + m).tolist()):
        finish.setdefault(s, []).append(p)
    d2, d1, d0 = (np.zeros((big_n + 1, count)) for _ in range(3))
    sub_buf, gap_buf = np.empty((big_n, count)), np.empty((big_n + 1, count))
    for s in range(1, big_n + big_m + 1):
        lo, hi = max(1, s - big_m), min(big_n, s - 1)  # interior cells (i, s - i), maybe none
        if lo <= hi:
            sub = np.subtract(q[lo - 1 : hi], k[big_m - s + lo : big_m - s + hi + 1],
                              out=sub_buf[: hi - lo + 1])
            np.abs(sub, out=sub)
            sub += d2[lo - 1 : hi]
            gap = np.add(d1[lo - 1 : hi + 1], g, out=gap_buf[: hi - lo + 2])
            cells = d0[lo : hi + 1]
            np.minimum(sub, gap[:-1], out=cells)
            np.minimum(cells, gap[1:], out=cells)
        if s <= big_m:
            d0[0] = g * s
        if s <= big_n:
            d0[s] = g * s
        if s in finish:
            done = finish[s]
            corner[done] = d0[n[done], done]
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
    return rmd_many([query], target, table)[0]


def rmd_many(queries: Sequence[Peptide], target: Peptide, table: MassTable) -> list[np.ndarray]:
    """:func:`rmd` of each query against one target, bit for bit.

    One [c, N, M] pass: the queries' N and the target's M prefix masses are
    the row-wise sums of one grid, the queries' masses and then the target's,
    zero-padded to the longest.
    """
    if len(target) == 0:
        raise ValueError("rmd requires a non-empty target peptide")
    if not all(queries):
        raise ValueError("rmd requires a non-empty query peptide")
    n = max(map(len, queries), default=0)
    masses, row, position = pack_residues([*queries, target], table)
    grid = np.zeros((len(queries) + 1, max(n, len(target))))
    grid[row, position] = masses
    np.cumsum(grid, axis=1, out=grid)  # row by row, the sums of cumulative_masses
    qp, kp = grid[:-1, :n], grid[-1, : len(target)]
    diffs = (qp[:, :, None] - kp).reshape(qp.size, kp.size)  # a row per query prefix
    nearest = np.abs(diffs).argmin(axis=1)  # first minimum = smaller index
    picked = diffs[np.arange(qp.size), nearest].reshape(qp.shape)
    return [row[: len(query)] for row, query in zip(picked, queries)]
