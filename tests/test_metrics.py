import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peprank.masses import MassTable, Peptide, cumulative_masses, parse_peptide
from peprank.metrics import (
    RUN_CELLS,
    _length_runs,
    divergence_matrix,
    gap_penalty,
    pmd,
    pmd_bruteforce,
    pmd_many,
    rmd,
)

from conftest import random_table


def random_peptide(rng, table, min_len=0, max_len=5) -> Peptide:
    length = int(rng.integers(min_len, max_len + 1))
    tokens = table.tokens
    return Peptide(tuple(tokens[i] for i in rng.integers(len(tokens), size=length)))


class TestDivergenceMatrix:
    def test_diagonal_is_zero(self, table):
        assert np.all(np.diag(divergence_matrix(table)) == 0.0)

    def test_two_token_table(self, tiny_table):
        matrix = divergence_matrix(tiny_table)
        np.testing.assert_allclose(matrix[0, 1], 14.01565)
        np.testing.assert_allclose(matrix[1, 0], 14.01565)

    def test_symmetry_random_tables(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            matrix = divergence_matrix(random_table(rng))
            np.testing.assert_array_equal(matrix, matrix.T)
            assert np.all(matrix >= 0)

    def test_too_small(self):
        with pytest.raises(ValueError, match="at least 2"):
            divergence_matrix(MassTable({"G": 57.02146}))


class TestGapPenalty:
    def test_two_token_table(self, tiny_table):
        # 2 * 14.01565 / (2 * 1)
        assert gap_penalty(tiny_table) == pytest.approx(14.01565)

    def test_matches_double_loop(self, table):
        masses = table.mass_array()
        n = len(masses)
        total = 0.0
        for i in range(n):
            for j in range(n):
                if i != j:
                    total += abs(masses[i] - masses[j])
        assert gap_penalty(table) == pytest.approx(total / (n * (n - 1)), rel=1e-12)

    def test_degenerate_table_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            gap_penalty(MassTable({"X1": 50.0, "X2": 50.0}))


class TestPmd:
    def test_identical_peptides(self, table):
        peptide = parse_peptide("GAV", table)
        assert pmd(peptide, peptide, table) == 0.0

    def test_empty_query_counts_gaps(self, table):
        assert pmd(Peptide(()), parse_peptide("GA", table), table) == pytest.approx(2.0)

    def test_both_empty(self, table):
        assert pmd(Peptide(()), Peptide(()), table) == 0.0

    def test_substitution_beats_double_gap(self, tiny_table):
        # P(A, G) equals g here, and the substitution path also keeps the
        # matched G at zero cost, so the score is exactly 1.
        score = pmd(parse_peptide("GA", tiny_table), parse_peptide("GG", tiny_table), tiny_table)
        assert score == pytest.approx(1.0)
        oracle = pmd_bruteforce(
            parse_peptide("GA", tiny_table), parse_peptide("GG", tiny_table), tiny_table
        )
        assert score == pytest.approx(oracle, rel=1e-12)

    def test_identity_property(self, table):
        rng = np.random.default_rng(3)
        for _ in range(200):
            peptide = random_peptide(rng, table, max_len=8)
            assert pmd(peptide, peptide, table) == 0.0

    def test_symmetry_property(self, table):
        rng = np.random.default_rng(4)
        gap = gap_penalty(table)
        for _ in range(200):
            a = random_peptide(rng, table, max_len=8)
            b = random_peptide(rng, table, max_len=8)
            assert pmd(a, b, table, gap=gap) == pytest.approx(
                pmd(b, a, table, gap=gap), rel=1e-12
            )

    def test_bounds_property(self, table):
        rng = np.random.default_rng(5)
        gap = gap_penalty(table)
        for _ in range(200):
            a = random_peptide(rng, table, max_len=8)
            b = random_peptide(rng, table, max_len=8)
            score = pmd(a, b, table, gap=gap)
            assert 0.0 <= score <= len(a) + len(b) + 1e-12

    def test_appending_shared_residue_never_increases(self, table):
        rng = np.random.default_rng(6)
        gap = gap_penalty(table)
        tokens = table.tokens
        for _ in range(200):
            a = random_peptide(rng, table, max_len=6)
            b = random_peptide(rng, table, max_len=6)
            shared = tokens[rng.integers(len(tokens))]
            extended_a = Peptide(a.residues + (shared,))
            extended_b = Peptide(b.residues + (shared,))
            assert pmd(extended_a, extended_b, table, gap=gap) <= pmd(
                a, b, table, gap=gap
            ) + 1e-12


TWO_MASSES = MassTable({"a": 57.02146, "b": 71.03711})
AB = Peptide(("a", "b"))


@st.composite
def pmd_batches(draw):
    """A random mass table with at least two distinct masses, a batch of
    0-12 pairs of 0-13 residues each, and the same batch shuffled."""
    masses = draw(
        st.lists(st.floats(40.0, 200.0), min_size=2, max_size=6).filter(
            lambda ms: len(set(ms)) >= 2
        )
    )
    table = MassTable({f"t{i}": m for i, m in enumerate(masses)})
    peptides = st.lists(st.sampled_from(table.tokens), max_size=13).map(
        lambda residues: Peptide(tuple(residues))
    )
    pairs = draw(st.lists(st.tuples(peptides, peptides), max_size=12))
    return table, pairs, draw(st.permutations(pairs))


class TestPmdMany:
    @settings(max_examples=150, deadline=None)
    @given(batch=pmd_batches())
    @example(batch=(TWO_MASSES, [], []))
    @example(batch=(TWO_MASSES, [(Peptide(()), AB)], [(Peptide(()), AB)]))
    @example(batch=(
        TWO_MASSES,
        [(AB, Peptide(())), (Peptide(()), Peptide(())), (Peptide(("b",) * 5), AB)],
        [(Peptide(("b",) * 5), AB), (AB, Peptide(())), (Peptide(()), Peptide(()))],
    ))
    def test_equals_scalar_pmd_bit_for_bit(self, batch):
        table, pairs, shuffled = batch
        for order in (pairs, shuffled):
            expected = np.array([pmd(q, k, table) for q, k in order])
            got = pmd_many(order, table)
            assert got.shape == (len(order),)
            np.testing.assert_array_equal(got, expected)

    def test_memory_is_linear_in_pairs(self, table):
        # A full [P, 31, 31] float64 table alone takes 4000 * 31 * 31 * 8 B = 31 MB.
        rng = np.random.default_rng(8)
        pairs = [
            (random_peptide(rng, table, 30, 30), random_peptide(rng, table, 30, 30))
            for _ in range(4000)
        ]
        _, peak = traced_peak(pmd_many, pairs, table)
        assert peak < 16 * 2**20

    def test_memory_is_bounded_per_run_on_a_ragged_batch(self, table):
        # Padded to its one 600-residue pair, a single [4001, 601] float64
        # diagonal of the batch would take 19 MB; runs of similar length keep
        # the short pairs apart from it.
        rng = np.random.default_rng(9)
        pairs = [
            (random_peptide(rng, table, 5, 15), random_peptide(rng, table, 5, 15))
            for _ in range(4000)
        ]
        pairs.insert(1234, (random_peptide(rng, table, 600, 600), random_peptide(rng, table, 600, 600)))
        got, peak = traced_peak(pmd_many, pairs, table)
        assert peak < 16 * 2**20
        np.testing.assert_array_equal(got, [pmd(q, k, table) for q, k in pairs])

    @settings(max_examples=200, deadline=None)
    @example(lengths=[(2000, 2000)] * 100)  # 100 x 2001 cells > RUN_CELLS
    @given(lengths=st.lists(st.tuples(st.integers(0, 3000), st.integers(0, 3000)), max_size=60))
    def test_length_runs_bound_padding_and_width(self, lengths):
        n, m = map(list, zip(*sorted(lengths))) if lengths else ([], [])
        runs = list(_length_runs(n, m))
        assert [p for run in runs for p in range(run.start, run.stop)] == list(range(len(n)))
        for run in runs:
            ns, ms = n[run], m[run]
            if len(ns) > 1:
                own = sum((a + 1) * (b + 1) for a, b in zip(ns, ms))
                assert len(ns) * (max(ns) + 1) * (max(ms) + 1) <= 2 * own
                assert len(ns) * (max(ns + ms) + 1) <= RUN_CELLS


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        probe = np.ones(2**20)  # the probe sees numpy buffers
        assert tracemalloc.get_traced_memory()[0] >= probe.nbytes
        del probe
        tracemalloc.reset_peak()
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPmdBruteforce:
    def test_identity(self, table):
        peptide = parse_peptide("GAV", table)
        assert pmd_bruteforce(peptide, peptide, table) == 0.0

    def test_single_gap(self, table):
        assert pmd_bruteforce(Peptide(()), parse_peptide("G", table), table) == pytest.approx(1.0)

    def test_length_cap(self, table):
        long = parse_peptide("G" * 7, table)
        with pytest.raises(ValueError, match="total length"):
            pmd_bruteforce(long, long, table)

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            current = random_table(rng)
            gap = gap_penalty(current)
            for _ in range(10):
                a = random_peptide(rng, current, max_len=5)
                b = random_peptide(rng, current, max_len=5)
                fast = pmd(a, b, current, gap=gap)
                slow = pmd_bruteforce(a, b, current)
                assert fast == pytest.approx(slow, rel=1e-9, abs=1e-12)


class TestRmd:
    def test_identical_single(self, table):
        np.testing.assert_allclose(
            rmd(parse_peptide("G", table), parse_peptide("G", table), table), [0.0]
        )

    def test_swapped_pair(self, table):
        values = rmd(parse_peptide("AG", table), parse_peptide("GA", table), table)
        np.testing.assert_allclose(values, [14.01565, 0.0])

    def test_query_longer_than_target(self, table):
        values = rmd(parse_peptide("GA", table), parse_peptide("G", table), table)
        np.testing.assert_allclose(values, [0.0, 71.03711])

    def test_empty_target_rejected(self, table):
        with pytest.raises(ValueError, match="target"):
            rmd(parse_peptide("G", table), Peptide(()), table)

    def test_empty_query_rejected(self, table):
        with pytest.raises(ValueError, match="query"):
            rmd(Peptide(()), parse_peptide("G", table), table)

    def test_self_rmd_is_zero(self, table):
        rng = np.random.default_rng(8)
        for _ in range(100):
            peptide = random_peptide(rng, table, min_len=1, max_len=10)
            np.testing.assert_array_equal(
                rmd(peptide, peptide, table), np.zeros(len(peptide))
            )

    def test_matches_direct_scan(self, table):
        rng = np.random.default_rng(9)
        for _ in range(200):
            query = random_peptide(rng, table, min_len=1, max_len=8)
            target = random_peptide(rng, table, min_len=1, max_len=8)
            values = rmd(query, target, table)
            qp = cumulative_masses(query, table, "prefix")
            kp = cumulative_masses(target, table, "prefix")
            for i, value in enumerate(values):
                best = min(abs(qp[i] - k) for k in kp)
                assert abs(value) == pytest.approx(best, abs=1e-12)

    def test_tie_breaks_to_smaller_index(self):
        # target prefixes 10 and 30 are equidistant from query prefix 20
        table = MassTable({"q": 20.0, "a": 10.0, "b": 20.0})
        values = rmd(
            Peptide(("q",)), Peptide(("a", "b")), table
        )
        np.testing.assert_allclose(values, [10.0])  # 20 - 10, not 20 - 30
