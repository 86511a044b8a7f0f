import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peprank.evaluation import (
    aa_match,
    align,
    contribution_analysis,
    corpus_stats,
    length_binned_recall,
    residue_confusion,
)
from peprank.masses import (MassTable, Peptide, default_mass_table, parse_peptide,
                            peptide_neutral_mass)

from conftest import reference_walk


def pairs_of(table, *texts):
    return [(parse_peptide(p, table), parse_peptide(t, table)) for p, t in texts]


def records_of(table, records):
    """Contribution records with every peptide text parsed."""
    return [([(model, parse_peptide(text, table)) for model, text in candidates],
             parse_peptide(selected, table), parse_peptide(truth, table))
            for candidates, selected, truth in records]


class TestAaMatch:
    def test_exact_match(self, table):
        result = aa_match(parse_peptide("GAVK", table), parse_peptide("GAVK", table), table)
        assert result.per_residue.all()
        assert result.peptide_matched

    def test_isobaric_gg_vs_n(self, table):
        # total masses nearly equal (2G = 114.04292 vs N = 114.04293) but the
        # per-residue 0.1 Da rule fails for both predicted residues
        result = aa_match(parse_peptide("GG", table), parse_peptide("N", table), table)
        assert not result.per_residue.any()
        assert not result.peptide_matched

    def test_transposed_ag_vs_ga(self, table):
        result = aa_match(parse_peptide("AG", table), parse_peptide("GA", table), table)
        assert not result.per_residue.any()
        assert not result.peptide_matched

    def test_near_isobaric_substitution_matches(self, table):
        # K and Q differ by 0.036 Da, inside the 0.1 Da rule
        result = aa_match(parse_peptide("GKV", table), parse_peptide("GQV", table), table)
        assert result.peptide_matched

    def test_length_mismatch_blocks_peptide_match(self, table):
        result = aa_match(parse_peptide("GAV", table), parse_peptide("GAVG", table), table)
        assert not result.peptide_matched

    def test_empty_rejected(self, table):
        with pytest.raises(ValueError, match="non-empty"):
            aa_match(Peptide(()), parse_peptide("G", table), table)

    def test_swap_preserves_peptide_match(self, table):
        rng = np.random.default_rng(12)
        tokens = table.tokens
        for _ in range(200):
            a = Peptide(tuple(tokens[i] for i in rng.integers(len(tokens), size=rng.integers(1, 10))))
            b = Peptide(tuple(tokens[i] for i in rng.integers(len(tokens), size=rng.integers(1, 10))))
            assert (
                aa_match(a, b, table).peptide_matched
                == aa_match(b, a, table).peptide_matched
            )

    def test_matched_peptides_have_close_total_mass(self, table):
        rng = np.random.default_rng(13)
        tokens = table.tokens
        checked = 0
        for _ in range(500):
            length = rng.integers(1, 10)
            truth = Peptide(tuple(tokens[i] for i in rng.integers(len(tokens), size=length)))
            pred = list(truth.residues)
            # random near-miss perturbation
            if rng.random() < 0.5:
                pos = rng.integers(length)
                pred[pos] = tokens[rng.integers(len(tokens))]
            pred = Peptide(tuple(pred))
            if aa_match(pred, truth, table).peptide_matched:
                checked += 1
                diff = abs(
                    peptide_neutral_mass(pred, table) - peptide_neutral_mass(truth, table)
                )
                assert diff < 0.1 * len(pred)
        assert checked > 50


# Offsets from one base mass whose differences, alone or summed over a few
# residues, fall on the 0.1 Da residue rule and the 0.5 Da cumulative rule.
EDGE_OFFSETS = (0.0, 0.05, 0.1, 0.125, 0.15, 0.2, 0.25, 0.35, 0.4, 0.5, 0.6)
SUB_DALTON = MassTable({"a": 0.3, "b": 0.2, "c": 0.25})


@st.composite
def walk_batches(draw):
    """A mass table (the default one, one of residues within tenths of a
    dalton of each other, or one of sub-1-Da residues, where several
    prefixes sit within tolerance of one) and 1-8 pairs of 1-14 residues,
    each prediction drawn on its own or edited from its truth."""
    kind = draw(st.sampled_from(("default", "edges", "sub-dalton")))
    if kind == "default":
        table = default_mass_table()
    elif kind == "edges":
        base = draw(st.floats(50.0, 150.0))
        offsets = draw(st.lists(st.sampled_from(EDGE_OFFSETS), min_size=2, max_size=5,
                                unique=True))
        table = MassTable({f"t{k}": base + offset for k, offset in enumerate(offsets)})
    else:
        masses = draw(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=5, unique=True))
        table = MassTable({f"t{k}": mass for k, mass in enumerate(masses)})
    tokens = st.sampled_from(table.tokens)
    pairs = []
    for _ in range(draw(st.integers(1, 8))):
        truth = draw(st.lists(tokens, min_size=1, max_size=14))
        pred = list(truth)
        for kind, at, token in draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 13),
                                                       tokens), max_size=3)):
            if kind == 0:
                pred[at % len(pred)] = token
            elif kind == 1:
                pred.insert(at % (len(pred) + 1), token)
            elif len(pred) > 1:
                del pred[at % len(pred)]
        if draw(st.booleans()):
            pred = draw(st.lists(tokens, min_size=1, max_size=14))
        pairs.append((Peptide(tuple(pred)), Peptide(tuple(truth))))
    return table, pairs


class TestAlign:
    @settings(max_examples=400, deadline=None)
    @given(batch=walk_batches())
    @example(batch=(SUB_DALTON, [(Peptide(("a",) * 3), Peptide(("b",) * 5)),
                                 (Peptide(("c", "a", "b")), Peptide(("b", "c", "a", "c")))]))
    @example(batch=(MassTable({"x": 100.0, "y": 100.1, "z": 100.25}),
                    [(Peptide(("x", "x", "y")), Peptide(("z", "z", "y"))),
                     (Peptide(("y", "x")), Peptide(("x", "y")))]))
    def test_equals_the_scalar_walk(self, batch):
        table, pairs = batch
        pair, i, j, matched = align(pairs, table)
        assert (np.diff(pair) >= 0).all()
        walks = [[] for _ in pairs]
        for p, a, b, ok in zip(pair.tolist(), i.tolist(), j.tolist(), matched.tolist()):
            walks[p].append((a, b, ok))
        assert walks == [reference_walk(pred, truth, table) for pred, truth in pairs]

    def test_no_pairs(self, table):
        assert [column.size for column in align([], table)] == [0, 0, 0, 0]

    def test_empty_peptide_names_its_pair(self, table):
        pairs = pairs_of(table, ("GAV", "GAV")) + [(Peptide(()), parse_peptide("G", table))]
        with pytest.raises(ValueError, match="pair 1: .*non-empty"):
            align(pairs, table)


class TestEmptyPeptides:
    """Every analysis rejects an empty predicted or true peptide, through align."""

    @pytest.mark.parametrize("empty_side", [0, 1])
    @pytest.mark.parametrize("analysis", [
        pytest.param(lambda pairs, table: corpus_stats(pairs, table), id="corpus_stats"),
        pytest.param(lambda pairs, table: length_binned_recall(pairs, table, [(0, 10)]),
                     id="length_binned_recall"),
        pytest.param(lambda pairs, table: residue_confusion(pairs, table),
                     id="residue_confusion"),
        pytest.param(lambda pairs, table: contribution_analysis(
            [([("m1", pred)], pred, truth) for pred, truth in pairs], table),
            id="contribution_analysis"),
    ])
    def test_rejected(self, table, analysis, empty_side):
        pair = [parse_peptide("GAV", table)] * 2
        pair[empty_side] = Peptide(())
        with pytest.raises(ValueError, match="non-empty"):
            analysis(pairs_of(table, ("KK", "KK")) + [tuple(pair)], table)


class TestCorpusStats:
    def test_all_identical(self, table):
        stats = corpus_stats(pairs_of(table, ("GAV", "GAV"), ("KK", "KK")), table)
        assert stats.aa_precision == 1.0
        assert stats.peptide_recall == 1.0

    def test_half_matched(self, table):
        # one matched pair, one fully unmatched pair of the same length
        stats = corpus_stats(pairs_of(table, ("GAV", "GAV"), ("WWW", "GGG")), table)
        assert stats.peptide_recall == 0.5
        assert stats.aa_precision == 0.5

    def test_empty_corpus(self, table):
        with pytest.raises(ValueError, match="empty"):
            corpus_stats([], table)

    def test_denominator_is_predicted_residues(self, table):
        stats = corpus_stats(pairs_of(table, ("GAVK", "GA")), table)
        assert stats.n_all_aa == 4


class TestLengthBinnedRecall:
    def test_single_bin_equals_corpus(self, table):
        pairs = pairs_of(table, ("GAV", "GAV"), ("KK", "KK"), ("WWW", "GGG"))
        stats = corpus_stats(pairs, table)
        binned = length_binned_recall(pairs, table, [(1, 10)])
        assert binned[(1, 10)] == pytest.approx(stats.peptide_recall)

    def test_empty_bin_absent(self, table):
        pairs = pairs_of(table, ("GAVGAVGA", "GAVGAVGA"))
        binned = length_binned_recall(pairs, table, [(7, 9), (10, 12)])
        assert (10, 12) not in binned
        assert binned[(7, 9)] == 1.0

    def test_empty_corpus(self, table):
        with pytest.raises(ValueError, match="^corpus is empty$"):
            length_binned_recall([], table, [(1, 10)])

    def test_uncovered_length_errors(self, table):
        pairs = pairs_of(table, ("GAV", "GAV"))
        with pytest.raises(ValueError, match="not covered"):
            length_binned_recall(pairs, table, [(10, 12)])

    def test_matches_filter_then_count(self, table):
        rng = np.random.default_rng(14)
        tokens = table.tokens
        pairs = []
        for _ in range(60):
            length = int(rng.integers(3, 12))
            truth = Peptide(tuple(tokens[i] for i in rng.integers(len(tokens), size=length)))
            pred = truth if rng.random() < 0.5 else Peptide(
                tuple(tokens[i] for i in rng.integers(len(tokens), size=length))
            )
            pairs.append((pred, truth))
        bins = [(3, 5), (6, 8), (9, 11)]
        binned = length_binned_recall(pairs, table, bins)
        for lo, hi in bins:
            members = [(p, t) for p, t in pairs if lo <= len(t) <= hi]
            if not members:
                assert (lo, hi) not in binned
                continue
            expected = sum(
                aa_match(p, t, table).peptide_matched for p, t in members
            ) / len(members)
            assert binned[(lo, hi)] == pytest.approx(expected)


class TestResidueConfusion:
    def test_perfect_corpus(self, table):
        recalls = residue_confusion(pairs_of(table, ("GAV", "GAV"), ("KQ", "KQ")), table)
        assert all(v == 1.0 for v in recalls.values())

    def test_empty_corpus(self, table):
        with pytest.raises(ValueError, match="^corpus is empty$"):
            residue_confusion([], table)

    def test_q_predicted_as_k_scores_zero(self, table):
        recalls = residue_confusion(pairs_of(table, ("GKV", "GQV")), table)
        assert recalls["Q"] == 0.0
        assert recalls["G"] == 1.0

    def test_hand_tally(self, table):
        pairs = pairs_of(
            table,
            ("GAV", "GAV"),   # G, A, V correct
            ("GKV", "GQV"),   # Q aligned but predicted K
            ("AAA", "AAA"),   # three A correct
            ("WG", "WG"),     # W, G correct
        )
        recalls = residue_confusion(pairs, table)
        assert recalls["G"] == pytest.approx(3 / 3)
        assert recalls["A"] == pytest.approx(4 / 4)
        assert recalls["V"] == pytest.approx(2 / 2)
        assert recalls["Q"] == 0.0
        assert recalls["W"] == 1.0


class TestContributionAnalysis:
    def test_single_model_always_unique(self, table):
        records = [
            ([("m1", "GAV"), ("m2", "KKK")], "GAV", "GAV"),
            ([("m1", "WAV"), ("m2", "PPP")], "WAV", "WAV"),
        ]
        shares = contribution_analysis(records_of(table, records), table)
        assert shares == {"m1": 1.0}

    def test_duplicated_selection_excluded(self, table):
        records = [([("m1", "GAV"), ("m2", "GAV")], "GAV", "GAV")]
        assert contribution_analysis(records_of(table, records), table) == {}

    def test_incorrect_selection_excluded(self, table):
        records = [([("m1", "GAV"), ("m2", "KKK")], "KKK", "GAV")]
        assert contribution_analysis(records_of(table, records), table) == {}

    def test_shares_sum_to_one(self, table):
        rng = np.random.default_rng(15)
        tokens = table.tokens
        records = []
        for _ in range(20):
            truth = Peptide(tuple(tokens[i] for i in rng.integers(len(tokens), size=6)))
            wrong = Peptide(tuple(tokens[i] for i in rng.integers(len(tokens), size=6)))
            provider = f"m{rng.integers(3) + 1}"
            candidates = [(provider, truth.render())] + [
                (f"m{k + 1}", wrong.render()) for k in range(3) if f"m{k + 1}" != provider
            ]
            records.append((candidates, truth.render(), truth.render()))
        shares = contribution_analysis(records_of(table, records), table)
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-12)

    def test_hand_filtered_tally(self, table):
        records = []
        # 3 uniquely provided by m1, 1 by m2, plus excluded records
        for _ in range(3):
            records.append(([("m1", "GAV"), ("m2", "KKK")], "GAV", "GAV"))
        records.append(([("m1", "PPP"), ("m2", "WAV")], "WAV", "WAV"))
        records.append(([("m1", "GAV"), ("m2", "GAV")], "GAV", "GAV"))  # two providers
        records.append(([("m1", "AAA"), ("m2", "KKK")], "AAA", "GGG"))  # wrong selection
        shares = contribution_analysis(records_of(table, records), table)
        assert shares["m1"] == pytest.approx(0.75)
        assert shares["m2"] == pytest.approx(0.25)
