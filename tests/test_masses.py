import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peprank.masses import (
    PROTON_MASS,
    WATER_MASS,
    MassTable,
    Peptide,
    Precursor,
    cumulative_masses,
    load_mass_table,
    pack_residues,
    parse_peptide,
    peptide_neutral_mass,
    precursor_neutral_mass,
    residue_masses,
)


class TestLoadMassTable:
    def test_single_entry_line(self):
        table = load_mass_table(io.StringIO("G\t57.02146\n"))
        assert table.mass("G") == 57.02146

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\nG\t57.02146\nA\t71.03711\n"
        table = load_mass_table(io.StringIO(text))
        assert len(table) == 2

    def test_duplicate_token_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            load_mass_table(io.StringIO("G\t57.0\nG\t58.0\n"))

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            load_mass_table(io.StringIO("X\t-1.0\n"))

    def test_unparseable_mass_rejected(self):
        with pytest.raises(ValueError, match="unparseable"):
            load_mass_table(io.StringIO("X\tabc\n"))

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            load_mass_table(io.StringIO("# nothing here\n"))

    def test_default_table_has_modifications(self, table):
        for token in ("M(O)", "N(D)", "Q(D)"):
            assert token in table
        assert len(table) == 23


class TestParsePeptide:
    def test_plain_letters(self, table):
        assert parse_peptide("GAV", table).residues == ("G", "A", "V")

    def test_modification_binds_to_previous_letter(self, table):
        assert parse_peptide("M(O)K", table).residues == ("M(O)", "K")

    def test_unknown_token(self, table):
        with pytest.raises(ValueError, match="unknown residue token 'Z'"):
            parse_peptide("GZ", table)

    def test_dangling_open_paren(self, table):
        with pytest.raises(ValueError, match="unterminated"):
            parse_peptide("M(O", table)

    def test_leading_paren(self, table):
        with pytest.raises(ValueError, match="preceding"):
            parse_peptide("(O)M", table)

    def test_unmatched_close_paren(self, table):
        with pytest.raises(ValueError, match="unmatched"):
            parse_peptide("G)A", table)

    def test_empty_text_gives_empty_peptide(self, table):
        assert len(parse_peptide("", table)) == 0

    def test_render_round_trip(self, table):
        rng = np.random.default_rng(11)
        tokens = table.tokens
        for _ in range(200):
            length = rng.integers(1, 30)
            peptide = Peptide(tuple(tokens[i] for i in rng.integers(len(tokens), size=length)))
            assert parse_peptide(peptide.render(), table) == peptide


class TestCumulativeMasses:
    def test_prefix_single(self, table):
        np.testing.assert_allclose(
            cumulative_masses(parse_peptide("G", table), table, "prefix"), [57.02146]
        )

    def test_prefix_empty(self, table):
        assert cumulative_masses(Peptide(()), table, "prefix").size == 0

    def test_prefix_pair(self, table):
        np.testing.assert_allclose(
            cumulative_masses(parse_peptide("GA", table), table, "prefix"),
            [57.02146, 128.05857],
        )

    def test_suffix_is_reversed_prefix_of_reverse(self, table):
        rng = np.random.default_rng(5)
        tokens = table.tokens
        for _ in range(100):
            length = rng.integers(1, 20)
            seq = tuple(tokens[i] for i in rng.integers(len(tokens), size=length))
            peptide = Peptide(seq)
            reverse = Peptide(seq[::-1])
            np.testing.assert_allclose(
                cumulative_masses(peptide, table, "suffix"),
                cumulative_masses(reverse, table, "prefix")[::-1],
            )

    def test_last_prefix_equals_last_suffix_equals_residue_total(self, table):
        rng = np.random.default_rng(6)
        tokens = table.tokens
        for _ in range(100):
            length = rng.integers(1, 25)
            peptide = Peptide(tuple(tokens[i] for i in rng.integers(len(tokens), size=length)))
            prefix = cumulative_masses(peptide, table, "prefix")
            suffix = cumulative_masses(peptide, table, "suffix")
            total = peptide_neutral_mass(peptide, table) - WATER_MASS
            assert abs(prefix[-1] - total) <= 1e-9 * max(1.0, abs(total))
            assert abs(suffix[0] - total) <= 1e-9 * max(1.0, abs(total))

    def test_bad_direction(self, table):
        with pytest.raises(ValueError, match="direction"):
            cumulative_masses(parse_peptide("G", table), table, "sideways")


@st.composite
def peptide_lists(draw):
    """A random mass table and 1-12 peptides of 1-40 residues."""
    masses = draw(st.lists(st.floats(40.0, 200.0), min_size=1, max_size=5))
    table = MassTable({f"t{i}": m for i, m in enumerate(masses)})
    residues = st.lists(st.sampled_from(table.tokens), min_size=1, max_size=40)
    peptides = draw(st.lists(residues.map(lambda r: Peptide(tuple(r))), min_size=1, max_size=12))
    return table, peptides


class TestPackResidues:
    @settings(max_examples=200, deadline=None)
    @given(record=peptide_lists())
    @example(record=(MassTable({"a": 57.02146, "b": 71.03711}), [Peptide(("a", "b", "b"))]))
    def test_padded_grid_matches_the_one_peptide_helpers_bit_for_bit(self, record):
        """Each peptide's row of the padded grid is its residue masses, and the
        row-wise cumsums of the grid and of its reversed rows are its prefix and
        suffix masses."""
        table, peptides = record
        masses, peptide, position = pack_residues(peptides, table)
        grid = np.zeros((len(peptides), max(map(len, peptides))))
        grid[peptide, position] = masses
        prefixes = np.cumsum(grid, axis=1)
        suffixes = np.cumsum(grid[:, ::-1], axis=1)[:, ::-1]  # back in residue order
        for p, one in enumerate(peptides):
            n = len(one)
            np.testing.assert_array_equal(grid[p, :n], residue_masses(one, table))
            assert not grid[p, n:].any()
            np.testing.assert_array_equal(prefixes[p, :n], cumulative_masses(one, table, "prefix"))
            np.testing.assert_array_equal(suffixes[p, :n], cumulative_masses(one, table, "suffix"))

    def test_unknown_token_rejected(self, table):
        with pytest.raises(ValueError, match="unknown residue token 'Z'"):
            pack_residues([parse_peptide("G", table), Peptide(("Z",))], table)


class TestNeutralMass:
    def test_single_residue(self, table):
        assert peptide_neutral_mass(parse_peptide("G", table), table) == pytest.approx(
            75.032025, abs=1e-9
        )

    def test_empty_is_water(self, table):
        assert peptide_neutral_mass(Peptide(()), table) == pytest.approx(WATER_MASS)

    def test_two_residues(self, table):
        assert peptide_neutral_mass(parse_peptide("GA", table), table) == pytest.approx(
            146.069135, abs=1e-9
        )


class TestPrecursor:
    def test_single_charge(self):
        assert precursor_neutral_mass(PROTON_MASS + 100.0, 1) == pytest.approx(100.0)

    def test_double_charge(self):
        assert precursor_neutral_mass(PROTON_MASS + 50.0, 2) == pytest.approx(100.0)

    def test_zero_charge_rejected(self):
        with pytest.raises(ValueError, match="charge"):
            precursor_neutral_mass(100.0, 0)

    def test_sub_proton_mz_rejected(self):
        with pytest.raises(ValueError, match="proton"):
            precursor_neutral_mass(0.5, 1)

    def test_precursor_consistency_enforced(self):
        with pytest.raises(ValueError, match="inconsistent"):
            Precursor(mz=500.0, charge=2, neutral_mass=123.0)

    def test_from_mz(self):
        p = Precursor.from_mz(500.0, 2)
        assert p.neutral_mass == pytest.approx((500.0 - PROTON_MASS) * 2)


class TestMassTable:
    def test_tokens_preserve_order(self):
        table = MassTable({"B1": 10.0, "A2": 20.0})
        assert table.tokens == ("B1", "A2")

    def test_unknown_token_error(self, table):
        with pytest.raises(ValueError, match="unknown residue token"):
            table.mass("Z")

    def test_residue_masses_are_the_table_masses(self, table):
        peptide = Peptide(("G", "M(O)", "K", "G"))
        masses = residue_masses(peptide, table)
        assert masses.dtype == np.float64
        assert masses.tolist() == [table.mass(t) for t in peptide]
        assert residue_masses(Peptide(()), table).shape == (0,)
        with pytest.raises(ValueError, match=r"^unknown residue token 'Z'$"):
            residue_masses(Peptide(("G", "Z")), table)

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            MassTable({"X": 0.0})

    @pytest.mark.parametrize("entries,message", [
        ([("G", 57.0), ("", 71.0)], "empty residue token"),
        ([("G", 57.0), ("A", 71.0), ("G", 58.0)], "duplicate residue token 'G'"),
    ])
    def test_empty_and_repeated_tokens_rejected(self, entries, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            MassTable(entries)
