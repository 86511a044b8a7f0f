import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peprank.cli import main
from peprank.masses import PROTON_MASS, Precursor, parse_peptide, peptide_mz
from peprank.pipeline import gate_spectrum, skip_record
from peprank.spectra import (
    RawSpectrum,
    parse_mgf,
    preprocess_spectrum,
    validate_precursor,
    write_mgf,
)

MINIMAL_MGF = """\
BEGIN IONS
TITLE=spec_1
PEPMASS=500.0
CHARGE=2+
SEQ=GAV
100.0 1.0
200.0 4.0
END IONS
"""


def make_spectrum(mz, intensity, spectrum_id="s", charge=2, pepmass=500.0, label=None):
    return RawSpectrum(
        spectrum_id=spectrum_id,
        mz=np.asarray(mz, dtype=float),
        intensity=np.asarray(intensity, dtype=float),
        precursor=Precursor.from_mz(pepmass, charge),
        label=label,
    )


class TestParseMgf:
    def test_minimal_block(self):
        spectra = parse_mgf(io.StringIO(MINIMAL_MGF))
        assert len(spectra) == 1
        spectrum = spectra[0]
        assert spectrum.spectrum_id == "spec_1"
        assert spectrum.n_peaks == 2
        assert spectrum.precursor.charge == 2
        assert spectrum.label == "GAV"

    def test_charge_plus_suffix(self):
        spectra = parse_mgf(io.StringIO(MINIMAL_MGF))
        assert spectra[0].precursor.charge == 2

    def test_missing_pepmass(self):
        text = "BEGIN IONS\nTITLE=x\nCHARGE=2+\n100.0 1.0\nEND IONS\n"
        with pytest.raises(ValueError, match="missing PEPMASS"):
            parse_mgf(io.StringIO(text))

    def test_missing_charge(self):
        text = "BEGIN IONS\nTITLE=x\nPEPMASS=500.0\n100.0 1.0\nEND IONS\n"
        with pytest.raises(ValueError, match="missing CHARGE"):
            parse_mgf(io.StringIO(text))

    def test_malformed_peak_line(self):
        text = "BEGIN IONS\nPEPMASS=500.0\nCHARGE=2+\n100.0\nEND IONS\n"
        with pytest.raises(ValueError, match="malformed peak"):
            parse_mgf(io.StringIO(text))

    def test_unterminated_block(self):
        text = "BEGIN IONS\nPEPMASS=500.0\nCHARGE=2+\n100.0 1.0\n"
        with pytest.raises(ValueError, match="unterminated"):
            parse_mgf(io.StringIO(text))

    def test_unsorted_peaks_resorted(self):
        text = "BEGIN IONS\nPEPMASS=500.0\nCHARGE=2+\n300.0 1.0\n100.0 2.0\nEND IONS\n"
        spectrum = parse_mgf(io.StringIO(text))[0]
        assert list(spectrum.mz) == [100.0, 300.0]
        assert list(spectrum.intensity) == [2.0, 1.0]

    def test_untitled_spectra_get_running_index(self):
        block = "BEGIN IONS\nPEPMASS=500.0\nCHARGE=2+\n100.0 1.0\nEND IONS\n"
        spectra = parse_mgf(io.StringIO(block + block))
        assert [s.spectrum_id for s in spectra] == ["spectrum_0", "spectrum_1"]

    def test_charge_too_large_for_a_float_names_its_block(self, tmp_path, capsys):
        text = MINIMAL_MGF + MINIMAL_MGF.replace("spec_1", "spec_2").replace("2+", "9" * 400)
        with pytest.raises(ValueError, match="block at line 9: int too large"):
            parse_mgf(io.StringIO(text))
        mgf = tmp_path / "big_charge.mgf"
        mgf.write_text(text)
        assert main(["preprocess", "--mgf", str(mgf), "--out", str(tmp_path / "out.mgf")]) == 2
        assert "block at line 9" in capsys.readouterr().err

    def test_duplicate_title_names_both_blocks(self):
        second = MINIMAL_MGF.replace("PEPMASS=500.0", "PEPMASS=600.0")
        with pytest.raises(ValueError, match="block at line 9: duplicate TITLE 'spec_1' "
                                             r"\(first used by the block at line 1\)"):
            parse_mgf(io.StringIO(MINIMAL_MGF + second))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_bytes_parse_or_raise_value_error(self, data):
        """Each byte flip, truncation or insertion of a small MGF either
        parses into spectra with finite values or raises ValueError (an
        undecodable byte raises UnicodeDecodeError, a ValueError)."""
        original = (MINIMAL_MGF + MINIMAL_MGF.replace("spec_1", "spec_2")).encode()
        kind = data.draw(st.sampled_from(["flip", "truncate", "insert"]))
        at = data.draw(st.integers(0, len(original) - 1))
        if kind == "flip":
            bit = data.draw(st.integers(0, 7))
            mutant = original[:at] + bytes([original[at] ^ (1 << bit)]) + original[at + 1 :]
        elif kind == "truncate":
            mutant = original[:at]
        else:
            mutant = original[:at] + data.draw(st.binary(min_size=1, max_size=8)) + original[at:]
        try:
            spectra = parse_mgf(io.StringIO(mutant.decode("utf-8")))
        except ValueError:
            return
        for spectrum in spectra:
            assert np.isfinite(spectrum.mz).all() and np.isfinite(spectrum.intensity).all()
            assert np.isfinite(spectrum.precursor.neutral_mass)

    def test_round_trip(self):
        spectra = parse_mgf(io.StringIO(MINIMAL_MGF))
        sink = io.StringIO()
        write_mgf(spectra, sink)
        again = parse_mgf(io.StringIO(sink.getvalue()))
        assert again[0].spectrum_id == spectra[0].spectrum_id
        np.testing.assert_array_equal(again[0].mz, spectra[0].mz)
        np.testing.assert_array_equal(again[0].intensity, spectra[0].intensity)
        assert again[0].precursor == spectra[0].precursor


class TestPreprocess:
    def test_low_mz_peak_removed(self):
        spectrum = make_spectrum([50.4, 100.0], [1.0, 1.0])
        processed = preprocess_spectrum(spectrum)
        assert processed.n_peaks == 1
        assert processed.mz[0] == 100.0

    def test_boundary_peak_kept(self):
        processed = preprocess_spectrum(make_spectrum([50.5, 4500.0], [1.0, 1.0]))
        assert processed.n_peaks == 2

    def test_top_300_rule_drops_exactly_the_weakest(self):
        mz = np.linspace(100.0, 400.0, 301)
        intensity = np.full(301, 2.0)
        weakest = 57
        intensity[weakest] = 1.0
        processed = preprocess_spectrum(make_spectrum(mz, intensity))
        assert processed.n_peaks == 300
        assert mz[weakest] not in processed.mz

    def test_top_300_tie_keeps_lower_mz(self):
        mz = np.linspace(100.0, 400.0, 301)
        intensity = np.full(301, 1.0)  # all tied: the highest m/z must go
        processed = preprocess_spectrum(make_spectrum(mz, intensity))
        assert processed.n_peaks == 300
        assert mz[-1] not in processed.mz
        assert mz[0] in processed.mz

    def test_sqrt_normalization(self):
        processed = preprocess_spectrum(make_spectrum([100.0, 200.0], [1.0, 4.0]))
        np.testing.assert_allclose(processed.intensity, [1 / 3, 2 / 3])

    def test_normalized_sum_to_one(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(1, 50))
            spectrum = make_spectrum(
                rng.uniform(60, 4000, size=n), rng.uniform(0.01, 100, size=n)
            )
            processed = preprocess_spectrum(spectrum)
            assert abs(processed.intensity.sum() - 1.0) <= 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            n = int(rng.integers(1, 400))
            spectrum = make_spectrum(
                rng.uniform(10, 5000, size=n), rng.uniform(0.01, 100, size=n)
            )
            once = preprocess_spectrum(spectrum)
            if once is None:
                continue
            twice = preprocess_spectrum(once.to_raw())
            np.testing.assert_array_equal(once.mz, twice.mz)
            np.testing.assert_array_equal(once.intensity, twice.intensity)
            np.testing.assert_array_equal(once.raw_intensity, twice.raw_intensity)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(23)
        mz = rng.uniform(60, 4000, size=30)
        intensity = rng.uniform(0.01, 10, size=30)
        base = preprocess_spectrum(make_spectrum(mz, intensity))
        perm = rng.permutation(30)
        shuffled = preprocess_spectrum(make_spectrum(mz[perm], intensity[perm]))
        np.testing.assert_array_equal(base.mz, shuffled.mz)
        np.testing.assert_array_equal(base.intensity, shuffled.intensity)

    def test_emptied_spectrum_excluded_with_warning(self, table, caplog):
        spectrum = make_spectrum([10.0, 20.0], [1.0, 1.0])
        excluded = []
        with caplog.at_level("WARNING"):
            processed, reason = gate_spectrum(spectrum, None, table)
            assert processed is None
            skip_record(excluded, spectrum.spectrum_id, reason, strict=False)
        assert excluded == [("s", "empty_after_preprocessing")]
        assert [r.getMessage() for r in caplog.records] == [
            "spectrum 's' excluded: empty_after_preprocessing"
        ]

    def test_strict_mode_raises(self, table):
        spectrum = make_spectrum([10.0], [1.0])
        processed, reason = gate_spectrum(spectrum, None, table)
        assert processed is None and reason == "empty_after_preprocessing"
        with pytest.raises(ValueError, match="'s' excluded: empty_after_preprocessing"):
            skip_record([], spectrum.spectrum_id, reason, strict=True)

    def test_batch_keeps_order_and_reports_exclusions(self, tmp_path):
        good = make_spectrum([100.0], [1.0], spectrum_id="good")
        bad = make_spectrum([10.0], [1.0], spectrum_id="bad")
        good_2 = make_spectrum([100.0], [1.0], spectrum_id="good_2")
        mgf, out, report = tmp_path / "in.mgf", tmp_path / "out.mgf", tmp_path / "report.tsv"
        with open(mgf, "w", encoding="utf-8") as sink:
            write_mgf([good, bad, good_2], sink)
        assert main(["preprocess", "--mgf", str(mgf), "--out", str(out),
                     "--report", str(report)]) == 0
        kept = parse_mgf(io.StringIO(out.read_text()))
        assert [s.spectrum_id for s in kept] == ["good", "good_2"]
        assert report.read_text().splitlines()[1:] == ["bad\tempty_after_preprocessing"]


class TestValidatePrecursor:
    def test_exact_theoretical_precursor(self, table):
        label = parse_peptide("GAVK", table)
        mz = peptide_mz(label, table, 2)
        spectrum = make_spectrum([100.0], [1.0], pepmass=mz, charge=2)
        assert validate_precursor(spectrum, label, table)

    def test_sixty_ppm_rejected(self, table):
        label = parse_peptide("GAVK", table)
        mz = peptide_mz(label, table, 2)
        # shift the observed m/z so the neutral mass lands 60 ppm high
        shifted = mz + 60e-6 * (mz - PROTON_MASS)
        spectrum = make_spectrum([100.0], [1.0], pepmass=shifted, charge=2)
        assert not validate_precursor(spectrum, label, table)

    def test_forty_ppm_accepted(self, table):
        label = parse_peptide("GAVK", table)
        mz = peptide_mz(label, table, 2)
        shifted = mz + 40e-6 * (mz - PROTON_MASS)
        spectrum = make_spectrum([100.0], [1.0], pepmass=shifted, charge=2)
        assert validate_precursor(spectrum, label, table)

    def test_mz_gate_rejects_large_offsets(self, table):
        label = parse_peptide("GAVK", table)
        mz = peptide_mz(label, table, 2)
        spectrum = make_spectrum([100.0], [1.0], pepmass=mz + 2.5, charge=2)
        assert not validate_precursor(spectrum, label, table)


class TestRawSpectrum:
    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            make_spectrum([100.0], [-1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            make_spectrum([100.0, 200.0], [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="'s9' has non-finite"):
            make_spectrum([100.0, 200.0], [1.0, bad], spectrum_id="s9")
        with pytest.raises(ValueError, match="'s9' has non-finite"):
            make_spectrum([bad, 200.0], [1.0, 1.0], spectrum_id="s9")

    def test_non_finite_peak_in_mgf_names_the_block(self):
        text = MINIMAL_MGF + MINIMAL_MGF.replace("spec_1", "spec_2").replace("4.0", "nan")
        with pytest.raises(ValueError, match="block at line 9: spectrum 'spec_2'"):
            parse_mgf(io.StringIO(text))

    @pytest.mark.parametrize("pepmass", ["nan", "inf", "-inf"])
    def test_non_finite_pepmass_rejected(self, pepmass):
        text = MINIMAL_MGF + MINIMAL_MGF.replace("500.0", pepmass)
        with pytest.raises(ValueError, match="block at line 9: non-finite PEPMASS"):
            parse_mgf(io.StringIO(text))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_precursor_rejected(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            Precursor.from_mz(bad, 2)
        with pytest.raises(ValueError, match="must be finite"):
            Precursor(mz=500.0, charge=2, neutral_mass=bad)
