import math

import numpy as np
import pytest

from peprank.autograd import ParameterStore, Tensor
from peprank.encoders import (
    EmbeddingConfig,
    assemble_msa,
    create_embedding_params,
    embed_spectrum,
    mass_sinusoid,
    mz_sinusoid,
)
from peprank.masses import Precursor, parse_peptide, peptide_mz
from peprank.spectra import RawSpectrum, preprocess_spectrum


@pytest.fixture()
def config():
    return EmbeddingConfig(d=16, max_len=8, max_charge=3)


@pytest.fixture()
def store(config, table):
    store = ParameterStore(seed=0)
    create_embedding_params(store, config, len(table))
    return store


def processed_spectrum(table, mz=None, intensity=None, charge=2):
    mz = [100.0, 200.0, 300.0] if mz is None else mz
    intensity = [1.0] * len(mz) if intensity is None else intensity
    raw = RawSpectrum(
        spectrum_id="s",
        mz=np.asarray(mz, dtype=float),
        intensity=np.asarray(intensity, dtype=float),
        precursor=Precursor.from_mz(500.0, charge),
    )
    return preprocess_spectrum(raw)


def scalar_mz_sinusoid(mu, i, config):
    """Independent per-component evaluation of the m/z encoding."""
    k = i // 2
    angle = (2 * math.pi * mu / config.mu_min) / ((config.mu_max / config.mu_min) ** (k / config.d))
    return math.sin(angle) if i % 2 == 0 else math.cos(angle)


def scalar_mass_sinusoid(m, i, dim):
    k = i // 2
    angle = 2 * math.pi * m / (10000.0 ** (k / dim))
    return math.sin(angle) if i % 2 == 0 else math.cos(angle)


class TestSinusoids:
    def test_mz_at_lower_bound(self, config):
        vec = mz_sinusoid(config.mu_min, config)
        assert abs(vec[0]) < 1e-12  # sin(2*pi)
        assert abs(vec[1] - 1.0) < 1e-12  # cos(2*pi)

    def test_mz_matches_scalar_formula(self, config):
        rng = np.random.default_rng(0)
        for _ in range(20):
            mu = float(rng.uniform(config.mu_min, config.mu_max))
            vec = mz_sinusoid(mu, config)
            for i in range(config.d):
                assert vec[i] == pytest.approx(scalar_mz_sinusoid(mu, i, config), abs=1e-12)

    def test_mz_out_of_range(self, config):
        with pytest.raises(ValueError, match="outside"):
            mz_sinusoid(config.mu_min - 1.0, config)

    def test_mass_at_zero(self):
        vec = mass_sinusoid(0.0, 8)
        np.testing.assert_array_equal(vec[0::2], 0.0)
        np.testing.assert_array_equal(vec[1::2], 1.0)

    def test_mass_matches_scalar_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = float(rng.uniform(0, 4000))
            vec = mass_sinusoid(m, 12)
            for i in range(12):
                assert vec[i] == pytest.approx(scalar_mass_sinusoid(m, i, 12), abs=1e-12)

    def test_mass_odd_dim_rejected(self):
        with pytest.raises(ValueError, match="even"):
            mass_sinusoid(10.0, 3)

    def test_components_bounded(self, config):
        rng = np.random.default_rng(2)
        for _ in range(100):
            mu = float(rng.uniform(config.mu_min, config.mu_max))
            assert np.all(np.abs(mz_sinusoid(mu, config)) <= 1.0)
            assert np.all(np.abs(mass_sinusoid(float(rng.uniform(0, 5000)), 10)) <= 1.0)


class TestEmbeddingConfig:
    def test_non_divisible_dimension_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            EmbeddingConfig(d=10)

    def test_odd_subdimension_rejected(self):
        # d=12 gives d/4=3, an odd sinusoid width
        with pytest.raises(ValueError, match="even"):
            EmbeddingConfig(d=12)

    def test_subdimension_layout(self, config):
        assert (config.d_res, config.d_prefix, config.d_suffix, config.d_prec) == (8, 4, 4, 8)


class TestEmbedSpectrum:
    def test_zero_linear_map_gives_pure_sinusoid(self, table, config, store):
        store["spectrum/intensity_w"].data[:] = 0.0
        store["spectrum/intensity_b"].data[:] = 0.0
        spectrum = processed_spectrum(table)
        out = embed_spectrum(spectrum, store, config)
        expected = np.stack([mz_sinusoid(mz, config) for mz in spectrum.mz])
        np.testing.assert_array_equal(out.data, expected)

    def test_composition_oracle(self, table, config, store):
        spectrum = processed_spectrum(table, mz=[150.0, 250.0], intensity=[1.0, 9.0])
        out = embed_spectrum(spectrum, store, config)
        w = store["spectrum/intensity_w"].data
        b = store["spectrum/intensity_b"].data
        for row, (mz, intensity) in enumerate(zip(spectrum.mz, spectrum.intensity)):
            expected = mz_sinusoid(mz, config) + intensity * w[0] + b
            np.testing.assert_allclose(out.data[row], expected, atol=1e-12)

    def test_per_peak_map_permutes_rows(self, table, config, store):
        spectrum = processed_spectrum(table, mz=[150.0, 250.0, 350.0], intensity=[1.0, 2.0, 3.0])
        out = embed_spectrum(spectrum, store, config).data
        # same peaks presented in a different raw order preprocess to the same
        # sorted spectrum, so embedding rows are identical
        shuffled = processed_spectrum(table, mz=[350.0, 150.0, 250.0], intensity=[3.0, 1.0, 2.0])
        out2 = embed_spectrum(shuffled, store, config).data
        np.testing.assert_array_equal(out, out2)


def embed_candidate(peptide, precursor, table, store, config):
    """One candidate's cells before positions, [len+1, d]: its row of
    :func:`assemble_msa` for one spectrum, with the positional embedding
    zeroed."""
    store["embed/position"].data[:] = 0.0
    batch = assemble_msa([[peptide]], [precursor], table, store, config)
    return Tensor(batch.embeddings.data[batch.cells(0)[0]])


class TestEmbedCandidate:
    """The cell layout of one candidate, embedded by :func:`assemble_msa`."""

    def test_row_layout(self, table, config, store):
        """Residue embedding, then prefix and suffix sinusoids, in each
        candidate's row of a 3-spectrum batch of mixed widths."""
        from peprank.masses import cumulative_masses

        candidates = [[parse_peptide(text, table) for text in texts]
                      for texts in (["GAV", "PEPTIDEK"], ["K"], ["MKAV", "GG", "SAMPLER"])]
        precursors = [Precursor.from_mz(peptide_mz(peptides[0], table, 2), 2)
                      for peptides in candidates]
        store["embed/position"].data[:] = 0.0
        batch = assemble_msa(candidates, precursors, table, store, config)
        assert batch.shapes.tolist() == [[2, 9], [1, 2], [3, 8]]
        vocab_index = {t: i for i, t in enumerate(table.tokens)}
        for b, peptides in enumerate(candidates):
            for r, peptide in enumerate(peptides):
                out = batch.embeddings.data[batch.cells(b)[r]]
                prefixes = cumulative_masses(peptide, table, "prefix")
                suffixes = cumulative_masses(peptide, table, "suffix")
                for i, token in enumerate(peptide):
                    row = out[i + 1]
                    np.testing.assert_array_equal(
                        row[: config.d_res], store["embed/residue"].data[vocab_index[token]]
                    )
                    np.testing.assert_allclose(
                        row[config.d_res : config.d_res + config.d_prefix],
                        mass_sinusoid(prefixes[i], config.d_prefix),
                    )
                    np.testing.assert_allclose(
                        row[config.d_res + config.d_prefix :],
                        mass_sinusoid(suffixes[i], config.d_suffix),
                    )

    def test_zero_residue_embeddings_leave_sinusoids(self, table, config, store):
        store["embed/residue"].data[:] = 0.0
        peptide = parse_peptide("GAV", table)
        precursor = Precursor.from_mz(peptide_mz(peptide, table, 2), 2)
        out = embed_candidate(peptide, precursor, table, store, config)
        np.testing.assert_array_equal(out.data[1:, : config.d_res], 0.0)
        assert np.any(out.data[1:, config.d_res :] != 0.0)

    def test_cls_composition(self, table, config, store):
        peptide = parse_peptide("GAVK", table)
        precursor = Precursor.from_mz(peptide_mz(peptide, table, 2), 2)
        out = embed_candidate(peptide, precursor, table, store, config)
        cls = out.data[0]
        np.testing.assert_array_equal(cls[: config.d_res], store["embed/cls"].data)
        expected = mass_sinusoid(precursor.neutral_mass, config.d_prec) + store[
            "embed/charge"
        ].data[1]
        np.testing.assert_allclose(cls[config.d_res :], expected, atol=1e-12)

    def test_charge_out_of_vocabulary(self, table, config, store):
        peptide = parse_peptide("GAVK", table)
        precursor = Precursor.from_mz(peptide_mz(peptide, table, 9), 9)
        with pytest.raises(ValueError, match="charge"):
            embed_candidate(peptide, precursor, table, store, config)

    def test_empty_peptide_rejected(self, table, config, store):
        from peprank.masses import Peptide

        precursor = Precursor.from_mz(500.0, 2)
        with pytest.raises(ValueError, match="empty"):
            embed_candidate(Peptide(()), precursor, table, store, config)


class TestAssembleMsa:
    def test_single_candidate_shape_and_mask(self, table, config, store):
        peptide = parse_peptide("GAV", table)
        precursor = Precursor.from_mz(peptide_mz(peptide, table, 2), 2)
        batch = assemble_msa([[peptide]], [precursor], table, store, config)
        assert batch.embeddings.shape == (4, config.d)
        assert batch.cells(0).shape == (1, 4)
        assert batch.mask.all()

    def test_padding_arithmetic(self, table, config, store):
        short = parse_peptide("GAV", table)
        long = parse_peptide("GAVKP", table)
        precursor = Precursor.from_mz(peptide_mz(long, table, 2), 2)
        batch = assemble_msa([[short, long]], [precursor], table, store, config)
        assert batch.embeddings.shape == (12, config.d)
        mask = batch.mask[batch.cells(0)]
        np.testing.assert_array_equal(mask[0], [True] * 4 + [False] * 2)
        assert mask[1].all()

    def test_row_swap_is_bit_exact(self, table, config, store):
        a = parse_peptide("GAV", table)
        b = parse_peptide("KPGG", table)
        precursor = Precursor.from_mz(peptide_mz(b, table, 2), 2)
        forward = assemble_msa([[a, b]], [precursor], table, store, config)
        swapped = assemble_msa([[b, a]], [precursor], table, store, config)
        rows = forward.cells(0)
        np.testing.assert_array_equal(
            forward.embeddings.data[rows[0]], swapped.embeddings.data[rows[1]]
        )
        np.testing.assert_array_equal(
            forward.embeddings.data[rows[1]], swapped.embeddings.data[rows[0]]
        )

    def test_over_length_candidate_rejected(self, table, config, store):
        too_long = parse_peptide("G" * (config.max_len + 1), table)
        precursor = Precursor.from_mz(500.0, 2)
        with pytest.raises(ValueError, match="max_len"):
            assemble_msa([[too_long]], [precursor], table, store, config)

    def test_deterministic(self, table, config, store):
        peptides = [parse_peptide("GAV", table), parse_peptide("KP", table)]
        precursor = Precursor.from_mz(500.0, 2)
        one = assemble_msa([peptides], [precursor], table, store, config)
        two = assemble_msa([peptides], [precursor], table, store, config)
        np.testing.assert_array_equal(one.embeddings.data, two.embeddings.data)

    def test_spectra_keep_their_own_grids(self, table, config, store):
        """Packing adds no cell across spectra: each spectrum's cells and mask
        are those of its own one-spectrum batch."""
        lists = [[parse_peptide(t, table) for t in texts]
                 for texts in (("GAVKP", "GA"), ("KP",), ("GAV", "KPGG", "A"))]
        precursors = [Precursor.from_mz(500.0 + 100 * b, b + 1) for b in range(3)]
        batch = assemble_msa(lists, precursors, table, store, config)
        assert batch.embeddings.shape == (12 + 3 + 15, config.d)
        np.testing.assert_array_equal(batch.shapes, [[2, 6], [1, 3], [3, 5]])
        np.testing.assert_array_equal(batch.starts, [0, 12, 15])
        for b, (peptides, precursor) in enumerate(zip(lists, precursors)):
            alone = assemble_msa([peptides], [precursor], table, store, config)
            np.testing.assert_array_equal(batch.embeddings.data[batch.cells(b)],
                                          alone.embeddings.data[alone.cells(0)])
            np.testing.assert_array_equal(batch.mask[batch.cells(b)], alone.mask[alone.cells(0)])
