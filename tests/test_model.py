import json

import numpy as np
import pytest

from peprank import autograd as ag
from peprank.autograd import Tensor
from peprank.encoders import EmbeddingConfig, collate_peaks, embed_spectrum
from peprank.masses import MassTable, Precursor, parse_peptide
from peprank.model import (
    AxialLayout,
    ModelConfig,
    ModelOutput,
    RerankModel,
    joint_loss,
    rerank_select,
)
from peprank.spectra import RawSpectrum, preprocess_spectrum


def tiny_config(table, max_len=8):
    return ModelConfig(
        d=16,
        n_layers=1,
        n_heads=2,
        ff_dim=32,
        dropout_rate=0.0,
        loss_lambda=0.5,
        embedding=EmbeddingConfig(d=16, max_len=max_len, max_charge=3),
        vocab=table.tokens,
    )


@pytest.fixture()
def model(table):
    return RerankModel(tiny_config(table), table, seed=0)


def make_processed(table, k=8, charge=2, seed=0):
    rng = np.random.default_rng(seed)
    raw = RawSpectrum(
        spectrum_id="s",
        mz=rng.uniform(60, 2000, size=k),
        intensity=rng.uniform(0.1, 5.0, size=k),
        precursor=Precursor.from_mz(700.0, charge),
    )
    return preprocess_spectrum(raw)


def make_candidates(table, texts=("GAVKPG", "GAVK", "AAV")):
    return [parse_peptide(t, table) for t in texts]


def per_spectrum(output, candidates):
    """Each spectrum's (pmd_pred, rmd_pred) slices of a batched output."""
    pmd_ends = np.cumsum([len(cands) for cands in candidates])[:-1]
    rmd_ends = np.cumsum([sum(len(p) for p in cands) for cands in candidates])[:-1]
    return list(zip(np.split(output.pmd_pred.data, pmd_ends),
                    np.split(output.rmd_pred.data, rmd_ends)))


def final_grid(model, spectra, batch):
    """The grid [N, d] that the heads read: the mixer blocks over ``batch``."""
    peaks = collate_peaks(spectra)
    encoded = model.spectrum_encoder(
        embed_spectrum(peaks, model.store, model.config.embedding), peaks.counts)
    layout = AxialLayout.of(batch, peaks.counts)
    grid = batch.embeddings
    for i in range(model.config.n_layers):
        grid = model.axial_block(grid, layout, encoded, i)
    return grid.data


def one_instance(output):
    """Instance ids that make every score of ``output`` one instance's."""
    return (np.zeros(output.pmd_pred.size, dtype=int), np.zeros(output.rmd_pred.size, dtype=int))


class TestSpectrumEncoder:
    def test_single_peak_is_finite_and_deterministic(self, table, model):
        spectrum = make_processed(table, k=1)
        out, _ = model.forward(spectrum, make_candidates(table))
        assert np.isfinite(out.pmd_pred.data).all()
        out2, _ = model.forward(spectrum, make_candidates(table))
        np.testing.assert_array_equal(out.pmd_pred.data, out2.pmd_pred.data)

    def test_peak_permutation_equivariance(self, table, model):
        spectrum = make_processed(table, k=6)
        encoded = model.spectrum_encoder(
            embed_spectrum(spectrum, model.store, model.config.embedding), np.array([6])
        ).data
        # permute the embedded rows directly and re-encode
        perm = np.random.default_rng(1).permutation(6)
        emb = embed_spectrum(spectrum, model.store, model.config.embedding)
        permuted = Tensor(emb.data[perm])
        encoded_perm = model.spectrum_encoder(permuted, np.array([6])).data
        np.testing.assert_allclose(encoded_perm, encoded[perm], atol=1e-9)


class TestAxialBlock:
    def test_single_candidate_finite(self, table, model):
        spectrum = make_processed(table)
        out, _ = model.forward(spectrum, make_candidates(table, ("GAVK",)))
        assert np.isfinite(out.pmd_pred.data).all()
        assert out.pmd_pred.shape == (1,)

    def test_row_permutation_equivariance(self, table, model):
        spectrum = make_processed(table)
        candidates = make_candidates(table)
        out, _ = model.forward(spectrum, candidates)
        rng = np.random.default_rng(7)
        for _ in range(5):
            perm = rng.permutation(len(candidates))
            out_perm, _ = model.forward(spectrum, [candidates[i] for i in perm])
            np.testing.assert_allclose(
                out_perm.pmd_pred.data, out.pmd_pred.data[perm], atol=1e-6
            )
            chosen = rerank_select(out.pmd_pred)
            chosen_perm = rerank_select(out_perm.pmd_pred)
            assert candidates[chosen].render() == [candidates[i] for i in perm][
                chosen_perm
            ].render()

    def test_attention_score_counts(self, table, model):
        spectrum = make_processed(table, k=8)
        candidates = make_candidates(table)
        model.reset_attention_counts()
        _, batch = model.forward(spectrum, candidates)
        c = len(candidates)
        width = batch.width
        k = spectrum.n_peaks
        layers = model.config.n_layers
        assert model.attn_counts["row"] == layers * c * width * width
        assert model.attn_counts["col"] == layers * width * c * c
        assert model.attn_counts["cross"] == layers * c * width * k
        assert model.attn_counts["spectrum"] == layers * k * k

    def test_padding_isolation(self, table, model):
        spectrum = make_processed(table)
        candidates = make_candidates(table)  # ragged: lengths 6, 4, 3
        out, _ = model.forward(spectrum, candidates)
        # corrupt the pad vector; no output (each scores a real cell) may move
        model.store["embed/pad"].data[:] = np.random.default_rng(3).normal(
            size=model.config.d
        ) * 100.0
        out2, _ = model.forward(spectrum, candidates)
        np.testing.assert_allclose(out2.pmd_pred.data, out.pmd_pred.data, atol=1e-9)
        np.testing.assert_allclose(out2.rmd_pred.data, out.rmd_pred.data, atol=1e-9)


class TestBatchedForward:
    # peak counts, candidate counts and lengths all differ, so each attention
    # splits into several groups
    SPECTRA = ((3, ("GAV",)), (8, ("GAVKPG", "GAVK", "AAV")), (12, ("KPG", "WGTSA", "GA", "AAVH")))

    @pytest.fixture()
    def deep_model(self, table):
        config = ModelConfig(d=16, n_layers=2, n_heads=2, ff_dim=32,
                             embedding=EmbeddingConfig(d=16, max_len=8, max_charge=3),
                             vocab=table.tokens)
        return RerankModel(config, table, seed=1)

    def batch(self, table, spectra=SPECTRA):
        return ([make_processed(table, k=k, seed=k) for k, _ in spectra],
                [make_candidates(table, texts) for _, texts in spectra])

    def assert_matches_single_calls(self, model, spectra, candidates):
        out, batch = model.forward(spectra, candidates)
        sizes = [(len(c), max(len(p) for p in c) + 1) for c in candidates]
        assert out.pmd_pred.shape == (sum(c for c, _ in sizes),)
        assert out.rmd_pred.shape == (sum(len(p) for c in candidates for p in c),)
        assert batch.mask.shape == (sum(c * w for c, w in sizes),)
        assert batch.embeddings.shape == batch.mask.shape + (model.config.d,)
        pmd_at = rmd_at = 0
        for b, (spectrum, cands) in enumerate(zip(spectra, candidates)):
            single, single_batch = model.forward(spectrum, cands)
            c, n = len(cands), sum(len(p) for p in cands)
            np.testing.assert_array_equal(batch.mask[batch.cells(b)].ravel(), single_batch.mask)
            np.testing.assert_allclose(out.pmd_pred.data[pmd_at : pmd_at + c],
                                       single.pmd_pred.data, rtol=0, atol=1e-10)
            np.testing.assert_allclose(out.rmd_pred.data[rmd_at : rmd_at + n],
                                       single.rmd_pred.data, rtol=0, atol=1e-10)
            pmd_at, rmd_at = pmd_at + c, rmd_at + n

    def test_matches_single_spectrum_calls(self, table, deep_model):
        spectra, candidates = self.batch(table)
        self.assert_matches_single_calls(deep_model, spectra, candidates)
        _, batch = deep_model.forward(spectra, candidates)
        layout = AxialLayout.of(batch, np.array([s.n_peaks for s in spectra]))
        assert len(layout.rows) == len(layout.columns) == len(layout.cross) == 3

    @pytest.mark.parametrize("order", [(1, 2, 0), (2, 0, 1), (2, 1, 0)])
    def test_batch_mates_order_changes_no_spectrums_outputs(self, table, deep_model, order):
        spectra, candidates = self.batch(table)
        out, _ = deep_model.forward(spectra, candidates)
        moved = [spectra[b] for b in order], [candidates[b] for b in order]
        moved_out, moved_batch = deep_model.forward(*moved)
        before, after = per_spectrum(out, candidates), per_spectrum(moved_out, moved[1])
        for slot, b in enumerate(order):
            for got, want in zip(after[slot], before[b]):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
            _, alone = deep_model.forward(spectra[b], candidates[b])
            np.testing.assert_array_equal(moved_batch.embeddings.data[moved_batch.cells(slot)],
                                          alone.embeddings.data[alone.cells(0)])

    def test_equal_shapes_share_one_attention_group(self, table, deep_model):
        # adjacent spectra 0 and 1 have equal widths and candidate counts,
        # spectrum 2 only an equal candidate count: rows form two groups, columns one
        spectra, candidates = self.batch(table, ((5, ("GAVK", "AAV")), (7, ("KPG", "WGTS")),
                                                 (9, ("GAVKPG", "GA"))))
        self.assert_matches_single_calls(deep_model, spectra, candidates)
        _, batch = deep_model.forward(spectra, candidates)
        layout = AxialLayout.of(batch, np.array([s.n_peaks for s in spectra]))
        assert [(g.count, g.n_q) for g in layout.rows] == [(4, 5), (2, 7)]
        assert [(g.count, g.n_q) for g in layout.columns] == [(17, 2)]
        cells = np.arange(batch.mask.size)
        np.testing.assert_array_equal(np.sort(layout.to_columns), cells)
        np.testing.assert_array_equal(layout.to_columns[layout.from_columns], cells)

    def test_attention_counts_cover_each_spectrums_own_grid(self, table, deep_model):
        spectra, candidates = self.batch(table)
        deep_model.reset_attention_counts()
        deep_model.forward(spectra, candidates)
        expected = {"spectrum": 0, "row": 0, "col": 0, "cross": 0}
        for spectrum, cands in zip(spectra, candidates):
            c, w, k = len(cands), max(len(p) for p in cands) + 1, spectrum.n_peaks
            for key, count in (("spectrum", k * k), ("row", c * w * w),
                               ("col", w * c * c), ("cross", c * w * k)):
                expected[key] += 2 * count
        assert deep_model.attn_counts == expected


class TestPredictHeads:
    def test_zero_heads_give_bias(self, table, model):
        model.store["head/pmd_w"].data[:] = 0.0
        model.store["head/pmd_b"].data[:] = 0.125
        model.store["head/rmd_w"].data[:] = 0.0
        model.store["head/rmd_b"].data[:] = -2.0
        spectrum = make_processed(table)
        out, _ = model.forward(spectrum, make_candidates(table))
        np.testing.assert_allclose(out.pmd_pred.data, 0.125)
        np.testing.assert_allclose(out.rmd_pred.data, -2.0)

    def test_output_shapes(self, table, model):
        spectrum = make_processed(table)
        out, batch = model.forward(spectrum, make_candidates(table))  # 6, 4 and 3 residues
        assert out.pmd_pred.shape == (3,)
        assert out.rmd_pred.shape == (6 + 4 + 3,)
        assert batch.mask.shape == (3 * batch.width,)

    def test_one_spectrum_is_the_one_spectrum_batch(self, table, model):
        spectrum = make_processed(table, k=8)
        candidates = make_candidates(table)
        out, batch = model.forward(spectrum, candidates)
        out_b, batch_b = model.forward([spectrum], [candidates])
        for got, want in ((out.pmd_pred.data, out_b.pmd_pred.data),
                          (out.rmd_pred.data, out_b.rmd_pred.data),
                          (batch.mask, batch_b.mask), (batch.shapes, batch_b.shapes)):
            np.testing.assert_array_equal(got, want)
        assert out.rmd_pred.shape == (sum(len(p) for p in candidates),)

        # the residue scores are the rmd head over the final grid's residue
        # cells, candidate by candidate
        rows = np.concatenate([batch.cells(0)[r, 1 : len(p) + 1]
                               for r, p in enumerate(candidates)])
        expected = (final_grid(model, [spectrum], batch)[rows]
                    @ model.store["head/rmd_w"].data)[:, 0] + model.store["head/rmd_b"].data
        np.testing.assert_allclose(out.rmd_pred.data, expected, rtol=0, atol=1e-12)

    def test_heads_read_the_rows_assemble_msa_records(self, table, model):
        spectra = [make_processed(table, k=k, seed=k) for k, _ in TestBatchedForward.SPECTRA]
        candidates = [make_candidates(table, texts) for _, texts in TestBatchedForward.SPECTRA]
        out, batch = model.forward(spectra, candidates)
        sizes = batch.shapes[:, 0] * batch.shapes[:, 1]
        np.testing.assert_array_equal(batch.starts, np.cumsum(sizes) - sizes)  # spectrum order

        # spectrum, then candidate, then residue order, derived from each grid
        cls_rows = [batch.cells(b)[r, 0] for b, cands in enumerate(candidates)
                    for r in range(len(cands))]
        residue_rows = [i for b, cands in enumerate(candidates) for r, p in enumerate(cands)
                        for i in batch.cells(b)[r, 1 : len(p) + 1]]
        np.testing.assert_array_equal(batch.cls_rows, cls_rows)
        np.testing.assert_array_equal(batch.residue_rows, residue_rows)
        np.testing.assert_array_equal(np.flatnonzero(batch.mask),
                                      np.union1d(cls_rows, residue_rows))

        grid = final_grid(model, spectra, batch)
        for pred, rows, head in ((out.pmd_pred, cls_rows, "pmd"),
                                 (out.rmd_pred, residue_rows, "rmd")):
            expected = (grid[rows] @ model.store[f"head/{head}_w"].data)[:, 0] \
                + model.store[f"head/{head}_b"].data
            np.testing.assert_allclose(pred.data, expected, rtol=0, atol=1e-12)


class TestJointLoss:
    def test_zero_when_predictions_equal_targets(self):
        output = ModelOutput(Tensor(np.array([0.5, 1.5])), Tensor(np.array([1.0, 2.0, 3.0, 4.0])))
        loss = joint_loss(output, output.pmd_pred.data.copy(), output.rmd_pred.data.copy(), 0.5,
                          one_instance(output))
        assert loss.item() == 0.0

    def test_lambda_one_is_pmd_term_alone(self):
        rng = np.random.default_rng(4)
        output = ModelOutput(Tensor(rng.normal(size=3)), Tensor(rng.normal(size=6)))
        pmd_t = rng.normal(size=3)
        rmd_t = rng.normal(size=6)
        loss = joint_loss(output, pmd_t, rmd_t, 1.0, one_instance(output))
        expected = np.sqrt(np.mean((output.pmd_pred.data - pmd_t) ** 2))
        assert loss.item() == pytest.approx(expected, rel=1e-12)

    def test_matches_scalar_reimplementation(self):
        rng = np.random.default_rng(5)
        output = ModelOutput(Tensor(rng.normal(size=4)), Tensor(rng.normal(size=14)))
        pmd_t = rng.normal(size=4)
        rmd_t = rng.normal(size=14)
        pmd_ids, rmd_ids = np.array([0, 0, 0, 1]), np.repeat([0, 1], [9, 5])
        lam = 0.5
        loss = joint_loss(output, pmd_t, rmd_t, lam, (pmd_ids, rmd_ids))
        expected = []
        for i in (0, 1):
            pmd_diffs = (output.pmd_pred.data - pmd_t)[pmd_ids == i]
            rmd_diffs = (output.rmd_pred.data - rmd_t)[rmd_ids == i]
            expected.append(lam * np.sqrt(np.mean(pmd_diffs**2))
                            + (1 - lam) * np.sqrt(np.mean(rmd_diffs**2)))
        assert loss.item() == pytest.approx(np.mean(expected), rel=1e-12)

    def test_instance_without_residue_scores_rejected(self):
        # instance 1 has none: in the middle, and last (which rmse alone cannot see)
        for pmd_ids, rmd_ids in (([0, 1, 2], [0, 0, 2]), ([0, 1], [0, 0, 0])):
            output = ModelOutput(Tensor(np.zeros(len(pmd_ids))), Tensor(np.zeros(len(rmd_ids))))
            with pytest.raises(ValueError, match="zero unmasked elements"):
                joint_loss(output, np.zeros(len(pmd_ids)), np.zeros(len(rmd_ids)), 0.5,
                           (np.array(pmd_ids), np.array(rmd_ids)))


class TestRerankSelect:
    def test_argmin(self):
        assert rerank_select(np.array([0.5, 0.1, 0.9])) == 1

    def test_tie_goes_to_lowest_index(self):
        assert rerank_select(np.array([0.3, 0.3])) == 0

    def test_single_candidate(self):
        assert rerank_select(np.array([2.0])) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            rerank_select(np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            rerank_select(np.array([0.5, bad, 0.1]))

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            scores = rng.normal(size=6) ** 2 + 0.01
            base = rerank_select(scores)
            assert rerank_select(scores * float(rng.uniform(0.1, 10))) == base


class TestModelGradients:
    def test_full_loss_gradient_sampled(self, table, model):
        spectrum = make_processed(table, k=8)
        candidates = make_candidates(table)
        rng = np.random.default_rng(9)
        pmd_t = rng.uniform(0, 2, size=3)

        def f():
            out, _ = model.forward(spectrum, candidates)
            rmd_t = np.zeros(out.rmd_pred.shape)
            return joint_loss(out, pmd_t, rmd_t, 0.5, one_instance(out))

        # spot-check a few coordinates of a few parameter tensors
        names = ["embed/residue", "enc0/attn/wq", "mix0/col/wv", "head/pmd_w",
                 "mix0/ff/w1", "enc_final_norm/gain"]
        params = [model.store[name] for name in names]
        err = ag.grad_check(f, params, max_coords_per_input=4)
        assert err < 1e-4


class TestModelConfig:
    def test_vocab_table_mismatch_rejected(self, table):
        other = MassTable({"G": 57.02146, "A": 71.03711})
        with pytest.raises(ValueError, match="vocabulary"):
            RerankModel(tiny_config(table), other, seed=0)

    def test_heads_must_divide_dimension(self, table):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(d=16, n_heads=3, embedding=EmbeddingConfig(d=16), vocab=table.tokens)

    def test_round_trip_dict(self, table):
        config = tiny_config(table)
        again = ModelConfig.from_dict(config.to_dict())
        assert again == config

    def test_profiles_serialize_to_the_version_1_header(self, table):
        tokens = json.dumps(list(table.tokens))
        assert json.dumps(ModelConfig.desk(table.tokens).to_dict()) == (
            '{"d": 64, "n_layers": 2, "n_heads": 8, "ff_dim": 128, "dropout_rate": 0.0, '
            '"loss_lambda": 0.5, "mu_min": 50.5, "mu_max": 4500.0, "max_len": 100, '
            f'"max_charge": 10, "vocab": {tokens}}}'
        )
        assert json.dumps(ModelConfig.paper_scale(table.tokens).to_dict()) == (
            '{"d": 512, "n_layers": 8, "n_heads": 8, "ff_dim": 1024, "dropout_rate": 0.3, '
            '"loss_lambda": 0.5, "mu_min": 50.5, "mu_max": 4500.0, "max_len": 100, '
            f'"max_charge": 10, "vocab": {tokens}}}'
        )

    def test_from_dict_names_missing_and_unknown_keys(self, table):
        data = tiny_config(table).to_dict()
        del data["ff_dim"]
        data["width"] = 3
        with pytest.raises(ValueError, match=r"missing keys \['ff_dim'\].*unknown keys \['width'\]"):
            ModelConfig.from_dict(data)
