"""Acceptance suite.

Each test covers one numbered acceptance criterion at its stated
tolerance and prints a single [criterion NN] PASS/FAIL line; run with
``pytest tests/test_acceptance.py -s`` to see the lines as they pass.
The desk-scale training criterion dominates the runtime (a few minutes
on a laptop CPU).
"""

import json
import time
from contextlib import contextmanager

import numpy as np

from peprank import autograd as ag
from peprank.autograd import Tensor
from peprank.cli import main as cli_main
from peprank.encoders import EmbeddingConfig
from peprank.evaluation import aa_match, corpus_stats
from peprank.masses import (
    Peptide,
    Precursor,
    cumulative_masses,
    default_mass_table,
    parse_peptide,
    peptide_mz,
)
from peprank.metrics import gap_penalty, pmd, pmd_bruteforce, rmd
from peprank.model import ModelConfig, RerankModel, joint_loss, rerank_select
from peprank.pipeline import (
    TrainConfig,
    build_training_set,
    load_checkpoint,
    rerank_run,
    save_checkpoint,
    synthesize_dataset,
    train,
)
from peprank.spectra import RawSpectrum, preprocess_spectrum, validate_precursor

from conftest import grad_check, random_table


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"[criterion {number:02d}] FAIL  {description}")
        raise
    print(f"[criterion {number:02d}] PASS  {description}")


def random_peptide(rng, table, min_len, max_len):
    length = int(rng.integers(min_len, max_len + 1))
    tokens = table.tokens
    return Peptide(tuple(tokens[i] for i in rng.integers(len(tokens), size=length)))


def tiny_model(table, max_len=8, seed=0):
    config = ModelConfig(
        d=16,
        n_layers=1,
        n_heads=2,
        ff_dim=32,
        dropout_rate=0.0,
        embedding=EmbeddingConfig(d=16, max_len=max_len, max_charge=3),
        vocab=table.tokens,
    )
    return RerankModel(config, table, seed=seed)


def make_spectrum(k, seed=0, charge=2):
    rng = np.random.default_rng(seed)
    raw = RawSpectrum(
        spectrum_id=f"k{k}",
        mz=rng.uniform(60, 2000, size=k),
        intensity=rng.uniform(0.1, 5.0, size=k),
        precursor=Precursor.from_mz(700.0, charge),
    )
    return preprocess_spectrum(raw)


def test_01_pmd_oracle_equivalence():
    with criterion(1, "pmd equals exhaustive-alignment oracle on 500 pairs (< 10 s)"):
        rng = np.random.default_rng(1001)
        start = time.perf_counter()
        checked = 0
        for _ in range(20):
            table = random_table(rng, n_tokens=6)
            gap = gap_penalty(table)
            for _ in range(25):
                q = random_peptide(rng, table, 0, 5)
                k = random_peptide(rng, table, 0, 5)
                fast = pmd(q, k, table, gap=gap)
                slow = pmd_bruteforce(q, k, table)
                assert abs(fast - slow) <= 1e-9 * max(1.0, abs(slow))
                checked += 1
        elapsed = time.perf_counter() - start
        assert checked == 500
        assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f} s"


def test_02_pmd_property_suite():
    with criterion(2, "pmd identity/symmetry/non-negativity/upper bound, 10,000 cases"):
        rng = np.random.default_rng(1002)
        default = default_mass_table()
        default_gap = gap_penalty(default)
        violations = 0
        for case in range(10_000):
            if case % 4 == 0:
                table, gap = random_table(rng, n_tokens=6), None
                gap = gap_penalty(table)
            else:
                table, gap = default, default_gap
            q = random_peptide(rng, table, 0, 8)
            k = random_peptide(rng, table, 0, 8)
            forward = pmd(q, k, table, gap=gap)
            backward = pmd(k, q, table, gap=gap)
            if pmd(q, q, table, gap=gap) != 0.0:
                violations += 1
            if abs(forward - backward) > 1e-9 * max(1.0, abs(forward)):
                violations += 1
            if not (0.0 <= forward <= len(q) + len(k) + 1e-12):
                violations += 1
        assert violations == 0


def test_03_rmd_oracle_equivalence():
    with criterion(3, "rmd equals direct nearest-prefix scan on 1,000 pairs, exact"):
        rng = np.random.default_rng(1003)
        table = default_mass_table()
        for _ in range(1_000):
            q = random_peptide(rng, table, 1, 10)
            k = random_peptide(rng, table, 1, 10)
            values = rmd(q, k, table)
            qp = cumulative_masses(q, table, "prefix")
            kp = cumulative_masses(k, table, "prefix")
            for i in range(len(q)):
                distances = [abs(qp[i] - mass) for mass in kp]
                best = min(range(len(kp)), key=lambda j: distances[j])
                assert values[i] == qp[i] - kp[best]
            np.testing.assert_array_equal(rmd(q, q, table), np.zeros(len(q)))


def test_04_evaluation_rule_conformance():
    with criterion(4, "12-pair hand-tallied corpus reproduces match counts exactly"):
        table = default_mass_table()
        corpus = [
            # (pred, truth, matched residues, peptide matched)
            ("GAV", "GAV", 3, True),
            ("GG", "N", 0, False),       # isobaric totals, per-residue rule fails
            ("AG", "GA", 0, False),      # transposition breaks the prefix gate
            ("GKV", "GQV", 3, True),     # K/Q inside the 0.1 Da rule
            ("GAV", "GAVK", 3, False),   # matched prefix, length mismatch
            ("GAVK", "GAV", 3, False),
            ("WGA", "WGA", 3, True),
            ("KPGT", "KPGT", 4, True),
            ("WAV", "PPP", 0, False),
            ("M(O)K", "FK", 2, True),    # F/M(O) inside the 0.1 Da rule
            ("GA", "GG", 1, False),
            ("PGT", "PGT", 3, True),
        ]
        pairs = []
        for pred_text, truth_text, expected_matches, expected_pep in corpus:
            pred = parse_peptide(pred_text, table)
            truth = parse_peptide(truth_text, table)
            result = aa_match(pred, truth, table)
            assert result.n_matched == expected_matches, (pred_text, truth_text)
            assert result.peptide_matched == expected_pep, (pred_text, truth_text)
            pairs.append((pred, truth))
        stats = corpus_stats(pairs, table)
        assert stats.n_match_pep == 6
        assert stats.n_all_pep == 12
        assert stats.n_match_aa == 25
        assert stats.n_all_aa == 34
        assert abs(stats.peptide_recall - 6 / 12) <= 1e-12
        assert abs(stats.aa_precision - 25 / 34) <= 1e-12


def _op_gradient_cases(rng):
    def leaf(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    cases = []
    a, b = leaf(3, 4), leaf(4)
    cases.append(("add", lambda: ag.tensor_sum(ag.mul(ag.add(a, b), ag.add(a, b))), [a, b]))
    c, d = leaf(3, 4), leaf(3, 1)
    cases.append(("multiply", lambda: ag.tensor_sum(ag.mul(c, d)), [c, d]))
    e, f = leaf(2, 3, 4), leaf(2, 4, 5)
    cases.append(("matmul", lambda: ag.tensor_sum(ag.mul(ag.matmul(e, f), ag.matmul(e, f))), [e, f]))
    g = leaf(2, 3, 4)
    cases.append(("transpose", lambda: ag.tensor_sum(ag.mul(ag.transpose(g, (2, 0, 1)), 3.0)), [g]))
    h = leaf(6, 2)
    cases.append(("reshape", lambda: ag.tensor_sum(ag.mul(ag.reshape(h, (3, 4)), ag.reshape(h, (3, 4)))), [h]))
    i, j = leaf(2, 3), leaf(4, 3)
    cases.append(("concat", lambda: ag.tensor_sum(ag.mul(ag.concat([i, j], axis=0), 2.0)), [i, j]))
    k = leaf(6, 3)
    cases.append(("split", lambda: ag.tensor_sum(ag.mul(ag.split(k, [2], axis=0)[1], ag.split(k, [2], axis=0)[1])), [k]))
    l = leaf(3, 4)
    cases.append(("sum", lambda: ag.tensor_sum(ag.mul(ag.tensor_sum(l, axis=1), ag.tensor_sum(l, axis=1))), [l]))
    m = leaf(3, 4)
    cases.append(("mean", lambda: ag.tensor_sum(ag.mul(ag.mean(m, axis=0), ag.mean(m, axis=0))), [m]))
    n = Tensor(rng.normal(size=(4, 4)) + np.sign(rng.normal(size=(4, 4))) * 0.1, requires_grad=True)
    cases.append(("relu", lambda: ag.tensor_sum(ag.relu(n)), [n]))
    o = leaf(4, 4)
    cases.append(("gelu", lambda: ag.tensor_sum(ag.gelu(o)), [o]))
    x, w, bias = leaf(3, 5), leaf(5, 2), leaf(2)
    cases.append(("linear", lambda: ag.tensor_sum(ag.mul(ag.linear(x, w, bias), ag.linear(x, w, bias))), [x, w, bias]))
    p, gain, beta = leaf(3, 8), leaf(8), leaf(8)
    cases.append(("layer_norm", lambda: ag.tensor_sum(ag.mul(ag.layer_norm(p, gain, beta), ag.layer_norm(p, gain, beta))), [p, gain, beta]))
    q = leaf(2, 5)
    smask = np.array([[True] * 5, [True, True, False, True, False]])
    sweights = Tensor(rng.normal(size=(2, 5)))
    cases.append(("softmax_masked", lambda: ag.tensor_sum(ag.mul(ag.softmax_masked(q, smask), sweights)), [q]))
    r, s = leaf(3, 4), leaf(3, 4)
    rmask = rng.random((3, 4)) > 0.3
    cases.append(("rmse", lambda: ag.rmse(r, s, rmask), [r, s]))
    t = leaf(5, 3)
    cases.append(("take", lambda: ag.tensor_sum(ag.mul(ag.take(t, [0, 2, 2], axis=0), 2.0)), [t]))
    u = leaf(3, 3)
    cases.append(("exp", lambda: ag.tensor_sum(ag.exp(u)), [u]))
    v = Tensor(rng.uniform(0.5, 3.0, size=(3, 3)), requires_grad=True)
    cases.append(("log", lambda: ag.tensor_sum(ag.log(v)), [v]))
    w2 = Tensor(rng.uniform(0.5, 3.0, size=(3, 3)), requires_grad=True)
    cases.append(("sqrt", lambda: ag.tensor_sum(ag.sqrt(w2)), [w2]))
    y = leaf(3, 3)
    cases.append(("sigmoid", lambda: ag.tensor_sum(ag.mul(ag.sigmoid(y), ag.sigmoid(y))), [y]))
    z = leaf(3, 3)
    cases.append(("softplus", lambda: ag.tensor_sum(ag.softplus(z)), [z]))
    dd = leaf(4, 4)
    cases.append(("dropout", lambda: ag.tensor_sum(
        ag.dropout(dd, 0.4, np.random.default_rng(99))), [dd]))
    return cases


def test_05_gradient_checks():
    with criterion(5, "central-difference checks < 1e-4 for all ops and the full loss (< 60 s)"):
        start = time.perf_counter()
        rng = np.random.default_rng(1005)
        for name, f, inputs in _op_gradient_cases(rng):
            err = grad_check(f, inputs, h=1e-5)
            assert err < 1e-4, f"{name}: max relative error {err:.2e}"

        # full joint loss on the tiny configuration: d=16, c=3, L=6, k=8
        table = default_mass_table()
        model = tiny_model(table, max_len=8)
        spectrum = make_spectrum(k=8, seed=3)
        candidates = [
            parse_peptide(text, table) for text in ("GAVKPG", "GAVK", "AAV")
        ]
        target_rng = np.random.default_rng(7)
        pmd_targets = target_rng.uniform(0.0, 2.0, size=3)

        def full_loss():
            output, _ = model.forward(spectrum, candidates)
            rmd_targets = target_rng.standard_normal(output.rmd_pred.shape) * 0.0
            return joint_loss(output, pmd_targets, rmd_targets, 0.5,
                              (np.zeros(3, dtype=int), np.zeros(rmd_targets.size, dtype=int)))

        params = model.store.tensors()
        err = grad_check(full_loss, params, h=1e-5, max_coords_per_input=2)
        assert err < 1e-4, f"full model: max relative error {err:.2e}"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"gradient checks took {elapsed:.1f} s"


def test_06_row_permutation_equivariance():
    with criterion(6, "20 row permutations leave scores (1e-6) and selection unchanged"):
        table = default_mass_table()
        model = tiny_model(table, max_len=10, seed=4)
        spectrum = make_spectrum(k=12, seed=5)
        candidates = [
            parse_peptide(text, table)
            for text in ("GAVKPG", "GAVKPGA", "AAVH", "WGTS")
        ]
        base, _ = model.forward(spectrum, candidates)
        base_choice = candidates[rerank_select(base.pmd_pred)].render()
        rng = np.random.default_rng(1006)
        for _ in range(20):
            perm = rng.permutation(len(candidates))
            shuffled = [candidates[i] for i in perm]
            out, _ = model.forward(spectrum, shuffled)
            np.testing.assert_allclose(
                out.pmd_pred.data, base.pmd_pred.data[perm], atol=1e-6
            )
            assert shuffled[rerank_select(out.pmd_pred)].render() == base_choice


def test_07_padding_isolation():
    with criterion(7, "randomized pad vector changes no unmasked output beyond 1e-9"):
        table = default_mass_table()
        model = tiny_model(table, max_len=10, seed=6)
        spectrum = make_spectrum(k=10, seed=8)
        candidates = [
            parse_peptide(text, table) for text in ("GAVKPGAV", "GAVK", "AAV")
        ]
        base, _ = model.forward(spectrum, candidates)
        rng = np.random.default_rng(1007)
        for scale in (1.0, 100.0, 1e6):
            model.store["embed/pad"].data[:] = rng.normal(size=model.config.d) * scale
            out, _ = model.forward(spectrum, candidates)
            # every residue score belongs to a real residue, so all are compared
            np.testing.assert_allclose(out.pmd_pred.data, base.pmd_pred.data, atol=1e-9)
            np.testing.assert_allclose(out.rmd_pred.data, base.rmd_pred.data, atol=1e-9)


def test_08_desk_scale_reranking():
    with criterion(8, "desk model beats every fixed slot and random selection, recall >= 0.90"):
        table = default_mass_table()
        spectra, candidate_sets = synthesize_dataset(table, seed=42, n_spectra=200)
        instances, excluded = build_training_set(spectra, candidate_sets, table)
        assert len(instances) + len(excluded) == 200

        config = TrainConfig.desk(table.tokens)
        start = time.perf_counter()
        checkpoint, history = train(config, instances, table, seed=0)
        train_seconds = time.perf_counter() - start
        assert train_seconds < 600.0, f"training took {train_seconds:.0f} s"
        assert history[-1].loss < history[0].loss

        model = checkpoint.build_model(table)
        selections = rerank_run(model, spectra, candidate_sets)
        labels = {cs.spectrum_id: cs.label for cs in candidate_sets}
        pairs = [
            (parse_peptide(sel.peptide, table), parse_peptide(labels[sel.spectrum_id], table))
            for sel in selections
        ]
        recall = corpus_stats(pairs, table).peptide_recall
        print(f"\n    desk model recall {recall:.3f} after {train_seconds:.0f} s", end="")

        slot_recalls = []
        n_slots = len(candidate_sets[0].candidates)
        for slot in range(n_slots):
            slot_pairs = [
                (parse_peptide(cs.peptides[slot], table), parse_peptide(cs.label, table))
                for cs in candidate_sets
            ]
            slot_recalls.append(corpus_stats(slot_pairs, table).peptide_recall)
        print(f", slot baselines {['%.3f' % r for r in slot_recalls]}", end=" ")

        assert recall >= 0.90
        assert all(recall > r for r in slot_recalls)
        assert recall > 0.25  # uniform-random selection over 4 slots


def test_09_preprocessing_conformance():
    with criterion(9, "1,000 random spectra obey range/truncation/normalization, gates hold"):
        rng = np.random.default_rng(1009)
        for _ in range(1_000):
            n = int(rng.integers(1, 420))
            raw = RawSpectrum(
                spectrum_id="x",
                mz=rng.uniform(10.0, 5000.0, size=n),
                intensity=rng.uniform(0.0, 100.0, size=n) + 1e-6,
                precursor=Precursor.from_mz(600.0, 2),
            )
            processed = preprocess_spectrum(raw)
            in_range = (raw.mz >= 50.5) & (raw.mz <= 4500.0)
            if processed is None:
                assert int(in_range.sum()) == 0
                continue
            assert np.all(processed.mz >= 50.5) and np.all(processed.mz <= 4500.0)
            assert processed.n_peaks == min(300, int(in_range.sum()))
            assert processed.n_peaks <= min(300, raw.n_peaks)
            assert abs(processed.intensity.sum() - 1.0) <= 1e-9
            again = preprocess_spectrum(processed.to_raw())
            np.testing.assert_array_equal(processed.mz, again.mz)
            np.testing.assert_array_equal(processed.intensity, again.intensity)

        # precursor gates on constructed spectra
        table = default_mass_table()
        label = parse_peptide("GAVKPWST", table)
        for charge in (1, 2, 3):
            mz = peptide_mz(label, table, charge)

            def spectrum_at(observed_mz):
                return RawSpectrum(
                    spectrum_id="gate",
                    mz=np.array([200.0]),
                    intensity=np.array([1.0]),
                    precursor=Precursor.from_mz(observed_mz, charge),
                )

            assert validate_precursor(spectrum_at(mz), label, table)
            # 40 ppm neutral-mass shift: inside both gates
            assert validate_precursor(
                spectrum_at(mz * (1 + 40e-6) - 40e-6 * 1.007276), label, table
            )
            # 60 ppm neutral-mass shift: outside the ppm gate
            assert not validate_precursor(
                spectrum_at(mz * (1 + 60e-6) - 60e-6 * 1.007276), label, table
            )
            # 2.5 Da m/z shift: outside the m/z gate
            assert not validate_precursor(spectrum_at(mz + 2.5), label, table)


def test_10_axial_complexity_accounting():
    with criterion(10, "attention-score counter matches the axial formula on 50 shapes"):
        table = default_mass_table()
        rng = np.random.default_rng(1010)
        tokens = table.tokens
        for _ in range(50):
            c = int(rng.integers(2, 7))
            length = int(rng.integers(7, 21))  # longest candidate
            width = length + 1
            # keep the spectrum small enough that the axial total, including
            # cross-attention (present in both designs), stays below the
            # joint-attention count
            slack = c * width - c - width
            k = int(rng.integers(2, max(3, slack)))

            model = tiny_model(table, max_len=length + 2, seed=0)
            spectrum = make_spectrum(k=k, seed=int(rng.integers(1 << 30)))
            candidates = [Peptide(tuple(
                tokens[i] for i in rng.integers(len(tokens), size=length)
            ))]
            for _ in range(c - 1):
                sub_len = int(rng.integers(1, length + 1))
                candidates.append(Peptide(tuple(
                    tokens[i] for i in rng.integers(len(tokens), size=sub_len)
                )))
            model.reset_attention_counts()
            _, batch = model.forward(spectrum, candidates)
            assert batch.width == width
            layers = model.config.n_layers
            counts = model.attn_counts
            assert counts["row"] == layers * c * width * width
            assert counts["col"] == layers * width * c * c
            assert counts["cross"] == layers * c * width * k
            per_block = (counts["row"] + counts["col"] + counts["cross"]) // layers
            joint_full = (c * width) ** 2
            assert per_block == c * width**2 + width * c**2 + c * width * k
            assert per_block < joint_full
            # the row+column replacement alone always undercuts joint
            # attention over the candidate grid, whatever the spectrum size
            assert c * width**2 + width * c**2 < joint_full


def test_11_determinism_and_cli_chain(tmp_path):
    with criterion(11, "seeded retraining, checkpoint round-trip, CLI chain all reproduce"):
        start = time.perf_counter()
        table = default_mass_table()
        spectra, candidate_sets = synthesize_dataset(table, seed=17, n_spectra=12)
        instances, _ = build_training_set(spectra, candidate_sets, table)
        config = TrainConfig(
            model=ModelConfig(
                d=16, n_layers=1, n_heads=2, ff_dim=32,
                embedding=EmbeddingConfig(d=16, max_len=30, max_charge=4),
                vocab=table.tokens,
            ),
            lr=1e-3, batch_size=4, epochs=3,
        )
        ckpt_a, hist_a = train(config, instances, table, seed=5)
        ckpt_b, hist_b = train(config, instances, table, seed=5)
        assert len(hist_a) == len(hist_b)
        for a, b in zip(hist_a, hist_b):
            assert abs(a.loss - b.loss) <= 1e-9

        path = str(tmp_path / "model.ckpt")
        save_checkpoint(ckpt_a, path)
        loaded = load_checkpoint(path)
        for name, array in ckpt_a.params.items():
            assert np.array_equal(loaded.params[name], array)  # bit-identical

        # end-to-end CLI chain on a fresh corpus
        mgf = str(tmp_path / "chain.mgf")
        cands = str(tmp_path / "chain.jsonl")
        ckpt = str(tmp_path / "chain.ckpt")
        sels = str(tmp_path / "chain_selections.tsv")
        report = str(tmp_path / "chain_report.tsv")
        lengths = str(tmp_path / "chain_lengths.tsv")
        config_path = tmp_path / "chain_config.json"
        config_path.write_text(json.dumps({
            "d": 16, "n_layers": 1, "n_heads": 2, "ff_dim": 32,
            "epochs": 2, "batch_size": 4, "max_len": 30, "max_charge": 4,
        }))
        assert cli_main(["synth", "--seed", "9", "--n-spectra", "10",
                         "--out-mgf", mgf, "--out-candidates", cands]) == 0
        assert cli_main(["train", "--mgf", mgf, "--candidates", cands,
                         "--config", str(config_path), "--seed", "2",
                         "--out", ckpt]) == 0
        assert cli_main(["rerank", "--checkpoint", ckpt, "--mgf", mgf,
                         "--candidates", cands, "--out", sels]) == 0
        assert cli_main(["evaluate", "--selections", sels, "--candidates", cands,
                         "--out", report]) == 0
        assert cli_main(["analyze", "--analysis", "contribution",
                         "--selections", sels, "--candidates", cands,
                         "--out", str(tmp_path / "chain_contrib.tsv")]) == 0
        assert cli_main(["analyze", "--analysis", "zeroshot",
                         "--checkpoint", ckpt, "--mgf", mgf, "--candidates", cands,
                         "--subsets", "model_1,model_2;model_1,model_2,model_3,model_4",
                         "--out", str(tmp_path / "chain_zeroshot.tsv")]) == 0

        # schema checks on every produced file
        sel_lines = open(sels).read().splitlines()
        assert sel_lines[0].split("\t") == [
            "spectrum_id", "selected_index", "selected_model",
            "selected_peptide", "scores",
        ]
        assert len(sel_lines) == 11
        report_rows = dict(
            line.split("\t") for line in open(report).read().splitlines()[1:]
        )
        assert set(report_rows) == {
            "n_match_pep", "n_all_pep", "n_match_aa", "n_all_aa",
            "aa_precision", "peptide_recall",
        }
        zs_lines = open(str(tmp_path / "chain_zeroshot.tsv")).read().splitlines()
        assert zs_lines[0] == "subset\tn_spectra\tpeptide_recall"
        assert len(zs_lines) == 3

        elapsed = time.perf_counter() - start
        assert elapsed < 900.0, f"criterion 11 took {elapsed:.0f} s"
