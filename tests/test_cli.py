import argparse
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from peprank import pipeline
from peprank.cli import CONFIG_MODEL_KEYS, CONFIG_TRAIN_KEYS, _train_config, main
from peprank.encoders import EmbeddingConfig
from peprank.masses import Precursor, default_mass_table, parse_peptide
from peprank.model import ModelConfig
from peprank.pipeline import (
    Selection,
    SynthConfig,
    load_checkpoint,
    save_checkpoint,
    synthesize_dataset,
    write_candidates,
    write_selections,
)
from peprank.spectra import write_mgf

README = Path(__file__).resolve().parents[1] / "README.md"
V1_CHECKPOINT = Path(__file__).parent / "data" / "v1_tiny.ckpt"  # max_len 30, max_charge 4


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_corpus(directory, spectra, candidate_sets):
    mgf, cands = directory / "spectra.mgf", directory / "candidates.jsonl"
    with open(mgf, "w", encoding="utf-8") as sink:
        write_mgf(spectra, sink)
    with open(cands, "w", encoding="utf-8") as sink:
        write_candidates(candidate_sets, sink)
    return mgf, cands


def write_first_selections(path, candidate_sets):
    """A selections file that picks each set's first candidate."""
    with open(path, "w", encoding="utf-8") as sink:
        write_selections([Selection(cs.spectrum_id, 0, *cs.candidates[0],
                                    [0.0] * len(cs.candidates)) for cs in candidate_sets], sink)


@pytest.fixture()
def synth_files(tmp_path):
    mgf = tmp_path / "spectra.mgf"
    cands = tmp_path / "candidates.jsonl"
    code = main([
        "synth", "--seed", "7", "--n-spectra", "12",
        "--out-mgf", str(mgf), "--out-candidates", str(cands),
    ])
    assert code == 0
    return mgf, cands


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert "invalid choice" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "metrics", "--pairs", "x.tsv", "--bogus")
        assert code == 1
        assert "unrecognized" in err

    def test_missing_required_flag(self, capsys):
        code, _, _ = run(capsys, "synth", "--seed", "1")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        for sub in ("metrics", "preprocess", "synth", "train", "rerank", "evaluate", "analyze"):
            code, out, _ = run(capsys, sub, "--help")
            assert code == 0
            assert "--mass-table" in out


class TestMetricsCommand:
    def test_identical_pair_scores_zero(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("GAV\tGAV\nGAV\tGAK\n")
        out_path = tmp_path / "out.tsv"
        code, _, err = run(capsys, "metrics", "--pairs", str(pairs), "--out", str(out_path))
        assert code == 0
        assert "# resolved" in err
        lines = out_path.read_text().splitlines()
        assert lines[0] == "query\ttarget\tpmd\trmd"
        first = lines[1].split("\t")
        assert float(first[2]) == 0.0
        second = lines[2].split("\t")
        assert float(second[2]) > 0.0

    def test_bad_peptide_is_data_error(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("GZV\tGAV\n")
        code, _, err = run(capsys, "metrics", "--pairs", str(pairs))
        assert code == 2
        assert "unknown residue" in err
        # a bad pair after a good one names its line, and no output is written
        pairs.write_text("GAV\tGAV\nPEPZ\tGAV\n")
        out_path = tmp_path / "out.tsv"
        code, _, err = run(capsys, "metrics", "--pairs", str(pairs), "--out", str(out_path))
        assert code == 2
        assert f"{pairs}:2: unknown residue token 'Z' in 'PEPZ'" in err
        assert not out_path.exists()


    def test_header_after_a_leading_comment(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("# c\n\nquery\ttarget\nGAV\tGAV\n")
        code, out, err = run(capsys, "metrics", "--pairs", str(pairs))
        assert code == 0, err
        assert out.splitlines()[1:] == ["GAV\tGAV\t0.0\t0.0,0.0,0.0"]

    def test_header_only_on_the_first_data_line(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("GAV\tGAV\nquery\ttarget\n")
        code, _, err = run(capsys, "metrics", "--pairs", str(pairs))
        assert code == 2
        assert "unknown residue token 'q' in 'query'" in err


    def test_batched_scores_keep_the_scalar_output(self, tmp_path, capsys):
        # the bytes the one-pair-at-a-time PMD loop wrote for this file
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text(
            "# pairs for the batch check\nquery\ttarget\nPEPTIDE\tPEPTIDE\n\tGAV\nGAVK\t\n"
            "\t\n# unequal lengths\nM(O)PEPTIDEK\tPEPTLDE\nGG\tNQKLLW\n"
        )
        out_path = tmp_path / "out.tsv"
        code, _, err = run(capsys, "metrics", "--pairs", str(pairs), "--out", str(out_path))
        assert code == 0, err
        assert out_path.read_bytes() == (
            b"query\ttarget\tpmd\trmd\n"
            b"PEPTIDE\tPEPTIDE\t0.0\t0.0,0.0,0.0,0.0,0.0,0.0,0.0\n"
            b"\tGAV\t3.0\t\n"
            b"GAVK\t\t4.0\t\n"
            b"\t\t0.0\t\n"
            b"M(O)PEPTIDEK\tPEPTLDE\t2.0\t49.98264,17.99281000000002,49.98264000000006,"
            b"45.98772000000008,33.95134000000007,32.00846000000013,17.992810000000077,"
            b"147.0354000000001,275.13036\n"
            b"GG\tNQKLLW\t7.3718988852477985\t-57.02147,-1.0000000003174137e-05\n"
        )


class TestSynthCommand:
    def test_deterministic_outputs(self, tmp_path, capsys):
        def generate(subdir):
            base = tmp_path / subdir
            base.mkdir()
            mgf, cands = base / "s.mgf", base / "c.jsonl"
            assert main([
                "synth", "--seed", "5", "--n-spectra", "6",
                "--out-mgf", str(mgf), "--out-candidates", str(cands),
            ]) == 0
            return mgf.read_bytes(), cands.read_bytes()

        assert generate("a") == generate("b")

    @pytest.mark.parametrize("flag", ["--n-candidates", "--n-spectra"])
    def test_no_candidates_is_a_data_error(self, tmp_path, capsys, flag):
        mgf, cands = tmp_path / "s.mgf", tmp_path / "c.jsonl"
        code, _, err = run(capsys, "synth", "--n-spectra", "2", flag, "0",
                           "--out-mgf", str(mgf), "--out-candidates", str(cands))
        if flag == "--n-spectra":  # an empty corpus is readable
            assert code == 0, err
        else:
            assert code == 2
            assert "error: n_candidates and min_length must be at least 1" in err
            assert not mgf.exists() and not cands.exists()

    def test_a_negative_count_is_a_data_error(self, tmp_path, capsys):
        mgf, cands = tmp_path / "s.mgf", tmp_path / "c.jsonl"
        code, _, err = run(capsys, "synth", "--n-spectra", "-3",
                           "--out-mgf", str(mgf), "--out-candidates", str(cands))
        assert code == 2
        assert err.endswith("error: --n-spectra -3: n_spectra must be at least 0, got -3\n")
        assert not mgf.exists() and not cands.exists()

    def test_candidate_schema(self, synth_files):
        _, cands = synth_files
        for line in cands.read_text().splitlines():
            record = json.loads(line)
            assert set(record) == {"spectrum_id", "candidates", "label"}
            assert len(record["candidates"]) == 4


class TestPreprocessCommand:
    def test_filter_and_report(self, tmp_path, capsys):
        mgf = tmp_path / "in.mgf"
        mgf.write_text(
            "BEGIN IONS\nTITLE=ok\nPEPMASS=500.0\nCHARGE=2+\n100.0 1.0\nEND IONS\n"
            "BEGIN IONS\nTITLE=allbelow\nPEPMASS=500.0\nCHARGE=2+\n10.0 1.0\nEND IONS\n"
        )
        out = tmp_path / "out.mgf"
        report = tmp_path / "report.tsv"
        code, _, err = run(capsys, "preprocess", "--mgf", str(mgf),
                           "--out", str(out), "--report", str(report))
        assert code == 0
        assert "kept 1 of 2" in err
        lines = report.read_text().splitlines()
        assert lines[0] == "spectrum_id\treason"
        assert lines[1].startswith("allbelow\t")

    def test_strict_mode_fails(self, tmp_path, capsys):
        mgf = tmp_path / "in.mgf"
        mgf.write_text(
            "BEGIN IONS\nTITLE=allbelow\nPEPMASS=500.0\nCHARGE=2+\n10.0 1.0\nEND IONS\n"
        )
        code, _, err = run(capsys, "preprocess", "--mgf", str(mgf),
                           "--out", str(tmp_path / "out.mgf"), "--strict")
        assert code == 2

    def test_bad_label_names_its_spectrum(self, tmp_path, capsys):
        mgf = tmp_path / "in.mgf"
        mgf.write_text(
            "BEGIN IONS\nTITLE=ok\nPEPMASS=500.0\nCHARGE=2+\n100.0 1.0\nEND IONS\n"
            "BEGIN IONS\nTITLE=bad\nPEPMASS=500.0\nCHARGE=2+\nSEQ=GZV\n100.0 1.0\nEND IONS\n"
        )
        code, _, err = run(capsys, "preprocess", "--mgf", str(mgf),
                           "--out", str(tmp_path / "out.mgf"))
        assert code == 2
        assert err.endswith(f"error: {mgf}: spectrum 'bad': unknown residue token 'Z' in 'GZV'\n")

    def test_malformed_mgf_is_data_error(self, tmp_path, capsys):
        mgf = tmp_path / "in.mgf"
        mgf.write_text("BEGIN IONS\nTITLE=x\nCHARGE=2+\n100.0 1.0\nEND IONS\n")
        code, _, err = run(capsys, "preprocess", "--mgf", str(mgf),
                           "--out", str(tmp_path / "out.mgf"))
        assert code == 2
        assert "PEPMASS" in err


class TestTrainRerankEvaluateChain:
    def test_chain_runs_and_outputs_are_schema_valid(self, tmp_path, synth_files, capsys):
        mgf, cands = synth_files
        ckpt = tmp_path / "model.ckpt"
        losses = tmp_path / "loss.tsv"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "d": 16, "n_layers": 1, "n_heads": 2, "ff_dim": 32,
            "epochs": 2, "batch_size": 4, "max_len": 30, "max_charge": 4,
        }))
        code, _, err = run(capsys, "train", "--mgf", str(mgf), "--candidates", str(cands),
                           "--config", str(config), "--seed", "3",
                           "--out", str(ckpt), "--loss-log", str(losses))
        assert code == 0, err
        assert ckpt.exists()
        log_lines = losses.read_text().splitlines()
        assert log_lines[0] == "step\tlr\tloss\tgrad_norm"
        assert float(log_lines[1].split("\t")[1]) == 0.0  # warmup step 0

        selections = tmp_path / "selections.tsv"
        code, _, err = run(capsys, "rerank", "--checkpoint", str(ckpt),
                           "--mgf", str(mgf), "--candidates", str(cands),
                           "--out", str(selections))
        assert code == 0, err
        sel_lines = selections.read_text().splitlines()
        assert sel_lines[0].split("\t") == [
            "spectrum_id", "selected_index", "selected_model", "selected_peptide", "scores"
        ]
        assert len(sel_lines) == 13

        report = tmp_path / "report.tsv"
        code, _, err = run(capsys, "evaluate", "--selections", str(selections),
                           "--candidates", str(cands), "--out", str(report))
        assert code == 0, err
        metrics = dict(
            line.split("\t") for line in report.read_text().splitlines()[1:]
        )
        assert 0.0 <= float(metrics["peptide_recall"]) <= 1.0
        assert 0.0 <= float(metrics["aa_precision"]) <= 1.0

        contrib = tmp_path / "contrib.tsv"
        code, _, err = run(capsys, "analyze", "--analysis", "contribution",
                           "--selections", str(selections), "--candidates", str(cands),
                           "--out", str(contrib))
        assert code == 0, err
        assert contrib.read_text().splitlines()[0] == "model\tshare"

        zeroshot = tmp_path / "zeroshot.tsv"
        code, _, err = run(capsys, "analyze", "--analysis", "zeroshot",
                           "--checkpoint", str(ckpt), "--mgf", str(mgf),
                           "--candidates", str(cands),
                           "--subsets", "model_1;model_1,model_2,model_3,model_4",
                           "--out", str(zeroshot))
        assert code == 0, err
        zs_lines = zeroshot.read_text().splitlines()
        assert zs_lines[0] == "subset\tn_spectra\tpeptide_recall"
        assert len(zs_lines) == 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_train_divergence_is_runtime_error(self, tmp_path, synth_files, capsys):
        mgf, cands = synth_files
        config = tmp_path / "config.json"
        # absurd learning rate forces a non-finite loss quickly
        config.write_text(json.dumps({
            "d": 16, "n_layers": 1, "n_heads": 2, "ff_dim": 32,
            "epochs": 30, "batch_size": 4, "lr": 1e200,
            "max_len": 30, "max_charge": 4, "warmup_epochs": 0.0,
        }))
        code, _, err = run(capsys, "train", "--mgf", str(mgf), "--candidates", str(cands),
                           "--config", str(config), "--out", str(tmp_path / "m.ckpt"))
        assert code == 3
        assert "diverged" in err

    def test_train_with_finite_parameters_that_score_nan_writes_no_checkpoint(self, tmp_path,
                                                                              capsys):
        """One step at the largest float leaves every parameter finite and
        every gradient too, yet a forward overflows: train names the
        spectrum it scored and saves nothing."""
        mgf, cands, out = (tmp_path / name for name in ("s.mgf", "c.jsonl", "m.ckpt"))
        assert main(["synth", "--n-spectra", "24", "--out-mgf", str(mgf),
                     "--out-candidates", str(cands)]) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lr": 1.79e308, "epochs": 1, "batch_size": 64,
                                      "warmup_epochs": 0, "d": 16, "n_heads": 2,
                                      "ff_dim": 32, "n_layers": 1}))
        code, _, err = run(capsys, "train", "--mgf", str(mgf), "--candidates", str(cands),
                           "--config", str(config), "--out", str(out))
        assert code == 3
        assert "error: training diverged: the trained model scores spectrum 'synth_00000' [nan" \
            in err
        assert not out.exists()

    def test_unknown_config_key_rejected(self, tmp_path, synth_files, capsys):
        mgf, cands = synth_files
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"learning_rate": 1e-3}))
        code, _, err = run(capsys, "train", "--mgf", str(mgf), "--candidates", str(cands),
                           "--config", str(config), "--out", str(tmp_path / "m.ckpt"))
        assert code == 2
        assert "unknown config keys" in err

    @pytest.mark.parametrize("override, message", [
        ({"epochs": "2"}, "epochs has the wrong type: '2'"),
        ({"batch_size": 0}, "batch_size must be >= 1, got 0"),
        ({"lr": "x"}, "lr has the wrong type: 'x'"),
        ({"warmup_epochs": None}, "warmup_epochs has the wrong type: None"),
        ({"batch_size": 2.5}, "batch_size has the wrong type: 2.5"),
        ({"clip_norm": -1}, "clip_norm must be finite and > 0, got -1"),
        ({"lr": float("nan")}, "lr must be finite and > 0, got nan"),
        ({"weight_decay": float("inf")}, "weight_decay must be finite and >= 0, got inf"),
        ({"epochs": 0}, "epochs must be >= 1, got 0"),
        ({"warmup_epochs": -0.5}, "warmup_epochs must be finite and >= 0, got -0.5"),
        ({"dropout_rate": 1.0}, "dropout_rate must be in [0, 1), got 1.0"),
        ({"n_layers": 0}, "n_layers must be positive, got 0"),
        ({"n_layers": -2}, "n_layers must be positive, got -2"),
        ({"ff_dim": 0}, "ff_dim must be positive, got 0"),
        ({"ff_dim": -1}, "ff_dim must be positive, got -1"),
    ])
    def test_bad_config_values_are_data_errors(self, tmp_path, capsys, override, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(override))
        code, _, err = run(capsys, "train", "--mgf", "unused.mgf", "--candidates", "unused.jsonl",
                           "--config", str(config), "--out", str(tmp_path / "m.ckpt"))
        assert code == 2
        assert message in err
        assert not (tmp_path / "m.ckpt").exists()

    def test_readme_config_table_matches_accepted_keys(self):
        text = README.read_text(encoding="utf-8")
        section = text.split("### Training config JSON (`train --config`)", 1)[1]
        section = section.split("\n#", 1)[0]
        documented = set(re.findall(r"^\|\s*`(\w+)`\s*\|", section, flags=re.MULTILINE))
        accepted = set(CONFIG_MODEL_KEYS) | set(CONFIG_TRAIN_KEYS)
        assert documented == accepted == {
            "d", "n_layers", "n_heads", "ff_dim", "dropout_rate", "loss_lambda",
            "max_len", "max_charge", "lr", "weight_decay", "batch_size", "epochs",
            "warmup_epochs", "clip_norm",
        }

    def test_config_overrides_reach_model_and_embedding(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"d": 32, "n_heads": 4, "max_len": 40, "epochs": 3}))
        args = argparse.Namespace(profile="paper", config=str(config))
        resolved = _train_config(args, ("G", "A"))
        assert resolved.model == ModelConfig(
            d=32, n_layers=8, n_heads=4, ff_dim=1024, dropout_rate=0.3,
            embedding=EmbeddingConfig(d=32, max_len=40), vocab=("G", "A"),
        )
        assert (resolved.epochs, resolved.lr, resolved.batch_size) == (3, 1e-4, 256)

    @pytest.mark.parametrize("key", ["mu_min", "mu_max", "vocab", "model"])
    def test_non_tunable_config_keys_rejected(self, tmp_path, synth_files, capsys, key):
        mgf, cands = synth_files
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: 1}))
        code, _, err = run(capsys, "train", "--mgf", str(mgf), "--candidates", str(cands),
                           "--config", str(config), "--out", str(tmp_path / "m.ckpt"))
        assert code == 2
        assert f"unknown config keys: ['{key}']" in err


class TestAnalyzeCommands:
    def test_length_and_confusion_from_predictions(self, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        records = [
            {"spectrum_id": "a", "pred": "GAVKPGA", "truth": "GAVKPGA"},
            {"spectrum_id": "b", "pred": "KKKKKKKK", "truth": "GAVKPGAV"},
            {"spectrum_id": "c", "pred": "GAVKPGAVKP", "truth": "GAVKPGAVKP"},
        ]
        preds.write_text("\n".join(json.dumps(r) for r in records) + "\n")

        out = tmp_path / "length.tsv"
        code, _, _ = run(capsys, "analyze", "--analysis", "length",
                         "--predictions", str(preds), "--bins", "7-8,9-12",
                         "--out", str(out))
        assert code == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()[1:]]
        assert [r[:2] for r in rows] == [["7", "8"], ["9", "12"]]
        assert float(rows[0][2]) == 0.5
        assert float(rows[1][2]) == 1.0

        out2 = tmp_path / "confusion.tsv"
        code, _, _ = run(capsys, "analyze", "--analysis", "confusion",
                         "--predictions", str(preds), "--out", str(out2))
        assert code == 0
        recalls = {
            row.split("\t")[0]: float(row.split("\t")[1])
            for row in out2.read_text().splitlines()[1:]
        }
        # V occurs 5 times across the truths; records a and c align all 3
        assert recalls["V"] == pytest.approx(3 / 5)

    def test_evaluate_with_predictions(self, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps(
            {"spectrum_id": "a", "pred": "GAV", "truth": "GAV"}) + "\n")
        code, out, _ = run(capsys, "evaluate", "--predictions", str(preds))
        assert code == 0
        assert "peptide_recall\t1.0" in out

    def test_predictions_record_must_be_an_object(self, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        preds.write_text("5\n")
        code, _, err = run(capsys, "evaluate", "--predictions", str(preds))
        assert code == 2
        assert f"error: {preds}:1: record must be a JSON object" in err

    def test_bad_selected_peptide_names_its_spectrum(self, tmp_path, capsys):
        selections = tmp_path / "selections.tsv"
        selections.write_text(
            "spectrum_id\tselected_index\tselected_model\tselected_peptide\tscores\n"
            "s1\t0\tm1\tPEPZIDE\t0.1,0.2\n"
        )
        cands = tmp_path / "candidates.jsonl"
        cands.write_text(json.dumps({"spectrum_id": "s1", "label": "PEPTIDE",
                                     "candidates": [{"model": "m1", "peptide": "PEPZIDE"},
                                                    {"model": "m2", "peptide": "PEPTIDE"}]})
                         + "\n")
        code, _, err = run(capsys, "evaluate", "--selections", str(selections),
                           "--candidates", str(cands))
        assert code == 2
        assert "spectrum 's1': unknown residue token 'Z' in 'PEPZIDE'" in err

    def test_bad_prediction_peptide_names_its_spectrum(self, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"spectrum_id": "a", "pred": "GAV", "truth": "GZV"}) + "\n")
        code, _, err = run(capsys, "evaluate", "--predictions", str(preds))
        assert code == 2
        assert "spectrum 'a': unknown residue token 'Z' in 'GZV'" in err

    @pytest.mark.parametrize("bins, message", [
        ("7-8,7-x", "--bins: chunk '7-x' is not N or LO-HI"),
        ("abc", "--bins: chunk 'abc' is not N or LO-HI"),
        ("7-8,", "--bins: chunk '' is not N or LO-HI"),
        ("9-3", "--bins: chunk '9-3' has lo > hi"),
        ("7-10,9-12", "--bins: chunks '7-10' and '9-12' overlap"),
        ("3,1-4", "--bins: chunks '3' and '1-4' overlap"),
    ])
    def test_bad_bins_name_their_chunk(self, tmp_path, capsys, bins, message):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"spectrum_id": "a", "pred": "GAV", "truth": "GAV"}) + "\n")
        code, _, err = run(capsys, "analyze", "--analysis", "length",
                           "--predictions", str(preds), "--bins", bins)
        assert code == 2
        assert message in err

    def test_selected_index_outside_its_scores_is_a_data_error(self, tmp_path, capsys):
        selections = tmp_path / "selections.tsv"
        selections.write_text(
            "spectrum_id\tselected_index\tselected_model\tselected_peptide\tscores\n"
            "s1\t7\tm1\tPEPTIDE\t0.1,0.2\n"
        )
        cands = tmp_path / "candidates.jsonl"
        cands.write_text(json.dumps({"spectrum_id": "s1", "label": "PEPTIDE",
                                     "candidates": [{"model": "m1", "peptide": "PEPTIDE"},
                                                    {"model": "m2", "peptide": "PEPTIDE"}]})
                         + "\n")
        code, _, err = run(capsys, "analyze", "--analysis", "contribution",
                           "--selections", str(selections), "--candidates", str(cands))
        assert code == 2
        assert f"error: {selections}:2: selected_index 7 outside its 2 scores" in err

    @pytest.mark.parametrize("command", [["evaluate"], ["analyze", "--analysis", "contribution"]])
    @pytest.mark.parametrize("records, code, message", [
        ([{"spectrum_id": "s2", "label": "PEPTIDE"}], 2, "selection 's1' has no candidate record"),
        ([{"spectrum_id": "s1"}], 2, "spectrum 's1' has no label"),
        # only the selected records need a label
        ([{"spectrum_id": "s1", "label": "PEPTIDE"}, {"spectrum_id": "s2"}], 0, "\t1.0\n"),
    ])
    def test_each_selection_needs_a_labeled_candidate_record(self, tmp_path, capsys, command,
                                                             records, code, message):
        selections = tmp_path / "selections.tsv"
        selections.write_text(
            "spectrum_id\tselected_index\tselected_model\tselected_peptide\tscores\n"
            "s1\t0\tm1\tPEPTIDE\t0.1,0.2\n"
        )
        cands = tmp_path / "candidates.jsonl"
        candidates = [{"model": "m1", "peptide": "PEPTIDE"}, {"model": "m2", "peptide": "PEPTLDE"}]
        cands.write_text("".join(json.dumps({**record, "candidates": candidates}) + "\n"
                                 for record in records))
        got, out, err = run(capsys, *command, "--selections", str(selections),
                            "--candidates", str(cands))
        assert got == code
        assert message in (out if code == 0 else err)

    @pytest.mark.parametrize("command", [["evaluate"], ["analyze", "--analysis", "contribution"]])
    @pytest.mark.parametrize("row, message", [
        pytest.param("s1\t2\tm1\tPEPTIDE\t0.1,0.2,0.3",
                     "selection 2 ('m1' 'PEPTIDE', 3 scores)", id="no-candidate-at-index"),
        pytest.param("s1\t0\tm1\tPEPTIDE\t0.1,0.2",
                     "selection 0 ('m1' 'PEPTIDE', 2 scores)", id="other-candidate"),
        pytest.param("s1\t1\tm2\tGAVKP\t0.1,0.2,0.3",
                     "selection 1 ('m2' 'GAVKP', 3 scores)", id="score-count"),
    ])
    def test_selection_must_match_its_candidate_record(self, tmp_path, capsys, command,
                                                      row, message):
        selections = tmp_path / "selections.tsv"
        selections.write_text(
            "spectrum_id\tselected_index\tselected_model\tselected_peptide\tscores\n" + row + "\n"
        )
        cands = tmp_path / "candidates.jsonl"
        cands.write_text(json.dumps({"spectrum_id": "s1", "label": "PEPTIDE",
                                     "candidates": [{"model": "m9", "peptide": "GAVKP"},
                                                    {"model": "m2", "peptide": "GAVKP"}]})
                         + "\n")
        code, _, err = run(capsys, *command, "--selections", str(selections),
                           "--candidates", str(cands))
        assert code == 2
        assert f"spectrum 's1': {message} does not match its 2 candidates" in err

    def test_a_vertical_tab_in_a_selection_stays_on_one_error_line(self, tmp_path, capsys):
        """``\x0b`` splits a line for ``str.splitlines``; the quoted model keeps it escaped."""
        selections = tmp_path / "selections.tsv"
        selections.write_text(
            "spectrum_id\tselected_index\tselected_model\tselected_peptide\tscores\n"
            "s1\t1\t\x0bm2\tGAVKP\t0.125,0.75\n"
        )
        cands = tmp_path / "candidates.jsonl"
        cands.write_text(json.dumps({"spectrum_id": "s1", "label": "PEPTIDE",
                                     "candidates": [{"model": "m9", "peptide": "GAVKP"},
                                                    {"model": "m2", "peptide": "GAVKP"}]})
                         + "\n")
        code, _, err = run(capsys, "evaluate", "--selections", str(selections),
                           "--candidates", str(cands))
        assert code == 2
        echo, *error = err.splitlines()
        assert echo.startswith("# resolved: ")
        assert error == [f"error: {selections}: spectrum 's1': selection 1 "
                         "('\\x0bm2' 'GAVKP', 2 scores) does not match its 2 candidates"]

    @pytest.mark.parametrize("selected", ["PEPTIDE", "PEPTLDE"])  # matches its label, or not
    def test_contribution_parses_every_candidate_naming_its_spectrum(self, tmp_path, capsys,
                                                                     selected):
        selections = tmp_path / "selections.tsv"
        selections.write_text(
            "spectrum_id\tselected_index\tselected_model\tselected_peptide\tscores\n"
            f"s1\t0\tm1\t{selected}\t0.1,0.2\n"
        )
        cands = tmp_path / "candidates.jsonl"
        cands.write_text(json.dumps({"spectrum_id": "s1", "label": "PEPTIDE",
                                     "candidates": [{"model": "m1", "peptide": selected},
                                                    {"model": "m2", "peptide": "GAVZK"}]})
                         + "\n")
        code, _, err = run(capsys, "analyze", "--analysis", "contribution",
                           "--selections", str(selections), "--candidates", str(cands))
        assert code == 2
        assert "spectrum 's1': unknown residue token 'Z' in 'GAVZK'" in err

    @pytest.mark.parametrize("command", [
        ["evaluate"], ["analyze", "--analysis", "contribution"], ["train"], ["rerank"],
        ["analyze", "--analysis", "zeroshot"]])
    def test_each_candidate_and_label_text_is_parsed_once(self, tmp_path, capsys, monkeypatch,
                                                          command):
        """``train``, ``rerank`` and zeroshot parse each MGF label as the MGF is read, and each
        distinct peptide text of a candidates record once, as ``evaluate`` and contribution do;
        the label's first. Zeroshot's record holds only its subset's candidates, here model_1's.
        Parsed again: the MGF label that a ``train`` or zeroshot record takes as its own."""
        spectra, cands = synthesize_dataset(default_mass_table(), seed=11, n_spectra=6)
        cands[0].candidates.append(("model_5", cands[0].peptides[1]))  # a repeated text
        cands[-1].label = None  # an unselected record needs no label; it takes the MGF's
        mgf, cands_path = write_corpus(tmp_path, spectra, cands)
        selections, config = tmp_path / "selections.tsv", tmp_path / "config.json"
        write_first_selections(selections, cands[:-1])
        config.write_text(json.dumps({"d": 16, "n_heads": 2, "ff_dim": 32, "n_layers": 1,
                                      "epochs": 1}))
        mgf_labels = [s.label for s in spectra]
        own = [[cs.label] if cs.label else [] for cs in cands]
        resolved = [cs.label or s.label for s, cs in zip(spectra, cands)]
        firsts = [cs.peptides[0] for cs in cands]  # model_1's, each set's first
        distinct = [text for cs, label in zip(cands, own)
                    for text in dict.fromkeys(label + cs.peptides)]
        argv, expected = {
            "evaluate": (["--selections", str(selections)], distinct),
            "contribution": (["--selections", str(selections)], distinct),
            "train": (["--mgf", str(mgf), "--config", str(config), "--out",
                       str(tmp_path / "m.ckpt")],
                      mgf_labels + [text for cs, label in zip(cands, resolved)
                                    for text in dict.fromkeys([label] + cs.peptides)]),
            "rerank": (["--checkpoint", str(V1_CHECKPOINT), "--mgf", str(mgf),
                        "--out", str(tmp_path / "out.tsv")], mgf_labels + distinct),
            "zeroshot": (["--checkpoint", str(V1_CHECKPOINT), "--mgf", str(mgf),
                          "--subsets", "model_1", "--out", str(tmp_path / "out.tsv")],
                         mgf_labels + [text for label, first in zip(resolved, firsts)
                                       for text in dict.fromkeys([label, first])]),
        }[command[-1]]
        parsed = []
        monkeypatch.setattr(pipeline, "parse_peptide",
                            lambda text, t: parsed.append(text) or parse_peptide(text, t))
        code, _, err = run(capsys, *command, *argv, "--candidates", str(cands_path))
        assert code == 0, err
        assert parsed == expected

    @pytest.mark.parametrize("command", [["evaluate"], ["analyze", "--analysis", "contribution"]])
    def test_a_desk_corpus_parses_each_distinct_text_once(self, tmp_path, capsys,
                                                          monkeypatch, command):
        """A desk record's label is one of its 4 candidates, and two of its mutants are
        sometimes the same text, so these 600 records take 2,375 parses, not 3,000."""
        spectra, cands = synthesize_dataset(default_mass_table(), seed=11, n_spectra=600)
        _, cands_path = write_corpus(tmp_path, spectra, cands)
        selections = tmp_path / "selections.tsv"
        write_first_selections(selections, cands)
        parsed = []
        monkeypatch.setattr(pipeline, "parse_peptide",
                            lambda text, t: parsed.append(text) or parse_peptide(text, t))
        code, _, err = run(capsys, *command, "--selections", str(selections),
                           "--candidates", str(cands_path))
        assert code == 0, err
        assert len(parsed) == 2375 == sum(len({cs.label, *cs.peptides}) for cs in cands)

    def test_zeroshot_takes_the_label_from_either_file(self, tmp_path, capsys):
        spectra, cands = synthesize_dataset(default_mass_table(), seed=11, n_spectra=4)
        tables = {}
        for where in ("candidates", "mgf", "neither"):
            directory = tmp_path / where
            directory.mkdir()
            mgf, cands_path = write_corpus(
                directory, [replace(s, label=s.label if where == "mgf" else None) for s in spectra],
                [replace(cs, label=cs.label if where == "candidates" else None) for cs in cands])
            out = directory / "zeroshot.tsv"
            code, _, err = run(capsys, "analyze", "--analysis", "zeroshot",
                               "--checkpoint", str(V1_CHECKPOINT), "--mgf", str(mgf),
                               "--candidates", str(cands_path),
                               "--subsets", "model_1;model_1,model_2", "--out", str(out))
            if where == "neither":
                assert code == 2
                assert "spectrum 'synth_00000' has no label" in err
            else:
                assert code == 0, err
                tables[where] = out.read_text()
        assert tables["candidates"] == tables["mgf"]
        assert len(tables["mgf"].splitlines()) == 3

    @pytest.mark.parametrize("command", [
        ["rerank"], ["analyze", "--analysis", "zeroshot", "--subsets", "model_1"]])
    def test_a_bad_checkpoint_is_named(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"xxxx")
        code, _, err = run(capsys, *command, "--checkpoint", str(bad),
                           "--mgf", "unused.mgf", "--candidates", "unused.jsonl")
        assert code == 2
        assert f"error: {bad}: not a checkpoint: expected magic b'RNKV', got b'xxxx'" in err

    def test_missing_inputs_are_usage_like_data_errors(self, capsys):
        code, _, err = run(capsys, "analyze", "--analysis", "length")
        assert code == 2
        assert "--predictions" in err

    @pytest.mark.parametrize("command,message", [
        (["evaluate"], "provide either --predictions or both --selections and --candidates"),
        (["evaluate", "--selections", "unused.tsv"],
         "provide either --predictions or both --selections and --candidates"),
        (["analyze", "--analysis", "confusion"], "confusion analysis needs --predictions"),
        (["analyze", "--analysis", "contribution", "--candidates", "unused.jsonl"],
         "contribution analysis needs --selections and --candidates"),
        (["analyze", "--analysis", "zeroshot", "--mgf", "unused.mgf"],
         "zeroshot analysis needs --checkpoint, --mgf, --candidates, --subsets"),
        (["analyze", "--analysis", "zeroshot", "--checkpoint", "unused.ckpt", "--mgf",
          "unused.mgf", "--candidates", "unused.jsonl", "--subsets", " ; "],
         "--subsets ' ; ' names no model"),
    ])
    def test_each_missing_input_is_named(self, capsys, command, message):
        code, out, err = run(capsys, *command)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: {message}\n")


class TestErrorsFoundAfterAReadNameTheFile:
    @pytest.mark.parametrize("entries, reason", [
        ("G\t57.02146\n", "gap penalty needs a table with at least 2 tokens"),
        ("G\t57.02146\nA\t57.02146\n", "degenerate mass table: all residue masses identical"),
    ])
    @pytest.mark.parametrize("command", [
        ["metrics", "--pairs", "unused.tsv"],
        ["train", "--mgf", "unused.mgf", "--candidates", "unused.jsonl", "--out", "unused.ckpt"]])
    def test_a_table_without_a_gap_penalty(self, tmp_path, capsys, command, entries, reason):
        table = tmp_path / "one.tsv"
        table.write_text(entries)
        code, _, err = run(capsys, *command, "--mass-table", str(table))
        assert code == 2
        assert err.endswith(f"error: {table}: {reason}\n")

    @pytest.mark.parametrize("command", [
        ["rerank", "--checkpoint", str(V1_CHECKPOINT)],
        ["train", "--out", "unused.ckpt"],
        ["analyze", "--analysis", "zeroshot", "--checkpoint", str(V1_CHECKPOINT),
         "--subsets", "model_1"]])
    def test_a_candidate_that_does_not_parse_in_admission(self, tmp_path, capsys, command):
        spectra, cands = synthesize_dataset(default_mass_table(), seed=11, n_spectra=4)
        cands[1].candidates[0] = (cands[1].candidates[0][0], "GZ")
        mgf, cands_path = write_corpus(tmp_path, spectra, cands)
        code, _, err = run(capsys, *command, "--mgf", str(mgf), "--candidates", str(cands_path))
        assert code == 2
        assert err.endswith(f"error: {cands_path}: spectrum 'synth_00001': "
                            "unknown residue token 'Z' in 'GZ'\n")

    @pytest.mark.parametrize("command", [
        ["rerank", "--checkpoint", str(V1_CHECKPOINT)],
        ["train", "--out", "unused.ckpt"],
        ["analyze", "--analysis", "zeroshot", "--checkpoint", str(V1_CHECKPOINT),
         "--subsets", "model_1"]])
    def test_an_orphan_candidate_set(self, tmp_path, capsys, command):
        spectra, cands = synthesize_dataset(default_mass_table(), seed=11, n_spectra=4)
        cands[1].spectrum_id = "orphan"
        mgf, cands_path = write_corpus(tmp_path, spectra, cands)
        code, _, err = run(capsys, *command, "--mgf", str(mgf), "--candidates", str(cands_path))
        assert code == 2
        assert err.endswith(f"error: {cands_path}: candidate set 'orphan' has no matching "
                            "spectrum\n")

    def test_a_strict_exclusion(self, tmp_path, capsys):
        spectra, cands = synthesize_dataset(default_mass_table(), seed=11, n_spectra=4)
        spectra[1].precursor = Precursor.from_mz(spectra[1].precursor.mz, 12)
        mgf, cands_path = write_corpus(tmp_path, spectra, cands)
        code, _, err = run(capsys, "rerank", "--checkpoint", str(V1_CHECKPOINT), "--mgf", str(mgf),
                           "--candidates", str(cands_path), "--strict")
        assert code == 2
        assert err.endswith(f"error: {cands_path}: spectrum 'synth_00001' excluded: "
                            "charge_out_of_range (charge 12, max_charge=4)\n")

    def test_a_zeroshot_subset_error(self, tmp_path, capsys):
        spectra, cands = synthesize_dataset(default_mass_table(), seed=11, n_spectra=4)
        mgf, cands_path = write_corpus(tmp_path, spectra, cands)
        code, _, err = run(capsys, "analyze", "--analysis", "zeroshot", "--checkpoint",
                           str(V1_CHECKPOINT), "--mgf", str(mgf), "--candidates", str(cands_path),
                           "--subsets", "model_1;model_9")
        assert code == 2
        assert err.endswith(f"error: {cands_path}: spectrum 'synth_00000' has no candidates "
                            "from subset ['model_9']\n")

    @pytest.mark.parametrize("command", [
        ["rerank"], ["analyze", "--analysis", "zeroshot", "--subsets", "model_1,model_5"]])
    def test_a_bad_label_of_a_record_excluded_as_too_long(self, tmp_path, capsys, caplog,
                                                          command):
        """The label is parsed although the record is excluded and rerank never uses it."""
        spectra, cands = synthesize_dataset(default_mass_table(), seed=11, n_spectra=4)
        cands[1].candidates.append(("model_5", "G" * 31))  # over the checkpoint's max_len 30
        mgf, cands_path = write_corpus(tmp_path, spectra, cands)
        args = (*command, "--checkpoint", str(V1_CHECKPOINT), "--mgf", str(mgf),
                "--candidates", str(cands_path), "--out", str(tmp_path / "out.tsv"))
        code, _, err = run(capsys, *args)
        assert code == 0, err
        assert caplog.messages == ["spectrum 'synth_00001' excluded: too_long "
                                   "(31 residues, max_len=30)"]
        cands[1].label = "PEPZIDE"
        mgf, cands_path = write_corpus(tmp_path, spectra, cands)
        code, _, err = run(capsys, *args)
        assert code == 2
        assert err.endswith(f"error: {cands_path}: spectrum 'synth_00001': "
                            "unknown residue token 'Z' in 'PEPZIDE'\n")

    @pytest.mark.parametrize("command", [
        ["rerank"], ["analyze", "--analysis", "zeroshot", "--subsets", "model_1"]])
    def test_a_mass_table_that_is_not_the_checkpoints_vocabulary(self, tmp_path, capsys,
                                                                  command):
        table = tmp_path / "two.tsv"
        table.write_text("G\t57.02146\nA\t71.03711\n")
        code, _, err = run(capsys, *command, "--mass-table", str(table), "--checkpoint",
                           str(V1_CHECKPOINT), "--mgf", "unused.mgf", "--candidates",
                           "unused.jsonl")
        assert code == 2
        assert (f"error: {V1_CHECKPOINT}: mass table tokens do not match the model "
                "vocabulary") in err

    @pytest.mark.parametrize("command", [["evaluate"], ["analyze", "--analysis", "contribution"]])
    def test_a_candidate_that_does_not_parse_in_a_selection(self, tmp_path, capsys, command):
        selections = tmp_path / "selections.tsv"
        selections.write_text(
            "spectrum_id\tselected_index\tselected_model\tselected_peptide\tscores\n"
            "s1\t0\tm1\tGZ\t0.1,0.2\n"
        )
        cands = tmp_path / "candidates.jsonl"
        cands.write_text(json.dumps({"spectrum_id": "s1", "label": "PEPTIDE",
                                     "candidates": [{"model": "m1", "peptide": "GZ"},
                                                    {"model": "m2", "peptide": "PEPTIDE"}]})
                         + "\n")
        code, _, err = run(capsys, *command, "--selections", str(selections),
                           "--candidates", str(cands))
        assert code == 2
        assert err.endswith(f"error: {cands}: spectrum 's1': unknown residue token 'Z' in 'GZ'\n")

    @pytest.mark.parametrize("command", [
        ["rerank", "--checkpoint", str(V1_CHECKPOINT)],
        ["train", "--out", "unused.ckpt"],
        ["analyze", "--analysis", "zeroshot", "--checkpoint", str(V1_CHECKPOINT),
         "--subsets", "model_1"]])
    def test_a_bad_mgf_label(self, tmp_path, capsys, command):
        spectra, cands = synthesize_dataset(default_mass_table(), seed=11, n_spectra=4)
        spectra[1].label = "GZV"
        mgf, cands_path = write_corpus(tmp_path, spectra, cands)
        code, _, err = run(capsys, *command, "--mgf", str(mgf), "--candidates", str(cands_path))
        assert code == 2
        assert err.endswith(f"error: {mgf}: spectrum 'synth_00001': "
                            "unknown residue token 'Z' in 'GZV'\n")

    @pytest.mark.parametrize("command", [["evaluate"], ["analyze", "--analysis", "contribution"]])
    def test_a_header_only_selections_file(self, tmp_path, capsys, synth_files, command):
        selections = tmp_path / "selections.tsv"
        with open(selections, "w", encoding="utf-8") as sink:
            write_selections([], sink)
        code, out, err = run(capsys, *command, "--selections", str(selections),
                             "--candidates", str(synth_files[1]))
        assert (code, out) == (2, "")
        assert err.endswith(f"error: {selections}: corpus is empty\n")

    @pytest.mark.parametrize("field", ["label", "peptide"])
    @pytest.mark.parametrize("command", [
        ["rerank", "--checkpoint", str(V1_CHECKPOINT), "--mgf", "{mgf}"],
        ["train", "--mgf", "{mgf}", "--out", "unused.ckpt"],
        ["evaluate", "--selections", "{selections}"],
        ["analyze", "--analysis", "contribution", "--selections", "{selections}"],
        ["analyze", "--analysis", "zeroshot", "--checkpoint", str(V1_CHECKPOINT),
         "--mgf", "{mgf}", "--subsets", "model_1"]])
    def test_an_empty_peptide_fails_at_read(self, tmp_path, capsys, command, field):
        spectra, cands = synthesize_dataset(default_mass_table(), seed=11, n_spectra=4)
        if field == "label":
            cands[0].label = ""
        else:
            cands[0].candidates[0] = (cands[0].candidates[0][0], "")
        mgf, cands_path = write_corpus(tmp_path, spectra, cands)
        selections = tmp_path / "selections.tsv"
        write_first_selections(selections, cands)  # it selects the empty candidate too
        code, _, err = run(capsys, *(arg.format(mgf=mgf, selections=selections) for arg in command),
                           "--candidates", str(cands_path))
        assert code == 2
        assert err.endswith(f"error: {cands_path}:1: '{field}' must be a non-empty peptide\n")


class TestEntrypoint:
    def test_rerank_pins_blas_to_one_thread_unless_a_variable_sets_it(self, tmp_path):
        """``python -m peprank.cli`` sets numpy's OpenBLAS to one thread; an
        explicit OPENBLAS_NUM_THREADS wins. The selections do not change."""
        spectra, cands = synthesize_dataset(default_mass_table(), seed=11, n_spectra=12,
                                            config=SynthConfig(noise_peaks=90))
        mgf, cands_path = write_corpus(tmp_path, spectra, cands)
        env = {key: value for key, value in os.environ.items()
               if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(pipeline.__file__).resolve().parents[1])
        blas_threads, written = [], []
        for extra in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
            out = tmp_path / f"selections{len(written)}.tsv"
            done = subprocess.run(
                [sys.executable, "-m", "peprank.cli", "rerank", "--checkpoint", str(V1_CHECKPOINT),
                 "--mgf", str(mgf), "--candidates", str(cands_path), "--out", str(out)],
                env={**env, **extra}, capture_output=True, text=True, check=True)
            resolved = done.stderr.split("# resolved: ", 1)[1].splitlines()[0]
            blas_threads.append(json.loads(resolved)["blas_threads"])
            written.append(out.read_text())
        assert blas_threads[0] == (None if blas_threads[1] is None else 1)  # None: no OpenBLAS
        assert written[0] == written[1]
        assert len(written[0].splitlines()) == 13


class TestRecordAdmission:
    def test_rerank_skips_a_charge_above_the_model_limit(self, tmp_path, capsys):
        spectra, cands = synthesize_dataset(default_mass_table(), seed=11, n_spectra=8)
        spectra[0].precursor = Precursor.from_mz(spectra[0].precursor.mz, 12)
        mgf, cands_path = write_corpus(tmp_path, spectra, cands)
        args = ("rerank", "--checkpoint", str(V1_CHECKPOINT), "--mgf", str(mgf),
                "--candidates", str(cands_path))
        out = tmp_path / "selections.tsv"
        code, _, err = run(capsys, *args, "--out", str(out))
        assert code == 0, err
        assert "# reranked 7 of 8 spectra (1 excluded)" in err
        rows = [line.split("\t")[0] for line in out.read_text().splitlines()[1:]]
        assert rows == [cs.spectrum_id for cs in cands[1:]]
        code, _, err = run(capsys, *args, "--strict")
        assert code == 2
        assert "'synth_00000' excluded: charge_out_of_range" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rerank_excludes_non_finite_scores(self, tmp_path, capsys):
        checkpoint = load_checkpoint(str(V1_CHECKPOINT))
        checkpoint.params["head/pmd_w"][:] = 1e308  # finite, so it loads; scores overflow
        save_checkpoint(checkpoint, str(tmp_path / "overflow.ckpt"))
        spectra, cands = synthesize_dataset(default_mass_table(), seed=11, n_spectra=3)
        mgf, cands_path = write_corpus(tmp_path, spectra, cands)
        args = ("rerank", "--checkpoint", str(tmp_path / "overflow.ckpt"), "--mgf", str(mgf),
                "--candidates", str(cands_path))
        out = tmp_path / "selections.tsv"
        code, _, err = run(capsys, *args, "--out", str(out))
        assert code == 0, err
        assert "# reranked 0 of 3 spectra (3 excluded)" in err
        assert out.read_text().splitlines() == [
            "spectrum_id\tselected_index\tselected_model\tselected_peptide\tscores"]
        code, _, err = run(capsys, *args, "--strict")
        assert code == 2
        assert "spectrum 'synth_00000' excluded: non_finite_scores" in err

    def test_train_excludes_records_longer_than_max_len(self, tmp_path, capsys):
        table = default_mass_table()
        spectra, cands = synthesize_dataset(table, seed=7, n_spectra=8)
        long_spectra, long_cands = synthesize_dataset(
            table, seed=8, n_spectra=3, config=SynthConfig(min_length=32, max_length=36)
        )
        for i, (spectrum, cs) in enumerate(zip(long_spectra, long_cands)):
            spectrum.spectrum_id = cs.spectrum_id = f"long_{i}"
        mgf, cands_path = write_corpus(tmp_path, spectra + long_spectra, cands + long_cands)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "d": 16, "n_layers": 1, "n_heads": 2, "ff_dim": 32,
            "epochs": 1, "batch_size": 4, "max_len": 30, "max_charge": 4,
        }))
        code, _, err = run(capsys, "train", "--mgf", str(mgf), "--candidates", str(cands_path),
                           "--config", str(config), "--out", str(tmp_path / "m.ckpt"))
        assert code == 0, err
        assert "# training on 8 instances (3 excluded)" in err

    @pytest.mark.parametrize("candidate,label,field", [
        ({"model": "m1", "peptide": 7}, "GAV", "peptide"),
        ({"model": "m1", "peptide": "GAV"}, 9, "label"),
    ])
    def test_non_string_candidate_fields_are_data_errors(
        self, tmp_path, synth_files, capsys, candidate, label, field
    ):
        mgf, _ = synth_files
        cands = tmp_path / "bad.jsonl"
        cands.write_text(json.dumps(
            {"spectrum_id": "synth_00000", "candidates": [candidate], "label": label}) + "\n")
        code, _, err = run(capsys, "rerank", "--checkpoint", str(V1_CHECKPOINT),
                           "--mgf", str(mgf), "--candidates", str(cands))
        assert code == 2
        assert f"error: {cands}:1: '{field}' must be a string" in err

    @pytest.mark.parametrize("field,value,message", [
        pytest.param("spectrum_id", 5, "must be a string", id="spectrum_id"),
        pytest.param("pred", 5, "must be a string", id="pred"),
        pytest.param("truth", 5, "must be a string", id="truth"),
        pytest.param("pred", "", "must be a non-empty peptide", id="empty-pred"),
        pytest.param("truth", "", "must be a non-empty peptide", id="empty-truth"),
    ])
    def test_non_string_prediction_fields_are_data_errors(self, tmp_path, capsys,
                                                         field, value, message):
        preds = tmp_path / "preds.jsonl"
        preds.write_text("\n" + json.dumps(
            {"spectrum_id": "a", "pred": "GAV", "truth": "GAV"}) + "\n" + json.dumps(
            {"spectrum_id": "b", "pred": "GAV", "truth": "GAV", field: value}) + "\n")
        code, _, err = run(capsys, "evaluate", "--predictions", str(preds))
        assert code == 2
        assert f"error: {preds}:3: '{field}' {message}" in err
