import functools
import io
import json
import os
import struct
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peprank import autograd as ag
from peprank import pipeline, threads
from peprank.cli import main as cli_main
from peprank.encoders import EmbeddingConfig, grid_shapes
from peprank.masses import PROTON_MASS, Precursor, parse_peptide, peptide_mz
from peprank.metrics import pmd, rmd
from peprank.model import ModelConfig, RerankModel, rerank_select
from peprank.pipeline import (
    CandidateSet,
    Checkpoint,
    SynthConfig,
    TrainConfig,
    admit_records,
    build_training_set,
    cell_chunks,
    learning_rate,
    load_candidates,
    load_checkpoint,
    read_selections,
    rerank_run,
    save_checkpoint,
    synthesize_dataset,
    train,
    write_candidates,
    write_selections,
    zero_shot_eval,
)
from peprank.spectra import RawSpectrum, write_mgf

DATA = Path(__file__).parent / "data"


def small_config(table, **overrides):
    model = ModelConfig(
        d=16,
        n_layers=1,
        n_heads=2,
        ff_dim=32,
        dropout_rate=0.0,
        embedding=EmbeddingConfig(d=16, max_len=30, max_charge=4),
        vocab=table.tokens,
    )
    defaults = dict(model=model, lr=1e-3, batch_size=4, epochs=2)
    defaults.update(overrides)
    return TrainConfig(**defaults)


def candidate_line(spectrum_id="s1", peptides=("GAV", "GAK"), label="GAV"):
    return json.dumps(
        {
            "spectrum_id": spectrum_id,
            "candidates": [
                {"model": f"m{i + 1}", "peptide": p} for i, p in enumerate(peptides)
            ],
            "label": label,
        }
    )


class TestLoadCandidates:
    def test_valid_record(self):
        sets = load_candidates(io.StringIO(candidate_line() + "\n"))
        assert len(sets) == 1
        assert sets[0].spectrum_id == "s1"
        assert sets[0].candidates == [("m1", "GAV"), ("m2", "GAK")]
        assert sets[0].label == "GAV"

    def test_duplicate_spectrum_id(self):
        text = candidate_line() + "\n" + candidate_line() + "\n"
        with pytest.raises(ValueError, match="duplicate spectrum_id"):
            load_candidates(io.StringIO(text))

    def test_empty_candidate_list(self):
        record = json.dumps({"spectrum_id": "x", "candidates": []})
        with pytest.raises(ValueError, match="non-empty"):
            load_candidates(io.StringIO(record))

    def test_missing_field_reports_line(self):
        record = json.dumps({"spectrum_id": "x"})
        with pytest.raises(ValueError, match="line 1"):
            load_candidates(io.StringIO(record))

    def test_malformed_json_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            load_candidates(io.StringIO(candidate_line() + "\n{oops\n"))

    def test_duplicate_peptides_preserved(self):
        sets = load_candidates(io.StringIO(candidate_line(peptides=("GAV", "GAV"))))
        assert sets[0].peptides == ["GAV", "GAV"]

    def test_round_trip(self):
        sets = load_candidates(io.StringIO(candidate_line()))
        sink = io.StringIO()
        write_candidates(sets, sink)
        again = load_candidates(io.StringIO(sink.getvalue()))
        assert again == sets

    @pytest.mark.parametrize("record,field", [
        ({"spectrum_id": "x", "candidates": [{"model": "m1", "peptide": 7}]}, "peptide"),
        ({"spectrum_id": "x", "candidates": [{"model": 1, "peptide": "GAV"}]}, "model"),
        ({"spectrum_id": "x", "candidates": [{"model": "m1", "peptide": "GAV"}], "label": 9},
         "label"),
        ({"spectrum_id": 3, "candidates": [{"model": "m1", "peptide": "GAV"}]}, "spectrum_id"),
    ])
    def test_non_string_fields_rejected(self, record, field):
        with pytest.raises(ValueError, match=f"line 2: '{field}' must be a string"):
            load_candidates(io.StringIO(candidate_line() + "\n" + json.dumps(record)))

    @pytest.mark.parametrize("record,field", [
        ({"spectrum_id": "x", "candidates": [{"model": "m1", "peptide": ""}]}, "peptide"),
        ({"spectrum_id": "x", "candidates": [{"model": "m1", "peptide": "GAV"}], "label": ""},
         "label"),
    ])
    def test_empty_peptides_rejected(self, record, field):
        with pytest.raises(ValueError, match=f"line 2: '{field}' must be a non-empty peptide"):
            load_candidates(io.StringIO(candidate_line() + "\n" + json.dumps(record)))

    @pytest.mark.parametrize("where", ["spectrum_id", "model"])
    @pytest.mark.parametrize("name", ["model\t1", "a\rb", "a\nb"])
    def test_tab_or_line_break_in_a_selections_field_rejected(self, where, name):
        """A spectrum id or model becomes one field of a selections row."""
        record = json.loads(candidate_line())
        if where == "model":
            record["candidates"][1]["model"] = name
        else:
            record["spectrum_id"] = name
        with pytest.raises(ValueError, match=rf"^line 2: {where} '.*' holds a tab or line break$"):
            load_candidates(io.StringIO(candidate_line("s0") + "\n" + json.dumps(record)))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_records_load_or_raise_value_error(self, data):
        """Each mutated record loads into well-typed sets or raises ValueError."""
        record = json.loads(candidate_line())
        where = data.draw(st.sampled_from([
            (), ("candidates",), ("candidates", 0), ("candidates", 1),
        ]))
        target = record
        for step in where:
            target = target[step]
        json_values = st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
            | st.text(max_size=4),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=4), inner, max_size=3),
            max_leaves=6,
        )
        if isinstance(target, dict):
            key = data.draw(st.sampled_from(sorted(target) + ["extra"]))
            if data.draw(st.booleans()):
                target.pop(key, None)
            else:
                target[key] = data.draw(json_values)
        else:
            target.append(data.draw(json_values))
        line = json.dumps(record)
        if data.draw(st.booleans()):
            line = line[: data.draw(st.integers(0, len(line)))]
        try:
            sets = load_candidates(io.StringIO(line))
        except ValueError:
            return
        for cs in sets:
            assert isinstance(cs, CandidateSet) and isinstance(cs.spectrum_id, str)
            assert all(isinstance(m, str) and isinstance(p, str) for m, p in cs.candidates)
            assert cs.label is None or isinstance(cs.label, str)


class TestSynthesizeDataset:
    def test_deterministic_from_seed(self, table):
        a_spec, a_cands = synthesize_dataset(table, seed=7, n_spectra=5)
        b_spec, b_cands = synthesize_dataset(table, seed=7, n_spectra=5)
        for sa, sb in zip(a_spec, b_spec):
            np.testing.assert_array_equal(sa.mz, sb.mz)
            np.testing.assert_array_equal(sa.intensity, sb.intensity)
        assert a_cands == b_cands

    def test_different_seed_differs(self, table):
        a_spec, _ = synthesize_dataset(table, seed=7, n_spectra=3)
        b_spec, _ = synthesize_dataset(table, seed=8, n_spectra=3)
        assert any(sa.mz.size != sb.mz.size or not np.array_equal(sa.mz, sb.mz)
                   for sa, sb in zip(a_spec, b_spec))

    def test_byte_identical_files(self, table):
        def render(seed):
            spectra, cands = synthesize_dataset(table, seed=seed, n_spectra=4)
            mgf, jsonl = io.StringIO(), io.StringIO()
            write_mgf(spectra, mgf)
            write_candidates(cands, jsonl)
            return mgf.getvalue(), jsonl.getvalue()

        assert render(3) == render(3)

    def test_b_ions_are_prefix_plus_proton(self, table):
        config = SynthConfig(peak_dropout=0.0, noise_peaks=0)
        spectra, cands = synthesize_dataset(table, seed=1, n_spectra=5, config=config)
        from peprank.masses import cumulative_masses

        for spectrum, cs in zip(spectra, cands):
            label = parse_peptide(cs.label, table)
            prefixes = cumulative_masses(label, table, "prefix")
            expected_b = prefixes[: len(label) - 1] + PROTON_MASS
            for b in expected_b:
                assert np.min(np.abs(spectrum.mz - b)) < 1e-9

    def test_label_present_and_mutants_have_positive_pmd(self, table):
        spectra, cands = synthesize_dataset(table, seed=2, n_spectra=10)
        for cs in cands:
            label = parse_peptide(cs.label, table)
            scores = [
                pmd(parse_peptide(text, table), label, table) for text in cs.peptides
            ]
            assert sum(1 for s in scores if s == 0.0) == 1  # exactly the label slot
            assert all(s > 0.0 for s in scores if s != 0.0)

    def test_label_slot_is_shuffled(self, table):
        _, cands = synthesize_dataset(table, seed=4, n_spectra=40)
        slots = set()
        for cs in cands:
            label = cs.label
            slots.add(cs.peptides.index(label))
        assert len(slots) > 1  # not always the same candidate slot

    @pytest.mark.parametrize("field", ["n_candidates", "min_length"])
    def test_a_config_that_writes_unreadable_records_is_rejected(self, field):
        with pytest.raises(ValueError, match="n_candidates and min_length must be at least 1"):
            SynthConfig(**{field: 0})

    def test_precursor_consistent_with_label(self, table):
        from peprank.spectra import validate_precursor

        spectra, cands = synthesize_dataset(table, seed=5, n_spectra=10)
        for spectrum, cs in zip(spectra, cands):
            assert validate_precursor(spectrum, parse_peptide(cs.label, table), table)


class TestBuildTrainingSet:
    @pytest.mark.parametrize("seed, config", [
        (11, SynthConfig()),
        (12, SynthConfig(n_candidates=10, min_length=25, max_length=40)),
    ])
    def test_targets_match_metric_calls(self, table, seed, config):
        spectra, cands = synthesize_dataset(table, seed=seed, n_spectra=12, config=config)
        label = cands[2].label  # record 2 keeps no ranking signal, record 5 misses its precursor
        cands[2] = CandidateSet(cands[2].spectrum_id, [("m1", label), ("m2", label)], label)
        cands[5] = CandidateSet(cands[5].spectrum_id, cands[5].candidates, label="GGGG")
        instances, excluded = build_training_set(spectra, cands, table)
        assert excluded == [
            (cands[5].spectrum_id, "precursor_mismatch"),
            (cands[2].spectrum_id, "all_candidates_correct"),
        ]
        kept = [cs for k, cs in enumerate(cands) if k not in (2, 5)]
        assert [inst.spectrum.spectrum_id for inst in instances] == [cs.spectrum_id for cs in kept]
        for inst, cs in zip(instances, kept):
            label = parse_peptide(cs.label, table)
            np.testing.assert_array_equal(
                inst.pmd_targets, [pmd(c, label, table) for c in inst.candidates]
            )
            for got, candidate in zip(inst.rmd_targets, inst.candidates):
                np.testing.assert_array_equal(got, rmd(candidate, label, table))

    def test_label_candidate_has_zero_targets(self, table):
        spectra, cands = synthesize_dataset(table, seed=6, n_spectra=4)
        instances, _ = build_training_set(spectra, cands, table)
        for inst, cs in zip(instances, cands):
            slot = cs.peptides.index(cs.label)
            assert inst.pmd_targets[slot] == 0.0
            np.testing.assert_array_equal(inst.rmd_targets[slot], 0.0)

    def test_all_correct_instance_excluded(self, table):
        spectra, cands = synthesize_dataset(table, seed=6, n_spectra=2)
        all_correct = CandidateSet(
            spectrum_id=cands[0].spectrum_id,
            candidates=[("m1", cands[0].label), ("m2", cands[0].label)],
            label=cands[0].label,
        )
        instances, excluded = build_training_set(spectra[:1], [all_correct], table)
        assert not instances
        assert excluded == [(cands[0].spectrum_id, "all_candidates_correct")]

    def test_each_exclusion_is_logged_once_in_list_order(self, table, caplog):
        spectra, cands = synthesize_dataset(table, seed=6, n_spectra=6)
        for k in (1, 4):  # all correct, after the admission reasons
            label = cands[k].label
            cands[k] = CandidateSet(cands[k].spectrum_id, [("m1", label), ("m2", label)], label)
        cands[3] = CandidateSet(cands[3].spectrum_id, cands[3].candidates, label="GGGG")
        with caplog.at_level("WARNING", logger=pipeline.logger.name):
            instances, excluded = build_training_set(spectra, cands, table)
        ids = [cs.spectrum_id for cs in cands]
        assert excluded == [(ids[3], "precursor_mismatch"), (ids[1], "all_candidates_correct"),
                            (ids[4], "all_candidates_correct")]
        assert [r.getMessage() for r in caplog.records] == [
            f"spectrum {i!r} excluded: {reason}" for i, reason in excluded]
        assert len(instances) == 3

    def test_unjoinable_id_errors(self, table):
        spectra, cands = synthesize_dataset(table, seed=6, n_spectra=1)
        orphan = CandidateSet("missing", [("m1", "GAV")], label="GAV")
        with pytest.raises(ValueError, match="no matching spectrum"):
            build_training_set(spectra, [orphan], table)

    def test_missing_label_errors(self, table):
        spectra, cands = synthesize_dataset(table, seed=6, n_spectra=1)
        spectra[0].label = None
        unlabeled = CandidateSet(cands[0].spectrum_id, cands[0].candidates, label=None)
        with pytest.raises(ValueError, match="no label"):
            build_training_set(spectra, [unlabeled], table)

    def test_precursor_mismatch_excluded(self, table):
        spectra, cands = synthesize_dataset(table, seed=6, n_spectra=1)
        bad = CandidateSet(cands[0].spectrum_id, cands[0].candidates, label="GGGG")
        instances, excluded = build_training_set(spectra, [bad], table)
        assert not instances
        assert excluded[0][1] == "precursor_mismatch"


class TestAdmitRecords:
    LIMITS = EmbeddingConfig(d=16, max_len=30, max_charge=4)

    @staticmethod
    def break_record(reason, spectra, cands, table):
        raw, cs = spectra[1], cands[1]
        if reason == "too_long":
            cs.candidates[0] = ("model_1", "G" * 31)
        elif reason == "charge_out_of_range":  # consistent with the label at 12+
            raw.precursor = Precursor.from_mz(
                peptide_mz(parse_peptide(cs.label, table), table, 12), 12
            )
        elif reason == "precursor_mismatch":
            cs.label = "GGGG"
        else:
            spectra[1] = RawSpectrum(raw.spectrum_id, [10.0], [1.0], raw.precursor, raw.label)

    @pytest.mark.parametrize("reason", [
        "too_long", "charge_out_of_range", "precursor_mismatch", "empty_after_preprocessing",
    ])
    def test_reason_skips_lists_and_raises_when_strict(self, table, reason):
        spectra, cands = synthesize_dataset(table, seed=24, n_spectra=3)
        self.break_record(reason, spectra, cands, table)
        ids = [cs.spectrum_id for cs in cands]
        admitted, excluded = admit_records(spectra, cands, table, self.LIMITS, labeled=True)
        assert [record[0].spectrum_id for record in admitted] == [ids[0], ids[2]]
        assert excluded == [(ids[1], reason)]
        with pytest.raises(ValueError, match=f"'{ids[1]}' excluded: {reason}"):
            admit_records(spectra, cands, table, self.LIMITS, labeled=True, strict=True)
        instances, excluded = build_training_set(spectra, cands, table, self.LIMITS)
        assert len(instances) + len(excluded) == len(cands)
        assert (ids[1], reason) in excluded

    def test_correct_long_label_is_too_long(self, table):
        label_text = "GAVK" * 30
        label = parse_peptide(label_text, table)
        assert len(label) == 120
        raw = RawSpectrum("long", [100.0, 200.0], [1.0, 1.0],
                          Precursor.from_mz(peptide_mz(label, table, 2), 2), label_text)
        cs = CandidateSet("long", [("m1", label_text), ("m2", "GAV")], label_text)
        assert build_training_set([raw], [cs], table) == ([], [("long", "too_long")])

    @pytest.mark.parametrize("cs,message", [
        (CandidateSet("synth_00000", [("m1", "GZV")]), "spectrum 'synth_00000': unknown residue"),
        (CandidateSet("synth_00000", [("m1", "")]), "'synth_00000' has an empty"),
    ])
    def test_bad_peptides_are_hard_errors(self, table, cs, message):
        spectra, _ = synthesize_dataset(table, seed=24, n_spectra=1)
        with pytest.raises(ValueError, match=message):
            admit_records(spectra, [cs], table, self.LIMITS, labeled=False)

    def test_each_distinct_text_is_parsed_once_label_first(self, table, monkeypatch):
        spectra, cands = synthesize_dataset(table, seed=24, n_spectra=1)
        label = cands[0].label
        mutants = [text for text in cands[0].peptides if text != label][:2]
        cs = CandidateSet(cands[0].spectrum_id, [
            ("m1", mutants[0]), ("m2", label), ("m3", mutants[0]), ("m4", mutants[1]),
        ], label)
        parsed = []
        monkeypatch.setattr(pipeline, "parse_peptide",
                            lambda text, t: parsed.append(text) or parse_peptide(text, t))
        ((_, _, candidates, got_label),), _ = admit_records(
            spectra, [cs], table, self.LIMITS, labeled=True)
        assert parsed == [label, mutants[0], mutants[1]]
        assert candidates == [parse_peptide(text, table) for text in cs.peptides]
        assert got_label == parse_peptide(label, table)

    def test_a_bad_label_is_the_first_error(self, table):
        spectra, cands = synthesize_dataset(table, seed=24, n_spectra=1)
        cs = CandidateSet(cands[0].spectrum_id, [("m1", "GXV"), ("m2", "PEPZIDE")], "PEPZIDE")
        with pytest.raises(ValueError, match="unknown residue token 'Z' in 'PEPZIDE'"):
            admit_records(spectra, [cs], table, self.LIMITS, labeled=True)


class TestSchedule:
    def test_warmup_starts_at_zero(self):
        assert learning_rate(0, 1e-3, warmup_steps=10, total_steps=100) == 0.0

    def test_warmup_is_linear(self):
        assert learning_rate(5, 1e-3, 10, 100) == pytest.approx(5e-4)

    def test_cosine_reaches_zero(self):
        assert learning_rate(100, 1e-3, 10, 100) == pytest.approx(0.0, abs=1e-12)

    def test_peak_after_warmup(self):
        assert learning_rate(10, 1e-3, 10, 100) == pytest.approx(1e-3)


class TestTrain:
    def test_one_step_decreases_single_instance_loss(self, table):
        spectra, cands = synthesize_dataset(table, seed=9, n_spectra=1)
        instances, _ = build_training_set(spectra, cands, table)
        for seed in (0, 1, 2):
            config = small_config(
                table, epochs=1, batch_size=1, lr=1e-3, warmup_epochs=0.0
            )
            checkpoint, history = train(config, instances, table, seed=seed)
            assert len(history) == 1
            model = checkpoint.build_model(table)
            after = float(
                pipeline.minibatch_loss(model, instances[:1]).data
            )
            assert after < history[0].loss

    def test_loss_decreases_over_epochs(self, table):
        spectra, cands = synthesize_dataset(table, seed=9, n_spectra=1)
        instances, _ = build_training_set(spectra, cands, table)
        config = small_config(table, epochs=8, batch_size=1, lr=3e-3, warmup_epochs=1)
        _, history = train(config, instances, table, seed=0)
        assert history[-1].loss < history[0].loss

    def test_reproducible_loss_trajectory(self, table):
        spectra, cands = synthesize_dataset(table, seed=10, n_spectra=4)
        instances, _ = build_training_set(spectra, cands, table)
        config = small_config(table)
        _, h1 = train(config, instances, table, seed=3)
        _, h2 = train(config, instances, table, seed=3)
        assert len(h1) == len(h2)
        for a, b in zip(h1, h2):
            assert abs(a.loss - b.loss) <= 1e-9
            assert a.lr == b.lr

    def test_gradient_clipping_bounds_applied_norm(self, table):
        spectra, cands = synthesize_dataset(table, seed=11, n_spectra=2)
        instances, _ = build_training_set(spectra, cands, table)
        model = RerankModel(small_config(table).model, table, seed=0)
        model.store.zero_grad()
        loss = pipeline.minibatch_loss(model, instances[:1])
        loss.backward()
        raw = model.store.clip_grad_norm(1.5)
        if raw > 1.5:
            assert model.store.grad_norm() == pytest.approx(1.5)

    def test_empty_training_set_rejected(self, table):
        with pytest.raises(ValueError, match="empty"):
            train(small_config(table), [], table)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detector(self, table):
        spectra, cands = synthesize_dataset(table, seed=12, n_spectra=2)
        instances, _ = build_training_set(spectra, cands, table)
        instances[0].pmd_targets[:] = np.nan
        with pytest.raises(RuntimeError, match="diverged"):
            train(small_config(table), instances, table)

    @staticmethod
    def poison_gelu_backward(monkeypatch):
        """Make every gelu pass a NaN gradient to its input; forwards and
        losses stay finite."""
        gelu = ag.gelu

        def poisoned(a):
            out = gelu(a)
            backward = out._backward
            if backward is not None:
                out._backward = lambda g: backward(np.full_like(g, np.nan))
            return out

        monkeypatch.setattr(ag, "gelu", poisoned)

    def test_non_finite_gradient_raises_before_the_optimizer_step(self, table, monkeypatch):
        spectra, cands = synthesize_dataset(table, seed=12, n_spectra=4)
        instances, _ = build_training_set(spectra, cands, table)
        self.poison_gelu_backward(monkeypatch)
        steps = []
        monkeypatch.setattr(pipeline.AdamW, "step", lambda self, lr: steps.append(lr))
        # embed/residue comes first in store order, and every gradient is NaN
        with pytest.raises(RuntimeError, match=r"non-finite gradient norm nan at step 0 .*"
                                               r"first non-finite gradient: parameter "
                                               r"'embed/residue'"):
            train(small_config(table), instances, table)
        assert steps == []

    def test_cli_train_with_a_nan_gradient_writes_no_checkpoint(self, table, tmp_path,
                                                                 monkeypatch, capsys):
        spectra, cands = synthesize_dataset(table, seed=12, n_spectra=4)
        with open(tmp_path / "s.mgf", "w") as sink:
            write_mgf(spectra, sink)
        with open(tmp_path / "c.jsonl", "w") as sink:
            write_candidates(cands, sink)
        (tmp_path / "config.json").write_text(json.dumps(
            {"d": 16, "n_layers": 1, "n_heads": 2, "ff_dim": 32, "epochs": 1}))
        self.poison_gelu_backward(monkeypatch)
        out = tmp_path / "m.ckpt"
        code = cli_main(["train", "--mgf", str(tmp_path / "s.mgf"),
                         "--candidates", str(tmp_path / "c.jsonl"),
                         "--config", str(tmp_path / "config.json"), "--out", str(out)])
        assert code == 3
        assert "step 0" in capsys.readouterr().err
        assert not out.exists()

    def test_loss_log_format(self, table):
        spectra, cands = synthesize_dataset(table, seed=13, n_spectra=2)
        instances, _ = build_training_set(spectra, cands, table)
        sink = io.StringIO()
        train(small_config(table, epochs=1), instances, table, log_sink=sink)
        lines = sink.getvalue().strip().splitlines()
        assert lines[0] == "step\tlr\tloss\tgrad_norm"
        assert len(lines) >= 2


    def test_dropout_training_is_deterministic(self, table):
        spectra, cands = synthesize_dataset(table, seed=10, n_spectra=6)
        instances, _ = build_training_set(spectra, cands, table)
        config = small_config(table, model=replace(small_config(table).model, dropout_rate=0.2))
        (c1, h1), (c2, h2) = (train(config, instances, table, seed=5) for _ in range(2))
        assert [r.loss for r in h1] == [r.loss for r in h2]
        for name, array in c1.params.items():
            np.testing.assert_array_equal(array, c2.params[name])

    def test_training_draws_dropout_from_its_generator(self, table):
        spectra, cands = synthesize_dataset(table, seed=10, n_spectra=6)
        instances, _ = build_training_set(spectra, cands, table)
        config = small_config(table, epochs=1,
                              model=replace(small_config(table).model, dropout_rate=0.2))
        model = RerankModel(config.model, table, seed=5)
        plain = float(pipeline.minibatch_loss(model, instances).data)
        drawn = [float(pipeline.minibatch_loss(model, instances, np.random.default_rng(7)).data)
                 for _ in range(2)]
        assert drawn[0] == drawn[1] != plain
        _, history = train(config, instances, table, seed=5)
        no_dropout = replace(config, model=replace(config.model, dropout_rate=0.0))
        _, plain_history = train(no_dropout, instances, table, seed=5)
        assert history[0].loss != plain_history[0].loss


class TestMinibatchLoss:
    def instances(self, table):
        spectra, cands = synthesize_dataset(table, seed=17, n_spectra=5)
        instances, _ = build_training_set(spectra, cands, table)
        # unequal candidate counts, so the batch pads candidate rows
        for instance, keep in zip(instances, (4, 2, 3, 1, 4)):
            instance.candidates = instance.candidates[:keep]
            instance.pmd_targets = instance.pmd_targets[:keep]
            instance.rmd_targets = instance.rmd_targets[:keep]
        return instances

    def gradients(self, model, loss):
        model.store.zero_grad()
        ag.backward(loss)
        return {name: t.grad.copy() for name, t in model.store.items()}

    def test_loss_and_gradients_are_the_means_over_instances(self, table):
        instances = self.instances(table)
        model = RerankModel(small_config(table).model, table, seed=0)
        batched = pipeline.minibatch_loss(model, instances)
        singles = [pipeline.minibatch_loss(model, [i]) for i in instances]
        mean = sum(float(loss.data) for loss in singles) / len(singles)
        assert abs(float(batched.data) - mean) <= 1e-12
        expected = self.gradients(
            model, ag.mul(functools.reduce(ag.add, singles), 1.0 / len(singles)))
        for name, grad in self.gradients(model, batched).items():
            np.testing.assert_allclose(grad, expected[name], rtol=1e-9, atol=1e-12,
                                       err_msg=name)

    def test_one_instance_is_its_single_loss(self, table):
        # the joint loss of one spectrum's forward, by hand: its residue
        # scores line up with its candidates' residue targets in order
        instance = self.instances(table)[1]
        model = RerankModel(small_config(table).model, table, seed=0)
        output, _ = model.forward(instance.spectrum, instance.candidates)
        lam = model.config.loss_lambda
        pmd_diffs = output.pmd_pred.data - instance.pmd_targets
        rmd_diffs = output.rmd_pred.data - np.concatenate(instance.rmd_targets)
        expected = (lam * np.sqrt(np.mean(pmd_diffs**2))
                    + (1 - lam) * np.sqrt(np.mean(rmd_diffs**2)))
        assert abs(float(pipeline.minibatch_loss(model, [instance]).data) - expected) <= 1e-12


def graph_bytes(loss) -> int:
    """Bytes a graph holds: every node's data and every array its backward
    closure captures, also inside lists and tuples (attention's saved
    probabilities), each buffer counted once (by the array that owns it)."""
    owners, seen, stack = {}, set(), [loss]

    def count(value):
        if isinstance(value, (list, tuple)):
            for item in value:
                count(item)
        elif isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            owners[id(value)] = value.nbytes

    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
        cells = (node._backward.__closure__ if node._backward else None) or ()
        count([node.data] + [c.cell_contents for c in cells])
    return sum(owners.values())


class TestGraphMemory:
    @staticmethod
    def minibatch_graph_bytes(table, synth: SynthConfig, n_instances: int) -> int:
        spectra, cands = synthesize_dataset(table, seed=1, n_spectra=24, config=synth)
        instances, _ = build_training_set(spectra, cands, table)
        model = RerankModel(ModelConfig.desk(table.tokens), table, seed=1)
        return graph_bytes(pipeline.minibatch_loss(model, instances[:n_instances]))

    def test_desk_minibatch_graph_keeps_only_what_backward_reads(self, table):
        """A 16-instance desk minibatch (synth seed 1) holds ~39.7 MiB. It
        held ~53.4 MiB (~45.3 MiB without attention's probabilities, which
        the count once missed) while residual adds kept their operands, the
        MSA embedding its gathers, and gelu its input; copying the grid into
        column-major order and back around each column sublayer cost ~1.9
        MiB more, padding every spectrum to the batch's largest grid and
        peak count ~41 MiB more, and keeping each attention's raw and scaled
        scores and each linear's pre-bias product ~103 MiB more."""
        assert self.minibatch_graph_bytes(table, SynthConfig(), 16) <= 40 * 2**20

    def test_wide_minibatch_graph_keeps_only_what_backward_reads(self, table):
        """An 8-instance minibatch of the wide shape (10 candidates of 25-40
        residues, ~150 peaks; synth seed 1) holds ~179.7 MiB, of which the
        attention probabilities are ~91 MiB; it held ~219.6 MiB while
        residual adds kept their operands, the MSA embedding its gathers,
        and gelu its input."""
        wide = SynthConfig(n_candidates=10, min_length=25, max_length=40, noise_peaks=90)
        assert self.minibatch_graph_bytes(table, wide, 8) <= 180 * 2**20


class TestRerankRun:
    def test_single_candidate_selected(self, table):
        spectra, cands = synthesize_dataset(table, seed=14, n_spectra=2)
        solo = [CandidateSet(c.spectrum_id, c.candidates[:1], c.label) for c in cands]
        model = RerankModel(small_config(table).model, table, seed=0)
        selections = rerank_run(model, spectra, solo)
        assert all(sel.index == 0 for sel in selections)

    def test_duplicate_candidates_tie_to_lowest_index(self, table):
        spectra, cands = synthesize_dataset(table, seed=15, n_spectra=2)
        dup = [
            CandidateSet(c.spectrum_id, [c.candidates[0], c.candidates[0]], c.label)
            for c in cands
        ]
        model = RerankModel(small_config(table).model, table, seed=0)
        selections = rerank_run(model, spectra, dup)
        assert all(sel.index == 0 for sel in selections)

    def test_row_order_only_affects_ties(self, table):
        spectra, cands = synthesize_dataset(table, seed=16, n_spectra=3)
        model = RerankModel(small_config(table).model, table, seed=0)
        base = rerank_run(model, spectra, cands)
        reversed_sets = [
            CandidateSet(c.spectrum_id, list(reversed(c.candidates)), c.label)
            for c in cands
        ]
        flipped = rerank_run(model, spectra, reversed_sets)
        for sel_a, sel_b in zip(base, flipped):
            assert sel_a.peptide == sel_b.peptide

    def test_unjoinable_id_errors(self, table):
        spectra, cands = synthesize_dataset(table, seed=17, n_spectra=1)
        model = RerankModel(small_config(table).model, table, seed=0)
        orphan = CandidateSet("missing", [("m1", "GAV")], None)
        with pytest.raises(ValueError, match="no matching spectrum"):
            rerank_run(model, spectra, [orphan])

    def test_over_length_candidate_errors(self, table):
        spectra, cands = synthesize_dataset(table, seed=18, n_spectra=1)
        config = small_config(table)
        model = RerankModel(config.model, table, seed=0)
        long_text = "G" * (config.model.embedding.max_len + 1)
        bad = CandidateSet(cands[0].spectrum_id, [("m1", long_text)], cands[0].label)
        with pytest.raises(ValueError, match="max_len"):
            rerank_run(model, spectra, [bad], strict=True)
        assert rerank_run(model, spectra, [bad]) == []

    def test_an_over_length_label_is_parsed_but_not_limited(self, table, monkeypatch):
        spectra, cands = synthesize_dataset(table, seed=18, n_spectra=1)
        config = small_config(table)
        model = RerankModel(config.model, table, seed=0)
        long_label = "G" * (config.model.embedding.max_len + 1)
        labeled = replace(cands[0], label=long_label)
        parsed = []
        monkeypatch.setattr(pipeline, "parse_peptide",
                            lambda text, t: parsed.append(text) or parse_peptide(text, t))
        assert rerank_run(model, spectra, [labeled]) == rerank_run(model, spectra, cands)
        assert parsed == ([long_label] + cands[0].peptides  # each label first, deduplicated
                          + list(dict.fromkeys([cands[0].label] + cands[0].peptides)))
        with pytest.raises(ValueError, match="unknown residue token 'Z' in 'GZ'"):
            rerank_run(model, spectra, [replace(cands[0], label="GZ")])

    def test_selection_round_trip(self, table):
        spectra, cands = synthesize_dataset(table, seed=19, n_spectra=3)
        model = RerankModel(small_config(table).model, table, seed=0)
        selections = rerank_run(model, spectra, cands)
        sink = io.StringIO()
        write_selections(selections, sink)
        again = read_selections(io.StringIO(sink.getvalue()))
        assert again == selections

    @pytest.mark.parametrize("index, scores, message", [
        ("x", "0.1,0.2", "line 3: invalid literal for int"),
        ("0", "", "line 3: could not convert string to float: ''"),
        ("0", "nan,inf", "line 3: non-finite score in 'nan,inf'"),
        ("1", "0.5,-inf", "line 3: non-finite score"),
        ("7", "0.1,0.2", "line 3: selected_index 7 outside its 2 scores"),
        ("-1", "0.1,0.2", "line 3: selected_index -1 outside its 2 scores"),
    ])
    def test_bad_selection_fields_name_their_line(self, index, scores, message):
        text = ("spectrum_id\tselected_index\tselected_model\tselected_peptide\tscores\n"
                "a\t0\tm1\tGAV\t0.1,0.2\n"
                f"b\t{index}\tm1\tGAV\t{scores}\n")
        with pytest.raises(ValueError, match=message):
            read_selections(io.StringIO(text))


def b1_scores(model, spectra, candidate_sets, residues=True):
    """Each admitted spectrum's scores from a B=1 forward of its own, by id."""
    admitted, _ = admit_records(spectra, candidate_sets, model.table, model.config.embedding,
                                labeled=False)
    with ag.no_grad():
        return {cs.spectrum_id: model.forward(spectrum, candidates, residues=residues)[0]
                .pmd_pred.data for cs, spectrum, candidates, _ in admitted}


def chunk_ids(model, spectra, candidate_sets):
    """The spectrum ids of each chunk that rerank_run forwards together."""
    admitted, _ = admit_records(spectra, candidate_sets, model.table, model.config.embedding,
                                labeled=False)
    order, chunks = cell_chunks([processed.n_peaks for _, processed, _, _ in admitted],
                                grid_shapes([candidates for _, _, candidates, _ in admitted]))
    return [[admitted[i][0].spectrum_id for i in order[chunk]] for chunk in chunks]


# c = 3 and c = 7 put spectra at row offsets that a [rows, d] @ [d, 1] product
# over a whole chunk does not block the way it blocks a spectrum alone; c = 1
# leaves rerank's last mixer block two cells per spectrum; wide grids (at least
# 26 cells a candidate) each take over half a chunk; peaks150 (~150 peaks after
# preprocessing) takes the helper thread
RERANK_CORPORA = {
    "desk": SynthConfig(),
    "c1": SynthConfig(n_candidates=1),
    "wide": SynthConfig(n_candidates=pipeline.RERANK_CHUNK_CELLS // 52 + 1, min_length=25,
                        max_length=40),
    "c3": SynthConfig(n_candidates=3),
    "c7": SynthConfig(n_candidates=7),
    "peaks150": SynthConfig(noise_peaks=90),
}


class TestChunkedRerank:
    @pytest.fixture(scope="class")
    def desk_model(self, table):
        return RerankModel(ModelConfig.desk(table.tokens), table, seed=1)

    @pytest.mark.parametrize("corpus", RERANK_CORPORA)
    def test_scores_are_the_bits_of_single_spectrum_forwards(self, table, desk_model, corpus,
                                                             helped):
        spectra, cands = synthesize_dataset(table, seed=3, n_spectra=40,
                                            config=RERANK_CORPORA[corpus])
        chunks = chunk_ids(desk_model, spectra, cands)
        assert (max(map(len, chunks)) == 1) == (corpus == "wide")  # wide grids fill a chunk
        desk_model.reset_attention_counts()
        selections = rerank_run(desk_model, spectra, cands)
        assert len(helped) == (len(chunks) // 2 if corpus == "peaks150" else 0)
        chunked_counts = desk_model.attn_counts
        desk_model.reset_attention_counts()
        b1_scores(desk_model, spectra, cands, residues=False)
        assert chunked_counts == desk_model.attn_counts
        expected = b1_scores(desk_model, spectra, cands)
        assert [sel.spectrum_id for sel in selections] == list(expected)
        for sel in selections:
            np.testing.assert_array_equal(sel.scores, expected[sel.spectrum_id])

    def test_300_peak_scores_are_within_1e_12_of_full_forwards(self, table, desk_model):
        """Past 256 peaks OpenBLAS blocks cross-attention's [n_q, 8] @ [8, K]
        by the query count, so rerank keeps the bits of the B=1 forwards
        without residues and only nears the full ones."""
        spectra, cands = synthesize_dataset(table, seed=3, n_spectra=24,
                                            config=SynthConfig(noise_peaks=290))
        assert min(s.mz.size for s in spectra) > 256
        assert max(map(len, chunk_ids(desk_model, spectra, cands))) > 1
        selections = rerank_run(desk_model, spectra, cands)
        scored = b1_scores(desk_model, spectra, cands, residues=False)
        full = b1_scores(desk_model, spectra, cands)
        assert [sel.spectrum_id for sel in selections] == list(full)
        for sel in selections:
            want = full[sel.spectrum_id]
            np.testing.assert_array_equal(sel.scores, scored[sel.spectrum_id])
            assert (np.abs(sel.scores - want) <= 1e-12 * np.maximum(1.0, np.abs(want))).all()
            assert sel.index == rerank_select(want)

    def test_scores_ignore_chunk_mates(self, table, desk_model):
        spectra, cands = synthesize_dataset(table, seed=4, n_spectra=24,
                                            config=RERANK_CORPORA["c3"])
        others, other_cands = synthesize_dataset(table, seed=5, n_spectra=24,
                                                 config=RERANK_CORPORA["c7"])
        for i, (spectrum, cs) in enumerate(zip(others, other_cands)):
            spectrum.spectrum_id = cs.spectrum_id = f"other_{i}"
        spectra = spectra + others
        target = cands[10]
        rng = np.random.default_rng(0)
        rest = [cs for cs in cands if cs is not target]
        # shape order undoes a permutation, so the second arrangement keeps a
        # permuted half of the others; the last two replace the mates
        arrangements = [cands,
                        [rest[i] for i in rng.permutation(len(rest))[::2]] + [target],
                        other_cands[:2] + [target] + other_cands[2:],
                        cands[9:10] + other_cands[:1] + [target] + cands[:3]]
        expected = b1_scores(desk_model, spectra, cands + other_cands)
        mates = []
        for arrangement in arrangements:
            chunk = next(c for c in chunk_ids(desk_model, spectra, arrangement)
                         if target.spectrum_id in c)
            mates.append(sorted(set(chunk) - {target.spectrum_id}))
            for sel in rerank_run(desk_model, spectra, arrangement):
                np.testing.assert_array_equal(sel.scores, expected[sel.spectrum_id])
        assert all(mates) and len(set(map(tuple, mates))) == len(arrangements)

    def test_non_finite_spectrum_is_excluded_alone(self, table, desk_model, monkeypatch):
        spectra, cands = synthesize_dataset(table, seed=6, n_spectra=12)
        expected = b1_scores(desk_model, spectra, cands)
        poisoned = cands[5].spectrum_id
        assert any(poisoned in c and len(c) > 1 for c in chunk_ids(desk_model, spectra, cands))
        admit = pipeline.admit_records

        def admit_poisoned(*args, **kwargs):
            admitted, excluded = admit(*args, **kwargs)
            for cs, processed, _, _ in admitted:
                if cs.spectrum_id == poisoned:
                    processed.intensity[:] = np.nan  # NaN peak embeddings, so NaN scores
            return admitted, excluded

        monkeypatch.setattr(pipeline, "admit_records", admit_poisoned)
        selections = rerank_run(desk_model, spectra, cands)
        assert [sel.spectrum_id for sel in selections] == [i for i in expected if i != poisoned]
        for sel in selections:
            np.testing.assert_array_equal(sel.scores, expected[sel.spectrum_id])
        with pytest.raises(ValueError, match=f"spectrum '{poisoned}' excluded: non_finite_scores"):
            rerank_run(desk_model, spectra, cands, strict=True)

    @pytest.mark.parametrize("corpus", [*RERANK_CORPORA, "peaks300"])
    def test_scores_do_not_depend_on_file_order(self, table, desk_model, corpus, helped):
        config = RERANK_CORPORA.get(corpus, SynthConfig(noise_peaks=290))
        spectra, cands = synthesize_dataset(table, seed=7, n_spectra=24, config=config)
        permuted = [cands[i] for i in np.random.default_rng(0).permutation(len(cands))]
        runs = []
        for arrangement in (cands, permuted):
            selections = rerank_run(desk_model, spectra, arrangement)
            assert [sel.spectrum_id for sel in selections] == [
                cs.spectrum_id for cs in arrangement]
            runs.append({sel.spectrum_id: sel for sel in selections})
        in_file, in_permuted = runs
        for spectrum_id, sel in in_file.items():
            assert (np.array(in_permuted[spectrum_id].scores).tobytes()
                    == np.array(sel.scores).tobytes())

    def test_non_finite_spectra_are_named_in_file_order(self, table, desk_model, monkeypatch,
                                                        caplog):
        """The spectrum that shape order scores last is first in file order
        among the two poisoned ones: the warnings and the strict error still
        name it first."""
        spectra, cands = synthesize_dataset(table, seed=6, n_spectra=DESK_CHUNKED)
        admitted, _ = admit_records(spectra, cands, table, desk_model.config.embedding,
                                    labeled=False)
        order, _ = cell_chunks([processed.n_peaks for _, processed, _, _ in admitted],
                               grid_shapes([candidates for _, _, candidates, _ in admitted]))
        later = next(b for b in order if b > order[-1])  # scored before it, later in the file
        poisoned = [admitted[b][0].spectrum_id for b in (order[-1], later)]
        admit = pipeline.admit_records

        def admit_poisoned(*args, **kwargs):
            admitted, excluded = admit(*args, **kwargs)
            for cs, processed, _, _ in admitted:
                if cs.spectrum_id in poisoned:
                    processed.intensity[:] = np.nan
            return admitted, excluded

        monkeypatch.setattr(pipeline, "admit_records", admit_poisoned)
        with caplog.at_level("WARNING", logger=pipeline.logger.name):
            selections = rerank_run(desk_model, spectra, cands)
        assert [sel.spectrum_id for sel in selections] == [
            cs.spectrum_id for cs in cands if cs.spectrum_id not in poisoned]
        assert [r.getMessage() for r in caplog.records] == [
            f"spectrum {i!r} excluded: non_finite_scores" for i in poisoned]
        with pytest.raises(ValueError, match=f"spectrum '{poisoned[0]}' excluded: non_finite"):
            rerank_run(desk_model, spectra, cands, strict=True)


# desk grids (4 candidates of 7-20 residues) average about 60 cells, so
# DESK_CHUNKED desk spectra fill about two chunks, and twice as many four; the
# tests that need the chunks assert them
DESK_CHUNKED = pipeline.RERANK_CHUNK_CELLS // 32
THREAD_CORPORA = {  # desk, wide (as perfbench's) and 300-peak spectra
    "desk": (40, SynthConfig()),
    "wide": (6, SynthConfig(n_candidates=10, min_length=25, max_length=40, noise_peaks=90)),
    "peaks300": (DESK_CHUNKED, SynthConfig(noise_peaks=290)),
}


class TestThreadedRerank:
    """A request whose spectra average RERANK_THREAD_MIN_PEAKS peaks scores its
    odd chunks on a helper thread; see the ``helped`` fixture."""

    @pytest.fixture(scope="class")
    def desk_model(self, table):
        return RerankModel(ModelConfig.desk(table.tokens), table, seed=1)

    @pytest.mark.parametrize("corpus", THREAD_CORPORA)
    def test_selections_are_the_bytes_of_the_serial_run(self, table, desk_model, helped,
                                                        monkeypatch, corpus):
        n_spectra, config = THREAD_CORPORA[corpus]
        spectra, cands = synthesize_dataset(table, seed=3, n_spectra=n_spectra, config=config)
        written = []
        for min_peaks in (0, 10**9):  # threaded whatever the peaks, then serial
            monkeypatch.setattr(pipeline, "RERANK_THREAD_MIN_PEAKS", min_peaks)
            sink = io.StringIO()
            write_selections(rerank_run(desk_model, spectra, cands), sink)
            written.append(sink.getvalue())
        assert len(helped) == len(chunk_ids(desk_model, spectra, cands)) // 2 > 0
        assert written[0] == written[1]
        assert written[0].count("\n") == n_spectra + 1

    @pytest.mark.parametrize("cpus, noise_peaks", [({0, 1}, 0), ({0}, 90)])
    def test_desk_shape_or_one_cpu_stays_on_the_calling_thread(
            self, table, desk_model, helped, monkeypatch, cpus, noise_peaks):
        monkeypatch.setattr(threads.os, "sched_getaffinity", lambda pid: cpus, raising=False)
        spectra, cands = synthesize_dataset(table, seed=3, n_spectra=24,
                                            config=SynthConfig(noise_peaks=noise_peaks))
        assert len(chunk_ids(desk_model, spectra, cands)) > 1
        assert len(rerank_run(desk_model, spectra, cands)) == 24
        assert helped == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # the helper sets its own errstate
    def test_non_finite_spectra_are_excluded_in_file_order(self, table, desk_model, helped,
                                                           monkeypatch):
        spectra, cands = synthesize_dataset(table, seed=6, n_spectra=2 * DESK_CHUNKED,
                                            config=SynthConfig(noise_peaks=90))
        chunks = chunk_ids(desk_model, spectra, cands)
        assert len(chunks) >= 4
        # one of the calling thread's and one of the helper's, in file order
        poisoned = sorted([chunks[2][0], chunks[3][0]])
        expected = b1_scores(desk_model, spectra, cands, residues=False)
        admit = pipeline.admit_records

        def admit_poisoned(*args, **kwargs):
            admitted, excluded = admit(*args, **kwargs)
            for cs, processed, _, _ in admitted:
                if cs.spectrum_id in poisoned:
                    processed.intensity[:] = np.inf  # numpy warns on the NaNs that follow
            return admitted, excluded

        monkeypatch.setattr(pipeline, "admit_records", admit_poisoned)
        selections = rerank_run(desk_model, spectra, cands)
        assert [sel.spectrum_id for sel in selections] == [
            i for i in expected if i not in poisoned]
        for sel in selections:
            np.testing.assert_array_equal(sel.scores, expected[sel.spectrum_id])
        threads = threading.active_count()
        with pytest.raises(ValueError, match=f"spectrum '{poisoned[0]}' excluded: non_finite"):
            rerank_run(desk_model, spectra, cands, strict=True)
        assert threading.active_count() == threads
        assert len(helped) == 2 * (len(chunks) // 2)

    def test_attention_counts_are_exact_under_the_helper(self, table, desk_model, helped):
        spectra, cands = synthesize_dataset(table, seed=3, n_spectra=DESK_CHUNKED,
                                            config=SynthConfig(noise_peaks=90))
        desk_model.reset_attention_counts()
        b1_scores(desk_model, spectra, cands, residues=False)
        expected = desk_model.attn_counts
        for _ in range(20):
            desk_model.reset_attention_counts()
            rerank_run(desk_model, spectra, cands)
            assert desk_model.attn_counts == expected
        assert helped


class TestCellChunks:
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 40), st.integers(1, 40)),
                    max_size=40))
    def test_chunks_cover_the_shape_order_within_budget(self, spectra):
        peaks = [p for p, _, _ in spectra]
        shapes = [(c, w) for _, c, w in spectra]
        budget = pipeline.RERANK_CHUNK_CELLS
        order, chunks = cell_chunks(peaks, shapes)
        keys = [(p, w, c) for p, c, w in spectra]
        assert order == sorted(range(len(spectra)), key=lambda b: (keys[b], b))  # stable
        assert [b for chunk in chunks for b in order[chunk]] == order
        cells = [c * w for _, c, w in spectra]
        for chunk in chunks:
            assert sum(cells[b] for b in order[chunk]) <= budget or chunk.stop - chunk.start == 1
        for chunk, after in zip(chunks, chunks[1:]):  # a chunk closes only when full
            assert sum(cells[b] for b in order[chunk]) + cells[order[after.start]] > budget

    def test_oversized_spectrum_gets_a_chunk_alone(self):
        """Cells in tenths of the budget: 2, 4, 12, 2, 6, 1 in peak order,
        then an oversized spectrum sorted first."""
        budget = pipeline.RERANK_CHUNK_CELLS
        shapes = [(c * budget // 10, 1) for c in (2, 4, 12, 2, 6, 1)]
        assert cell_chunks(range(6), shapes) == (list(range(6)), [
            slice(0, 2), slice(2, 3), slice(3, 6)])
        assert cell_chunks([30, 30, 7], [(1, 1), (1, 1), (1, budget + 1)]) == (
            [2, 0, 1], [slice(0, 1), slice(1, 3)])
        assert cell_chunks([], np.zeros((0, 2), dtype=np.int64)) == ([], [])


WIDE = THREAD_CORPORA["wide"][1]


class TestThreadedTraining:
    """A training step's attention groups of at least
    ATTENTION_THREAD_MIN_SCORES scores run on the helper thread; see the
    ``helped`` fixture."""

    @staticmethod
    def train_wide(table, path):
        """Loss history, checkpoint bytes and one minibatch's gradients of a
        two-step wide run at dropout 0.3."""
        spectra, cands = synthesize_dataset(table, seed=3, n_spectra=16, config=WIDE)
        instances, _ = build_training_set(spectra, cands, table)
        config = TrainConfig.desk(table.tokens, epochs=1, batch_size=8)
        config = replace(config, model=replace(config.model, dropout_rate=0.3))
        checkpoint, history = train(config, instances, table, seed=5)
        save_checkpoint(checkpoint, str(path))
        model = RerankModel(config.model, table, seed=2)
        model.store.zero_grad()
        pipeline.minibatch_loss(model, instances[:8], np.random.default_rng(4)).backward()
        return ([repr(r.loss) for r in history], path.read_bytes(),
                [t.grad.tobytes() for t in model.store.tensors()])

    def test_wide_training_keeps_its_bits_with_the_helper(self, table, tmp_path, helped,
                                                          monkeypatch):
        runs = [self.train_wide(table, tmp_path / "default.ckpt")]
        submits = [len(helped)]
        monkeypatch.setattr(ag, "ATTENTION_THREAD_MIN_SCORES", 0)  # every group dealt
        runs.append(self.train_wide(table, tmp_path / "all.ckpt"))
        submits.append(len(helped) - sum(submits))
        monkeypatch.setattr(threads.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        runs.append(self.train_wide(table, tmp_path / "alone.ckpt"))
        submits.append(len(helped) - sum(submits))
        # wide deals in each of its 3 minibatches' 8 attentions, forward and backward
        assert submits == [48, 48, 0]
        assert runs[0] == runs[1] == runs[2]

    def test_desk_training_hands_the_helper_nothing(self, table, helped, monkeypatch):
        calls, attention = [], ag.attention
        monkeypatch.setattr(ag, "attention", lambda *args: calls.append(1) or attention(*args))
        spectra, cands = synthesize_dataset(table, seed=0, n_spectra=200)
        instances, _ = build_training_set(spectra, cands, table)
        config = TrainConfig.desk(table.tokens, epochs=2)
        _, history = train(config, instances, table, seed=5)
        # per layer, the spectrum encoder's and a mixer block's row, column and cross
        # attention, in each step and in train's closing check of a score
        assert len(calls) == 4 * config.model.n_layers * (len(history) + 1) > 200
        assert helped == []

    def test_scoring_forwards_never_deal(self, table, helped, monkeypatch):
        monkeypatch.setattr(ag, "ATTENTION_THREAD_MIN_SCORES", 0)
        spectra, cands = synthesize_dataset(table, seed=3, n_spectra=6, config=WIDE)
        model = RerankModel(ModelConfig.desk(table.tokens), table, seed=1)
        instances, _ = build_training_set(spectra, cands, table)
        with ag.no_grad():
            model.forward([i.spectrum for i in instances], [i.candidates for i in instances])
        assert helped == []
        assert len(rerank_run(model, spectra, cands)) == 6
        # rerank's odd chunks, and no attention group
        assert len(helped) == len(chunk_ids(model, spectra, cands)) // 2 > 0
        assert all(isinstance(chunk, slice) for (chunk,), _ in helped)


class TestZeroShotEval:
    def test_all_models_equals_plain_run(self, table):
        spectra, cands = synthesize_dataset(table, seed=20, n_spectra=5)
        model = RerankModel(small_config(table).model, table, seed=0)
        names = ["model_1", "model_2", "model_3", "model_4"]
        reports = zero_shot_eval(model, spectra, cands, [names])
        selections = rerank_run(model, spectra, cands)
        from peprank.evaluation import corpus_stats

        pairs = [
            (parse_peptide(sel.peptide, table), parse_peptide(cs.label, table))
            for sel, cs in zip(selections, cands)
        ]
        assert reports == [corpus_stats(pairs, table)]

    def test_single_model_subset_forces_selection(self, table):
        spectra, cands = synthesize_dataset(table, seed=21, n_spectra=5)
        model = RerankModel(small_config(table).model, table, seed=0)
        reports = zero_shot_eval(model, spectra, cands, [["model_2"]])
        # recall equals that model's standalone recall
        from peprank.evaluation import aa_match

        expected = np.mean(
            [
                aa_match(
                    parse_peptide(dict(cs.candidates)["model_2"], table),
                    parse_peptide(cs.label, table),
                    table,
                ).peptide_matched
                for cs in cands
            ]
        )
        assert reports[0].peptide_recall == pytest.approx(expected)

    def test_bad_label_names_its_spectrum(self, table):
        spectra, cands = synthesize_dataset(table, seed=22, n_spectra=2)
        model = RerankModel(small_config(table).model, table, seed=0)
        cands[1] = replace(cands[1], label="PEPZIDE")
        with pytest.raises(ValueError, match=f"spectrum '{cands[1].spectrum_id}': unknown "
                                             "residue token 'Z' in 'PEPZIDE'"):
            zero_shot_eval(model, spectra, cands, [["model_1", "model_2", "model_3", "model_4"]])

    def test_empty_subset_errors(self, table):
        spectra, cands = synthesize_dataset(table, seed=22, n_spectra=2)
        model = RerankModel(small_config(table).model, table, seed=0)
        with pytest.raises(ValueError, match="no candidates from subset"):
            zero_shot_eval(model, spectra, cands, [["nonexistent"]])

    def test_a_subset_that_admits_no_spectrum_is_named(self, table):
        spectra, cands = synthesize_dataset(table, seed=11, n_spectra=4)
        for cs in cands:
            cs.candidates.append(("model_9", "GAVKP" * 8))  # 40 residues, over max_len 30
        model = load_checkpoint(str(DATA / "v1_tiny.ckpt")).build_model(table)
        assert model.config.embedding.max_len == 30
        assert zero_shot_eval(model, spectra, cands, [["model_1"]])[0].n_all_pep == 4
        with pytest.raises(ValueError, match=r"^subset \['model_9'\]: every spectrum was excluded$"):
            zero_shot_eval(model, spectra, cands, [["model_1"], ["model_9"]])


class TestCheckpointIo:
    def test_round_trip_bit_identical(self, table, tmp_path):
        config = small_config(table)
        model = RerankModel(config.model, table, seed=5)
        checkpoint = Checkpoint(
            config=config.model,
            params=model.store.export_arrays(),
            seed=5,
            step_count=17,
        )
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(checkpoint, path)
        loaded = load_checkpoint(path)
        assert loaded.config == checkpoint.config
        assert loaded.seed == 5 and loaded.step_count == 17
        assert set(loaded.params) == set(checkpoint.params)
        for name, array in checkpoint.params.items():
            np.testing.assert_array_equal(loaded.params[name], array)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameter_refused_before_writing(self, table, tmp_path, value):
        config = small_config(table)
        params = RerankModel(config.model, table, seed=0).store.export_arrays()
        params["head/rmd_b"][0] = value
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match="refusing to save parameter 'head/rmd_b'"):
            save_checkpoint(Checkpoint(config.model, params, 0, 0), str(path))
        assert not path.exists()

    def test_corrupted_magic(self, table, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(str(path))

    def test_truncated_payload(self, table, tmp_path):
        config = small_config(table)
        model = RerankModel(config.model, table, seed=0)
        checkpoint = Checkpoint(config.model, model.store.export_arrays(), 0, 0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint, str(path))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(str(path))

    def test_shape_mismatch_names_parameter(self, table, tmp_path):
        config = small_config(table)
        model = RerankModel(config.model, table, seed=0)
        params = model.store.export_arrays()
        params["head/pmd_w"] = np.zeros((3, 3))
        checkpoint = Checkpoint(config.model, params, 0, 0)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(checkpoint, path)
        loaded = load_checkpoint(path)
        with pytest.raises(ValueError, match="head/pmd_w"):
            loaded.build_model(table)

    def test_build_model_reproduces_outputs(self, table, tmp_path):
        spectra, cands = synthesize_dataset(table, seed=23, n_spectra=2)
        config = small_config(table, epochs=1)
        instances, _ = build_training_set(spectra, cands, table)
        checkpoint, _ = train(config, instances, table, seed=1)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(checkpoint, path)
        model = load_checkpoint(path).build_model(table)
        a = rerank_run(model, spectra, cands)
        b = rerank_run(checkpoint.build_model(table), spectra, cands)
        assert a == b

    def saved_bytes(self, table, tmp_path) -> bytes:
        config = small_config(table)
        model = RerankModel(config.model, table, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(Checkpoint(config.model, model.store.export_arrays(), 0, 0), str(path))
        return path.read_bytes()

    @staticmethod
    def with_header(data: bytes, mutate) -> bytes:
        (length,) = struct.unpack("<I", data[8:12])
        header = json.loads(data[12 : 12 + length])
        mutate(header)
        encoded = json.dumps(header).encode("utf-8")
        return data[:8] + struct.pack("<I", len(encoded)) + encoded + data[12 + length :]

    def test_trailing_bytes_rejected(self, table, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(self.saved_bytes(table, tmp_path) + b"\x00")
        with pytest.raises(ValueError, match="trailing bytes"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameter_rejected(self, table, tmp_path, bad):
        data = self.saved_bytes(table, tmp_path)
        path = tmp_path / "bad.ckpt"
        path.write_bytes(data[:-8] + struct.pack("<d", bad))  # last record: head/rmd_b
        with pytest.raises(ValueError, match="'head/rmd_b' holds non-finite"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("mutate,message", [
        (lambda h: h["model"].update(width=3), r"unknown keys \['width'\]"),
        (lambda h: h["model"].pop("max_len"), r"missing keys \['max_len'\]"),
        (lambda h: h.update(model=[16]), "model config must be a JSON object"),
        (lambda h: h.update(epoch=2), "header must hold exactly"),
        (lambda h: h.pop("seed"), "header must hold exactly"),
    ])
    def test_header_keys_checked(self, table, tmp_path, mutate, message):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(self.with_header(self.saved_bytes(table, tmp_path), mutate))
        with pytest.raises(ValueError, match=message):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("mutate,message", [
        (lambda h: h.update(seed="x"), "seed and step_count must be integers"),
        (lambda h: h.update(step_count=True), "seed and step_count must be integers"),
        (lambda h: h["model"].update(d="16"), "d has the wrong type"),
        (lambda h: h["model"].update(max_len=30.0), "max_len has the wrong type"),
        (lambda h: h["model"].update(loss_lambda=None), "loss_lambda has the wrong type"),
        (lambda h: h["model"].update(vocab=["G", 1]), "vocab must be a list of strings"),
        (lambda h: h["model"].update(n_heads=0), "n_heads must be positive"),
        (lambda h: h["model"].update(mu_max=float("nan")), "require 0 < mu_min < mu_max < inf"),
        (lambda h: h["model"].update(mu_min=float("nan")), "require 0 < mu_min < mu_max < inf"),
        (lambda h: h["model"].update(mu_max=float("inf")), "require 0 < mu_min < mu_max < inf"),
        (lambda h: h["model"].update(dropout_rate=float("nan")), "dropout_rate must be in"),
        (lambda h: h["model"].update(dropout_rate=1.0), "dropout_rate must be in"),
    ])
    def test_header_value_types_checked(self, tmp_path, capsys, mutate, message):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(self.with_header((DATA / "v1_tiny.ckpt").read_bytes(), mutate))
        with pytest.raises(ValueError, match=message):
            load_checkpoint(str(path))
        code = cli_main(["rerank", "--checkpoint", str(path),
                         "--mgf", "unused.mgf", "--candidates", "unused.jsonl"])
        assert code == 2
        assert message in capsys.readouterr().err

    @staticmethod
    def record_layout(data: bytes) -> tuple[dict[str, int], list[int]]:
        """Offsets of each parameter's first dimension, and of every byte
        that is not a parameter value (magic, header, names, shapes)."""
        (header_len,) = struct.unpack("<I", data[8:12])
        pos = 12 + header_len + 4
        dims, structure = {}, list(range(pos))
        while pos < len(data):
            (name_len,) = struct.unpack("<I", data[pos : pos + 4])
            name = data[pos + 4 : pos + 4 + name_len].decode("utf-8")
            (ndim,) = struct.unpack("<I", data[pos + 4 + name_len : pos + 8 + name_len])
            dims[name] = pos + 8 + name_len
            end = dims[name] + 8 * ndim
            structure.extend(range(pos, end))
            pos = end + 8 * int(np.prod(struct.unpack(f"<{ndim}Q", data[dims[name] : end])))
        return dims, structure

    @pytest.mark.parametrize("dim", [2**40, 2**61, 2**64 - 1])
    def test_oversized_record_rejected_before_reading(self, tmp_path, capsys, dim):
        """2^40 rows would need terabytes, 2^64-1 overflows a C index, and
        2^61 rows wrap a fixed-width product of the shape to 0."""
        data = (DATA / "v1_tiny.ckpt").read_bytes()
        offset = self.record_layout(data)[0]["embed/residue"]
        path = tmp_path / "bad.ckpt"
        path.write_bytes(data[:offset] + struct.pack("<Q", dim) + data[offset + 8 :])
        message = "truncated checkpoint while reading payload of 'embed/residue'"
        with pytest.raises(ValueError, match=message):
            load_checkpoint(str(path))
        code = cli_main(["rerank", "--checkpoint", str(path),
                         "--mgf", "unused.mgf", "--candidates", "unused.jsonl"])
        assert code == 2
        assert message in capsys.readouterr().err

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_bytes_load_or_raise_value_error(self, tmp_path_factory, data):
        """Each byte flip, truncation or insertion of the v1 fixture either
        loads as a Checkpoint or raises ValueError, and nothing else."""
        original = (DATA / "v1_tiny.ckpt").read_bytes()
        kind = data.draw(st.sampled_from(["flip", "truncate", "insert"]))
        # most bytes are parameter values; aim half the mutations at the rest
        structure = self.record_layout(original)[1]
        at = data.draw(st.one_of(st.integers(0, len(original) - 1), st.sampled_from(structure)))
        if kind == "flip":
            bit = data.draw(st.integers(0, 7))
            mutant = original[:at] + bytes([original[at] ^ (1 << bit)]) + original[at + 1 :]
        elif kind == "truncate":
            mutant = original[:at]
        else:
            mutant = original[:at] + data.draw(st.binary(min_size=1, max_size=8)) + original[at:]
        path = tmp_path_factory.getbasetemp() / "mutant.ckpt"
        path.write_bytes(mutant)
        try:
            assert isinstance(load_checkpoint(str(path)), Checkpoint)
        except ValueError:
            pass

    def test_version_1_fixture_loads_unchanged(self, table, tmp_path):
        expected = json.loads((DATA / "v1_tiny_scores.json").read_text())
        checkpoint = load_checkpoint(str(DATA / "v1_tiny.ckpt"))
        config = checkpoint.config
        assert ModelConfig.from_dict(config.to_dict()) == config
        assert json.dumps(config.to_dict()) == expected["model_header"]
        resaved = tmp_path / "resaved.ckpt"
        save_checkpoint(checkpoint, str(resaved))
        assert resaved.read_bytes() == (DATA / "v1_tiny.ckpt").read_bytes()
        spectra, cands = synthesize_dataset(
            table, seed=expected["synth_seed"], n_spectra=expected["n_spectra"]
        )
        selections = rerank_run(checkpoint.build_model(table), spectra, cands)
        scores = {s.spectrum_id: [repr(v) for v in s.scores] for s in selections}
        assert scores == expected["scores"]


# Digests of training runs and gradients recorded before the graph stopped
# holding the buffers that no backward reads; the arithmetic is unchanged, so
# every bit is. BLAS is pinned to one thread in a child process, because a
# GEMM's last bits may depend on how many threads split it. The values were
# recorded with scipy-openblas 0.3.31 on an AVX-512 Xeon; another BLAS kernel
# may round differently, as it may for the v1 fixture's scores.
EXACT_BITS_SCRIPT = """
import hashlib
from dataclasses import replace
import numpy as np
from peprank import default_mass_table, pipeline
from peprank.model import ModelConfig, RerankModel
from peprank.pipeline import SynthConfig, TrainConfig, build_training_set, synthesize_dataset

def digest(arrays):
    hasher = hashlib.sha256()
    for array in arrays:
        hasher.update(np.ascontiguousarray(array).tobytes())
    return hasher.hexdigest()

table = default_mass_table()
spectra, cands = synthesize_dataset(table, seed=1, n_spectra=24)
instances, _ = build_training_set(spectra, cands, table)
for rate in (0.0, 0.3):
    config = TrainConfig.desk(table.tokens, epochs=2, batch_size=8)
    config = replace(config, model=replace(config.model, dropout_rate=rate))
    checkpoint, history = pipeline.train(config, instances, table, seed=5)
    print("desk", rate, *(repr(r.loss) for r in history), digest(checkpoint.params.values()))
wide = SynthConfig(n_candidates=10, min_length=25, max_length=40, noise_peaks=90)
spectra, cands = synthesize_dataset(table, seed=3, n_spectra=10, config=wide)
instances, _ = build_training_set(spectra, cands, table)
for rate in (0.0, 0.3):
    model = RerankModel(replace(ModelConfig.desk(table.tokens), dropout_rate=rate), table, seed=2)
    model.store.zero_grad()
    rng = np.random.default_rng(4) if rate else None
    loss = pipeline.minibatch_loss(model, instances[:8], rng)
    value = repr(float(loss.data))
    loss.backward()
    print("wide", rate, value, digest(t.grad for t in model.store.tensors()))
"""

EXACT_BITS = [
    "desk 0.0 15.884744167622014 15.227772274035708 15.672124560220535 17.017464233370596 "
    "15.405343150038483 14.718625346522224 "
    "df5bd15b2ae5181f46f1d86874f80ab5405a3560ee403da9fc00b60202aa87d5",
    "desk 0.3 16.129901769899952 15.45499605959144 15.945259765484515 16.81445604443244 "
    "14.689298060104168 14.653758330403551 "
    "dd34cb99ae2c08299a4113f2f19f29134ae58fedc9726e6213e0cfd7a62bf936",
    "wide 0.0 12.179775632607292 "
    "7c273bc20ec2f601ed81484f1a92fc3513e47f85e33af4382287f8e629252938",
    "wide 0.3 12.499965595269899 "
    "ba6363eed53545e2c0f9232420082a90d0e375ba96e44ddd5de9ebdf194f7b5f",
]


def test_training_losses_and_gradients_keep_their_recorded_bits():
    """Per-step losses and final parameters of a 6-step desk run, and one
    wide 8-instance minibatch's loss and parameter gradients, at dropout 0
    and 0.3, bit for bit."""
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    result = subprocess.run([sys.executable, "-c", EXACT_BITS_SCRIPT], capture_output=True,
                            text=True, check=True, env=env)
    assert result.stdout.splitlines() == EXACT_BITS
