"""Tests of the benchmark's own machinery: spans, restoring, counting, provenance."""

import types

import numpy as np
import pytest

from peprank import autograd as ag
from peprank import evaluation, masses, model, pipeline, spectra
from peprank.encoders import EmbeddingConfig
from peprank.masses import Precursor, default_mass_table, parse_peptide
from peprank.spectra import ProcessedSpectrum
from perfbench import workloads
from perfbench.tracing import Tracer, autograd_ops, install_peprank, self_times


def test_self_times_subtract_direct_children_only():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("d", 5.0, 9.0, 0),
        ("a", 10.0, 12.0, -1),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({"a": 10 - 3 - 4 + 2, "b": 3 - 1, "c": 1, "d": 4})
    assert sum(selfs.values()) == pytest.approx(12.0)  # the roots' total


def test_wrapped_calls_record_nested_spans():
    calls = types.SimpleNamespace()
    calls.inner = lambda x: x + 1
    calls.outer = lambda x: calls.inner(x) * 2
    with Tracer() as tracer:
        tracer.span(calls, "inner", "inner")
        tracer.span(calls, "outer", "outer")
        assert calls.outer(1) == 4
        assert calls.inner(1) == 2
    spans = tracer.finished_spans()
    assert [(name, parent) for name, _, _, parent in spans] == [
        ("outer", -1), ("inner", 0), ("inner", -1)
    ]
    outer, inner = spans[0], spans[1]
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


def _public_names():
    owners = [ag, evaluation, masses, model, pipeline, spectra, ag.ParameterStore,
              model.RerankModel, pipeline.AdamW, pipeline.Checkpoint]
    return {(id(owner), attr): value
            for owner in owners for attr, value in list(vars(owner).items())}


def _tiny_forward():
    table = default_mass_table()
    config = model.ModelConfig(d=16, n_layers=1, n_heads=2, ff_dim=32,
                               embedding=EmbeddingConfig(d=16, max_len=10),
                               vocab=table.tokens)
    net = model.RerankModel(config, table, seed=0)
    spectrum = ProcessedSpectrum("s", np.array([100.0, 200.0]), np.array([0.5, 0.5]),
                                 np.array([1.0, 1.0]), Precursor.from_mz(300.0, 2))
    candidates = [parse_peptide(text, table) for text in ("GAV", "GAVK")]
    output, _ = net.forward(spectrum, candidates)
    return net, output


def test_traced_run_restores_every_wrapped_name():
    before = _public_names()
    tracer = install_peprank(Tracer())
    try:
        assert _public_names() != before
        net, _ = _tiny_forward()
    finally:
        tracer.restore()
    assert _public_names() == before
    assert tracer.models == {id(net): net}
    names = {name for name, _, _, _ in tracer.finished_spans()}
    assert {"model.forward", "model.axial_block", "encoders.assemble_msa"} <= names


def test_traced_forward_matches_untraced():
    _, plain = _tiny_forward()
    with install_peprank(Tracer()):
        _, traced = _tiny_forward()
    np.testing.assert_array_equal(plain.pmd_pred.data, traced.pmd_pred.data)


def test_op_counter_sums_exactly_over_a_tiny_graph():
    with Tracer() as tracer:
        for op in autograd_ops(ag):
            tracer.count(ag, op, "ops")
        x = ag.Tensor(np.ones((2, 3)), requires_grad=True)
        w = ag.Tensor(np.ones((3, 4)), requires_grad=True)
        b = ag.Tensor(np.zeros(4), requires_grad=True)
        y = ag.linear(x, w, b)  # linear -> matmul + add: 3 calls
        assert tracer.counters["ops"] == 3
        loss = ag.tensor_sum(y * 2.0 + y)  # mul, add, tensor_sum: 3 calls
        assert tracer.counters["ops"] == 6
        ag.backward(loss)  # backward runs closures, not ops
        assert tracer.counters["ops"] == 6
    assert "backward" not in autograd_ops(ag) and "linear" in autograd_ops(ag)


def test_digest_guard_rejects_a_mutated_input(tmp_path):
    tiny = workloads.Workload(name="tiny", n_spectra=3, part_size=2, generated_checkpoint=True)
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    inputs = workloads.generate(tiny, 5, first)
    recorded = {"tiny": {"5": workloads.digest(inputs)}}
    assert workloads.digest(workloads.generate(tiny, 5, second)) == recorded["tiny"]["5"]
    assert workloads.check_provenance("tiny", 5, workloads.digest(inputs), recorded)
    assert not workloads.check_provenance("tiny", 6, "anything", recorded)

    for path in inputs.files():
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 1
        path.write_bytes(bytes(data))
        with pytest.raises(workloads.ProvenanceError):
            workloads.check_provenance("tiny", 5, workloads.digest(inputs), recorded)
        data[len(data) // 2] ^= 1
        path.write_bytes(bytes(data))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_recorded_digests_match_input_generation(name, tmp_path):
    recorded = workloads.load_digests()
    inputs = workloads.generate(workloads.WORKLOADS[name], 0, tmp_path)
    assert workloads.check_provenance(name, 0, workloads.digest(inputs), recorded)
