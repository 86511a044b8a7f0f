from typing import Callable, Sequence

import numpy as np
import pytest

from peprank import autograd as ag, threads
from peprank.autograd import Tensor
from peprank.evaluation import AA_TOLERANCE, CUM_TOLERANCE
from peprank.masses import MassTable, Peptide, default_mass_table, residue_masses
from peprank.metrics import gap_penalty


@pytest.fixture(scope="session")
def table() -> MassTable:
    return default_mass_table()


@pytest.fixture()
def tiny_table() -> MassTable:
    return MassTable({"G": 57.02146, "A": 71.03711})


@pytest.fixture()
def helped(monkeypatch):
    """What is handed to the helper thread, one (args, future) per submit,
    with two usable CPUs."""
    submitted = []
    helper = threads.helper

    class Recording:
        def __init__(self, pool):
            self.pool = pool

        def submit(self, fn, *args):
            future = self.pool.submit(fn, *args)
            submitted.append((args, future))
            return future

    monkeypatch.setattr(threads.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(threads, "helper", lambda: None if (pool := helper()) is None
                        else Recording(pool))
    return submitted


def random_table(rng: np.random.Generator, n_tokens: int = 6) -> MassTable:
    """A table of synthetic tokens with random positive masses."""
    masses = rng.uniform(40.0, 200.0, size=n_tokens)
    return MassTable({f"t{i}": float(m) for i, m in enumerate(masses)})


def grad_check(
    f: Callable[[], Tensor],
    inputs: Sequence[Tensor],
    h: float = 1e-5,
    max_coords_per_input: int | None = None,
    seed: int = 0,
) -> float:
    """Compare analytic gradients of a deterministic scalar function against
    central finite differences.

    ``f`` recomputes the forward pass from the current contents of
    ``inputs``, whose data is perturbed in place coordinate by coordinate.
    Returns the maximum relative error |analytic - numeric| / max(1, |numeric|)
    over the checked coordinates. ``max_coords_per_input`` subsamples
    coordinates (deterministically) for large inputs.
    """
    inputs = list(inputs)
    for t in inputs:
        t.data = np.ascontiguousarray(t.data)  # flat views below must alias
        t.requires_grad = True
        t.grad = None
    out = f()
    if out.size != 1:
        raise ValueError("grad_check requires a scalar-valued function")
    ag.backward(out)
    analytic = [
        np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in inputs
    ]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t, grads in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords_per_input is not None and flat.size > max_coords_per_input:
            coords = rng.choice(flat.size, size=max_coords_per_input, replace=False)
        for c in coords:
            saved = flat[c]
            flat[c] = saved + h
            up = float(f().data)
            flat[c] = saved - h
            down = float(f().data)
            flat[c] = saved
            numeric = (up - down) / (2.0 * h)
            err = abs(grads.reshape(-1)[c] - numeric) / max(1.0, abs(numeric))
            if err > worst:
                worst = err
    return worst


def reference_softmax(scores: np.ndarray, mask) -> np.ndarray:
    """Masked softmax over the last axis by numpy's plain reductions: masked
    entries to -inf, then max-shift, exp, sum and divide. The reference that
    ``autograd._softmax_forward`` must equal bit for bit; its short-row
    branches rely on numpy's summation order, so a numpy that changes it
    fails against this first."""
    scores = scores.copy()
    if mask is not None:
        np.copyto(scores, -np.inf, where=~np.asarray(mask, dtype=bool))
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def reference_pmd(query: Peptide, target: Peptide, table: MassTable) -> float:
    """PMD by the textbook dynamic program, one Python cell at a time: the
    reference that ``pmd_many`` (and its one-pair case ``pmd``) must equal
    bit for bit. The first row and column hold gap multiples; each interior
    cell is the minimum of diagonal + |q_i - k_j|, up + g and left + g."""
    g = gap_penalty(table)
    qm = residue_masses(query, table).tolist()
    km = residue_masses(target, table).tolist()
    prev = [g * j for j in range(len(km) + 1)]
    for i, qi in enumerate(qm, start=1):
        cur = [g * i] + [0.0] * len(km)
        for j in range(1, len(km) + 1):
            cur[j] = min(prev[j - 1] + abs(qi - km[j - 1]), prev[j] + g, cur[j - 1] + g)
        prev = cur
    return float(prev[-1] / g)


def reference_walk(pred: Peptide, truth: Peptide,
                   table: MassTable) -> list[tuple[int, int, bool]]:
    """The residue-match rule as a two-pointer walk over one pair: the
    reference that ``evaluation.align`` must equal. Yields (pred_index,
    truth_index, matched) wherever the cumulative-through masses agree
    within CUM_TOLERANCE."""
    pm, tm = residue_masses(pred, table), residue_masses(truth, table)
    aligned: list[tuple[int, int, bool]] = []
    i = j = 0
    cp = ct = 0.0  # cumulative mass before the current residue
    while i < len(pm) and j < len(tm):
        cpi, ctj = cp + pm[i], ct + tm[j]
        if abs(cpi - ctj) < CUM_TOLERANCE:
            matched = abs(pm[i] - tm[j]) < AA_TOLERANCE and abs(cp - ct) < CUM_TOLERANCE
            aligned.append((i, j, bool(matched)))
            i, j, cp, ct = i + 1, j + 1, cpi, ctj
        elif cpi < ctj:
            i, cp = i + 1, cpi
        else:
            j, ct = j + 1, ctj
    return aligned
