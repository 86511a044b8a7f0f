"""Run one workload of the peprank benchmark and print its metrics.

    python3 perfbench/run.py --workload desk-train --seed 0 --seconds 20 --trace 0

Inputs are generated from ``--seed`` into ``.perfbench_work/`` under the
checkout, checked against recorded digests, and removed afterwards.
peprank is imported from ``src/`` of the same checkout. With ``--trace 0``
the end-to-end metrics are printed; with ``--trace 1`` the workload runs
once more slowly with spans installed and the per-layer metrics are
printed. Each metric is printed on its own line with its unit, then a
JSON report (machine fingerprint, failure accounting, checks), and last
one JSON object with the keys correct, attempted, failed and metrics.

Exit codes: 0 measured and every output check passed; 1 an output check
or the workload failed; 2 the benchmark could not start (no peprank
sources beside it, unknown workload, or inputs that differ from the
recorded digests).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
PEPRANK_MODULES = ("peprank", "peprank.pipeline", "peprank.model", "peprank.spectra",
                   "peprank.evaluation")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def single_threaded_blas() -> dict:
    """Default BLAS to one thread in this process; return what the caller had set.

    The benchmark is one client on one thread. BLAS worker threads compete
    with it for the two vCPUs of a shared machine: they made the step times
    of ``wide`` about three times noisier without making them faster.
    """
    inherited = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    return inherited


def import_peprank() -> float:
    """Import peprank from this checkout's ``src/``; return the seconds it took."""
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    for name in PEPRANK_MODULES:
        importlib.import_module(name)
    elapsed = perf_counter() - start
    origin = Path(sys.modules["peprank"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"peprank was imported from {origin}, not from {SRC}")
    return elapsed


def emit(metrics: dict, report: dict, correct: bool, attempted: int, failed: int) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name}\t{value!r}\t{unit}")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still removes its generated inputs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "peprank" / "__init__.py").is_file():
        print(f"perfbench: no peprank sources at {SRC}", file=sys.stderr)
        return 2
    blas_threads_inherited = single_threaded_blas()
    try:
        import_s = import_peprank()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from perfbench import session as sessions
    from perfbench import workloads
    from perfbench.tracing import Tracer, install_peprank

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=WORK_DIR))
    try:
        inputs = workloads.generate(workload, args.seed, workdir)
        digest = workloads.digest(inputs)
        try:
            provenance = workloads.check_provenance(
                workload.name, args.seed, digest, workloads.load_digests()
            )
        except workloads.ProvenanceError as exc:
            print(f"perfbench: refusing to run: {exc}", file=sys.stderr)
            return 2

        tracer = install_peprank(Tracer()) if args.trace else None
        session = sessions.Session(workload, args.seed, inputs, workdir, args.seconds, tracer)
        try:
            session.run()
        except (ValueError, RuntimeError):
            traceback.print_exc()
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            return 1
        finally:
            if tracer is not None:
                tracer.restore()
        referenced = session.check_reference(sessions.load_references())

        report = {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "machine": sessions.fingerprint(),
            "blas_thread_env_inherited": blas_threads_inherited,
            "inputs": {"sha256": digest, "digest_recorded": provenance},
            "reference_checked": referenced,
            "checks": session.checks.results,
            "check_failures": session.checks.notes[:20],
            "accounting": session.accounting,
            "train_steps": len(session.step_s),
            "quality.peptide_recall": session.stats.peptide_recall,
            "train.step_ms.p90": session.step_p90_ms(),
        }
        if args.trace:
            metrics = session.per_layer(session.measure_overhead())
            shares = session.train_shares()
            report["train_shares"] = {
                name: {"share": share,
                       "baseline": sessions.BASELINE_TRAIN_SHARES.get(name)}
                for name, share in shares.items()
            }
        else:
            metrics = session.end_to_end(import_s)
            report["wall_clock"] = session.wall_clock(import_s)

        acc = session.accounting
        attempted = (acc["prep"]["spectra_parsed"]["attempted"]
                     + acc["train"]["steps"]["attempted"]
                     + acc["rerank"]["spectra"]["attempted"])
        failed = (acc["prep"]["spectra_parsed"]["failed"]
                  + acc["train"]["steps"]["failed"]
                  + acc["rerank"]["spectra"]["failed"])
        correct = session.checks.ok and failed == 0
        emit(metrics, report, correct, attempted, failed)
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
