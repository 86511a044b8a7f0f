"""Record the input digests and reference outputs the benchmark checks against.

    python3 perfbench/record.py digests --seeds 0-99
    python3 perfbench/record.py references --seeds 0-2

``digests`` pins the bytes that input generation writes (MGF, candidate
JSONL, checkpoint) for each workload and seed; ``run.py`` refuses to run
when freshly generated inputs hash differently. ``references`` pins the
outputs of a run (per-step loss, selected indices, scores) that later runs
of that seed must reproduce. Re-record only when a change to input
generation or to the model's outputs is intended, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.run import WORK_DIR, import_peprank, single_threaded_blas  # noqa: E402


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("what", choices=("digests", "references"))
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-99")
    parser.add_argument("--workloads", nargs="*", help="default: every workload")
    args = parser.parse_args(argv)
    single_threaded_blas()
    import_peprank()
    from perfbench import session as sessions
    from perfbench import workloads

    names = args.workloads or sorted(workloads.WORKLOADS)
    if args.what == "digests":
        path, recorded = workloads.DIGESTS_PATH, workloads.load_digests()
    else:
        path, recorded = sessions.REFERENCES_PATH, sessions.load_references()
    WORK_DIR.mkdir(exist_ok=True)
    for name in names:
        workload = workloads.WORKLOADS[name]
        for seed in args.seeds:
            workdir = Path(tempfile.mkdtemp(prefix=f"record-{name}-{seed}-", dir=WORK_DIR))
            try:
                inputs = workloads.generate(workload, seed, workdir)
                if args.what == "digests":
                    value = workloads.digest(inputs)
                else:
                    session = sessions.Session(workload, seed, inputs, workdir, seconds=0.0)
                    session.run()
                    if not session.checks.ok:
                        print(f"{name} seed {seed}: output checks failed: "
                              f"{session.checks.notes}", file=sys.stderr)
                        return 1
                    value = session.reference()
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            recorded.setdefault(name, {})[str(seed)] = value
            print(f"recorded {args.what} for {name} seed {seed}", file=sys.stderr)
    with open(path, "w", encoding="utf-8") as sink:
        if args.what == "digests":
            json.dump(recorded, sink, indent=1, sort_keys=True)
            sink.write("\n")
        else:
            for name in sorted(recorded):
                for seed in sorted(recorded[name], key=int):
                    record = {"workload": name, "seed": seed, "outputs": recorded[name][seed]}
                    sink.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
