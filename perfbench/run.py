#!/usr/bin/env python3
"""The rawfilter benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload senml_scoped --seed 1 --seconds 24 --trace 0

Run it from the root of a source tree: it imports `src/rawfilter`. It
builds the seeded input (cached under .perfbench_cache/), measures the
workload in a child process (perfbench/measure.py) with one thread and one
pass at a time, checks the outputs against exact ground truth, and prints
a detail line (provenance, checks, samples) followed by the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones, taken from traced passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from checks import check_run_output, split_records
from workloads import READ_BYTES, WORKLOADS, ensure_inputs

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
TIME_LIMIT_S = 170

END_TO_END = {
    "throughput_mb_s": "MB/s",
    "configs_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "accepted_per_match": "ratio",
    "sound_share": "ratio",
}

PER_LAYER = {
    "scanner.fallback_chunks": "count",
    "scanner.fallback_s": "s",
    "batch.index_s": "s",
    "batch.index_mb_s": "MB/s",
    "batch.index_calls": "count",
    "batch.rescan_ratio": "ratio",
    "batch.tokens_s": "s",
    "batch.numeric_tokens": "count",
    "batch.eval_self_s": "s",
    "strings.fire_s.s1": "s",
    "strings.fire_s.s2": "s",
    "strings.fire_s.sN": "s",
    "strings.fires": "count",
    "strings.latch_share": "ratio",
    "ranges.compile_s": "s",
    "ranges.fire_s": "s",
    "ranges.fires": "count",
    "ranges.heuristic_share": "ratio",
    "filter.validate_s": "s",
    "oracle.label_s": "s",
    "oracle.label_mb_s": "MB/s",
    "oracle.parse_fail": "count",
    "explorer.enumerate_s": "s",
    "explorer.eval_s": "s",
    "explorer.config_ms.p50": "ms",
    "explorer.config_ms.p99": "ms",
    "explorer.cost_s": "s",
    "explorer.notation_s": "s",
    "explorer.pareto_s": "s",
    "explorer.csv_s": "s",
    "explorer.primitive_builds": "count",
    "cli.chunks": "count",
    "cli.write_s": "s",
    "cli.fire_counts_s": "s",
    "cli.records_out": "count",
    "cli.accept_ratio": "ratio",
    "trace.overhead_s": "s",
    "trace.uncovered_share": "ratio",
    "fpr": "ratio",
    "failed_share": "ratio",
}


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _measure(args, inputs, work, deadline, *extra) -> None:
    subprocess.run(
        [
            sys.executable, str(HERE / "measure.py"),
            "--kind", WORKLOADS[args.workload].kind,
            "--inputs", str(inputs.dir), "--work", str(work),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--read-bytes", str(args.read_bytes), *extra,
        ],
        stdout=subprocess.DEVNULL, check=True, timeout=max(1.0, deadline - time.monotonic()),
    )


def _check_run(inputs, work) -> tuple[dict, int, bool]:
    """(counts, records per pass, correct) for the saved output of a pass."""
    records = split_records(inputs.corpus.read_bytes())
    check = check_run_output(records, inputs.truth, inputs.known, (work / "output.ndjson").read_bytes())
    counts = {
        "tp": check.tp, "fp": check.fp, "tn": check.tn, "fn": check.fn,
        "fn_known_defect": check.fn_known, "wrong_records": check.wrong, "failed": check.failed,
    }
    return counts, len(records), check.correct


def _check_explore(inputs, result) -> tuple[dict, int, bool]:
    """(counts summed over configs, record evaluations per pass, correct)."""
    first = result["first"]
    n, configs = len(inputs.truth), result["n_configs"]
    labels = np.asarray(result["label_matches"], dtype=bool)
    label_errors = int(np.count_nonzero(labels != inputs.truth)) if len(labels) == n else n
    failed = first["fn"] + label_errors * configs
    if first["configs"] != configs:
        failed = n * configs
    counts = {k: first[k] for k in ("tp", "fp", "tn", "fn", "configs", "configs_with_fn", "pareto_points")}
    counts.update({"oracle_label_errors": label_errors, "failed": failed})
    return counts, n * configs, failed == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="input size factor; below 1 only for the benchmark's own smoke test",
    )
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    # On SIGTERM, unwind so that subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "rawfilter" / "__init__.py").is_file():
        print("error: run from the root of a rawfilter source tree (src/rawfilter missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    args.read_bytes = int(READ_BYTES * args.scale)
    workload = WORKLOADS[args.workload]
    cache = root / ".perfbench_cache"
    inputs = ensure_inputs(workload, args.seed, args.scale, cache)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=cache))
    try:
        try:
            # Set-up is short and noisy: time it several times and report
            # the median. A run set-up starts with the import, so each one
            # gets a fresh process; explore repeats its set-up in one.
            repeats = []
            if not args.trace:
                if workload.kind == "run":
                    for _ in range(SETUP_REPEATS - 1):
                        _measure(args, inputs, work, deadline, "--setup-only")
                else:
                    repeats = ["--setup-repeats", str(SETUP_REPEATS)]
            _measure(args, inputs, work, deadline, *repeats)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            # A crash or a hang counts every record as failed.
            print(f"error: measuring process failed: {exc}", file=sys.stderr)
            n = inputs.meta["input_records"]
            print(json.dumps({"correct": False, "attempted": n, "failed": n, "metrics": {}}))
            return 1
        result = json.loads((work / "result.json").read_text())
        setup = result["setup_s"] + [
            t for p in sorted(work.glob("setup-*.json")) for t in json.loads(p.read_text())["setup_s"]
        ]
        if workload.kind == "run":
            counts, per_pass, correct = _check_run(inputs, work)
        else:
            counts, per_pass, correct = _check_explore(inputs, result)
        spans = cache / f"spans-{workload.name}-s{args.seed}.jsonl"
        if args.trace:
            shutil.move(work / "spans.jsonl", spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # `attempted` counts the records of the input (record evaluations for
    # explore), not passes, so that it is fixed by the workload and not by
    # how many passes fit in --seconds. Every pass repeats the checked one:
    # its output digest must be equal, or every record counts as failed.
    digests = result["digests"]
    diverged = any(d != digests[0] for d in digests)
    attempted = per_pass
    failed = per_pass if diverged else counts["failed"]
    correct = correct and not diverged
    tp, fp, tn, fn = (counts[k] for k in ("tp", "fp", "tn", "fn"))
    fpr = fp / (fp + tn) if fp + tn else 0.0

    wall = statistics.median(result["wall_s"])
    if args.trace:
        first = result["first"]
        layers = {
            **result["layers"],
            "trace.overhead_s": statistics.median(result["traced_wall_s"]) - wall,
            "cli.records_out": first.get("records_out", 0),
            "cli.accept_ratio": first["records_out"] / first["records_in"] if "records_in" in first else 0.0,
            "fpr": fpr,
            "failed_share": failed / attempted,
        }
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        values = {
            "throughput_mb_s": result["input_bytes"] / wall / 1e6,
            "configs_per_s": result.get("n_configs", 1) / wall,
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mib": result["peak_rss_mib"],
            "accepted_per_match": (tp + fp) / (tp + fn),
            "sound_share": 1 - failed / attempted,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    detail = {
        "workload": workload.name,
        "why": workload.why,
        "provenance": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "git_commit": _git_commit(root),
            "seed": args.seed,
            "scale": args.scale,
            "read_bytes": args.read_bytes,
            **inputs.meta,
        },
        "output_digest": digests[0],
        "passes": len(digests),
        "wall_s_samples": result["wall_s"],
        "setup_s_samples": setup,
        "spans": str(spans.relative_to(root)) if args.trace else None,
        "check": {**counts, "failed": failed, "failed_share": failed / attempted, "fpr": fpr},
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
