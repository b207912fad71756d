"""Measuring process for one workload: set-up, timed passes, traced passes.

run.py starts this as a child process, so that input generation and the
output checks stay outside its peak RSS, and reads the JSON it writes:

    python3 perfbench/measure.py --kind run --inputs DIR --work DIR \
        --seconds 24 --trace 0 [--setup-only | --setup-repeats N]

Set-up of a run workload starts before `import rawfilter`, which every
`rawfilter run` pays; nothing else may be imported before it, numpy
included. Each pass runs on one thread and the next starts after it ends.
"""

import argparse
import gc
import hashlib
import io
import json
import statistics
import sys
import time
from pathlib import Path


def _peak_rss_mib() -> float:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(hashlib.sha256(p).digest())
    return h.hexdigest()


class RunWorkload:
    """cli._run_stream over the whole input, as `rawfilter bench` times it."""

    def __init__(self, args):
        self.args = args
        self.desc = Path(args.inputs, "filter.desc").read_text()
        self.passes = 0

    def setup(self, make_tracer, repeats):
        """One set-up: it starts with the import, so it needs a fresh process."""
        t0 = time.perf_counter()
        from rawfilter import cli, ranges, strings
        from rawfilter.filter import Mode

        tracer = make_tracer()
        ast, cfg = cli.parse_descriptor(self.desc)
        for leaf, pc in zip(ast.leaves(), cfg.predicates):
            if pc.mode is Mode.OMIT:
                continue
            ranges.build_range_dfa(leaf.bound)
            if pc.mode is not Mode.VALUE_ONLY:
                strings.build_substring_set(leaf.attr, strings.resolve_block_len(leaf.attr, pc.block))
        setup_s = time.perf_counter() - t0
        self.cli, self.ast, self.cfg = cli, ast, cfg
        return [setup_s], tracer

    def run(self, sink):
        return self.cli._run_stream(
            self.ast, self.cfg, io.BytesIO(self.data), sink, workers=1,
            chunk_bytes=self.args.read_bytes,
        )

    def summarize(self, stats, sink) -> dict:
        output = sink.getvalue()
        if not self.passes:
            Path(self.args.work, "output.ndjson").write_bytes(output)
        self.passes += 1
        return {
            "digest": _digest(output),
            "records_in": stats["records_in"],
            "records_out": stats["records_out"],
        }


class ExploreWorkload:
    """explorer.explore with default options, then both CSVs."""

    def __init__(self, args):
        self.args = args
        self.query = Path(args.inputs, "query.txt").read_text().strip()

    def setup(self, make_tracer, repeats):
        """`repeats` set-ups in this process: it excludes the import."""
        from rawfilter import batch, explorer, oracle
        from rawfilter.query import parse_query

        tracer = make_tracer()
        self.explorer = explorer
        self.ast = parse_query(self.query)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            corpus = batch.CorpusIndex(self.data)
            labels = oracle.label_dataset(self.ast, corpus.records())
            configs = explorer.enumerate_configs(self.ast, explorer.ExplorerOptions())
            times.append(time.perf_counter() - t0)
        self.n_configs = len(configs)
        self.label_matches = [lab.exact_match for lab in labels.labels]
        return times, tracer

    def run(self, sink):
        ex = self.explorer
        reports, front = ex.explore(self.ast, self.data, ex.ExplorerOptions())
        return reports, front, ex.reports_to_csv(reports), ex.reports_to_csv(front)

    def summarize(self, result, sink) -> dict:
        reports, front, csv_all, csv_front = result
        return {
            "digest": _digest(csv_all.encode(), csv_front.encode()),
            "configs": len(reports),
            "tp": sum(r.tp for r in reports),
            "fp": sum(r.fp for r in reports),
            "tn": sum(r.tn for r in reports),
            "fn": sum(r.fn for r in reports),
            "configs_with_fn": sum(1 for r in reports if r.fn),
            "pareto_points": len(front),
        }


def _timed_passes(workload, seconds: float, make_sink, on_pass=None) -> list:
    """Passes, one after another, for `seconds` (at least one pass).

    A pass is not started if one more pass as long as the last would end
    after `seconds`, so a run does not overrun by most of a pass.

    Only workload.run is inside the timed region; the output digest and
    any trace bookkeeping are taken after the clock stops. Each pass starts
    after a full garbage collection, as a fresh `rawfilter run` process
    would: reference cycles left by one pass can hold its index arrays, and
    without it the peak RSS would grow with the number of passes.
    """
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + passes[-1][0] <= seconds:
        gc.collect()
        sink = make_sink()
        t = time.perf_counter()
        result = workload.run(sink)
        wall = time.perf_counter() - t
        if on_pass is not None:
            on_pass(wall, sink)
        passes.append((wall, workload.summarize(result, sink)))
        del result, sink
    return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kind", choices=("run", "explore"), required=True)
    parser.add_argument("--inputs", required=True, help="input directory from workloads.ensure_inputs")
    parser.add_argument("--work", required=True, help="directory for this run's result files")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--read-bytes", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument(
        "--setup-repeats", type=int, default=1,
        help="set-ups to time in this process (explore only; a run set-up includes the import)",
    )
    args = parser.parse_args(argv)
    src = Path.cwd().resolve() / "src"
    sys.path.insert(0, str(src))
    work = Path(args.work)
    workload = (RunWorkload if args.kind == "run" else ExploreWorkload)(args)
    workload.data = Path(args.inputs, "input.ndjson").read_bytes()

    def make_tracer():
        if not args.trace:
            return None
        import tracing

        return tracing.Tracer().install()

    setup_s, tracer = workload.setup(make_tracer, args.setup_repeats)
    import rawfilter

    if not Path(rawfilter.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: rawfilter was imported from {rawfilter.__file__}, not from {src}")
    result = {"setup_s": setup_s}
    if args.setup_only:
        (work / f"setup-{time.time_ns()}.json").write_text(json.dumps(result))
        return 0

    setup_spans = []
    if tracer is not None:
        setup_spans = tracer.take()[1]
        tracer.uninstall()
    # Peak RSS is read after the first pass: set-up plus one pass, as one
    # `rawfilter run` process sees it. Later passes only add allocator
    # fragmentation, which would tie the figure to the number of passes.
    budget = args.seconds / 2 if tracer else args.seconds
    untraced = _timed_passes(workload, 0, io.BytesIO)
    peak_rss = _peak_rss_mib()
    untraced += _timed_passes(workload, budget - untraced[0][0], io.BytesIO)
    traced = []
    if tracer is not None:
        import tracing

        layers = []

        def on_pass(wall, sink):
            offset, spans, counts = tracer.take()
            layers.append(
                tracing.layer_metrics(
                    spans, offset, setup_spans, len(workload.data), wall, sink.write_s, counts
                )
            )

        tracer.install()
        traced = _timed_passes(workload, args.seconds / 2, tracing.TimedSink, on_pass)
        tracer.uninstall()
        tracer.dump(work / "spans.jsonl")
        result["layers"] = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        result["traced_wall_s"] = [w for w, _ in traced]

    passes = untraced + traced
    result.update(
        {
            "wall_s": [w for w, _ in untraced],
            "digests": [p["digest"] for _, p in passes],
            "first": passes[0][1],
            "input_bytes": len(workload.data),
            "peak_rss_mib": peak_rss,
        }
    )
    if args.kind == "explore":
        result["n_configs"] = workload.n_configs
        result["label_matches"] = workload.label_matches
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
