"""Command-line surface.

Subcommands: compile (query + config -> filter descriptor), run (filter a
stream, accepted records to stdout, stats JSON to stderr), eval (confusion
matrix and FPR against the exact oracle), explore (design-space sweep to
CSVs), gen (synthetic datasets with exact labels), bench (throughput).

Exit codes: 2 parse/config error, 3 I/O error, 4 false negative detected
(soundness failure), 5 design-space cap exceeded.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import statistics
import sys
import time
from pathlib import Path

from .batch import (
    CorpusIndex,
    evaluate_config_batch,
    iter_chunk_indexes,
    primitive_fire_counts,
)
from .datagen import generate_dataset, parse_gen_spec
from .errors import CapExceededError, ConfigError, FalseNegativeError, QueryError
from .explorer import (
    CostModel,
    DEFAULT_COST_MODEL,
    ExplorerOptions,
    evaluate_config,
    explore,
    plan_cost,
    reports_to_csv,
    string_cost,
)
from .filter import (
    FilterConfig,
    Mode,
    parse_config,
    plan_leaves,
    plan_notation,
    serialize_config,
    string_notation,
    validate_config,
)
from .oracle import label_dataset
from .query import parse_query
from .ranges import build_range_dfa
from .strings import build_substring_set


def _read_text(path: str) -> str:
    return Path(path).read_text()


def _read_dataset(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    return Path(path).read_bytes()


_QUERY_SPACE = re.compile(r'("[^"]*")|\s+')


def _read_query(path: str) -> str:
    """The query file on one line: each whitespace run outside a quoted
    attribute becomes one space; attributes keep theirs."""
    return _QUERY_SPACE.sub(lambda m: m.group(1) or " ", _read_text(path).strip())


def _load_query_and_config(args) -> tuple:
    query_text = _read_query(args.query)
    ast = parse_query(query_text)
    cfg = parse_config(_read_text(args.config), ast)
    return query_text, ast, cfg


def _cost_model(args) -> CostModel:
    if getattr(args, "cost_weights", None):
        return CostModel.from_file(args.cost_weights)
    return DEFAULT_COST_MODEL


# --- descriptor format -------------------------------------------------------


def render_descriptor(query_text: str, ast, cfg: FilterConfig, model: CostModel) -> str:
    plan = validate_config(ast, cfg)
    if query_text.splitlines() != [query_text]:
        raise ConfigError("the descriptor's query line cannot hold an attribute with a line break")
    lines = ["# rawfilter descriptor", f"query: {query_text}"]
    for cfg_line in serialize_config(ast, cfg).splitlines():
        lines.append(f"config: {cfg_line}")
    lines.append(f"notation: {plan_notation(plan)}")
    lines.append(f"cost: {plan_cost(plan, model):g}")
    for leaf in plan_leaves(plan):
        dfa = build_range_dfa(leaf.pred.bound)
        lines.append(
            f"primitive: {leaf.pred.bound.notation()} dfa_states={dfa.state_count} "
            f"input_classes={dfa.input_classes}"
        )
        if leaf.block is not None:
            pattern, b = leaf.pred.pattern, leaf.block
            grams = sorted(build_substring_set(pattern, b))
            gram_text = ",".join(g.decode("latin-1") for g in grams)
            lines.append(
                f"primitive: {string_notation(leaf)} N={len(pattern)} B={b} "
                f"grams={len(grams)} [{gram_text}] cost={string_cost(pattern, b, model):g}"
            )
    return "\n".join(lines) + "\n"


def parse_descriptor(text: str) -> tuple:
    query_text = None
    config_lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("query: "):
            query_text = line[len("query: "):]
        elif line.startswith("config: "):
            config_lines.append(line[len("config: "):])
    if query_text is None or not config_lines:
        raise ConfigError("descriptor needs 'query:' and 'config:' lines")
    ast = parse_query(query_text)
    cfg = parse_config("\n".join(config_lines) + "\n", ast)
    return ast, cfg


# --- commands ------------------------------------------------------------------


def cmd_compile(args) -> int:
    query_text, ast, cfg = _load_query_and_config(args)
    descriptor = render_descriptor(query_text, ast, cfg, _cost_model(args))
    if args.out:
        Path(args.out).write_text(descriptor)
    else:
        sys.stdout.write(descriptor)
    return 0


def _run_stream(ast, cfg, source, out, workers: int = 1, chunk_bytes: int = 1 << 22) -> dict:
    """Filter `source` by the one plan its configuration validates to, read
    and indexed one block of at most `chunk_bytes` at a time; accepted records
    go to `out`. A record longer than a block comes in pieces: its filter
    state goes on from each piece to the next, and its pieces are held until
    the last one decides it. Only `workers=1` is accepted: one loop reads all."""
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers}")
    plan = validate_config(ast, cfg)
    patterns = [leaf.pred.pattern for leaf in plan_leaves(plan) if leaf.block is not None]
    records_in = records_out = bytes_in = scanned = malformed = chunks = largest = 0
    fires: dict[str, int] = {}
    carry, held = None, []  # the state and the pieces so far of a record cut at a block's end
    started = time.perf_counter()
    for index, buffer in iter_chunk_indexes(source, chunk_bytes, patterns):
        corpus = CorpusIndex(buffer, index, carry)
        accepts = evaluate_config_batch(corpus, plan)
        for key, count in primitive_fire_counts(corpus, plan).items():
            fires[key] = fires.get(key, 0) + count
        chunks += 1
        bytes_in += len(buffer)
        scanned += index.scanned_bytes
        n = index.n_ended
        starts, ends, accepts = index.rec_starts[:n], index.rec_ends[:n], accepts[:n]
        lengths = ends - starts
        if held and n:
            # The first record ends here: its earlier pieces go first.
            lengths[0] += sum(len(piece) for piece in held)
            if accepts[0]:
                for piece in held:
                    out.write(piece)
            held = []
        if n:
            largest = max(largest, int(lengths.max()))
        records_in += n
        malformed += int(index.rec_malformed[:n].sum())
        carry = None
        if index.cut_depth:
            carry = corpus.carry_out(plan)
            held.append(buffer[int(index.rec_starts[-1]) :])
        starts, ends = starts[accepts].tolist(), ends[accepts].tolist()
        records_out += len(starts)
        kept = [buffer[s:e] for s, e in zip(starts, ends)]
        kept.append(b"")  # the last record's newline
        out.write(b"\n".join(kept))  # one write per index block
        del corpus, index, buffer  # freed before the next chunk is read and indexed
    if not chunks:  # an empty stream: every primitive of the plan counts 0
        fires = primitive_fire_counts(CorpusIndex(b""), plan)
    elapsed = max(time.perf_counter() - started, 1e-9)
    return {
        "records_in": records_in,
        "records_out": records_out,
        "bytes_in": bytes_in,
        "rescanned_bytes": scanned - bytes_in,
        "chunks": chunks,
        "largest_record_bytes": largest,
        "malformed": malformed,
        "accept_ratio": records_out / records_in if records_in else 0.0,
        "throughput_mb_s": round(bytes_in / elapsed / 1e6, 3),
        "wall_s": round(elapsed, 6),
        "fires": fires,
    }


def cmd_run(args) -> int:
    ast, cfg = parse_descriptor(_read_text(args.filter))
    source = sys.stdin.buffer if args.dataset == "-" else open(args.dataset, "rb")
    try:
        stats = _run_stream(ast, cfg, source, sys.stdout.buffer)
    finally:
        if source is not sys.stdin.buffer:
            source.close()
    sys.stdout.buffer.flush()
    print(json.dumps(stats, sort_keys=True), file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    _, ast, cfg = _load_query_and_config(args)
    corpus = CorpusIndex(_read_dataset(args.dataset))
    labels = label_dataset(ast, corpus.records())
    report = evaluate_config(ast, cfg, corpus, labels, _cost_model(args))
    payload = {
        "config": report.notation,
        "records": report.total,
        "tp": report.tp,
        "fp": report.fp,
        "tn": report.tn,
        "fn": report.fn,
        "fpr": round(report.fpr, 6),
        "selectivity": round(labels.selectivity, 6),
        "selectivity_undefined": labels.empty,
        "malformed": labels.malformed_count,
        "cost": report.cost,
        "wall_s": round(report.wall_time, 6),
    }
    text = json.dumps(payload, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def cmd_explore(args) -> int:
    ast = parse_query(_read_query(args.query))
    options = ExplorerOptions(
        modes=args.modes, blocks=args.blocks, cap=args.cap, sample=args.sample, seed=args.seed
    )
    reports, front = explore(ast, _read_dataset(args.dataset), options, _cost_model(args))
    out = Path(args.out)
    out.write_text(reports_to_csv(reports, include_timings=args.timings))
    pareto_path = Path(args.pareto_out) if args.pareto_out else out.with_name(out.stem + "_pareto.csv")
    pareto_path.write_text(reports_to_csv(front, include_timings=args.timings))
    print(
        json.dumps(
            {
                "configs": len(reports),
                "pareto_points": len(front),
                "reports_csv": str(out),
                "pareto_csv": str(pareto_path),
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_gen(args) -> int:
    spec = parse_gen_spec(_read_text(args.spec))
    corpus, labels = generate_dataset(spec, args.seed)
    Path(args.out).write_bytes(corpus)
    labels_path = args.labels or args.out + ".labels"
    Path(labels_path).write_bytes(labels)
    print(
        json.dumps(
            {"records": spec.records, "bytes": len(corpus), "out": args.out, "labels": labels_path},
            sort_keys=True,
        )
    )
    return 0


def _bench_once(data: bytes, ast, cfg) -> float:
    stats = _run_stream(ast, cfg, io.BytesIO(data), io.BytesIO())
    return stats["wall_s"]


def cmd_bench(args) -> int:
    ast, cfg = parse_descriptor(_read_text(args.filter))
    data = _read_dataset(args.dataset)
    times = [_bench_once(data, ast, cfg) for _ in range(args.repetitions)]
    wall = statistics.median(times)
    result = {
        "bytes": len(data),
        "repetitions": args.repetitions,
        "median_s": round(wall, 4),
        "throughput_mb_s": round(len(data) / wall / 1e6, 2),
    }
    if args.scale_check:
        doubled = data + data
        wall2 = statistics.median([_bench_once(doubled, ast, cfg) for _ in range(args.repetitions)])
        ratio = wall2 / wall
        result["doubled_median_s"] = round(wall2, 4)
        result["scaling_ratio"] = round(ratio, 3)
        if len(data) >= 64 * 1024 * 1024:
            result["linear_scaling"] = bool(1.6 <= ratio <= 2.6)
        else:
            result["linear_scaling"] = None  # input too small to assert
    print(json.dumps(result, sort_keys=True))
    if args.scale_check and result.get("linear_scaling") is False:
        print("warning: scaling ratio outside [1.6, 2.6]", file=sys.stderr)
    return 0


# --- argument parsing --------------------------------------------------------------


def _at_least(low: int):
    """argparse type: an integer no smaller than `low`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _mode_list(text: str) -> tuple:
    try:
        return tuple(Mode(m) for m in text.split(","))
    except ValueError:
        known = ",".join(m.value for m in Mode)
        raise argparse.ArgumentTypeError(f"unknown mode in {text!r}; modes are {known}") from None


def _block_list(text: str) -> tuple:
    return tuple("N" if b == "N" else _at_least(1)(b) for b in text.split(","))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rawfilter", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile query + config into a filter descriptor")
    p.add_argument("--query", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--cost-weights")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="filter a dataset; accepted records to stdout")
    p.add_argument("--filter", required=True, help="descriptor from 'compile'")
    p.add_argument("--dataset", required=True, help="path or - for stdin")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="confusion matrix and FPR against the oracle")
    p.add_argument("--query", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out")
    p.add_argument("--cost-weights")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("explore", help="sweep the design space, write report CSVs")
    p.add_argument("--query", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", default="reports.csv")
    p.add_argument("--pareto-out")
    p.add_argument("--modes", type=_mode_list, default="OMIT,VALUE_ONLY,FLAT,SCOPED")
    p.add_argument("--blocks", type=_block_list, default="1,2,N")
    p.add_argument("--cap", type=_at_least(0), default=10**6)
    p.add_argument("--sample", type=_at_least(0), default=None, help="evaluate on a seeded record subset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--timings",
        action="store_true",
        help="real wall_ms column (non-reproducible): configurations are evaluated in slices, "
        "and each gets its slice's time divided by the slice's configuration count",
    )
    p.add_argument("--cost-weights")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("gen", help="generate a synthetic dataset with exact labels")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--labels")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="measure end-to-end throughput")
    p.add_argument("--filter", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--repetitions", type=_at_least(1), default=3)
    p.add_argument("--scale-check", action="store_true")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QueryError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except FalseNegativeError as exc:
        print(f"correctness failure: {exc}", file=sys.stderr)
        return 4
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
