"""Span tracing around public rawfilter functions, from outside the package.

`Tracer.install()` replaces each traced function with a wrapper in every
loaded `rawfilter.*` module that holds a reference to it (so calls through
`from .batch import ...` names are seen too) and `uninstall()` restores the
originals. Spans (name, start, end, parent) stay in memory; `layer_metrics`
turns one pass's spans into the per-layer metrics, and `dump` writes the
spans out at the end of a run.
"""

from __future__ import annotations

import io
import json
import statistics
import sys
import time
import weakref
from dataclasses import dataclass, field

import numpy as np

# (module, attribute) of every traced function; methods as "Class.method".
TRACED = (
    ("batch", "build_scan_index"),
    ("scanner", "segment_records"),
    ("batch", "ScanIndex.numeric_tokens"),
    ("batch", "string_fire_positions"),
    ("batch", "number_fire_positions"),
    ("batch", "evaluate_config_batch"),
    ("batch", "primitive_fire_counts"),
    ("ranges", "build_range_dfa"),
    ("filter", "validate_config"),
    ("oracle", "label_dataset"),
    ("explorer", "enumerate_configs"),
    ("explorer", "evaluate_all"),
    ("explorer", "evaluate_config"),
    ("explorer", "config_cost"),
    ("explorer", "config_notation"),
    ("explorer", "pareto_front"),
    ("explorer", "reports_to_csv"),
)
# Generators: each yielded item is counted, no span is kept.
COUNTED = (("batch", "iter_chunk_indexes"),)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    meta: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class TimedSink(io.BytesIO):
    """Output sink that adds up the time spent in write()."""

    write_s = 0.0

    def write(self, b):
        t = time.perf_counter()
        n = super().write(b)
        self.write_s += time.perf_counter() - t
        return n


def _module(name):
    return sys.modules[f"rawfilter.{name}"]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._token_seen: dict[int, weakref.ref] = {}
        self._taken = 0

    # --- wrapping -------------------------------------------------------------

    def _span(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, parent=tracer._stack[-1] if tracer._stack else None)
            before = tracer._before(name, args)
            tracer.spans.append(span)
            idx = len(tracer.spans) - 1
            tracer._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            tracer._after(span, args, result, before)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tracer.counts[name] = tracer.counts.get(name, 0) + 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> "Tracer":
        modules = [m for k, m in sys.modules.items() if k.startswith("rawfilter.") and m]
        for mod_name, attr in TRACED + COUNTED:
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(_module(mod_name), cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._span(name, orig))
                continue
            orig = getattr(_module(mod_name), attr)
            wrapped = self._counted(name, orig) if (mod_name, attr) in COUNTED else self._span(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        return self

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # --- per-call details, taken outside the span's own interval ----------------

    def _before(self, name, args):
        if name == "batch.ScanIndex.numeric_tokens":
            index = args[0]
            ref = self._token_seen.get(id(index))
            first = ref is None or ref() is not index
            if first:
                self._token_seen[id(index)] = weakref.ref(index)
            return first
        return None

    def _after(self, span, args, result, before):
        name, meta = span.name, span.meta
        if name == "batch.build_scan_index":
            meta["bytes"] = len(args[0])
        elif name == "batch.ScanIndex.numeric_tokens":
            meta["tokens"] = int(len(result[0])) if before else 0
        elif name == "batch.string_fire_positions":
            from rawfilter.strings import resolve_block_len

            index, pattern, block = args[0], args[1], args[2]
            pattern = pattern if isinstance(pattern, bytes) else pattern.encode()
            b = resolve_block_len(pattern, block)
            meta["key"] = "sN" if b == len(pattern) else f"s{b}"
            meta["fires"] = int(len(result))
            rec = index.record_of(result)
            meta["latched"] = int(len(np.unique(rec[rec >= 0])))
            meta["records"] = int(index.n_records)
        elif name == "batch.number_fire_positions":
            index = args[0]
            tokens = type(index).numeric_tokens.__wrapped__(index)
            meta["fires"] = int(len(result[0]))
            meta["heuristic"] = int(np.count_nonzero(tokens[3]))
        elif name == "oracle.label_dataset":
            meta["bytes"] = sum(len(r) for r in args[1])
            meta["parse_fail"] = int(result.malformed_count)

    def take(self) -> tuple[int, list[Span], dict]:
        """(index of the first span, spans, counts) recorded since the last take."""
        offset, self._taken = self._taken, len(self.spans)
        counts, self.counts = self.counts, {}
        return offset, self.spans[offset:], counts

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.meta]) + "\n")


# --- derived metrics --------------------------------------------------------------


def self_times(spans: list[Span], offset: int = 0) -> list[float]:
    """Duration minus the part covered by direct children, per span."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None and s.parent >= offset:
            child[s.parent - offset] += s.dur
    return [s.dur - c for s, c in zip(spans, child)]


def _sum(spans, name, key=None):
    return sum((s.meta.get(key, 0) if key else s.dur) for s in spans if s.name == name)


def layer_metrics(spans: list[Span], offset: int, setup: list[Span], bytes_in: int,
                  wall: float, write_s: float, counts: dict) -> dict:
    """Per-layer metrics of one pass; `spans` start at index `offset`."""
    selfs = self_times(spans, offset)
    by_name: dict[str, list] = {}
    for s, st in zip(spans, selfs):
        by_name.setdefault(s.name, []).append((s, st))

    def total(name, key=None):
        return _sum(spans, name, key)

    def self_total(name):
        return sum(st for _, st in by_name.get(name, ()))

    builds = [s for s in spans if s.name == "batch.build_scan_index"]
    fallback = {s.parent for s in spans if s.name == "scanner.segment_records"}
    fallback_spans = [s for i, s in enumerate(spans, offset) if i in fallback and s.name == "batch.build_scan_index"]
    index_s = total("batch.build_scan_index")
    index_bytes = total("batch.build_scan_index", "bytes")
    fires = {k: 0.0 for k in ("s1", "s2", "sN")}
    for s, _ in by_name.get("batch.string_fire_positions", ()):
        if s.meta["key"] in fires:
            fires[s.meta["key"]] += s.dur
    str_records = total("batch.string_fire_positions", "records")
    range_fires = total("batch.number_fire_positions", "fires")
    label_s = total("oracle.label_dataset")
    config_ms = [s.dur * 1000 for s, _ in by_name.get("explorer.evaluate_config", ())]
    top = sum(s.dur for s in spans if s.parent is None)
    return {
        "scanner.fallback_chunks": len(fallback_spans),
        "scanner.fallback_s": sum(s.dur for s in fallback_spans),
        "batch.index_s": index_s,
        "batch.index_mb_s": index_bytes / index_s / 1e6 if index_s else 0.0,
        "batch.index_calls": len(builds),
        "batch.rescan_ratio": index_bytes / bytes_in if bytes_in else 0.0,
        "batch.tokens_s": total("batch.ScanIndex.numeric_tokens"),
        "batch.numeric_tokens": total("batch.ScanIndex.numeric_tokens", "tokens"),
        "batch.eval_self_s": self_total("batch.evaluate_config_batch"),
        "strings.fire_s.s1": fires["s1"],
        "strings.fire_s.s2": fires["s2"],
        "strings.fire_s.sN": fires["sN"],
        "strings.fires": total("batch.string_fire_positions", "fires"),
        "strings.latch_share": (
            total("batch.string_fire_positions", "latched") / str_records if str_records else 0.0
        ),
        "ranges.compile_s": _sum(setup, "ranges.build_range_dfa") + total("ranges.build_range_dfa"),
        "ranges.fire_s": self_total("batch.number_fire_positions"),
        "ranges.fires": range_fires,
        "ranges.heuristic_share": (
            total("batch.number_fire_positions", "heuristic") / range_fires if range_fires else 0.0
        ),
        "filter.validate_s": total("filter.validate_config"),
        "oracle.label_s": label_s,
        "oracle.label_mb_s": total("oracle.label_dataset", "bytes") / label_s / 1e6 if label_s else 0.0,
        "oracle.parse_fail": total("oracle.label_dataset", "parse_fail"),
        "explorer.enumerate_s": total("explorer.enumerate_configs"),
        "explorer.eval_s": total("explorer.evaluate_all"),
        "explorer.config_ms.p50": statistics.median(config_ms) if config_ms else 0.0,
        "explorer.config_ms.p99": float(np.percentile(config_ms, 99)) if config_ms else 0.0,
        "explorer.cost_s": total("explorer.config_cost"),
        "explorer.notation_s": total("explorer.config_notation"),
        "explorer.pareto_s": total("explorer.pareto_front"),
        "explorer.csv_s": total("explorer.reports_to_csv"),
        "explorer.primitive_builds": len(by_name.get("batch.string_fire_positions", ()))
        + len(by_name.get("batch.number_fire_positions", ())),
        "cli.chunks": counts.get("batch.iter_chunk_indexes", 0),
        "cli.write_s": write_s,
        "cli.fire_counts_s": total("batch.primitive_fire_counts"),
        "trace.uncovered_share": (wall - top - write_s) / wall if wall else 0.0,
    }
