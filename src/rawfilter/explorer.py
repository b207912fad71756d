"""Design-space exploration: enumerate filter configurations, measure the
false-positive rate of each against oracle labels, estimate a proxy
resource cost, and extract the FPR/cost Pareto front.

The proxy cost model scores what a primitive would plausibly occupy in
hardware (comparator bits, counter bits, DFA table size) with tunable
weights; it is a relative measure for ranking configurations, not a
synthesis estimate.

Every configuration is evaluated over one shared `CorpusIndex`, which caches
primitive fires and each predicate's accept vector per (mode, block): a
sweep scans and conjoins each primitive once, then only ANDs and ORs cached
vectors per configuration. With timings on, the first configuration to use
a predicate therefore carries that predicate's build time in its wall_ms.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .batch import CorpusIndex, evaluate_config_batch
from .errors import CapExceededError, ConfigError, FalseNegativeError
from .filter import (
    FilterConfig,
    Leaf,
    Mode,
    PredicateConfig,
    RawFilterExpr,
    ScopeConj,
    SegmentConj,
    validate_config,
)
from .oracle import DatasetLabels, label_dataset
from .query import And, Predicate, QueryAst
from .ranges import NumericBound, build_range_dfa
from .strings import ExactMatcher, SubstringBlockMatcher, build_substring_set, resolve_block_len


@dataclass(frozen=True)
class CostModel:
    """Weights for the proxy resource cost.

    gram_bits:    per gram-comparator bit of the block matcher (|grams| * B)
    counter_bits: per run-counter bit, ceil(log2(N - B + 2))
    compare_bits: per bit of the full N-byte comparator (8 * N)
    dfa_cell:     per DFA transition cell (states * input classes)
    combinator:   per AND/OR node; scoped and key-value nodes cost double
                  (conjunction plus the structural bookkeeping)
    scanner:      amortized structural scanner, once per filter
    """

    gram_bits: float = 1.0
    counter_bits: float = 1.0
    compare_bits: float = 1.0
    dfa_cell: float = 1.0
    combinator: float = 1.0
    scanner: float = 1.0

    @classmethod
    def from_file(cls, path) -> "CostModel":
        weights = {}
        names = {f.name for f in fields(cls)}
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                try:
                    key, value = line.replace("=", " ").split()
                    weights[key] = float(value)
                except ValueError as exc:
                    raise ConfigError(f"cost model line {lineno}: {raw!r}") from exc
                if key not in names:
                    raise ConfigError(f"cost model line {lineno}: unknown weight {key!r}")
        return cls(**weights)


DEFAULT_COST_MODEL = CostModel()


@functools.lru_cache
def string_cost(pattern: str | bytes, block, model: CostModel = DEFAULT_COST_MODEL) -> float:
    pattern = pattern.encode() if isinstance(pattern, str) else pattern
    n = len(pattern)
    b = resolve_block_len(pattern, block)
    if b == n:
        return model.compare_bits * 8 * n
    grams = build_substring_set(pattern, b)
    counter_bits = math.ceil(math.log2(n - b + 2))
    return model.gram_bits * len(grams) * b + model.counter_bits * counter_bits


@functools.lru_cache
def range_cost(bound: NumericBound, model: CostModel = DEFAULT_COST_MODEL) -> float:
    dfa = build_range_dfa(bound)
    return model.dfa_cell * dfa.state_count * dfa.input_classes


def estimate_cost(expr: RawFilterExpr, model: CostModel = DEFAULT_COST_MODEL) -> float:
    """Proxy cost of a compiled filter."""

    def walk(node) -> float:
        if isinstance(node, Leaf):
            if node.kind == "range":
                return range_cost(node.primitive.dfa.bound, model)
            primitive = node.primitive
            if isinstance(primitive, SubstringBlockMatcher):
                return string_cost(primitive.pattern, primitive.block_len, model)
            if isinstance(primitive, ExactMatcher):
                return string_cost(primitive.pattern, len(primitive.pattern), model)
            raise TypeError(f"unknown primitive {primitive!r}")
        children = sum(walk(c) for c in node.children)
        if isinstance(node, (ScopeConj, SegmentConj)):
            return children + 2 * model.combinator
        return children + model.combinator

    return walk(expr.root) + model.scanner


def config_cost(ast: QueryAst, cfg: FilterConfig, model: CostModel = DEFAULT_COST_MODEL) -> float:
    """Same value as estimate_cost(compile_filter(ast, cfg)) without compiling."""
    configs = iter(cfg.predicates)

    def walk(node):
        # (cost, node materialized?) mirroring compile_filter's collapsing
        if isinstance(node, Predicate):
            pc = next(configs)
            if pc.mode is Mode.OMIT:
                return None
            cost = range_cost(node.bound, model)
            if pc.mode is Mode.VALUE_ONLY:
                return cost
            cost += string_cost(node.attr, pc.block, model)
            return cost + (model.combinator if pc.mode is Mode.FLAT else 2 * model.combinator)
        parts = [c for child in node.children if (c := walk(child)) is not None]
        if not parts:
            return None
        if len(parts) == 1:
            return parts[0]
        return sum(parts) + model.combinator

    total = walk(ast)
    return total + model.scanner


# --- configuration notation -----------------------------------------------------


def config_notation(ast: QueryAst, cfg: FilterConfig) -> str:
    """Compact label: { s1("attr") & v(lo<=f<=hi) } joined with ' & ' / ' | '."""
    configs = iter(cfg.predicates)

    def walk(node):
        if isinstance(node, Predicate):
            pc = next(configs)
            if pc.mode is Mode.OMIT:
                return None
            value = node.bound.notation()
            if pc.mode is Mode.VALUE_ONLY:
                return value
            b = resolve_block_len(node.attr, pc.block)
            string = f's{b}("{node.attr}")'
            if pc.mode is Mode.FLAT:
                return f"( {string} & {value} )"
            joiner = " & " if pc.mode is Mode.SCOPED else " &kv "
            return "{ " + string + joiner + value + " }"
        parts = [p for child in node.children if (p := walk(child)) is not None]
        if len(parts) == 1:
            return parts[0]
        joiner = " & " if isinstance(node, And) else " | "
        return "( " + joiner.join(parts) + " )"

    return walk(ast)


# --- enumeration ------------------------------------------------------------------


@dataclass(frozen=True)
class ExplorerOptions:
    modes: tuple = (Mode.OMIT, Mode.VALUE_ONLY, Mode.FLAT, Mode.SCOPED)
    blocks: tuple = (1, 2, "N")
    cap: int = 10**6
    # Evaluate on a seeded random subset of records instead of the full
    # corpus; off by default. FPR estimates then carry sampling noise.
    sample: int | None = None
    seed: int = 0


def enumerate_configs(ast: QueryAst, options: ExplorerOptions = ExplorerOptions()) -> list[FilterConfig]:
    """All valid configurations, in a deterministic order."""
    leaves = list(ast.leaves())
    per_leaf: list[list[PredicateConfig]] = []
    for leaf in leaves:
        choices: list[PredicateConfig] = []
        blocks = []
        for b in options.blocks:
            resolved = resolve_block_len(leaf.attr, b)
            if resolved not in blocks:
                blocks.append(resolved)
        for mode in options.modes:
            if mode in (Mode.OMIT, Mode.VALUE_ONLY):
                choices.append(PredicateConfig(mode))
            else:
                choices.extend(PredicateConfig(mode, b) for b in blocks)
        per_leaf.append(choices)

    configs = []
    for combo in itertools.product(*per_leaf):
        cfg = FilterConfig(combo)
        try:
            validate_config(ast, cfg)
        except ConfigError:
            continue
        configs.append(cfg)
        if len(configs) > options.cap:
            raise CapExceededError(len(configs), options.cap)
    return configs


# --- evaluation -------------------------------------------------------------------


@dataclass
class EvalReport:
    config: FilterConfig
    notation: str
    tp: int
    fp: int
    tn: int
    fn: int
    cost: float
    wall_time: float = 0.0
    config_id: int = 0

    @property
    def fpr(self) -> float:
        return self.fp / (self.fp + self.tn) if (self.fp + self.tn) else 0.0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def _label_arrays(labels: DatasetLabels) -> tuple[np.ndarray, np.ndarray]:
    n = len(labels.labels)
    match = np.fromiter((lab.exact_match for lab in labels.labels), dtype=bool, count=n)
    parse_ok = np.fromiter((lab.parse_ok for lab in labels.labels), dtype=bool, count=n)
    return match, parse_ok


def evaluate_config(
    ast: QueryAst,
    cfg: FilterConfig,
    corpus: CorpusIndex | bytes,
    labels: DatasetLabels | None = None,
    model: CostModel = DEFAULT_COST_MODEL,
    _arrays: tuple | None = None,
) -> EvalReport:
    """Run one configuration over a labeled corpus.

    A false negative on a well-formed record is a soundness bug and raises
    instead of being reported.
    """
    if not isinstance(corpus, CorpusIndex):
        corpus = CorpusIndex(corpus)
    if labels is None:
        labels = label_dataset(ast, corpus.records())
    match, parse_ok = _arrays if _arrays is not None else _label_arrays(labels)
    start = time.perf_counter()
    accepts = evaluate_config_batch(corpus, ast, cfg)
    tp = int(np.count_nonzero(match & accepts))
    fn = int(np.count_nonzero(match & ~accepts))
    fp = int(np.count_nonzero(~match & accepts))
    tn = len(match) - tp - fn - fp
    if fn and bool(np.any(match & ~accepts & parse_ok)):
        index = int(np.nonzero(match & ~accepts & parse_ok)[0][0])
        raise FalseNegativeError(
            f"record {index} matches the query but was filtered out "
            f"by {config_notation(ast, cfg)}"
        )
    wall = time.perf_counter() - start
    return EvalReport(
        cfg, config_notation(ast, cfg), tp, fp, tn, fn, config_cost(ast, cfg, model), wall
    )


def evaluate_all(
    ast: QueryAst,
    configs: list[FilterConfig],
    corpus: CorpusIndex | bytes,
    labels: DatasetLabels | None = None,
    model: CostModel = DEFAULT_COST_MODEL,
) -> list[EvalReport]:
    if not isinstance(corpus, CorpusIndex):
        corpus = CorpusIndex(corpus)
    if labels is None:
        labels = label_dataset(ast, corpus.records())
    arrays = _label_arrays(labels)
    reports = []
    for i, cfg in enumerate(configs):
        report = evaluate_config(ast, cfg, corpus, labels, model, _arrays=arrays)
        report.config_id = i
        reports.append(report)
    return reports


# --- Pareto front -----------------------------------------------------------------


def pareto_front(reports: list[EvalReport]) -> list[EvalReport]:
    """Non-dominated subset, sorted by descending FPR / ascending cost.

    Exact ties on both axes keep the lexicographically smallest notation.
    """
    if not reports:
        raise ValueError("pareto_front needs at least one report")
    best_of_tie: dict = {}
    for r in reports:
        key = (r.fpr, r.cost)
        held = best_of_tie.get(key)
        if held is None or r.notation < held.notation:
            best_of_tie[key] = r
    front = []
    best_fpr = math.inf
    for r in sorted(best_of_tie.values(), key=lambda r: (r.cost, r.fpr)):
        if r.fpr < best_fpr:
            front.append(r)
            best_fpr = r.fpr
    front.sort(key=lambda r: (-r.fpr, r.cost))
    return front


def _sampled_corpus(corpus: CorpusIndex, options: ExplorerOptions) -> CorpusIndex:
    import random

    records = corpus.records()
    if options.sample is None or options.sample >= len(records):
        return corpus
    rng = random.Random(options.seed)
    picked = sorted(rng.sample(range(len(records)), options.sample))
    return CorpusIndex(b"\n".join(records[i] for i in picked) + b"\n")


def explore(
    ast: QueryAst,
    corpus: CorpusIndex | bytes,
    options: ExplorerOptions = ExplorerOptions(),
    model: CostModel = DEFAULT_COST_MODEL,
) -> tuple[list[EvalReport], list[EvalReport]]:
    """Enumerate, evaluate and extract the front. Returns (reports, front)."""
    if not isinstance(corpus, CorpusIndex):
        corpus = CorpusIndex(corpus)
    corpus = _sampled_corpus(corpus, options)
    configs = enumerate_configs(ast, options)
    labels = label_dataset(ast, corpus.records())
    reports = evaluate_all(ast, configs, corpus, labels, model)
    return reports, pareto_front(reports)


# --- CSV emission ------------------------------------------------------------------

CSV_HEADER = ["config_id", "config", "fpr", "fp", "tn", "tp", "fn", "cost", "wall_ms"]


def reports_to_csv(reports: list[EvalReport], include_timings: bool = False) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in reports:
        wall_ms = round(r.wall_time * 1000.0, 3) if include_timings else 0
        writer.writerow(
            [r.config_id, r.notation, f"{r.fpr:.6f}", r.fp, r.tn, r.tp, r.fn, f"{r.cost:g}", wall_ms]
        )
    return out.getvalue()
