"""Design-space exploration: enumerate filter configurations, measure the
false-positive rate of each against oracle labels, estimate a proxy
resource cost, and extract the FPR/cost Pareto front.

The proxy cost model scores what a primitive would plausibly occupy in
hardware (comparator bits, counter bits, DFA table size) with tunable
weights; it is a relative measure for ranking configurations, not a
synthesis estimate.

Each configuration becomes one plan (`filter.validate_config`) that gives
its accept vector, notation and cost. Enumeration validates one configuration
per omission pattern: once blocks are resolved, nothing else decides validity.

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

from .batch import CorpusIndex, accept_vector
from .errors import CapExceededError, ConfigError, FalseNegativeError
from .filter import (
    FilterConfig,
    Mode,
    Plan,
    PlanLeaf,
    PredicateConfig,
    plan_notation,
    validate_config,
)
from .oracle import DatasetLabels, label_dataset
from .query import QueryAst
from .ranges import NumericBound, build_range_dfa
from .strings import build_substring_set, resolve_block_len


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


def plan_cost(plan: Plan, model: CostModel = DEFAULT_COST_MODEL) -> float:
    """Proxy cost of a plan: its primitives, one combinator per AND/OR node
    (two for a scoped or key-value pair), and the scanner."""

    def walk(node) -> float:
        if isinstance(node, PlanLeaf):
            cost = range_cost(node.pred.bound, model)
            if node.mode is Mode.VALUE_ONLY:
                return cost
            cost += string_cost(node.pred.attr, node.block, model)
            return cost + (model.combinator if node.mode is Mode.FLAT else 2 * model.combinator)
        return sum(walk(c) for c in node.children) + model.combinator

    return walk(plan) + model.scanner


def config_cost(ast: QueryAst, cfg: FilterConfig, model: CostModel = DEFAULT_COST_MODEL) -> float:
    """Proxy cost of one configuration; see `plan_cost`."""
    return plan_cost(validate_config(ast, cfg), model)


def config_notation(ast: QueryAst, cfg: FilterConfig) -> str:
    """Compact label: { s1("attr") & v(lo<=f<=hi) } joined with ' & ' / ' | '."""
    return plan_notation(validate_config(ast, cfg))


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
    per_leaf: list[list[PredicateConfig]] = []
    for leaf in ast.leaves():
        blocks = dict.fromkeys(resolve_block_len(leaf.attr, b) for b in options.blocks)
        per_leaf.append([
            PredicateConfig(mode, b)
            for mode in options.modes
            for b in ((None,) if mode in (Mode.OMIT, Mode.VALUE_ONLY) else blocks)
        ])

    # Blocks are resolved above, so validity depends only on which leaves
    # are omitted: validate one configuration per omission pattern.
    omits = [[pc.mode is Mode.OMIT for pc in choices] for choices in per_leaf]
    valid: dict[tuple, bool] = {}
    configs = []
    for combo, omitted in zip(itertools.product(*per_leaf), itertools.product(*omits)):
        if omitted not in valid:
            try:
                validate_config(ast, FilterConfig(combo))
                valid[omitted] = True
            except ConfigError:
                valid[omitted] = False
        if valid[omitted]:
            configs.append(FilterConfig(combo))
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


def evaluate_config(
    ast: QueryAst,
    cfg: FilterConfig,
    corpus: CorpusIndex,
    labels: DatasetLabels | None = None,
    model: CostModel = DEFAULT_COST_MODEL,
) -> EvalReport:
    """Run one configuration over a labeled corpus.

    A false negative on a well-formed record is a soundness bug and raises
    instead of being reported.
    """
    if labels is None:
        labels = label_dataset(ast, corpus.records())
    match, parse_ok = labels.exact_match, labels.parse_ok
    start = time.perf_counter()
    plan = validate_config(ast, cfg)
    accepts = accept_vector(corpus, plan)
    tp = int(np.count_nonzero(match & accepts))
    fn = int(np.count_nonzero(match & ~accepts))
    fp = int(np.count_nonzero(~match & accepts))
    tn = len(match) - tp - fn - fp
    if fn and bool(np.any(match & ~accepts & parse_ok)):
        index = int(np.nonzero(match & ~accepts & parse_ok)[0][0])
        raise FalseNegativeError(
            f"record {index} matches the query but was filtered out "
            f"by {plan_notation(plan)}"
        )
    wall = time.perf_counter() - start
    return EvalReport(cfg, plan_notation(plan), tp, fp, tn, fn, plan_cost(plan, model), wall)


def evaluate_all(
    ast: QueryAst,
    configs: list[FilterConfig],
    corpus: CorpusIndex,
    labels: DatasetLabels | None = None,
    model: CostModel = DEFAULT_COST_MODEL,
) -> list[EvalReport]:
    if labels is None:
        labels = label_dataset(ast, corpus.records())
    reports = []
    for i, cfg in enumerate(configs):
        report = evaluate_config(ast, cfg, corpus, labels, model)
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
    data: bytes,
    options: ExplorerOptions = ExplorerOptions(),
    model: CostModel = DEFAULT_COST_MODEL,
) -> tuple[list[EvalReport], list[EvalReport]]:
    """Enumerate, evaluate and extract the front. Returns (reports, front)."""
    corpus = _sampled_corpus(CorpusIndex(data), options)
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
