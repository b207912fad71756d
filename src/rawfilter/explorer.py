"""Design-space exploration: enumerate filter configurations, measure the
false-positive rate of each against oracle labels, estimate a proxy
resource cost, and extract the FPR/cost Pareto front.

The proxy cost model scores what a primitive would plausibly occupy in
hardware (comparator bits, counter bits, DFA table size) with tunable
weights; it is a relative measure for ranking configurations, not a
synthesis estimate.

Each configuration becomes one plan (`filter.validate_config`) that gives
its accept vector, notation and cost. Once blocks are resolved, only the
omission pattern decides validity and the plan's shape, so enumeration and
`evaluate_all` validate one shape per pattern.

`evaluate_all` is the one evaluator; `evaluate_config` (`rawfilter eval`)
is `evaluate_all` over one configuration. The first failing configuration
raises: an invalid one `ConfigError`, one that drops a well-formed true
match `FalseNegativeError`, since a false negative is never a statistic.

Every configuration is evaluated over one shared `CorpusIndex`, which caches
primitive fires and each predicate's accept vector per (mode, block): a
sweep scans and conjoins each primitive once. `evaluate_all` then walks each
plan shape once per slice of its configurations, over packed (configs x
words) accept matrices, and counts tp/fp by popcount. With timings on, a
report's wall_ms is its slice's evaluation time divided by the slice's
configuration count; the first slice also carries the build of every
predicate's accept vector.

Labels come from `oracle.label_dataset`, which parses every record with one
shared JSON decoder and tests the query attributes in one walk per record.
`reports_to_csv` formats each row as one string and joins them once,
quoting the notation as `csv.writer` would.
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

from .batch import CorpusIndex, evaluate_config_batch, plan_accepts
from .errors import CapExceededError, ConfigError, FalseNegativeError
from .filter import (
    FilterConfig,
    Mode,
    Plan,
    PlanLeaf,
    PredicateConfig,
    leaf_notation,
    plan_leaf,
    plan_notation,
    validate_config,
)
from .oracle import DatasetLabels, label_dataset
from .query import Predicate, QueryAst
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
                if not math.isfinite(weights[key]):
                    raise ConfigError(f"cost model line {lineno}: weight {key!r} must be finite")
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


def leaf_cost(leaf: PlanLeaf, model: CostModel = DEFAULT_COST_MODEL) -> float:
    """Proxy cost of one plan leaf: its primitives and its pair's combinator
    (two for a scoped or key-value pair)."""
    cost = range_cost(leaf.pred.bound, model)
    if leaf.mode is Mode.VALUE_ONLY:
        return cost
    cost += string_cost(leaf.pred.pattern, leaf.block, model)
    return cost + (model.combinator if leaf.mode is Mode.FLAT else 2 * model.combinator)


def plan_cost(plan: Plan, model: CostModel = DEFAULT_COST_MODEL, leaf=None) -> float:
    """Proxy cost of a plan: its leaves, one combinator per AND/OR node, and
    the scanner.

    ``leaf`` costs each plan leaf (default `leaf_cost`) and is called in
    plan-leaf order; it may return arrays, which add elementwise in the same
    order, so a sweep costs a whole group of configurations in one walk.
    """
    if leaf is None:
        leaf = functools.partial(leaf_cost, model=model)

    def walk(node):
        if isinstance(node, PlanLeaf):
            return leaf(node)
        total = 0
        for child in node.children:
            total = total + walk(child)
        return total + model.combinator

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


def _shape(ast: QueryAst, omitted: tuple) -> Plan | None:
    """Plan shape of an omission pattern, None when the pattern is invalid.

    Its leaves stand in for whichever choice a configuration makes; only
    their positions, the kept query leaves in order, are read.
    """
    probe = tuple(PredicateConfig(Mode.OMIT if o else Mode.VALUE_ONLY) for o in omitted)
    try:
        return validate_config(ast, FilterConfig(probe))
    except ConfigError:
        return None


def enumerate_configs(ast: QueryAst, options: ExplorerOptions = ExplorerOptions()) -> list[FilterConfig]:
    """All valid configurations, in a deterministic order; a listed block
    longer than an attribute stands for its N, and an empty attribute takes
    no string mode."""
    per_leaf: list[list[PredicateConfig]] = []
    for leaf in ast.leaves():
        n = len(leaf.pattern)
        blocks = dict.fromkeys(
            resolve_block_len(leaf.pattern, b if b == "N" else min(int(b), n)) for b in options.blocks if n
        )
        per_leaf.append([
            PredicateConfig(mode, b)
            for mode in options.modes
            for b in ((None,) if mode in (Mode.OMIT, Mode.VALUE_ONLY) else blocks)
        ])

    # Blocks are resolved above, so validity depends only on which leaves
    # are omitted: validate one plan shape per omission pattern.
    omits = [[pc.mode is Mode.OMIT for pc in choices] for choices in per_leaf]
    valid: dict[tuple, bool] = {}
    configs = []
    for combo, omitted in zip(itertools.product(*per_leaf), itertools.product(*omits)):
        if omitted not in valid:
            valid[omitted] = _shape(ast, omitted) is not None
        if valid[omitted]:
            configs.append(FilterConfig(combo))
            if len(configs) > options.cap:
                raise CapExceededError(options.cap)
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
    """Run one configuration over a labeled corpus: `evaluate_all` over a
    list of one, so it raises what `evaluate_all` raises."""
    return evaluate_all(ast, [cfg], corpus, labels, model)[0]


# Bytes of one (configurations x words) packed accept matrix: a group is
# evaluated in slices of this size, so memory follows the corpus and not the
# number of configurations.
_SLICE_BYTES = 1 << 20
_SLOT = "\0"  # a kept leaf's place in a shape's notation template


def _packed(vector: np.ndarray) -> np.ndarray:
    """A bool vector as zero-padded uint64 words of `np.packbits` bytes."""
    out = np.zeros(-(-len(vector) // 64) * 8, dtype=np.uint8)
    packed = np.packbits(vector)
    out[: len(packed)] = packed
    return out.view(np.uint64)


def _popcounts(words: np.ndarray) -> np.ndarray:
    """Set bits per row of a packed matrix."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def _choice(by_id: dict, by_value: dict, leaves: list, pred: Predicate, pc: PredicateConfig) -> int:
    """One leaf's choice row for ``pc``, resolved on first sight of its value
    and recorded under its id; -1 for OMIT."""
    row = by_value.get(pc)
    if row is None:
        row = -1
        if pc.mode is not Mode.OMIT:
            leaves.append(plan_leaf(pred, pc))
            row = len(leaves) - 1
        by_value[pc] = row
    by_id[id(pc)] = row
    return row


def _choice_rows(preds: list, configs: list[FilterConfig]) -> tuple[list, np.ndarray]:
    """Resolve each distinct (leaf, choice) of a configuration list once.

    Returns each leaf's resolved plan leaves, and the row of them that every
    configuration picks per leaf (-1 for OMIT) as a (configurations x leaves)
    array. It stops before the first configuration whose entry count or
    block is invalid.

    Enumerated configurations share their `PredicateConfig` objects, so rows
    are looked up by object id, which skips the dataclass's Python-level
    hash; an id seen for the first time falls back to a lookup by value.
    The ids stay unique because ``configs`` keeps every entry alive.
    """
    by_id: list[dict] = [{} for _ in preds]  # per leaf: id(PredicateConfig) -> row
    by_value: list[dict] = [{} for _ in preds]  # per leaf: PredicateConfig -> row
    choices: list[list[PlanLeaf]] = [[] for _ in preds]
    picked = []
    for cfg in configs:
        if len(cfg.predicates) != len(preds):
            break
        row = tuple(map(dict.get, by_id, map(id, cfg.predicates)))
        if None in row:
            try:
                row = tuple(map(_choice, by_id, by_value, choices, preds, cfg.predicates))
            except ValueError:  # ConfigError, or a block that is not a number
                break
        picked.append(row)
    return choices, np.array(picked, dtype=np.intp).reshape(len(picked), len(preds))


def _gathered(tables: list, kept: list, ids: np.ndarray):
    """Leaf callback for a plan walk: for the next kept leaf, in plan-leaf
    order, the rows of its choice table that each configuration picks."""
    columns = iter(zip(kept, ids.T))

    def leaf(_):
        k, column = next(columns)
        return tables[k][column]

    return leaf


def evaluate_all(
    ast: QueryAst,
    configs: list[FilterConfig],
    corpus: CorpusIndex,
    labels: DatasetLabels | None = None,
    model: CostModel = DEFAULT_COST_MODEL,
) -> list[EvalReport]:
    """The one evaluator: a report per configuration, in list order. The
    first failing configuration in list order raises: an invalid one
    `validate_config`'s `ConfigError`, one that drops a well-formed true
    match `FalseNegativeError` for the first such record.

    A group is every configuration with one omission pattern, so one plan
    shape, validated once. Each distinct (leaf, choice) is resolved once into
    a packed accept row, a leaf cost and a notation fragment. Each slice of a
    group, at most `_SLICE_BYTES` per matrix, is one walk of its shape: AND/OR
    over the rows its configurations pick, tp, accepted and sound-kept records
    by popcount, costs through `plan_cost` and notations from one template. A
    report's wall_time is its slice's evaluation time divided by the slice's
    configuration count; the first slice also carries the build of every
    predicate's accept vector.
    """
    if labels is None:
        labels = label_dataset(ast, corpus.records())
    choices, ids = _choice_rows(list(ast.leaves()), configs)
    # One group per omission pattern, its bits packed into one void scalar.
    packed_omits = np.packbits(ids < 0, axis=1)
    _, first, group_of = np.unique(
        packed_omits.view(f"V{packed_omits.shape[1]}").ravel(), return_index=True, return_inverse=True
    )
    patterns = [tuple((ids[i] < 0).tolist()) for i in first.tolist()]
    shapes = [_shape(ast, omitted) for omitted in patterns]
    failing = min([len(ids)] + [i for shape, i in zip(shapes, first.tolist()) if shape is None])

    reports: list = [None] * failing
    match = _packed(labels.exact_match)
    sound = _packed(labels.exact_match & labels.parse_ok)
    n, n_match, n_sound = len(labels.exact_match), labels.matches, int(_popcounts(sound))
    per_slice = max(1, _SLICE_BYTES // max(1, match.nbytes))
    start = time.perf_counter()
    accept_rows = [
        np.stack([_packed(corpus.predicate_vector(x)) for x in leaves]) if leaves else None
        for leaves in choices
    ]
    costs = [np.array([leaf_cost(x, model) for x in leaves]) for leaves in choices]
    fragments = [np.array([leaf_notation(x) for x in leaves], dtype=object) for leaves in choices]
    for g, (shape, omitted) in enumerate(zip(shapes, patterns)):
        members = np.flatnonzero(group_of == g)
        members = members[members < failing]
        if shape is None or not len(members):
            continue
        kept = [k for k, o in enumerate(omitted) if not o]
        group_ids = ids[np.ix_(members, kept)]
        template = plan_notation(shape, lambda _: _SLOT).split(_SLOT)
        for lo in range(0, len(members), per_slice):
            indexes = members[lo : lo + per_slice]
            rows = group_ids[lo : lo + per_slice]
            accepts = plan_accepts(shape, _gathered(accept_rows, kept, rows))
            accepted = _popcounts(accepts)
            np.bitwise_and(accepts, match, out=accepts)
            tp = _popcounts(accepts)
            sound_kept = _popcounts(np.bitwise_and(accepts, sound, out=accepts))
            cost = plan_cost(shape, model, _gathered(costs, kept, rows))
            notation = template[0]
            for j, k in enumerate(kept):
                notation = notation + fragments[k][rows[:, j]] + template[j + 1]
            now = time.perf_counter()
            wall, start = (now - start) / len(rows), now
            unsound = indexes[sound_kept < n_sound]
            if len(unsound):
                failing = min(failing, int(unsound[0]))
            fn = n_match - tp
            fp = accepted - tp
            for i, text, tp_i, fp_i, fn_i, cost_i in zip(
                indexes.tolist(), notation.tolist(), tp.tolist(), fp.tolist(), fn.tolist(), cost.tolist()
            ):
                reports[i] = EvalReport(configs[i], text, tp_i, fp_i, n - tp_i - fn_i - fp_i, fn_i, cost_i, wall, i)
    if failing < len(configs):
        accepts = evaluate_config_batch(corpus, validate_config(ast, configs[failing]))  # raises if invalid
        record = int(np.flatnonzero(labels.exact_match & labels.parse_ok & ~accepts)[0])
        raise FalseNegativeError(
            f"record {record} matches the query but was filtered out by {reports[failing].notation}"
        )
    return reports


# --- Pareto front -----------------------------------------------------------------


def pareto_front(reports: list[EvalReport]) -> list[EvalReport]:
    """Non-dominated subset, sorted by descending FPR / ascending cost.

    Exact ties on both axes keep the lexicographically smallest notation.
    """
    if not reports:
        raise ValueError("pareto_front needs at least one report")
    best_of_tie: dict = {}  # (cost, fpr) -> report
    for r in reports:
        key = (r.cost, r.fpr)
        held = best_of_tie.get(key)
        if held is None or r.notation < held.notation:
            best_of_tie[key] = r
    # By ascending cost, each kept point has a lower FPR than all before it,
    # so the front comes out in its final order.
    front = []
    best_fpr = math.inf
    for cost, fpr in sorted(best_of_tie):
        if fpr < best_fpr:
            front.append(best_of_tie[cost, fpr])
            best_fpr = fpr
    return front


def _sampled_corpus(corpus: CorpusIndex, options: ExplorerOptions) -> CorpusIndex:
    import random

    if options.sample is None:
        return corpus
    records = corpus.records()
    if options.sample >= len(records):
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
    configs = enumerate_configs(ast, options)
    if not configs:
        raise ConfigError(f"no valid configuration with modes {','.join(m.value for m in options.modes)}")
    corpus = _sampled_corpus(CorpusIndex(data), options)
    labels = label_dataset(ast, corpus.records())
    reports = evaluate_all(ast, configs, corpus, labels, model)
    return reports, pareto_front(reports)


# --- CSV emission ------------------------------------------------------------------

CSV_HEADER = ["config_id", "config", "fpr", "fp", "tn", "tp", "fn", "cost", "wall_ms"]


def _csv_field(text: str) -> str:
    """``text`` as `csv.writer` writes it with QUOTE_MINIMAL and "\\n" line
    ends: quoted, with doubled quotes, when it holds a delimiter, a quote or
    a line end."""
    if "\r" in text:  # rare; csv.writer's rule for a bare "\r" is not its rule for "\n"
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerow([text, ""])
        return out.getvalue()[:-2]
    if '"' in text or "," in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def reports_to_csv(reports: list[EvalReport], include_timings: bool = False) -> str:
    """One row per report under `CSV_HEADER`, as `csv.writer` would write
    them, built with one join."""
    rows = [",".join(CSV_HEADER)]
    for r in reports:
        wall_ms = round(r.wall_time * 1000.0, 3) if include_timings else 0
        rows.append(
            f"{r.config_id},{_csv_field(r.notation)},{r.fpr:.6f},{r.fp},{r.tn},{r.tp},{r.fn},{r.cost:g},{wall_ms}"
        )
    return "\n".join(rows) + "\n"
