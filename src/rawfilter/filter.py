"""Compilation of queries into raw-filter plans and record evaluation.

Each query predicate becomes, per configuration, one of

* OMIT: dropped (allowed only under AND, which must keep a predicate),
* VALUE_ONLY: the range primitive alone,
* FLAT: string AND range, anywhere in the record,
* SCOPED: string and range firing inside the same bracket scope,
* KEYVALUE: string and range firing inside the same comma segment of a
  scope (flat layouts where the key precedes its value).

Only `validate_config` applies these rules; everything else reads the
normalized plan it returns.

Every primitive consumes every record byte; structural context is applied
when fires are combined, not while matching. A string fire is attributed to
the scope/segment at its final byte, a number fire to the scope/segment of
the token's digits (its delimiter may close the scope).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import ConfigError
from .query import And, Or, Predicate, QueryAst
from .ranges import RangeMatcher, build_range_dfa
from .scanner import iter_events
from .strings import make_string_matcher, resolve_block_len


class Mode(str, Enum):
    OMIT = "OMIT"
    VALUE_ONLY = "VALUE_ONLY"
    FLAT = "FLAT"
    SCOPED = "SCOPED"
    KEYVALUE = "KEYVALUE"


_STRING_MODES = (Mode.FLAT, Mode.SCOPED, Mode.KEYVALUE)


@dataclass(frozen=True)
class PredicateConfig:
    mode: Mode
    block: int | str | None = None  # 1, 2, ... or "N"; None unless a string mode

    def __post_init__(self):
        if self.mode in _STRING_MODES and self.block is None:
            raise ConfigError(f"mode {self.mode.value} needs a block length")
        if self.mode not in _STRING_MODES and self.block is not None:
            raise ConfigError(f"mode {self.mode.value} takes no block length")


@dataclass(frozen=True)
class FilterConfig:
    """Per-predicate choices, in query leaf order."""

    predicates: tuple


# --- compiled filter --------------------------------------------------------


class Leaf:
    """One primitive instance plus its per-record fire log."""

    def __init__(self, primitive, kind: str):
        self.primitive = primitive
        self.kind = kind  # 'string' or 'range'
        self.fires_by_scope: dict = {}
        self.fires_by_segment: dict = {}

    @property
    def latched(self) -> bool:
        return self.primitive.latched

    def record_fire(self, offset: int, scope: int, segment: int) -> None:
        self.fires_by_scope.setdefault(scope, offset)
        self.fires_by_segment.setdefault((scope, segment), offset)

    def reset(self) -> None:
        self.primitive.reset()
        self.fires_by_scope.clear()
        self.fires_by_segment.clear()


@dataclass
class RawFilterExpr:
    """Compiled filter: its plan, one (string leaf or None, range leaf) pair
    per plan leaf, and the pairs' leaves flattened in that order."""

    leaves: list
    plan: Plan
    pairs: list

    def notation(self) -> str:
        return plan_notation(self.plan)


# --- the normalized plan ------------------------------------------------------


class PlanLeaf(NamedTuple):
    """A kept predicate; ``block`` is in bytes, None under VALUE_ONLY."""

    pred: Predicate
    mode: Mode
    block: int | None


class PlanAnd(NamedTuple):
    children: tuple  # two or more plan nodes


class PlanOr(NamedTuple):
    children: tuple  # two or more plan nodes


Plan = PlanLeaf | PlanAnd | PlanOr


def validate_config(ast: QueryAst, cfg: FilterConfig) -> Plan:
    """Enforce the omission rules on the whole tree and return its plan:
    OMIT leaves dropped, AND/OR nodes left with one child collapsed, block
    lengths resolved."""
    leaves = list(ast.leaves())
    if len(cfg.predicates) != len(leaves):
        raise ConfigError(
            f"config has {len(cfg.predicates)} predicate entries, query has {len(leaves)}"
        )
    configs = iter(cfg.predicates)
    omitted = 0

    def walk(node):
        # plan of the subtree, None when all of it is omitted
        nonlocal omitted
        if isinstance(node, Predicate):
            pc = next(configs)
            if pc.mode is Mode.OMIT:
                omitted += 1
                return None
            return plan_leaf(node, pc)
        omitted_before = omitted
        kept = [plan for child in node.children if (plan := walk(child)) is not None]
        if isinstance(node, Or) and omitted > omitted_before:
            raise ConfigError("predicates under an OR cannot be omitted")
        if isinstance(node, And) and not kept:
            raise ConfigError("an AND clause must keep at least one predicate")
        if len(kept) == 1:
            return kept[0]
        return (PlanAnd if isinstance(node, And) else PlanOr)(tuple(kept))

    plan = walk(ast)
    if plan is None:
        raise ConfigError("all predicates omitted")
    return plan


def plan_leaf(pred: Predicate, pc: PredicateConfig) -> PlanLeaf:
    """The plan leaf of a kept predicate, its block resolved to bytes."""
    block = None if pc.block is None else resolve_block_len(pred.pattern, pc.block)
    return PlanLeaf(pred, pc.mode, block)


def plan_leaves(plan: Plan) -> list[PlanLeaf]:
    """The plan's leaves in query order."""
    if isinstance(plan, PlanLeaf):
        return [plan]
    return [leaf for child in plan.children for leaf in plan_leaves(child)]


def string_notation(leaf: PlanLeaf) -> str:
    return f's{leaf.block}("{leaf.pred.attr}")'


def leaf_notation(leaf: PlanLeaf) -> str:
    value = leaf.pred.bound.notation()
    if leaf.mode is Mode.VALUE_ONLY:
        return value
    if leaf.mode is Mode.FLAT:
        return f"( {string_notation(leaf)} & {value} )"
    joiner = " & " if leaf.mode is Mode.SCOPED else " &kv "
    return "{ " + string_notation(leaf) + joiner + value + " }"


def plan_notation(plan: Plan, leaf=leaf_notation) -> str:
    """Compact label: { s1("attr") & v(lo<=f<=hi) } joined with ' & ' / ' | '.

    ``leaf`` renders each plan leaf, called in plan-leaf order.
    """
    if isinstance(plan, PlanLeaf):
        return leaf(plan)
    joiner = " & " if isinstance(plan, PlanAnd) else " | "
    return "( " + joiner.join(plan_notation(c, leaf) for c in plan.children) + " )"


# --- compilation -------------------------------------------------------------


def compile_filter(ast: QueryAst, cfg: FilterConfig) -> RawFilterExpr:
    plan = validate_config(ast, cfg)
    pairs = []
    for node in plan_leaves(plan):
        range_leaf = Leaf(RangeMatcher(build_range_dfa(node.pred.bound)), "range")
        string_leaf = None
        if node.mode is not Mode.VALUE_ONLY:
            string_leaf = Leaf(make_string_matcher(node.pred.pattern, node.block), "string")
        pairs.append((string_leaf, range_leaf))
    leaves = [leaf for pair in pairs for leaf in pair if leaf is not None]
    return RawFilterExpr(leaves, plan, pairs)


# --- evaluation ---------------------------------------------------------------


def _pair_truth(mode: Mode, string: Leaf | None, value: Leaf) -> bool:
    if mode is Mode.VALUE_ONLY:
        return value.latched
    if mode is Mode.FLAT:
        return string.latched and value.latched
    if mode is Mode.SCOPED:
        return not string.fires_by_scope.keys().isdisjoint(value.fires_by_scope)
    return not string.fires_by_segment.keys().isdisjoint(value.fires_by_segment)


def _plan_truth(expr: RawFilterExpr) -> bool:
    pairs = iter(expr.pairs)  # in plan-leaf order

    def walk(node) -> bool:
        if isinstance(node, PlanLeaf):
            return _pair_truth(node.mode, *next(pairs))
        # no short-circuit: every child consumes its own leaves' pairs
        children = [walk(c) for c in node.children]
        return all(children) if isinstance(node, PlanAnd) else any(children)

    return walk(expr.plan)


def filter_record(expr: RawFilterExpr, record: bytes) -> bool:
    """Evaluate one record; primitives must be reset (see reset_filter)."""
    leaves = expr.leaves
    for ev in iter_events(record):
        for leaf in leaves:
            if leaf.primitive.step(ev):
                if leaf.kind == "string":
                    leaf.record_fire(ev.offset, ev.scope_id, ev.segment)
                else:
                    leaf.record_fire(
                        ev.offset, leaf.primitive.fire_scope, leaf.primitive.fire_segment
                    )
    end = len(record)
    for leaf in leaves:
        if leaf.kind == "range" and leaf.primitive.flush():
            leaf.record_fire(end, leaf.primitive.fire_scope, leaf.primitive.fire_segment)
    return _plan_truth(expr)


def reset_filter(expr: RawFilterExpr) -> None:
    for leaf in expr.leaves:
        leaf.reset()


def accepts(expr: RawFilterExpr, record: bytes) -> bool:
    """Reset, evaluate, and report one record."""
    reset_filter(expr)
    return filter_record(expr, record)


# --- configuration text format -----------------------------------------------


def _config_attr(attr: str) -> str:
    """The attribute as an ``attr MODE B`` line writes it: raw when it reads
    back as one token, its JSON spelling when it is empty or holds
    whitespace or ``#``."""
    if attr and not any(c.isspace() or c == "#" for c in attr):
        return attr
    return json.dumps(attr)


def serialize_config(ast: QueryAst, cfg: FilterConfig) -> str:
    """One line per predicate: ``attr MODE B`` (B is '-' without a string)."""
    validate_config(ast, cfg)
    lines = []
    for leaf, pc in zip(ast.leaves(), cfg.predicates):
        block = "-" if pc.block is None else str(pc.block)
        lines.append(f"{_config_attr(leaf.attr)} {pc.mode.value} {block}")
    return "\n".join(lines) + "\n"


_JSON = json.JSONDecoder()


def parse_config(text: str, ast: QueryAst) -> FilterConfig:
    """Parse the ``attr MODE B`` lines against the query's predicates. An
    attribute that starts with a quote is read in its JSON spelling."""
    leaves = list(ast.leaves())
    entries = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        parts = []
        if line.startswith('"'):
            try:
                attr, end = _JSON.raw_decode(line)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"line {lineno}: bad quoted attribute in {raw!r}") from exc
            parts, line = [attr], line[end:]
        parts += line.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) != 3:
            raise ConfigError(f"line {lineno}: expected 'attr MODE B', got {raw!r}")
        entries.append((lineno, *parts))
    if len(entries) != len(leaves):
        raise ConfigError(f"config has {len(entries)} lines, query has {len(leaves)} predicates")
    predicates = []
    for (lineno, attr, mode_name, block_text), leaf in zip(entries, leaves):
        if attr != leaf.attr:
            raise ConfigError(f"line {lineno}: attribute {attr!r} does not match query {leaf.attr!r}")
        try:
            mode = Mode(mode_name)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: unknown mode {mode_name!r}") from exc
        if mode in _STRING_MODES:
            block: int | str | None = "N" if block_text == "N" else None
            if block is None:
                try:
                    block = int(block_text)
                except ValueError as exc:
                    raise ConfigError(f"line {lineno}: bad block length {block_text!r}") from exc
        else:
            if block_text != "-":
                raise ConfigError(f"line {lineno}: mode {mode_name} takes no block length, use '-'")
            block = None
        predicates.append(PredicateConfig(mode, block))
    cfg = FilterConfig(tuple(predicates))
    validate_config(ast, cfg)
    return cfg
