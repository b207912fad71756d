"""Compilation of queries into raw-filter trees and record evaluation.

Each query predicate becomes, per configuration, one of

* OMIT: dropped (allowed only under AND, which must keep a predicate),
* VALUE_ONLY: the range primitive alone,
* FLAT: string AND range, anywhere in the record,
* SCOPED: string and range firing inside the same bracket scope,
* KEYVALUE: string and range firing inside the same comma segment of a
  scope (flat layouts where the key precedes its value).

Every primitive consumes every record byte; structural context is applied
when fires are combined, not while matching. A string fire is attributed to
the scope/segment at its final byte, a number fire to the scope/segment of
the token's digits (its delimiter may close the scope).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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

    def descriptor(self, ast: QueryAst) -> str:
        return serialize_config(ast, self)


# --- compiled filter tree ---------------------------------------------------


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

    def truth(self) -> bool:
        return self.latched

    def notation(self) -> str:
        if self.kind == "string":
            return self.primitive.notation()
        return self.primitive.dfa.bound.notation()


@dataclass
class AndNode:
    children: list

    def truth(self) -> bool:
        return all(c.truth() for c in self.children)

    def notation(self) -> str:
        return "( " + " & ".join(c.notation() for c in self.children) + " )"


@dataclass
class OrNode:
    children: list

    def truth(self) -> bool:
        return any(c.truth() for c in self.children)

    def notation(self) -> str:
        return "( " + " | ".join(c.notation() for c in self.children) + " )"


@dataclass
class ScopeConj:
    """True when one scope collected at least one fire from every child."""

    children: list

    def truth(self) -> bool:
        scopes = set(self.children[0].fires_by_scope)
        for child in self.children[1:]:
            scopes &= child.fires_by_scope.keys()
            if not scopes:
                return False
        return True

    def notation(self) -> str:
        return "{ " + " & ".join(c.notation() for c in self.children) + " }"


@dataclass
class SegmentConj:
    """True when one (scope, comma segment) has fires from every child."""

    children: list

    def truth(self) -> bool:
        segments = set(self.children[0].fires_by_segment)
        for child in self.children[1:]:
            segments &= child.fires_by_segment.keys()
            if not segments:
                return False
        return True

    def notation(self) -> str:
        return "{ " + " &kv ".join(c.notation() for c in self.children) + " }"


@dataclass
class RawFilterExpr:
    """Compiled filter: evaluation tree plus the flat list of leaves."""

    root: object
    leaves: list
    ast: QueryAst
    config: FilterConfig

    def notation(self) -> str:
        return self.root.notation()


# --- validation shared with the explorer ------------------------------------


def validate_config(ast: QueryAst, cfg: FilterConfig) -> None:
    """Enforce the omission rules on the whole tree."""
    leaves = list(ast.leaves())
    if len(cfg.predicates) != len(leaves):
        raise ConfigError(
            f"config has {len(cfg.predicates)} predicate entries, query has {len(leaves)}"
        )
    counter = iter(range(len(leaves)))

    def walk(node) -> tuple[int, int]:
        # returns (total leaves, omitted leaves) in the subtree
        if isinstance(node, Predicate):
            idx = next(counter)
            return 1, 1 if cfg.predicates[idx].mode is Mode.OMIT else 0
        totals = [walk(c) for c in node.children]
        total = sum(t for t, _ in totals)
        omitted = sum(o for _, o in totals)
        if isinstance(node, Or) and omitted:
            raise ConfigError("predicates under an OR cannot be omitted")
        if isinstance(node, And) and omitted == total:
            raise ConfigError("an AND clause must keep at least one predicate")
        return total, omitted

    total, omitted = walk(ast)
    if omitted == total:
        raise ConfigError("all predicates omitted")


# --- compilation -------------------------------------------------------------


def compile_filter(ast: QueryAst, cfg: FilterConfig) -> RawFilterExpr:
    validate_config(ast, cfg)
    leaves: list[Leaf] = []
    configs = iter(cfg.predicates)

    def build(node):
        if isinstance(node, Predicate):
            pc = next(configs)
            if pc.mode is Mode.OMIT:
                return None
            range_leaf = Leaf(RangeMatcher(build_range_dfa(node.bound)), "range")
            if pc.mode is Mode.VALUE_ONLY:
                leaves.append(range_leaf)
                return range_leaf
            matcher = make_string_matcher(node.attr, pc.block)
            string_leaf = Leaf(matcher, "string")
            leaves.extend((string_leaf, range_leaf))
            pair = [string_leaf, range_leaf]
            if pc.mode is Mode.FLAT:
                return AndNode(pair)
            if pc.mode is Mode.SCOPED:
                return ScopeConj(pair)
            return SegmentConj(pair)
        children = [built for c in node.children if (built := build(c)) is not None]
        if not children:
            return None
        if len(children) == 1:
            return children[0]
        return AndNode(children) if isinstance(node, And) else OrNode(children)

    root = build(ast)
    return RawFilterExpr(root, leaves, ast, cfg)


# --- evaluation ---------------------------------------------------------------


def filter_record(expr: RawFilterExpr, record: bytes, events=None) -> bool:
    """Evaluate one record; primitives must be reset (see reset_filter)."""
    if events is None:
        events = iter_events(record)
    leaves = expr.leaves
    for ev in events:
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
    return expr.root.truth()


def reset_filter(expr: RawFilterExpr) -> None:
    for leaf in expr.leaves:
        leaf.reset()


def accepts(expr: RawFilterExpr, record: bytes) -> bool:
    """Reset, evaluate, and report one record."""
    reset_filter(expr)
    return filter_record(expr, record)


# --- configuration text format -----------------------------------------------


def serialize_config(ast: QueryAst, cfg: FilterConfig) -> str:
    """One line per predicate: ``attr MODE B`` (B is '-' without a string)."""
    validate_config(ast, cfg)
    lines = []
    for leaf, pc in zip(ast.leaves(), cfg.predicates):
        block = "-" if pc.block is None else str(pc.block)
        lines.append(f"{leaf.attr} {pc.mode.value} {block}")
    return "\n".join(lines) + "\n"


def parse_config(text: str, ast: QueryAst) -> FilterConfig:
    """Parse the ``attr MODE B`` lines against the query's predicates."""
    leaves = list(ast.leaves())
    entries = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
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
            resolve_block_len(leaf.attr, block)
        else:
            if block_text != "-":
                raise ConfigError(f"line {lineno}: mode {mode_name} takes no block length, use '-'")
            block = None
        predicates.append(PredicateConfig(mode, block))
    cfg = FilterConfig(tuple(predicates))
    validate_config(ast, cfg)
    return cfg
