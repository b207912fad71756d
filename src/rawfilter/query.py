"""Filter-query grammar and AST.

Queries are AND/OR trees over range predicates written as

    (0.7 <= "temperature" <= 35.1) AND (12 <= "airquality_raw" <= 49)

AND binds tighter than OR; parentheses group subexpressions.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass

from .errors import QueryError
from .ranges import NumericBound

_TOKEN = re.compile(
    r"""\s*(?:
        (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<op><=)
      | (?P<kw>AND\b|OR\b)
      | (?P<attr>"[^"]*")
      | (?P<number>-?\d+(?:\.\d+)?)
    )""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class Predicate:
    attr: str
    bound: NumericBound

    @functools.cached_property
    def pattern(self) -> bytes:
        """The attribute as a JSON string spells it, quotes excluded: the
        bytes the string primitive searches for."""
        return json.dumps(self.attr, ensure_ascii=False)[1:-1].encode()

    def leaves(self):
        yield self

    def notation(self) -> str:
        return f'({self.bound.lower} <= "{self.attr}" <= {self.bound.upper})'


@dataclass(frozen=True)
class And:
    children: tuple

    def leaves(self):
        for child in self.children:
            yield from child.leaves()

    def notation(self) -> str:
        return " AND ".join(
            f"({c.notation()})" if isinstance(c, Or) else c.notation() for c in self.children
        )


@dataclass(frozen=True)
class Or:
    children: tuple

    def leaves(self):
        for child in self.children:
            yield from child.leaves()

    def notation(self) -> str:
        return " OR ".join(
            f"({c.notation()})" if isinstance(c, And) else c.notation() for c in self.children
        )


QueryAst = Predicate | And | Or


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None or m.end() == m.start():
                tail = text[pos:].lstrip()
                if not tail:
                    break
                at = len(text) - len(tail)
                raise QueryError(f"unexpected input {tail[:12]!r}", at)
            kind = m.lastgroup
            if kind is not None:
                self.items.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.items[self.i] if self.i < len(self.items) else (None, None, len(self.text))

    def next(self, expect: str | None = None):
        kind, value, pos = self.peek()
        if expect is not None and kind != expect:
            raise QueryError(f"expected {expect}, found {value!r}", pos)
        self.i += 1
        return kind, value, pos


def parse_query(text: str) -> QueryAst:
    """Parse query text into an AST; raises QueryError with byte position."""
    tokens = _Tokens(text)
    ast = _parse_or(tokens)
    kind, value, pos = tokens.peek()
    if kind is not None:
        raise QueryError(f"trailing input {value!r}", pos)
    return ast


def _parse_or(tokens: _Tokens):
    children = [_parse_and(tokens)]
    while tokens.peek()[0] == "kw" and tokens.peek()[1] == "OR":
        tokens.next()
        children.append(_parse_and(tokens))
    return children[0] if len(children) == 1 else Or(tuple(children))


def _parse_and(tokens: _Tokens):
    children = [_parse_clause(tokens)]
    while tokens.peek()[0] == "kw" and tokens.peek()[1] == "AND":
        tokens.next()
        children.append(_parse_clause(tokens))
    return children[0] if len(children) == 1 else And(tuple(children))


def _parse_clause(tokens: _Tokens):
    tokens.next("lparen")
    kind, value, pos = tokens.peek()
    if kind == "number":
        node = _parse_predicate(tokens)
    else:
        node = _parse_or(tokens)
    tokens.next("rparen")
    return node


def _parse_predicate(tokens: _Tokens) -> Predicate:
    _, lower, pos = tokens.next("number")
    tokens.next("op")
    _, attr, _ = tokens.next("attr")
    tokens.next("op")
    _, upper, _ = tokens.next("number")
    try:
        bound = NumericBound.from_literals(lower, upper)
    except ValueError as exc:
        raise QueryError(str(exc), pos) from exc
    return Predicate(attr[1:-1], bound)
