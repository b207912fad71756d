"""Exact ground truth for measuring raw-filter quality.

A strict JSON parse (numbers kept as exact decimals, duplicate keys
preserved) plus exact query evaluation labels each record as a true match
or not. The raw filter's accepts must be a superset of these labels on any
well-formed corpus; that containment is the no-false-negative contract.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from decimal import Decimal

import numpy as np

from .query import And, Or, Predicate, QueryAst

_NUMERIC_STRING = re.compile(r"-?\d+(\.\d+)?([eE][+-]?\d+)?\Z")


class JsonObject:
    """JSON object as an ordered pair list; duplicate keys are preserved."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        self.pairs = list(pairs)

    def get(self, key, default=None):
        for k, v in self.pairs:
            if k == key:
                return v
        return default

    def __eq__(self, other):
        return isinstance(other, JsonObject) and self.pairs == other.pairs

    def __repr__(self):
        return f"JsonObject({self.pairs!r})"


class JsonParseError(ValueError):
    pass


def _reject_constant(name):
    raise JsonParseError(f"non-finite literal {name!r} is not valid JSON")


def parse_json(data: bytes | str):
    """Strictly parse one record; numbers become Decimal (exponent applied)."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise JsonParseError(str(exc)) from exc
    try:
        return json.loads(
            data,
            object_pairs_hook=JsonObject,
            parse_float=Decimal,
            parse_int=Decimal,
            parse_constant=_reject_constant,
        )
    except json.JSONDecodeError as exc:
        raise JsonParseError(str(exc)) from exc


def coerce_number(value) -> Decimal | None:
    """Numbers pass through; numeric strings coerce; everything else is None."""
    if isinstance(value, Decimal):
        return value
    if isinstance(value, str) and _NUMERIC_STRING.match(value):
        return Decimal(value)
    return None


def _occurrences(value, attrs) -> dict:
    """All values each attribute in ``attrs`` takes anywhere in the record,
    collected in one walk.

    Two spellings count: a SenML measurement object ({"n": attr, "v": x})
    supplies x, and any object with attr as a key supplies that key's value.
    """
    found: dict = {}

    def walk(node):
        if isinstance(node, JsonObject):
            names, values = [], []  # the object's "n" attributes and "v" values
            for k, v in node.pairs:
                if k in attrs:
                    found.setdefault(k, []).append(v)
                if k == "v":
                    values.append(v)
                # Only a string "n" names an attribute; the test also keeps
                # unhashable values out of the set lookup.
                elif k == "n" and isinstance(v, str) and v in attrs:
                    names.append(v)
                if isinstance(v, (JsonObject, list)):
                    walk(v)
            if values:
                for name in names:
                    found.setdefault(name, []).extend(values)
        else:
            for item in node:
                if isinstance(item, (JsonObject, list)):
                    walk(item)

    if isinstance(value, (JsonObject, list)):
        walk(value)
    return found


def _holds(query: QueryAst, occurrences: dict) -> bool:
    if isinstance(query, Predicate):
        for occurrence in occurrences.get(query.attr, ()):
            number = coerce_number(occurrence)
            if number is not None and query.bound.contains(number):
                return True
        return False
    if isinstance(query, And):
        return all(_holds(child, occurrences) for child in query.children)
    if isinstance(query, Or):
        return any(_holds(child, occurrences) for child in query.children)
    raise TypeError(f"not a query node: {query!r}")


def _query_attrs(query: QueryAst) -> frozenset:
    return frozenset(leaf.attr for leaf in query.leaves())


def eval_exact(query: QueryAst, value) -> bool:
    """True when the parsed record matches the query exactly.

    A predicate holds when any occurrence of its attribute has a numeric
    value inside the bounds; non-coercible occurrences are false.
    """
    return _holds(query, _occurrences(value, _query_attrs(query)))


@dataclass(frozen=True)
class MatchLabel:
    index: int
    exact_match: bool
    parse_ok: bool = True


@dataclass
class DatasetLabels:
    """Per-record labels, plus their `exact_match` and `parse_ok` flags as
    bool arrays (built once, read by every configuration's evaluation)."""

    labels: list
    selectivity: float
    empty: bool = False
    malformed_count: int = 0
    exact_match: np.ndarray = field(init=False, repr=False, compare=False)
    parse_ok: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.labels)
        self.exact_match = np.fromiter((lab.exact_match for lab in self.labels), dtype=bool, count=n)
        self.parse_ok = np.fromiter((lab.parse_ok for lab in self.labels), dtype=bool, count=n)

    @property
    def matches(self) -> int:
        return int(np.count_nonzero(self.exact_match))


def label_dataset(query: QueryAst, records) -> DatasetLabels:
    """Label every record; malformed records count as non-matches."""
    labels = []
    malformed = 0
    attrs = _query_attrs(query)
    for i, payload in enumerate(records):
        try:
            value = parse_json(payload)
        except JsonParseError:
            labels.append(MatchLabel(i, False, parse_ok=False))
            malformed += 1
            continue
        labels.append(MatchLabel(i, _holds(query, _occurrences(value, attrs))))
    if not labels:
        return DatasetLabels([], 0.0, empty=True)
    selectivity = sum(1 for lab in labels if lab.exact_match) / len(labels)
    return DatasetLabels(labels, selectivity, malformed_count=malformed)
