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


class JsonObject(list):
    """JSON object as an ordered pair list; duplicate keys are preserved.

    The object is a list of its (key, value) pairs, so the decoder builds one
    with no Python-level call. It equals only another JsonObject, never a
    plain list or a JSON array; `pairs` is a plain-list copy of the pairs.
    """

    __slots__ = ()

    @property
    def pairs(self) -> list:
        return list(self)

    def get(self, key, default=None):
        for k, v in self:
            if k == key:
                return v
        return default

    def __eq__(self, other):
        return isinstance(other, JsonObject) and list.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __repr__(self):
        return f"JsonObject({list(self)!r})"


class JsonParseError(ValueError):
    pass


def _reject_constant(name):
    raise JsonParseError(f"non-finite literal {name!r} is not valid JSON")


# One decoder for every record: `json.loads` with hooks would build a new
# decoder and scanner per call.
_DECODER = json.JSONDecoder(
    object_pairs_hook=JsonObject,
    parse_float=Decimal,
    parse_int=Decimal,
    parse_constant=_reject_constant,
)


def parse_json(data: bytes | str):
    """Strictly parse one record; numbers become Decimal (exponent applied)."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise JsonParseError(str(exc)) from exc
    try:
        return _DECODER.decode(data)
    except json.JSONDecodeError as exc:
        raise JsonParseError(str(exc)) from exc


def coerce_number(value) -> Decimal | None:
    """Numbers pass through; numeric strings coerce; everything else is None."""
    if isinstance(value, Decimal):
        return value
    if isinstance(value, str) and _NUMERIC_STRING.match(value):
        return Decimal(value)
    return None


def _leaf_tests(query: QueryAst) -> tuple[dict, dict]:
    """A bit per distinct query leaf, and per attribute its leaves' (bit, bound)."""
    bits = {leaf: 1 << i for i, leaf in enumerate(dict.fromkeys(query.leaves()))}
    tests: dict = {}
    for leaf, bit in bits.items():
        tests.setdefault(leaf.attr, []).append((bit, leaf.bound))
    return bits, tests


def _held(tests: list, value) -> int:
    """Bits of the (bit, bound) tests that one occurrence's value satisfies."""
    number = coerce_number(value)
    if number is None:
        return 0
    held = 0
    for bit, bound in tests:
        if bound.contains(number):
            held |= bit
    return held


def _hits(value, tests: dict) -> int:
    """Bits of the leaves that some occurrence of their attribute satisfies,
    found in one walk of the record.

    Two spellings count: a SenML measurement object ({"n": attr, "v": x})
    supplies x, and any object with attr as a key supplies that key's value.
    An object allocates nothing unless one of its "n" names a query attribute.
    """
    hits = 0
    stack = [value] if isinstance(value, list) else []
    while stack:
        node = stack.pop()
        if isinstance(node, JsonObject):
            names = None  # the object's "n" attributes
            for k, v in node:
                if k in tests:
                    hits |= _held(tests[k], v)
                # Only a string "n" names an attribute; the test also keeps
                # unhashable values out of the dict lookup.
                if k == "n" and isinstance(v, str) and v in tests:
                    names = [v] if names is None else names + [v]
                if isinstance(v, list):
                    stack.append(v)
            if names:
                for k, v in node:
                    if k == "v":
                        for name in names:
                            hits |= _held(tests[name], v)
        else:
            for item in node:
                if isinstance(item, list):
                    stack.append(item)
    return hits


def _holds(query: QueryAst, hits: int, bits: dict) -> bool:
    if isinstance(query, Predicate):
        return bool(hits & bits[query])
    if isinstance(query, And):
        return all(_holds(child, hits, bits) for child in query.children)
    if isinstance(query, Or):
        return any(_holds(child, hits, bits) for child in query.children)
    raise TypeError(f"not a query node: {query!r}")


def eval_exact(query: QueryAst, value) -> bool:
    """True when the parsed record matches the query exactly.

    A predicate holds when any occurrence of its attribute has a numeric
    value inside the bounds; non-coercible occurrences are false.
    """
    bits, tests = _leaf_tests(query)
    return _holds(query, _hits(value, tests), bits)


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
    bits, tests = _leaf_tests(query)
    truth: dict = {}  # hit bits -> label; few distinct patterns repeat
    for i, payload in enumerate(records):
        try:
            value = parse_json(payload)
        except JsonParseError:
            labels.append(MatchLabel(i, False, parse_ok=False))
            malformed += 1
            continue
        hits = _hits(value, tests)
        match = truth.get(hits)
        if match is None:
            match = truth[hits] = _holds(query, hits, bits)
        labels.append(MatchLabel(i, match))
    if not labels:
        return DatasetLabels([], 0.0, empty=True)
    selectivity = sum(1 for lab in labels if lab.exact_match) / len(labels)
    return DatasetLabels(labels, selectivity, malformed_count=malformed)
