"""Number-range raw filtering.

A closed (or half-open) numeric interval is compiled into a byte-class DFA
that accepts exactly the plain decimal spellings of in-range values:
optional '-' sign, digits (leading zeros tolerated), optional '.' and
fraction digits. Construction refines the interval digit by digit: a digit
strictly inside the bound digit stops constraining the rest of the token,
a digit equal to the bound digit keeps the comparison tight, and token
lengths above/below the bound's digit count are decided wholesale.

Tokens are maximal runs of numeric-class bytes (digits, '+', '-', '.',
'e'/'E'); the DFA verdict is taken at the first non-numeric byte. Exponent
spellings cannot be range-checked by a DFA, so any token with a digit
followed by 'e'/'E' is accepted outright. Over-acceptance of that kind only
costs false positives; in-range values are never rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, InvalidOperation

import numpy as np

from .errors import ConfigError

DIGITS = "0123456789"
RANGE_ALPHABET = tuple(DIGITS) + (".", "-", "+", "e")

_SAT = ("sat",)
_DEAD = ("dead",)
_ZERO = ("zero",)

NUMERIC_CLASS = frozenset(b"0123456789+-.eE")


@dataclass(frozen=True)
class NumericBound:
    """Interval [lower, upper]; either side may be open (None)."""

    lower: Decimal | None
    upper: Decimal | None
    kind: str = "integer"  # 'integer' or 'decimal'; notation only

    def __post_init__(self):
        if self.lower is None and self.upper is None:
            raise ConfigError("at least one bound is required")
        if self.lower is not None and self.upper is not None and self.lower > self.upper:
            raise ConfigError(f"empty interval: {self.lower} > {self.upper}")

    @classmethod
    def from_literals(cls, lower: str | None, upper: str | None) -> "NumericBound":
        def parse(text):
            if text is None:
                return None
            try:
                value = Decimal(text)
            except InvalidOperation as exc:
                raise ConfigError(f"not a decimal literal: {text!r}") from exc
            if not value.is_finite():
                raise ConfigError(f"bound must be finite: {text!r}")
            return value

        lo, up = parse(lower), parse(upper)
        kind = "decimal" if any(t and "." in t for t in (lower, upper)) else "integer"
        return cls(lo, up, kind)

    @property
    def kind_letter(self) -> str:
        return "f" if self.kind == "decimal" else "i"

    def notation(self) -> str:
        lo = "" if self.lower is None else f"{self.lower}<="
        up = "" if self.upper is None else f"<={self.upper}"
        return f"v({lo}{self.kind_letter}{up})"

    def contains(self, value: Decimal) -> bool:
        if self.lower is not None and value < self.lower:
            return False
        if self.upper is not None and value > self.upper:
            return False
        return True


def _split_digits(value: Decimal) -> tuple[str, str]:
    """Significant integer digits and fraction digits of a nonnegative bound."""
    text = format(value, "f")
    if "." in text:
        ints, frac = text.split(".")
    else:
        ints, frac = text, ""
    return ints.lstrip("0"), frac


def _all_zero(digits: str) -> bool:
    return all(c == "0" for c in digits)


def _cmp(ch: str, bound_digit: str) -> str:
    if ch == bound_digit:
        return "tight"
    return "less" if ch < bound_digit else "greater"


def _lower_step(sub, ints, frac, ch):
    """Advance the >=-bound comparison of a token magnitude by one byte.

    Appending digits or fraction bytes never decreases a decimal value, so
    the moment the consumed prefix guarantees value >= bound the state
    saturates and absorbs all further digits and dots.
    """
    if sub[0] == "dead":
        return sub
    m = len(ints)
    if ch == ".":
        if sub[0] == "sat":
            return sub
        if sub[0] == "zero":
            return _lower_frac(0, frac) if m == 0 else _DEAD
        if sub[0] == "frac":
            return _DEAD
        k, cmp = sub[1], sub[2]
        if k < m or cmp == "less":
            return _DEAD
        return _lower_frac(0, frac)  # tight integer part
    if ch in DIGITS:
        if sub[0] == "sat":
            return sub
        if sub[0] == "zero":
            if ch == "0":
                return sub
            if m == 0:
                return _SAT  # any significant digit: value >= 1 > bound
            return _lower_int(1, _cmp(ch, ints[0]), m, frac)
        if sub[0] == "int":
            k, cmp = sub[1], sub[2]
            if k == m:
                return _SAT  # one more significant digit: value >= 10^m > bound
            nc = cmp if cmp != "tight" else _cmp(ch, ints[k])
            return _lower_int(k + 1, nc, m, frac)
        j = sub[1]  # tight fraction comparison; bound padded with zeros
        bound_digit = frac[j] if j < len(frac) else "0"
        if ch > bound_digit:
            return _SAT
        if ch < bound_digit:
            return _DEAD
        return _lower_frac(j + 1, frac)
    return _DEAD  # sign or exponent letter inside the token


def _lower_int(k, cmp, m, frac):
    if k == m:
        if cmp == "greater":
            return _SAT
        if cmp == "tight" and _all_zero(frac):
            return _SAT  # token already equals the bound
    return ("int", k, cmp)


def _lower_frac(j, frac):
    if _all_zero(frac[j:]):
        return _SAT
    return ("frac", j)


def _upper_step(sub, ints, frac, ch):
    """Advance the <=-bound comparison of a token magnitude by one byte.

    Saturation mirrors the lower side: once every continuation stays below
    the bound (e.g. a fraction digit strictly under the bound's), the state
    absorbs all further digits and dots.
    """
    if sub[0] == "dead":
        return sub
    m = len(ints)
    if ch == ".":
        if sub[0] == "sat":
            return sub
        if sub[0] == "zero":
            return ("frac", 0) if m == 0 else _SAT  # 0.F < 1 <= bound
        if sub[0] == "frac":
            return _DEAD
        k, cmp = sub[1], sub[2]
        if k < m or cmp == "less":
            return _SAT  # integer part strictly below the bound
        return ("frac", 0)
    if ch in DIGITS:
        if sub[0] == "sat":
            return sub
        if sub[0] == "zero":
            if ch == "0":
                return sub
            if m == 0:
                return _DEAD  # value >= 1 > bound
            return _upper_int(1, _cmp(ch, ints[0]), m)
        if sub[0] == "int":
            k, cmp = sub[1], sub[2]
            if k == m:
                return _DEAD  # one more significant digit: value > bound
            nc = cmp if cmp != "tight" else _cmp(ch, ints[k])
            return _upper_int(k + 1, nc, m)
        j = sub[1]
        bound_digit = frac[j] if j < len(frac) else "0"
        if ch < bound_digit:
            return _SAT
        if ch > bound_digit:
            return _DEAD
        return ("frac", min(j + 1, len(frac)))
    return _DEAD


def _upper_int(k, cmp, m):
    if k == m and cmp == "greater":
        return _DEAD
    return ("int", k, cmp)


class _Branch:
    """One sign branch: compares token magnitudes against [lower, upper].

    A side that is absent or vacuous for nonnegative magnitudes (lower <= 0)
    starts saturated. The branch is empty when upper < 0.
    """

    def __init__(self, lower: Decimal | None, upper: Decimal | None):
        self.empty = upper is not None and upper < 0
        constrain_lower = lower is not None and lower > 0
        self.lower = _split_digits(lower) if constrain_lower else ("", "")
        self.lower_init = _ZERO if constrain_lower else _SAT
        constrain_upper = not self.empty and upper is not None
        self.upper = _split_digits(upper) if constrain_upper else ("", "")
        self.upper_init = _ZERO if constrain_upper else _SAT

    def initial(self):
        return (self.lower_init, self.upper_init)

    def step(self, pair, ch):
        lo = _lower_step(pair[0], *self.lower, ch)
        up = _upper_step(pair[1], *self.upper, ch)
        if lo == _DEAD or up == _DEAD:
            return None
        return (lo, up)

    def accepts(self, pair) -> bool:
        return pair[0] == _SAT and pair[1][0] != "dead"


def derive_range_dfa(bound: NumericBound) -> tuple[np.ndarray, np.ndarray]:
    """Interval automaton over plain decimal spellings of in-range values.

    The sign splits the automaton into one branch for '-'-prefixed magnitudes
    and one for unsigned tokens; each branch refines its bounds digit by
    digit as described in the module docstring. A state is one (branch,
    comparison pair) and has at most one successor per symbol, so the
    search yields a DFA; states are numbered breadth-first.

    Returns (rows, accepting): rows[s, i] is the successor of state s on
    RANGE_ALPHABET[i], and the last row is the dead sink, which every
    missing successor reaches and which maps to itself.
    """
    lo, up = bound.lower, bound.upper
    unsigned = _Branch(lo, up)
    # -x in [lo, up]  <=>  x in [-up, -lo]
    neg = _Branch(
        -up if up is not None else None,
        -lo if lo is not None else None,
    )

    def successor(key, ch):
        """The key reached on `ch`, or None for the dead sink."""
        if key[0] == "start":
            if ch == "-":
                return None if neg.empty else ("n",) + neg.initial()
            if unsigned.empty or ch not in DIGITS + ".":
                return None
            key = ("u",) + unsigned.initial()
        nxt = (unsigned if key[0] == "u" else neg).step(key[1:], ch)
        return None if nxt is None else key[:1] + nxt

    def accepts(key) -> bool:
        if key[0] == "start":
            return not unsigned.empty and unsigned.accepts(unsigned.initial())
        return (unsigned if key[0] == "u" else neg).accepts(key[1:])

    keys = [("start",)]
    index = {keys[0]: 0, None: -1}  # the sink's row is known only at the end
    rows = []
    for key in keys:  # grows while it is walked: a breadth-first search
        row = []
        for ch in RANGE_ALPHABET:
            nkey = successor(key, ch)
            if nkey not in index:
                index[nkey] = len(keys)
                keys.append(nkey)
            row.append(index[nkey])
        rows.append(row)
    table = np.array(rows + [[-1] * len(RANGE_ALPHABET)])
    table[table < 0] = len(keys)
    return table, np.array([accepts(key) for key in keys] + [False])


def _minimize(rows: np.ndarray, accepting: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coarsest partition of a table whose last row is the dead sink.

    Every cycle of a derived range DFA is a self-loop: each side's comparison
    state only stays or moves on. So states are classed in reverse
    topological order, each from its successors' classes, as for an acyclic
    automaton (Revuz), in time linear in the table. A state joins a class
    when its signature (accept flag, successor classes, its self-loops read
    as that class) equals the class's own: each class is keyed by its
    signature with its own number read as a self-loop.

    States equivalent to the sink join its block, which stays the last row;
    the other blocks are numbered by their first state, so the start stays
    state 0 (the bound's own spelling is accepted: no language is empty).
    """
    succ = rows.tolist()
    n = len(succ)
    preds: list[list[int]] = [[] for _ in range(n)]
    waiting = [0] * n
    for s, row in enumerate(succ):
        targets = set(row) - {s}
        waiting[s] = len(targets)
        for t in targets:
            preds[t].append(s)
    order = [s for s in range(n) if not waiting[s]]
    for s in order:  # grows while it is walked: Kahn's algorithm
        for p in preds[s]:
            waiting[p] -= 1
            if not waiting[p]:
                order.append(p)
    if len(order) != n:
        raise ValueError("range DFA has a cycle other than a self-loop")
    self_loop = -1
    block = [0] * n
    classes: dict = {}  # signature, the class's own number read as a self-loop -> class
    for s in order:
        sig = (bool(accepting[s]), *[self_loop if t == s else block[t] for t in succ[s]])
        found = classes.get(sig)
        if found is None:
            for c in set(sig[1:]) - {self_loop}:
                if classes.get((sig[0], *[self_loop if b == c else b for b in sig[1:]])) == c:
                    found = c
                    break
            else:
                found = classes[sig] = len(classes)
        block[s] = found
    # Number blocks by first state, the sink's block last.
    first: dict = {}
    for b in block:
        first.setdefault(b, len(first))
    k, dead = len(first), first[block[-1]]
    renumber = np.arange(k) - (np.arange(k) > dead)
    renumber[dead] = k - 1
    block = renumber[[first[b] for b in block]]
    firsts = np.unique(block, return_index=True)[1]
    return block[rows[firsts]], accepting[firsts]


# Byte -> RANGE_ALPHABET column: the symbol 'e' covers both exponent letters.
_SYMBOL_BYTES = np.frombuffer(b"0123456789.-+eE", dtype=np.uint8)
_SYMBOL_COLUMNS = [RANGE_ALPHABET.index(chr(b).lower()) for b in _SYMBOL_BYTES]


class RangeDfa:
    """Minimized byte-class DFA for one numeric interval."""

    def __init__(self, bound: NumericBound):
        self.bound = bound
        rows, accepting = _minimize(*derive_range_dfa(bound))
        if len(rows) > 1 << 15:
            raise ConfigError(f"a range needs {len(rows) - 1} DFA states; its int16 table holds at most 32767")
        self.state_count = self.dead = len(rows) - 1
        self.input_classes = len({tuple(column) for column in rows[:-1].T.tolist()})
        # Byte-indexed table; the dead row absorbs, as do all non-numeric bytes.
        self.table = np.full((len(rows), 256), self.dead, dtype=np.int16)
        self.table[:, _SYMBOL_BYTES] = rows[:, _SYMBOL_COLUMNS]
        self.accept_mask = accepting

    def __repr__(self):
        return f"RangeDfa({self.bound.notation()}, states={self.state_count})"


_DFA_CACHE: dict = {}


def build_range_dfa(bound: NumericBound) -> RangeDfa:
    """Shared, memoized construction; RangeDfa is immutable after build."""
    dfa = _DFA_CACHE.get(bound)
    if dfa is None:
        dfa = _DFA_CACHE[bound] = RangeDfa(bound)
    return dfa


class RangeMatcher:
    """Per-record token scanner over a RangeDfa.

    A token is a run of numeric-class bytes; the delimiter after it, or
    `flush` at the record's end, takes its verdict and clears the token
    state. A fire is attributed to the scope and segment of the token's
    last digit (its delimiter may close the scope).
    """

    def __init__(self, dfa: RangeDfa):
        self.dfa = dfa
        self._rows = dfa.table.tolist()
        self._accepting = dfa.accept_mask.tolist()
        self.reset()

    def step(self, event) -> bool:
        b = event.byte
        if b not in NUMERIC_CLASS:
            return self.flush()
        if b in b"0123456789":
            self.saw_digit = True
            self.fire_scope = event.scope_id
            self.fire_segment = event.segment
        elif b in b"eE":
            self.saw_exponent_after_digit |= self.saw_digit
        self.dfa_state = self._rows[self.dfa_state][b]
        return False

    def flush(self) -> bool:
        """End the pending token; True when it holds a digit and is in range
        or exponent-spelled."""
        fired = self.saw_digit and (self._accepting[self.dfa_state] or self.saw_exponent_after_digit)
        self.latched |= fired
        self.dfa_state, self.saw_digit, self.saw_exponent_after_digit = 0, False, False
        return fired

    def reset(self) -> None:
        self.dfa_state, self.saw_digit, self.saw_exponent_after_digit = 0, False, False
        self.fire_scope = self.fire_segment = 0
        self.latched = False
