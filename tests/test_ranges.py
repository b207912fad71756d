import hashlib
import random
import time
from collections import deque
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rawfilter.errors import ConfigError
from rawfilter.ranges import (
    DIGITS,
    RANGE_ALPHABET,
    NumericBound,
    RangeDfa,
    RangeMatcher,
    derive_range_dfa,
)
from rawfilter.scanner import iter_events

from probes import accepts_token


def dfa_for(lower, upper, kind="integer"):
    lo = Decimal(lower) if lower is not None else None
    up = Decimal(upper) if upper is not None else None
    return RangeDfa(NumericBound(lo, up, kind))


def token_matrix(tokens: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Tokens as zero-padded byte rows, with their lengths."""
    width = max(len(t) for t in tokens)
    mat = np.zeros((len(tokens), width), dtype=np.uint8)
    lengths = np.zeros(len(tokens), dtype=np.int64)
    for i, t in enumerate(tokens):
        raw = t.encode()
        mat[i, : len(raw)] = np.frombuffer(raw, dtype=np.uint8)
        lengths[i] = len(raw)
    return mat, lengths


def eval_tokens(dfa: RangeDfa, tokens) -> np.ndarray:
    """Bulk DFA verdicts via the byte table (no exponent heuristic); tokens
    is a list of strings or a `token_matrix`."""
    mat, lengths = token_matrix(tokens) if isinstance(tokens, list) else tokens
    states = np.zeros(len(lengths), dtype=np.int16)
    for j in range(mat.shape[1]):
        active = lengths > j
        states[active] = dfa.table[states[active], mat[active, j]]
    return dfa.accept_mask[states]


def seeded_bounds(count: int = 408, seed: int = 14) -> list[NumericBound]:
    """The workloads' four intervals, then seeded closed, open-sided,
    negative and decimal ones."""
    bounds = [
        NumericBound.from_literals(lo, hi)
        for lo, hi in (("0.7", "35.1"), ("20", "69"), ("0", "5153"), ("83.36", "3322.67"))
    ]
    rng = random.Random(seed)

    def literal(decimal: bool) -> str:
        if not decimal:
            return str(rng.randint(-10 ** rng.randint(1, 5), 10 ** rng.randint(1, 6)))
        places = rng.randint(1, 3)
        value = Decimal(rng.randint(-(10 ** rng.randint(1, 7)), 10 ** rng.randint(1, 8)))
        return str(value.scaleb(-places))

    while len(bounds) < count:
        decimal = rng.random() < 0.5
        a, b = literal(decimal), literal(decimal)
        if Decimal(a) > Decimal(b):
            a, b = b, a
        shape = rng.randrange(4)
        lo = None if shape == 2 else a
        hi = None if shape == 1 else (a if shape == 3 else b)
        bounds.append(NumericBound.from_literals(lo, hi))
    return bounds


def seeded_tokens(count: int = 7000, seed: int = 15) -> list[str]:
    """Plain, signed, zero-padded and fractional spellings plus malformed
    numeric-class runs ('+', 'e', doubled signs and dots)."""
    rng = random.Random(seed)
    tokens = ["0", "-0", ".", "-", "+", "e", "0.", ".5", "-.5", "5.", "--1", "1..2", "1e5", "+35"]
    while len(tokens) < count:
        sign = rng.choice(["", "", "", "-", "+"])
        whole = "0" * rng.choice([0, 0, 0, 1, 2]) + str(rng.randint(0, 10 ** rng.randint(0, 8)))
        frac = rng.choice(["", "", "."])
        if rng.random() < 0.4:
            frac = "." + "".join(rng.choice(DIGITS) for _ in range(rng.randint(1, 4)))
        tokens.append(sign + whole + frac)
    return tokens


BOUNDS = seeded_bounds()


def symbol_table(bound: NumericBound):
    """A RangeDfa's (rows, accepting) over RANGE_ALPHABET, dead row last."""
    dfa = RangeDfa(bound)
    assert (dfa.table[:, ord("e")] == dfa.table[:, ord("E")]).all()
    return dfa.table[:, [ord(ch) for ch in RANGE_ALPHABET]], dfa.accept_mask


def intersection_is(direct, *parts) -> bool:
    """Product BFS over (rows, accepting) tables on RANGE_ALPHABET, dead
    sinks included: `direct` accepts exactly what every one of `parts`
    accepts (one part: language equality)."""
    tables = (direct, *parts)
    start = (0,) * len(tables)
    seen, queue = {start}, deque([start])
    while queue:
        states = queue.popleft()
        flags = [bool(acc[s]) for (_, acc), s in zip(tables, states)]
        if flags[0] != all(flags[1:]):
            return False
        for col in range(len(RANGE_ALPHABET)):
            nxt = tuple(int(rows[s, col]) for (rows, _), s in zip(tables, states))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


class TestLowerBound35:
    """The i >= 35 build: five states, leading zeros tolerated."""

    def setup_method(self):
        self.dfa = dfa_for(35, None)

    def test_acceptance(self):
        for token in ["35", "36", "99", "340", "120", "70"]:
            assert accepts_token(self.dfa, token), token
        for token in ["34", "12", "7", "0", "29"]:
            assert not accepts_token(self.dfa, token), token

    def test_exactly_five_states(self):
        assert self.dfa.state_count == 5

    def test_transitions_isomorphic_to_expected_shape(self):
        d = self.dfa
        s0 = 0
        step = lambda s, ch: d.table[s, ord(ch)]
        assert step(s0, "0") == s0
        s1 = step(s0, "3")
        s2 = step(s0, "1")
        s3 = step(s0, "4")
        assert step(s0, "2") == s2
        assert {step(s0, ch) for ch in "456789"} == {s3}
        assert {step(s1, ch) for ch in "01234"} == {s3}
        acc = step(s1, "5")
        assert {step(s1, ch) for ch in "56789"} == {acc}
        assert {step(s2, ch) for ch in "0123456789"} == {s3}
        assert {step(s3, ch) for ch in "0123456789"} == {acc}
        assert {step(acc, ch) for ch in "0123456789"} == {acc}
        assert d.accept_mask[acc] and not any(
            d.accept_mask[s] for s in (s0, s1, s2, s3)
        )
        assert len({s0, s1, s2, s3, acc}) == 5


def test_point_interval():
    dfa = dfa_for(7, 7)
    for token, expected in [
        ("7", True), ("07", True), ("007", True), ("7.0", True), ("7.00", True),
        ("70", False), ("6", False), ("8", False), ("7.01", False), ("-7", False),
    ]:
        assert accepts_token(dfa, token) == expected, token


def test_decimal_interval_examples():
    dfa = dfa_for("0.7", "35.1", "decimal")
    for token, expected in [
        ("12", True), ("0.7", True), ("35.1", True), ("35.0", True), ("35.10", True),
        ("35.2", False), ("0.65", False), ("35.11", False),
    ]:
        assert accepts_token(dfa, token) == expected, token


def test_decimal_interval_brute_force():
    # all decimal spellings with <= 4 integer digits and <= 2 fraction digits
    dfa = dfa_for("0.7", "35.1", "decimal")
    lo, hi = Decimal("0.7"), Decimal("35.1")
    tokens, expected = [], []
    for whole in range(10000):
        for frac in ("", *(f".{f}" for f in range(10)), *(f".{f:02d}" for f in range(100))):
            tokens.append(f"{whole}{frac}")
            expected.append(lo <= Decimal(tokens[-1]) <= hi)
    got = eval_tokens(dfa, tokens)
    mismatches = np.nonzero(got != np.asarray(expected))[0]
    assert len(mismatches) == 0, [tokens[i] for i in mismatches[:5]]


def test_leading_zeros_are_value_semantics():
    dfa = dfa_for(35, None)
    assert not accepts_token(dfa, "007")
    assert accepts_token(dfa, "0042")


def test_negative_bounds_sign_split():
    dfa = dfa_for("-12.5", "43.1", "decimal")
    for token, expected in [
        ("-12.5", True), ("-12.51", False), ("-0.5", True), ("-13", False),
        ("-0", True), ("0", True), ("43.1", True), ("43.2", False), ("5", True),
    ]:
        assert accepts_token(dfa, token) == expected, token


def test_upper_only_accepts_all_negatives():
    dfa = dfa_for(None, 49)
    for token in ["-1", "-99999", "-0.001", "0", "49", "49.0"]:
        assert accepts_token(dfa, token), token
    for token in ["50", "49.01", "495"]:
        assert not accepts_token(dfa, token), token


def test_empty_interval_rejected():
    with pytest.raises(ConfigError):
        NumericBound(Decimal(1), Decimal(0))
    with pytest.raises(ConfigError):
        NumericBound(None, None)
    with pytest.raises(ConfigError):
        NumericBound.from_literals("abc", "1")


class TestAutomataToolkit:
    @pytest.mark.parametrize("bound", BOUNDS[:50], ids=lambda b: b.notation())
    def test_minimization_preserves_language(self, bound):
        derived = derive_range_dfa(bound)
        minimal = symbol_table(bound)
        assert len(minimal[0]) <= len(derived[0])
        assert intersection_is(derived, minimal)

    def test_product_of_one_sided_bounds_equals_direct(self):
        for lo, hi in [(35, 400), (7, 7), ("0.7", "35.1"), (0, 5153), (140, 3155)]:
            lower_only = symbol_table(NumericBound(Decimal(lo), None))
            upper_only = symbol_table(NumericBound(None, Decimal(hi)))
            direct = symbol_table(NumericBound(Decimal(lo), Decimal(hi)))
            assert intersection_is(direct, lower_only, upper_only), (lo, hi)


@given(
    lo=st.integers(-9999, 99999),
    hi=st.integers(-9999, 99999),
    values=st.lists(st.integers(-99999, 999999), min_size=1, max_size=30),
)
def test_integer_agreement_with_numeric_comparison(lo, hi, values):
    if lo > hi:
        lo, hi = hi, lo
    dfa = dfa_for(lo, hi)
    for v in values:
        assert accepts_token(dfa, str(v)) == (lo <= v <= hi), (lo, hi, v)


@given(
    lo=st.decimals(min_value=-1000, max_value=1000, places=2, allow_nan=False, allow_infinity=False),
    hi=st.decimals(min_value=-1000, max_value=1000, places=2, allow_nan=False, allow_infinity=False),
    units=st.lists(st.integers(-99999, 99999), min_size=1, max_size=20),
)
def test_decimal_agreement_with_numeric_comparison(lo, hi, units):
    if lo > hi:
        lo, hi = hi, lo
    dfa = dfa_for(lo, hi, "decimal")
    for u in units:
        value = Decimal(u) / 100
        token = f"{value}"
        assert accepts_token(dfa, token) == (lo <= value <= hi), (lo, hi, token)


class TestNumberScan:
    def fires(self, dfa, data: bytes):
        matcher = RangeMatcher(dfa)
        offsets = [ev.offset for ev in iter_events(data) if matcher.step(ev)]
        if matcher.flush():
            offsets.append(len(data))
        return offsets, matcher.latched

    def test_fire_at_closing_quote(self):
        dfa = dfa_for(35, None)
        offsets, latched = self.fires(dfa, b'"35"')
        assert offsets == [3] and latched

    def test_out_of_range_token(self):
        dfa = dfa_for(35, None)
        assert self.fires(dfa, b'"34"') == ([], False)
        assert self.fires(dfa, b'"340"')[1]

    def test_exponent_tokens_fire_regardless_of_bounds(self):
        dfa = dfa_for(1000000, 2000000)
        for token in (b"2.1e3", b"1e+1", b"100e-1", b"5E2"):
            offsets, latched = self.fires(dfa, b"[" + token + b"]")
            assert latched, token

    def test_exponent_without_leading_digit_does_not_fire(self):
        # "e12" is one token (e is numeric-class); it has no numeric value
        # and no digit precedes the e, so neither DFA nor heuristic fires.
        dfa = dfa_for(0, None)
        assert self.fires(dfa, b'"e12",') == ([], False)
        assert self.fires(dfa, b'"e",') == ([], False)

    def test_numbers_inside_strings_are_scanned(self):
        dfa = dfa_for("0.7", "35.1", "decimal")
        _, latched = self.fires(dfa, b'{"v":"12"}')
        assert latched

    def test_delimiter_resets_scan_state(self):
        dfa = dfa_for(35, None)
        matcher = RangeMatcher(dfa)
        for ev in iter_events(b"340,"):
            matcher.step(ev)
        fresh = RangeMatcher(dfa)
        assert (matcher.dfa_state, matcher.saw_digit, matcher.saw_exponent_after_digit) == (
            fresh.dfa_state, fresh.saw_digit, fresh.saw_exponent_after_digit,
        )
        # A reset inside a token: "4", reset, then "0" must not read as 40.
        matcher = RangeMatcher(dfa)
        for ev in iter_events(b"[4"):
            matcher.step(ev)
        matcher.reset()
        assert vars(matcher) == vars(fresh)
        for ev in iter_events(b"0]"):
            matcher.step(ev)
        assert not matcher.flush() and not matcher.latched

    def test_token_scope_attribution_survives_scope_close(self):
        dfa = dfa_for(35, None)
        matcher = RangeMatcher(dfa)
        fired_at = None
        for ev in iter_events(b'{"v":40}'):
            if matcher.step(ev):
                fired_at = ev.offset
        assert fired_at == 7  # the closing brace delimits the token
        assert matcher.fire_scope == 1  # attributed to the scope holding the digits

    def test_plus_prefixed_token_rejected_by_dfa(self):
        dfa = dfa_for(0, 100)
        _, latched = self.fires(dfa, b"[+35]")
        assert not latched

    def test_flush_handles_record_trailing_token(self):
        dfa = dfa_for(35, None)
        offsets, latched = self.fires(dfa, b"35")
        assert latched and offsets == [2]


def test_number_step_is_total_over_octets():
    dfa = dfa_for(0, 10)
    matcher = RangeMatcher(dfa)
    for ev in iter_events(bytes(range(256))):
        matcher.step(ev)


def test_range_dfas_are_pinned():
    # Any change to the automaton of any of these bounds shows here.
    tokens = token_matrix(seeded_tokens())
    digest = hashlib.sha256()
    for bound in BOUNDS:
        dfa = RangeDfa(bound)
        verdicts = np.packbits(eval_tokens(dfa, tokens)).tobytes()
        digest.update(f"{bound.notation()}|{dfa.state_count}|{dfa.input_classes}|".encode())
        digest.update(verdicts)
    kinds = {(b.lower is None, b.upper is None) for b in BOUNDS}
    assert kinds == {(False, False), (True, False), (False, True)}
    assert any(b.lower is not None and b.lower < 0 for b in BOUNDS)
    assert any(b.kind == "decimal" for b in BOUNDS)
    assert digest.hexdigest() == "338c6cc96e2610b0008968b93b3cc1c629f56a226be4e1c0f882d1f0f7adf058"


def test_range_tables_are_pinned():
    # State numbering included: the byte table and accept mask both executors step.
    digest = hashlib.sha256()
    for bound in BOUNDS:
        dfa = RangeDfa(bound)
        digest.update(f"{dfa.table.dtype}|{dfa.table.shape}|".encode())
        digest.update(dfa.table.tobytes())
        digest.update(dfa.accept_mask.tobytes())
    assert digest.hexdigest() == "f2543baa70f35570171823c572575534c702ea2b6bee02a85d80ad74c0fbd4c5"


def test_a_long_bound_builds_in_linear_time():
    # 3000-digit literals: 18001 derived states into 12001. Moore refinement
    # takes about one round per digit over every state, quadratic in them.
    bound = NumericBound.from_literals("1" * 3000, "2" * 3000 + "." + "3" * 3000)
    started = time.perf_counter()
    dfa = RangeDfa(bound)
    assert time.perf_counter() - started < 5
    assert dfa.state_count == 12001
    assert accepts_token(dfa, "1" * 3000) and accepts_token(dfa, "2" * 3000 + "." + "3" * 3000)
    assert not accepts_token(dfa, "1" * 2999 + "0") and not accepts_token(dfa, "2" * 3000 + ".4")
