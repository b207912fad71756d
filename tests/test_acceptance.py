"""Acceptance suite.

One test per criterion; each prints a PASS line with its headline numbers
(run with -s or look at captured stdout). Criterion 11 needs the real
benchmark datasets and is skipped unless their paths are provided via
RIOTBENCH_SMARTCITY / RIOTBENCH_TAXI.
"""

import io
import json
import os
import random
import statistics
import time
from decimal import Decimal

import numpy as np
import pytest

from rawfilter.batch import CorpusIndex, build_scan_index
from rawfilter.cli import _bench_once
from rawfilter.datagen import AttrSpec, GenSpec, generate_dataset
from rawfilter.explorer import (
    ExplorerOptions,
    config_cost,
    enumerate_configs,
    evaluate_all,
    evaluate_config,
    explore,
    pareto_front,
    string_cost,
)
from rawfilter.filter import FilterConfig, Mode, PredicateConfig, accepts, compile_filter
from rawfilter.oracle import eval_exact, label_dataset, parse_json
from rawfilter.query import parse_query
from rawfilter.ranges import NumericBound, RangeDfa, RangeMatcher
from rawfilter.scanner import iter_events
from rawfilter.strings import ExactMatcher, SubstringBlockMatcher, build_substring_set

from conftest import LISTING_RECORD, random_json_record, stdlib_in_string_mask
from probes import accepts_token, in_string_at


def ok(num: int, text: str) -> None:
    print(f"PASS criterion {num:02d}: {text}")


def bulk_accept(dfa: RangeDfa, matrix: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """DFA verdicts for a padded byte matrix of plain tokens."""
    states = np.zeros(len(matrix), dtype=np.int16)
    order = np.argsort(lengths, kind="stable")
    mat_o, len_o = matrix[order], lengths[order]
    for j in range(matrix.shape[1]):
        lo = int(np.searchsorted(len_o, j, side="right"))
        if lo == len(len_o):
            break
        states[lo:] = dfa.table[states[lo:], mat_o[lo:, j]]
    out = np.zeros(len(matrix), dtype=bool)
    out[order] = dfa.accept_mask[states]
    return out


def encode_tokens(tokens: list[str]) -> tuple[np.ndarray, np.ndarray]:
    width = max(len(t) for t in tokens)
    matrix = np.zeros((len(tokens), width), dtype=np.uint8)
    lengths = np.zeros(len(tokens), dtype=np.int64)
    for i, t in enumerate(tokens):
        raw = t.encode()
        matrix[i, : len(raw)] = np.frombuffer(raw, dtype=np.uint8)
        lengths[i] = len(raw)
    return matrix, lengths


# --- criterion 1 -------------------------------------------------------------


def _three_attr_spec(layout: str, seed: int) -> GenSpec:
    attrs = (
        AttrSpec("temperature", "decimal", Decimal(-20), Decimal(60), Decimal("0.7"), Decimal("35.1"), 0.5),
        AttrSpec("humidity", "int", Decimal(0), Decimal(150), Decimal(20), Decimal(69), 0.5),
        AttrSpec("light", "int", Decimal(0), Decimal(30000), Decimal(0), Decimal(5153), 0.5),
    )
    return GenSpec(layout, 10000, attrs, seed)


def test_criterion_01_zero_false_negatives():
    query = parse_query(
        '(0.7 <= "temperature" <= 35.1) AND (20 <= "humidity" <= 69) AND (0 <= "light" <= 5153)'
    )
    configs = enumerate_configs(query)
    assert len(configs) == 511
    for layout, seed in (("senml", 101), ("flat", 202)):
        corpus_bytes, _ = generate_dataset(_three_attr_spec(layout, seed))
        corpus = CorpusIndex(corpus_bytes)
        assert corpus.n_records == 10000
        labels = label_dataset(query, corpus.records())
        assert labels.malformed_count == 0
        # evaluate_all raises FalseNegativeError the moment any config drops
        # a true match; the explicit check below documents the assertion
        reports = evaluate_all(query, configs, corpus, labels)
        assert all(r.fn == 0 for r in reports), layout
    ok(1, f"fn = 0 across {len(configs)} configs x 2 corpora x 10000 records")


# --- criteria 2-4 ------------------------------------------------------------


def test_criterion_02_substring_table_reproduction():
    expected = {
        1: {b"t", b"e", b"m", b"p", b"r", b"a", b"u"},
        2: {b"te", b"em", b"mp", b"pe", b"er", b"ra", b"at", b"tu", b"ur", b"re"},
        3: {b"tem", b"emp", b"mpe", b"per", b"era", b"rat", b"atu", b"tur", b"ure"},
    }
    for block, grams in expected.items():
        assert build_substring_set("temperature", block) == grams
    ok(2, "substring sets for B in {1,2,3} match the published table")


def test_criterion_03_confusable_key_blocks():
    record = b'{"total_amount":2.5,"trip_distance":1.4}'

    def latched(block: int) -> bool:
        matcher = SubstringBlockMatcher("tolls_amount", block)
        for ev in iter_events(record):
            matcher.step(ev)
        return matcher.latched

    assert latched(1) is True
    assert latched(2) is False
    ok(3, 's1("tolls_amount") fires on total_amount, s2 does not')


def test_criterion_04_lower_bound_dfa_shape():
    dfa = RangeDfa(NumericBound(Decimal(35), None))
    for token in ["35", "36", "99", "340", "120", "70"]:
        assert accepts_token(dfa, token), token
    for token in ["34", "12", "7", "0", "29"]:
        assert not accepts_token(dfa, token), token
    assert dfa.state_count == 5
    ok(4, "i >= 35 automaton: accept/reject sets exact, minimized to 5 states")


# --- criterion 5 -------------------------------------------------------------


def test_criterion_05_range_dfa_matches_numeric_comparison():
    started = time.perf_counter()
    rng = random.Random(505)

    digit_tokens = []
    for width in range(1, 6):
        digit_tokens.extend(f"{v:0{width}d}" for v in range(10**width))
    tokens = digit_tokens + ["-" + t for t in digit_tokens]
    values = np.asarray([int(t) for t in tokens], dtype=np.int64)
    matrix, lengths = encode_tokens(tokens)
    mismatches = 0
    for _ in range(100):
        lo, hi = sorted((rng.randint(-9999, 99999), rng.randint(-9999, 99999)))
        dfa = RangeDfa(NumericBound(Decimal(lo), Decimal(hi)))
        got = bulk_accept(dfa, matrix, lengths)
        expected = (values >= lo) & (values <= hi)
        mismatches += int(np.count_nonzero(got != expected))
    assert mismatches == 0

    # decimal side: <= 3 integer digits, <= 2 fraction digits, both signs
    dec_tokens, units = [], []
    fracs = [("", 0)] + [(f".{f}", f * 10) for f in range(10)] + [(f".{f:02d}", f) for f in range(100)]
    for ip in range(1000):
        for text, cents in fracs:
            dec_tokens.append(f"{ip}{text}")
            units.append(ip * 100 + cents)
            dec_tokens.append(f"-{ip}{text}")
            units.append(-(ip * 100 + cents))
    unit_values = np.asarray(units, dtype=np.int64)
    matrix, lengths = encode_tokens(dec_tokens)
    for _ in range(50):
        lo_u, hi_u = sorted((rng.randint(-99999, 99999), rng.randint(-99999, 99999)))
        dfa = RangeDfa(NumericBound(Decimal(lo_u) / 100, Decimal(hi_u) / 100, "decimal"))
        got = bulk_accept(dfa, matrix, lengths)
        expected = (unit_values >= lo_u) & (unit_values <= hi_u)
        mismatches += int(np.count_nonzero(got != expected))
    assert mismatches == 0
    ok(5, f"0 mismatches over 100 integer + 50 decimal bound pairs "
          f"({time.perf_counter() - started:.1f}s)")


# --- criterion 6 -------------------------------------------------------------


def test_criterion_06_exponent_heuristic():
    rng = random.Random(606)
    tokens = [b"2.1e3", b"1e+1", b"100e-1", b"7E9", b"0.5e-20"]
    for _ in range(200):
        mantissa = str(rng.randint(0, 999))
        if rng.random() < 0.5:
            mantissa += f".{rng.randint(0, 99)}"
        sign = rng.choice(["", "+", "-"])
        tokens.append(f"{mantissa}{rng.choice('eE')}{sign}{rng.randint(0, 40)}".encode())
    for token in tokens:
        lo = rng.randint(-1000, 1000)
        dfa = RangeDfa(NumericBound(Decimal(lo), Decimal(lo + rng.randint(0, 100))))
        matcher = RangeMatcher(dfa)
        fired = [ev.offset for ev in iter_events(b"[" + token + b"]") if matcher.step(ev)]
        assert matcher.latched, token
        assert fired == [1 + len(token)]
    ok(6, f"all {len(tokens)} digit+exponent tokens fire regardless of bounds")


# --- criterion 7 -------------------------------------------------------------


def test_criterion_07_running_example_discrimination():
    query = parse_query('(0.7 <= "temperature" <= 35.1)')
    flat = compile_filter(query, FilterConfig((PredicateConfig(Mode.FLAT, 1),)))
    scoped = compile_filter(query, FilterConfig((PredicateConfig(Mode.SCOPED, 1),)))

    assert accepts(flat, LISTING_RECORD) is True
    assert accepts(scoped, LISTING_RECORD) is False
    assert eval_exact(query, parse_json(LISTING_RECORD)) is False

    true_match = LISTING_RECORD.replace(b'"35.2"', b'"30.0"')
    assert accepts(flat, true_match) is True
    assert accepts(scoped, true_match) is True
    assert eval_exact(query, parse_json(true_match)) is True
    ok(7, "flat accepts the false positive, scoped rejects it; true match passes both")


# --- criterion 8 -------------------------------------------------------------


def test_criterion_08_string_mask_equivalence():
    rng = random.Random(808)
    records = [random_json_record(rng) for _ in range(10000)]
    stream = b"\n".join(records) + b"\n"
    text = stream.decode("ascii")
    assert '\\"' in text and "\\\\" in text and "{" in text  # fuzz covers the tricky cases
    expected = stdlib_in_string_mask(text)
    got_reference = [ev.in_string for ev in iter_events(stream)]
    assert got_reference == expected
    got_batch = in_string_at(build_scan_index(stream), np.arange(len(stream)))
    assert np.array_equal(got_batch, np.asarray(expected))
    ok(8, f"string mask equals the stdlib tokenizer on {len(records)} records "
          f"({len(stream)} bytes), reference and batch paths")


# --- criterion 9 -------------------------------------------------------------


def test_criterion_09_pareto_and_enumeration_counts():
    assert len(enumerate_configs(parse_query('(1 <= "abc" <= 2)'), ExplorerOptions(blocks=(1,)))) == 3
    two = parse_query('(1 <= "aab" <= 2) AND (3 <= "bbc" <= 4)')
    assert len(enumerate_configs(two, ExplorerOptions(blocks=(1,)))) == 15
    five = parse_query(" AND ".join(f'(1 <= "attr{c}" <= 9)' for c in "abcde"))
    assert len(enumerate_configs(five)) == 32767

    spec = GenSpec(
        "senml",
        1500,
        (
            AttrSpec("temperature", "decimal", Decimal(-10), Decimal(50), Decimal("0.7"), Decimal("35.1"), 0.6),
            AttrSpec("humidity", "int", Decimal(0), Decimal(120), Decimal(20), Decimal(69), 0.7),
        ),
        909,
    )
    corpus_bytes, _ = generate_dataset(spec)
    query = parse_query('(0.7 <= "temperature" <= 35.1) AND (20 <= "humidity" <= 69)')
    reports, front = explore(query, corpus_bytes, ExplorerOptions(blocks=(1,)))
    best = {}
    for r in reports:
        key = (r.fpr, r.cost)
        if key not in best or r.notation < best[key].notation:
            best[key] = r
    cands = list(best.values())
    expected = [
        a for a in cands
        if not any(
            b.fpr <= a.fpr and b.cost <= a.cost and (b.fpr < a.fpr or b.cost < a.cost)
            for b in cands
        )
    ]
    expected.sort(key=lambda r: (-r.fpr, r.cost))
    assert [(r.fpr, r.cost, r.notation) for r in front] == [
        (r.fpr, r.cost, r.notation) for r in expected
    ]
    ok(9, f"front of {len(front)} points equals the quadratic oracle; counts 15/32767 exact")


# --- criterion 10 ------------------------------------------------------------


def test_criterion_10_exact_matcher_equivalence():
    rng = random.Random(1010)
    alphabet = b'abct"\\{}[],:0129 '
    checked = 0
    for _ in range(10000):
        pattern = bytes(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
        text = bytes(rng.choice(alphabet) for _ in range(rng.randint(0, 80)))
        if rng.random() < 0.3:
            at = rng.randint(0, len(text))
            text = text[:at] + pattern + text[at:]
        expected = pattern in text
        for matcher in (ExactMatcher(pattern), SubstringBlockMatcher(pattern, len(pattern))):
            for ev in iter_events(text):
                matcher.step(ev)
            assert matcher.latched == expected, (pattern, text)
        checked += 1
    ok(10, f"DFA and B=N block matcher (the full compare) agree with naive search on {checked} pairs")


# --- criterion 11 (gated on the real benchmark datasets) ----------------------

_SMARTCITY_ATTRS = ["temperature", "humidity", "light", "dust", "airquality_raw"]
_TAXI_ATTRS = ["trip_time_in_secs", "tip_amount", "fare_amount", "tolls_amount", "trip_distance"]

QS0 = (
    '(0.7 <= "temperature" <= 35.1) AND (20.3 <= "humidity" <= 69.1) '
    'AND (0 <= "light" <= 5153) AND (83.36 <= "dust" <= 3322.67) '
    'AND (12 <= "airquality_raw" <= 49)'
)
QS1 = (
    '(-12.5 <= "temperature" <= 43.1) AND (10.7 <= "humidity" <= 95.2) '
    'AND (1345 <= "light" <= 26282) AND (186.61 <= "dust" <= 5188.21) '
    'AND (17 <= "airquality_raw" <= 363)'
)
QT = (
    '(140 <= "trip_time_in_secs" <= 3155) AND (0.65 <= "tip_amount" <= 38.55) '
    'AND (6.00 <= "fare_amount" <= 201.00) AND (2.50 <= "tolls_amount" <= 18.00) '
    'AND (1.37 <= "trip_distance" <= 29.86)'
)


def _row_config(attrs, choices) -> FilterConfig:
    return FilterConfig(
        tuple(
            PredicateConfig(Mode(choices[a][0]), choices[a][1]) if a in choices else PredicateConfig(Mode.OMIT)
            for a in attrs
        )
    )


def test_criterion_11_published_fpr_rows():
    smartcity = os.environ.get("RIOTBENCH_SMARTCITY")
    taxi = os.environ.get("RIOTBENCH_TAXI")
    if not smartcity or not taxi:
        pytest.skip("set RIOTBENCH_SMARTCITY and RIOTBENCH_TAXI to check published FPR rows")

    def check(path, query_text, attrs, rows):
        corpus = CorpusIndex(open(path, "rb").read())
        query = parse_query(query_text)
        labels = label_dataset(query, corpus.records())
        for choices, expected in rows:
            report = evaluate_config(query, _row_config(attrs, choices), corpus, labels)
            if expected == 0.0:
                assert report.fpr == 0.0, choices
            else:
                assert abs(report.fpr - expected) <= 0.02, (choices, report.fpr)

    all_scoped_sc = {a: ("SCOPED", 1) for a in _SMARTCITY_ATTRS}
    check(
        smartcity, QS0, _SMARTCITY_ATTRS,
        [
            ({"airquality_raw": ("VALUE_ONLY", None)}, 0.853),
            (all_scoped_sc, 0.000),
        ],
    )
    check(
        smartcity, QS1, _SMARTCITY_ATTRS,
        [
            ({"airquality_raw": ("VALUE_ONLY", None)}, 0.964),
            ({"light": ("VALUE_ONLY", None)}, 0.130),
            ({"light": ("SCOPED", 1)}, 0.029),
            ({"light": ("SCOPED", 1), "airquality_raw": ("SCOPED", 1)}, 0.008),
            ({"light": ("SCOPED", 1), "dust": ("SCOPED", 1), "airquality_raw": ("SCOPED", 1)}, 0.000),
        ],
    )
    check(
        taxi, QT, _TAXI_ATTRS,
        [
            ({"tolls_amount": ("VALUE_ONLY", None)}, 1.000),
            ({"tolls_amount": ("SCOPED", 1)}, 0.722),
            ({"tolls_amount": ("SCOPED", 2)}, 0.021),
            ({"tip_amount": ("SCOPED", 2), "tolls_amount": ("SCOPED", 2)}, 0.000),
        ],
    )
    ok(11, "published FPR rows reproduced within +/-0.02 on the provided datasets")


# --- criterion 12 ------------------------------------------------------------


def test_criterion_12_cost_monotonicity():
    rng = random.Random(1212)
    alphabet = "abcdefghijklmnopqrstuvwxyz_"
    patterns = 0
    while patterns < 1000:
        n = rng.randint(3, 16)
        pattern = "".join(rng.choice(alphabet) for _ in range(n))
        if len(set(pattern)) < 2:
            continue
        assert string_cost(pattern, 1) < string_cost(pattern, 2) < string_cost(pattern, "N"), pattern
        patterns += 1

    def random_choice():
        mode = rng.choice([Mode.VALUE_ONLY, Mode.FLAT, Mode.SCOPED])
        block = rng.choice((1, 2, "N")) if mode is not Mode.VALUE_ONLY else None
        return PredicateConfig(mode, block)

    query = parse_query('(1 <= "aab" <= 2) AND (3 <= "bbc" <= 4) AND (5 <= "ccd" <= 6)')
    for _ in range(200):
        active = rng.sample(range(3), rng.randint(1, 2))
        base = [
            random_choice() if i in active else PredicateConfig(Mode.OMIT) for i in range(3)
        ]
        grown = list(base)
        grown[rng.choice([i for i in range(3) if i not in active])] = random_choice()
        small = config_cost(query, FilterConfig(tuple(base)))
        large = config_cost(query, FilterConfig(tuple(grown)))
        assert large > small
    ok(12, "cost strictly grows with block length (1000 patterns) and predicate addition (200 configs)")


# --- criterion 13 ------------------------------------------------------------


def _bench_spec(records: int) -> GenSpec:
    attrs = (
        AttrSpec("temperature", "decimal", Decimal(-20), Decimal(60), Decimal("0.7"), Decimal("35.1"), 0.6),
        AttrSpec("humidity", "int", Decimal(0), Decimal(150), Decimal(20), Decimal(69), 0.7),
        AttrSpec("light", "int", Decimal(0), Decimal(30000), Decimal(0), Decimal(5153), 0.5),
        AttrSpec("dust", "decimal", Decimal(0), Decimal(6000), Decimal("83.36"), Decimal("3322.67"), 0.5),
        AttrSpec("airquality_raw", "int", Decimal(0), Decimal(400), Decimal(12), Decimal(49), 0.6),
    )
    return GenSpec("senml", records, attrs, seed=1313)


def test_criterion_13_throughput_linearity():
    probe, _ = generate_dataset(_bench_spec(2000))
    per_record = len(probe) / 2000
    n64 = int(64 * 1024 * 1024 / per_record)
    corpus64, _ = generate_dataset(_bench_spec(n64))
    corpus128, _ = generate_dataset(_bench_spec(2 * n64))
    assert abs(len(corpus64) - 64 * 2**20) / 2**20 < 4  # within a few MiB of 64

    query = parse_query('(0.7 <= "temperature" <= 35.1) AND (20 <= "humidity" <= 69)')
    cfg = FilterConfig((PredicateConfig(Mode.SCOPED, 1), PredicateConfig(Mode.SCOPED, 1)))

    t64 = statistics.median(_bench_once(corpus64, query, cfg) for _ in range(3))
    t128 = statistics.median(_bench_once(corpus128, query, cfg) for _ in range(3))
    ratio = t128 / t64
    throughput = len(corpus64) / t64 / 1e6
    assert 1.6 <= ratio <= 2.6, (t64, t128, ratio)
    ok(13, f"doubling ratio {ratio:.2f} in [1.6, 2.6]; throughput {throughput:.1f} MB/s "
           f"({len(corpus64) >> 20} MiB in {t64:.1f}s)")
