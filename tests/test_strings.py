import random

import pytest
from hypothesis import given, strategies as st

from rawfilter.errors import ConfigError
from rawfilter.scanner import iter_events
from rawfilter.strings import (
    ExactMatcher,
    SubstringBlockMatcher,
    build_substring_set,
    make_string_matcher,
)


def feed(matcher, data: bytes):
    """Step a matcher over a byte string, returning fire offsets."""
    fires = []
    for ev in iter_events(data):
        if matcher.step(ev):
            fires.append(ev.offset)
    return fires


class TestSubstringSets:
    def test_temperature_block_1(self):
        assert build_substring_set("temperature", 1) == {b"t", b"e", b"m", b"p", b"r", b"a", b"u"}

    def test_temperature_block_2(self):
        assert build_substring_set("temperature", 2) == {
            b"te", b"em", b"mp", b"pe", b"er", b"ra", b"at", b"tu", b"ur", b"re",
        }

    def test_temperature_block_3(self):
        assert build_substring_set("temperature", 3) == {
            b"tem", b"emp", b"mpe", b"per", b"era", b"rat", b"atu", b"tur", b"ure",
        }

    def test_block_equal_to_length(self):
        assert build_substring_set("ab", 2) == {b"ab"}

    def test_block_out_of_range(self):
        with pytest.raises(ConfigError):
            build_substring_set("ab", 3)
        with pytest.raises(ConfigError):
            build_substring_set("ab", 0)


def test_pattern_matches_itself_on_final_byte():
    m = SubstringBlockMatcher("temperature", 2)
    assert feed(m, b"temperature") == [10]


def test_temperatura_false_positive():
    # Every 2-gram of "temperatura" is also a 2-gram of "temperature", so the
    # run counter reaches the threshold on the final byte.
    grams = build_substring_set("temperature", 2)
    windows = [b"temperatura"[i : i + 2] for i in range(10)]
    assert all(w in grams for w in windows)
    m = SubstringBlockMatcher("temperature", 2)
    assert feed(m, b"temperatura") == [10]
    assert m.latched


def test_tolls_amount_confusion_only_at_block_1():
    record = b'{"total_amount":2.5}'
    m1 = SubstringBlockMatcher("tolls_amount", 1)
    feed(m1, record)
    assert m1.latched
    m2 = SubstringBlockMatcher("tolls_amount", 2)
    feed(m2, record)
    assert not m2.latched


def test_counter_saturates_and_keeps_firing():
    m = SubstringBlockMatcher("aa", 1)
    fires = feed(m, b"aaaa")
    assert fires == [1, 2, 3]
    assert m.run_counter == m.threshold == 2


def test_no_test_until_ring_is_full():
    m = SubstringBlockMatcher("abc", 2)
    assert feed(m, b"a") == []
    assert m.run_counter == 0


class TestReset:
    def test_reset_clears_latch(self):
        m = SubstringBlockMatcher("ab", 1)
        feed(m, b"ab")
        assert m.latched
        m.reset()
        feed(m, b"zz")
        assert not m.latched

    def test_reset_is_idempotent(self):
        m = SubstringBlockMatcher("ab", 2)
        m.reset()
        before = (bytes(m._ring), m.run_counter, m.latched)
        m.reset()
        assert (bytes(m._ring), m.run_counter, m.latched) == before

    def test_no_carryover_between_records(self):
        for build in (
            lambda: SubstringBlockMatcher("temperature", 2),
            lambda: SubstringBlockMatcher("temperature", len("temperature")),
            lambda: ExactMatcher("temperature"),
        ):
            m = build()
            feed(m, b'{"x":"temper')
            m.reset()
            feed(m, b'ature"}')
            assert not m.latched


def test_case_sensitive():
    m = SubstringBlockMatcher("Temp", 1)
    feed(m, b"temp")
    assert not m.latched


def test_make_string_matcher_maps_full_block_to_exact():
    assert isinstance(make_string_matcher("abc", "N"), ExactMatcher)
    assert isinstance(make_string_matcher("abc", 3), ExactMatcher)
    assert isinstance(make_string_matcher("abc", 2), SubstringBlockMatcher)


_pattern = st.binary(min_size=1, max_size=8).filter(lambda p: len(p) >= 1)
_text = st.binary(max_size=60)


@given(pattern=st.binary(min_size=1, max_size=6), pre=_text, post=_text, data=st.data())
def test_no_false_negatives_for_any_block(pattern, pre, post, data):
    block = data.draw(st.integers(1, len(pattern)))
    m = SubstringBlockMatcher(pattern, block)
    feed(m, pre + pattern + post)
    assert m.latched


@given(pattern=st.binary(min_size=2, max_size=6), text=_text, data=st.data())
def test_accept_sets_shrink_as_block_grows(pattern, text, data):
    block = data.draw(st.integers(1, len(pattern) - 1))
    bigger = SubstringBlockMatcher(pattern, block + 1)
    feed(bigger, text)
    if bigger.latched:
        smaller = SubstringBlockMatcher(pattern, block)
        feed(smaller, text)
        assert smaller.latched


@given(pattern=st.binary(min_size=1, max_size=6), text=_text)
def test_block_n_equals_exact_substring_search(pattern, text):
    m = SubstringBlockMatcher(pattern, len(pattern))
    feed(m, text)
    assert m.latched == (pattern in text)


@given(pattern=st.binary(min_size=1, max_size=6), text=_text)
def test_exact_variants_agree_with_naive_search(pattern, text):
    expected = pattern in text
    for m in (ExactMatcher(pattern), SubstringBlockMatcher(pattern, len(pattern))):
        feed(m, text)
        assert m.latched == expected


@given(pattern=st.binary(min_size=1, max_size=5), text=st.binary(max_size=40), data=st.data())
def test_counter_never_exceeds_threshold(pattern, text, data):
    block = data.draw(st.integers(1, len(pattern)))
    m = SubstringBlockMatcher(pattern, block)
    for ev in iter_events(text):
        m.step(ev)
        assert 0 <= m.run_counter <= m.threshold


def test_exact_variants_fire_on_every_occurrence_end():
    # overlapping occurrences of "aba" in "ababa" end at offsets 2 and 4
    for m in (ExactMatcher(b"aba"), SubstringBlockMatcher(b"aba", 3)):
        assert feed(m, b"ababa") == [2, 4], m


def test_block_n_of_a_non_ascii_attribute_is_its_utf8_byte_length():
    # "ééé" is 3 characters and 6 UTF-8 bytes. The record holds a shifted run
    # of those bytes that a 3-byte block matcher accepts and the 6-byte full
    # compare rejects, so every path must resolve N to 6.
    from rawfilter.batch import CorpusIndex, evaluate_config_batch
    from rawfilter.cli import render_descriptor
    from rawfilter.explorer import DEFAULT_COST_MODEL, config_notation
    from rawfilter.filter import (
        FilterConfig, Mode, PredicateConfig, accepts, compile_filter, parse_config, validate_config,
    )
    from rawfilter.query import parse_query

    query = '(0.7 <= "ééé" <= 35.1)'
    ast = parse_query(query)
    cfg = FilterConfig((PredicateConfig(Mode.FLAT, "N"),))
    record = b'{"x\xa9\xc3\xa9\xc3\xa9\xc3":20}'
    corpus = CorpusIndex(record + b"\n")
    reference = [accepts(compile_filter(ast, cfg), r) for r in corpus.records()]
    assert evaluate_config_batch(corpus, validate_config(ast, cfg)).tolist() == reference == [False]
    assert config_notation(ast, cfg) == '( s6("ééé") & v(0.7<=f<=35.1) )'
    assert 'primitive: s6("ééé") N=6 B=6 ' in render_descriptor(query, ast, cfg, DEFAULT_COST_MODEL)
    assert parse_config("ééé FLAT 6\n", ast).predicates == (PredicateConfig(Mode.FLAT, 6),)
