import gc
import io
import random
import time
import weakref
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rawfilter import batch
from rawfilter.batch import (
    CorpusIndex,
    _start_keys,
    build_scan_index,
    drop_last_record,
    evaluate_config_batch,
    iter_chunk_indexes,
    number_fire_positions,
    string_fire_positions,
)
from rawfilter.explorer import config_notation, enumerate_configs
from rawfilter.filter import (
    FilterConfig,
    Mode,
    PredicateConfig,
    accepts,
    compile_filter,
    validate_config,
)
from rawfilter.query import parse_query
from rawfilter.ranges import NUMERIC_CLASS, NumericBound, RangeMatcher, build_range_dfa
from rawfilter.scanner import ScannerState, iter_events, segment_records
from rawfilter.strings import SubstringBlockMatcher, make_string_matcher

from conftest import (
    ALL_MODES,
    CONFUSABLE_ATTRS,
    QUERY_ATTRS,
    flat_record,
    fuzz_records,
    random_json_record,
    senml_record,
)
from probes import in_string_at, spans


def fuzz_stream(seed: int, n: int = 150) -> bytes:
    rng = random.Random(seed)
    records = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.4:
            records.append(random_json_record(rng))
        elif kind < 0.7:
            records.append(senml_record(rng, ["temperature", "humidity", "light"]))
        else:
            records.append(flat_record(rng, ["tolls_amount", "tip_amount"]))
    return b"\n".join(records) + b"\n"


def reference_arrays(data: bytes):
    state = ScannerState()
    events = list(iter_events(data, state))
    return events


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_masks_levels_and_spans_match_reference(seed):
    data = fuzz_stream(seed)
    index = build_scan_index(data)
    events = reference_arrays(data)
    every = np.arange(len(data))
    assert in_string_at(index, every).tolist() == [e.in_string for e in events]
    assert index.level_at(every).tolist() == [e.level for e in events]
    expected = [(s.start, s.end, s.malformed) for s in segment_records(data)]
    assert expected == [(s.start, s.end, s.malformed) for s in spans(index)]


def _partition(labels) -> set:
    """The classes of equal labels, as sets of sample indexes."""
    classes: dict = {}
    for i, label in enumerate(labels):
        classes.setdefault(label, set()).add(i)
    return {frozenset(c) for c in classes.values()}


@pytest.mark.parametrize("seed", [3, 4])
def test_attribution_matches_reference_events(seed):
    # Scope and segment ids are rows of the start tables, not the reference's
    # numbers: they must split the positions into the same classes as the
    # reference's (record, scope_id) and (record, scope_id, segment).
    data = malformed_stream(seed) + fuzz_stream(seed)
    index = build_scan_index(data)
    attribution = {}  # position -> (record, scope_id, segment), each record scanned afresh
    for rec, span in enumerate(segment_records(data)):
        for ev in iter_events(span.slice(data)):
            attribution[span.start + ev.offset] = (rec, ev.scope_id, ev.segment)
    rng = random.Random(seed)
    # Brackets and commas are where level, scope and segment change.
    structural = [e.offset for e in reference_arrays(data) if not e.in_string and e.byte in b"{}[],"]
    sampled = rng.sample(range(len(data)), min(2000, len(data))) + rng.sample(structural, 500)
    positions = sorted({p for p in sampled if p in attribution})
    scope_rows = index.start_rows(Mode.SCOPED, np.asarray(positions))
    segment_rows = index.start_rows(Mode.KEYVALUE, np.asarray(positions))
    expected = [attribution[p] for p in positions]
    assert _partition(scope_rows.tolist()) == _partition(e[:2] for e in expected)
    assert _partition(segment_rows.tolist()) == _partition(expected)


def assert_index_matches_reference(data: bytes):
    index = build_scan_index(data)
    events = reference_arrays(data)
    every = np.arange(len(data))
    assert in_string_at(index, every).tolist() == [e.in_string for e in events], data
    assert index.level_at(every).tolist() == [e.level for e in events], data
    expected = [(s.start, s.end, s.malformed) for s in segment_records(data)]
    assert expected == [(s.start, s.end, s.malformed) for s in spans(index)], data
    opens = [e.offset for e in events if not e.in_string and e.byte in b"{["]
    assert index.open_pos.tolist() == opens, data
    commas = [(e.offset, e.level) for e in events if e.structural_comma]
    assert list(zip(index.commas.tolist(), index.comma_level.tolist())) == commas, data


STRUCTURAL_BYTES = b'{}[]",\\:ab0 \n'


def inject_stray_bytes(data: bytes, rng: random.Random, count: int) -> bytes:
    out = bytearray(data)
    for _ in range(count):
        out.insert(rng.randrange(len(out) + 1), rng.choice(b'\\"}\n'))
    return bytes(out)


def test_fallback_paths_match_reference_on_malformed_input():
    rng = random.Random(5)
    cases = [
        b'}{"a":1}',
        b'\\"hi" {"a":1}',
        b'{"a":1}}}{"b":2}',
        b'{"a":"unterminated',
        b'{"a":1',
        b'42\n{"x":[1,2]}\ngarbage}\n"str"',
        b"",
        b"   \n  ",
        b'{"a":"}"}\n{"b":"\\\\"}',
    ]
    cases += [bytes(rng.choice(STRUCTURAL_BYTES) for _ in range(rng.randint(0, 60))) for _ in range(150)]
    cases += [inject_stray_bytes(fuzz_stream(seed, 30), rng, rng.randint(1, 4)) for seed in range(20)]
    for data in cases:
        assert_index_matches_reference(data)


@settings(max_examples=300)
@given(st.binary(max_size=80).map(lambda raw: bytes(STRUCTURAL_BYTES[b % len(STRUCTURAL_BYTES)] for b in raw)))
def test_index_matches_reference_over_structural_bytes(data):
    assert_index_matches_reference(data)


MALFORMED_QUERY = (
    '(0.7 <= "temperature" <= 35.1) AND ((20 <= "humidity" <= 69) OR (0 <= "light" <= 5153))'
)


def malformed_stream(seed: int) -> bytes:
    """Fuzz records with a stray backslash outside strings, unmatched closes
    and scalar lines that run into a record."""
    rng = random.Random(seed)
    records = fuzz_records(seed, 16).splitlines()
    keyed = [i for i, r in enumerate(records) if b',"' in r]
    at = rng.sample(keyed, 2)
    at += rng.sample([i for i in range(len(records)) if i not in at], 4)
    records[at[0]] = records[at[0]].replace(b',"', b',\\ "', 1)
    records[at[1]] = records[at[1]].replace(b',"', b',\\"', 1)
    records[at[2]] += b"}"
    records[at[3]] = b"}" + records[at[3]]
    records[at[4]] = b"42 " + records[at[4]]
    records[at[5]] = b"\\\n" + records[at[5]]
    return b"\n".join(records) + b"\n"


@pytest.mark.parametrize("seed", range(4))
def test_batch_matches_reference_on_malformed_streams(seed):
    ast = parse_query(MALFORMED_QUERY)
    data = malformed_stream(seed)
    corpus = CorpusIndex(data)
    records = corpus.records()
    assert records == [s.slice(data) for s in segment_records(data)]
    for cfg in enumerate_configs(ast, ALL_MODES)[seed::7]:
        expr = compile_filter(ast, cfg)
        assert evaluate_config_batch(corpus, validate_config(ast, cfg)).tolist() == [
            accepts(expr, r) for r in records
        ], config_notation(ast, cfg)


@pytest.mark.parametrize("record", [b'"temperature",{}20', b'"temperature",[]20'])
def test_level0_segments_run_from_the_record_start(record):
    # Inside a scalar record a close back to level 0 ends no record, so it
    # must not restart the count of the record's level-0 commas.
    ast = parse_query('(0.7 <= "temperature" <= 35.1)')
    cfg = FilterConfig((PredicateConfig(Mode.KEYVALUE, "N"),))
    corpus = CorpusIndex(record + b"\n")
    expected = [accepts(compile_filter(ast, cfg), r) for r in corpus.records()]
    assert evaluate_config_batch(corpus, validate_config(ast, cfg)).tolist() == expected == [False]


_UTF8 = '{"temp\u00e9rature":20}\n{"x":"temp\u00e9rature","y":"temp\u00e9ratur"}\n'.encode()
_CROSSING = b'{"a":1}\n{"b":1}\n'


# '\n{"' with block 2: the first window of a record must not reach back over its start.
# Block N and block 3 find occurrences by byte compares; the explicit buffers
# hold overlapping occurrences, occurrences at the buffer's first and last
# byte, a multi-byte UTF-8 attribute and occurrences across a record boundary,
# which fire nowhere.
_STRING_CASES = {
    "temperature-1": ("temperature", 1, None),
    "temperature-2": ("temperature", 2, None),
    "tolls_amount-1": ("tolls_amount", 1, None),
    "temperature-N": ("temperature", "N", None),
    "temperature-3": ("temperature", 3, None),
    "ab-1": ("ab", 1, None),
    '\n{"-2': ('\n{"', 2, None),
    "one-byte-N": ("e", "N", None),
    "overlapping-N": ("aa", "N", b"aaaa"),
    "overlapping-3": ("aaaa", 3, b"aaaaaaa\n"),
    "buffer-edges-N": ("ab", "N", b"ab\nab"),
    "buffer-edges-3": ("abcd", 3, b"abcd\nabcd"),
    "utf8-N": ("temp\u00e9rature", "N", _UTF8),
    "utf8-3": ("temp\u00e9rature", 3, _UTF8),
    "across-records-N": ("}\n{", "N", _CROSSING),
    "across-records-3": ('1}\n{"', 3, _CROSSING),
}


@pytest.mark.parametrize("pattern,block,data", list(_STRING_CASES.values()), ids=list(_STRING_CASES))
def test_string_fire_positions_match_matcher_steps(pattern, block, data):
    data = fuzz_stream(6) if data is None else data
    index = build_scan_index(data)
    got = string_fire_positions(index, pattern.encode(), block).tolist()
    expected = []
    for span in segment_records(data):
        matcher = make_string_matcher(pattern, block)
        for ev in iter_events(span.slice(data)):
            if matcher.step(ev):
                expected.append(span.start + ev.offset)
    assert got == expected


_BOUNDS = [(35, None), (None, 49), ("0.7", "35.1"), ("-12.5", "43.1"), (1345, 26282)]


def _range_dfa(bounds):
    lo = Decimal(bounds[0]) if bounds[0] is not None else None
    hi = Decimal(bounds[1]) if bounds[1] is not None else None
    return build_range_dfa(NumericBound(lo, hi, "decimal"))


def _range_matcher_fires(data: bytes, spans, rdfa):
    """(fire offsets, attribution positions, records) of `RangeMatcher` steps
    over the spans."""
    fires, attrs, records = [], [], []
    for k, span in enumerate(spans):
        payload = span.slice(data)
        matcher = RangeMatcher(rdfa)
        for ev in iter_events(payload):
            if matcher.step(ev):
                fires.append(span.start + ev.offset)
                attrs.append(span.start + _last_digit_before(payload, ev.offset))
                records.append(k)
        if matcher.flush():
            fires.append(span.start + len(payload))
            attrs.append(span.start + _last_digit_before(payload, len(payload)))
            records.append(k)
    return fires, attrs, records


@pytest.mark.parametrize("bounds", _BOUNDS)
def test_number_fire_positions_match_matcher_steps(bounds):
    rdfa = _range_dfa(bounds)
    data = fuzz_stream(7)
    fire_pos, attr_pos, records = number_fire_positions(build_scan_index(data), rdfa)
    got = (fire_pos.tolist(), attr_pos.tolist(), records.tolist())
    assert got == _range_matcher_fires(data, segment_records(data), rdfa)


@pytest.mark.parametrize(
    "data",
    [
        fuzz_stream(7),
        b'{"a":"x","b":[true,null]}\n["e",{}]\n',
        b'{"a":1,"b":22}\n{"c":12345.25,"d":7}\n',
    ],
    ids=["fuzz", "no-numbers", "unique-longest"],
)
@pytest.mark.parametrize("carry", [False, True])
def test_range_bounds_share_one_token_decode(data, carry):
    """Every bound over one index, in either order, equals the matcher steps;
    after a carry, the decode cached before it is not reused."""
    rdfas = [_range_dfa(b) for b in _BOUNDS]
    for bounds in (rdfas, rdfas[::-1]):
        index = build_scan_index(data)
        if carry:
            number_fire_positions(index, bounds[0])
            index = drop_last_record(index)
        kept = spans(index)
        for rdfa in bounds:
            fire_pos, attr_pos, records = number_fire_positions(index, rdfa)
            got = (fire_pos.tolist(), attr_pos.tolist(), records.tolist())
            assert got == _range_matcher_fires(data, kept, rdfa)
            if carry:
                assert (fire_pos <= index.rec_ends[-1]).all()


TOKEN_BYTES = b'0123456789+-.eEx{}[]",:\n \\'


def _reference_tokens(data: bytes, spans) -> list[tuple]:
    """(start, end, last digit, heuristic, record) of every maximal run of
    `ranges.NUMERIC_CLASS` bytes that holds a digit and lies in a span, by a
    walk over the bytes."""
    tokens, start = [], None
    for i, b in enumerate(data + b" "):
        if b in NUMERIC_CLASS:
            start = i if start is None else start
            continue
        if start is not None:
            digits = [k for k in range(start, i) if data[k] in b"0123456789"]
            inside = [k for k, span in enumerate(spans) if span.start <= start and i <= span.end]
            if digits and inside:
                heuristic = any(data[k] in b"eE" for k in range(digits[0], i))
                tokens.append((start, i - 1, digits[-1], heuristic, inside[0]))
        start = None
    return tokens


def _index_tokens(index) -> list[tuple]:
    return list(zip(*(column.tolist() for column in index.numeric_tokens())))


@settings(max_examples=300)
@given(st.binary(max_size=80).map(lambda raw: bytes(TOKEN_BYTES[b % len(TOKEN_BYTES)] for b in raw)))
@example(b'{"a":-.5e}\n')
@example(b"[e5e,5.,1e,--]\n")
@example(b"[1e+5, -e-]\n[.e.1.]\n")
@example(b'{"a":1}\n{"b":12')  # the last token is cut off by the carry
def test_numeric_tokens_match_a_byte_walk(data):
    """Token geometry and records equal a walk over the numeric-class runs,
    before and after a carry drops the last record (a stale cache fails)."""
    index = build_scan_index(data)
    spans = segment_records(data)
    assert _index_tokens(index) == _reference_tokens(data, spans)
    levels = [e.level for e in iter_events(data)]
    assert index.level_at(np.arange(len(data))).tolist() == levels
    if spans:
        index = drop_last_record(index)
        assert _index_tokens(index) == _reference_tokens(data, spans[:-1])
        assert index.level_at(np.arange(len(data))).tolist() == levels


def test_carry_trim_leaves_the_index_it_copies():
    """A carry returns a trimmed copy with empty caches; the index it was
    taken from keeps its records and its cached token table."""
    data = b'{"a":1}\n{"b":12'
    index = build_scan_index(data)
    tokens = index.numeric_tokens()
    trimmed = drop_last_record(index)
    assert (index.n_records, trimmed.n_records) == (2, 1)
    assert index.numeric_tokens() is tokens
    assert _index_tokens(trimmed) == _reference_tokens(data, segment_records(data)[:-1])


def test_one_long_number_costs_linear_time():
    """A 400k-digit value whose leading zeros keep every bound's DFA out of
    its dead row: the few tokens that outlast the shared columns are stepped
    byte by byte, so the fires equal the per-byte matcher's and the run costs
    a few times a normal input of the same size, not a numpy step per byte
    per bound."""
    long_record = b'{"temperature":' + b"0" * 400_000 + b'12.5,"humidity":"x"}\n'
    data = fuzz_stream(21, 20) + long_record + fuzz_stream(22, 20)
    index = build_scan_index(data)
    for bounds in [("0.7", "35.1"), (1345, 26282)]:
        rdfa = _range_dfa(bounds)
        got = tuple(column.tolist() for column in number_fire_positions(index, rdfa))
        assert got == _range_matcher_fires(data, spans(index), rdfa)

    filler = fuzz_records(21, 3000)
    data = filler + long_record + filler
    normal = filler * -(-len(data) // len(filler))
    ast = parse_query('(0.7 <= "temperature" <= 35.1) AND (20 <= "humidity" <= 69)')
    cfg = FilterConfig((PredicateConfig(Mode.SCOPED, 1), PredicateConfig(Mode.SCOPED, 1)))

    def best_of_3(stream):
        times = []
        for _ in range(3):
            started = time.perf_counter()
            evaluate_config_batch(CorpusIndex(stream), validate_config(ast, cfg))
            times.append(time.perf_counter() - started)
        return min(times)

    assert best_of_3(data) < 4 * best_of_3(normal)


def _last_digit_before(payload: bytes, offset: int) -> int:
    for i in range(offset - 1, -1, -1):
        if payload[i : i + 1].isdigit():
            return i
    raise AssertionError("fired token without digits")


@pytest.mark.parametrize("mode", [Mode.VALUE_ONLY, Mode.FLAT, Mode.SCOPED, Mode.KEYVALUE])
def test_accept_vectors_match_filter_record(mode):
    ast = parse_query('(0.7 <= "temperature" <= 35.1)')
    block = None if mode is Mode.VALUE_ONLY else 2
    cfg = FilterConfig((PredicateConfig(mode, block),))
    data = fuzz_stream(8)
    corpus = CorpusIndex(data)
    vector = evaluate_config_batch(corpus, validate_config(ast, cfg))
    expr = compile_filter(ast, cfg)
    expected = [accepts(expr, record) for record in corpus.records()]
    assert vector.tolist() == expected


def test_multi_predicate_accept_vector_matches():
    ast = parse_query(
        '(0.7 <= "temperature" <= 35.1) AND ((20 <= "humidity" <= 69) OR (0 <= "light" <= 5153))'
    )
    cfg = FilterConfig(
        (
            PredicateConfig(Mode.SCOPED, 1),
            PredicateConfig(Mode.FLAT, 2),
            PredicateConfig(Mode.VALUE_ONLY),
        )
    )
    data = fuzz_stream(9)
    corpus = CorpusIndex(data)
    vector = evaluate_config_batch(corpus, validate_config(ast, cfg))
    expr = compile_filter(ast, cfg)
    assert vector.tolist() == [accepts(expr, record) for record in corpus.records()]


def test_returned_accept_vectors_are_fresh_and_cache_is_read_only():
    ast = parse_query('(0.7 <= "temperature" <= 35.1) OR (20 <= "humidity" <= 69)')
    cfg = FilterConfig((PredicateConfig(Mode.SCOPED, 1), PredicateConfig(Mode.VALUE_ONLY)))
    corpus = CorpusIndex(fuzz_stream(11))
    first = evaluate_config_batch(corpus, validate_config(ast, cfg))
    expected = first.copy()
    first[:] = ~first
    assert evaluate_config_batch(corpus, validate_config(ast, cfg)).tolist() == expected.tolist()
    single = parse_query('(0.7 <= "temperature" <= 35.1)')
    for pc in (PredicateConfig(Mode.VALUE_ONLY), PredicateConfig(Mode.KEYVALUE, 2)):
        one = FilterConfig((pc,))
        vector = evaluate_config_batch(corpus, validate_config(single, one))
        vector[:] = True
        again = evaluate_config_batch(corpus, validate_config(single, one))
        leaf = validate_config(single, one)
        assert again.tolist() == corpus.predicate_vector(leaf).tolist()
        with pytest.raises(ValueError):
            corpus.predicate_vector(leaf)[0] = True


def test_corpus_index_is_freed_without_a_gc_pass():
    # A chunk's CorpusIndex must go with its last reference, not wait for a
    # cyclic collection: `run` streams one chunk after another.
    ast = parse_query('(0.7 <= "temperature" <= 35.1) AND (20 <= "humidity" <= 69)')
    cfg = FilterConfig((PredicateConfig(Mode.SCOPED, 1), PredicateConfig(Mode.KEYVALUE, "N")))
    gc.disable()
    try:
        corpus = CorpusIndex(fuzz_stream(12))
        evaluate_config_batch(corpus, validate_config(ast, cfg))
        ref = weakref.ref(corpus)
        del corpus
        assert ref() is None
    finally:
        gc.enable()


def test_run_frees_each_chunk_before_indexing_the_next(monkeypatch):
    # Each chunk's index carries its token table, fire records and start
    # tables; holding them while the next chunk is indexed raises peak memory.
    from rawfilter import cli

    ast = parse_query('(0.7 <= "temperature" <= 35.1) AND (20 <= "humidity" <= 69)')
    cfg = FilterConfig((PredicateConfig(Mode.SCOPED, 1), PredicateConfig(Mode.KEYVALUE, 2)))
    built = []
    build = batch.build_scan_index

    def build_checked(buffer, *args):
        assert [ref() for ref in built if ref() is not None] == []
        index = build(buffer, *args)
        built.append(weakref.ref(index))
        return index

    monkeypatch.setattr(batch, "build_scan_index", build_checked)
    gc.disable()
    try:
        cli._run_stream(ast, cfg, io.BytesIO(fuzz_stream(12)), io.BytesIO(), chunk_bytes=2048)
    finally:
        gc.enable()
    assert len(built) > 3


def test_position_tables_are_int64():
    # int32 positions wrap past 2 GiB, and eval/explore index whole files;
    # checking the dtypes on a small input needs no 2 GiB allocation.
    index = build_scan_index(fuzz_stream(13, 40))
    tables = {"rec_starts": index.rec_starts, "rec_ends": index.rec_ends, "open_pos": index.open_pos}
    tables.update(scope_starts=index.start_table(Mode.SCOPED), segment_starts=index.start_table(Mode.KEYVALUE))
    starts, ends, last_digit, heuristic, records = index.numeric_tokens()
    tables.update(token_starts=starts, token_ends=ends, token_last_digit=last_digit, token_records=records)
    for block in (1, 2, "N"):
        tables[f"string_fires[{block}]"] = string_fire_positions(index, b"temperature", block)
    fires, attrs, fire_records = number_fire_positions(index, build_range_dfa(NumericBound(Decimal(0), Decimal(100))))
    tables.update(range_fires=fires, range_attrs=attrs, range_records=fire_records)
    assert all(len(v) for v in tables.values()), {k: len(v) for k, v in tables.items()}
    assert {k: str(v.dtype) for k, v in tables.items() if v.dtype != np.int64} == {}
    assert heuristic.dtype == bool


def test_start_keys_refuse_to_overflow_int64():
    # level * (n + 1) + position: n bytes nested n deep need n * n < 2**63.
    n = 1 << 32
    assert _start_keys(np.asarray([1 << 30]), np.asarray([n - 1]), n).tolist() == [(1 << 30) * (n + 1) + n - 1]
    with pytest.raises(OverflowError):
        _start_keys(np.asarray([0, 1 << 31]), np.asarray([0, 0]), n)


def test_scoped_plan_builds_no_segment_table():
    ast = parse_query('(0.7 <= "temperature" <= 35.1) AND (20 <= "humidity" <= 69)')
    corpus = CorpusIndex(fuzz_stream(15))
    scoped = FilterConfig((PredicateConfig(Mode.SCOPED, 1), PredicateConfig(Mode.FLAT, 2)))
    evaluate_config_batch(corpus, validate_config(ast, scoped))
    assert list(corpus.index._starts) == [Mode.SCOPED]
    keyvalue = FilterConfig((PredicateConfig(Mode.SCOPED, 1), PredicateConfig(Mode.KEYVALUE, 2)))
    evaluate_config_batch(corpus, validate_config(ast, keyvalue))
    assert list(corpus.index._starts) == [Mode.SCOPED, Mode.KEYVALUE]


def joined_records(chunks) -> list[tuple[bytes, bool]]:
    """(bytes, malformed) of each record over `iter_chunk_indexes`' blocks; a
    record cut at a block's end is joined with its pieces in the next ones."""
    records, pieces = [], []
    for index, buffer in chunks:
        spans = zip(index.rec_starts.tolist(), index.rec_ends.tolist(), index.rec_malformed.tolist())
        for k, (start, end, malformed) in enumerate(spans):
            pieces.append(buffer[start:end])
            if k < index.n_ended:
                records.append((b"".join(pieces), malformed))
                pieces = []
    assert not pieces
    return records


def test_chunked_iteration_recovers_all_records():
    for data in (fuzz_stream(10), malformed_stream(0)):
        expected = [(s.slice(data), s.malformed) for s in segment_records(data)]
        for chunk_bytes in (7, 64, 512, 4096, 1 << 20):
            collected = joined_records(iter_chunk_indexes(io.BytesIO(data), chunk_bytes))
            assert collected == expected, chunk_bytes


def chunk_configs():
    """One config per mode, each string mode over blocks 1, 2 and N."""
    string_modes = (Mode.FLAT, Mode.SCOPED, Mode.KEYVALUE)
    configs = [FilterConfig((PredicateConfig(Mode.VALUE_ONLY),) * 3)]
    configs += [FilterConfig(tuple(PredicateConfig(m, b) for b in (1, 2, "N"))) for m in string_modes]
    configs.append(FilterConfig((PredicateConfig(Mode.OMIT), PredicateConfig(Mode.SCOPED, 1), PredicateConfig(Mode.KEYVALUE, 2))))
    return configs


def _stats_of_the_records(stats: dict) -> dict:
    """A run's stats without those that count blocks, rescans or time."""
    return {k: v for k, v in stats.items() if k not in ("chunks", "rescanned_bytes", "wall_s", "throughput_mb_s")}


@pytest.mark.parametrize("cfg", chunk_configs(), ids=lambda cfg: "-".join(p.mode.value for p in cfg.predicates))
def test_chunked_runs_write_the_unchunked_output(cfg, monkeypatch):
    # Chunk carries drop a buffer's last record; a fire in the dropped tail
    # must not latch the record before it. `chunk_bytes` caps the block, so
    # block boundaries land anywhere.
    from rawfilter.cli import _run_stream

    ast = parse_query(MALFORMED_QUERY)
    expr = compile_filter(ast, cfg)
    runs = [(batch._BLOCK_BYTES, chunk_bytes) for chunk_bytes in (7, 64, 512, 4096, 1 << 22)]
    runs += [(block, chunk_bytes) for block in (7, 61, 509) for chunk_bytes in (64, 512, 4096, 1 << 22)]
    for data in (fuzz_stream(14), malformed_stream(1)):
        kept = [s.slice(data) for s in segment_records(data) if accepts(expr, s.slice(data))]
        expected = b"".join(record + b"\n" for record in kept)
        monkeypatch.undo()
        whole = _run_stream(ast, cfg, io.BytesIO(data), io.BytesIO())
        assert (whole["chunks"], whole["rescanned_bytes"]) == (1, 0)
        for block, chunk_bytes in runs:
            monkeypatch.setattr(batch, "_BLOCK_BYTES", block)
            out = io.BytesIO()
            stats = _run_stream(ast, cfg, io.BytesIO(data), out, chunk_bytes=chunk_bytes)
            assert out.getvalue() == expected, (block, chunk_bytes)
            assert _stats_of_the_records(stats) == _stats_of_the_records(whole), (block, chunk_bytes)
            assert stats["rescanned_bytes"] >= 0


class ShortReads:
    """A stream whose reads return at most `most` bytes, as a pipe's or a raw
    file's may, and that records the size each read asks for."""

    def __init__(self, data: bytes, most: int):
        self._stream, self._most = io.BytesIO(data), most
        self.asked: list[int] = []

    def read(self, n: int) -> bytes:
        self.asked.append(n)
        return self._stream.read(min(n, self._most))


@pytest.mark.parametrize("most", [1, 7, 300])
def test_short_reads_fill_one_block_at_a_time(most, monkeypatch):
    # Reads that return less than they ask for still give the unchunked
    # output. No read asks for more than the block, except while a block
    # grows: then it asks for at most what the grown block indexes.
    from rawfilter import cli

    ast = parse_query(MALFORMED_QUERY)
    cfg = chunk_configs()[-1]
    expr = compile_filter(ast, cfg)
    for data in (fuzz_stream(14), malformed_stream(1)):
        kept = [s.slice(data) for s in segment_records(data) if accepts(expr, s.slice(data))]
        expected = b"".join(record + b"\n" for record in kept)
        whole = cli._run_stream(ast, cfg, io.BytesIO(data), io.BytesIO())
        for block in (7, 61, 509):
            stream = ShortReads(data, most)
            ends = []  # per block: reads asked before it, and the most any of them may ask

            def recorded(source, chunk_bytes, patterns):
                for index, buffer in iter_chunk_indexes(source, chunk_bytes, patterns):
                    grown = index.scanned_bytes > len(index.raw)
                    ends.append((len(stream.asked), len(index.raw) if grown else block))
                    yield index, buffer

            monkeypatch.setattr(batch, "_BLOCK_BYTES", block)
            monkeypatch.setattr(cli, "iter_chunk_indexes", recorded)
            out = io.BytesIO()
            stats = cli._run_stream(ast, cfg, stream, out)
            monkeypatch.undo()
            assert out.getvalue() == expected, (block, most)
            assert _stats_of_the_records(stats) == _stats_of_the_records(whole), (block, most)
            first = 0
            for last, most_asked in ends + [(len(stream.asked), block)]:
                assert max(stream.asked[first:last], default=0) <= most_asked, (block, most)
                first = last


def test_run_memory_follows_the_block(monkeypatch):
    # The stream is read and indexed one block at a time, so the buffer and
    # the index tables follow the block, not `chunk_bytes`: the traced peak
    # stays within a fixed multiple of the block, over 64 and 128 blocks
    # alike. Indexing whole reads peaks at about 13 reads here.
    import tracemalloc

    from rawfilter.cli import _run_stream

    class Discard:
        def write(self, data):
            return len(data)

    block, read = 1 << 14, 1 << 18
    monkeypatch.setattr(batch, "_BLOCK_BYTES", block)
    ast = parse_query('(0.7 <= "temperature" <= 35.1) AND (20 <= "humidity" <= 69)')
    cfg = FilterConfig((PredicateConfig(Mode.SCOPED, 1), PredicateConfig(Mode.KEYVALUE, 2)))
    records = fuzz_stream(16, 400)
    peaks = []
    for blocks in (64, 128):
        source = io.BytesIO(records * (blocks * block // len(records) + 1))
        tracemalloc.start()
        try:
            stats = _run_stream(ast, cfg, source, Discard(), chunk_bytes=read)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert stats["chunks"] >= blocks
    assert max(peaks) < 32 * block, peaks
    assert peaks[1] < 1.2 * peaks[0], peaks


def test_a_block_of_blanks_ends_where_it_ends(monkeypatch):
    # Blanks between records at depth 0 hold no record, so a block of them
    # carries nothing into the next: a blank run 64 blocks long is read as
    # 64 blocks, not indexed again and again as one growing block.
    import tracemalloc

    from rawfilter.cli import _run_stream

    block = 1 << 14
    ast = parse_query('(0.7 <= "temperature" <= 35.1) AND (20 <= "humidity" <= 69)')
    cfg = FilterConfig((PredicateConfig(Mode.SCOPED, 1), PredicateConfig(Mode.KEYVALUE, 2)))
    match = b'{"temperature":20.5,"humidity":40}\n'
    data = fuzz_stream(22, 20) + match + b" " * (64 * block) + b"\n" + match + fuzz_stream(23, 20)
    monkeypatch.setattr(batch, "_BLOCK_BYTES", len(data))
    whole = io.BytesIO()
    whole_stats = _run_stream(ast, cfg, io.BytesIO(data), whole, chunk_bytes=len(data))
    assert whole_stats["chunks"] == 1
    monkeypatch.setattr(batch, "_BLOCK_BYTES", block)
    source, out = io.BytesIO(data), io.BytesIO()
    tracemalloc.start()
    try:
        stats = _run_stream(ast, cfg, source, out, chunk_bytes=1 << 18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.getvalue() == whole.getvalue()
    assert _stats_of_the_records(stats) == _stats_of_the_records(whole_stats)
    assert stats["chunks"] >= 64 and stats["rescanned_bytes"] < 2 * block, stats
    assert peak < 32 * block, peak


@pytest.mark.parametrize("seed", [0, 1])
def test_a_piece_indexed_at_its_depth_matches_the_reference(seed):
    # The rest of a stream after a structural comma inside a record, indexed
    # at that comma's level: levels, opens, commas and record spans equal
    # the reference's over the whole stream, and the continued record's open
    # scopes and segments start at position 0.
    data = cut_stream()[:20000] + malformed_stream(seed)
    events = reference_arrays(data)
    reference = segment_records(data)
    rng = random.Random(seed)
    # Commas inside bracketed records: a scalar record is never cut.
    bracketed = [(s.start, s.end) for s in reference if data[s.start] in b"{["]
    commas = [e for e in events if e.structural_comma and any(a < e.offset < b for a, b in bracketed)]
    for comma in rng.sample(commas, 40):
        cut = comma.offset + 1
        index = build_scan_index(data[cut:], comma.level)
        rest = events[cut:]
        assert index.start_depth == comma.level > 0
        assert index.level_at(np.arange(len(rest))).tolist() == [e.level for e in rest]
        assert index.open_pos.tolist() == [e.offset - cut for e in rest if not e.in_string and e.byte in b"{["]
        assert list(zip(index.commas.tolist(), index.comma_level.tolist())) == [
            (e.offset - cut, e.level) for e in rest if e.structural_comma
        ]
        continued = next(s for s in reference if s.start < cut <= s.end)
        expected = [(0, continued.end - cut, continued.malformed)]
        expected += [(s.start - cut, s.end - cut, s.malformed) for s in reference if s.start >= cut]
        assert [(s.start, s.end, s.malformed) for s in spans(index)] == expected
        for mode in (Mode.SCOPED, Mode.KEYVALUE):
            rows = index.open_rows(mode, 0, comma.level)
            assert index.start_table(mode)[rows].tolist() == [level * (len(rest) + 1) for level in range(1, comma.level + 1)]


def test_single_record_larger_than_chunk():
    inner = b",".join(b'{"v":%d}' % i for i in range(2000))
    data = b'{"e":[' + inner + b"]}"
    chunks = list(iter_chunk_indexes(io.BytesIO(data), 128))
    assert len(chunks) > 1
    assert [record for record, _ in joined_records(chunks)] == [data]


def test_single_record_carry_scans_linear_bytes(monkeypatch):
    # A record that outgrows every chunk is cut just past a comma, so the
    # bytes indexed twice are the short tails after each cut.
    inner = b",".join(b'{"v":%d}' % i for i in range(2000))
    data = b'{"e":[' + inner + b"]}"
    scanned = []

    def counting(buffer, *args):
        scanned.append(len(buffer))
        return build_scan_index(buffer, *args)

    monkeypatch.setattr(batch, "build_scan_index", counting)
    chunks = list(iter_chunk_indexes(io.BytesIO(data), 128))
    assert [record for record, _ in joined_records(chunks)] == [data]
    assert sum(scanned) <= 2 * len(data), (len(scanned), sum(scanned))
    assert sum(index.scanned_bytes for index, _ in chunks) == sum(scanned)


# --- records cut at safe points -------------------------------------------------

NAMES = QUERY_ATTRS + CONFUSABLE_ATTRS


def merged_senml_record(seed: int, size: int, lo: float = -50.0, hi: float = 6000.0) -> bytes:
    """One SenML record holding the entries of many, about `size` bytes long."""
    rng = random.Random(seed)
    entries, total = [], 0
    while total < size:
        record = senml_record(rng, rng.sample(NAMES, 3), lo, hi)
        entries.append(record[len(b'{"e":[') : record.rindex(b'],"bt":')])
        total += len(entries[-1]) + 1
    return b'{"e":[' + b",".join(entries) + b'],"bt":1422748800000}'


def nested_flat_record(seed: int, size: int) -> bytes:
    """One record of flat objects nested two and three levels deep."""
    rng = random.Random(seed)
    groups, total = [], 0
    while total < size:
        flats = [flat_record(rng, rng.sample(NAMES, 3)) for _ in range(rng.randint(1, 3))]
        groups.append(b'{"g%d":[%s],"at":%s}' % (len(groups), b",".join(flats), flats[0]))
        total += len(groups[-1]) + 1
    return b'{"groups":[' + b",".join(groups) + b"]}"


def cut_stream() -> bytes:
    """Records many blocks long between ordinary ones. In the last two a
    string and a value share a level-1 scope (and, in the first of them, a
    segment) across hundreds of commas."""
    fill = b",".join([b"99"] * 300)
    records = [
        merged_senml_record(31, 3000),
        merged_senml_record(32, 3000, lo=4000.0),
        nested_flat_record(33, 3000),
        b'{"temperature":[' + fill + b'] 20.5,"light":[' + fill + b"] 7}",
        b'{"temperature":[' + fill + b'],"x":20.5,"humidity":[' + fill + b'],"y":30}',
    ]
    return b"".join(fuzz_stream(40 + i, 3) + record + b"\n" for i, record in enumerate(records))


@pytest.mark.parametrize("cfg", chunk_configs(), ids=lambda cfg: "-".join(p.mode.value for p in cfg.predicates))
def test_records_longer_than_a_block_write_the_unchunked_output(cfg, monkeypatch):
    # A record that outgrows its block is cut just past a structural comma,
    # and its filter state goes on into the next piece: every scope, segment,
    # latch and verdict must come out as for the whole record.
    from rawfilter.cli import _run_stream

    ast = parse_query(MALFORMED_QUERY)
    expr = compile_filter(ast, cfg)
    data = cut_stream()
    kept = [s.slice(data) for s in segment_records(data) if accepts(expr, s.slice(data))]
    expected = b"".join(record + b"\n" for record in kept)
    whole = _run_stream(ast, cfg, io.BytesIO(data), io.BytesIO())
    assert whole["chunks"] == 1 and whole["largest_record_bytes"] > 3000
    for block in (7, 61, 509):
        for chunk_bytes in (64, 4096):
            monkeypatch.setattr(batch, "_BLOCK_BYTES", block)
            out = io.BytesIO()
            stats = _run_stream(ast, cfg, io.BytesIO(data), out, chunk_bytes=chunk_bytes)
            assert out.getvalue() == expected, (block, chunk_bytes)
            assert _stats_of_the_records(stats) == _stats_of_the_records(whole), (block, chunk_bytes)


def _largest_index(monkeypatch) -> list:
    """Patch `build_scan_index` to note the largest buffer it indexes."""
    largest = [0]
    build = batch.build_scan_index

    def noting(buffer, *args):
        largest[0] = max(largest[0], len(buffer))
        return build(buffer, *args)

    monkeypatch.setattr(batch, "build_scan_index", noting)
    return largest


def test_a_record_without_a_safe_point_grows_its_block(monkeypatch):
    # One 100 KiB string holds no structural comma: the block grows until the
    # record ends, as it always did.
    from rawfilter.cli import _run_stream

    ast = parse_query(MALFORMED_QUERY)
    cfg = FilterConfig((PredicateConfig(Mode.SCOPED, 1), PredicateConfig(Mode.KEYVALUE, 2), PredicateConfig(Mode.FLAT, "N")))
    record = b'{"temperature":"' + b"7" * (100 << 10) + b'"}'
    data = fuzz_stream(17, 20) + record + b"\n" + fuzz_stream(18, 20)
    expr = compile_filter(ast, cfg)
    expected = b"".join(s.slice(data) + b"\n" for s in segment_records(data) if accepts(expr, s.slice(data)))
    monkeypatch.setattr(batch, "_BLOCK_BYTES", 1 << 14)
    largest = _largest_index(monkeypatch)
    out = io.BytesIO()
    _run_stream(ast, cfg, io.BytesIO(data), out, chunk_bytes=1 << 16)
    assert out.getvalue() == expected
    assert largest[0] >= len(record)


@pytest.mark.parametrize("mode, block", [(Mode.FLAT, 1), (Mode.FLAT, "N"), (Mode.SCOPED, 2)])
def test_a_pattern_holding_a_comma_keeps_records_whole(mode, block, monkeypatch):
    # Its only occurrence spans a structural comma: a cut just past that comma
    # would split the gram-hit run or the exact occurrence, so a plan with
    # such a pattern grows the block instead of cutting.
    from rawfilter.cli import _run_stream

    ast = parse_query('(1 <= "a,b" <= 5)')
    cfg = FilterConfig((PredicateConfig(mode, block),))
    record = b'[[' + b",".join([b"0"] * 2000) + b",1a,b1]]"
    data = fuzz_stream(19, 5) + record + b"\n" + fuzz_stream(20, 5)
    expr = compile_filter(ast, cfg)
    assert accepts(expr, record)
    expected = b"".join(s.slice(data) + b"\n" for s in segment_records(data) if accepts(expr, s.slice(data)))
    for size in (7, 61, 509):
        monkeypatch.setattr(batch, "_BLOCK_BYTES", size)
        largest = _largest_index(monkeypatch)
        out = io.BytesIO()
        _run_stream(ast, cfg, io.BytesIO(data), out, chunk_bytes=4096)
        monkeypatch.undo()
        assert out.getvalue() == expected, size
        assert largest[0] >= len(record), size


def test_run_memory_follows_the_block_within_one_record(monkeypatch):
    # A record longer than a block is cut at safe points and held as its
    # pieces: the traced peak is the record's bytes about once and the
    # block's buffer and tables, where an index over the whole record costs
    # about 11 times its size.
    import tracemalloc

    from rawfilter.cli import _run_stream

    class Discard:
        def write(self, data):
            return len(data)

    block, read = 1 << 14, 1 << 18
    monkeypatch.setattr(batch, "_BLOCK_BYTES", block)
    ast = parse_query('(0.7 <= "temperature" <= 35.1) AND (20 <= "humidity" <= 69)')
    cfg = FilterConfig((PredicateConfig(Mode.SCOPED, 1), PredicateConfig(Mode.KEYVALUE, 2)))
    for blocks in (64, 128):
        record = merged_senml_record(21, blocks * block)
        source = io.BytesIO(record + b"\n")
        tracemalloc.start()
        try:
            stats = _run_stream(ast, cfg, source, Discard(), chunk_bytes=read)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats["records_in"] == 1
        assert peak < len(record) + 28 * block, (blocks, peak, len(record))
