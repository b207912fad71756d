import random
from decimal import Decimal

import pytest

from rawfilter.oracle import (
    JsonObject,
    JsonParseError,
    coerce_number,
    eval_exact,
    label_dataset,
    parse_json,
)
from rawfilter.query import parse_query

from conftest import fuzz_records


class TestParse:
    def test_string_values_stay_strings(self):
        value = parse_json(b'{"v":"35.2"}')
        assert value.get("v") == "35.2"

    def test_large_integer(self):
        value = parse_json(b'{"bt":1422748800000}')
        assert value.get("bt") == Decimal(1422748800000)

    def test_exponent_applied(self):
        value = parse_json(b'{"x":1e2}')
        assert value.get("x") == 100

    def test_duplicate_keys_preserved(self):
        value = parse_json(b'{"a":1,"a":5}')
        assert value.pairs == [("a", Decimal(1)), ("a", Decimal(5))]

    def test_malformed_raises(self):
        with pytest.raises(JsonParseError):
            parse_json(b'{"a":')
        with pytest.raises(JsonParseError):
            parse_json(b'{"a":NaN}')


def test_coercion_rules():
    assert coerce_number(Decimal("35.2")) == Decimal("35.2")
    assert coerce_number("35.2") == Decimal("35.2")
    assert coerce_number("-2.1e3") == Decimal("-2100")
    assert coerce_number("far") is None
    assert coerce_number(" 35.2") is None
    assert coerce_number(True) is None
    assert coerce_number([1]) is None


class TestEvalExact:
    def test_listing_record_exceeds_temperature_range(self, listing_record):
        query = parse_query('(0.7 <= "temperature" <= 35.1)')
        assert eval_exact(query, parse_json(listing_record)) is False

    def test_listing_record_humidity(self, listing_record):
        value = parse_json(listing_record)
        assert eval_exact(parse_query('(10 <= "humidity" <= 69.1)'), value) is True
        assert eval_exact(parse_query('(20 <= "humidity" <= 69.1)'), value) is False

    def test_empty_record_never_matches(self):
        assert eval_exact(parse_query('(0 <= "x" <= 1)'), parse_json(b"{}")) is False

    def test_flat_key_occurrence(self):
        query = parse_query('(2.5 <= "tolls_amount" <= 18)')
        assert eval_exact(query, parse_json(b'{"tolls_amount":2.5}')) is True
        assert eval_exact(query, parse_json(b'{"tolls_amount":"2.5"}')) is True
        assert eval_exact(query, parse_json(b'{"tolls_amount":20}')) is False

    def test_string_and_number_values_label_identically(self):
        query = parse_query('(0.7 <= "temperature" <= 35.1)')
        as_number = parse_json(b'{"e":[{"v":35.2,"n":"temperature"}]}')
        as_string = parse_json(b'{"e":[{"v":"35.2","n":"temperature"}]}')
        assert eval_exact(query, as_number) == eval_exact(query, as_string) is False

    def test_existential_over_duplicates(self):
        query = parse_query('(4 <= "a" <= 6)')
        assert eval_exact(query, parse_json(b'{"a":1,"a":5}')) is True
        assert eval_exact(query, parse_json(b'{"a":1,"a":9}')) is False

    def test_nested_occurrence(self):
        query = parse_query('(1 <= "x" <= 2)')
        assert eval_exact(query, parse_json(b'{"outer":[{"x":1.5}]}')) is True

    def test_non_coercible_occurrence_is_false(self):
        query = parse_query('(1 <= "x" <= 2)')
        assert eval_exact(query, parse_json(b'{"x":{"y":1}}')) is False

    def test_and_or_combination(self):
        value = parse_json(b'{"a":1,"b":9}')
        assert eval_exact(parse_query('(0 <= "a" <= 2) AND (8 <= "b" <= 10)'), value)
        assert not eval_exact(parse_query('(0 <= "a" <= 2) AND (0 <= "b" <= 2)'), value)
        assert eval_exact(parse_query('(5 <= "a" <= 6) OR (8 <= "b" <= 10)'), value)

    def test_senml_object_requires_matching_name(self):
        query = parse_query('(0 <= "temperature" <= 100)')
        assert not eval_exact(query, parse_json(b'{"e":[{"v":"50","n":"humidity"}]}'))


class TestLabelDataset:
    def test_toy_selectivity(self):
        query = parse_query('(0 <= "a" <= 5)')
        records = [b'{"a":1}', b'{"a":9}', b'{"a":2}', b'{"a":3}', b'{"a":8}',
                   b'{"a":4}', b'{"b":1}', b'{"a":"x"}', b'{"a":null}', b'{}']
        result = label_dataset(query, records)
        assert result.matches == 4
        assert result.selectivity == pytest.approx(0.4)
        assert not result.empty

    def test_empty_dataset_flagged(self):
        result = label_dataset(parse_query('(0 <= "a" <= 1)'), [])
        assert result.selectivity == 0.0
        assert result.empty

    def test_malformed_records_counted_separately(self):
        query = parse_query('(0 <= "a" <= 5)')
        result = label_dataset(query, [b'{"a":1}', b'{"a":'])
        assert result.malformed_count == 1
        assert [lab.exact_match for lab in result.labels] == [True, False]
        assert not result.labels[1].parse_ok


# Records at the edges of the parser and the attribute walk: malformed lines,
# bytes that are not UTF-8, non-finite literals, duplicate keys, \u escapes,
# non-string SenML names, SenML objects with several names or values, and
# top-level scalars and arrays.
EDGE_RECORDS = [
    b'{"temperature":',
    b'{"temperature":20} {}',
    b'{"temperature":"2\xff0"}',
    b'\xef\xbb\xbf{"temperature":20}',
    b'{"temperature":NaN}',
    b'{"temperature":-Infinity,"humidity":30}',
    b'',
    b'{"temperature":99,"temperature":20,"humidity":30}',
    b'{"temp\\u0065rature":20,"hum\\u0069dity":"3\\u0030"}',
    b'{"e":[{"n":20,"v":"20"},{"n":["temperature"],"v":20},{"n":{"n":"humidity"},"v":30}]}',
    b'{"e":[{"v":"20","n":"temperature","v":"9999"},{"n":"humidity","n":"light","v":"30"}]}',
    b'{"e":[{"n":"temperature","v":[20]},{"n":"humidity","v":{"v":30}}]}',
    b'[{"temperature":20},[{"n":"humidity","v":150}],{"light":"150"}]',
    b'"temperature"',
    b'20',
    b'{"temperature":2E1,"humidity":3.0e+1,"light":-0}',
    b'{"temperature":" 20","humidity":"1e1","light":"0x10"}',
    b'{"v":20,"n":"temperature","e":{"humidity":{"v":30,"n":"light"}}}',
    b'{"temperature":true,"humidity":null,"light":[150]}',
    b'{"\\u0074emperature":"35.1","humidity":"69","light":"2000"}',
]
PINNED_QUERIES = [
    '(0.7 <= "temperature" <= 35.1)',
    '(0.7 <= "temperature" <= 35.1) AND (20 <= "humidity" <= 69)',
    '(10 <= "humidity" <= 40) OR (100 <= "light" <= 2000)',
    '((0 <= "temperature" <= 30) OR (0 <= "light" <= 300)) AND (0 <= "humidity" <= 3000)',
]


def _edge_stream(seed):
    """fuzz_records lines with every edge record spliced in at a seeded place."""
    rng = random.Random(seed)
    records = fuzz_records(seed, 40).splitlines()
    for record in EDGE_RECORDS:
        records.insert(rng.randint(0, len(records)), record)
    return records


def _rendered(labels):
    """One character per record: 1 match, 0 no match, x malformed."""
    return "".join("x" if not lab.parse_ok else "01"[lab.exact_match] for lab in labels.labels)


# Labels taken before the oracle's decoder and attribute walk were rewritten.
@pytest.mark.parametrize(
    "seed, query, expected",
    [
        (None, PINNED_QUERIES[0], "xxxxxxx1101010010101"),
        (None, PINNED_QUERIES[1], "xxxxxxx1101000010001"),
        (None, PINNED_QUERIES[2], "xxxxxxx1101010011001"),
        (None, PINNED_QUERIES[3], "xxxxxxx1101010010000"),
        (3, PINNED_QUERIES[0], "0000000000x0000100000x000000x000001100x0000000111x0x100x0000"),
        (3, PINNED_QUERIES[1], "0000000000x0000100000x000000x000001000x0000000101x0x100x0000"),
        (3, PINNED_QUERIES[2], "0010000000x1100101000x000010x000001100x0000011101x0x100x0000"),
        (3, PINNED_QUERIES[3], "0000000000x0000100000x000000x000000100x0000000101x0x100x0000"),
        (8, PINNED_QUERIES[0], "000x00100100x00000x000x00001001110000xx01000000000000000000x"),
        (8, PINNED_QUERIES[1], "000x00100100x00000x000x00000000110000xx01000000000000000000x"),
        (8, PINNED_QUERIES[2], "100x00101100x00000x000x00011010111100xx01000010010000000000x"),
        (8, PINNED_QUERIES[3], "000x00100100x00000x000x00001010010000xx01000000000000000000x"),
    ],
)
def test_labels_are_pinned_on_edge_records(seed, query, expected):
    records = EDGE_RECORDS if seed is None else _edge_stream(seed)
    ast = parse_query(query)
    labels = label_dataset(ast, records)
    assert _rendered(labels) == expected
    assert labels.malformed_count == expected.count("x")
    assert labels.matches == expected.count("1")
    for record, lab in zip(records, labels.labels):
        if lab.parse_ok:
            assert eval_exact(ast, parse_json(record)) is lab.exact_match
