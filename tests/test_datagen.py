import json
from decimal import Decimal

import pytest

from rawfilter.datagen import (
    AttrSpec,
    GenSpec,
    generate_dataset,
    generate_records,
    parse_gen_spec,
    query_for_spec,
)
from rawfilter.errors import ConfigError
from rawfilter.oracle import eval_exact, label_dataset, parse_json
from rawfilter.query import parse_query

SPEC_TEXT = """
layout senml
records 500
seed 7
attr temperature decimal -10 50 inrange 0.7 35.1 p 0.6
attr humidity int 0 120 inrange 20 69 p 0.7
"""


def test_spec_parses():
    spec = parse_gen_spec(SPEC_TEXT)
    assert spec.layout == "senml" and spec.records == 500 and spec.seed == 7
    assert [a.name for a in spec.attrs] == ["temperature", "humidity"]
    assert spec.attrs[0].range_hi == Decimal("35.1")


@pytest.mark.parametrize(
    "broken",
    [
        "records 10\nattr a int 0 1 inrange 0 1 p 0.5",  # no layout
        "layout senml\nattr a int 0 1 inrange 0 1 p 0.5",  # no records
        "layout senml\nrecords 5",  # no attrs
        "layout weird\nrecords 5\nattr a int 0 1 inrange 0 1 p 0.5",
        "layout senml\nrecords 5\nattr a int 5 1 inrange 0 1 p 0.5",  # empty domain
        "layout senml\nrecords 5\nattr a int 0 1 inrange 0 1 p 1.5",
        "layout senml\nrecords 5\nattr a int 0 1 inrange 5 6 p 0.5",  # no in-range value
    ],
)
def test_invalid_specs_rejected(broken):
    with pytest.raises(ConfigError):
        parse_gen_spec(broken) and list(generate_records(parse_gen_spec(broken)))


def test_deterministic_bytes_for_fixed_seed():
    spec = parse_gen_spec(SPEC_TEXT)
    assert generate_dataset(spec) == generate_dataset(spec)
    other = generate_dataset(spec, seed=8)
    assert other != generate_dataset(spec)


def test_senml_records_have_measurement_shape():
    spec = parse_gen_spec(SPEC_TEXT)
    corpus, _ = generate_dataset(spec)
    lines = corpus.splitlines()
    assert len(lines) == 500
    obj = json.loads(lines[0])
    assert set(obj) == {"e", "bt"}
    for measurement in obj["e"]:
        assert set(measurement) == {"v", "u", "n"}
        assert isinstance(measurement["v"], str)


def test_flat_records_use_plain_numbers():
    spec = parse_gen_spec(SPEC_TEXT.replace("senml", "flat"))
    corpus, _ = generate_dataset(spec)
    obj = json.loads(corpus.splitlines()[0])
    assert isinstance(obj["temperature"], (int, float))
    assert "ts" in obj


def test_sidecar_labels_agree_with_oracle():
    spec = parse_gen_spec(SPEC_TEXT)
    corpus, sidecar = generate_dataset(spec)
    query = parse_query(query_for_spec(spec))
    for line, label_line in zip(corpus.splitlines(), sidecar.splitlines()):
        label = json.loads(label_line)
        assert eval_exact(query, parse_json(line)) == label["all"]


def test_per_attribute_labels_are_exact():
    spec = parse_gen_spec(SPEC_TEXT)
    bounds = {a.name: (a.range_lo, a.range_hi) for a in spec.attrs}
    for record, matches in generate_records(spec):
        obj = json.loads(record)
        for item in obj["e"]:
            lo, hi = bounds[item["n"]]
            assert (lo <= Decimal(item["v"]) <= hi) == matches[item["n"]]


def test_realized_selectivity_near_target():
    # five attributes at p = 0.554 target a record-level AND selectivity of
    # roughly 0.554**5 = 0.052
    attrs = tuple(
        AttrSpec(f"attr{c}", "int", Decimal(0), Decimal(1000), Decimal(100), Decimal(500), 0.554)
        for c in "abcde"
    )
    spec = GenSpec("senml", 20000, attrs, seed=123)
    hits = sum(1 for _, matches in generate_records(spec) if all(matches.values()))
    assert hits / spec.records == pytest.approx(0.554**5, abs=0.01)


def _sidecar_and_oracle_labels(text: str) -> tuple[list, list]:
    spec = parse_gen_spec(text)
    corpus, sidecar = generate_dataset(spec)
    labels = label_dataset(parse_query(query_for_spec(spec)), corpus.splitlines())
    return [json.loads(line)["all"] for line in sidecar.splitlines()], [lab.exact_match for lab in labels.labels]


@pytest.mark.parametrize("layout", ["senml", "flat"])
@pytest.mark.parametrize(
    "attr",
    [
        # a backslash in the name: written raw it would be a JSON escape
        "attr a\\b int 0 10 inrange 1 5 p 0.5",
        # more than 28 significant digits: the default context rounds them
        "attr x int 0 2000000000000000000000000000000 "
        "inrange 1000000000000000000000000000001 1000000000000000000000000000009 p 0.5",
        # huge finite bounds: no exponent spelling in records or the query
        "attr x int 0 1E+401 inrange 1E+399 1E+400 p 0.5",
        "attr x decimal -1E+40 1E+40 inrange 1.25E+39 1E+40 p 0.5",
    ],
    ids=["backslash", "31-digits", "1E+399", "decimal-1E+39"],
)
def test_sidecar_labels_agree_with_oracle_on_unusual_specs(layout, attr):
    sidecar, oracle = _sidecar_and_oracle_labels(f"layout {layout}\nrecords 40\nseed 3\n{attr}\n")
    assert sidecar == oracle
    assert any(sidecar) and not all(sidecar)


def test_attribute_name_with_a_quote_is_rejected():
    with pytest.raises(ConfigError, match="line 3"):
        parse_gen_spec('layout flat\nrecords 3\nattr a"b int 0 10 inrange 1 5 p 0.5\n')
