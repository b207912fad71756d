import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from rawfilter.batch import CorpusIndex
from rawfilter.cli import parse_descriptor, render_descriptor
from rawfilter.errors import ConfigError
from rawfilter.explorer import DEFAULT_COST_MODEL, evaluate_config
from rawfilter.filter import (
    FilterConfig,
    Mode,
    PlanLeaf,
    PredicateConfig,
    accepts,
    compile_filter,
    filter_record,
    parse_config,
    reset_filter,
    serialize_config,
)
from rawfilter.oracle import eval_exact, label_dataset, parse_json
from rawfilter.query import parse_query
from rawfilter.scanner import iter_events
from rawfilter.strings import resolve_block_len

from conftest import senml_record

Q0 = parse_query('(0.7 <= "temperature" <= 35.1)')


def cfg_of(*pairs):
    return FilterConfig(tuple(PredicateConfig(Mode(m), b) for m, b in pairs))


class TestCompile:
    def test_modes_map_to_node_shapes(self):
        for mode in ("FLAT", "SCOPED", "KEYVALUE"):
            expr = compile_filter(Q0, cfg_of((mode, 1)))
            assert expr.plan == PlanLeaf(Q0, Mode(mode), 1)
            assert [leaf.kind for leaf in expr.leaves] == ["string", "range"]
        value_only = compile_filter(Q0, cfg_of(("VALUE_ONLY", None)))
        assert value_only.plan == PlanLeaf(Q0, Mode.VALUE_ONLY, None)
        assert [leaf.kind for leaf in value_only.leaves] == ["range"]

    def test_scoped_notation_matches_report_style(self):
        expr = compile_filter(Q0, cfg_of(("SCOPED", 1)))
        assert expr.notation() == '{ s1("temperature") & v(0.7<=f<=35.1) }'

    def test_omit_drops_leaf_from_and(self):
        ast = parse_query('(1 <= "aa" <= 2) AND (3 <= "bb" <= 4)')
        expr = compile_filter(ast, cfg_of(("OMIT", None), ("VALUE_ONLY", None)))
        assert expr.plan == PlanLeaf(ast.children[1], Mode.VALUE_ONLY, None)
        assert [leaf.kind for leaf in expr.leaves] == ["range"]

    def test_omitting_every_predicate_fails(self):
        ast = parse_query('(1 <= "aa" <= 2) AND (3 <= "bb" <= 4)')
        with pytest.raises(ConfigError):
            compile_filter(ast, cfg_of(("OMIT", None), ("OMIT", None)))

    def test_omit_under_or_fails(self):
        ast = parse_query('(1 <= "aa" <= 2) OR (3 <= "bb" <= 4)')
        with pytest.raises(ConfigError):
            compile_filter(ast, cfg_of(("OMIT", None), ("VALUE_ONLY", None)))

    def test_block_required_for_string_modes(self):
        with pytest.raises(ConfigError):
            PredicateConfig(Mode.SCOPED, None)
        with pytest.raises(ConfigError):
            PredicateConfig(Mode.VALUE_ONLY, 2)

    def test_each_primitive_in_exactly_one_leaf(self):
        ast = parse_query('(1 <= "aa" <= 2) AND (3 <= "bb" <= 4)')
        expr = compile_filter(ast, cfg_of(("SCOPED", 1), ("FLAT", 2)))
        prims = [leaf.primitive for leaf in expr.leaves]
        assert len(prims) == len(set(map(id, prims))) == 4


class TestRunningExample:
    def test_flat_accepts_scoped_rejects(self, listing_record):
        flat = compile_filter(Q0, cfg_of(("FLAT", 1)))
        scoped = compile_filter(Q0, cfg_of(("SCOPED", 1)))
        assert accepts(flat, listing_record) is True
        assert accepts(scoped, listing_record) is False

    def test_true_match_accepted_by_both(self, listing_record):
        record = listing_record.replace(b'"35.2"', b'"30.0"')
        for mode in ("FLAT", "SCOPED"):
            expr = compile_filter(Q0, cfg_of((mode, 1)))
            assert accepts(expr, record) is True
        assert eval_exact(Q0, parse_json(record)) is True

    def test_empty_record_rejected(self):
        expr = compile_filter(Q0, cfg_of(("SCOPED", 1)))
        assert accepts(expr, b"{}") is False


class TestReset:
    def test_no_leak_across_records(self):
        # the pattern split across a record boundary must not latch
        expr = compile_filter(Q0, cfg_of(("FLAT", 1)))
        first = b'{"n":"temper'
        second = b'ature","v":12}'
        assert accepts(expr, first) is False
        assert accepts(expr, second) is False
        assert accepts(expr, first + second) is True

    def test_reset_clears_logs_and_latches(self, listing_record):
        expr = compile_filter(Q0, cfg_of(("SCOPED", 1)))
        filter_record(expr, listing_record)
        assert any(leaf.fires_by_scope for leaf in expr.leaves)
        reset_filter(expr)
        for leaf in expr.leaves:
            assert not leaf.fires_by_scope and not leaf.fires_by_segment
            assert not leaf.latched

    def test_reset_is_idempotent(self):
        expr = compile_filter(Q0, cfg_of(("SCOPED", 1)))
        reset_filter(expr)
        reset_filter(expr)
        assert accepts(expr, b'{"v":"12","n":"temperature"}') is True


def test_scope_attribution_matches_scanner_ground_truth():
    rng = random.Random(9)
    expr = compile_filter(Q0, cfg_of(("SCOPED", 1)))
    for _ in range(50):
        record = senml_record(rng, ["temperature", "humidity"])
        reset_filter(expr)
        filter_record(expr, record)
        events = list(iter_events(record))
        for leaf in expr.leaves:
            if leaf.kind != "string":
                continue
            for scope, offset in leaf.fires_by_scope.items():
                assert events[offset].scope_id == scope


def test_monotone_refinement_scoped_flat_value():
    rng = random.Random(10)
    value_only = compile_filter(Q0, cfg_of(("VALUE_ONLY", None)))
    flat = compile_filter(Q0, cfg_of(("FLAT", 1)))
    scoped = compile_filter(Q0, cfg_of(("SCOPED", 1)))
    for _ in range(300):
        record = senml_record(rng, ["temperature", "humidity", "light"], lo=-10, hi=100)
        a_scoped = accepts(scoped, record)
        a_flat = accepts(flat, record)
        a_value = accepts(value_only, record)
        assert (not a_scoped or a_flat) and (not a_flat or a_value)


class TestSegmentConjunction:
    QT_TOLLS = parse_query('(2.5 <= "tolls_amount" <= 18)')

    def expr(self):
        return compile_filter(self.QT_TOLLS, cfg_of(("KEYVALUE", 1)))

    def test_key_and_value_in_same_segment(self):
        assert accepts(self.expr(), b'{"fare":1,"tolls_amount":3.5,"tip":0}') is True

    def test_key_and_value_in_different_segments(self):
        assert accepts(self.expr(), b'{"tolls_amount":99,"other":3.5}') is False

    def test_scoped_accepts_what_keyvalue_refines(self):
        record = b'{"tolls_amount":99,"other":3.5}'
        scoped = compile_filter(self.QT_TOLLS, cfg_of(("SCOPED", 1)))
        assert accepts(scoped, record) is True


def test_or_query_accepts_when_one_branch_fires():
    ast = parse_query('(1000 <= "light" <= 2000) OR (0.7 <= "temperature" <= 35.1)')
    expr = compile_filter(ast, cfg_of(("SCOPED", 1), ("SCOPED", 1)))
    assert accepts(expr, b'{"v":"12","n":"temperature"}') is True
    assert accepts(expr, b'{"v":"1500","n":"light"}') is True
    assert accepts(expr, b'{"v":"99","n":"humidity"}') is False


def test_true_or_branch_does_not_hand_its_sibling_pair_to_the_next_predicate():
    # "aa" holds, "bb" does not: the OR is true without "bb", and "cc" must
    # still be judged by its own primitives, not by the pair of "bb"
    ast = parse_query('((1 <= "aa" <= 2) OR (3 <= "bb" <= 4)) AND (5 <= "cc" <= 6)')
    expr = compile_filter(ast, cfg_of(("SCOPED", 1), ("SCOPED", 1), ("SCOPED", 1)))
    assert accepts(expr, b'{"aa":1,"cc":5}') is True
    assert accepts(expr, b'{"aa":1,"cc":9}') is False


class TestConfigText:
    def test_round_trip(self):
        ast = parse_query('(1 <= "aa" <= 2) AND (3 <= "bb" <= 4)')
        for cfg in (
            cfg_of(("SCOPED", 1), ("FLAT", 2)),
            cfg_of(("OMIT", None), ("KEYVALUE", "N")),
            cfg_of(("VALUE_ONLY", None), ("VALUE_ONLY", None)),
        ):
            text = serialize_config(ast, cfg)
            assert parse_config(text, ast) == cfg

    def test_symbolic_n_resolves(self):
        text = "temperature SCOPED N\n"
        cfg = parse_config(text, Q0)
        assert cfg.predicates[0].block == "N"

    def test_attribute_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("humidity SCOPED 1\n", Q0)

    def test_dash_required_without_string(self):
        with pytest.raises(ConfigError):
            parse_config("temperature VALUE_ONLY 1\n", Q0)

    def test_comments_and_blank_lines_ignored(self):
        text = "# choice\n\ntemperature SCOPED 2  # block 2\n"
        cfg = parse_config(text, Q0)
        assert cfg.predicates[0] == PredicateConfig(Mode.SCOPED, 2)

    @settings(max_examples=200, deadline=None)
    @given(
        attr=st.text(st.sampled_from(" #\\\tab_\u00e9"), min_size=0, max_size=8),
        pc=st.sampled_from(
            [PredicateConfig(Mode.VALUE_ONLY), PredicateConfig(Mode.FLAT, 1),
             PredicateConfig(Mode.SCOPED, "N"), PredicateConfig(Mode.KEYVALUE, 2)]
        ),
    )
    def test_every_attribute_reads_back(self, attr, pc):
        # An attribute that is empty or holds whitespace or '#' is written in
        # its JSON spelling; every other line stays raw, as cached descriptors
        # have it.
        ast = parse_query(f'(1 <= "{attr}" <= 5)')
        cfg = FilterConfig((pc,))
        try:
            text = serialize_config(ast, cfg)
        except ConfigError:
            assume(False)  # a block longer than the attribute
        assert parse_config(text, ast) == cfg
        assert parse_descriptor(render_descriptor(ast.notation(), ast, cfg, DEFAULT_COST_MODEL)) == (ast, cfg)
        if attr and not any(c in attr for c in " #\t"):
            assert text.split(" ")[0] == attr

    @pytest.mark.parametrize("mode", ["FLAT", "SCOPED", "KEYVALUE"])
    def test_empty_attribute_takes_no_string_primitive(self, mode):
        # Validation and the descriptor agree: no block length fits "".
        ast = parse_query('(1 <= "" <= 5)')
        with pytest.raises(ConfigError, match="block length 0 out of range for N=0"):
            resolve_block_len(b"", "N")
        with pytest.raises(ConfigError, match="block length 0 out of range for N=0"):
            parse_config(f'"" {mode} N\n', ast)
        value_only = cfg_of(("VALUE_ONLY", None))
        text = render_descriptor(ast.notation(), ast, value_only, DEFAULT_COST_MODEL)
        assert parse_descriptor(text) == (ast, value_only)

    def test_quoted_attributes(self):
        ast = parse_query('(1 <= "a #b" <= 5) AND (1 <= "" <= 5)')
        cfg = cfg_of(("SCOPED", 2), ("VALUE_ONLY", None))
        assert serialize_config(ast, cfg) == '"a #b" SCOPED 2\n"" VALUE_ONLY -\n'
        assert parse_config('  "a #b" SCOPED 2  # block 2\n"" VALUE_ONLY -\n', ast) == cfg
        with pytest.raises(ConfigError):
            parse_config('"a #b SCOPED 2\n"" VALUE_ONLY -\n', ast)


# An attribute with a backslash or a control character is spelled escaped in
# JSON, so its string primitive must search for that spelling. KEYVALUE on
# SenML is left out: the value precedes the name in another segment there, a
# known false negative for every attribute.
@pytest.mark.parametrize("name", ["a\\b", "a\tb"], ids=["backslash", "tab"])
@pytest.mark.parametrize(
    "layout,mode",
    [("flat", "FLAT"), ("flat", "SCOPED"), ("flat", "KEYVALUE"), ("senml", "FLAT"), ("senml", "SCOPED")],
)
@pytest.mark.parametrize("block", [1, 2, "N"])
def test_escaped_attribute_is_matched_by_its_json_spelling(name, layout, mode, block):
    ast = parse_query(f'(1 <= "{name}" <= 5)')
    key = json.dumps(name)
    if layout == "flat":
        record = f'{{{key}:3,"ts":1}}'.encode()
    else:
        record = f'{{"e":[{{"v":"3","u":"far","n":{key}}}],"bt":1}}'.encode()
    cfg = cfg_of((mode, block))
    labels = label_dataset(ast, [record])
    assert labels.labels[0].exact_match
    assert accepts(compile_filter(ast, cfg), record)
    assert evaluate_config(ast, cfg, CorpusIndex(record + b"\n"), labels).fn == 0


def test_running_example_script_prints_its_four_verdicts():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    result = subprocess.run(
        [sys.executable, str(root / "scripts" / "demo_running_example.py")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    verdicts = [
        (line.split()[0], line.split("accept=")[1].split()[0])
        for line in result.stdout.splitlines()
        if "accept=" in line
    ]
    # 35.2: FLAT accepts (a false positive), SCOPED rejects; 30.0: both accept.
    assert verdicts == [("flat", "True"), ("scoped", "False"), ("flat", "True"), ("scoped", "True")]
