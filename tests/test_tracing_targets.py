"""The benchmark's tracer patches rawfilter functions by name and reads what
they return; every name it lists must resolve, and its counts must equal
direct calls, or `perfbench/run.py --trace 1` breaks on a rename or a change
of return shape."""

import importlib
import importlib.util
import io
import re
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


_tracing = _tracing_module()


@pytest.mark.parametrize("module, attr", _tracing.TRACED + _tracing.COUNTED)
def test_traced_name_resolves_in_rawfilter(module, attr):
    target = importlib.import_module(f"rawfilter.{module}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_traced_counts_equal_direct_calls():
    """The tracer reads the values the traced functions return: a change to
    their shape must fail here, not only under `perfbench/run.py --trace 1`."""
    from rawfilter import cli
    from rawfilter.batch import iter_chunk_indexes, number_fire_positions, string_fire_positions
    from rawfilter.filter import FilterConfig, Mode, PredicateConfig, plan_leaves, validate_config
    from rawfilter.query import parse_query
    from rawfilter.ranges import build_range_dfa

    from conftest import fuzz_records

    exponents = b'{"temperature":2.5e1,"humidity":1E2}\n[{"n":"humidity","v":-4e-1}]\n'
    data = b"".join(fuzz_records(seed, 40) + exponents for seed in range(4))
    ast = parse_query('(0.7 <= "temperature" <= 35.1) AND (20 <= "humidity" <= 69)')
    cfg = FilterConfig((PredicateConfig(Mode.SCOPED, 1), PredicateConfig(Mode.KEYVALUE, 2)))
    chunk_bytes = 4096

    leaves = plan_leaves(validate_config(ast, cfg))
    bounds = {leaf.pred.bound: build_range_dfa(leaf.pred.bound) for leaf in leaves}
    strings = {(leaf.pred.attr.encode(), leaf.block) for leaf in leaves}
    chunks = tokens = range_fires = heuristic = string_fires = 0
    for index, buffer in iter_chunk_indexes(io.BytesIO(data), chunk_bytes):
        chunks += 1
        starts, ends = index.numeric_tokens()[:2]
        tokens += len(starts)
        # Tokens under the exponent heuristic: an 'e' or 'E' after a digit.
        exponent = sum(bool(re.search(rb"[0-9].*[eE]", buffer[s : e + 1])) for s, e in zip(starts, ends))
        for rdfa in bounds.values():
            range_fires += len(number_fire_positions(index, rdfa)[0])
            heuristic += exponent
        for pattern, block in strings:
            string_fires += len(string_fire_positions(index, pattern, block))
    assert chunks > 1 and heuristic and range_fires and string_fires

    tracer = _tracing.Tracer().install()
    try:
        cli._run_stream(ast, cfg, io.BytesIO(data), io.BytesIO(), chunk_bytes=chunk_bytes)
    finally:
        tracer.uninstall()
    offset, spans, counts = tracer.take()
    metrics = _tracing.layer_metrics(spans, offset, [], len(data), 1.0, 0.0, counts)
    assert metrics["cli.chunks"] == chunks
    assert metrics["batch.numeric_tokens"] == tokens
    assert metrics["ranges.fires"] == range_fires
    assert metrics["ranges.heuristic_share"] == heuristic / range_fires
    assert metrics["strings.fires"] == string_fires
    # The run validates its configuration once and hands the plan to both
    # batch calls of every block, under the names the tracer patches.
    names = ("filter.validate_config", "batch.evaluate_config_batch", "batch.primitive_fire_counts")
    assert [sum(span.name == name for span in spans) for name in names] == [1, chunks, chunks]
