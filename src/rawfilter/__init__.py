"""Approximate raw filtering of JSON byte streams.

Compiles string/number-range filter queries into byte-stream matchers that
never reject a truly matching record, annotates streams with just enough
structure (string mask, nesting, scopes) to combine primitives in context,
and explores configuration trade-offs between false-positive rate and a
proxy resource cost.
"""

from .batch import CorpusIndex, build_scan_index, evaluate_config_batch
from .errors import CapExceededError, ConfigError, FalseNegativeError, QueryError
from .explorer import (
    CostModel,
    EvalReport,
    ExplorerOptions,
    enumerate_configs,
    evaluate_config,
    explore,
    pareto_front,
)
from .filter import (
    FilterConfig,
    Mode,
    PredicateConfig,
    RawFilterExpr,
    accepts,
    compile_filter,
    filter_record,
    parse_config,
    reset_filter,
    serialize_config,
)
from .oracle import eval_exact, label_dataset, parse_json
from .query import parse_query
from .ranges import NumericBound, RangeDfa, derive_range_dfa
from .scanner import RecordSpan, ScanEvent, ScannerState, scan_byte, segment_records
from .strings import ExactMatcher, SubstringBlockMatcher, build_substring_set

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "ConfigError",
    "CorpusIndex",
    "CostModel",
    "EvalReport",
    "ExactMatcher",
    "ExplorerOptions",
    "FalseNegativeError",
    "FilterConfig",
    "Mode",
    "NumericBound",
    "PredicateConfig",
    "QueryError",
    "RangeDfa",
    "RawFilterExpr",
    "RecordSpan",
    "ScanEvent",
    "ScannerState",
    "SubstringBlockMatcher",
    "accepts",
    "build_scan_index",
    "build_substring_set",
    "compile_filter",
    "derive_range_dfa",
    "enumerate_configs",
    "eval_exact",
    "evaluate_config",
    "evaluate_config_batch",
    "explore",
    "filter_record",
    "label_dataset",
    "pareto_front",
    "parse_config",
    "parse_json",
    "parse_query",
    "reset_filter",
    "scan_byte",
    "segment_records",
    "serialize_config",
]
