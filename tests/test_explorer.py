import csv
import hashlib
import importlib.util
import io
import itertools
import math
import random
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from rawfilter import explorer
from rawfilter.batch import CorpusIndex, evaluate_config_batch
from rawfilter.datagen import GenSpec, AttrSpec, generate_dataset, query_for_spec
from rawfilter.errors import CapExceededError, ConfigError, FalseNegativeError
from rawfilter.explorer import (
    CostModel,
    DEFAULT_COST_MODEL,
    EvalReport,
    ExplorerOptions,
    config_cost,
    config_notation,
    enumerate_configs,
    evaluate_all,
    evaluate_config,
    explore,
    pareto_front,
    reports_to_csv,
    string_cost,
)
from rawfilter.filter import (
    FilterConfig,
    Mode,
    PredicateConfig,
    accepts,
    compile_filter,
    validate_config,
)
from rawfilter.oracle import label_dataset
from rawfilter.query import parse_query

from decimal import Decimal

from conftest import ALL_MODES, fuzz_records, query_asts


def make_report(fpr, cost, name, i=0):
    fp = round(fpr * 1000)
    return EvalReport(None, name, 0, fp, 1000 - fp, 0, cost, 0.0, i)


class TestEnumeration:
    def test_two_predicates_single_block(self):
        ast = parse_query('(1 <= "aa" <= 2) AND (3 <= "bb" <= 4)')
        configs = enumerate_configs(ast, ExplorerOptions(blocks=(1,)))
        assert len(configs) == 15
        assert len({c for c in configs}) == 15

    def test_single_predicate_default_blocks(self):
        ast = parse_query('(1 <= "abc" <= 2)')
        assert len(enumerate_configs(ast)) == 7

    def test_five_predicates_three_blocks(self):
        names = ["attra", "attrb", "attrc", "attrd", "attre"]
        ast = parse_query(" AND ".join(f'(1 <= "{n}" <= 9) ' for n in names))
        assert len(enumerate_configs(ast)) == 32767

    def test_short_attribute_deduplicates_blocks(self):
        # for a 2-byte attribute, B=2 and B=N coincide
        ast = parse_query('(1 <= "ab" <= 2)')
        configs = enumerate_configs(ast)
        assert len(configs) == 1 + 2 * 2  # VALUE_ONLY + {FLAT,SCOPED} x {1,2}
        # for a 1-byte attribute, B=2 stands for N, and B=1, 2 and N coincide
        ast = parse_query('(1 <= "a" <= 2)')
        configs = enumerate_configs(ast)
        assert len(configs) == 1 + 2 * 1  # VALUE_ONLY + {FLAT,SCOPED} x {1}
        assert {pc.block for c in configs for pc in c.predicates} == {None, 1}
        # validation stays strict: only enumeration maps a long block to N
        with pytest.raises(ConfigError, match="block length 2 out of range for N=1"):
            validate_config(ast, FilterConfig((PredicateConfig(Mode.FLAT, 2),)))

    def test_or_query_excludes_omit(self):
        ast = parse_query('(1 <= "aa" <= 2) OR (3 <= "bb" <= 4)')
        configs = enumerate_configs(ast, ExplorerOptions(blocks=(1,)))
        assert len(configs) == 9  # 3 options per predicate, no OMIT
        assert all(pc.mode is not Mode.OMIT for c in configs for pc in c.predicates)

    def test_cap_enforced(self):
        names = ["attra", "attrb", "attrc", "attrd", "attre"]
        ast = parse_query(" AND ".join(f'(1 <= "{n}" <= 9) ' for n in names))
        with pytest.raises(CapExceededError):
            enumerate_configs(ast, ExplorerOptions(cap=100))

    def test_deterministic_order(self):
        ast = parse_query('(1 <= "aa" <= 2) AND (3 <= "bb" <= 4)')
        assert enumerate_configs(ast) == enumerate_configs(ast)


class TestCost:
    def test_gram_cost_example(self):
        # 7 distinct single-byte grams plus a 4-bit run counter
        assert string_cost("temperature", 1) == 11

    def test_scoped_minus_flat_is_one_combinator(self):
        ast = parse_query('(0.7 <= "temperature" <= 35.1)')
        scoped = config_cost(ast, FilterConfig((PredicateConfig(Mode.SCOPED, 1),)))
        flat = config_cost(ast, FilterConfig((PredicateConfig(Mode.FLAT, 1),)))
        assert scoped - flat == DEFAULT_COST_MODEL.combinator

    def test_full_compare_costs_eight_bits_per_byte(self):
        assert string_cost("temperature", "N") == 8 * 11

    def test_block_growth_is_strictly_monotone(self):
        rng = random.Random(13)
        alphabet = "abcdefghijklmnop_"
        for _ in range(300):
            n = rng.randint(3, 16)
            pattern = "".join(rng.choice(alphabet) for _ in range(n))
            if len(set(pattern)) < 2:
                continue
            assert string_cost(pattern, 1) < string_cost(pattern, 2) < string_cost(pattern, "N")

    def test_adding_a_predicate_strictly_increases_cost(self):
        ast = parse_query('(1 <= "aab" <= 2) AND (3 <= "bbc" <= 4)')
        smaller = FilterConfig((PredicateConfig(Mode.SCOPED, 1), PredicateConfig(Mode.OMIT)))
        larger = FilterConfig((PredicateConfig(Mode.SCOPED, 1), PredicateConfig(Mode.VALUE_ONLY)))
        assert config_cost(ast, larger) > config_cost(ast, smaller)

    def test_weights_load_from_file(self, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("gram_bits 2\ncombinator = 5\n# comment\n")
        model = CostModel.from_file(path)
        assert model.gram_bits == 2 and model.combinator == 5 and model.dfa_cell == 1


class TestPareto:
    def test_dominance_by_inspection(self):
        reports = [
            make_report(0.5, 100, "a", 0),
            make_report(0.4, 120, "b", 1),
            make_report(0.6, 90, "c", 2),
            make_report(0.4, 110, "d", 3),
        ]
        front = pareto_front(reports)
        assert [(r.fpr, r.cost) for r in front] == [(0.6, 90), (0.5, 100), (0.4, 110)]

    def test_single_report_is_its_own_front(self):
        report = make_report(0.5, 10, "only")
        assert pareto_front([report]) == [report]

    def test_exact_ties_keep_lexicographically_smallest(self):
        reports = [make_report(0.5, 100, "zeta"), make_report(0.5, 100, "alpha")]
        front = pareto_front(reports)
        assert [r.notation for r in front] == ["alpha"]

    def test_empty_reports_rejected(self):
        with pytest.raises(ValueError):
            pareto_front([])

    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 20), st.integers(0, 5)),
            min_size=1,
            max_size=40,
        )
    )
    def test_front_matches_quadratic_oracle(self, points):
        reports = [
            make_report(fpr / 20.0, cost, f"cfg{tag}", i)
            for i, (fpr, cost, tag) in enumerate(points)
        ]
        got = pareto_front(reports)
        best = {}
        for r in reports:
            key = (r.fpr, r.cost)
            if key not in best or r.notation < best[key].notation:
                best[key] = r
        cands = list(best.values())
        expected = [
            a
            for a in cands
            if not any(
                b.fpr <= a.fpr and b.cost <= a.cost and (b.fpr < a.fpr or b.cost < a.cost)
                for b in cands
            )
        ]
        expected.sort(key=lambda r: (-r.fpr, r.cost))
        assert [(r.fpr, r.cost, r.notation) for r in got] == [
            (r.fpr, r.cost, r.notation) for r in expected
        ]


def toy_corpus():
    # one match, three non-matches of which exactly one passes the filter
    records = [
        b'{"v":"12","n":"temperature"}',            # true match
        b'{"v":"99","n":"temperature","seq":12}',   # string + unrelated in-range 12
        b'{"v":"999","n":"humidity"}',              # nothing interesting
        b'{"v":"888","n":"pressure"}',              # nothing interesting
    ]
    return b"\n".join(records) + b"\n"


class TestEvaluate:
    AST = parse_query('(0.7 <= "temperature" <= 35.1)')

    def test_toy_confusion_matrix(self):
        corpus = CorpusIndex(toy_corpus())
        cfg = FilterConfig((PredicateConfig(Mode.FLAT, 1),))
        report = evaluate_config(self.AST, cfg, corpus)
        assert (report.tp, report.fp, report.tn, report.fn) == (1, 1, 2, 0)
        assert report.fpr == pytest.approx(1 / 3)

    def test_all_accepting_filter_has_fpr_one(self):
        corpus = CorpusIndex(toy_corpus())
        cfg = FilterConfig((PredicateConfig(Mode.VALUE_ONLY),))
        ast = parse_query('(0 <= "temperature" <= 999)')
        report = evaluate_config(ast, cfg, corpus)
        assert report.fpr == 1.0 and report.fn == 0

    def test_false_negative_aborts(self):
        # key-value composition is unsound for SenML measurement objects:
        # the name string and the value sit in different comma segments
        record = b'{"e":[{"v":"12","u":"per","n":"temperature"}]}'
        corpus = CorpusIndex(record)
        cfg = FilterConfig((PredicateConfig(Mode.KEYVALUE, 1),))
        with pytest.raises(FalseNegativeError):
            evaluate_config(self.AST, cfg, corpus)

    def test_zero_fpr_when_negatives_cannot_combine_in_scope(self):
        # negatives carry the attribute name with an out-of-range value and
        # in-range values only under other names
        rng = random.Random(3)
        records = []
        for i in range(200):
            if i % 4 == 0:
                records.append(b'{"e":[{"v":"12","u":"x","n":"temperature"}]}')
            else:
                records.append(b'{"e":[{"v":"99","u":"x","n":"temperature"},{"v":"12","u":"x","n":"other"}]}')
        corpus = CorpusIndex(b"\n".join(records) + b"\n")
        scoped = evaluate_config(self.AST, FilterConfig((PredicateConfig(Mode.SCOPED, 1),)), corpus)
        flat = evaluate_config(self.AST, FilterConfig((PredicateConfig(Mode.FLAT, 1),)), corpus)
        assert scoped.fpr == 0.0
        assert flat.fpr == 1.0


def synthetic_spec(records=1500, seed=21):
    return GenSpec(
        "senml",
        records,
        (
            AttrSpec("temperature", "decimal", Decimal(-10), Decimal(50), Decimal("0.7"), Decimal("35.1"), 0.6),
            AttrSpec("humidity", "int", Decimal(0), Decimal(120), Decimal(20), Decimal(69), 0.7),
        ),
        seed,
    )


def test_zero_false_negatives_on_nested_fuzz():
    # matches planted at random depths, in both the measurement-object and
    # plain-key spellings, among arbitrary JSON clutter
    import json

    rng = random.Random(77)
    records = []
    for _ in range(2000):
        clutter = {
            "pad": [rng.randint(0, 10**6), "temperatur", {"deep": [str(rng.uniform(0, 999))[:6]]}],
            "bt": rng.randint(10**12, 2 * 10**12),
        }
        roll = rng.random()
        value = round(rng.uniform(-20, 80), 1)
        if roll < 0.35:
            clutter["e"] = [{"v": str(value), "u": "far", "n": "temperature"}]
        elif roll < 0.7:
            clutter["wrap"] = {"inner": [{"temperature": value}]}
        records.append(json.dumps(clutter).encode())
    corpus = CorpusIndex(b"\n".join(records) + b"\n")
    ast = parse_query('(0.7 <= "temperature" <= 35.1)')
    labels = label_dataset(ast, corpus.records())
    assert 0 < labels.matches < len(records)
    configs = enumerate_configs(ast)
    reports = evaluate_all(ast, configs, corpus, labels)
    assert len(reports) == 7 and all(r.fn == 0 for r in reports)


class TestExplore:
    def test_front_is_subset_and_orderings_hold(self):
        spec = synthetic_spec()
        corpus_bytes, _ = generate_dataset(spec)
        ast = parse_query(query_for_spec(spec))
        reports, front = explore(ast, corpus_bytes, ExplorerOptions(blocks=(1,)))
        assert len(reports) == 15
        assert all(r.fn == 0 for r in reports)
        ids = {r.config_id for r in reports}
        assert all(f.config_id in ids for f in front)
        fprs = [f.fpr for f in front]
        costs = [f.cost for f in front]
        assert fprs == sorted(fprs, reverse=True)
        assert costs == sorted(costs)
        assert all(fprs[i] > fprs[i + 1] for i in range(len(fprs) - 1))

    def test_scoped_refines_flat_refines_value_only(self):
        spec = synthetic_spec(records=2000, seed=5)
        corpus_bytes, _ = generate_dataset(spec)
        ast = parse_query(query_for_spec(spec))
        corpus = CorpusIndex(corpus_bytes)
        labels = label_dataset(ast, corpus.records())

        def fpr_of(mode):
            block = None if mode is Mode.VALUE_ONLY else 1
            cfg = FilterConfig((PredicateConfig(mode, block), PredicateConfig(mode, block)))
            return evaluate_config(ast, cfg, corpus, labels).fpr

        assert fpr_of(Mode.SCOPED) <= fpr_of(Mode.FLAT) <= fpr_of(Mode.VALUE_ONLY)

    def test_adding_a_predicate_never_increases_fpr(self):
        spec = synthetic_spec(records=2000, seed=8)
        corpus_bytes, _ = generate_dataset(spec)
        ast = parse_query(query_for_spec(spec))
        corpus = CorpusIndex(corpus_bytes)
        labels = label_dataset(ast, corpus.records())
        one = FilterConfig((PredicateConfig(Mode.SCOPED, 1), PredicateConfig(Mode.OMIT)))
        both = FilterConfig((PredicateConfig(Mode.SCOPED, 1), PredicateConfig(Mode.SCOPED, 1)))
        first = evaluate_config(ast, one, corpus, labels)
        second = evaluate_config(ast, both, corpus, labels)
        assert second.fpr <= first.fpr
        assert second.cost > first.cost

    def test_sampling_mode_is_seeded_and_deterministic(self):
        spec = synthetic_spec(records=2000, seed=9)
        corpus_bytes, _ = generate_dataset(spec)
        ast = parse_query(query_for_spec(spec))
        options = ExplorerOptions(blocks=(1,), sample=300, seed=17)
        reports_a, _ = explore(ast, corpus_bytes, options)
        reports_b, _ = explore(ast, corpus_bytes, options)
        assert reports_to_csv(reports_a) == reports_to_csv(reports_b)
        assert all(r.total == 300 for r in reports_a)
        assert all(r.fn == 0 for r in reports_a)
        other, _ = explore(ast, corpus_bytes, ExplorerOptions(blocks=(1,), sample=300, seed=18))
        assert reports_to_csv(other) != reports_to_csv(reports_a)

    def test_csv_shape_and_determinism(self):
        spec = synthetic_spec(records=300, seed=6)
        corpus_bytes, _ = generate_dataset(spec)
        ast = parse_query(query_for_spec(spec))
        reports, front = explore(ast, corpus_bytes, ExplorerOptions(blocks=(1,)))
        text = reports_to_csv(reports)
        lines = text.splitlines()
        assert lines[0] == "config_id,config,fpr,fp,tn,tp,fn,cost,wall_ms"
        assert len(lines) == 16
        again, _ = explore(ast, corpus_bytes, ExplorerOptions(blocks=(1,)))
        assert reports_to_csv(again) == text


def csv_writer_rendering(reports, include_timings=False):
    """The report CSV as `csv.writer` writes it."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(explorer.CSV_HEADER)
    for r in reports:
        wall_ms = round(r.wall_time * 1000.0, 3) if include_timings else 0
        writer.writerow(
            [r.config_id, r.notation, f"{r.fpr:.6f}", r.fp, r.tn, r.tp, r.fn, f"{r.cost:g}", wall_ms]
        )
    return out.getvalue()


@pytest.mark.parametrize("include_timings", [False, True])
def test_csv_quotes_and_numbers_match_csv_writer(include_timings):
    # Attributes holding a delimiter, a line feed or a carriage return, over
    # records without them, so no configuration meets a true match.
    ast = parse_query('(0 <= "a,b" <= 9) AND (1 <= "c\nd" <= 5) OR (2.5 <= "e\rf\r\n" <= 7)')
    reports, front = explore(ast, fuzz_records(2, 20), ExplorerOptions(modes=tuple(Mode), blocks=(1, "N")))
    for rows in (reports, front):
        assert reports_to_csv(rows, include_timings) == csv_writer_rendering(rows, include_timings)
    # VALUE_ONLY-only notations name no attribute and are written unquoted.
    text = reports_to_csv(reports, include_timings)
    value_only = [r for r in reports if all(pc.mode is Mode.VALUE_ONLY for pc in r.config.predicates)]
    assert value_only and all(f"\n{r.config_id},{r.notation},{r.fpr:.6f}," in text for r in value_only)
    made = [
        EvalReport(None, notation, 3, fp, tn, 0, cost, wall, i)
        for i, (notation, fp, tn, cost, wall) in enumerate([
            ("plain", 0, 0, 1e20, 0.0),
            ("", 1, 2, 0.5, 1e-9),
            ('q"uote', 7, 0, 123456789.0, 0.0012345),
            ("a,b", 0, 5, 3, 12.3456789),
            ("l\nf", 2, 2, 1e-7, 2.5e-4),
            ("c\rr", 1, 1, 4, 1.0),
            ("\r\n", 0, 1, 0, 7e-5),
        ])
    ]
    assert reports_to_csv(made, include_timings) == csv_writer_rendering(made, include_timings)


def test_explore_csv_digests_are_pinned():
    # Any change to a byte of the report or front CSV shows here.
    spec = synthetic_spec(records=300, seed=6)
    corpus_bytes, _ = generate_dataset(spec)
    ast = parse_query(query_for_spec(spec))
    reports, front = explore(ast, corpus_bytes, ExplorerOptions(blocks=(1, 2, "N")))
    assert (len(reports), len(front)) == (63, 5)
    digests = [hashlib.sha256(reports_to_csv(r).encode()).hexdigest() for r in (reports, front)]
    assert digests == [
        "7c37d48daa0b88734304decf627f1ead51b08bb340644053a4b69588082194a9",
        "9f18d423f9237bfa639432aa27990f9b8c627939c6fa89d5e856c33298a3233d",
    ]


def test_five_predicate_sweep_digests_are_pinned():
    # The 32767-config sweep of scripts/explore_synthetic.py, on 300 records.
    path = Path(__file__).resolve().parents[1] / "scripts" / "explore_synthetic.py"
    module_spec = importlib.util.spec_from_file_location("explore_synthetic", path)
    script = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(script)
    spec = script.build_spec(300, 11)
    corpus_bytes, _ = generate_dataset(spec)
    reports, front = explore(parse_query(query_for_spec(spec)), corpus_bytes, ExplorerOptions())
    assert (len(reports), len(front)) == (32767, 13)
    digests = [hashlib.sha256(reports_to_csv(r).encode()).hexdigest() for r in (reports, front)]
    assert digests == [
        "7a5a9626773c15627898253cca4d43fcdd399d816c64033ebb043b928e43d473",
        "cb95e91d4baa0f431b04acda0177cf22881f24ae6292c5309afcbc31b6a3aa87",
    ]


class TestGroupedEvaluation:
    AST = parse_query('(0.7 <= "temperature" <= 35.1) AND (20 <= "humidity" <= 69)')
    VALID = [
        FilterConfig((PredicateConfig(Mode.SCOPED, 1), PredicateConfig(Mode.FLAT, 2))),
        FilterConfig((PredicateConfig(Mode.VALUE_ONLY), PredicateConfig(Mode.OMIT))),
    ]
    # KEYVALUE drops SenML true matches: name and value sit in different segments.
    UNSOUND = FilterConfig((PredicateConfig(Mode.KEYVALUE, 1), PredicateConfig(Mode.OMIT)))
    UNSOUND_RAISES = (
        FalseNegativeError,
        'record 1 matches the query but was filtered out by { s1("temperature") &kv v(0.7<=f<=35.1) }',
    )
    # Each invalid config with the ConfigError text `validate_config` raises on it.
    INVALID = [
        (  # nothing kept
            FilterConfig((PredicateConfig(Mode.OMIT), PredicateConfig(Mode.OMIT))),
            "an AND clause must keep at least one predicate",
        ),
        (  # B > N
            FilterConfig((PredicateConfig(Mode.FLAT, 99), PredicateConfig(Mode.OMIT))),
            "block length 99 out of range for N=11",
        ),
        (  # one entry for two predicates
            FilterConfig((PredicateConfig(Mode.FLAT, 1),)),
            "config has 1 predicate entries, query has 2",
        ),
    ]

    def corpus(self):
        corpus = CorpusIndex(generate_dataset(synthetic_spec(records=300, seed=4))[0])
        return corpus, label_dataset(self.AST, corpus.records())

    def raised(self, call):
        with pytest.raises((ConfigError, FalseNegativeError)) as info:
            call()
        return type(info.value), str(info.value)

    @pytest.mark.parametrize("invalid", INVALID)
    @pytest.mark.parametrize("unsound_first", [True, False])
    def test_first_failing_config_in_list_order_raises(self, invalid, unsound_first):
        invalid, message = invalid
        tail = [self.UNSOUND, invalid] if unsound_first else [invalid, self.UNSOUND]
        expected = self.UNSOUND_RAISES if unsound_first else (ConfigError, message)
        corpus, labels = self.corpus()
        configs = self.VALID + tail + self.VALID
        assert self.raised(lambda: evaluate_config(self.AST, tail[0], corpus, labels)) == expected
        assert self.raised(lambda: evaluate_all(self.AST, configs, corpus, labels)) == expected

    def test_slices_of_one_config_give_the_unsliced_reports(self, monkeypatch):
        corpus, labels = self.corpus()
        configs = enumerate_configs(self.AST)

        def outcomes():
            start = time.perf_counter()
            reports = evaluate_all(self.AST, configs, corpus, labels)
            # Each report gets its slice's time over the slice's config count.
            assert 0 < sum(r.wall_time for r in reports) <= time.perf_counter() - start
            return [(r.config, r.notation, r.tp, r.fp, r.tn, r.fn, r.cost, r.config_id) for r in reports]

        unsliced = outcomes()
        monkeypatch.setattr(explorer, "_SLICE_BYTES", 1)
        assert outcomes() == unsliced
        assert len(unsliced) == 63


def _outcome(ast, cfg, corpus, labels):
    try:
        r = evaluate_config(ast, cfg, corpus, labels)
    except FalseNegativeError as exc:  # KEYVALUE on SenML layouts
        return str(exc)
    return (r.notation, r.tp, r.fp, r.tn, r.fn, r.cost)


@settings(max_examples=10)
@given(ast=query_asts(), seed=st.integers(0, 2**32 - 1))
def test_shared_corpus_cache_matches_a_fresh_corpus_per_config(ast, seed):
    data = fuzz_records(seed, 30)
    shared = CorpusIndex(data)
    labels = label_dataset(ast, shared.records())
    configs = enumerate_configs(ast, ALL_MODES)
    fresh = [_outcome(ast, cfg, CorpusIndex(data, shared.index), labels) for cfg in configs]
    sound = [i for i, out in enumerate(fresh) if isinstance(out, tuple)]
    reports = evaluate_all(ast, [configs[i] for i in sound], shared, labels)
    got = [(r.notation, r.tp, r.fp, r.tn, r.fn, r.cost) for r in reports]
    assert got == [fresh[i] for i in sound]
    unsound = [i for i in range(len(configs)) if i not in sound]
    got = [_outcome(ast, configs[i], shared, labels) for i in unsound]
    assert got == [fresh[i] for i in unsound]


@settings(max_examples=25)
@given(ast=query_asts())
def test_enumeration_equals_validating_every_combination(ast):
    per_leaf = []
    for leaf in ast.leaves():
        blocks = sorted({len(leaf.attr.encode()) if b == "N" else b for b in ALL_MODES.blocks})
        per_leaf.append(
            [PredicateConfig(m) for m in (Mode.OMIT, Mode.VALUE_ONLY)]
            + [PredicateConfig(m, b) for m in (Mode.FLAT, Mode.SCOPED, Mode.KEYVALUE) for b in blocks]
        )
    expected = []
    for combo in itertools.product(*per_leaf):
        try:
            validate_config(ast, FilterConfig(combo))
        except ConfigError:
            continue
        expected.append(FilterConfig(combo))
    assert enumerate_configs(ast, ALL_MODES) == expected


def own_attribute_records(ast, seed: int) -> bytes:
    """One SenML or flat record per inside/outside pattern of the query's
    leaves: each leaf's attribute takes a value inside its bound or outside
    it, so every AND/OR branch is true on some records and false on others."""
    rng = random.Random(seed)
    leaves = list(ast.leaves())
    records = []
    for pattern in range(2 ** len(leaves)):
        values = []
        for j, leaf in enumerate(leaves):
            lo, hi = leaf.bound.lower, leaf.bound.upper
            if pattern >> j & 1:
                value = lo + (hi - lo) * rng.randint(0, 4) / 4
            else:
                value = rng.choice((lo - rng.randint(1, 40), hi + rng.randint(1, 40)))
            values.append((leaf.attr, value))
        if rng.random() < 0.5:
            records.append("{" + ",".join(f'"{a}":{v}' for a, v in values) + "}")
        else:
            entries = ",".join(f'{{"v":"{v}","u":"per","n":"{a}"}}' for a, v in values)
            records.append(f'{{"e":[{entries}],"bt":1422748800000}}')
    return "\n".join(records).encode() + b"\n"


@settings(max_examples=5)
@given(ast=query_asts(), seed=st.integers(0, 2**32 - 1))
# A nested group before a later leaf, where a reference that short-circuits
# the group would skip its second child's leaves. Two-byte attributes have
# two block lengths, which keeps the configuration count small.
@example(ast=parse_query('((0 <= "xa" <= 30) OR (10 <= "yb" <= 90)) AND (20 <= "zc" <= 69)'), seed=0)
def test_every_valid_config_agrees_with_the_compiled_reference(ast, seed):
    # Every mode including OMIT, so omitted leaves sit under nested AND/OR.
    corpus = CorpusIndex(fuzz_records(seed, 2) + own_attribute_records(ast, seed))
    records = corpus.records()
    for cfg in enumerate_configs(ast, ALL_MODES):
        expr = compile_filter(ast, cfg)
        assert evaluate_config_batch(corpus, validate_config(ast, cfg)).tolist() == [
            accepts(expr, r) for r in records
        ], config_notation(ast, cfg)
        assert expr.notation() == config_notation(ast, cfg)
