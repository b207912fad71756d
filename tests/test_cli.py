import json
import io

import pytest

from rawfilter.cli import _run_stream, main, parse_descriptor, render_descriptor
from rawfilter.explorer import DEFAULT_COST_MODEL
from rawfilter.filter import parse_config
from rawfilter.query import parse_query

from conftest import LISTING_RECORD

Q0 = '(0.7 <= "temperature" <= 35.1)\n'
Q2 = '(0.7 <= "temperature" <= 35.1) AND (20 <= "humidity" <= 69)\n'

GEN_SPEC = """
layout senml
records 400
seed 7
attr temperature decimal -10 50 inrange 0.7 35.1 p 0.6
attr humidity int 0 120 inrange 20 69 p 0.7
"""


@pytest.fixture
def ws(tmp_path):
    (tmp_path / "q0.txt").write_text(Q0)
    (tmp_path / "q2.txt").write_text(Q2)
    (tmp_path / "scoped.cfg").write_text("temperature SCOPED 1\n")
    (tmp_path / "flat.cfg").write_text("temperature FLAT 1\n")
    (tmp_path / "omit.cfg").write_text("temperature OMIT -\n")
    (tmp_path / "gen.spec").write_text(GEN_SPEC)
    (tmp_path / "data.ndjson").write_bytes(
        LISTING_RECORD + b"\n" + LISTING_RECORD.replace(b'"35.2"', b'"30.0"') + b"\n"
    )
    return tmp_path


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestCompile:
    def test_descriptor_contents(self, ws, capsys):
        rc = run_cli("compile", "--query", ws / "q0.txt", "--config", ws / "scoped.cfg")
        out = capsys.readouterr().out
        assert rc == 0
        assert 'notation: { s1("temperature") & v(0.7<=f<=35.1) }' in out
        assert "grams=7" in out and "dfa_states=" in out and "cost:" in out

    def test_descriptor_round_trips(self, ws):
        text = render_descriptor(
            Q0.strip(), parse_query(Q0), parse_config("temperature SCOPED 1\n", parse_query(Q0)), DEFAULT_COST_MODEL
        )
        ast, cfg = parse_descriptor(text)
        assert ast == parse_query(Q0)
        assert cfg.predicates[0].mode.value == "SCOPED"

    def test_all_omit_exits_2(self, ws, capsys):
        rc = run_cli("compile", "--query", ws / "q0.txt", "--config", ws / "omit.cfg")
        assert rc == 2

    def test_bad_query_exits_2(self, ws, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("(1 <= nope <= 2)")
        assert run_cli("compile", "--query", bad, "--config", ws / "scoped.cfg") == 2

    def test_missing_file_exits_3(self, ws):
        assert run_cli("compile", "--query", ws / "nope.txt", "--config", ws / "scoped.cfg") == 3

    def test_range_past_the_state_table_exits_2(self, tmp_path, capsys):
        # 8192-digit literals need 32769 DFA states; the byte table is int16.
        d = 8192
        (tmp_path / "long.txt").write_text(f'({"1" * d} <= "x" <= {"2" * d}.{"3" * d})\n')
        (tmp_path / "long.cfg").write_text("x VALUE_ONLY -\n")
        assert run_cli("compile", "--query", tmp_path / "long.txt", "--config", tmp_path / "long.cfg") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "32767" in err

    def test_whitespace_inside_an_attribute_is_kept(self, tmp_path, capfdbinary):
        # Whitespace runs between tokens collapse; the attribute's own do not.
        (tmp_path / "q.txt").write_text('(1  <=\n\t"a  b" <= 5)\n')
        (tmp_path / "q.cfg").write_text('"a  b" FLAT N\n')
        (tmp_path / "d.ndjson").write_bytes(b'{"a  b":3}\n{"a b":3}\n')
        desc = tmp_path / "q.desc"
        query = ("--query", tmp_path / "q.txt", "--config", tmp_path / "q.cfg")
        assert run_cli("compile", *query, "--out", desc) == 0
        assert 'query: (1 <= "a  b" <= 5)\n' in desc.read_text()
        assert run_cli("run", "--filter", desc, "--dataset", tmp_path / "d.ndjson") == 0
        assert capfdbinary.readouterr().out == b'{"a  b":3}\n'
        assert run_cli("eval", *query, "--dataset", tmp_path / "d.ndjson") == 0
        payload = json.loads(capfdbinary.readouterr().out)
        assert (payload["tp"], payload["fn"], payload["tn"]) == (1, 0, 1)
        rc = run_cli("explore", "--query", tmp_path / "q.txt", "--dataset", tmp_path / "d.ndjson",
                     "--out", tmp_path / "r.csv")
        assert rc == 0 and 'a  b' in (tmp_path / "r.csv").read_text()
        # A line break inside an attribute does not fit the descriptor's query line.
        (tmp_path / "q.txt").write_text('(1 <= "a\nb" <= 5)\n')
        (tmp_path / "q.cfg").write_text('"a\\nb" VALUE_ONLY -\n')
        assert run_cli("compile", *query, "--out", desc) == 2
        assert run_cli("eval", *query, "--dataset", tmp_path / "d.ndjson") == 0


class TestRun:
    def make_descriptor(self, ws, config_name):
        out = ws / f"{config_name}.desc"
        assert run_cli(
            "compile", "--query", ws / "q0.txt", "--config", ws / f"{config_name}.cfg", "--out", out
        ) == 0
        return out

    def test_flat_emits_false_positive_scoped_does_not(self, ws, capfdbinary):
        flat = self.make_descriptor(ws, "flat")
        scoped = self.make_descriptor(ws, "scoped")
        assert run_cli("run", "--filter", flat, "--dataset", ws / "data.ndjson") == 0
        flat_out = capfdbinary.readouterr()
        assert flat_out.out.count(b"\n") == 2  # both records pass the flat filter

        assert run_cli("run", "--filter", scoped, "--dataset", ws / "data.ndjson") == 0
        scoped_out = capfdbinary.readouterr()
        assert scoped_out.out == LISTING_RECORD.replace(b'"35.2"', b'"30.0"') + b"\n"
        stats = json.loads(scoped_out.err.splitlines()[-1])
        assert stats["records_in"] == 2 and stats["records_out"] == 1
        assert stats["accept_ratio"] == 0.5
        assert any(key.startswith("s1(") for key in stats["fires"])

    def test_run_stats_schema_is_pinned(self, ws, tmp_path, capfdbinary):
        (tmp_path / "empty.ndjson").write_bytes(b"")
        scoped = self.make_descriptor(ws, "scoped")
        # Every primitive of the plan has a fires key, read or not.
        fires = ['s1("temperature")', "v(0.7<=f<=35.1)"]
        for dataset, chunks, largest in ((ws / "data.ndjson", 1, len(LISTING_RECORD)), (tmp_path / "empty.ndjson", 0, 0)):
            assert run_cli("run", "--filter", scoped, "--dataset", dataset) == 0
            stats = json.loads(capfdbinary.readouterr().err.splitlines()[-1])
            assert sorted(stats) == [
                "accept_ratio", "bytes_in", "chunks", "fires", "largest_record_bytes", "malformed",
                "records_in", "records_out", "rescanned_bytes", "throughput_mb_s", "wall_s",
            ]
            assert (stats["chunks"], stats["largest_record_bytes"]) == (chunks, largest)
            assert sorted(stats["fires"]) == fires
            assert stats["rescanned_bytes"] == 0  # one block, indexed once

    def test_accepted_records_byte_identical(self, ws, capfdbinary):
        scoped = self.make_descriptor(ws, "scoped")
        run_cli("run", "--filter", scoped, "--dataset", ws / "data.ndjson")
        out = capfdbinary.readouterr().out
        assert out.rstrip(b"\n") in (LISTING_RECORD.replace(b'"35.2"', b'"30.0"'))

    def test_empty_input(self, ws, tmp_path, capfdbinary):
        empty = tmp_path / "empty.ndjson"
        empty.write_bytes(b"")
        scoped = self.make_descriptor(ws, "scoped")
        assert run_cli("run", "--filter", scoped, "--dataset", empty) == 0
        captured = capfdbinary.readouterr()
        assert captured.out == b""
        stats = json.loads(captured.err.splitlines()[-1])
        assert stats["records_in"] == stats["records_out"] == 0

    def test_always_true_filter_is_per_record_pass_through(self, ws, tmp_path, capfdbinary):
        # every generated record carries a timestamp, so a wide value-only
        # range accepts everything and the output re-emits records verbatim
        assert run_cli("gen", "--spec", ws / "gen.spec", "--out", tmp_path / "c.ndjson") == 0
        (tmp_path / "wide.txt").write_text('(0 <= "anything" <= 99999999999999)\n')
        (tmp_path / "wide.cfg").write_text("anything VALUE_ONLY -\n")
        desc = tmp_path / "wide.desc"
        assert run_cli("compile", "--query", tmp_path / "wide.txt", "--config", tmp_path / "wide.cfg", "--out", desc) == 0
        capfdbinary.readouterr()
        assert run_cli("run", "--filter", desc, "--dataset", tmp_path / "c.ndjson") == 0
        captured = capfdbinary.readouterr()
        assert captured.out == (tmp_path / "c.ndjson").read_bytes()
        stats = json.loads(captured.err.splitlines()[-1])
        assert stats["records_in"] == stats["records_out"] == 400

    def test_run_stream_accepts_only_one_worker(self, ws):
        ast, cfg = parse_descriptor(self.make_descriptor(ws, "scoped").read_text())
        with pytest.raises(ValueError):
            _run_stream(ast, cfg, io.BytesIO(LISTING_RECORD + b"\n"), io.BytesIO(), workers=2)


class TestEval:
    def test_toy_fpr(self, ws, tmp_path, capsys):
        corpus = tmp_path / "toy.ndjson"
        corpus.write_bytes(
            b'{"v":"12","n":"temperature"}\n'
            b'{"v":"99","n":"temperature","seq":12}\n'
            b'{"v":"999","n":"humidity"}\n'
            b'{"v":"888","n":"pressure"}\n'
        )
        rc = run_cli("eval", "--query", ws / "q0.txt", "--config", ws / "flat.cfg", "--dataset", corpus)
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fpr"] == pytest.approx(1 / 3, abs=1e-6)
        assert payload["fn"] == 0 and payload["tp"] == 1
        assert payload["selectivity"] == 0.25

    def test_false_negative_exits_4(self, ws, tmp_path, capsys):
        # KEYVALUE on SenML splits name and value across comma segments
        (tmp_path / "kv.cfg").write_text("temperature KEYVALUE 1\n")
        corpus = tmp_path / "senml.ndjson"
        corpus.write_bytes(b'{"e":[{"v":"12","u":"per","n":"temperature"}]}\n')
        rc = run_cli("eval", "--query", ws / "q0.txt", "--config", tmp_path / "kv.cfg", "--dataset", corpus)
        assert rc == 4
        assert capsys.readouterr().err == (
            "correctness failure: record 0 matches the query but was filtered out by "
            '{ s1("temperature") &kv v(0.7<=f<=35.1) }\n'
        )

    # Whole `eval` payloads but wall_s, per (dataset, config).
    NO_MATCH = dict(tp=0, fn=0, selectivity=0.0)
    EMPTY = dict(NO_MATCH, records=0, fp=0, tn=0, fpr=0.0, malformed=0, selectivity_undefined=True)
    MALFORMED = dict(NO_MATCH, records=4, fp=2, tn=2, fpr=0.5, malformed=4, selectivity_undefined=False)
    GENERATED = dict(records=400, tp=250, fn=0, selectivity=0.625, selectivity_undefined=False, malformed=0)
    SCOPED = dict(config='{ s1("temperature") & v(0.7<=f<=35.1) }', cost=104.0)
    FLAT = dict(config='( s1("temperature") & v(0.7<=f<=35.1) )', cost=103.0)

    @pytest.mark.parametrize(
        "dataset, cfg, expected",
        [
            ("empty", "scoped", {**EMPTY, **SCOPED}),
            ("empty", "flat", {**EMPTY, **FLAT}),
            ("malformed", "scoped", {**MALFORMED, **SCOPED}),
            ("malformed", "flat", {**MALFORMED, **FLAT}),
            ("generated", "scoped", {**GENERATED, **SCOPED, "fp": 0, "tn": 150, "fpr": 0.0}),
            ("generated", "flat", {**GENERATED, **FLAT, "fp": 50, "tn": 100, "fpr": 0.333333}),
        ],
    )
    def test_json_payload_is_pinned(self, ws, tmp_path, capsys, dataset, cfg, expected):
        path = tmp_path / f"{dataset}.ndjson"
        if dataset == "generated":
            assert run_cli("gen", "--spec", ws / "gen.spec", "--out", path) == 0
        else:
            path.write_bytes(
                b"" if dataset == "empty"
                # a trailing comma, two bad number/array bodies, an unclosed object
                else b'{"v":"12","n":"temperature",}\n{"v":1 2}\n[1,,2]\n{"n":"temperature","v":"9"\n'
            )
        capsys.readouterr()
        rc = run_cli("eval", "--query", ws / "q0.txt", "--config", ws / f"{cfg}.cfg", "--dataset", path)
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload.pop("wall_s"), float)
        assert payload == expected


class TestExplore:
    def test_csv_outputs(self, ws, tmp_path, capsys):
        corpus = tmp_path / "corpus.ndjson"
        assert run_cli("gen", "--spec", ws / "gen.spec", "--out", corpus) == 0
        rc = run_cli(
            "explore", "--query", ws / "q2.txt", "--dataset", corpus,
            "--out", tmp_path / "reports.csv", "--blocks", "1",
        )
        assert rc == 0
        reports = (tmp_path / "reports.csv").read_text().splitlines()
        assert reports[0] == "config_id,config,fpr,fp,tn,tp,fn,cost,wall_ms"
        assert len(reports) == 16
        pareto = (tmp_path / "reports_pareto.csv").read_text().splitlines()
        assert 2 <= len(pareto) <= len(reports)
        # identical reruns produce identical bytes
        rc = run_cli(
            "explore", "--query", ws / "q2.txt", "--dataset", corpus,
            "--out", tmp_path / "again.csv", "--blocks", "1",
        )
        assert (tmp_path / "again.csv").read_text() == (tmp_path / "reports.csv").read_text()

    def test_cap_exceeded_exits_5(self, ws, tmp_path, capsys):
        # Enumeration stops as soon as it passes the cap, so the error names
        # the cap, not the design space's 63 configurations.
        corpus = tmp_path / "corpus.ndjson"
        assert run_cli("gen", "--spec", ws / "gen.spec", "--out", corpus) == 0
        capsys.readouterr()
        for cap in (5, 0):
            rc = run_cli(
                "explore", "--query", ws / "q2.txt", "--dataset", corpus,
                "--out", tmp_path / "r.csv", "--cap", cap,
            )
            assert rc == 5
            assert capsys.readouterr().err == f"error: design space has more than {cap} configurations\n"
        assert not (tmp_path / "r.csv").exists()

    def test_one_byte_attribute_with_default_blocks(self, tmp_path, capsys):
        (tmp_path / "q.txt").write_text('(0 <= "v" <= 10)\n')
        (tmp_path / "d.ndjson").write_bytes(b'{"v":5}\n{"v":50}\n')
        rc = run_cli("explore", "--query", tmp_path / "q.txt", "--dataset", tmp_path / "d.ndjson",
                     "--out", tmp_path / "r.csv")
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["configs"] == 3  # VALUE_ONLY, FLAT 1, SCOPED 1

    def test_empty_attribute_takes_value_only(self, tmp_path, capsys):
        (tmp_path / "q.txt").write_text('(0 <= "" <= 10)\n')
        (tmp_path / "d.ndjson").write_bytes(b'{"":5}\n{"":50}\n')
        rc = run_cli("explore", "--query", tmp_path / "q.txt", "--dataset", tmp_path / "d.ndjson",
                     "--out", tmp_path / "r.csv")
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["configs"] == 1
        assert (tmp_path / "r.csv").read_text().splitlines()[1].startswith("0,v(0<=i<=10),")


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("explore", "--modes", "FLAT,BOGUS"),
        ("explore", "--blocks", "1,x"),
        ("explore", "--sample", "-1"),
        ("explore", "--cap", "-3"),
        ("bench", "--repetitions", "0"),
        ("explore", "--modes", "OMIT"),  # parses, but leaves no valid configuration
        ("compile", "--cost-weights", "nan.weights"),
        ("eval", "--cost-weights", "nan.weights"),
        ("explore", "--cost-weights", "nan.weights"),
    ],
)
def test_bad_option_value_exits_2(ws, capsys, command, option, value):
    query_config = ["--query", ws / "q0.txt", "--config", ws / "scoped.cfg"]
    if command == "explore":
        argv = ["explore", "--query", ws / "q0.txt", "--dataset", ws / "data.ndjson", "--out", ws / "r.csv"]
    elif command == "compile":
        argv = ["compile", *query_config, "--out", ws / "r.csv"]
    elif command == "eval":
        argv = ["eval", *query_config, "--dataset", ws / "data.ndjson", "--out", ws / "r.csv"]
    else:
        desc = ws / "f.desc"
        assert run_cli("compile", *query_config, "--out", desc) == 0
        argv = ["bench", "--filter", desc, "--dataset", ws / "data.ndjson"]
    if value == "OMIT":
        assert run_cli(*argv, option, value) == 2
        assert capsys.readouterr().err == "error: no valid configuration with modes OMIT\n"
    elif option == "--cost-weights":
        (ws / value).write_text("compare_bits 2\ngram_bits nan\n")
        assert run_cli(*argv, option, ws / value) == 2
        assert capsys.readouterr().err == "error: cost model line 2: weight 'gram_bits' must be finite\n"
    else:
        with pytest.raises(SystemExit) as exited:
            run_cli(*argv, option, value)
        assert exited.value.code == 2
        assert f"error: argument {option}:" in capsys.readouterr().err
    assert not (ws / "r.csv").exists()


class TestGen:
    def test_fixed_seed_reproduces_bytes(self, ws, tmp_path):
        a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        assert run_cli("gen", "--spec", ws / "gen.spec", "--out", a, "--seed", "3") == 0
        assert run_cli("gen", "--spec", ws / "gen.spec", "--out", b, "--seed", "3") == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.ndjson.labels").exists()

    def test_bad_spec_exits_2(self, tmp_path):
        spec = tmp_path / "bad.spec"
        spec.write_text("layout nothing\n")
        assert run_cli("gen", "--spec", spec, "--out", tmp_path / "x") == 2

    @pytest.mark.parametrize(
        "field, value",
        [(f, v) for f in (3, 4, 6, 7) for v in ("NaN", "sNaN", "Infinity", "-Infinity")]
        + [(None, "-1")],
    )
    def test_out_of_domain_spec_value_exits_2(self, tmp_path, capsys, field, value):
        # field indexes the words of the temperature attr line (its four
        # decimals); None puts the value in the records line instead.
        lines = GEN_SPEC.splitlines()
        lineno = 3 if field is None else 5
        words = lines[lineno - 1].split()
        words[1 if field is None else field] = value
        lines[lineno - 1] = " ".join(words)
        spec = tmp_path / "bad.spec"
        spec.write_text("\n".join(lines))
        assert run_cli("gen", "--spec", spec, "--out", tmp_path / "x") == 2
        assert capsys.readouterr().err.startswith(f"error: line {lineno}: ")
        assert not (tmp_path / "x").exists()


def test_bench_reports_throughput(ws, tmp_path, capsys):
    corpus = tmp_path / "bench.ndjson"
    assert run_cli("gen", "--spec", ws / "gen.spec", "--out", corpus) == 0
    desc = tmp_path / "f.desc"
    assert run_cli("compile", "--query", ws / "q0.txt", "--config", ws / "scoped.cfg", "--out", desc) == 0
    capsys.readouterr()
    rc = run_cli("bench", "--filter", desc, "--dataset", corpus, "--repetitions", "2", "--scale-check")
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["throughput_mb_s"] > 0
    assert payload["linear_scaling"] is None  # input below the 64 MiB floor
    assert "scaling_ratio" in payload
