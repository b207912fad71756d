"""Workload definitions and their seeded input builders.

Each workload is a query, a filter configuration (run workloads) or the
default explorer options (explore workloads), and a builder that turns a
seed into an input corpus plus exact per-record ground truth. Inputs are
cached on disk by (workload, seed, scale) so that generation never falls
inside a timed region and repeated runs on one seed reuse the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

import numpy as np

# The read size of `rawfilter run`; the hostile workload is built around it.
READ_BYTES = 1 << 22
MIB = 1 << 20

SCOPED_QUERY = '(0.7 <= "temperature" <= 35.1) AND (20 <= "humidity" <= 69)'
FLAT_QUERY = (
    '(0.7 <= "temperature" <= 35.1) AND (20 <= "humidity" <= 69) AND '
    '((0 <= "light" <= 5153) OR (83.36 <= "dust" <= 3322.67))'
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "run": cli._run_stream over a stream; "explore": explorer.explore
    why: str
    query: str | None  # None: derived from the generator spec
    config: str | None  # "attr MODE B" lines for run workloads


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "senml_scoped",
            "run",
            "16 MiB SenML, two SCOPED B=1 predicates: the baseline case, where the "
            "structural index and token geometry dominate and conjunction is small",
            SCOPED_QUERY,
            "temperature SCOPED 1\nhumidity SCOPED 1\n",
        ),
        Workload(
            "flat_keyvalue",
            "run",
            "13 MiB flat records, KEYVALUE N/KEYVALUE 2/FLAT 1/VALUE_ONLY under AND-OR: "
            "exact and 2-gram strings, 4 range DFAs and segment conjunction",
            FLAT_QUERY,
            "temperature KEYVALUE N\nhumidity KEYVALUE 2\nlight FLAT 1\ndust VALUE_ONLY -\n",
        ),
        Workload(
            "explore_sweep",
            "explore",
            "4095-config explore over 2000 SenML records: per-config conjunction, validate, "
            "cost and notation walks dominate; the index is a small share",
            None,
            None,
        ),
        Workload(
            "hostile_stream",
            "run",
            "8.6 MiB SenML: a first record over the read size (carry and rescan), a stray "
            "backslash in the last chunk (per-byte scanner) and \\u-escaped true matches",
            SCOPED_QUERY,
            "temperature SCOPED 1\nhumidity SCOPED 1\n",
        ),
    )
}


def _attrs(*names):
    from rawfilter.datagen import AttrSpec

    table = {
        "temperature": ("decimal", "-20", "60", "0.7", "35.1"),
        "humidity": ("int", "0", "150", "20", "69"),
        "light": ("int", "0", "30000", "0", "5153"),
        "dust": ("decimal", "0", "6000", "83.36", "3322.67"),
    }
    out = []
    for name, p in names:
        kind, lo, hi, rlo, rhi = table[name]
        out.append(AttrSpec(name, kind, Decimal(lo), Decimal(hi), Decimal(rlo), Decimal(rhi), p))
    return tuple(out)


# The corpus spec of scripts/bench_scaling.py.
_SCALING_ATTRS = (("temperature", 0.6), ("humidity", 0.7), ("light", 0.5))
# The first four attributes of scripts/explore_synthetic.py.
_SWEEP_ATTRS = (("temperature", 0.8), ("humidity", 0.8), ("light", 0.8), ("dust", 0.8))


def _mean_record_bytes(layout: str, attrs) -> float:
    """Mean record size, newline included, from a probe with a fixed seed."""
    from rawfilter.datagen import GenSpec, generate_dataset

    probe, _ = generate_dataset(GenSpec(layout, 2000, attrs, 0))
    return len(probe) / 2000


def _records_for(layout: str, attrs, target_bytes: float) -> int:
    """Record count whose corpus is about target_bytes, as bench_scaling sizes it.

    The count depends on the size only, not on the seed, so every seed of a
    workload attempts the same number of records.
    """
    return max(1, int(target_bytes / _mean_record_bytes(layout, attrs)))


def _sidecar_matches(sidecar: bytes) -> list[dict]:
    return [json.loads(line)["match"] for line in sidecar.splitlines()]


def _build_generated(layout, attr_names, seed, target_bytes, truth_of):
    from rawfilter.datagen import GenSpec, generate_dataset

    attrs = _attrs(*attr_names)
    n = _records_for(layout, attrs, target_bytes)
    corpus, sidecar = generate_dataset(GenSpec(layout, n, attrs, seed))
    truth = np.fromiter((truth_of(m) for m in _sidecar_matches(sidecar)), dtype=bool)
    return corpus, truth, np.zeros(len(truth), dtype=bool)


def build_senml_scoped(seed: int, scale: float):
    return _build_generated(
        "senml", _SCALING_ATTRS, seed, 16 * MIB * scale,
        lambda m: m["temperature"] and m["humidity"],
    )


def build_flat_keyvalue(seed: int, scale: float):
    return _build_generated(
        "flat", _SWEEP_ATTRS, seed, 13 * MIB * scale,
        lambda m: m["temperature"] and m["humidity"] and (m["light"] or m["dust"]),
    )


def _sweep_spec(seed: int, scale: float):
    from rawfilter.datagen import GenSpec

    return GenSpec("senml", max(20, int(2000 * scale)), _attrs(*_SWEEP_ATTRS), seed)


def build_explore_sweep(seed: int, scale: float):
    from rawfilter.datagen import generate_dataset

    corpus, sidecar = generate_dataset(_sweep_spec(seed, scale))
    truth = np.fromiter((all(m.values()) for m in _sidecar_matches(sidecar)), dtype=bool)
    return corpus, truth, np.zeros(len(truth), dtype=bool)


def _escaped_match(rng: random.Random, bt: int) -> bytes:
    """A true match whose "temperature" name is spelled with a \\u escape."""
    t = Decimal(rng.randint(70, 3510)) / 100
    h = rng.randint(20, 69)
    return (
        f'{{"e":[{{"v":"{t}","u":"far","n":"temp\\u0065rature"}},'
        f'{{"v":"{h}","u":"per","n":"humidity"}},'
        f'{{"v":"{rng.randint(0, 30000)}","u":"lux","n":"light"}}],"bt":{bt}}}'
    ).encode()


def build_hostile_stream(seed: int, scale: float):
    """Chunk carry, scanner fallback and the escape hole in one stream.

    The first record is just over the read size, so the first read ends
    inside it and is scanned again with the second. Ordinary records run
    past the second read; the short final chunk holds one record with a
    stray backslash outside any string, which sends that chunk to the
    per-byte scanner. Four true matches spell "temperature" with a \\u
    escape. Ground truth comes from the oracle.

    Record counts are fixed by the read size alone, so every seed yields
    the same number of records; the layout is checked after generation.
    """
    from rawfilter.datagen import GenSpec, generate_records
    from rawfilter.oracle import label_dataset
    from rawfilter.query import parse_query

    read = int(READ_BYTES * scale)
    attrs = _attrs(*_SCALING_ATTRS)

    def entries_of(record: bytes) -> bytes:
        """ENTRIES of a {"e":[ENTRIES],"bt":T} record."""
        return record[len(b'{"e":['): record.rindex(b'],"bt":')]

    probe = [r for r, _ in generate_records(GenSpec("senml", 2000, attrs, 0))]
    mean = sum(len(r) + 1 for r in probe) / len(probe)
    mean_entries = sum(len(entries_of(r)) + 1 for r in probe) / len(probe)
    rng = random.Random(seed)
    source = generate_records(GenSpec("senml", 10**9, attrs, seed))

    def take(n: int) -> list[bytes]:
        return [next(source)[0] for _ in range(n)]

    # The entries of many records merged into one record.
    merged = take(int((read + read // 32) / mean_entries))
    entries = [entries_of(r) for r in merged]
    big = b'{"e":[' + b",".join(entries) + merged[-1][merged[-1].rindex(b'],"bt":'):]
    middle = take(int((read + read // 16) / mean))
    tail = take(int(0.45 * MIB * scale / mean))
    if not read < len(big) < 2 * read or len(big) + sum(len(r) + 1 for r in middle) <= 2 * read:
        raise AssertionError(f"seed {seed}: hostile_stream layout does not straddle the reads")
    stray = rng.randrange(len(tail))
    tail[stray] = tail[stray].replace(b',"bt":', b',\\ "bt":', 1)
    for k in rng.sample(range(len(middle)), 2):
        middle[k] = _escaped_match(rng, 1500000000000 + k)
    for k in rng.sample([i for i in range(len(tail)) if i != stray], 2):
        tail[k] = _escaped_match(rng, 1600000000000 + k)

    records = [big] + middle + tail
    labels = label_dataset(parse_query(SCOPED_QUERY), records)
    truth = np.fromiter((lab.exact_match for lab in labels.labels), dtype=bool)
    known = truth & np.fromiter((b"\\u" in r for r in records), dtype=bool)
    return b"\n".join(records) + b"\n", truth, known


BUILDERS = {
    "senml_scoped": build_senml_scoped,
    "flat_keyvalue": build_flat_keyvalue,
    "explore_sweep": build_explore_sweep,
    "hostile_stream": build_hostile_stream,
}


def _query_text(workload: Workload, seed: int, scale: float) -> str:
    if workload.query is not None:
        return workload.query
    from rawfilter.datagen import query_for_spec

    return query_for_spec(_sweep_spec(seed, scale))


@dataclass
class Inputs:
    """A built input on disk: corpus, truth, known-defect mask, descriptor."""

    dir: Path
    corpus: Path
    truth: np.ndarray  # true match per record
    known: np.ndarray  # true matches in a known, documented false-negative class
    meta: dict


def ensure_inputs(workload: Workload, seed: int, scale: float, cache: Path) -> Inputs:
    """Build the workload's input for this seed unless it is cached.

    The cache key includes the sources the input is made from, so a changed
    builder, generator or oracle never reuses stale bytes.
    """
    from rawfilter import datagen, oracle

    h = hashlib.sha256()
    for source in (Path(__file__), Path(datagen.__file__), Path(oracle.__file__)):
        h.update(source.read_bytes())
    d = cache / f"{workload.name}-s{seed}-x{scale:g}-{h.hexdigest()[:12]}"
    if not (d / "meta.json").exists():
        from rawfilter.cli import render_descriptor
        from rawfilter.explorer import DEFAULT_COST_MODEL
        from rawfilter.filter import parse_config
        from rawfilter.query import parse_query

        corpus, truth, known = BUILDERS[workload.name](seed, scale)
        tmp = cache / f".tmp-{d.name}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        (tmp / "input.ndjson").write_bytes(corpus)
        np.save(tmp / "truth.npy", truth)
        np.save(tmp / "known.npy", known)
        query = _query_text(workload, seed, scale)
        (tmp / "query.txt").write_text(query + "\n")
        if workload.config is not None:
            ast = parse_query(query)
            cfg = parse_config(workload.config, ast)
            (tmp / "filter.desc").write_text(render_descriptor(query, ast, cfg, DEFAULT_COST_MODEL))
        meta = {
            "input_bytes": len(corpus),
            "input_records": int(len(truth)),
            "true_matches": int(truth.sum()),
            "known_defect_matches": int(known.sum()),
            "input_sha256": hashlib.sha256(corpus).hexdigest(),
        }
        (tmp / "meta.json").write_text(json.dumps(meta, sort_keys=True))
        shutil.rmtree(d, ignore_errors=True)
        tmp.rename(d)
    return Inputs(
        d,
        d / "input.ndjson",
        np.load(d / "truth.npy"),
        np.load(d / "known.npy"),
        json.loads((d / "meta.json").read_text()),
    )
