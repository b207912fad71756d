"""Deterministic synthetic datasets with exact per-record ground truth.

A generator spec is key-value text:

    layout senml
    records 10000
    seed 7
    attr temperature decimal -10 50 inrange 0.7 35.1 p 0.8
    attr humidity int 0 120 inrange 20 69 p 0.6

Each attribute draws from its domain; with probability p the value lands
inside the planted range, otherwise outside it. Because every draw is
classified at generation time, the emitted sidecar labels are exact, which
lets tests cross-check the oracle against construction.

``layout senml`` emits measurement objects ({"v":"35.2","u":..,"n":..})
with values spelled as strings; ``layout flat`` emits one flat object with
plain numeric values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext

from .errors import ConfigError

_UNITS = ("far", "per", "lux", "ppm", "sec")
_BASE_TIME = 1422748800000


@dataclass(frozen=True)
class AttrSpec:
    name: str
    kind: str  # 'int' or 'decimal'
    domain_lo: Decimal
    domain_hi: Decimal
    range_lo: Decimal
    range_hi: Decimal
    p: float

    @property
    def units(self) -> int:
        return 1 if self.kind == "int" else 100


@dataclass(frozen=True)
class GenSpec:
    layout: str  # 'senml' or 'flat'
    records: int
    attrs: tuple
    seed: int = 0


def parse_gen_spec(text: str) -> GenSpec:
    layout = None
    records = None
    seed = 0
    attrs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "layout":
                layout = parts[1]
                if layout not in ("senml", "flat"):
                    raise ConfigError(f"line {lineno}: layout must be senml or flat")
            elif parts[0] == "records":
                records = int(parts[1])
                if records < 0:
                    raise ConfigError(f"line {lineno}: records must be >= 0")
            elif parts[0] == "seed":
                seed = int(parts[1])
            elif parts[0] == "attr":
                if len(parts) != 10 or parts[5] != "inrange" or parts[8] != "p":
                    raise ConfigError(
                        f"line {lineno}: expected 'attr NAME KIND LO HI inrange LO HI p P'"
                    )
                name, kind = parts[1], parts[2]
                if '"' in name:
                    raise ConfigError(f"line {lineno}: a query cannot spell the name {name!r}")
                if kind not in ("int", "decimal"):
                    raise ConfigError(f"line {lineno}: kind must be int or decimal")
                bounds = [Decimal(parts[i]) for i in (3, 4, 6, 7)]
                if not all(b.is_finite() for b in bounds):
                    raise ConfigError(f"line {lineno}: domain and range bounds must be finite")
                attrs.append(AttrSpec(name, kind, *bounds, float(parts[9])))
            else:
                raise ConfigError(f"line {lineno}: unknown directive {parts[0]!r}")
        except (IndexError, ValueError, ArithmeticError) as exc:
            raise ConfigError(f"line {lineno}: {raw!r}: {exc}") from exc
    if layout is None or records is None or not attrs:
        raise ConfigError("spec needs layout, records, and at least one attr")
    for a in attrs:
        if a.domain_lo > a.domain_hi or a.range_lo > a.range_hi:
            raise ConfigError(f"attr {a.name}: empty domain or range")
        if not 0.0 <= a.p <= 1.0:
            raise ConfigError(f"attr {a.name}: p must be in [0, 1]")
    return GenSpec(layout, records, tuple(attrs), seed)


def _unit_floor(x: Decimal) -> int:
    return int(x.to_integral_value(rounding="ROUND_FLOOR"))


def _unit_ceil(x: Decimal) -> int:
    return int(x.to_integral_value(rounding="ROUND_CEILING"))


class _AttrDrawer:
    """Integer-unit windows for in-range and out-of-range draws, computed
    and drawn in a context precise enough to keep every bound exact."""

    def __init__(self, spec: AttrSpec):
        self.spec = spec
        bounds = (spec.domain_lo, spec.domain_hi, spec.range_lo, spec.range_hi)
        self.context = Context(prec=max(28, max(len(format(abs(b), "f")) for b in bounds) + 3))
        u = spec.units
        with localcontext(self.context):
            self.inside = (
                _unit_ceil(max(spec.range_lo, spec.domain_lo) * u),
                _unit_floor(min(spec.range_hi, spec.domain_hi) * u),
            )
            lo_edge = spec.range_lo * u
            below_hi = int(lo_edge) - 1 if lo_edge == int(lo_edge) else _unit_floor(lo_edge)
            hi_edge = spec.range_hi * u
            above_lo = int(hi_edge) + 1 if hi_edge == int(hi_edge) else _unit_ceil(hi_edge)
            self.below = (_unit_ceil(spec.domain_lo * u), below_hi)
            self.above = (above_lo, _unit_floor(spec.domain_hi * u))
        if spec.p > 0 and self.inside[0] > self.inside[1]:
            raise ConfigError(f"attr {spec.name}: no representable in-range value")
        self.outside_sizes = tuple(max(0, hi - lo + 1) for lo, hi in (self.below, self.above))
        if spec.p < 1 and sum(self.outside_sizes) == 0:
            raise ConfigError(f"attr {spec.name}: no representable out-of-range value")

    def draw(self, rng) -> tuple[Decimal, bool]:
        inside = rng.random() < self.spec.p
        if inside:
            lo, hi = self.inside
        else:
            pick = rng.randrange(sum(self.outside_sizes))
            lo, hi = self.below if pick < self.outside_sizes[0] else self.above
        value = self.context.divide(Decimal(rng.randint(lo, hi)), self.spec.units)
        return value, inside


def generate_records(spec: GenSpec, seed: int | None = None):
    """Yield (record bytes, {attr: in_range}) pairs, deterministically."""
    import random

    rng = random.Random(spec.seed if seed is None else seed)
    drawers = [_AttrDrawer(a) for a in spec.attrs]
    keys = [json.dumps(a.name, ensure_ascii=False) for a in spec.attrs]
    for i in range(spec.records):
        matches = {}
        parts = []
        for k, drawer in enumerate(drawers):
            value, inside = drawer.draw(rng)
            matches[drawer.spec.name] = inside
            if spec.layout == "senml":
                unit = _UNITS[k % len(_UNITS)]
                parts.append(f'{{"v":"{value}","u":"{unit}","n":{keys[k]}}}')
            else:
                parts.append(f"{keys[k]}:{value}")
        if spec.layout == "senml":
            record = f'{{"e":[{",".join(parts)}],"bt":{_BASE_TIME + i}}}'
        else:
            record = f'{{{",".join(parts)},"ts":{_BASE_TIME + i}}}'
        yield record.encode(), matches


def generate_dataset(spec: GenSpec, seed: int | None = None) -> tuple[bytes, bytes]:
    """(NDJSON corpus, NDJSON sidecar labels) for the whole spec."""
    records = []
    labels = []
    for i, (record, matches) in enumerate(generate_records(spec, seed)):
        records.append(record)
        labels.append(
            json.dumps({"index": i, "match": matches, "all": all(matches.values())}).encode()
        )
    body = b"\n".join(records) + b"\n" if records else b""
    sidecar = b"\n".join(labels) + b"\n" if labels else b""
    return body, sidecar


def query_for_spec(spec: GenSpec) -> str:
    """The AND query whose predicates are the planted ranges."""
    return " AND ".join(
        f'({a.range_lo:f} <= "{a.name}" <= {a.range_hi:f})' for a in spec.attrs
    )
