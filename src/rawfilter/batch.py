"""Vectorized corpus pipeline.

Runs the same scanner/primitive/composition semantics as the per-byte
reference path, but over whole buffers with numpy. The structural index is
computed simdjson-style (backslash-run parity for escapes, quote parity for
the string mask, bracket cumsums for nesting, sparse position tables for
record segmentation); primitives reduce to lookup tables, run-length
arithmetic and per-token DFA lockstep.

The index follows the reference scanner on every input, non-JSON included:
a backslash outside a string is a plain byte, a close bracket at level 0 is
plain content that marks its record malformed, and a top-level scalar runs
to the end of its line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filter import Mode, Plan, PlanAnd, PlanLeaf, plan_leaves, string_notation, validate_config
from .query import QueryAst
from .ranges import NUMERIC_CLASS, RangeDfa, _IS_DIGIT, _IS_EXP, build_range_dfa
from .scanner import RecordSpan
from .strings import build_substring_set, resolve_block_len

_WS = np.zeros(256, dtype=bool)
for _c in b" \t\r\n":
    _WS[_c] = True

_OPEN_LUT = np.zeros(256, dtype=bool)
_OPEN_LUT[ord("{")] = _OPEN_LUT[ord("[")] = True
_CLOSE_LUT = np.zeros(256, dtype=bool)
_CLOSE_LUT[ord("}")] = _CLOSE_LUT[ord("]")] = True


@dataclass
class ScanIndex:
    """Structural view of one buffer: masks plus sparse position tables."""

    data: np.ndarray  # uint8
    in_string: np.ndarray  # bool per byte, content + closing quote
    level: np.ndarray  # int32 per byte, close brackets keep their scope level
    open_pos: np.ndarray  # positions of structural opens; scope id = index + 1
    opens_by_level: dict  # level -> sorted positions of structural opens
    commas_by_level: dict  # level -> sorted positions of structural commas
    rec_starts: np.ndarray
    rec_ends: np.ndarray
    rec_malformed: np.ndarray
    inside: np.ndarray  # bool per byte: belongs to some record span
    rec_start_per_pos: np.ndarray  # int32, valid where inside

    _positions: np.ndarray | None = None
    _tokens: tuple | None = None

    @property
    def n_records(self) -> int:
        return len(self.rec_starts)

    @property
    def positions(self) -> np.ndarray:
        if self._positions is None:
            self._positions = np.arange(len(self.data), dtype=np.int32)
        return self._positions

    def numeric_tokens(self) -> tuple:
        """Digit-bearing token geometry, shared by every range primitive.

        Returns (starts, ends_inclusive, last_digit, heuristic_fire).
        """
        if self._tokens is not None:
            return self._tokens
        d = self.data
        n = len(d)
        empty = np.empty(0, dtype=np.int64)
        if n == 0:
            self._tokens = (empty, empty, empty, np.empty(0, dtype=bool))
            return self._tokens
        num = NUMERIC_CLASS[d] & self.inside
        prev = np.empty(n, dtype=bool)
        prev[0] = False
        prev[1:] = num[:-1]
        nxt = np.empty(n, dtype=bool)
        nxt[-1] = False
        nxt[:-1] = num[1:]
        starts = np.nonzero(num & ~prev)[0]
        if len(starts) == 0:
            self._tokens = (empty, empty, empty, np.empty(0, dtype=bool))
            return self._tokens
        ends = np.nonzero(num & ~nxt)[0]  # inclusive last byte per token

        # Tokens without a digit never fire; drop them before the heavy work.
        isdig = _IS_DIGIT[d]
        dig_cum = np.concatenate(([0], np.cumsum(isdig, dtype=np.int32)))
        has_digit = (dig_cum[ends + 1] - dig_cum[starts]) > 0
        starts, ends = starts[has_digit], ends[has_digit]
        if len(starts) == 0:
            self._tokens = (empty, empty, empty, np.empty(0, dtype=bool))
            return self._tokens

        idx = self.positions
        bounds = np.column_stack((starts, ends + 1)).ravel()
        idx_dig = np.concatenate((np.where(isdig, idx, np.int32(-1)), [np.int32(-1)]))
        last_digit = np.maximum.reduceat(idx_dig, bounds)[::2]
        if bool(np.any(_IS_EXP[d] & num)):
            sentinel = np.int32(-n - 1)
            neg_idx_dig = np.concatenate((np.where(isdig, -idx, sentinel), [sentinel]))
            first_digit = -np.maximum.reduceat(neg_idx_dig, bounds)[::2]
            idx_exp = np.concatenate((np.where(_IS_EXP[d], idx, np.int32(-1)), [np.int32(-1)]))
            last_exp = np.maximum.reduceat(idx_exp, bounds)[::2]
            heuristic = last_exp > first_digit
        else:
            heuristic = np.zeros(len(starts), dtype=bool)
        self._tokens = (starts, ends, last_digit, heuristic)
        return self._tokens

    def spans(self) -> list[RecordSpan]:
        return [
            RecordSpan(int(s), int(e), bool(m))
            for s, e, m in zip(self.rec_starts, self.rec_ends, self.rec_malformed)
        ]

    def record_of(self, positions: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.rec_starts, positions, side="right") - 1

    def attribute_many(self, positions: np.ndarray):
        """Vectorized (record, scope_id, segment) for an array of positions."""
        pos = np.asarray(positions, dtype=np.int64)
        rec = self.record_of(pos)
        scope = np.zeros(len(pos), dtype=np.int64)
        segment = np.zeros(len(pos), dtype=np.int64)
        lvl = self.level[pos]
        for level in np.unique(lvl):
            sel = lvl == level
            p = pos[sel]
            if level <= 0:
                left = self.rec_starts[np.maximum(rec[sel], 0)]
            else:
                opens = self.opens_by_level[int(level)]
                left = opens[np.searchsorted(opens, p, side="right") - 1]
                scope[sel] = np.searchsorted(self.open_pos, left) + 1
            commas = self.commas_by_level.get(int(level))
            if commas is not None and len(commas):
                segment[sel] = np.searchsorted(commas, p, side="left") - np.searchsorted(
                    commas, left, side="right"
                )
        return rec, scope, segment


def drop_last_record(index: ScanIndex) -> ScanIndex:
    """Remove the final record span in place (chunk carry)."""
    start, end = int(index.rec_starts[-1]), int(index.rec_ends[-1])
    index.inside[start:end] = False
    index.rec_starts = index.rec_starts[:-1]
    index.rec_ends = index.rec_ends[:-1]
    index.rec_malformed = index.rec_malformed[:-1]
    return index


def _real_quotes(d: np.ndarray) -> np.ndarray:
    """Quotes that open or close a string under the reference scanner.

    A quote after an even backslash run always toggles the string state. One
    after an odd run leaves the scanner inside a string either way: outside,
    the backslashes are plain bytes and the quote opens a string; inside, the
    quote is escaped. So it is real exactly when the toggles since the
    previous odd-run quote (which left the scanner inside) leave it outside.
    """
    quote = d == ord('"')
    bs = d == ord("\\")
    if not bool(bs.any()):
        return quote
    qpos = np.nonzero(quote)[0]
    last_non_bs = np.maximum.accumulate(np.where(bs, -1, np.arange(len(d), dtype=np.int32)))
    prev_last = np.where(qpos > 0, last_non_bs[np.maximum(qpos - 1, 0)], -1)
    odd = ((qpos - 1 - prev_last) & 1) == 1
    odd_at = np.nonzero(odd)[0]
    toggles = np.cumsum(~odd, dtype=np.int64)[odd_at]
    # The first odd-run quote starts from outside, not inside: one toggle off.
    since = toggles - np.concatenate(([1], toggles[:-1]))
    real = ~odd
    real[odd_at[(since & 1) == 1]] = True
    out = np.zeros(len(d), dtype=bool)
    out[qpos[real]] = True
    return out


def build_scan_index(data: bytes) -> ScanIndex:
    """Structural index of a buffer, equal to `scanner.iter_events` and
    `scanner.segment_records` on every input."""
    d = np.frombuffer(data, dtype=np.uint8)
    n = len(d)

    real_quote = _real_quotes(d)
    qcum = np.cumsum(real_quote, dtype=np.int32)
    in_string = ((qcum - real_quote) & 1) == 1
    outside = ~in_string

    opens = _OPEN_LUT[d] & outside
    closes = _CLOSE_LUT[d] & outside
    depth = np.cumsum(opens.view(np.int8) - closes.view(np.int8), dtype=np.int32)
    underflow = np.empty(0, dtype=np.int64)
    if n and int(depth.min()) < 0:
        # A close at level 0 is plain content: clamp the depth at zero.
        floor = np.minimum(np.minimum.accumulate(depth), 0)
        underflow = np.nonzero(np.diff(floor, prepend=np.int32(0)))[0]
        depth -= floor
        closes[underflow] = False
    level = depth + closes

    # Records: split into lines at depth-0 newlines. On each line, depth-0
    # opens start bracketed records until the first depth-0 byte that is
    # neither whitespace nor an open; that byte starts a scalar record which
    # runs to the line's end.
    top = level == 0
    end_positions = np.nonzero(closes & (level == 1))[0]
    line_ends = np.append(np.nonzero((d == ord("\n")) & outside & top)[0], n)
    scalar = np.nonzero(top & ~_WS[d])[0]
    scalar_line = np.searchsorted(line_ends, scalar)
    first = np.diff(scalar_line, prepend=-1) != 0
    scalar, scalar_line = scalar[first], scalar_line[first]
    scalar_ends = line_ends[scalar_line]
    scalar_malformed = np.searchsorted(underflow, scalar_ends) > np.searchsorted(underflow, scalar)
    if n and bool(qcum[-1] & 1):
        scalar_malformed |= scalar_ends == n  # ends at EOF inside a string

    open_pos = np.nonzero(opens)[0]
    open_level = level[open_pos]
    bracketed = open_pos[open_level == 1]
    line_scalar = np.full(len(line_ends), n, dtype=np.int64)
    line_scalar[scalar_line] = scalar
    bracketed = bracketed[bracketed < line_scalar[np.searchsorted(line_ends, bracketed)]]
    close_at = np.searchsorted(end_positions, bracketed)
    unclosed = close_at == len(end_positions)
    bracketed_ends = np.where(unclosed, n, np.append(end_positions, n)[close_at] + 1)

    rec_starts = np.concatenate((bracketed, scalar))
    order = np.argsort(rec_starts, kind="stable")
    rec_starts = rec_starts[order]
    rec_ends = np.concatenate((bracketed_ends, scalar_ends))[order]
    rec_malformed = np.concatenate((unclosed, scalar_malformed))[order]

    opens_by_level = {int(lvl): open_pos[open_level == lvl] for lvl in np.unique(open_level)}
    comma_pos = np.nonzero((d == ord(",")) & outside)[0]
    comma_level = level[comma_pos]
    commas_by_level = {
        int(lvl): comma_pos[comma_level == lvl] for lvl in np.unique(comma_level)
    }

    inside_delta = np.zeros(n + 1, dtype=np.int8)
    inside_delta[rec_starts] = 1
    np.subtract.at(inside_delta, rec_ends, 1)
    inside = np.cumsum(inside_delta[:n], dtype=np.int32) > 0
    marker = np.zeros(n, dtype=np.int32)
    marker[rec_starts] = 1
    ordinal = np.cumsum(marker, dtype=np.int32) - 1
    rec_start_per_pos = rec_starts.astype(np.int32)[np.maximum(ordinal, 0)] if len(rec_starts) else marker
    return ScanIndex(
        d, in_string, level, open_pos, opens_by_level, commas_by_level,
        rec_starts, rec_ends, rec_malformed, inside, rec_start_per_pos,
    )


# --- primitive fires ----------------------------------------------------------


def _exact_fire_positions(index: ScanIndex, pattern: bytes) -> np.ndarray:
    """End positions of exact occurrences fully inside one record."""
    data = index.data.tobytes()
    hits = []
    at = data.find(pattern)
    while at != -1:
        hits.append(at + len(pattern) - 1)
        at = data.find(pattern, at + 1)
    if not hits:
        return np.empty(0, dtype=np.int64)
    ends = np.asarray(hits, dtype=np.int64)
    starts = ends - (len(pattern) - 1)
    ok = index.inside[ends] & (starts >= index.rec_start_per_pos[ends])
    return ends[ok]


def _gram_hit_mask(index: ScanIndex, pattern: bytes, block: int) -> np.ndarray:
    d = index.data
    n = len(d)
    grams = build_substring_set(pattern, block)
    hit = np.zeros(n, dtype=bool)
    if block == 1:
        lut = np.zeros(256, dtype=bool)
        for g in grams:
            lut[g[0]] = True
        hit[:] = lut[d]
    elif block == 2 and n >= 2:
        codes = (d[:-1].astype(np.uint16) << 8) | d[1:]
        gram_codes = np.sort(np.asarray([(g[0] << 8) | g[1] for g in grams], dtype=np.uint16))
        hit[1:] = np.isin(codes, gram_codes)
    else:
        data = d.tobytes()
        for g in grams:
            at = data.find(g)
            while at != -1:
                hit[at + block - 1] = True
                at = data.find(g, at + 1)
    return hit


def string_fire_positions(index: ScanIndex, pattern: bytes, block: int) -> np.ndarray:
    """Positions where the block matcher's run counter sits at threshold."""
    pattern = pattern if isinstance(pattern, bytes) else pattern.encode()
    block = resolve_block_len(pattern, block)
    if block == len(pattern):
        return _exact_fire_positions(index, pattern)
    n = len(index.data)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    idx = index.positions
    hit = _gram_hit_mask(index, pattern, block)
    # Windows must sit inside a single record; runs restart at record starts.
    hit &= index.inside
    if block > 1:
        hit &= idx - np.int32(block - 1) >= index.rec_start_per_pos
    last_miss = np.maximum.accumulate(np.where(~hit, idx, np.int32(-1)))
    barrier = np.maximum(last_miss, index.rec_start_per_pos - np.int32(1))
    threshold = len(pattern) - block + 1
    return np.nonzero(hit & (idx - barrier >= threshold))[0]


def number_fire_positions(index: ScanIndex, rdfa: RangeDfa):
    """(fire offsets, attribution positions of the tokens' last digits)."""
    starts, ends, last_digit, heuristic = index.numeric_tokens()
    empty = np.empty(0, dtype=np.int64)
    if len(starts) == 0:
        return empty, empty
    d = index.data
    lengths = ends - starts + 1
    # Lockstep the DFA over all tokens at once, column by column.
    order = np.argsort(lengths, kind="stable")
    starts_o, lengths_o = starts[order], lengths[order]
    states = np.zeros(len(starts), dtype=np.int16)
    table = rdfa.table
    lo = 0
    for j in range(int(lengths_o[-1])):
        lo = np.searchsorted(lengths_o, j, side="right")
        active = slice(lo, len(starts_o))
        states[active] = table[states[active], d[starts_o[active] + j]]
    accept = np.zeros(len(starts), dtype=bool)
    accept[order] = rdfa.accept_mask[states]
    fired = accept | heuristic
    return (ends[fired] + 1), last_digit[fired]


# --- cached per-primitive record results ---------------------------------------


class PrimitiveFires:
    """Per-record latch flags plus scope/segment fire keys for conjunction."""

    def __init__(self, index: ScanIndex, attr_pos: np.ndarray):
        self._index = index
        self._attr_pos = attr_pos  # where scope/segment attribution is taken
        rec = index.record_of(attr_pos)
        self.latch = np.zeros(index.n_records, dtype=bool)
        self.latch[rec[rec >= 0]] = True
        self._fire_scopes: tuple | None = None
        self._scope_keys: np.ndarray | None = None

    @property
    def fire_scopes(self) -> tuple[np.ndarray, np.ndarray]:
        """(rec<<32|scope, segment) of every fire inside a record."""
        if self._fire_scopes is None:
            rec, scope, segment = self._index.attribute_many(self._attr_pos)
            keep = rec >= 0
            self._fire_scopes = ((rec[keep] << 32) | scope[keep], segment[keep])
        return self._fire_scopes

    @property
    def scope_keys(self) -> np.ndarray:
        """Sorted unique rec<<32|scope keys."""
        if self._scope_keys is None:
            self._scope_keys = np.unique(self.fire_scopes[0])
        return self._scope_keys


class CorpusIndex:
    """Scanned corpus plus a cache of primitive fires and per-predicate
    accept vectors, shared by every configuration evaluated over it."""

    def __init__(self, data: bytes, index: ScanIndex | None = None):
        self.data = data
        self.index = index if index is not None else build_scan_index(data)
        self._cache: dict = {}

    @property
    def n_records(self) -> int:
        return self.index.n_records

    def records(self) -> list[bytes]:
        return [self.data[int(s) : int(e)] for s, e in zip(self.index.rec_starts, self.index.rec_ends)]

    def string_fires(self, pattern: str | bytes, block: int) -> PrimitiveFires:
        """Fires of the block matcher; ``block`` is resolved, as in a plan leaf."""
        pattern = pattern.encode() if isinstance(pattern, str) else pattern
        key = ("s", pattern, block)
        if key not in self._cache:
            pos = string_fire_positions(self.index, pattern, block)
            self._cache[key] = PrimitiveFires(self.index, pos)
        return self._cache[key]

    def range_fires(self, bound) -> PrimitiveFires:
        key = ("v", bound)
        if key not in self._cache:
            rdfa = build_range_dfa(bound)
            _, attr_pos = number_fire_positions(self.index, rdfa)
            self._cache[key] = PrimitiveFires(self.index, attr_pos)
        return self._cache[key]

    def predicate_vector(self, leaf: PlanLeaf) -> np.ndarray:
        """Read-only per-record accept vector of one plan leaf, built once per
        (predicate, mode, block)."""
        pred, mode, block = leaf
        key = ("p", pred.attr, pred.bound, mode, block)
        vector = self._cache.get(key)
        if vector is None:
            value = self.range_fires(pred.bound)
            if mode is Mode.VALUE_ONLY:
                vector = value.latch.view()
            else:
                string = self.string_fires(pred.attr, block)
                if mode is Mode.FLAT:
                    vector = string.latch & value.latch
                elif mode is Mode.SCOPED:
                    vector = _scope_conj_vector(self.n_records, string, value)
                else:
                    vector = _segment_conj_vector(self.n_records, string, value)
            vector.flags.writeable = False
            self._cache[key] = vector
        return vector


# --- config evaluation over a corpus -------------------------------------------


def _scope_conj_vector(n_records: int, string: PrimitiveFires, value: PrimitiveFires) -> np.ndarray:
    common = np.intersect1d(string.scope_keys, value.scope_keys, assume_unique=True)
    out = np.zeros(n_records, dtype=bool)
    out[np.unique(common >> 32)] = True
    return out


def _segment_conj_vector(n_records: int, string: PrimitiveFires, value: PrimitiveFires) -> np.ndarray:
    out = np.zeros(n_records, dtype=bool)
    (s_scope, s_segment), (v_scope, v_segment) = string.fire_scopes, value.fire_scopes
    if len(s_scope) == 0 or len(v_scope) == 0:
        return out
    # rec<<32|scope leaves no room for the segment, so rank the scope keys of
    # both parts together and pack (record, scope, segment) as rank*width+segment.
    scopes, rank = np.unique(np.concatenate((s_scope, v_scope)), return_inverse=True)
    width = int(max(s_segment.max(), v_segment.max())) + 1
    if len(scopes) * width > 1 << 63:
        raise OverflowError(f"{len(scopes)} scopes x {width} segments overflow int64 keys")
    keys = rank.astype(np.int64) * width + np.concatenate((s_segment, v_segment))
    common = np.intersect1d(keys[: len(s_scope)], keys[len(s_scope) :])
    out[scopes[common // width] >> 32] = True
    return out


def accept_vector(corpus: CorpusIndex, plan: Plan) -> np.ndarray:
    """Fresh accept vector of a plan from `filter.validate_config`."""
    if isinstance(plan, PlanLeaf):
        return corpus.predicate_vector(plan).copy()
    parts = [accept_vector(corpus, child) for child in plan.children]
    combine = np.logical_and if isinstance(plan, PlanAnd) else np.logical_or
    out = parts[0]
    for part in parts[1:]:
        combine(out, part, out=out)
    return out


def evaluate_config_batch(corpus: CorpusIndex, ast: QueryAst, cfg) -> np.ndarray:
    """Accept vector over all records for one configuration."""
    return accept_vector(corpus, validate_config(ast, cfg))


def primitive_fire_counts(corpus: CorpusIndex, ast: QueryAst, cfg) -> dict:
    """Records latched per primitive, keyed by notation."""
    counts: dict[str, int] = {}
    for leaf in plan_leaves(validate_config(ast, cfg)):
        value = corpus.range_fires(leaf.pred.bound)
        counts[leaf.pred.bound.notation()] = int(value.latch.sum())
        if leaf.block is not None:
            string = corpus.string_fires(leaf.pred.attr, leaf.block)
            counts[string_notation(leaf)] = int(string.latch.sum())
    return counts


# --- streaming over large inputs ------------------------------------------------


def iter_chunk_indexes(stream, chunk_bytes: int = 1 << 22):
    """Yield (ScanIndex, buffer) over record-aligned chunks of a stream."""
    carry = b""
    eof = False
    while not eof or carry:
        buffer = carry
        carry = b""
        while not eof and len(buffer) < chunk_bytes:
            block = stream.read(chunk_bytes)
            if not block:
                eof = True
                break
            buffer += block
        if not buffer:
            break
        index = build_scan_index(buffer)
        if not eof and (
            not index.n_records or index.n_records == 1 and int(index.rec_ends[0]) == len(buffer)
        ):
            # No record or one that may go on: double the buffer and rescan,
            # so a record larger than every chunk costs linear scanning.
            more = stream.read(len(buffer))
            if more:
                carry = buffer + more
                continue
            eof = True
        if not eof and int(index.rec_ends[-1]) == len(buffer):
            # Final span may continue in the next chunk; carry and retry it.
            cut = int(index.rec_starts[-1])
            carry = buffer[cut:]
            buffer = buffer[:cut]
            index = drop_last_record(index)
        yield index, buffer
