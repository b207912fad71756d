"""Vectorized corpus pipeline.

Runs the same scanner/primitive/composition semantics as the per-byte
reference path, but over whole buffers with numpy. The structural index is
sparse, after Mison and simdjson's stage 1: one pass of byte compares finds
every quote, backslash, bracket, comma and newline, and escape parity, the
string state, bracket depth and record segmentation are computed over those
positions only. The index keeps int64 position tables (brackets with their
depth, opens, commas, record spans) and no per-byte array; primitives find
level and record at their fire positions by binary search. Scope and segment
come from two start tables, each built when a plan first reads it: sorted
keys level * (n + 1) + start of every scope start (structural opens, record
starts at level 0), and for segments also of each comma + 1. A fire's scope
or segment is the row of the last key at or before its own, so SCOPED and
KEYVALUE share one conjunction: mark the value fires' rows, look up the
string fires' rows.
Primitives reduce to byte compares, run edges and per-token DFA lockstep.
Every range primitive reads one numeric-token table, built once per index:
each token's geometry comes from one run split of the numeric-class mask
(the runs' end bytes settle almost every token; only the few they cannot
settle have their own bytes read), and its record from one search at its
end. The tokens are ordered by length and their bytes gathered column by
column while many are still active; each range DFA steps its table over
those columns until every token sits in the dead row, and the few longest
tokens' tails byte by byte. A range fire carries its token's record, so its
latch is a gather, not another search of the record starts.

A stream is indexed in blocks. A record longer than a block is cut just
past a structural comma, where no string, escape or numeric token is open;
its next piece is indexed at the comma's depth, and a `RecordCarry` takes
its latches, verdicts and open-scope fires from one piece to the next.

The index follows the reference scanner on every input, non-JSON included:
a backslash outside a string is a plain byte, a close bracket at level 0 is
plain content that marks its record malformed, and a top-level scalar runs
to the end of its line.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .filter import Mode, Plan, PlanAnd, PlanLeaf, plan_leaves, string_notation
from .ranges import RangeDfa, build_range_dfa
from .strings import build_substring_set, resolve_block_len

_QUOTE, _BACKSLASH, _COMMA, _NEWLINE = b'"\\,\n'
# b | 0x20 folds '[' onto '{' and ']' onto '}'.
_OPEN, _CLOSE = b"{}"
_WHITESPACE = np.frombuffer(b" \t\r\n", dtype=np.uint8)
_EMPTY = np.empty(0, dtype=np.int64)
# Token columns are decoded while at least this many tokens are still
# active; the tails of the few longest tokens are stepped byte by byte.
_COLUMN_MIN_TOKENS = 64
# Streams are indexed in blocks of at most this many bytes: a block's tables
# (int64 positions over 43% of SenML's bytes, masks, token tables) then stay
# near a core's L2 cache, where a whole 4 MiB block builds ~14 MiB of positions.
_BLOCK_BYTES = 1 << 19


def _runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of the maximal True runs of a bool array; ends exclusive."""
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    return edges[0::2], edges[1::2]


def _expand(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenated ranges [start, start + length), as int64 positions."""
    before = np.cumsum(lengths) - lengths
    return np.repeat(starts - before, lengths) + np.arange(int(lengths.sum()), dtype=np.int64)


def _token_bytes(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions of nonempty ranges [start, end), concatenated, and the
    offset of each range's first one: the operands of a ufunc's reduceat."""
    lengths = ends - starts
    return _expand(starts, lengths), np.cumsum(lengths) - lengths


def _start_keys(levels: np.ndarray, starts: np.ndarray, n: int) -> np.ndarray:
    """level * (n + 1) + start for positions in a buffer of n bytes: ordered
    by level, then by position."""
    if len(levels) and int(levels.max()) * (n + 1) + n >= 1 << 63:
        raise OverflowError(f"level {int(levels.max())} x {n + 1} positions overflow int64 keys")
    return levels * (n + 1) + starts


@dataclass
class ScanIndex:
    """Sparse structural view of one buffer: int64 position tables only."""

    raw: bytes  # the buffer, translated byte by byte by the 1-gram string matcher
    data: np.ndarray  # uint8 view of raw, not a copy
    brackets: np.ndarray  # -1, then the structural brackets; a close at level 0 is content, not listed
    depth: np.ndarray  # the start depth, then the nesting depth after each bracket
    open_pos: np.ndarray  # structural opens
    commas: np.ndarray  # structural commas
    comma_level: np.ndarray  # level of each structural comma
    rec_starts: np.ndarray
    rec_ends: np.ndarray  # exclusive
    rec_malformed: np.ndarray  # bool
    scanned_bytes: int  # bytes indexed to build it: raw, plus failed attempts in a stream
    cut_depth: int = 0  # levels open where the last record is cut, to go on in the next block

    # Caches built on first use; a copy made by `dataclasses.replace` starts empty.
    _starts: dict = field(init=False, default_factory=dict)  # Mode -> start table
    _tokens: tuple | None = field(init=False, default=None)
    _columns: tuple | None = field(init=False, default=None)

    @property
    def n_records(self) -> int:
        return len(self.rec_starts)

    @property
    def n_ended(self) -> int:
        """Records that end in this buffer: all but a cut last one."""
        return self.n_records - (self.cut_depth > 0)

    @property
    def start_depth(self) -> int:
        """Levels open at the buffer's start: its first record continues a
        record cut at that depth."""
        return int(self.depth[0])

    def start_table(self, mode: Mode) -> np.ndarray:
        """Sorted start keys, level * (n + 1) + position, built on first use.

        Under SCOPED: every structural open at its depth and every kept
        record start at level 0, one row per scope. Under KEYVALUE also
        comma + 1 at each structural comma's level, one row per segment.
        The scopes and segments of a continued record that are open at the
        buffer's start start at position 0.
        """
        table = self._starts.get(mode)
        if table is None:
            is_open = np.diff(self.depth, prepend=self.depth[0]) > 0
            continued = np.arange(1, self.start_depth + 1)
            levels = [self.depth[is_open], np.zeros(self.n_records, dtype=np.int64), continued]
            starts = [self.open_pos, self.rec_starts, np.zeros(len(continued), dtype=np.int64)]
            if mode is Mode.KEYVALUE:
                levels.append(self.comma_level)
                starts.append(self.commas + 1)
            keys = _start_keys(np.concatenate(levels), np.concatenate(starts), len(self.data))
            table = self._starts[mode] = np.sort(keys)
        return table

    def start_rows(self, mode: Mode, positions: np.ndarray) -> np.ndarray:
        """Row of each position's scope (SCOPED) or segment (KEYVALUE) in the
        start table: the last start at its level at or before it."""
        keys = _start_keys(self.level_at(positions), positions, len(self.data))
        return np.searchsorted(self.start_table(mode), keys, side="right") - 1

    def open_rows(self, mode: Mode, position: int, depth: int) -> np.ndarray:
        """Rows of the scopes (SCOPED) or segments (KEYVALUE) open at levels
        1..depth at a position."""
        levels = np.arange(1, depth + 1)
        keys = _start_keys(levels, np.full(depth, position, dtype=np.int64), len(self.data))
        return np.searchsorted(self.start_table(mode), keys, side="right") - 1

    def level_at(self, positions) -> np.ndarray:
        """`scanner.ScanEvent.level` at each position: the depth after the
        last bracket at or before it, plus one on a close bracket."""
        pos = np.asarray(positions, dtype=np.int64)
        # The last bracket at or before each position; the leading -1 always is.
        k = np.searchsorted(self.brackets, pos, side="right") - 1
        on_close = (self.brackets[k] == pos) & ((self.data[pos] | 0x20) == _CLOSE)
        return self.depth[k] + on_close

    def numeric_tokens(self) -> tuple:
        """Digit-bearing token geometry and records, shared by every range
        primitive.

        Returns int64 (starts, ends_inclusive, last_digit), the bool
        heuristic_fire and the int64 record of each maximal run of
        numeric-class bytes (digits, '+', '-', '.', 'e', 'E') that holds a
        digit and lies in a kept record. The runs' end bytes settle almost
        every token; only the few they cannot settle have their own bytes read.
        """
        if self._tokens is not None:
            return self._tokens
        d = self.data
        digit = (d - np.uint8(ord("0"))) < 10  # uint8 wraps below '0'
        exp = (d | 0x20) == ord("e")
        num = digit | exp
        for c in b"+-.":
            num |= d == c
        starts, ends = _runs(num)
        last = ends - 1
        # A token holds a digit when an end byte is one; only a token longer
        # than two bytes with two non-digit ends needs its inner bytes read.
        last_is_digit = digit[last]
        has_digit = digit[starts] | last_is_digit
        inner = np.flatnonzero(~has_digit & (ends - starts > 2))
        pos, at = _token_bytes(starts[inner] + 1, last[inner])
        has_digit[inner] = np.logical_or.reduceat(digit[pos], at)
        starts, last, last_is_digit = starts[has_digit], last[has_digit], last_is_digit[has_digit]
        record = self.record_of(last)
        if self.n_records:
            # Record -1 wraps to the last record, which starts past every
            # token that ends before the first record.
            keep = (starts >= self.rec_starts[record]) & (last < self.rec_ends[record])
        else:
            keep = np.zeros(len(record), dtype=bool)
        starts, last, last_is_digit, record = starts[keep], last[keep], last_is_digit[keep], record[keep]
        last_digit = last.copy()
        fix = np.flatnonzero(~last_is_digit)
        pos, at = _token_bytes(starts[fix], last[fix] + 1)
        last_digit[fix] = np.maximum.reduceat(np.where(digit[pos], pos, -1), at)
        # The exponent heuristic: an 'e'/'E' after the token's first digit,
        # so only tokens holding an 'e' with a numeric byte before it.
        heuristic = np.zeros(len(starts), dtype=bool)
        exp_at = np.flatnonzero(exp[1:] & num[:-1]) + 1
        if len(exp_at) and len(starts):
            token = np.searchsorted(starts, exp_at, side="right") - 1
            token = np.unique(token[(token >= 0) & (exp_at <= last[token])])
            pos, at = _token_bytes(starts[token], last[token] + 1)
            first_digit = np.minimum.reduceat(np.where(digit[pos], pos, len(d)), at)
            heuristic[token] = np.maximum.reduceat(np.where(exp[pos], pos, -1), at) > first_digit
        self._tokens = (starts, last, last_digit, heuristic, record)
        return self._tokens

    def token_columns(self) -> tuple:
        """The numeric tokens' bytes column by column, decoded once for every
        range primitive.

        Returns the token order by length (stable); for each column j while
        at least `_COLUMN_MIN_TOKENS` tokens are longer than j, the first token
        in that order that is longer than j and the uint8 bytes at offset j
        of it and every token after it; then the bytes left after the
        columns of each of the last tokens in that order that outlast them.
        """
        if self._columns is None:
            starts, ends = self.numeric_tokens()[:2]
            lengths = ends - starts + 1
            width = int(lengths.max()) if len(lengths) else 0
            # A stable sort of a uint16 key is a radix sort.
            order = np.argsort(lengths.astype(np.uint16) if width < 1 << 16 else lengths, kind="stable")
            starts, lengths = starts[order], lengths[order]
            n = len(order)
            n_columns = int(lengths[n - _COLUMN_MIN_TOKENS]) if n >= _COLUMN_MIN_TOKENS else 0
            firsts = np.searchsorted(lengths, np.arange(n_columns + 1), side="right").tolist()
            columns = [self.data[starts[lo:] + j] for j, lo in enumerate(firsts[:-1])]
            tail_lo = firsts[-1]
            tails = [
                self.raw[s + n_columns : s + length]
                for s, length in zip(starts[tail_lo:].tolist(), lengths[tail_lo:].tolist())
            ]
            self._columns = (order, firsts[:-1], columns, tails)
        return self._columns

    def record_of(self, positions: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.rec_starts, positions, side="right") - 1

    def record_start_of(self, positions: np.ndarray) -> np.ndarray:
        """Start of the kept record holding each position, -1 where none does."""
        rec = self.record_of(positions)
        inside = rec >= 0
        inside[inside] = positions[inside] < self.rec_ends[rec[inside]]
        start = np.full(len(rec), -1, dtype=np.int64)
        start[inside] = self.rec_starts[rec[inside]]
        return start


def drop_last_record(index: ScanIndex) -> ScanIndex:
    """A copy of the index without its final record span (chunk carry).
    Primitives then ignore every position past the last kept record."""
    return replace(
        index,
        rec_starts=index.rec_starts[:-1],
        rec_ends=index.rec_ends[:-1],
        rec_malformed=index.rec_malformed[:-1],
    )


def cut_last_record(index: ScanIndex) -> ScanIndex | None:
    """A copy of an index that holds nothing but one unfinished bracketed
    record, the record stopping just past its last structural comma before
    the buffer's last byte, to go on in the next block; None when there is
    no such comma. Primitives then ignore every position from the cut: no
    numeric token spans a comma, and no escape is pending at one. A scalar
    record runs to its line's end whatever its brackets do, so it is never
    cut; a cut before the last byte leaves the next block a byte to start
    the record's next piece with."""
    if index.n_records != 1:
        return None
    bracketed = index.start_depth or (index.data[index.rec_starts[0]] | 0x20) == _OPEN
    k = np.searchsorted(index.commas, len(index.data) - 1) - 1
    if not (bracketed and index.depth[-1] and k >= 0):
        return None
    end = int(index.commas[k]) + 1
    return replace(index, rec_ends=np.append(index.rec_ends[:-1], end), cut_depth=int(index.comma_level[k]))


def _structural_bytes(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions and bytes of every quote, backslash, bracket, comma and
    newline, by byte compares."""
    folded = d | 0x20
    mask = folded == _OPEN
    mask |= folded == _CLOSE
    for c in (_QUOTE, _BACKSLASH, _COMMA, _NEWLINE):
        mask |= d == c
    pos = np.flatnonzero(mask)
    return pos, d[pos]


def _real_quotes(pos: np.ndarray, byte: np.ndarray) -> np.ndarray:
    """Mask over the structural bytes: quotes that open or close a string
    under the reference scanner.

    A quote after an even backslash run always toggles the string state. One
    after an odd run leaves the scanner inside a string either way: outside,
    the backslashes are plain bytes and the quote opens a string; inside, the
    quote is escaped. So it is real exactly when the toggles since the
    previous odd-run quote (which left the scanner inside) leave it outside.
    """
    quote = byte == _QUOTE
    bs_at = np.flatnonzero(byte == _BACKSLASH)
    if not len(bs_at):
        return quote
    q_at = np.flatnonzero(quote)
    # Backslashes are structural bytes, so the run before a quote is the
    # sparse entries just before it, while their positions stay adjacent.
    bs_pos = pos[bs_at]
    run_starts = np.diff(bs_pos, prepend=-2) != 1
    run_first = bs_pos[run_starts][np.cumsum(run_starts) - 1]
    before = q_at - 1
    after_bs = (before >= 0) & (byte[before] == _BACKSLASH) & (pos[before] == pos[q_at] - 1)
    run_len = pos[q_at[after_bs]] - run_first[np.searchsorted(bs_at, before[after_bs])]
    odd = np.zeros(len(q_at), dtype=bool)
    odd[after_bs] = (run_len & 1) == 1
    odd_at = np.flatnonzero(odd)
    toggles = np.cumsum(~odd, dtype=np.int64)[odd_at]
    # The first odd-run quote starts from outside, not inside: one toggle off.
    since = toggles - np.concatenate(([1], toggles[:-1]))
    real = ~odd
    real[odd_at[(since & 1) == 1]] = True
    quote[q_at[~real]] = False
    return quote


def build_scan_index(data: bytes, depth: int = 0) -> ScanIndex:
    """Structural index of a buffer, equal to `scanner.iter_events` and
    `scanner.segment_records` on every input.

    With `depth` > 0 the buffer starts inside a bracketed record, that many
    levels deep, outside any string: its first record continues that one
    from position 0.
    """
    d = np.frombuffer(data, dtype=np.uint8)
    n = len(d)
    pos, byte = _structural_bytes(d)
    # The string state after each entry, which for a non-quote entry is also
    # the state at its byte: keep the brackets, commas and newlines outside.
    in_string = np.logical_xor.accumulate(_real_quotes(pos, byte))
    eof_in_string = bool(len(pos) and in_string[-1])
    at = np.flatnonzero(~in_string & (byte != _QUOTE) & (byte != _BACKSLASH))
    pos, byte = pos[at], byte[at]

    folded = byte | 0x20
    is_open = folded == _OPEN
    is_close = folded == _CLOSE
    nesting = np.cumsum(is_open.view(np.int8) - is_close.view(np.int8), dtype=np.int64)
    nesting += depth
    underflow = _EMPTY
    if len(nesting) and int(nesting.min()) < 0:
        # A close at level 0 is plain content: clamp the depth at zero.
        floor = np.minimum(np.minimum.accumulate(nesting), 0)
        dropped = np.flatnonzero(np.diff(floor, prepend=0))
        nesting -= floor
        is_close[dropped] = False
        underflow = pos[dropped]
    bracket_at = np.flatnonzero(is_open | is_close)
    is_comma = byte == _COMMA
    open_pos = pos[is_open]
    top_opens = pos[is_open & (nesting == 1)]
    end_positions = pos[is_close & (nesting == 0)]
    line_ends = np.append(pos[(byte == _NEWLINE) & (nesting == 0)], n)

    # Records: split into lines at depth-0 newlines. On each line, depth-0
    # opens start bracketed records until the first depth-0 byte that is
    # neither whitespace nor an open; that byte starts a scalar record which
    # runs to the line's end. Depth-0 bytes lie in the gaps before each
    # top-level open and after each return to depth 0; a continued record
    # leaves no gap before its end.
    gap_starts = end_positions + 1 if depth else np.concatenate(([0], end_positions + 1))
    gap_ends = np.append(top_opens, n)[: len(gap_starts)]
    gap = _expand(gap_starts, gap_ends - gap_starts)
    scalar = gap[~np.isin(d[gap], _WHITESPACE)]
    scalar_line = np.searchsorted(line_ends, scalar)
    first = np.diff(scalar_line, prepend=-1) != 0
    scalar, scalar_line = scalar[first], scalar_line[first]
    scalar_ends = line_ends[scalar_line]
    scalar_malformed = np.searchsorted(underflow, scalar_ends) > np.searchsorted(underflow, scalar)
    if eof_in_string:
        scalar_malformed |= scalar_ends == n  # ends at EOF inside a string

    line_scalar = np.full(len(line_ends), n, dtype=np.int64)
    line_scalar[scalar_line] = scalar
    bracketed = top_opens[top_opens < line_scalar[np.searchsorted(line_ends, top_opens)]]
    if depth:
        bracketed = np.concatenate(([0], bracketed))
    close_at = np.searchsorted(end_positions, bracketed)
    unclosed = close_at == len(end_positions)
    bracketed_ends = np.where(unclosed, n, np.append(end_positions, n)[close_at] + 1)

    rec_starts = np.concatenate((bracketed, scalar))
    order = np.argsort(rec_starts, kind="stable")
    return ScanIndex(
        raw=data,
        data=d,
        brackets=np.concatenate(([-1], pos[bracket_at])),
        depth=np.concatenate(([depth], nesting[bracket_at])),
        open_pos=open_pos,
        commas=pos[is_comma],
        comma_level=nesting[is_comma],
        rec_starts=rec_starts[order],
        rec_ends=np.concatenate((bracketed_ends, scalar_ends))[order],
        rec_malformed=np.concatenate((unclosed, scalar_malformed))[order],
        scanned_bytes=n,
    )


# --- primitive fires ----------------------------------------------------------


def _occurrences(data: np.ndarray, pattern: bytes) -> np.ndarray:
    """Start positions of every occurrence of a pattern, overlapping ones
    included: the first-byte matches, kept while each following byte matches."""
    at = np.flatnonzero(data[: max(len(data) - len(pattern) + 1, 0)] == pattern[0])
    for j in range(1, len(pattern)):
        at = at[data[at + j] == pattern[j]]
    return at


def _exact_fire_positions(index: ScanIndex, pattern: bytes) -> np.ndarray:
    """End positions of exact occurrences fully inside one record."""
    ends = _occurrences(index.data, pattern) + (len(pattern) - 1)
    start = index.record_start_of(ends)
    return ends[(start >= 0) & (ends - (len(pattern) - 1) >= start)]


def _gram_hit_mask(index: ScanIndex, pattern: bytes, block: int) -> np.ndarray:
    """Per byte: the block-byte window ending there is one of the pattern's grams."""
    d = index.data
    n = len(d)
    grams = build_substring_set(pattern, block)
    if block == 1:
        table = bytearray(256)
        for g in grams:
            table[g[0]] = 1
        return np.frombuffer(index.raw.translate(table), dtype=bool)
    hit = np.zeros(n, dtype=bool)
    if block == 2 and n >= 2:
        table = np.zeros(1 << 16, dtype=bool)
        table[[(g[0] << 8) | g[1] for g in grams]] = True
        hit[1:] = table[(d[:-1].astype(np.uint16) << 8) | d[1:]]
    elif block > 2:
        for g in grams:
            hit[_occurrences(d, g) + (block - 1)] = True
    return hit


def string_fire_positions(index: ScanIndex, pattern: bytes, block: int) -> np.ndarray:
    """Positions where the block matcher's run counter sits at threshold."""
    block = resolve_block_len(pattern, block)
    if block == len(pattern):
        return _exact_fire_positions(index, pattern)
    threshold = len(pattern) - block + 1
    starts, ends = _runs(_gram_hit_mask(index, pattern, block))
    # Only a run of at least `threshold` hits can fire, from its
    # threshold-th hit to its end.
    long = ends - starts >= threshold
    run_starts, ends = starts[long], ends[long]
    firsts = run_starts + (threshold - 1)
    pos = _expand(firsts, ends - firsts)
    run_starts = np.repeat(run_starts, ends - firsts)
    # The counter restarts at the record start, and the first block - 1
    # bytes of a record end no window that lies inside it.
    start = index.record_start_of(pos)
    barrier = np.maximum(run_starts - 1, start + (block - 2))
    return pos[(start >= 0) & (pos - barrier >= threshold)]


def number_fire_positions(index: ScanIndex, rdfa: RangeDfa):
    """(fire offsets, attribution positions of the tokens' last digits, the
    tokens' records)."""
    _, ends, last_digit, heuristic, record = index.numeric_tokens()
    order, firsts, columns, tails = index.token_columns()
    # Lockstep the DFA over all tokens at once, column by column: the state
    # of a token is a row of the byte-indexed table, row * 256 + byte its
    # cell. The dead row absorbs, so the walk ends once every token is in it.
    table = rdfa.table.ravel()
    dead = rdfa.dead
    states = np.zeros(len(order), dtype=np.intp)
    for lo, column in zip(firsts, columns):
        active = states[lo:]
        active <<= 8
        active += column
        states[lo:] = table[active]
        if states[lo:].min() == dead:
            break
    if tails:
        rows = rdfa.table.tolist()
        for i, tail in enumerate(tails, len(order) - len(tails)):
            state = int(states[i])
            for byte in tail:
                if state == dead:
                    break
                state = rows[state][byte]
            states[i] = state
    accept = np.zeros(len(order), dtype=bool)
    accept[order] = rdfa.accept_mask[states]
    fired = np.flatnonzero(accept | heuristic)
    return ends[fired] + 1, last_digit[fired], record[fired]


# --- cached per-primitive record results ---------------------------------------


@dataclass
class RecordCarry:
    """Filter state of a record cut at a safe point, carried into its next
    piece: per primitive (keyed as in `CorpusIndex`'s cache) its latch and,
    per conjunction mode, whether it fired in the scope (SCOPED) or segment
    (KEYVALUE) open at each level 1..depth of the cut; per SCOPED or
    KEYVALUE plan leaf its verdict so far."""

    latches: dict = field(default_factory=dict)  # primitive key -> bool
    open_fires: dict = field(default_factory=dict)  # (primitive key, mode) -> bool per open level
    verdicts: dict = field(default_factory=dict)  # PlanLeaf -> bool


class PrimitiveFires:
    """Per-record latch flags, and each fire's scope or segment for conjunction.

    When the index's first record continues a cut one, `carry` holds that
    record's state and `key` names this primitive in it.
    """

    def __init__(self, index: ScanIndex, attr_pos: np.ndarray, records: np.ndarray,
                 carry: RecordCarry | None = None, key=None):
        self._index = index
        self.positions = attr_pos  # where scope/segment attribution is taken
        self.records = records  # the kept record of each fire
        self.latch = np.zeros(index.n_records, dtype=bool)
        self.latch[records] = True
        self._carry, self.key = carry, key
        if carry is not None:
            self.latch[0] |= carry.latches[key]
        self._rows: dict = {}

    def rows(self, mode: Mode) -> np.ndarray:
        """Row of each fire in the index's start table of the mode, found on first use."""
        rows = self._rows.get(mode)
        if rows is None:
            rows = self._rows[mode] = self._index.start_rows(mode, self.positions)
        return rows

    def scopes(self, mode: Mode) -> np.ndarray:
        """Per row of the start table: a fire lies in that scope or segment,
        before the buffer's start too."""
        index = self._index
        seen = np.zeros(len(index.start_table(mode)), dtype=bool)
        seen[self.rows(mode)] = True
        if self._carry is not None:
            seen[index.open_rows(mode, 0, index.start_depth)] |= self._carry.open_fires[self.key, mode]
        return seen


class CorpusIndex:
    """Scanned corpus plus a cache of primitive fires and per-predicate
    accept vectors, shared by every configuration evaluated over it.

    `carry` is the state of the record that the index's first record
    continues, when the index is a piece of a stream cut inside a record.
    """

    def __init__(self, data: bytes, index: ScanIndex | None = None, carry: RecordCarry | None = None):
        self.index = index if index is not None else build_scan_index(data)
        self.carry = carry
        self._cache: dict = {}

    @property
    def n_records(self) -> int:
        return self.index.n_records

    def records(self) -> list[bytes]:
        return [self.index.raw[int(s) : int(e)] for s, e in zip(self.index.rec_starts, self.index.rec_ends)]

    def string_fires(self, pattern: bytes, block: int) -> PrimitiveFires:
        """Fires of the block matcher; ``block`` is resolved, as in a plan leaf."""
        key = ("s", pattern, block)
        if key not in self._cache:
            pos = string_fire_positions(self.index, pattern, block)
            self._cache[key] = PrimitiveFires(self.index, pos, self.index.record_of(pos), self.carry, key)
        return self._cache[key]

    def range_fires(self, bound) -> PrimitiveFires:
        key = ("v", bound)
        if key not in self._cache:
            rdfa = build_range_dfa(bound)
            fires = number_fire_positions(self.index, rdfa)[1:]
            self._cache[key] = PrimitiveFires(self.index, *fires, self.carry, key)
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
                string = self.string_fires(pred.pattern, block)
                if mode is Mode.FLAT:
                    vector = string.latch & value.latch
                else:
                    # SCOPED, KEYVALUE: a string fire that shares its scope or
                    # segment, a row of the start table, with a value fire.
                    marked = value.scopes(mode)
                    vector = np.zeros(self.n_records, dtype=bool)
                    vector[string.records[marked[string.rows(mode)]]] = True
                    if self.carry is not None:
                        # Or one before the buffer's start, in a scope still open.
                        rows = self.index.open_rows(mode, 0, self.index.start_depth)
                        before = self.carry.open_fires[string.key, mode] & marked[rows]
                        vector[0] |= self.carry.verdicts[leaf] or before.any()
            vector.flags.writeable = False
            self._cache[key] = vector
        return vector

    def carry_out(self, plan: Plan) -> RecordCarry:
        """The filter state of the index's cut last record, for its next piece."""
        index = self.index
        carry = RecordCarry()
        for leaf in plan_leaves(plan):
            pred, mode, block = leaf
            primitives = [self.range_fires(pred.bound)]
            if block is not None:
                primitives.append(self.string_fires(pred.pattern, block))
            for fires in primitives:
                carry.latches[fires.key] = bool(fires.latch[-1])
            if mode in (Mode.SCOPED, Mode.KEYVALUE):
                carry.verdicts[leaf] = bool(self.predicate_vector(leaf)[-1])
                rows = index.open_rows(mode, int(index.rec_ends[-1]), index.cut_depth)
                for fires in primitives:
                    carry.open_fires[fires.key, mode] = fires.scopes(mode)[rows]
        return carry


# --- config evaluation over a corpus -------------------------------------------


def plan_accepts(plan: Plan, leaf) -> np.ndarray:
    """AND/OR of per-leaf accept arrays over a plan. ``leaf`` returns a fresh,
    writable array per plan leaf and is called in plan-leaf order; bool
    vectors and packed bit matrices combine alike."""
    if isinstance(plan, PlanLeaf):
        return leaf(plan)
    combine = np.bitwise_and if isinstance(plan, PlanAnd) else np.bitwise_or
    out = plan_accepts(plan.children[0], leaf)
    for child in plan.children[1:]:
        combine(out, plan_accepts(child, leaf), out=out)
    return out


def evaluate_config_batch(corpus: CorpusIndex, plan: Plan) -> np.ndarray:
    """Fresh accept vector over all records for one plan, as
    `filter.validate_config` builds it from a query and a configuration."""
    return plan_accepts(plan, lambda leaf: corpus.predicate_vector(leaf).copy())


def primitive_fire_counts(corpus: CorpusIndex, plan: Plan) -> dict:
    """Records latched per primitive of a plan, keyed by notation; a record
    cut at the end of the buffer counts where it ends."""
    counts: dict[str, int] = {}
    n = corpus.index.n_ended
    for leaf in plan_leaves(plan):
        value = corpus.range_fires(leaf.pred.bound)
        counts[leaf.pred.bound.notation()] = int(value.latch[:n].sum())
        if leaf.block is not None:
            string = corpus.string_fires(leaf.pred.pattern, leaf.block)
            counts[string_notation(leaf)] = int(string.latch[:n].sum())
    return counts


# --- streaming over large inputs ------------------------------------------------


def iter_chunk_indexes(stream, chunk_bytes: int = 1 << 22, patterns=()):
    """Yield (ScanIndex, buffer) over the blocks of a stream.

    Holds one buffer: reads until it holds at least a block of
    `_BLOCK_BYTES` bytes (`chunk_bytes`, if that is less) or the stream
    ends, indexes it, yields the block and keeps the bytes past its end for
    the next one. A block's last record, which may go on past its end,
    starts the next block; a block with no record holds only blanks (a
    continued piece is its block's record 0), so it ends where it ends.

    A block that holds nothing but one unfinished bracketed record is cut
    just past a structural comma (`cut_last_record`), and the next
    block starts there, indexed at the cut's depth: a record longer than a
    block comes as pieces, the last record of one index and the first of
    the next. A block with no such comma (one huge string or number), a
    scalar record, and any record when one of the string `patterns` holds a
    comma (a run of gram hits or an occurrence could span the cut) grow to
    twice their length and are indexed again, so a huge record costs linear
    scanning. Each index's `scanned_bytes` counts those failed attempts too.
    """
    limit = min(_BLOCK_BYTES, chunk_bytes)
    cuts = not any(b"," in pattern for pattern in patterns)
    size, retried, depth = limit, 0, 0
    data, eof = b"", False
    while True:
        # Short reads are joined once per block, so filling it takes time
        # linear in the block, however small the reads.
        pieces, have = [data], len(data)
        while not eof and have < size:
            pieces.append(stream.read(size - have))
            have += len(pieces[-1])
            eof = not pieces[-1]
        data = b"".join(pieces)
        del pieces  # only the joined block stays
        if not data:
            break
        index = build_scan_index(data, depth)
        end = len(data)
        # At the end of the stream the block is the rest of it, and its last
        # record ends there.
        if not eof:
            if index.n_records == 1 and int(index.rec_ends[0]) == end:
                # One record that may go on: cut it, or grow the block.
                index = cut_last_record(index) if cuts else None
                if index is None:
                    retried += end
                    size = 2 * end
                    continue
                end = int(index.rec_ends[-1])
            elif index.n_records and int(index.rec_ends[-1]) == end:
                end = int(index.rec_starts[-1])
                index = drop_last_record(index)
        index.scanned_bytes += retried
        buffer, data = data[:end], data[end:]
        size, retried, depth = limit, 0, index.cut_depth
        yield index, buffer
        # Hold no reference while the next block is indexed, so a consumer
        # that drops its own frees this one first.
        del index, buffer
