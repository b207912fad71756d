"""Single-pass structural annotation of JSON byte streams.

Annotates every byte with a string-mask bit, the nesting level, the identity
of the innermost enclosing bracket scope, the comma-segment ordinal inside
that scope, and record boundaries. Brackets and commas that appear inside
string literals never alter structure; escape sequences are tracked so that
an escaped quote does not terminate a string.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

_OPEN = frozenset(b"{[")
_CLOSE = frozenset(b"}]")
_QUOTE = ord('"')
_BACKSLASH = ord("\\")
_COMMA = ord(",")
_RECORD_WS = frozenset(b" \t\r\n")


@dataclass
class ScanEvent:
    """Annotation for one byte of the stream.

    in_string marks string content bytes and the closing quote; the opening
    quote is not marked, so `in_string == False` is exactly the "this byte may
    be structural" condition. For an opening bracket `level`/`scope_id`
    describe the scope it creates; for a closing bracket they describe the
    scope it closes.
    """

    byte: int
    offset: int
    in_string: bool
    level: int
    scope_id: int
    segment: int
    structural_comma: bool = False
    record_end: bool = False


@dataclass
class ScannerState:
    """Mutable per-stream scanner state. One instance per byte stream."""

    in_string: bool = False
    escape_pending: bool = False
    nesting_level: int = 0
    # One (scope_id, commas_seen) entry per open bracket.
    scope_stack: list = field(default_factory=list)
    byte_offset: int = 0
    malformed: bool = False
    next_scope_id: int = 1
    top_level_commas: int = 0


@dataclass(frozen=True)
class RecordSpan:
    """Half-open byte range [start, end) of one record in a stream."""

    start: int
    end: int
    malformed: bool = False

    def slice(self, data: bytes) -> bytes:
        return data[self.start : self.end]


def scan_byte(state: ScannerState, b: int) -> ScanEvent:
    """Consume one byte, returning its annotation and advancing the state.

    Total over all octets; structural underflow (a close bracket at level 0)
    sets `state.malformed`, leaves the level at 0 and treats the byte as
    plain content so that non-JSON input still streams through.
    """
    offset = state.byte_offset
    state.byte_offset = offset + 1
    level = state.nesting_level
    scope_id = state.scope_stack[-1][0] if state.scope_stack else 0
    segment = state.scope_stack[-1][1] if state.scope_stack else state.top_level_commas

    if state.in_string:
        if state.escape_pending:
            # Byte is consumed by the escape, whatever it is.
            state.escape_pending = False
        elif b == _BACKSLASH:
            state.escape_pending = True
        elif b == _QUOTE:
            state.in_string = False
        # Closing quote and content bytes are all string-interior.
        return ScanEvent(b, offset, True, level, scope_id, segment)

    if b == _QUOTE:
        state.in_string = True
        return ScanEvent(b, offset, False, level, scope_id, segment)

    if b in _OPEN:
        new_id = state.next_scope_id
        state.next_scope_id = new_id + 1
        state.scope_stack.append([new_id, 0])
        state.nesting_level = level + 1
        return ScanEvent(b, offset, False, level + 1, new_id, 0)

    if b in _CLOSE:
        if not state.scope_stack:
            state.malformed = True
            return ScanEvent(b, offset, False, 0, 0, segment)
        state.scope_stack.pop()
        state.nesting_level = level - 1
        # Level-0 commas keep counting: inside a scalar record this close ends
        # no record, and each record is filtered from a fresh state.
        record_end = state.nesting_level == 0
        return ScanEvent(b, offset, False, level, scope_id, segment, record_end=record_end)

    if b == _COMMA:
        # The comma belongs to the segment it terminates.
        if state.scope_stack:
            state.scope_stack[-1][1] += 1
        else:
            state.top_level_commas += 1
        return ScanEvent(b, offset, False, level, scope_id, segment, structural_comma=True)

    return ScanEvent(b, offset, False, level, scope_id, segment)


def iter_events(data: bytes, state: ScannerState | None = None) -> Iterator[ScanEvent]:
    """Scan a byte string, yielding one event per byte."""
    if state is None:
        state = ScannerState()
    for b in data:
        yield scan_byte(state, b)


def segment_records(stream: bytes | Iterable[int]) -> list[RecordSpan]:
    """Split a stream into record spans.

    A record is a top-level bracket-balanced region; inter-record whitespace
    (including NDJSON newlines) belongs to no span. A top-level scalar (no
    opening bracket) runs to the next unmasked newline or end of input. An
    unclosed trailing record yields a final span flagged malformed; callers
    must still filter it, never drop it.
    """
    data = bytes(stream)
    state = ScannerState()
    spans: list[RecordSpan] = []
    start = None  # offset of the current span, None when between records
    bracketed = False

    for ev in iter_events(data, state):
        if start is None:
            if ev.byte in _RECORD_WS and not ev.in_string:
                continue
            start = ev.offset
            bracketed = ev.level > 0 and not ev.in_string and ev.byte in _OPEN
        if bracketed:
            if ev.record_end:
                spans.append(RecordSpan(start, ev.offset + 1, state.malformed))
                state.malformed = False
                start = None
        elif ev.byte == ord("\n") and not ev.in_string and ev.level == 0:
            spans.append(RecordSpan(start, ev.offset, state.malformed))
            state.malformed = False
            start = None

    if start is not None:
        tail_malformed = bracketed or state.in_string or state.malformed
        spans.append(RecordSpan(start, len(data), tail_malformed))
    return spans
