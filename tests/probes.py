"""Checks on compiled structures that no executor reads: a range DFA's
verdict on one whole token, and the string state at chosen positions and
the record spans of an indexed buffer."""

import numpy as np

from rawfilter.batch import ScanIndex, _real_quotes, _structural_bytes
from rawfilter.ranges import RangeDfa
from rawfilter.scanner import RecordSpan


def accepts_token(dfa: RangeDfa, token: str | bytes) -> bool:
    """DFA verdict on one complete token (no exponent heuristic)."""
    if isinstance(token, str):
        token = token.encode()
    state = 0
    for b in token:
        state = dfa.table[state, b]
    return bool(dfa.accept_mask[state])


def in_string_at(index: ScanIndex, positions) -> np.ndarray:
    """`scanner.ScanEvent.in_string` at each position, from the quotes of the
    index's buffer."""
    pos, byte = _structural_bytes(index.data)
    quotes = pos[_real_quotes(pos, byte)]
    return (np.searchsorted(quotes, np.asarray(positions, dtype=np.int64)) & 1) == 1


def spans(index: ScanIndex) -> list[RecordSpan]:
    """The index's kept records, as `scanner.segment_records` gives them."""
    return [
        RecordSpan(int(s), int(e), bool(m))
        for s, e, m in zip(index.rec_starts, index.rec_ends, index.rec_malformed)
    ]
