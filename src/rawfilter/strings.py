"""String-search primitives over raw byte streams.

Two matchers for a pattern of N bytes:

* ``SubstringBlockMatcher``: keeps only the last B bytes and counts
  consecutive hits against the set of all B-byte substrings of the
  pattern; a run of N-B+1 hits signals a (possible) occurrence. B=N is the
  exact full compare: one N-byte window, one gram, threshold 1.
* ``ExactMatcher``: a failure-function automaton with N+1 states, one byte
  per step; it fires on the same bytes as the B=N block matcher.

All matchers are structure-agnostic: they consume every byte of a record,
including quotes and structural characters. Composition decides what a
fire means.
"""

from __future__ import annotations

from .errors import ConfigError


def build_substring_set(pattern: bytes | str, block_len: int) -> set[bytes]:
    """All distinct contiguous substrings of length ``block_len``."""
    if isinstance(pattern, str):
        pattern = pattern.encode()
    n = len(pattern)
    if n < 1:
        raise ConfigError("pattern must be non-empty")
    if not 1 <= block_len <= n:
        raise ConfigError(f"block length {block_len} out of range for N={n}")
    return {pattern[i : i + block_len] for i in range(n - block_len + 1)}


def resolve_block_len(pattern: bytes | str, block: int | str) -> int:
    """Map the symbolic block choice 'N' to the pattern length in UTF-8 bytes.
    An empty pattern has no block length, 'N' included."""
    n = len(pattern.encode() if isinstance(pattern, str) else pattern)
    block = n if block == "N" else int(block)
    if not 1 <= block <= n:
        raise ConfigError(f"block length {block} out of range for N={n}")
    return block


class SubstringBlockMatcher:
    """B-byte block matcher with run counter and threshold N-B+1.

    The counter saturates at the threshold, so extended hit runs keep
    signaling; ``latched`` stays set until the next record reset. No
    membership test happens until the ring holds B bytes.
    """

    def __init__(self, pattern: bytes | str, block_len: int):
        if isinstance(pattern, str):
            pattern = pattern.encode()
        self.pattern = pattern
        self.block_len = block_len
        self.gram_set = build_substring_set(pattern, block_len)
        self.threshold = len(pattern) - block_len + 1
        self._ring = bytearray()
        self.run_counter = 0
        self.latched = False

    def step(self, event) -> bool:
        ring = self._ring
        ring.append(event.byte)
        if len(ring) > self.block_len:
            del ring[0]
        elif len(ring) < self.block_len:
            return False
        if bytes(ring) in self.gram_set:
            if self.run_counter < self.threshold:
                self.run_counter += 1
        else:
            self.run_counter = 0
        fired = self.run_counter >= self.threshold
        self.latched |= fired
        return fired

    def reset(self) -> None:
        self._ring.clear()
        self.run_counter = 0
        self.latched = False


class ExactMatcher:
    """Exact suffix matcher; fires on every byte ending an occurrence."""

    def __init__(self, pattern: bytes | str):
        if isinstance(pattern, str):
            pattern = pattern.encode()
        if not pattern:
            raise ConfigError("pattern must be non-empty")
        self.pattern = pattern
        self.latched = False
        self._failure = self._build_failure(pattern)
        self._state = 0

    @staticmethod
    def _build_failure(pattern: bytes) -> list[int]:
        fail = [0] * len(pattern)
        k = 0
        for i in range(1, len(pattern)):
            while k and pattern[i] != pattern[k]:
                k = fail[k - 1]
            if pattern[i] == pattern[k]:
                k += 1
            fail[i] = k
        return fail

    def step(self, event) -> bool:
        b = event.byte
        pattern = self.pattern
        state = self._state
        while state and b != pattern[state]:
            state = self._failure[state - 1]
        if b == pattern[state]:
            state += 1
        fired = state == len(pattern)
        if fired:
            state = self._failure[state - 1]
        self._state = state
        self.latched |= fired
        return fired

    def reset(self) -> None:
        self.latched = False
        self._state = 0


def make_string_matcher(pattern: bytes | str, block_len: int):
    """Matcher for a concrete block length; B == N uses the exact matcher."""
    if isinstance(pattern, str):
        pattern = pattern.encode()
    block_len = resolve_block_len(pattern, block_len)
    if block_len == len(pattern):
        return ExactMatcher(pattern)
    return SubstringBlockMatcher(pattern, block_len)
