"""Small finite-automata toolkit over symbolic alphabets.

Deterministic automata with partition-refinement minimization, plus the
product traversals (language equivalence, intersection) that tests check
constructions against. The alphabet is any hashable symbol set; range
filters use single characters ('0'..'9', '.', '-', '+', 'e').
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass
class Dfa:
    """Deterministic automaton; missing transitions are an implicit dead sink.

    States are 0..n_states-1 with start state 0 after construction here.
    `n_states` counts live states only (the dead sink is never materialized),
    which is also the state count reported for resource estimation.
    """

    alphabet: tuple
    n_states: int
    transitions: list  # list of dict symbol -> state
    accepting: list  # list of bool

    @property
    def start(self) -> int:
        return 0

    def step(self, state: int | None, symbol) -> int | None:
        if state is None:
            return None
        return self.transitions[state].get(symbol)

    def accepts(self, word) -> bool:
        state: int | None = 0
        for sym in word:
            state = self.step(state, sym)
            if state is None:
                return False
        return bool(self.accepting[state])


def minimize(dfa: Dfa) -> Dfa:
    """Moore partition refinement over the completed automaton.

    The implicit dead sink takes part in refinement (so states equivalent to
    it are dropped) but is removed again from the result.
    """
    n = dfa.n_states
    dead = n  # virtual sink index
    # block id per state; initial split: accepting / rejecting (sink rejects)
    block = [1 if acc else 0 for acc in dfa.accepting] + [0]

    def dest(state: int, sym) -> int:
        if state == dead:
            return dead
        return dfa.transitions[state].get(sym, dead)

    while True:
        signature = {}
        new_block = [0] * (n + 1)
        for s in range(n + 1):
            sig = (block[s],) + tuple(block[dest(s, sym)] for sym in dfa.alphabet)
            if sig not in signature:
                signature[sig] = len(signature)
            new_block[s] = signature[sig]
        if new_block == block:
            break
        block = new_block

    dead_block = block[dead]
    # Renumber blocks so the start block is 0, skipping the dead block.
    remap = {}
    order = [block[0]] + [b for b in block[:n] if b != block[0]]
    for b in order:
        if b != dead_block and b not in remap:
            remap[b] = len(remap)

    transitions: list[dict] = [{} for _ in range(len(remap))]
    accepting = [False] * len(remap)
    for s in range(n):
        b = block[s]
        if b == dead_block:
            continue
        src = remap[b]
        accepting[src] = dfa.accepting[s]
        for sym in dfa.alphabet:
            d = dest(s, sym)
            if block[d] != dead_block:
                transitions[src][sym] = remap[block[d]]
    if block[0] == dead_block:
        # Empty language: keep a single rejecting state so start exists.
        return Dfa(dfa.alphabet, 1, [{}], [False])
    return Dfa(dfa.alphabet, len(remap), transitions, accepting)


def equivalent(a: Dfa, b: Dfa) -> bool:
    """Language equality via BFS over the product, dead sinks included."""
    alphabet = tuple(dict.fromkeys(a.alphabet + b.alphabet))
    seen = {(0, 0)}
    queue = deque([(0, 0)])
    while queue:
        sa, sb = queue.popleft()
        acc_a = sa is not None and a.accepting[sa]
        acc_b = sb is not None and b.accepting[sb]
        if acc_a != acc_b:
            return False
        for sym in alphabet:
            pair = (a.step(sa, sym), b.step(sb, sym))
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return True


def intersect(a: Dfa, b: Dfa) -> Dfa:
    """Product automaton accepting the intersection of both languages."""
    alphabet = tuple(dict.fromkeys(a.alphabet + b.alphabet))
    index = {(0, 0): 0}
    transitions: list[dict] = [{}]
    accepting = [bool(a.accepting[0] and b.accepting[0])]
    queue = deque([(0, 0)])
    while queue:
        sa, sb = queue.popleft()
        src = index[(sa, sb)]
        for sym in alphabet:
            ta, tb = a.step(sa, sym), b.step(sb, sym)
            if ta is None or tb is None:
                continue
            if (ta, tb) not in index:
                index[(ta, tb)] = len(index)
                transitions.append({})
                accepting.append(bool(a.accepting[ta] and b.accepting[tb]))
                queue.append((ta, tb))
            transitions[src][sym] = index[(ta, tb)]
    return Dfa(alphabet, len(index), transitions, accepting)
