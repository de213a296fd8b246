"""Regular-language operators: per-length lexicographic minima, conjugate
closure, and the completion language used by the distinct-conjugates
procedure.
"""
from __future__ import annotations

from .automata import EPSILON, Dfa, Nfa, Word, _explore
from .words import primitive_root


def lexleast(m: Dfa) -> Dfa:
    """Keep, for each length, the lexicographically least accepted word.

    Product states (q, S): q tracks the run of the word read so far, S the
    set of states reachable by strictly smaller words of the same length.
    A smaller word stays smaller whatever follows, so on symbol a the S
    component steps by every symbol and picks up delta(q, b) for each b < a;
    accept iff q is final and S contains no final state.  Only reachable
    (q, S) pairs are materialized.
    """
    def successors(key):
        q, smaller = key
        stepped = {m.delta[(s, sigma)] for s in smaller for sigma in m.alphabet}
        for symbol in m.alphabet:
            nxt = m.delta[(q, symbol)]
            yield symbol, (nxt, frozenset(stepped))
            stepped.add(nxt)

    order, delta = _explore([(m.start, frozenset())], successors)
    finals = {i for i, (q, smaller) in enumerate(order)
              if q in m.finals and not smaller & m.finals}
    return Dfa(m.alphabet, range(len(order)), 0, finals, delta)


def cyc(m: Dfa) -> Nfa:
    """Closure of L(m) under cyclic shifts: accepts vu whenever uv is accepted.

    Nondeterministically guess the pivot state q reached by u; phase 1 runs v
    from q to a final state, then a spontaneous move restarts at the real
    start state, and phase 2 runs u back to the guessed q.  States are
    (pivot, current, phase) triples, reachable ones only.  The empty word is
    accepted exactly when m accepts it.
    """
    def successors(state):
        pivot, cur, phase = state
        for symbol in m.alphabet:
            yield symbol, (pivot, m.delta[(cur, symbol)], phase)
        if phase == 1 and cur in m.finals:
            yield EPSILON, (pivot, m.start, 2)

    pivots = sorted(m.states)
    order, delta = _explore([(p, p, 1) for p in pivots], successors)
    finals = {i for i, (pivot, cur, phase) in enumerate(order)
              if phase == 2 and cur == pivot}
    transitions = {(i, label, j) for (i, label), j in delta.items()}
    return Nfa(m.alphabet, range(len(order)), range(len(pivots)), finals, transitions)


def _completion_successors(m: Dfa, root: Word):
    # Edges on (after-state, before-state, root-position) triples: both
    # state components step by the same symbol, and the position tracks a
    # complete DFA for root*, whose position len(root) is the dead state.
    dead = len(root)

    def successors(key):
        after, before, i = key
        for symbol in m.alphabet:
            j = (i + 1) % dead if i < dead and symbol == root[i] else dead
            yield symbol, (m.delta[(after, symbol)], m.delta[(before, symbol)], j)
    return successors


def distinct_conjugate_completions(m: Dfa, x: Word) -> Dfa:
    """Language of y with xy and yx both accepted and xy != yx.

    States are (after, before, position) triples: m run from the state
    reached on x, m run from the start with finals redefined to the states
    that reach a final via x, and a position in t* for t the primitive root
    of x (commuting with x means being a power of its root, so a final
    triple must have left t*).  Reachable triples only.
    """
    x = tuple(x)
    if not x:
        raise ValueError("x must be nonempty")
    for symbol in x:
        if symbol not in m._index:
            raise ValueError(f"symbol {symbol!r} not in the automaton's alphabet")
    before_finals = {q for q in m.states if m.run(q, x) in m.finals}
    root, _ = primitive_root(x)
    order, delta = _explore([(m.run(m.start, x), m.start, 0)],
                            _completion_successors(m, root))
    finals = {i for i, (after, before, pos) in enumerate(order)
              if after in m.finals and before in before_finals and pos != 0}
    return Dfa(m.alphabet, range(len(order)), 0, finals, delta)
