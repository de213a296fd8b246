"""Finite automata over ordered alphabets of atoms and atom pairs.

A symbol is either an atom (a non-empty string without whitespace) or an
ordered pair of atoms; pair symbols carry the two tracks of a convolved word
and are written ``x|y`` in the text format.  Every automaton stores its
alphabet as a tuple, and that declaration order is the total order used by
every lexicographic operation (shortest-word tie breaks, lexleast, witness
ordering).  Automata are immutable once constructed; all operations here are
pure and return fresh values, so sharing across threads is safe.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Union

Atom = str
Symbol = Union[str, tuple]
Word = tuple

#: Transition label standing for a spontaneous move.
EPSILON = None

_FORBIDDEN_CHARS = set("|#")


def check_atom(atom: object) -> Atom:
    """Validate a plain atom and return it."""
    if not isinstance(atom, str) or not atom:
        raise ValueError(f"atom must be a non-empty string, got {atom!r}")
    if atom == "@":
        raise ValueError("'@' is reserved for epsilon in the text format")
    if any(ch.isspace() or ch in _FORBIDDEN_CHARS for ch in atom):
        raise ValueError(f"atom {atom!r} contains whitespace or a reserved character")
    return atom


def check_symbol(symbol: object) -> Symbol:
    """Validate an atom or pair symbol and return it."""
    if isinstance(symbol, tuple):
        if len(symbol) != 2:
            raise ValueError(f"pair symbol must have exactly two components: {symbol!r}")
        check_atom(symbol[0])
        check_atom(symbol[1])
        return symbol
    return check_atom(symbol)


def pair_alphabet(base: Iterable[Atom]) -> tuple:
    """All ordered pairs over ``base``, in product order of the base order."""
    atoms = tuple(check_atom(a) for a in base)
    if len(set(atoms)) != len(atoms):
        raise ValueError("base alphabet has duplicate atoms")
    return tuple(itertools.product(atoms, atoms))


def _check_alphabet(alphabet: Iterable[Symbol]) -> tuple:
    symbols = tuple(alphabet)
    for s in symbols:
        check_symbol(s)
    if len(set(symbols)) != len(symbols):
        raise ValueError("alphabet has duplicate symbols")
    return symbols


class Nfa:
    """Nondeterministic finite automaton, possibly with epsilon moves.

    ``transitions`` is a set of ``(state, label, state)`` triples where a
    label is an alphabet symbol or :data:`EPSILON`.  State ids are opaque
    integers.
    """

    __slots__ = ("alphabet", "states", "start", "finals", "transitions",
                 "_moves", "_eps", "_start_closure", "_index")

    def __init__(self, alphabet, states, start, finals, transitions):
        self.alphabet = _check_alphabet(alphabet)
        self.states = frozenset(states)
        self.start = frozenset(start)
        self.finals = frozenset(finals)
        self.transitions = frozenset(transitions)
        if not all(isinstance(q, int) for q in self.states):
            raise ValueError("state ids must be integers")
        if not self.start <= self.states:
            raise ValueError("start states not declared")
        if not self.finals <= self.states:
            raise ValueError("final states not declared")
        symbols = set(self.alphabet)
        moves: dict = {}
        eps: dict = {}
        for (src, label, dst) in self.transitions:
            if src not in self.states or dst not in self.states:
                raise ValueError(f"transition {(src, label, dst)!r} uses an undeclared state")
            if label is EPSILON:
                eps.setdefault(src, set()).add(dst)
            elif label in symbols:
                moves.setdefault((src, label), set()).add(dst)
            else:
                raise ValueError(f"transition label {label!r} not in alphabet")
        self._moves = {k: frozenset(v) for k, v in moves.items()}
        self._eps = {k: frozenset(v) for k, v in eps.items()}
        self._index = {s: i for i, s in enumerate(self.alphabet)}
        self._start_closure = self.closure(self.start)

    def closure(self, subset: Iterable[int]) -> frozenset:
        """Epsilon closure of a set of states."""
        seen = set(subset)
        todo = list(seen)
        while todo:
            q = todo.pop()
            for r in self._eps.get(q, ()):
                if r not in seen:
                    seen.add(r)
                    todo.append(r)
        return frozenset(seen)

    def _after(self, state: int, symbol: Symbol) -> frozenset:
        """The closed set of states one ``symbol`` move leads to from ``state``."""
        return self.closure(self._moves.get((state, symbol), ()))

    def step(self, subset: frozenset, symbol: Symbol) -> frozenset:
        """One closed transition step on a closed subset."""
        out = set()
        for q in subset:
            out |= self._moves.get((q, symbol), frozenset())
        return self.closure(out)

    def accepts(self, word: Iterable[Symbol]) -> bool:
        current = self._start_closure
        for symbol in word:
            if symbol not in self._index:
                raise ValueError(f"symbol {symbol!r} not in alphabet")
            current = self.step(current, symbol)
        return bool(current & self.finals)

    def __repr__(self):
        return (f"Nfa(states={len(self.states)}, alphabet={len(self.alphabet)}, "
                f"finals={len(self.finals)})")


class Dfa:
    """Complete deterministic finite automaton.

    ``delta`` must be a total function on states x alphabet; completeness is
    what makes :func:`complement` a plain final-flip.
    """

    __slots__ = ("alphabet", "states", "start", "finals", "delta", "_index")

    def __init__(self, alphabet, states, start, finals, delta):
        self.alphabet = _check_alphabet(alphabet)
        self.states = frozenset(states)
        self.start = start
        self.finals = frozenset(finals)
        self.delta = dict(delta)
        if not all(isinstance(q, int) for q in self.states):
            raise ValueError("state ids must be integers")
        if start not in self.states:
            raise ValueError("start state not declared")
        if not self.finals <= self.states:
            raise ValueError("final states not declared")
        for q in self.states:
            for s in self.alphabet:
                if (q, s) not in self.delta:
                    raise ValueError(f"delta is not total: missing ({q!r}, {s!r})")
                if self.delta[(q, s)] not in self.states:
                    raise ValueError(f"delta target {self.delta[(q, s)]!r} not declared")
        if len(self.delta) != len(self.states) * len(self.alphabet):
            extra = set(self.delta) - {(q, s) for q in self.states for s in self.alphabet}
            raise ValueError(f"delta has entries outside states x alphabet: {sorted(map(repr, extra))[:3]}")
        self._index = {s: i for i, s in enumerate(self.alphabet)}

    def run(self, state: int, word: Iterable[Symbol]) -> int:
        for symbol in word:
            state = self.delta[(state, symbol)]
        return state

    def accepts(self, word: Iterable[Symbol]) -> bool:
        state = self.start
        for symbol in word:
            if symbol not in self._index:
                raise ValueError(f"symbol {symbol!r} not in alphabet")
            state = self.delta[(state, symbol)]
        return state in self.finals

    def to_nfa(self) -> Nfa:
        transitions = {(q, s, r) for (q, s), r in self.delta.items()}
        return Nfa(self.alphabet, self.states, {self.start}, self.finals, transitions)

    def __repr__(self):
        return (f"Dfa(states={len(self.states)}, alphabet={len(self.alphabet)}, "
                f"finals={len(self.finals)})")


def _explore(starts, successors):
    """Number keys breadth-first from ``starts``, in discovery order.

    ``successors(key)`` gives the ``(label, key)`` pairs leaving a key, in
    alphabet order.
    Returns ``(order, delta)``: ``order[i]`` is the key with id ``i`` and
    ``delta[(i, label)]`` the id its ``label`` edge leads to.  Every
    construction numbers its states through here, which is what makes an
    emitted automaton depend only on its inputs.
    """
    order = list(starts)
    ids = {key: i for i, key in enumerate(order)}
    delta = {}
    for i, key in enumerate(order):  # order doubles as the queue
        for label, nxt in successors(key):
            j = ids.get(nxt)
            if j is None:
                j = ids[nxt] = len(order)
                order.append(nxt)
            delta[(i, label)] = j
    return order, delta


def _search(starts, successors, is_goal, max_depth=None, labels=()):
    """Length-then-lex least path from ``starts`` to a key with ``is_goal``.

    Walks breadth-first, testing the start keys first and every other key
    as it is discovered, and returns the labels of the path to the first
    goal found, or None; no start keys means no path.  ``max_depth`` caps
    the path length.  Keys that the same word first reaches form a group;
    the start keys are one.  A one-key group takes its edges in
    ``successors`` order, a larger one its keys' edges stably sorted by
    ``labels`` order (KeyError on a label not there), and the new keys one
    group reaches by one label form a group of the next level.  So when
    ``successors`` yields its ``(label, key)`` pairs in alphabet order, the
    order ``labels`` lists, each level stays ordered by word and the path
    is the length-then-lex least one, on nondeterministic edges too.  Any
    key of a group stands for the group in the parent links.
    """
    starts = list(dict.fromkeys(starts))
    if any(is_goal(key) for key in starts):
        return ()
    rank = {label: i for i, label in enumerate(labels)}
    parent = dict.fromkeys(starts)
    level = [starts] if starts else []
    depth = 0
    while level and (max_depth is None or depth < max_depth):
        depth += 1
        next_level = []
        for group in level:
            key = group[0]
            edges = successors(key) if len(group) == 1 else sorted(
                [edge for k in group for edge in successors(k)],
                key=lambda edge: rank[edge[0]])
            reached = {}
            for label, nxt in edges:
                if nxt in parent:
                    continue
                parent[nxt] = (key, label)
                if is_goal(nxt):
                    word = []
                    while parent[nxt] is not None:
                        nxt, label = parent[nxt]
                        word.append(label)
                    return tuple(reversed(word))
                reached.setdefault(label, []).append(nxt)
            next_level.extend(reached.values())
        level = next_level
    return None


def determinize(n: Nfa) -> Dfa:
    """Subset construction; reachable subsets only, complete via the empty sink."""
    order, delta = _explore(
        [n._start_closure],
        lambda subset: [(symbol, n.step(subset, symbol)) for symbol in n.alphabet])
    finals = {i for i, subset in enumerate(order) if subset & n.finals}
    return Dfa(n.alphabet, range(len(order)), 0, finals, delta)


_MODES = {
    "intersect": lambda fa, fb: fa and fb,
    "union": lambda fa, fb: fa or fb,
    "difference": lambda fa, fb: fa and not fb,
}


def _pair_successors(a: Dfa, b: Dfa):
    # Edges of the product of two complete DFAs, on (a-state, b-state) pairs.
    if a.alphabet != b.alphabet:
        raise ValueError(f"alphabet mismatch: {a.alphabet!r} vs {b.alphabet!r}")
    return lambda pair: [(s, (a.delta[(pair[0], s)], b.delta[(pair[1], s)]))
                         for s in a.alphabet]


def product(a: Dfa, b: Dfa, mode: str) -> Dfa:
    """Boolean combination of two complete DFAs over the same alphabet."""
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {sorted(_MODES)}, got {mode!r}")
    combine = _MODES[mode]
    order, delta = _explore([(a.start, b.start)], _pair_successors(a, b))
    finals = {i for i, (qa, qb) in enumerate(order)
              if combine(qa in a.finals, qb in b.finals)}
    return Dfa(a.alphabet, range(len(order)), 0, finals, delta)


def complement(a: Dfa) -> Dfa:
    """Flip acceptance of every word; sound because DFAs here are complete."""
    return Dfa(a.alphabet, a.states, a.start, a.states - a.finals, a.delta)


def is_empty(a) -> bool:
    """True iff the automaton accepts no word.  Plain graph reachability."""
    return shortest_word(a) is None


def shortest_word(a) -> Optional[Word]:
    """A minimum-length accepted word, lexicographically least among those.

    Walks the automaton's own states; an NFA's walk starts from its closed
    start set and moves to closed targets.  None on the empty language.
    """
    if isinstance(a, Dfa):
        return _search([a.start],
                       lambda q: [(s, a.delta[(q, s)]) for s in a.alphabet],
                       a.finals.__contains__)
    return _search(a._start_closure,
                   lambda q: [(s, r) for s in a.alphabet for r in a._after(q, s)],
                   a.finals.__contains__, labels=a.alphabet)


def is_subset(a: Dfa, b: Dfa):
    """Language inclusion test; on failure also returns a shortest word in a - b."""
    witness = _search([(a.start, b.start)], _pair_successors(a, b),
                      lambda pair: pair[0] in a.finals and pair[1] not in b.finals)
    return (witness is None, witness)


def minimize(d: Dfa) -> Dfa:
    """Optional normalization: drop unreachable states, merge equivalent ones.

    Moore partition refinement.  Never required for correctness anywhere in
    this package; useful to compare construction sizes.
    """
    reach, _ = _explore([d.start],
                        lambda q: [(s, d.delta[(q, s)]) for s in d.alphabet])
    block = {q: (q in d.finals) for q in reach}
    while True:
        signature = {
            q: (block[q],) + tuple(block[d.delta[(q, s)]] for s in d.alphabet)
            for q in reach
        }
        labels = {}
        for q in sorted(reach):
            labels.setdefault(signature[q], len(labels))
        new_block = {q: labels[signature[q]] for q in reach}
        if new_block == block:
            break
        block = new_block
    # Any member of a block stands for it: equivalent states step to
    # equivalent states.
    member = {block[q]: q for q in reach}
    order, delta = _explore(
        [block[d.start]],
        lambda b: [(s, block[d.delta[(member[b], s)]]) for s in d.alphabet])
    finals = {i for i, b in enumerate(order) if member[b] in d.finals}
    return Dfa(d.alphabet, range(len(order)), 0, finals, delta)


def co_reachable(a) -> frozenset:
    """States from which some final state is reachable."""
    edges = ([(src, dst) for (src, _s), dst in a.delta.items()] if isinstance(a, Dfa)
             else [(src, dst) for (src, _label, dst) in a.transitions])
    back: dict = {}
    for src, dst in edges:
        back.setdefault(dst, set()).add(src)
    order, _ = _explore(a.finals, lambda q: [(r, r) for r in back.get(q, ())])
    return frozenset(order)


def accepted_words(a, max_len: int) -> Iterator[Word]:
    """Yield every accepted word of length <= max_len in length-then-lex order.

    Walks the live prefix tree of the automaton, so the cost is proportional
    to the number of live prefixes rather than |alphabet|^max_len.  Prefixes
    whose state set cannot reach a final state are pruned.
    """
    n = a.to_nfa() if isinstance(a, Dfa) else a
    live = co_reachable(n)
    level = [((), n._start_closure & live)]
    if not level[0][1]:
        return
    for length in range(max_len + 1):
        for word, subset in level:
            if subset & n.finals:
                yield word
        if length == max_len:
            return
        nxt = []
        for word, subset in level:
            for symbol in n.alphabet:
                stepped = n.step(subset, symbol) & live
                if stepped:
                    nxt.append((word + (symbol,), stepped))
        if not nxt:
            return
        level = nxt


def relabel(n: Nfa, mapping: dict, alphabet=None) -> Nfa:
    """Rename symbols through a bijective mapping, preserving the language shape.

    ``alphabet`` fixes the order of the result's alphabet; by default the
    source order is carried over through the mapping.
    """
    if len(set(mapping.values())) != len(mapping):
        raise ValueError("symbol mapping is not injective")
    missing = [s for s in n.alphabet if s not in mapping]
    if missing:
        raise ValueError(f"mapping misses alphabet symbols: {missing[:3]!r}")
    new_alphabet = tuple(mapping[s] for s in n.alphabet) if alphabet is None else tuple(alphabet)
    if set(new_alphabet) != {mapping[s] for s in n.alphabet}:
        raise ValueError("provided alphabet order does not match the mapped symbols")
    transitions = {
        (src, EPSILON if label is EPSILON else mapping[label], dst)
        for (src, label, dst) in n.transitions
    }
    return Nfa(new_alphabet, n.states, n.start, n.finals, transitions)


def with_alphabet_order(a, order):
    """Same automaton with its alphabet tuple reordered (same symbol set)."""
    order = tuple(order)
    if set(order) != set(a.alphabet) or len(order) != len(a.alphabet):
        raise ValueError(f"order {order!r} is not a permutation of {a.alphabet!r}")
    if isinstance(a, Dfa):
        return Dfa(order, a.states, a.start, a.finals, a.delta)
    return Nfa(order, a.states, a.start, a.finals, a.transitions)
