"""Decision procedures: exact ones for the long-shift, distinct-conjugates
and non-conjugates questions, and bounded searches for base-k quotient
powers.

Every yes returned from this module carries a witness that has been re-run
through the defining predicate before being handed back; the exact
procedures never answer unknown, and the bounded searches never answer no.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple, Optional

from .automata import (Dfa, Nfa, Word, _explore, _search, accepted_words,
                       co_reachable, determinize, is_subset, minimize)
from .langops import _completion_successors, cyc, lexleast
from .outcome import (DecisionOutcome, WitnessError, _check_witness, no,
                      unknown, yes)
from .reductions import ShiftInstance, _window_searcher
from .regex import alt, lit, plus, regex_assemble, seq
from .words import are_conjugates, convolve, primitive_root


def accepts_long_shift(inst: ShiftInstance) -> DecisionOutcome:
    """Exact test for a witness x c^n convolved with c^n x where n >= |x|.

    Searches (p, pivot, r) triples of the instance's own states over gamma,
    from every (start, q, q): a guessed pivot state q, one track running the
    instance on (letter, c) pairs from a start state, one running it on
    (c, letter) pairs from the pivot.  A word x is found when some triple
    has the second track final and the first at a state with an all-(c,c)
    path to the pivot; the path length supplies n - |x|.
    """
    a = inst.automaton
    c = inst.c
    cc = (c, c)
    # cc_reach[p] = set of states reachable from p along (c,c) moves.
    cc_reach = {p: frozenset(_explore([p], lambda q: [(r, r) for r in a._after(q, cc)])[0])
                for p in a.states}

    def successors(triple):
        p, pivot, r = triple
        for g in inst.gamma:
            for p_next, r_next in itertools.product(a._after(p, (g, c)), a._after(r, (c, g))):
                yield g, (p_next, pivot, r_next)

    x = _search([(s, q, q) for s in a._start_closure for q in a.states], successors,
                lambda triple: triple[2] in a.finals and triple[1] in cc_reach[triple[0]],
                labels=inst.gamma)
    if x is None:
        return no()
    # Smallest admissible n for this x.  A shortest (c,c) path enters each
    # state at most once, so some n <= |x| + |states| works.
    m = len(x)
    for n in range(m, m + len(a.states) + 1):
        word = convolve(x + (c,) * n, (c,) * n + x)
        if inst.automaton.accepts(word):
            return yes(x=x, n=n, word=word)
    raise WitnessError("guessing automaton accepted x but no padding length works")


# A root no symbol matches: its only power is the empty word.
_NO_ROOT = (None,)


def _completion_search(m: Dfa, p: int, before: frozenset, root: Word) -> Optional[Word]:
    # Least y outside root* with run(p, y) final and run(start, y) in before.
    return _search([(p, m.start, 0)], _completion_successors(m, root),
                   lambda key: key[0] in m.finals and key[1] in before and key[2] != 0)


def _completion_class(m: Dfa, live: frozenset, p: int, before: frozenset):
    # For the u with run(start, u) = p and {q : run(q, u) final} = before:
    # None if no nonempty y has uy and yu accepted; a primitive s if every
    # such y is a power of s, so exactly the u with root s have no
    # completion; () if they have two roots, so every u has one.
    if p not in live or not before:
        return None
    y = _completion_search(m, p, before, _NO_ROOT)
    if y is None:
        return None
    s, _ = primitive_root(y)
    return s if _completion_search(m, p, before, s) is None else ()


def accepts_distinct_conjugates(m: Dfa, state_cap: Optional[int] = None) -> DecisionOutcome:
    """Exact test for two accepted words uv != vu.

    If a witness pair exists, one exists with the u side of length at most
    the square of the state count.  Whether u has a completion v depends
    only on the transformation u induces on the reachable states and on the
    primitive root of u, and each transformation is classified once.  The
    transformations are walked level by level; at each length a descent in
    alphabet order through those that lead to a completion finds the
    length-then-lex least u that has one, stepping past u = s^e where every
    completion is a power of s.  v is the length-then-lex least completion
    of u.  ``state_cap``, when given, rejects machines with more states.
    """
    n = len(m.states)
    if state_cap is not None and n > state_cap:
        raise ValueError(f"machine has {n} states, above state_cap={state_cap}; "
                         "pass state_cap=None to lift the cap")
    live = co_reachable(m)
    # reach[0] is the start state, so vec[0] = run(start, u).
    reach, _ = _explore([m.start],
                        lambda q: [(s, m.delta[(q, s)]) for s in m.alphabet])
    identity = tuple(reach)
    edges = {}
    classes = {}

    def successors(vec):
        # One successor per symbol, in alphabet order.
        if vec not in edges:
            edges[vec] = [tuple(m.delta[(q, s)] for q in vec) for s in m.alphabet]
        return edges[vec]

    def before_of(vec):
        return frozenset(q for q, r in zip(reach, vec) if r in m.finals)

    def class_of(vec):
        key = (vec[0], before_of(vec))
        if key not in classes:
            classes[key] = _completion_class(m, live, *key)
        return classes[key]

    def least_good_word(alive):
        # Depth-first in alphabet order through alive[k] at depth k; only
        # leaves u = s^e send it back.
        word = []
        stack = [iter(zip(m.alphabet, successors(identity)))]
        while stack:
            for symbol, vec in stack[-1]:
                if vec not in alive[len(word) + 1]:
                    continue
                word.append(symbol)
                if len(word) < len(alive) - 1:
                    stack.append(iter(zip(m.alphabet, successors(vec))))
                    break
                if class_of(vec) != primitive_root(word)[0]:
                    return tuple(word), vec
                word.pop()
            else:
                stack.pop()
                if word:
                    word.pop()
        return None

    layers = [{identity}]
    for _length in range(1, n * n + 1):
        layers.append({nxt for vec in layers[-1] for nxt in successors(vec)})
        targets = {vec for vec in layers[-1] if class_of(vec) is not None}
        if not targets:
            continue
        # alive[k]: the level-k elements some target is reachable from.
        alive = [targets]
        for level in reversed(layers[:-1]):
            alive.append({vec for vec in level
                          if any(nxt in alive[-1] for nxt in successors(vec))})
        alive.reverse()
        found = least_good_word(alive)
        if found is not None:
            u, vec = found
            v = _completion_search(m, vec[0], before_of(vec), primitive_root(u)[0])
            _check_witness(v is not None and m.accepts(u + v) and m.accepts(v + u)
                           and u + v != v + u,
                           "distinct-conjugates witness fails uv, vu accepted, uv != vu")
            return yes(u=u, v=v, uv=u + v, vu=v + u)
    return no()


def _least_word_of_length(m: Dfa, length: int) -> Optional[Word]:
    # Keys are (state, letters read); every goal lies at depth ``length``, so
    # the length-then-lex least path is the least accepted word of that length.
    return _search([(m.start, 0)],
                   lambda key: [(s, (m.delta[(key[0], s)], key[1] + 1))
                                for s in m.alphabet],
                   lambda key: key[1] == length and key[0] in m.finals,
                   max_depth=length)


def accepts_non_conjugates(m: Dfa) -> DecisionOutcome:
    """Exact test for two same-length accepted words that are not conjugates.

    Such a pair exists iff the language is not contained in the conjugate
    closure of its per-length minima: any word outside that closure, paired
    with the minimum of its own length, is a witness.
    """
    closure = determinize(cyc(minimize(lexleast(m))))
    holds, x = is_subset(m, closure)
    if holds:
        return no()
    y = _least_word_of_length(m, len(x))
    _check_witness(y is not None and m.accepts(x) and m.accepts(y),
                   "non-conjugates witness words are not accepted")
    _check_witness(len(x) == len(y) and not are_conjugates(x, y),
                   "non-conjugates witness words are conjugates")
    return yes(x=x, y=y)


def _digit(atom, k: int) -> int:
    try:
        digit = int(atom)
    except (TypeError, ValueError):
        raise ValueError(f"{atom!r} is not a digit atom") from None
    if not 0 <= digit < k:
        raise ValueError(f"digit {digit} out of range for base {k}")
    return digit


def base_k_value(w: Word, k: int) -> int:
    """Integer value of a digit word, most significant digit first; the
    empty word is 0."""
    if k < 2:
        raise ValueError("base must be at least 2")
    value = 0
    for atom in w:
        value = value * k + _digit(atom, k)
    return value


class QuoEnumeration(NamedTuple):
    ratios: frozenset
    zero_denominators: int


def quo_enumerate(m: Nfa, k: int, max_len: int) -> QuoEnumeration:
    """All first-track over second-track base-k quotients of accepted words
    of length <= max_len.

    Words whose second track evaluates to zero have no quotient; they are
    skipped and tallied in ``zero_denominators``.
    """
    if k < 2:
        raise ValueError("base must be at least 2")
    ratios = set()
    zeros = 0
    for word in accepted_words(m, max_len):
        p = base_k_value((u for (u, _v) in word), k)
        q = base_k_value((v for (_u, v) in word), k)
        if q == 0:
            zeros += 1
        else:
            ratios.add(Fraction(p, q))
    return QuoEnumeration(frozenset(ratios), zeros)


def accepts_power_search(m: Nfa, k: int, max_len: int) -> DecisionOutcome:
    """Bounded search for an accepted word whose track quotient is a power of k.

    A digit word with second track v, val(v) > 0, has val(first track) =
    k^i val(v) exactly when it is (0,0)^j conv(y 0^i, 0^i y) for a y that
    starts with a nonzero digit.  So for each exponent i one windowed
    search over the determinized automaton, the shift search's rule with
    padding 0, finds the length-then-lex least such word of length <=
    max_len; the least over all i is the witness, which records the word,
    the exponent and the two track values.  Semi-decision over word length.
    Every atom must be a digit below k, and no two atoms may share a value.
    """
    if k < 2:
        raise ValueError("base must be at least 2")
    atom_of = {}
    for symbol in m.alphabet:
        if not isinstance(symbol, tuple):
            raise ValueError(f"power search needs pair symbols, got {symbol!r}")
        for atom in symbol:
            value = _digit(atom, k)
            if atom_of.setdefault(value, atom) != atom:
                raise ValueError(f"atoms {atom_of[value]!r} and {atom!r} both have "
                                 f"digit value {value}")
    zero = atom_of.get(0)
    search = _window_searcher(determinize(m), zero, tuple(atom_of.values()))
    best = None
    for i in range(max_len):
        bound = max_len if best is None else len(best[1])
        if i >= bound:
            break
        path = search(i, bound - i, prefix=True)
        if path is None:
            continue
        # The path spells 0^j y, so the tracks are 0^j y 0^i and 0^(i+j) y.
        pad = (zero,) * i
        word = convolve(path + pad, pad + path)
        key = (len(word), [m.alphabet.index(s) for s in word])
        if best is None or key < best[0]:
            best = (key, word, i)
    if best is None:
        return unknown(bound=max_len)
    _, word, i = best
    p = base_k_value((u for (u, _v) in word), k)
    q = base_k_value((v for (_u, v) in word), k)
    _check_witness(m.accepts(word) and q > 0 and Fraction(p, q) == Fraction(k) ** i,
                   "power witness is not accepted or its quotient is not k^i")
    return yes(i=i, word=word, numerator=p, denominator=q)


def long_witness_language(t: int) -> Dfa:
    """Benchmark family whose shortest distinct-conjugate pair grows
    quadratically in the state count.

    Two branches over {a, b}: runs of a in multiples of t, then b, then runs
    in multiples of t+1, then bb; and the same with bb and b swapped.  The
    shortest distinct conjugates have u and v of lengths t^2+t+1 and t^2+t+2.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    a, b = "a", "b"
    block_t = lit((a,) * t)
    block_t1 = lit((a,) * (t + 1))
    branch1 = seq(plus(block_t), lit((b,)), plus(block_t1), lit((b, b)))
    branch2 = seq(plus(block_t), lit((b, b)), plus(block_t1), lit((b,)))
    nfa = regex_assemble(alt(branch1, branch2), (a, b))
    return minimize(determinize(nfa))
