"""Decision procedures: exact ones for the long-shift, distinct-conjugates
and non-conjugates questions, and bounded searches for base-k quotient
powers.

Every yes returned from this module carries a witness that has been re-run
through the defining predicate before being handed back; the exact
procedures never answer unknown, and the bounded searches never answer no.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .automata import (Dfa, Nfa, Word, _explore, _search, accepted_words,
                       co_reachable, determinize, is_subset, minimize,
                       shortest_word)
from .langops import cyc, distinct_conjugate_completions, lexleast
from .outcome import (DecisionOutcome, WitnessError, _check_witness, no,
                      unknown, yes)
from .reductions import ShiftInstance
from .regex import alt, lit, plus, regex_assemble, seq
from .words import are_conjugates, convolve


def accepts_long_shift(inst: ShiftInstance) -> DecisionOutcome:
    """Exact test for a witness x c^n convolved with c^n x where n >= |x|.

    Searches sets of (p, pivot, r) triples over gamma: a guessed pivot
    state, one track simulating the determinized instance on (letter, c)
    pairs from the start, one simulating it on (c, letter) pairs from the
    pivot.  A word x is found when some triple has the second simulation
    final and the first at a state with an all-(c,c) path to the pivot; the
    path length supplies n - |x|.
    """
    d = determinize(inst.automaton)
    c = inst.c
    cc = (c, c)
    # cc_reach[p] = set of states reachable from p along (c,c) edges.
    cc_reach = {p: frozenset(_explore([p], lambda q: [(cc, d.delta[(q, cc)])])[0])
                for p in d.states}

    def successors(triples):
        for g in inst.gamma:
            yield g, frozenset((d.delta[(p, (g, c))], pivot, d.delta[(r, (c, g))])
                               for p, pivot, r in triples)

    x = _search(frozenset((d.start, q, q) for q in d.states), successors,
                lambda triples: any(r in d.finals and pivot in cc_reach[p]
                                    for p, pivot, r in triples))
    if x is None:
        return no()
    # Smallest admissible n for this x: extend the padding block until the
    # convolution is accepted; some n <= |x| + |d.states| must work.
    m = len(x)
    for n in range(m, m + len(d.states) + 1):
        word = convolve(x + (c,) * n, (c,) * n + x)
        if inst.automaton.accepts(word):
            return yes(x=x, n=n, word=word)
    raise WitnessError("guessing automaton accepted x but no padding length works")


def accepts_distinct_conjugates(m: Dfa, state_cap: Optional[int] = 4) -> DecisionOutcome:
    """Exact test for two accepted words uv != vu.

    If a witness pair exists, one exists with the u side of length at most
    the square of the state count, so enumerating u in length-then-lex order
    and testing the completion language for emptiness decides the question.
    The u whose left quotient or right quotient is empty are pruned before
    any construction.  ``state_cap`` guards against the exponential
    enumeration on larger machines; pass None to lift it.
    """
    n = len(m.states)
    if state_cap is not None and n > state_cap:
        raise ValueError(f"machine has {n} states, above state_cap={state_cap}; "
                         "pass state_cap=None to run the full enumeration")
    live = co_reachable(m)
    reach, _ = _explore([m.start],
                        lambda q: [(s, m.delta[(q, s)]) for s in m.alphabet])
    reach.sort()
    start_pos = reach.index(m.start)
    level = [((), tuple(reach))]
    for _length in range(1, n * n + 1):
        nxt_level = []
        for word, vec in level:
            for symbol in m.alphabet:
                nxt_level.append((word + (symbol,),
                                  tuple(m.delta[(q, symbol)] for q in vec)))
        level = nxt_level
        for u, vec in level:
            if vec[start_pos] not in live:
                continue  # no completion of u is accepted
            if not any(q in m.finals for q in vec):
                continue  # nothing accepted ends with u
            completions = distinct_conjugate_completions(m, u)
            v = shortest_word(completions)
            if v is not None:
                uv, vu = u + v, v + u
                _check_witness(m.accepts(uv) and m.accepts(vu) and uv != vu,
                               "distinct-conjugates witness fails uv, vu accepted, uv != vu")
                return yes(u=u, v=v, uv=uv, vu=vu)
    return no()


def _least_word_of_length(m: Dfa, length: int) -> Optional[Word]:
    # Greedy descent: keep the least symbol that still allows completing to
    # an accepted word of exactly the remaining length.
    acceptable = [frozenset(m.finals)]
    for _ in range(length):
        prev = acceptable[-1]
        acceptable.append(frozenset(
            q for q in m.states
            if any(m.delta[(q, s)] in prev for s in m.alphabet)))
    if m.start not in acceptable[length]:
        return None
    word = []
    state = m.start
    for remaining in range(length - 1, -1, -1):
        for symbol in m.alphabet:
            nxt = m.delta[(state, symbol)]
            if nxt in acceptable[remaining]:
                word.append(symbol)
                state = nxt
                break
    return tuple(word)


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


def base_k_value(w: Word, k: int) -> int:
    """Integer value of a digit word, most significant digit first; the
    empty word is 0."""
    if k < 2:
        raise ValueError("base must be at least 2")
    value = 0
    for atom in w:
        try:
            digit = int(atom)
        except (TypeError, ValueError):
            raise ValueError(f"{atom!r} is not a digit atom") from None
        if not 0 <= digit < k:
            raise ValueError(f"digit {digit} out of range for base {k}")
        value = value * k + digit
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


def _power_exponent(value: int, k: int) -> Optional[int]:
    if value < 1:
        return None
    i = 0
    while value % k == 0:
        value //= k
        i += 1
    return i if value == 1 else None


def accepts_power_search(m: Nfa, k: int, max_len: int) -> DecisionOutcome:
    """Bounded scan for an accepted word whose track quotient is a power of k.

    Semi-decision over word length; the witness records the word, the
    exponent and the two track values.
    """
    if k < 2:
        raise ValueError("base must be at least 2")
    for word in accepted_words(m, max_len):
        p = base_k_value((u for (u, _v) in word), k)
        q = base_k_value((v for (_u, v) in word), k)
        if q == 0:
            continue
        ratio = Fraction(p, q)
        if ratio.denominator != 1:
            continue
        i = _power_exponent(ratio.numerator, k)
        if i is not None:
            _check_witness(Fraction(p, q) == Fraction(k) ** i,
                           "power witness quotient is not a power of k")
            return yes(i=i, word=word, numerator=p, denominator=q)
    return unknown(bound=max_len)


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
