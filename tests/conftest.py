"""Shared test helpers: independent acceptance oracle, brute-force word
enumeration, seeded random generators for automata and rewriting systems,
and reference procedures that faster algorithms replaced.
"""
import itertools
import random
from collections import deque
from fractions import Fraction

import pytest

from wordshift.automata import (EPSILON, Dfa, Nfa, _explore, _search,
                                accepted_words, complement, determinize,
                                product)
from wordshift.outcome import WitnessError, no, unknown, yes
from wordshift.procedures import base_k_value
from wordshift.rewriting import RewritingSystem, one_step_labeled
from wordshift.words import convolve, primitive_root


def w(text):
    """Word from a string of one-character atoms."""
    return tuple(text)


def all_words(alphabet, max_len):
    """Every word up to max_len, length-then-lex in the given order."""
    for length in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


def oracle_accepts(nfa, word):
    """Recursive-descent acceptance, independent of the subset simulation."""
    word = tuple(word)
    moves = {}
    eps = {}
    for (src, label, dst) in nfa.transitions:
        if label is EPSILON:
            eps.setdefault(src, []).append(dst)
        else:
            moves.setdefault((src, label), []).append(dst)
    dead = set()

    def walk(state, pos):
        if (state, pos) in dead:
            return False
        dead.add((state, pos))
        if pos == len(word) and state in nfa.finals:
            return True
        if pos < len(word):
            for dst in moves.get((state, word[pos]), ()):
                if walk(dst, pos + 1):
                    return True
        for dst in eps.get(state, ()):
            if walk(dst, pos):
                return True
        return False

    return any(walk(q, 0) for q in nfa.start)


def language(automaton, max_len):
    """Accepted words up to max_len via direct membership runs."""
    return {word for word in all_words(automaton.alphabet, max_len)
            if automaton.accepts(word)}


def rand_nfa(rng, n_states, alphabet, edge_p=0.25, eps_p=0.06):
    transitions = set()
    for src in range(n_states):
        for symbol in alphabet:
            for dst in range(n_states):
                if rng.random() < edge_p:
                    transitions.add((src, symbol, dst))
        for dst in range(n_states):
            if rng.random() < eps_p:
                transitions.add((src, EPSILON, dst))
    finals = {q for q in range(n_states) if rng.random() < 0.4}
    return Nfa(alphabet, range(n_states), {0}, finals, transitions)


def rand_dfa(rng, n_states, alphabet, final_p=0.4):
    delta = {}
    for q in range(n_states):
        for symbol in alphabet:
            delta[(q, symbol)] = rng.randrange(n_states)
    finals = {q for q in range(n_states) if rng.random() < final_p}
    return Dfa(alphabet, range(n_states), 0, finals, delta)


def root_star_dfa(alphabet, root):
    """Complete DFA for root*, with a dead state for any deviation."""
    n = len(root)
    delta = {}
    for i in range(n):
        for symbol in alphabet:
            delta[(i, symbol)] = ((i + 1) % n) if symbol == root[i] else n
    for symbol in alphabet:
        delta[(n, symbol)] = n
    return Dfa(alphabet, range(n + 1), 0, {0}, delta)


def product_completions(m, x):
    """Reference completion language of x: m after x, intersected with m
    accepting via x, intersected with the complement of root(x)*."""
    after_x = Dfa(m.alphabet, m.states, m.run(m.start, x), m.finals, m.delta)
    before_x = Dfa(m.alphabet, m.states, m.start,
                   {q for q in m.states if m.run(q, x) in m.finals}, m.delta)
    root, _ = primitive_root(x)
    non_commuting = complement(root_star_dfa(m.alphabet, root))
    return product(product(after_x, before_x, "intersect"), non_commuting, "intersect")


def rand_system(rng, alphabet=("a", "b"), max_rules=3, max_side=2):
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        length = rng.randint(1, max_side)
        lhs = tuple(rng.choice(alphabet) for _ in range(length))
        rhs = tuple(rng.choice(alphabet) for _ in range(length))
        rules.append((lhs, rhs))
    return RewritingSystem(alphabet, rules)


@pytest.fixture
def rng():
    return random.Random(0x5EED)


def scan_power_search(m, k, max_len):
    """Reference power search: scan every accepted word up to max_len in
    length-then-lex order and return the first whose track quotient is a
    power of k.  Exponential in max_len; keep k^2 and max_len small."""
    for word in accepted_words(m, max_len):
        p = base_k_value((u for (u, _v) in word), k)
        q = base_k_value((v for (_u, v) in word), k)
        if q == 0:
            continue
        ratio = Fraction(p, q)
        if ratio.denominator != 1 or ratio.numerator < 1:
            continue
        value, i = ratio.numerator, 0
        while value % k == 0:
            value //= k
            i += 1
        if value == 1:
            return yes(i=i, word=word, numerator=p, denominator=q)
    return unknown(bound=max_len)


def layered_least_word_of_length(m, length):
    """Reference least accepted word of exactly ``length`` letters: layered
    sets of the states that can still finish in time, then a greedy descent
    that keeps the least symbol staying inside them."""
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


def queue_reachable(s, frm, to, step_budget=None):
    """Reference rewriting reachability: a deque breadth-first search with
    parent pointers that tests each word as it is discovered and answers
    unknown when a newly discovered word takes the count of distinct words,
    frm included, past the budget."""
    frm, to = tuple(frm), tuple(to)
    if len(frm) != len(to):
        return no(note="length-preserving rules cannot change word length")
    if frm == to:
        return yes(derivation=[frm], steps=[])
    parent = {frm: None}
    queue = deque([frm])
    while queue:
        word = queue.popleft()
        for (nxt, rule_idx, pos) in one_step_labeled(s, word):
            if nxt in parent:
                continue
            parent[nxt] = (word, rule_idx, pos)
            if nxt == to:
                path = [nxt]
                steps = []
                cur = nxt
                while parent[cur] is not None:
                    cur, rule_idx, pos = parent[cur]
                    path.append(cur)
                    steps.append((rule_idx, pos))
                path.reverse()
                steps.reverse()
                return yes(derivation=path, steps=steps)
            if step_budget is not None and len(parent) > step_budget:
                return unknown(bound=step_budget, note="budget")
            queue.append(nxt)
    return no(note="exhaustive")


def dfs_co_reachable(nfa):
    """Reference co-reachability: a depth-first walk from the finals over
    the reversed transitions."""
    back = {}
    for (src, _label, dst) in nfa.transitions:
        back.setdefault(dst, set()).add(src)
    seen = set(nfa.finals)
    todo = list(seen)
    while todo:
        q = todo.pop()
        for r in back.get(q, ()):
            if r not in seen:
                seen.add(r)
                todo.append(r)
    return frozenset(seen)


def subset_shortest_word(nfa):
    """Reference shortest word of an NFA: a breadth-first search from the
    one closed start set over the nonempty closed subsets, so each level is
    ordered by word without any grouping of keys."""
    return _search([nfa._start_closure],
                   lambda subset: [(s, nxt) for s in nfa.alphabet
                                   if (nxt := nfa.step(subset, s))],
                   lambda subset: not nfa.finals.isdisjoint(subset))


def subset_long_shift(inst):
    """Reference long-shift test: a breadth-first search over sets of
    (p, pivot, r) triples of the determinized instance, from the one set
    of every (start, q, q).  Exponential: the sets grow with the
    transformation monoid of the (c, g) letters, so keep draws small."""
    d = determinize(inst.automaton)
    c = inst.c
    cc = (c, c)
    cc_reach = {p: frozenset(_explore([p], lambda q: [(cc, d.delta[(q, cc)])])[0])
                for p in d.states}

    def successors(triples):
        for g in inst.gamma:
            yield g, frozenset((d.delta[(p, (g, c))], pivot, d.delta[(r, (c, g))])
                               for p, pivot, r in triples)

    x = _search([frozenset((d.start, q, q) for q in d.states)], successors,
                lambda triples: any(r in d.finals and pivot in cc_reach[p]
                                    for p, pivot, r in triples))
    if x is None:
        return no()
    m = len(x)
    for n in range(m, m + len(d.states) + 1):
        word = convolve(x + (c,) * n, (c,) * n + x)
        if inst.automaton.accepts(word):
            return yes(x=x, n=n, word=word)
    raise WitnessError("guessing automaton accepted x but no padding length works")
