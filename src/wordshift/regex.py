"""Tiny regular-expression builder compiled to epsilon-NFAs.

Just enough algebra to write the languages the constructions need verbatim:
symbol-set atoms, literal words, concatenation, union, star and plus.

An expression is a fragment builder: a function that takes a ``_Builder``,
allocates its entry and exit states, wires its fragment by Thompson's
inductive construction with spontaneous moves, and returns ``(entry, exit)``.
Every fragment allocates its entry and exit before its children and builds
the children in argument order; that order fixes the state ids of the NFA
that ``regex_assemble`` returns, and so the emitted automata of the
reductions.  An expression holds no states of its own, so one expression may
occur several times in a larger one.
"""
from __future__ import annotations

from .automata import EPSILON, Nfa


class _Builder:
    def __init__(self):
        self.transitions = set()
        self.count = 0

    def fresh(self) -> int:
        self.count += 1
        return self.count - 1

    def edge(self, src, label, dst):
        self.transitions.add((src, label, dst))


def _fragment(wire):
    """The expression that allocates (entry, exit), then runs
    ``wire(builder, entry, exit)`` to build its children and edges."""
    def build(b: _Builder):
        entry, exit_ = b.fresh(), b.fresh()
        wire(b, entry, exit_)
        return entry, exit_
    return build


epsilon = _fragment(lambda b, entry, exit_: b.edge(entry, EPSILON, exit_))
never = _fragment(lambda b, entry, exit_: None)  # the empty language


def one_of(*symbols):
    """A single symbol drawn from a finite set."""
    if not symbols:
        return never

    @_fragment
    def expr(b, entry, exit_):
        for symbol in symbols:
            b.edge(entry, symbol, exit_)
    return expr


def lit(word):
    """A fixed word."""
    word = tuple(word)

    @_fragment
    def expr(b, entry, exit_):
        cur = entry
        for symbol in word:
            nxt = b.fresh()
            b.edge(cur, symbol, nxt)
            cur = nxt
        b.edge(cur, EPSILON, exit_)
    return expr


def seq(*parts):
    if not parts:
        return epsilon

    @_fragment
    def expr(b, entry, exit_):
        cur = entry
        for part in parts:
            i, o = part(b)
            b.edge(cur, EPSILON, i)
            cur = o
        b.edge(cur, EPSILON, exit_)
    return expr


def alt(*parts):
    if not parts:
        return never

    @_fragment
    def expr(b, entry, exit_):
        for part in parts:
            i, o = part(b)
            b.edge(entry, EPSILON, i)
            b.edge(o, EPSILON, exit_)
    return expr


def star(inner):
    @_fragment
    def expr(b, entry, exit_):
        i, o = inner(b)
        b.edge(entry, EPSILON, exit_)
        b.edge(entry, EPSILON, i)
        b.edge(o, EPSILON, exit_)
        b.edge(o, EPSILON, i)
    return expr


def plus(inner):
    @_fragment
    def expr(b, entry, exit_):
        i, o = inner(b)
        b.edge(entry, EPSILON, i)
        b.edge(o, EPSILON, exit_)
        b.edge(o, EPSILON, i)
    return expr


def regex_assemble(expr, alphabet) -> Nfa:
    """Compile ``expr`` to an NFA whose alphabet is exactly ``alphabet``.

    Every symbol used by the expression must appear in the alphabet; the
    alphabet may be larger (the extra symbols simply never occur).
    """
    b = _Builder()
    entry, exit_ = expr(b)
    return Nfa(alphabet, range(b.count), {entry}, {exit_}, b.transitions)
