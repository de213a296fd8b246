"""Length-preserving string rewriting, a one-tape Turing machine model, and
the encoding of machines as rewriting systems.

The encoding turns "does the machine halt on a blank tape" into "does a^n
rewrite to b^n for some n": a first rule opens a simulation behind a left
end-marker, blanks are minted from a's, machine moves become local rules, and
once the final state is reached the simulated region is swept into b's.
Because rules preserve length, per-n reachability is a finite search; only
the existential over n is open-ended.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .automata import Atom, Word, _search, check_atom
from .outcome import DecisionOutcome, no, unknown, yes

LEFT = "L"
RIGHT = "R"


@dataclass(frozen=True)
class RewritingSystem:
    """A finite set of length-preserving rules l -> r over an alphabet."""

    alphabet: tuple
    rules: tuple

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "rules",
                           tuple((tuple(l), tuple(r)) for (l, r) in self.rules))
        for atom in self.alphabet:
            check_atom(atom)
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet has duplicate atoms")
        declared = set(self.alphabet)
        for (l, r) in self.rules:
            if len(l) != len(r):
                raise ValueError(f"rule {l!r} -> {r!r} is not length-preserving")
            for atom in l + r:
                if atom not in declared:
                    raise ValueError(f"rule atom {atom!r} not in alphabet")


@dataclass(frozen=True)
class TuringMachine:
    """One-tape machine with a unique final state and a blank symbol.

    ``delta`` maps (state, tape symbol) to a tuple of (state, written symbol,
    direction) moves; more than one move per key makes the machine
    nondeterministic, which the encoding handles move-wise.  The final state
    has no moves, and every other state has at least one move on every tape
    symbol, so halting coincides with reaching the final state.
    """

    states: tuple
    input_alphabet: tuple
    tape_alphabet: tuple
    delta: dict
    start: Atom
    blank: Atom
    final: Atom

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "input_alphabet", tuple(self.input_alphabet))
        object.__setattr__(self, "tape_alphabet", tuple(self.tape_alphabet))
        object.__setattr__(self, "delta",
                           {k: tuple(v) for k, v in dict(self.delta).items()})
        for atom in self.states + self.input_alphabet + self.tape_alphabet:
            check_atom(atom)
        if self.blank not in self.tape_alphabet:
            raise ValueError("blank symbol must be in the tape alphabet")
        if not set(self.input_alphabet) <= set(self.tape_alphabet):
            raise ValueError("input alphabet must be contained in the tape alphabet")
        if self.start not in self.states or self.final not in self.states:
            raise ValueError("start and final states must be declared")
        if set(self.states) & set(self.tape_alphabet):
            raise ValueError("state and tape-symbol names must not collide")
        for (q, c), moves in self.delta.items():
            if q not in self.states or c not in self.tape_alphabet:
                raise ValueError(f"delta key ({q!r}, {c!r}) out of range")
            if q == self.final:
                raise ValueError("the final state must have no moves")
            if not moves:
                raise ValueError(f"delta entry ({q!r}, {c!r}) lists no moves")
            for (q2, d, direction) in moves:
                if q2 not in self.states or d not in self.tape_alphabet:
                    raise ValueError(f"move {(q2, d, direction)!r} out of range")
                if direction not in (LEFT, RIGHT):
                    raise ValueError(f"direction must be L or R, got {direction!r}")
        for q in self.states:
            if q == self.final:
                continue
            for c in self.tape_alphabet:
                if (q, c) not in self.delta:
                    raise ValueError(f"missing move for ({q!r}, {c!r}); "
                                     "non-final states must be total")

    def is_deterministic(self) -> bool:
        return all(len(moves) == 1 for moves in self.delta.values())


def one_step(s: RewritingSystem, w: Word) -> set:
    """All words reachable from w by one rule application at one position."""
    return {word for (word, _rule, _pos) in one_step_labeled(s, w)}


def one_step_labeled(s: RewritingSystem, w: Word):
    """Like :func:`one_step` but yields (word, rule index, position) in the
    deterministic rule-then-position order."""
    w = tuple(w)
    out = []
    for idx, (l, r) in enumerate(s.rules):
        for pos in range(len(w) - len(l) + 1):
            if w[pos:pos + len(l)] == l:
                out.append((w[:pos] + r + w[pos + len(l):], idx, pos))
    return out


class _BudgetSpent(Exception):
    pass


def reachable(s: RewritingSystem, frm: Word, to: Word,
              step_budget: Optional[int] = None) -> DecisionOutcome:
    """Decide whether frm rewrites to to (zero or more steps).

    Length preservation confines the search to words of one length, so the
    component is finite: exhausting it gives a definitive no.  A step budget
    (maximum number of distinct words visited) turns early cutoff into
    unknown rather than a false no.  A yes carries the derivation as the word
    sequence plus the (rule index, position) applied at each step.
    """
    frm, to = tuple(frm), tuple(to)
    if len(frm) != len(to):
        return no(note="length-preserving rules cannot change word length")
    visited = 0

    def is_goal(w):
        # Called once per distinct word, frm first.  frm counts as visited
        # but never exceeds the budget on its own.
        nonlocal visited
        if w == to:
            return True
        visited += 1
        if step_budget is not None and visited > max(step_budget, 1):
            raise _BudgetSpent
        return False

    # Each (word, rule, position) step labels its own edge, so the labels
    # of the path are the derivation.
    try:
        path = _search([frm],
                       lambda w: [(step, step[0]) for step in one_step_labeled(s, w)],
                       is_goal)
    except _BudgetSpent:
        return unknown(bound=step_budget, note="budget")
    if path is None:
        return no(note="exhaustive")
    return yes(derivation=[frm] + [word for (word, _rule, _pos) in path],
               steps=[(rule, pos) for (_word, rule, pos) in path])


def replay_derivation(s: RewritingSystem, derivation, steps) -> bool:
    """Check that each recorded (rule, position) application is valid."""
    if len(derivation) != len(steps) + 1:
        return False
    for w, nxt, (rule_idx, pos) in zip(derivation, derivation[1:], steps):
        w = tuple(w)
        l, r = s.rules[rule_idx]
        if tuple(w[pos:pos + len(l)]) != l:
            return False
        if tuple(nxt) != w[:pos] + r + w[pos + len(l):]:
            return False
    return True


def _check_letters(s: RewritingSystem, a: Atom, b: Atom) -> None:
    if a not in s.alphabet or b not in s.alphabet:
        raise ValueError("a and b must be alphabet atoms")


def rewrite_power_search(s: RewritingSystem, a: Atom, b: Atom, max_n: int,
                         step_budget: Optional[int] = None) -> DecisionOutcome:
    """Search for n in 1..max_n with a^n rewriting to b^n.

    Semi-decision: a yes is definitive (and replayable), while exhausting
    max_n only means unknown, never no.
    """
    _check_letters(s, a, b)
    for n in range(1, max_n + 1):
        out = reachable(s, (a,) * n, (b,) * n, step_budget)
        if out.is_yes:
            return yes(n=n, **out.witness)
    return unknown(bound=max_n)


def tm_to_rewriting(m: TuringMachine, a: Atom = "a", b: Atom = "b",
                    marker: Atom = "$") -> RewritingSystem:
    """Encode a machine as a length-preserving rewriting system.

    Emits, in order: the simulation opener aa -> $ q0; the blank minter
    a -> B; one rule q c -> d q' per right move; one rule f q c -> q' f d per
    left move and tape symbol f; the final-state sweep rules q_f c -> c q_f
    and c q_f -> q_f b for every tape symbol; and the closer $ q_f -> bb.
    """
    for atom in (a, b, marker):
        check_atom(atom)
    reserved = {a, b, marker}
    if len(reserved) != 3:
        raise ValueError("a, b and the marker must be three distinct atoms")
    clash = reserved & (set(m.tape_alphabet) | set(m.states))
    if clash:
        raise ValueError(f"atoms {sorted(clash)!r} collide with the machine's names")
    alphabet = m.tape_alphabet + m.states + (a, b, marker)
    rules = [
        ((a, a), (marker, m.start)),
        ((a,), (m.blank,)),
    ]
    for q in m.states:
        for c in m.tape_alphabet:
            for (q2, d, direction) in m.delta.get((q, c), ()):
                if direction == RIGHT:
                    rules.append(((q, c), (d, q2)))
    for q in m.states:
        for c in m.tape_alphabet:
            for (q2, d, direction) in m.delta.get((q, c), ()):
                if direction == LEFT:
                    for f in m.tape_alphabet:
                        rules.append(((f, q, c), (q2, f, d)))
    for c in m.tape_alphabet:
        rules.append(((m.final, c), (c, m.final)))
    for c in m.tape_alphabet:
        rules.append(((c, m.final), (m.final, b)))
    rules.append(((marker, m.final), (b, b)))
    return RewritingSystem(alphabet, rules)


@dataclass(frozen=True)
class TmRun:
    """Result of a blank-tape simulation.

    ``cells_used`` counts the distinct cells the head scanned while making a
    move; a cell first entered in the final state is not counted, matching
    the footprint the rewriting encoding needs.  ``left_clamps`` counts left
    moves attempted at the leftmost cell (the head stays put); the encoding
    cannot mirror those, so a nonzero count flags machines outside its reach.
    """

    halted: bool
    steps: int
    cells_used: int
    left_clamps: int = 0


def tm_run(m: TuringMachine, max_steps: int = 1000) -> TmRun:
    """Simulate on an all-blank tape; requires a deterministic table."""
    if not m.is_deterministic():
        raise ValueError("blank-tape simulation requires a deterministic machine")
    tape = {}
    head = 0
    state = m.start
    used = set()
    clamps = 0
    for step in range(max_steps):
        if state == m.final:
            return TmRun(True, step, len(used), clamps)
        scanned = tape.get(head, m.blank)
        (state, written, direction), = m.delta[(state, scanned)]
        used.add(head)
        tape[head] = written
        if direction == RIGHT:
            head += 1
        elif head == 0:
            clamps += 1
        else:
            head -= 1
    if state == m.final:
        return TmRun(True, max_steps, len(used), clamps)
    return TmRun(False, max_steps, len(used), clamps)
