"""Acceptance suite: one test per criterion, each printing a PASS line and
enforcing its wall-clock budget.  Run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the PASS lines as they happen).
"""
import itertools
import random
import time
from fractions import Fraction

from wordshift.automata import (Dfa, accepted_words, determinize, minimize,
                                pair_alphabet)
from wordshift.langops import cyc, lexleast
from wordshift.procedures import (accepts_distinct_conjugates,
                                  accepts_long_shift, accepts_non_conjugates,
                                  accepts_power_search, base_k_value,
                                  long_witness_language, quo_enumerate)
from wordshift.reductions import (ShiftInstance, block_morphism,
                                  one_step_language, rewrite_to_shift,
                                  shift_search, shift_to_power)
from wordshift.regex import lit, regex_assemble, star
from wordshift.rewriting import (RewritingSystem, TuringMachine, one_step,
                                 replay_derivation, rewrite_power_search,
                                 tm_run, tm_to_rewriting)
from wordshift.words import are_conjugates, convolve

from conftest import all_words, language, rand_dfa, rand_nfa, rand_system, w

AB = ("a", "b")
A_TO_B = RewritingSystem(AB, [(w("a"), w("b"))])

SINGLE_MOVE_TM = TuringMachine(
    states=("q0", "qf"), input_alphabet=(), tape_alphabet=("B",),
    delta={("q0", "B"): [("qf", "B", "R")]},
    start="q0", blank="B", final="qf")

LOOPING_TM = TuringMachine(
    states=("q0", "qf"), input_alphabet=(), tape_alphabet=("B",),
    delta={("q0", "B"): [("q0", "B", "R")]},
    start="q0", blank="B", final="qf")


class budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.started = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.started
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"{self.name} took {elapsed:.1f}s, budget {self.seconds}s"
            print(f"{self.name}: PASS ({elapsed:.1f}s)")
        return False


def rule_kind(machine, index, total):
    """Class of the index-th emitted rule: opener=1, minter=2, right=3,
    left=4, sweep-right=5, sweep-left=6, closer=7."""
    rights = sum(1 for moves in machine.delta.values()
                 for (_q, _d, direction) in moves if direction == "R")
    lefts = sum(len(machine.tape_alphabet) for moves in machine.delta.values()
                for (_q, _d, direction) in moves if direction == "L")
    tape = len(machine.tape_alphabet)
    bounds = [1, 1, rights, lefts, tape, tape, 1]
    assert total == sum(bounds)
    for kind, width in enumerate(bounds, start=1):
        if index < width:
            return kind
        index -= width
    raise AssertionError("rule index out of range")


def test_criterion_1_one_step_equivalence():
    with budget("criterion 1 (one-step language equivalence)", 30):
        rng = random.Random(0xE8)
        for _ in range(200):
            s = rand_system(rng, alphabet=AB, max_rules=3, max_side=2)
            membership = determinize(one_step_language(s))
            for u in all_words(AB, 5):
                successors = one_step(s, u)
                for v in itertools.product(AB, repeat=len(u)):
                    assert membership.accepts(convolve(v, u)) == (v in successors)


def test_criterion_2_machine_encoding_pipeline():
    with budget("criterion 2 (machine encoding pipeline)", 10):
        run = tm_run(SINGLE_MOVE_TM)
        assert run.halted and run.cells_used == 1
        system = tm_to_rewriting(SINGLE_MOVE_TM)
        out = rewrite_power_search(system, "a", "b", 5)
        assert out.is_yes and out.witness["n"] == 3 == run.cells_used + 2
        assert replay_derivation(system, out.witness["derivation"],
                                 out.witness["steps"])
        kinds = [rule_kind(SINGLE_MOVE_TM, idx, len(system.rules))
                 for (idx, _pos) in out.witness["steps"]]
        assert len(kinds) == 5
        assert kinds[:3] == [1, 2, 3]
        assert kinds[3] in (5, 6)
        assert kinds[4] == 7

        looping = tm_to_rewriting(LOOPING_TM)
        assert rewrite_power_search(looping, "a", "b", 8).is_unknown


def test_criterion_3_shift_encoding_witness():
    with budget("criterion 3 (shift encoding witness)", 10):
        inst = rewrite_to_shift(A_TO_B, "a", "b")
        out = shift_search(inst, 6)
        assert out.is_yes
        d = inst.gamma[-1]
        assert out.witness["x"] == (d, "a", d, "b", d)
        assert out.witness["n"] == 2
        chunks, cur = [], []
        for atom in out.witness["x"]:
            if atom == d:
                chunks.append(tuple(cur))
                cur = []
            else:
                cur.append(atom)
        assert chunks[1:] == [("a",), ("b",)]


def test_criterion_4_long_shift_cross_validation():
    with budget("criterion 4 (long-shift cross validation)", 60):
        rng = random.Random(2026)
        pa = pair_alphabet(("a", "b", "c"))
        for _ in range(100):
            inst = ShiftInstance(AB, "c", rand_nfa(rng, 3, pa, edge_p=0.08))
            out = accepts_long_shift(inst)
            brute = None
            for x in all_words(AB, 3):
                for n in range(len(x), 7):
                    word = convolve(x + ("c",) * n, ("c",) * n + x)
                    if inst.automaton.accepts(word):
                        brute = (x, n)
                        break
                if brute:
                    break
            assert out.is_yes == (brute is not None)
            if out.is_yes:
                x, n = out.witness["x"], out.witness["n"]
                assert n >= len(x)
                assert inst.automaton.accepts(
                    convolve(x + ("c",) * n, ("c",) * n + x))


def test_criterion_5_distinct_conjugates_family():
    with budget("criterion 5 (distinct conjugates and family)", 60):
        for t in (1, 2, 3, 4):
            m = long_witness_language(t)
            out = accepts_distinct_conjugates(m, state_cap=None)
            assert out.is_yes
            assert len(out.witness["u"]) == t * t + t + 1
            assert len(out.witness["v"]) == t * t + t + 2
            assert m.accepts(out.witness["uv"]) and m.accepts(out.witness["vu"])
            assert out.witness["uv"] != out.witness["vu"]

        repeated = minimize(determinize(regex_assemble(star(lit(w("ab"))), AB)))
        assert accepts_distinct_conjugates(repeated, state_cap=None).is_no
        single = minimize(determinize(regex_assemble(lit(w("ab")), AB)))
        assert accepts_distinct_conjugates(single, state_cap=None).is_no
        # a 4-cycle on a with a sink on b accepts (aaaa)*, whose words commute
        delta = {(q, "a"): (q + 1) % 4 for q in range(4)}
        delta.update({(q, "b"): 4 for q in range(5)})
        delta[(4, "a")] = 4
        cycle = Dfa(AB, range(5), 0, {0}, delta)
        assert accepts_distinct_conjugates(cycle, state_cap=None).is_no


def test_criterion_6_non_conjugates_cross_validation():
    with budget("criterion 6 (non-conjugates cross validation)", 60):
        rng = random.Random(2026)
        for _ in range(100):
            m = rand_dfa(rng, 3, AB)
            out = accepts_non_conjugates(m)
            brute = None
            by_len = {}
            for word in language(m, 8):
                by_len.setdefault(len(word), []).append(word)
            for _length, words in sorted(by_len.items()):
                for x in words:
                    for y in words:
                        if not are_conjugates(x, y):
                            brute = (x, y)
                            break
                    if brute:
                        break
                if brute:
                    break
            if brute is not None:
                assert out.is_yes
            if out.is_yes:
                assert brute is not None
                x, y = out.witness["x"], out.witness["y"]
                assert len(x) == len(y) and not are_conjugates(x, y)
                assert m.accepts(x) and m.accepts(y)


def test_criterion_7_lexleast_and_cyc():
    with budget("criterion 7 (lexleast and cyc correctness)", 60):
        rng = random.Random(2026)
        for _ in range(100):
            m = rand_dfa(rng, 4, AB)
            minima = set()
            by_len = {}
            for word in language(m, 8):
                by_len.setdefault(len(word), []).append(word)
            for _length, words in by_len.items():
                minima.add(min(words,
                               key=lambda u: [m.alphabet.index(s) for s in u]))
            assert language(lexleast(m), 8) == minima

            closure = set()
            for word in language(m, 7):
                for k in range(max(1, len(word))):
                    closure.add(word[k:] + word[:k])
            assert language(cyc(m), 7) == closure


def test_criterion_8_power_pipeline():
    with budget("criterion 8 (base-k power pipeline)", 30):
        inst = rewrite_to_shift(A_TO_B, "a", "b")
        power = shift_to_power(inst)
        assert power.k == len(inst.gamma) + 1
        assert power.digit_of[inst.c] == "0"
        out = accepts_power_search(power.automaton, power.k, 14)
        assert out.is_yes
        word = out.witness["word"]
        p = base_k_value([u for (u, _v) in word], power.k)
        q = base_k_value([v for (_u, v) in word], power.k)
        assert Fraction(p, q) == Fraction(power.k) ** out.witness["i"]

        enumeration = quo_enumerate(power.automaton, power.k, 12)
        recomputed = set()
        for accepted in accepted_words(power.automaton, 12):
            num = base_k_value([u for (u, _v) in accepted], power.k)
            den = base_k_value([v for (_u, v) in accepted], power.k)
            if den:
                recomputed.add(Fraction(num, den))
        assert enumeration.ratios == frozenset(recomputed)


def test_criterion_9_binary_recoding():
    with budget("criterion 9 (binary block recoding)", 30):
        phi = block_morphism(("a1", "a2"), "c")
        assert phi["a1"] == w("101")
        assert phi["a2"] == w("111")
        assert phi["c"] == w("000")
        assert phi.image_length() == 3

        sigma = ("a1", "a2")
        systems = [
            RewritingSystem(sigma, [(("a1",), ("a2",))]),
            RewritingSystem(sigma, [(("a1", "a2"), ("a2", "a1"))]),
            RewritingSystem(sigma, [(("a1",), ("a1",)), (("a2", "a2"), ("a1", "a1"))]),
        ]
        for s in systems:
            coded_one_step = determinize(regex_assemble(
                _coded_regex(s, phi), pair_alphabet(("1", "0"))))
            for u in all_words(sigma, 4):
                successors = one_step(s, u)
                for v in itertools.product(sigma, repeat=len(u)):
                    expected = v in successors
                    got = coded_one_step.accepts(convolve(phi.apply(v),
                                                          phi.apply(u)))
                    assert got == expected


def _coded_regex(s, phi):
    from wordshift.reductions import _one_step_regex
    return _one_step_regex(s, encode=phi.apply)
