import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from wordshift.automata import (EPSILON, Nfa, accepted_words, co_reachable,
                                determinize, minimize, pair_alphabet,
                                shortest_word)
import wordshift
from wordshift.outcome import DecisionOutcome
from wordshift.procedures import (_least_word_of_length,
                                  accepts_distinct_conjugates,
                                  accepts_long_shift, accepts_non_conjugates,
                                  accepts_power_search, base_k_value,
                                  long_witness_language, quo_enumerate)
from wordshift.reductions import ShiftInstance
from wordshift.regex import alt, lit, regex_assemble, star
from wordshift.words import are_conjugates, convolve, primitive_root

from conftest import (all_words, language, layered_least_word_of_length,
                      product_completions, rand_dfa, rand_nfa,
                      scan_power_search, subset_long_shift, w)

AB = ("a", "b")


def dfa_for(expr, alphabet=AB):
    return minimize(determinize(regex_assemble(expr, alphabet)))


def word_nfa(accepted_word, alphabet):
    states = range(len(accepted_word) + 1)
    transitions = {(i, sym, i + 1) for i, sym in enumerate(accepted_word)}
    return Nfa(alphabet, states, {0}, {len(accepted_word)}, transitions)


def shift_instance_over_ab(nfa):
    return ShiftInstance(("a", "b"), "c", nfa)


def brute_long_shift(inst, max_x, max_n):
    for x in all_words(inst.gamma, max_x):
        for n in range(len(x), max_n + 1):
            word = convolve(x + (inst.c,) * n, (inst.c,) * n + x)
            if inst.automaton.accepts(word):
                return (x, n)
    return None


def test_long_shift_yes_example():
    pa = pair_alphabet(("a", "b", "c"))
    inst = shift_instance_over_ab(
        word_nfa((("a", "c"), ("c", "c"), ("c", "a")), pa))
    out = accepts_long_shift(inst)
    assert out.is_yes and out.witness["x"] == w("a") and out.witness["n"] == 2


def test_long_shift_no_example():
    pa = pair_alphabet(("a", "b", "c"))
    inst = shift_instance_over_ab(
        word_nfa((("a", "c"), ("c", "a"), ("a", "c"), ("c", "a")), pa))
    assert accepts_long_shift(inst).is_no


def test_long_shift_empty_x():
    pa = pair_alphabet(("a", "b", "c"))
    inst = shift_instance_over_ab(word_nfa((("c", "c"),), pa))
    out = accepts_long_shift(inst)
    assert out.is_yes and out.witness["x"] == () and out.witness["n"] == 1


def test_long_shift_matches_brute_force():
    rng = random.Random(601)
    pa = pair_alphabet(("a", "b", "c"))
    for _ in range(40):
        inst = shift_instance_over_ab(rand_nfa(rng, 3, pa, edge_p=0.08))
        out = accepts_long_shift(inst)
        brute = brute_long_shift(inst, 3, 6)
        assert out.is_yes == (brute is not None)
        if out.is_yes:
            x, n = out.witness["x"], out.witness["n"]
            assert n >= len(x)
            assert inst.automaton.accepts(convolve(
                x + (inst.c,) * n, (inst.c,) * n + x))


def rand_shift_instance(rng, n_states, gamma, edge_p, eps_p=0.08):
    # Epsilon-NFA with one final state and several start states.  (c,c)
    # moves are rarer than the others, so that fewer witnesses have an
    # empty x.
    pa = pair_alphabet(gamma + ("c",))
    transitions = set()
    for src in range(n_states):
        for s in pa + (EPSILON,):
            p = eps_p if s is EPSILON else edge_p / 3 if s == ("c", "c") else edge_p
            transitions.update((src, s, dst) for dst in range(n_states) if rng.random() < p)
    starts = {0} | {q for q in range(n_states) if rng.random() < 0.2}
    return ShiftInstance(gamma, "c", Nfa(pa, range(n_states), starts, {n_states - 1},
                                         transitions))


def test_long_shift_matches_subset_search():
    # Whole outcomes, witness and n included.  Keep the draws small: the
    # oracle's sets of triples blow up on larger ones.
    rng = random.Random(602)
    for _ in range(300):
        inst = rand_shift_instance(rng, rng.randint(2, 5), ("a", "b")[:rng.randint(1, 2)],
                                   rng.choice((0.2, 0.3)))
        assert accepts_long_shift(inst) == subset_long_shift(inst)
        a = inst.automaton
        startless = ShiftInstance(inst.gamma, inst.c,
                                  Nfa(a.alphabet, a.states, (), a.finals, a.transitions))
        assert accepts_long_shift(startless).is_no
        assert subset_long_shift(startless).is_no


def shift_cliff_instance(n, seed):
    # Only (b,c) edges enter the one final state, so the second track never
    # reaches it and the answer is no; the sets of triples a subset walk
    # meets grow with the transformation monoid of the (c, g) letters.
    rng = random.Random(seed)
    pa = pair_alphabet(("a", "b", "c"))
    final = n - 1
    transitions = set()
    for q in range(n):
        for s in pa:
            r = rng.randrange(n)
            if r == final and s != ("b", "c"):
                r = rng.randrange(n - 1)
            transitions.add((q, s, r))
    return ShiftInstance(("a", "b"), "c", Nfa(pa, range(n), {0}, {final}, transitions))


@pytest.mark.parametrize("n, seed", [(12, 1012), (14, 14)])
def test_long_shift_cliff_draws_answer_no(n, seed):
    # The subset walk took seconds on the first draw and did not finish on
    # the second; the triple walk visits at most n^3 keys.
    assert accepts_long_shift(shift_cliff_instance(n, seed)).is_no


def test_distinct_conjugates_examples():
    m = dfa_for(alt(lit(w("ab")), lit(w("ba"))))
    out = accepts_distinct_conjugates(m, state_cap=None)
    assert out.is_yes
    assert m.accepts(out.witness["uv"]) and m.accepts(out.witness["vu"])
    assert out.witness["uv"] != out.witness["vu"]

    assert accepts_distinct_conjugates(dfa_for(star(lit(w("ab"))))).is_no
    assert accepts_distinct_conjugates(dfa_for(lit(w("ab")))).is_no


def test_distinct_conjugates_state_cap():
    m = dfa_for(alt(lit(w("ab")), lit(w("ba"))))
    assert len(m.states) == 5
    with pytest.raises(ValueError, match="state_cap"):
        accepts_distinct_conjugates(m, state_cap=4)
    assert accepts_distinct_conjugates(m, state_cap=5).is_yes
    assert accepts_distinct_conjugates(m).is_yes


def brute_distinct_conjugates(m, max_len):
    words_by_len = {}
    for word in language(m, max_len):
        words_by_len.setdefault(len(word), []).append(word)
    for length, words in sorted(words_by_len.items()):
        for uv in sorted(words):
            for k in range(length + 1):
                vu = uv[k:] + uv[:k]
                if vu != uv and m.accepts(vu):
                    return uv, vu
    return None


def test_distinct_conjugates_matches_brute_force():
    rng = random.Random(602)
    for _ in range(25):
        m = rand_dfa(rng, 3, AB)
        out = accepts_distinct_conjugates(m, state_cap=None)
        brute = brute_distinct_conjugates(m, 8)
        if brute is not None:
            assert out.is_yes
        if out.is_yes:
            assert brute is not None


def enumerate_distinct_conjugates(m):
    """Reference procedure: every u up to length n^2 in length-then-lex
    order, each tested through its three-product completion language.

    Returns the (u, v) witness or None, and how many u were passed over
    although some nonempty y has uy and yu accepted, which happens exactly
    when every such y is a power of the root of u."""
    n = len(m.states)
    live = co_reachable(m)
    reach = {m.start}
    for _ in range(n):
        reach |= {m.delta[(q, s)] for q in reach for s in m.alphabet}
    skipped = 0
    for length in range(1, n * n + 1):
        for u in itertools.product(m.alphabet, repeat=length):
            if m.run(m.start, u) not in live:
                continue  # no completion of u is accepted
            if not any(m.run(q, u) in m.finals for q in reach):
                continue  # nothing accepted ends with u
            v = shortest_word(product_completions(m, u))
            if v is not None:
                return (u, v), skipped
            root, _ = primitive_root(u)
            skipped += any(m.accepts(u + root * j) for j in range(1, n + 1))
    return None, skipped


def test_distinct_conjugates_matches_enumeration():
    # the monoid walk returns exactly the witness of the word enumeration
    # it replaced, and some instance steps past a u = s^e
    rng = random.Random(606)
    cases = [rand_dfa(rng, rng.randint(1, 3), AB) for _ in range(200)]
    cases += [rand_dfa(rng, rng.randint(1, 3), ("a", "b", "c")) for _ in range(40)]
    cases += [rand_dfa(rng, 4, AB) for _ in range(8)]
    cases += [long_witness_language(t) for t in (1, 2, 3)]
    skipped = 0
    for m in cases:
        expected, passed_over = enumerate_distinct_conjugates(m)
        skipped += passed_over
        out = accepts_distinct_conjugates(m)
        if expected is None:
            assert out.is_no
        else:
            assert out.is_yes
            assert (out.witness["u"], out.witness["v"]) == expected
    assert skipped > 0


def test_non_conjugates_examples():
    assert accepts_non_conjugates(dfa_for(alt(lit(w("ab")), lit(w("ba"))))).is_no
    out = accepts_non_conjugates(dfa_for(alt(lit(w("aa")), lit(w("ab")))))
    assert out.is_yes
    x, y = out.witness["x"], out.witness["y"]
    assert {x, y} == {w("aa"), w("ab")}
    assert accepts_non_conjugates(dfa_for(star(lit(w("ab"))))).is_no


def brute_non_conjugates(m, max_len):
    words_by_len = {}
    for word in language(m, max_len):
        words_by_len.setdefault(len(word), []).append(word)
    for _length, words in sorted(words_by_len.items()):
        for x in words:
            for y in words:
                if not are_conjugates(x, y):
                    return x, y
    return None


def test_non_conjugates_matches_brute_force():
    rng = random.Random(603)
    for _ in range(40):
        m = rand_dfa(rng, 3, AB)
        out = accepts_non_conjugates(m)
        brute = brute_non_conjugates(m, 8)
        if brute is not None:
            assert out.is_yes
        if out.is_yes:
            x, y = out.witness["x"], out.witness["y"]
            assert len(x) == len(y) and not are_conjugates(x, y)
            assert m.accepts(x) and m.accepts(y)
            assert brute is not None


def test_least_word_of_length_matches_layered_descent():
    rng = random.Random(604)
    for _ in range(300):
        alphabet = ("a", "b", "c")[:rng.randint(1, 3)]
        m = rand_dfa(rng, rng.randint(1, 8), alphabet)
        for length in range(9):
            assert (_least_word_of_length(m, length)
                    == layered_least_word_of_length(m, length))


def test_single_word_per_length_gives_double_no():
    # both properties need two distinct accepted words of one length
    m = dfa_for(star(lit(w("ba"))))
    assert accepts_distinct_conjugates(m, state_cap=None).is_no
    assert accepts_non_conjugates(m).is_no


def test_base_k_value():
    assert base_k_value(w("101"), 2) == 5
    assert base_k_value((), 2) == 0
    assert base_k_value(w("0077"), 10) == 77
    with pytest.raises(ValueError, match="out of range"):
        base_k_value(w("2"), 2)
    with pytest.raises(ValueError, match="digit"):
        base_k_value(w("x"), 2)


def test_quo_enumerate_examples():
    pa = pair_alphabet(("0", "1"))
    only_11 = word_nfa((("1", "1"),), pa)
    result = quo_enumerate(only_11, 2, 4)
    assert result.ratios == {Fraction(1)}
    assert result.zero_denominators == 0

    ten_over_01 = word_nfa((("1", "0"), ("0", "1")), pa)
    assert quo_enumerate(ten_over_01, 2, 4).ratios == {Fraction(2)}

    zero_den = word_nfa((("1", "0"),), pa)
    result = quo_enumerate(zero_den, 2, 4)
    assert result.ratios == frozenset() and result.zero_denominators == 1


def test_quo_enumerate_recomputes():
    rng = random.Random(604)
    pa = pair_alphabet(("0", "1"))
    for _ in range(10):
        m = rand_nfa(rng, 3, pa, edge_p=0.12)
        result = quo_enumerate(m, 2, 5)
        recomputed = set()
        for word in accepted_words(m, 5):
            p = base_k_value([u for u, _ in word], 2)
            q = base_k_value([v for _, v in word], 2)
            if q:
                recomputed.add(Fraction(p, q))
        assert result.ratios == frozenset(recomputed)


def test_power_search_examples():
    pa = pair_alphabet(("0", "1"))
    only_11 = word_nfa((("1", "1"),), pa)
    out = accepts_power_search(only_11, 2, 4)
    assert out.is_yes and out.witness["i"] == 0

    nothing = Nfa(pa, {0}, {0}, set(), set())
    assert accepts_power_search(nothing, 2, 5).is_unknown


def test_power_search_monotone_in_bound():
    pa = pair_alphabet(("0", "1"))
    m = word_nfa((("1", "0"), ("0", "1")), pa)
    first_yes = accepts_power_search(m, 2, 2)
    assert first_yes.is_yes
    for extra in (3, 6):
        assert accepts_power_search(m, 2, extra).is_yes


def test_power_search_rejects_bad_atoms_up_front():
    # the automaton accepts nothing, so no accepted word ever uses the atom
    def empty(atoms):
        return Nfa(pair_alphabet(atoms), {0}, {0}, set(), set())

    with pytest.raises(ValueError, match="'x' is not a digit atom"):
        accepts_power_search(empty(("0", "1", "x")), 2, 5)
    with pytest.raises(ValueError, match="digit 2 out of range for base 2"):
        accepts_power_search(empty(("0", "1", "2")), 2, 5)
    with pytest.raises(ValueError, match="both have digit value 0"):
        accepts_power_search(empty(("0", "1", "00")), 2, 5)
    with pytest.raises(ValueError, match="pair symbols"):
        accepts_power_search(Nfa(("0", "1"), {0}, {0}, set(), set()), 2, 5)
    assert accepts_power_search(empty(("0", "1", "2")), 3, 5).is_unknown


def test_power_search_matches_scan():
    # the windowed search returns exactly the first power word of the scan
    # it replaced, whatever order the alphabet declares its pairs in
    rng = random.Random(607)
    verdicts, exponents = set(), set()
    for trial in range(180):
        k = 2 if trial % 2 else 3
        alphabet = list(pair_alphabet([str(d) for d in range(k)]))
        if trial % 3 == 0:
            rng.shuffle(alphabet)
        m = rand_nfa(rng, rng.randint(1, 4), tuple(alphabet), edge_p=0.3)
        max_len = 6 if k == 2 else 5
        out = accepts_power_search(m, k, max_len)
        assert out == scan_power_search(m, k, max_len)
        verdicts.add(out.verdict)
        if out.is_yes:
            exponents.add(out.witness["i"])
    assert verdicts == {"yes", "unknown"} and max(exponents) >= 1


def test_long_witness_language_family():
    for t in (1, 2):
        m = long_witness_language(t)
        assert len(m.states) == 3 * t + 8
        shortest_branch1 = ("a",) * t + ("b",) + ("a",) * (t + 1) + w("bb")
        assert m.accepts(shortest_branch1)
        out = accepts_distinct_conjugates(m, state_cap=None)
        assert out.is_yes
        assert len(out.witness["u"]) == t * t + t + 1
        assert len(out.witness["v"]) == t * t + t + 2


def test_long_witness_brute_force_shortest_pair():
    # oracle for the family: scan rotations by total length, then split point
    t = 1
    m = long_witness_language(t)
    hits = []
    for uv in accepted_words(m, 2 * (t * t + t) + 3):
        for k in range(1, len(uv)):
            vu = uv[k:] + uv[:k]
            if vu != uv and m.accepts(vu):
                hits.append((len(uv), k))
    assert hits
    best_total = min(total for total, _ in hits)
    best_k = min(k for total, k in hits if total == best_total)
    assert best_total == 2 * (t * t + t) + 3
    assert best_k == t * t + t + 1


def test_outcome_validation():
    with pytest.raises(ValueError, match="witness"):
        DecisionOutcome("yes")
    with pytest.raises(ValueError, match="bound"):
        DecisionOutcome("unknown")
    with pytest.raises(ValueError, match="verdict"):
        DecisionOutcome("maybe")


# A broken conjugacy test makes every non-conjugates witness fail its
# re-check; the check must still fire with asserts stripped.
_BROKEN_RECHECK = """
from wordshift import procedures
from wordshift.regex import alt, lit, regex_assemble
from wordshift.automata import determinize
procedures.are_conjugates = lambda x, y: True
m = determinize(regex_assemble(alt(lit("aa"), lit("ab")), ("a", "b")))
try:
    print(procedures.accepts_non_conjugates(m).verdict)
except AssertionError as exc:
    print(type(exc).__name__)
"""


def test_witness_recheck_survives_optimize_flag():
    src = os.path.dirname(os.path.dirname(wordshift.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", _BROKEN_RECHECK], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "WitnessError"
