import random

import pytest

from wordshift.automata import determinize, is_empty
from wordshift.langops import cyc, distinct_conjugate_completions, lexleast
from wordshift.regex import alt, lit, one_of, regex_assemble, star

from conftest import all_words, language, product_completions, rand_dfa, w

AB = ("a", "b")


def dfa_for(expr, alphabet=AB):
    return determinize(regex_assemble(expr, alphabet))


def per_length_minima(m, max_len):
    out = set()
    for length in range(max_len + 1):
        words = sorted(word for word in all_words(m.alphabet, length)
                       if len(word) == length and m.accepts(word))
        if words:
            out.add(min(words, key=lambda u: [m.alphabet.index(s) for s in u]))
    return out


def rotations(word):
    return {word[k:] + word[:k] for k in range(max(1, len(word)))}


def test_lexleast_of_everything_is_a_star():
    m = dfa_for(star(one_of(*AB)))
    assert language(lexleast(m), 5) == {("a",) * k for k in range(6)}


def test_lexleast_small_example():
    m = dfa_for(alt(lit(w("ab")), lit(w("ba")), lit(w("aa"))))
    got = {word for word in language(lexleast(m), 2) if len(word) == 2}
    assert got == {w("aa")}


def test_lexleast_matches_minima_on_random_dfas():
    rng = random.Random(301)
    for _ in range(25):
        m = rand_dfa(rng, 3, AB)
        ll = lexleast(m)
        assert language(ll, 8) == per_length_minima(m, 8)


def test_lexleast_one_word_per_length_and_subset():
    rng = random.Random(302)
    for _ in range(15):
        m = rand_dfa(rng, 4, AB)
        ll = lexleast(m)
        by_length = {}
        for word in language(ll, 8):
            by_length.setdefault(len(word), []).append(word)
            assert m.accepts(word)
        assert all(len(v) == 1 for v in by_length.values())


def test_cyc_examples():
    m = dfa_for(lit(w("ab")))
    assert language(cyc(m), 3) == {w("ab"), w("ba")}
    empty = dfa_for(alt())
    assert is_empty(cyc(empty))


def test_cyc_epsilon_membership():
    with_eps = dfa_for(star(lit(w("ab"))))
    without = dfa_for(lit(w("ab")))
    assert () in language(cyc(with_eps), 2)
    assert () not in language(cyc(without), 2)


def test_cyc_matches_rotation_closure():
    rng = random.Random(303)
    for _ in range(25):
        m = rand_dfa(rng, 3, AB)
        closure = set()
        for word in language(m, 7):
            closure |= rotations(word)
        assert language(cyc(m), 7) == closure


def test_cyc_idempotent_up_to_bounded_membership():
    rng = random.Random(304)
    for _ in range(10):
        m = rand_dfa(rng, 3, AB)
        once = determinize(cyc(m))
        twice = cyc(once)
        assert language(twice, 7) == language(once, 7)


def test_completions_example():
    m = dfa_for(alt(lit(w("ab")), lit(w("ba"))))
    lx = distinct_conjugate_completions(m, w("a"))
    assert {word for word in language(lx, 3)} == {w("b")}


def test_completions_commutation_forces_empty():
    m = dfa_for(lit(w("aa")))
    assert is_empty(distinct_conjugate_completions(m, w("a")))


def test_completions_match_definition():
    rng = random.Random(305)
    for _ in range(15):
        m = rand_dfa(rng, 3, AB)
        for x in all_words(AB, 3):
            if not x:
                continue
            lx = distinct_conjugate_completions(m, x)
            for y in all_words(AB, 6):
                expected = (m.accepts(x + y) and m.accepts(y + x)
                            and x + y != y + x)
                assert lx.accepts(y) == expected


def test_completions_match_product_construction():
    # the triple walk numbers its states exactly as the three-product
    # construction it replaced
    rng = random.Random(306)
    for _ in range(60):
        alphabet = rng.choice((AB, ("a", "b", "c")))
        m = rand_dfa(rng, rng.randint(1, 4), alphabet)
        for x in all_words(alphabet, 4):
            if not x:
                continue
            got = distinct_conjugate_completions(m, x)
            want = product_completions(m, x)
            assert (got.states, got.start, got.finals, got.delta) == \
                (want.states, want.start, want.finals, want.delta)


def test_completions_reject_empty_x():
    m = dfa_for(lit(w("aa")))
    with pytest.raises(ValueError, match="nonempty"):
        distinct_conjugate_completions(m, ())
    with pytest.raises(ValueError, match="alphabet"):
        distinct_conjugate_completions(m, ("z",))
