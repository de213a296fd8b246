import random

import pytest

from wordshift.automata import (EPSILON, Dfa, Nfa, _search, accepted_words,
                                co_reachable, complement, determinize,
                                is_empty, is_subset, minimize, pair_alphabet,
                                product, relabel, shortest_word,
                                with_alphabet_order)
from wordshift.regex import alt, lit, one_of, regex_assemble, seq, star

from conftest import (all_words, dfs_co_reachable, language, oracle_accepts,
                      rand_dfa, rand_nfa, subset_shortest_word, w)

AB = ("a", "b")


def dfa_for(expr, alphabet=AB):
    return determinize(regex_assemble(expr, alphabet))


def test_determinize_singleton():
    n = Nfa(AB, {0, 1}, {0}, {1}, {(0, "a", 1)})
    d = determinize(n)
    assert len(d.states) <= 3
    assert language(d, 3) == {w("a")}


def test_determinize_no_finals_is_empty():
    n = Nfa(AB, {0, 1}, {0}, set(), {(0, "a", 1), (1, "b", 0)})
    d = determinize(n)
    assert is_empty(d)
    assert language(d, 4) == set()


def test_determinize_agrees_with_oracle_on_random_nfas():
    rng = random.Random(101)
    for _ in range(30):
        n = rand_nfa(rng, 4, AB)
        d = determinize(n)
        for word in all_words(AB, 8):
            assert d.accepts(word) == oracle_accepts(n, word)


def test_subset_simulation_matches_oracle():
    rng = random.Random(102)
    for _ in range(30):
        n = rand_nfa(rng, 4, AB, eps_p=0.15)
        for word in all_words(AB, 6):
            assert n.accepts(word) == oracle_accepts(n, word)


def test_product_identity_and_annihilation():
    sigma_star = dfa_for(star(one_of(*AB)))
    L = dfa_for(alt(lit(w("ab")), lit(w("bba"))))
    assert language(product(sigma_star, L, "intersect"), 5) == language(L, 5)
    assert is_empty(product(L, L, "difference"))


def test_product_modes_match_membership():
    rng = random.Random(103)
    for _ in range(20):
        a = rand_dfa(rng, 3, AB)
        b = rand_dfa(rng, 3, AB)
        for mode, fn in [("intersect", lambda x, y: x and y),
                         ("union", lambda x, y: x or y),
                         ("difference", lambda x, y: x and not y)]:
            combined = product(a, b, mode)
            for word in all_words(AB, 8):
                assert combined.accepts(word) == fn(a.accepts(word), b.accepts(word))


def test_product_alphabet_mismatch():
    a = rand_dfa(random.Random(1), 2, AB)
    b = rand_dfa(random.Random(2), 2, ("a", "c"))
    with pytest.raises(ValueError, match="alphabet mismatch"):
        product(a, b, "intersect")
    with pytest.raises(ValueError, match="alphabet mismatch"):
        is_subset(a, b)


def test_complement_of_empty_is_everything():
    empty = dfa_for(alt())
    everything = complement(empty)
    assert all(everything.accepts(word) for word in all_words(AB, 5))


def test_double_complement_and_determinize_preserve_membership():
    rng = random.Random(104)
    for _ in range(15):
        n = rand_nfa(rng, 4, AB)
        d = determinize(n)
        dd = complement(complement(d))
        redet = determinize(dd.to_nfa())
        for word in all_words(AB, 8):
            expected = oracle_accepts(n, word)
            assert dd.accepts(word) == expected
            assert redet.accepts(word) == expected


def test_shortest_word_examples():
    m = dfa_for(alt(lit(w("ab")), lit(w("b"))))
    assert shortest_word(m) == w("b")
    n = Nfa(AB, {0}, {0}, set(), set())
    assert shortest_word(n) is None
    assert is_empty(n)


def test_shortest_word_is_least_accepted():
    rng = random.Random(105)
    for _ in range(40):
        n = rand_nfa(rng, 4, AB)
        assert co_reachable(n) == dfs_co_reachable(n)
        best = shortest_word(n)
        enumerated = [word for word in all_words(AB, 6) if oracle_accepts(n, word)]
        if best is None or len(best) > 6:
            assert enumerated == []
        else:
            assert enumerated and enumerated[0] == best
    # a DFA is searched over its delta, the same automaton as an NFA over
    # its transitions; both walks must agree
    for _ in range(40):
        d = rand_dfa(rng, 5, AB, final_p=0.2)
        assert co_reachable(d) == co_reachable(d.to_nfa()) == dfs_co_reachable(d.to_nfa())
        assert shortest_word(d) == shortest_word(d.to_nfa())


def test_shortest_word_matches_subset_search():
    # Random epsilon-NFAs with several start states: the walk over states
    # must give the subset search's word, and is_empty its verdict.
    rng = random.Random(1701)
    for _ in range(300):
        alphabet = ("a", "b", "c")[:rng.randint(1, 3)]
        n = rand_nfa(rng, rng.randint(1, 7), alphabet,
                     edge_p=rng.choice((0.1, 0.2, 0.3)), eps_p=0.1)
        drawn = {q for q in n.states if rng.random() < 0.3} or {0}
        # a start-less NFA, as a file with no start line parses, too
        for starts in (drawn, set()):
            n = Nfa(alphabet, n.states, starts, n.finals, n.transitions)
            expected = subset_shortest_word(n)
            assert shortest_word(n) == expected
            assert is_empty(n) == (expected is None)
        assert expected is None


def test_shortest_word_past_the_subset_cliff():
    # (a|b)*a(a|b)^24 c: a closed subset records which of the last 25
    # letters were a, so a subset search meets about 2^26 subsets before
    # length 26; the walk over states meets each state once.
    ab = one_of("a", "b")
    n = regex_assemble(seq(star(ab), lit(w("a")), *[ab] * 24, lit(w("c"))),
                       ("a", "b", "c"))
    assert shortest_word(n) == w("a" * 25 + "c")


def test_search_groups_nondeterministic_edges():
    edges = {0: [("a", 1), ("a", 2), ("b", 3)], 1: [("b", 4)], 2: [("a", 4)],
             3: [], 4: []}
    at_4 = (4).__eq__
    # 1 and 2 share the word a, so 2's a edge comes before 1's b edge
    assert _search([0], edges.get, at_4, labels="ab") == w("aa")
    assert _search([1, 2], edges.get, at_4, labels="ab") == w("a")
    assert _search([2, 1], edges.get, at_4, labels="ab") == w("a")
    assert _search([0, 0], edges.get, at_4, labels="ab") == w("aa")
    assert _search([0], edges.get, at_4, max_depth=0, labels="ab") is None
    assert _search([0], edges.get, at_4, max_depth=1, labels="ab") is None
    assert _search([3, 4], edges.get, at_4) == ()
    assert _search([4], edges.get, at_4, max_depth=0) == ()
    assert _search([], edges.get, at_4, labels="ab") is None
    # with no labels a group of several keys cannot be ordered
    with pytest.raises(KeyError):
        _search([1, 2], edges.get, at_4)
    with pytest.raises(KeyError):
        _search([0], edges.get, at_4)


def test_is_subset_examples():
    sigma_star = dfa_for(star(one_of(*AB)))
    L = dfa_for(alt(lit(w("ab")), lit(w("aab"))))
    empty = dfa_for(alt())
    assert is_subset(L, sigma_star) == (True, None)
    holds, witness = is_subset(L, empty)
    assert not holds and witness == shortest_word(L)


def test_is_subset_matches_enumeration():
    rng = random.Random(106)
    for _ in range(20):
        a = rand_dfa(rng, 3, AB)
        b = rand_dfa(rng, 3, AB)
        holds, witness = is_subset(a, b)
        assert witness == shortest_word(product(a, b, "difference"))
        gap = [word for word in all_words(AB, 8)
               if a.accepts(word) and not b.accepts(word)]
        if holds:
            assert gap == []
        else:
            assert a.accepts(witness) and not b.accepts(witness)
            if gap and len(gap[0]) <= 8:
                assert witness == gap[0]


def test_minimize_preserves_language():
    rng = random.Random(107)
    for _ in range(20):
        d = rand_dfa(rng, 5, AB)
        m = minimize(d)
        assert len(m.states) <= len(d.states)
        for word in all_words(AB, 7):
            assert m.accepts(word) == d.accepts(word)


def test_accepted_words_order_and_content():
    m = dfa_for(alt(lit(w("b")), lit(w("ab")), lit(w("aa")), lit(w("bab"))))
    got = list(accepted_words(m, 3))
    assert got == [w("b"), w("aa"), w("ab"), w("bab")]
    assert set(got) == language(m, 3)


def test_pair_alphabet_and_relabel():
    pa = pair_alphabet(("a", "b"))
    assert pa == (("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"))
    n = Nfa(AB, {0, 1}, {0}, {1}, {(0, "a", 1)})
    r = relabel(n, {"a": "x", "b": "y"})
    assert r.accepts(("x",)) and not r.accepts(("y",))
    with pytest.raises(ValueError, match="injective"):
        relabel(n, {"a": "x", "b": "x"})


def test_with_alphabet_order():
    d = rand_dfa(random.Random(3), 2, AB)
    flipped = with_alphabet_order(d, ("b", "a"))
    assert flipped.alphabet == ("b", "a")
    for word in all_words(AB, 5):
        assert flipped.accepts(word) == d.accepts(word)
    with pytest.raises(ValueError):
        with_alphabet_order(d, ("a", "c"))


def test_accepts_reads_a_one_shot_iterator_once():
    d = dfa_for(lit(w("a")))
    for automaton in (d, d.to_nfa()):
        assert automaton.accepts(iter(w("a")))
        assert not automaton.accepts(iter(w("ab")))
        with pytest.raises(ValueError, match="not in alphabet"):
            automaton.accepts(iter(w("az")))
    # A partial NFA still checks every symbol after its subset empties.
    partial = Nfa(AB, {0, 1}, {0}, {1}, {(0, "a", 1)})
    for automaton in (partial, determinize(partial)):
        with pytest.raises(ValueError, match="not in alphabet"):
            automaton.accepts(iter(w("bz")))


def test_validation_errors():
    with pytest.raises(ValueError, match="undeclared state"):
        Nfa(AB, {0}, {0}, set(), {(0, "a", 1)})
    with pytest.raises(ValueError, match="not in alphabet"):
        Nfa(AB, {0}, {0}, set(), {(0, "z", 0)})
    with pytest.raises(ValueError, match="duplicate"):
        Nfa(("a", "a"), {0}, {0}, set(), set())
    with pytest.raises(ValueError, match="integers"):
        Nfa(AB, {"q"}, {"q"}, set(), set())
    with pytest.raises(ValueError, match="not total"):
        Dfa(AB, {0}, 0, set(), {(0, "a"): 0})
    with pytest.raises(ValueError, match="reserved"):
        Nfa(("@",), {0}, {0}, set(), set())


def test_epsilon_transitions_work():
    n = Nfa(AB, {0, 1, 2}, {0}, {2},
            {(0, EPSILON, 1), (1, "a", 2), (2, EPSILON, 0)})
    assert n.accepts(w("a"))
    assert n.accepts(w("aa"))
    assert not n.accepts(w("b"))
    d = determinize(n)
    for word in all_words(AB, 6):
        assert d.accepts(word) == oracle_accepts(n, word)
