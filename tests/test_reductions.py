import random

import pytest

from wordshift import reductions
from wordshift.automata import Nfa, accepted_words, determinize, pair_alphabet
from wordshift.reductions import (Morphism, ShiftInstance, binary_morphism,
                                  binary_one_step_language, block_morphism,
                                  general_shift_restrict,
                                  one_step_language, recode_binary,
                                  rewrite_to_shift, shift_search,
                                  shift_search_at, shift_to_power)
from wordshift.rewriting import RewritingSystem, one_step, reachable
from wordshift.words import convolve, project

from conftest import all_words, rand_nfa, rand_system, scan_power_search, w

A_TO_B = RewritingSystem(("a", "b"), [(w("a"), w("b"))])
# (system, delimiter, padding letter); in the second system "c" and "_d0"
# are taken, so both move on.
DELIMITER_AND_PADDING = [
    (A_TO_B, "_d0", "c"),
    (RewritingSystem(("a", "b", "c", "_d0"), [(w("a"), w("b"))]), "_d1", "_c0"),
]


def tiny_instance(accepted_word, gamma=("a", "b"), c="c"):
    """Instance accepting exactly one pair word."""
    pa = pair_alphabet(tuple(gamma) + (c,))
    states = range(len(accepted_word) + 1)
    transitions = {(i, sym, i + 1) for i, sym in enumerate(accepted_word)}
    return ShiftInstance(gamma, c, Nfa(pa, states, {0}, {len(accepted_word)}, transitions))


def test_one_step_language_matches_one_step():
    rng = random.Random(501)
    for _ in range(20):
        s = rand_system(rng)
        osl = determinize(one_step_language(s))
        for u in all_words(("a", "b"), 5):
            successors = one_step(s, u)
            for v in all_words(("a", "b"), len(u)):
                if len(v) != len(u):
                    continue
                assert osl.accepts(convolve(v, u)) == (v in successors)


def test_rewrite_to_shift_structure():
    for system, d, c in DELIMITER_AND_PADDING:
        inst = rewrite_to_shift(system, "a", "b")
        assert inst.gamma == system.alphabet + (d,)
        assert inst.c == c
        assert inst.automaton.alphabet == pair_alphabet(system.alphabet + (d, c))


def test_rewrite_to_shift_witness():
    inst = rewrite_to_shift(A_TO_B, "a", "b")
    out = shift_search(inst, 6)
    assert out.is_yes
    d = inst.gamma[-1]
    assert out.witness["x"] == (d, "a", d, "b", d)
    assert out.witness["n"] == 2
    # the witness splits on the delimiter into the derivation a => b
    chunks, cur = [], []
    for atom in out.witness["x"]:
        if atom == d:
            chunks.append(tuple(cur))
            cur = []
        else:
            cur.append(atom)
    assert chunks == [(), ("a",), ("b",)]


def test_shift_search_trivial_cases():
    inst = tiny_instance((("a", "c"), ("c", "a")))
    out = shift_search(inst, 3)
    assert out.is_yes and out.witness["x"] == w("a") and out.witness["n"] == 1

    empty = tiny_instance(())  # accepts only the empty word, never a shifted one
    out = shift_search(empty, 4)
    assert out.is_unknown and out.bound == 4


def test_shift_search_at_is_exact_per_offset():
    # soundness at fixed n: the encoded question agrees with the rewriting
    # oracle, with no length bound on x
    rng = random.Random(502)
    for _ in range(12):
        s = rand_system(rng)
        inst = rewrite_to_shift(s, "a", "b")
        for n in range(2, 5):
            derivable = reachable(s, ("a",) * (n - 1), ("b",) * (n - 1)).is_yes
            witness = shift_search_at(inst, n)
            assert (witness is not None) == derivable
            # a cap keeps the uncapped x when it fits, and finds nothing else
            caps = {0, 4} | ({len(witness) - 1, len(witness)} if witness else set())
            for cap in caps:
                fits = witness is not None and len(witness) <= cap
                assert shift_search_at(inst, n, max_x_len=cap) == (witness if fits else None)


def test_shift_search_monotone_in_bound():
    inst = rewrite_to_shift(A_TO_B, "a", "b")
    first_yes = shift_search(inst, 6)
    assert first_yes.is_yes
    for wider in (7, 9):
        widened = shift_search(inst, wider)
        assert widened.is_yes
        assert widened.witness["x"] == first_yes.witness["x"]


def test_shift_search_determinizes_once(monkeypatch):
    calls = []

    def counting_determinize(nfa):
        calls.append(nfa)
        return determinize(nfa)

    monkeypatch.setattr(reductions, "determinize", counting_determinize)
    rng = random.Random(503)
    for s in [A_TO_B] + [rand_system(rng) for _ in range(6)]:
        inst = rewrite_to_shift(s, "a", "b")
        calls.clear()
        out = shift_search(inst, 5)
        assert len(calls) == 1
        # the least x over all n, with the smallest n for that x
        hits = [(len(x), tuple(inst.gamma.index(g) for g in x), n, x)
                for n in range(1, 6)
                if (x := shift_search_at(inst, n, max_x_len=5)) is not None]
        if hits:
            _, _, n, x = min(hits)
            assert (out.witness["x"], out.witness["n"]) == (x, n)
        else:
            assert out.is_unknown


def test_shift_to_power_single_letter():
    inst = tiny_instance((("a", "c"), ("c", "a")), gamma=("a",))
    power = shift_to_power(inst)
    assert power.k == 2
    assert power.digit_of == {"c": "0", "a": "1"}


def test_shift_to_power_preserves_membership():
    inst = rewrite_to_shift(A_TO_B, "a", "b")
    power = shift_to_power(inst)
    assert power.k == len(inst.gamma) + 1
    rename = power.digit_of
    assert len(set(rename.values())) == len(rename)
    unname = {v: k for k, v in rename.items()}
    original = set(accepted_words(inst.automaton, 7))
    renamed = set(accepted_words(power.automaton, 7))
    assert renamed == {tuple((rename[u], rename[v]) for (u, v) in word)
                       for word in original}
    assert original == {tuple((unname[u], unname[v]) for (u, v) in word)
                        for word in renamed}
    assert original  # non-vacuous: the language has short members


def test_shift_to_power_digit_cap():
    gamma = tuple(f"g{i}" for i in range(9))
    inst = tiny_instance((), gamma=gamma)
    with pytest.raises(ValueError, match="digit_cap"):
        shift_to_power(inst)
    assert shift_to_power(inst, digit_cap=9).k == 10


def test_block_morphism_images():
    phi = block_morphism(("a1", "a2"), "c")
    assert phi["a1"] == w("101")
    assert phi["a2"] == w("111")
    assert phi["c"] == w("000")
    assert phi.image_length() == 3
    assert phi.apply(("a1", "c", "a2")) == w("101000111")


def test_block_morphism_injective_and_bordered():
    phi = block_morphism(("a", "b", "x"), "c")
    images = list(phi.images.values())
    assert len(set(images)) == len(images)
    for atom, image in phi.images.items():
        if atom == "c":
            assert set(image) == {"0"}
        else:
            assert image[0] == "1" and image[-1] == "1"


def test_binary_morphism_covers_delimiter():
    for system, d, c in DELIMITER_AND_PADDING:
        phi = binary_morphism(system, "a", "b")
        assert set(phi.images) == set(system.alphabet) | {d, c}
        assert phi.image_length() == len(system.alphabet) + 2
        assert phi[c] == ("0",) * phi.image_length()


def test_binary_one_step_language():
    rng = random.Random(503)
    for _ in range(6):
        s = rand_system(rng, max_rules=2)
        phi = binary_morphism(s, "a", "b")
        osl = determinize(binary_one_step_language(s, "a", "b"))
        for u in all_words(("a", "b"), 4):
            successors = one_step(s, u)
            for v in all_words(("a", "b"), len(u)):
                if len(v) != len(u):
                    continue
                coded = convolve(phi.apply(v), phi.apply(u))
                assert osl.accepts(coded) == (v in successors)


def test_recode_binary_instance():
    inst = recode_binary(A_TO_B, "a", "b")
    assert inst.k == 2
    assert set(inst.automaton.alphabet) == set(pair_alphabet(("1", "0")))
    phi = binary_morphism(A_TO_B, "a", "b")
    # the block-coded image of the unrecoded witness is accepted
    d = "_d0"
    x = (d, "a", d, "b", d)
    n = 2
    coded = convolve(phi.apply(x) + phi["c"] * n, phi["c"] * n + phi.apply(x))
    assert inst.automaton.accepts(coded)


def test_recode_binary_feeds_base_two_power_search():
    from wordshift.procedures import accepts_power_search, base_k_value
    from fractions import Fraction
    two_steps = RewritingSystem(("a", "x", "b"), [(w("a"), w("x")), (w("x"), w("b"))])
    d = "_d0"
    for s, max_len, x in ((A_TO_B, 28, (d, "a", d, "b", d)),
                          (two_steps, 50, (d, "a", d, "x", d, "b", d))):
        inst = recode_binary(s, "a", "b")
        out = accepts_power_search(inst.automaton, 2, max_len)
        assert out.is_yes and out == scan_power_search(inst.automaton, 2, max_len)
        word = out.witness["word"]
        p = base_k_value([u for (u, _v) in word], 2)
        q = base_k_value([v for (_u, v) in word], 2)
        assert Fraction(p, q) == Fraction(2) ** out.witness["i"]
        # the first power witness is the block-coded shift witness itself
        shift = shift_search(rewrite_to_shift(s, "a", "b"), 10).witness
        assert (shift["x"], shift["n"]) == (x, 2)
        phi = binary_morphism(s, "a", "b")
        coded_x = phi.apply(x)
        pad = phi["c"] * 2
        assert word == convolve(coded_x + pad, pad + coded_x)


def test_power_search_matches_scan_on_systems():
    from wordshift.procedures import accepts_power_search
    rng = random.Random(505)
    verdicts = set()
    for _ in range(24):
        power = shift_to_power(rewrite_to_shift(rand_system(rng), "a", "b"))
        out = accepts_power_search(power.automaton, power.k, 7)
        assert out == scan_power_search(power.automaton, power.k, 7)
        verdicts.add(out.verdict)
    assert verdicts == {"yes", "unknown"}


def test_general_shift_restrict_diagonal():
    hit, _ = general_shift_restrict(tiny_instance((("a", "a"),)))
    assert hit
    inst = tiny_instance((("a", "c"), ("c", "a")))
    hit, restricted = general_shift_restrict(inst)
    assert not hit
    assert restricted.accepts((("a", "c"), ("c", "a")))
    hit, _ = general_shift_restrict(tiny_instance(()))  # x = the empty word
    assert hit
    # an accepting path need not repeat a state, so diagonal words up to the
    # state count decide the hit exactly
    rng = random.Random(505)
    gamma = ("a", "b")
    outcomes = set()
    for _ in range(40):
        nfa = rand_nfa(rng, 4, pair_alphabet(gamma + ("c",)))
        hit, _ = general_shift_restrict(ShiftInstance(gamma, "c", nfa))
        expected = any(nfa.accepts(tuple((g, g) for g in x))
                       for x in all_words(gamma, len(nfa.states)))
        assert hit == expected
        outcomes.add(hit)
    assert outcomes == {True, False}


def test_general_shift_restrict_is_a_restriction():
    rng = random.Random(504)
    s = rand_system(rng)
    inst = rewrite_to_shift(s, "a", "b")
    _, restricted = general_shift_restrict(inst)
    for word in all_words(inst.automaton.alphabet, 3):
        if restricted.accepts(word):
            assert inst.automaton.accepts(word)
            first = project(word, 1)
            second = project(word, 2)
            assert first and first[-1] == inst.c
            assert second and second[0] == inst.c


def test_shift_instance_validation():
    with pytest.raises(ValueError, match="pair alphabet"):
        ShiftInstance(("a",), "c", Nfa((("a", "a"),), {0}, {0}, set(), set()))
    some_nfa = Nfa(pair_alphabet(("a", "c")), {0}, {0}, set(), set())
    with pytest.raises(ValueError, match="must not be in gamma"):
        ShiftInstance(("c",), "c", some_nfa)


def test_morphism_validation():
    with pytest.raises(ValueError, match="empty"):
        Morphism({"a": ()})
    with pytest.raises(ValueError, match="uniform"):
        Morphism({"a": w("0"), "b": w("01")}).image_length()


def test_block_images_uniquely_decodable():
    phi = block_morphism(("a", "b"), "c")
    sources = list(all_words(("a", "b", "c"), 4))
    images = {}
    for u in sources:
        coded = phi.apply(u)
        assert coded not in images, (u, images[coded])
        images[coded] = u


def test_shift_instance_reorders_matching_alphabet():
    canonical = pair_alphabet(("a", "c"))
    shuffled = tuple(reversed(canonical))
    nfa = Nfa(shuffled, {0, 1}, {0}, {1}, {(0, ("a", "c"), 1)})
    inst = ShiftInstance(("a",), "c", nfa)
    assert inst.automaton.alphabet == canonical
    assert inst.automaton.accepts(((("a", "c")),))
