"""The oracle on answers known independently of wordshift."""
import oracle
from catalogue import MACHINES, lt_pairs

AB = ("a", "b")
A_TO_B = [(("a",), ("b",))]


def test_long_witness_family_lengths():
    for t in (1, 2):
        u, v = lt_pairs(t, 2 * t * t + 2 * t + 3)
        assert (len(u), len(v)) == (t * t + t + 1, t * t + t + 2)
        assert u + v != v + u
        assert oracle.lt_accepts(t, u + v) and oracle.lt_accepts(t, v + u)
    # README: `check distinct-conjugates lt1.dfa` prints witness-u: aab.
    assert lt_pairs(1, 12)[0] == tuple("aab")


def test_lt_membership():
    assert oracle.lt_accepts(1, "abaabb")
    assert oracle.lt_accepts(2, tuple("aabbaaab"))
    assert not oracle.lt_accepts(2, tuple("abaaabb"))


class _Predicate:
    def __init__(self, accepts):
        self.accepts = accepts


def test_readme_shift_witness():
    d = "_d0"
    encoding = _Predicate(lambda w: oracle.shift_encoding_accepts(w, A_TO_B, "a", "b", d, "c"))
    x, n = oracle.shift_witness(encoding, ("a", "b", d), "c", 6)
    assert (x, n) == ((d, "a", d, "b", d), 2)


def test_readme_machine_encoding_halts_at_three():
    _alphabet, rules = oracle.tm_encoding(MACHINES["halt1"])
    n, words, steps = oracle.power_rewrite(rules, "a", "b", 5)
    assert n == 3 and words[0] == tuple("aaa") and words[-1] == tuple("bbb")
    assert len(steps) == 5
    _alphabet, rules = oracle.tm_encoding(MACHINES["loop1"])
    assert oracle.power_rewrite(rules, "a", "b", 6) is None


def test_words_and_arithmetic():
    assert oracle.is_rotation("abb", "bab") and not oracle.is_rotation("abb", "aab")
    assert oracle.is_rotation((), ())
    assert oracle.digits_value("102", 3) == 11
    assert oracle.power_exponent(36, 4, 3) == 2
    assert oracle.power_exponent(8, 4, 3) is None
    assert oracle.power_exponent(0, 4, 3) is None


def test_non_conjugates_least_pair():
    # a*b a*: all words with exactly one b are rotations of each other.
    one_b = {"alphabet": list(AB), "finals": [1], "delta": [[0, 1], [1, 2], [2, 2]]}
    assert oracle.non_conjugates(one_b, 10) is None
    # (a|b)*: at length 1, a is least and b is not a rotation of it.
    everything = {"alphabet": list(AB), "finals": [0], "delta": [[0, 0]]}
    assert oracle.non_conjugates(everything, 10) == (("b",), ("a",))


def test_words_of_length_are_lex_ordered():
    everything = {"alphabet": list(AB), "finals": [0], "delta": [[0, 0]]}
    assert list(oracle.dfa_words_of_length(everything, 2)) == [
        tuple("aa"), tuple("ab"), tuple("ba"), tuple("bb")]


def test_rewrite_bfs_exhausts_to_none():
    assert oracle.rewrite_bfs(A_TO_B, "ba", "aa") is None
    words, steps = oracle.rewrite_bfs(A_TO_B, tuple("aa"), tuple("bb"))
    assert words == [tuple("aa"), tuple("ba"), tuple("bb")] and steps == [(0, 0), (0, 1)]
