"""Constructive reductions between rewriting reachability and automaton
shift acceptance, plus digit renamings and the binary block recoding.

The central construction turns a length-preserving rewriting system into a
pair-alphabet automaton whose accepted words of shape (x shifted against
itself by a block of a fresh padding letter) encode entire derivations: one
track carries each derivation word, the other the previous one, separated by
a fresh delimiter, and a single-step language ties consecutive words
together.  Everything here is a pure construction; the searches are bounded
and can only answer yes-with-witness or unknown.
"""
from __future__ import annotations

from typing import Optional

from .automata import (Atom, Dfa, Nfa, Word, _explore, _search, check_atom,
                       co_reachable, determinize, pair_alphabet, product, relabel)
from .outcome import DecisionOutcome, _check_witness, unknown, yes
from .regex import alt, lit, one_of, plus, regex_assemble, seq, star
from .rewriting import RewritingSystem, _check_letters
from .words import convolve


class ShiftInstance:
    """An automaton over the pair alphabet of gamma plus a padding letter c.

    The alphabet of the automaton must be exactly the pair alphabet of
    gamma + (c,), in that canonical product order; the constructor reorders a
    matching alphabet if needed.
    """

    __slots__ = ("gamma", "c", "automaton")

    def __init__(self, gamma, c: Atom, automaton: Nfa):
        self.gamma = tuple(check_atom(g) for g in gamma)
        self.c = check_atom(c)
        if self.c in self.gamma:
            raise ValueError(f"padding letter {c!r} must not be in gamma")
        canonical = pair_alphabet(self.gamma + (self.c,))
        if set(automaton.alphabet) != set(canonical):
            raise ValueError("automaton alphabet is not the pair alphabet of gamma + c")
        if automaton.alphabet != canonical:
            automaton = Nfa(canonical, automaton.states, automaton.start,
                            automaton.finals, automaton.transitions)
        self.automaton = automaton

    def __repr__(self):
        return f"ShiftInstance(gamma={self.gamma!r}, c={self.c!r}, {self.automaton!r})"


class Morphism:
    """A map from atoms to words, applied letter by letter."""

    def __init__(self, images: dict):
        self.images = {check_atom(k): tuple(v) for k, v in images.items()}
        for atom, image in self.images.items():
            if not image:
                raise ValueError(f"image of {atom!r} is empty")

    def __getitem__(self, atom: Atom) -> Word:
        return self.images[atom]

    def apply(self, word) -> Word:
        out = []
        for atom in word:
            out.extend(self.images[atom])
        return tuple(out)

    def image_length(self) -> int:
        """Common image length; raises if the images are not length-uniform."""
        lengths = {len(v) for v in self.images.values()}
        if len(lengths) != 1:
            raise ValueError("images are not length-uniform")
        return lengths.pop()


def block_morphism(symbols, c: Atom) -> Morphism:
    """Binary block images: the i-th symbol maps to 1^i 0^(m-i) 1 and the
    padding letter to 0^(m+1), where m is the number of symbols.

    Every symbol image starts and ends with a 1 while the padding image is
    all zeros, so maximal zero runs can only come from padding.
    """
    symbols = tuple(symbols)
    m = len(symbols)
    images = {c: ("0",) * (m + 1)}
    for i, atom in enumerate(symbols, start=1):
        if atom in images:
            raise ValueError(f"duplicate atom {atom!r}")
        images[atom] = ("1",) * i + ("0",) * (m - i) + ("1",)
    return Morphism(images)


def fresh_atom(taken, prefix: str = "_d") -> Atom:
    """First atom of the form prefix0, prefix1, ... not already taken."""
    taken = set(taken)
    i = 0
    while f"{prefix}{i}" in taken:
        i += 1
    return f"{prefix}{i}"


def _one_step_regex(s: RewritingSystem, encode=None):
    # Diagonal* rule-convolution Diagonal*, one convolution (right column
    # over left column) per rule.  ``encode`` optionally maps each atom to a
    # word before convolving.
    if encode is None:
        encode = tuple
    diag = alt(*(lit(convolve(encode((e,)), encode((e,)))) for e in s.alphabet))
    rules = alt(*(lit(convolve(encode(r), encode(l))) for (l, r) in s.rules))
    return seq(star(diag), rules, star(diag))


def one_step_language(s: RewritingSystem, base=None) -> Nfa:
    """Automaton for the convolutions (v over u) with u rewriting to v in one
    step.  ``base`` widens the pair alphabet; it defaults to the system's own
    alphabet."""
    base = tuple(base) if base is not None else s.alphabet
    return regex_assemble(_one_step_regex(s), pair_alphabet(base))


def _delimiter_and_padding(s: RewritingSystem, a: Atom, b: Atom):
    """The fresh delimiter d and the padding letter c of the shift encoding;
    :func:`recode_binary` is its block image only because both use these."""
    _check_letters(s, a, b)
    d = fresh_atom(set(s.alphabet) | {"c"})
    taken = set(s.alphabet) | {d}
    return d, ("c" if "c" not in taken else fresh_atom(taken, "_c"))


def rewrite_to_shift(s: RewritingSystem, a: Atom, b: Atom) -> ShiftInstance:
    """Encode "a^(n-1) rewrites to b^(n-1)" as shift acceptance.

    gamma extends the system's alphabet with a fresh delimiter d; the
    automaton accepts exactly the words

        (d over c) (a over c)^+ (d over d)
        (one-step-block (d over d))* (c over b)^+ (c over d)

    whose shifted-by-c^n fixed points spell out derivations from a-blocks to
    b-blocks.
    """
    d, c = _delimiter_and_padding(s, a, b)
    gamma = s.alphabet + (d,)
    expr = seq(
        lit([(d, c)]),
        plus(one_of((a, c))),
        lit([(d, d)]),
        star(seq(_one_step_regex(s), lit([(d, d)]))),
        plus(one_of((c, b))),
        lit([(c, d)]),
    )
    automaton = regex_assemble(expr, pair_alphabet(gamma + (c,)))
    return ShiftInstance(gamma, c, automaton)


def shift_search_at(inst: ShiftInstance, n: int,
                    max_x_len: Optional[int] = None) -> Optional[Word]:
    """Least x (length-then-lex over gamma) with x c^n x c^n convolved into
    the instance's language, or None.

    Walks the product of the determinized automaton with a window of the last
    n letters, which is exactly the set of second-track letters still owed.
    With no length cap the walk saturates the finite product space, so None
    is then definitive for this n.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return _window_searcher(determinize(inst.automaton), inst.c, inst.gamma)(n, max_x_len)


def _window_searcher(d: Dfa, pad: Atom, letters):
    # The rule behind the shift and power searches: search(n, ...) finds the
    # least y over ``letters``, length-then-lex in d's alphabet order, with
    # conv(y pad^n, pad^n y) accepted.  With ``prefix`` a (pad,pad)^j prefix
    # may come first and y must be nonempty and not start with pad; the path
    # spells pad^j y.  A key's window holds the last <= n letters of y, the
    # second-track letters still owed, or None before y starts.  Letters are
    # ranked by the alphabet index of the pair they feed, which d may list
    # in any order: (g, s) for the owed letter s, or (g, g) when n is 0.
    live = co_reachable(d)
    rank = {symbol: i for i, symbol in enumerate(d.alphabet)}

    def ranked(pairs):
        return [g for g, _ in sorted((p for p in pairs if p in rank), key=rank.get)]

    owed = {s: ranked((g, s) for g in letters) for s in (pad, *letters)}
    diagonal = ranked((g, g) for g in letters)

    def search(n: int, max_depth: Optional[int], prefix: bool = False) -> Optional[Word]:
        def successors(key):
            state, window = key
            waiting = window is None
            if waiting:
                window = ()
            firsts = diagonal if n == 0 else owed[window[0] if len(window) == n else pad]
            for g in firsts:
                window_after = window + (g,)
                if len(window_after) > n:
                    fed, window_after = (g, window_after[0]), window_after[1:]
                else:
                    fed = (g, pad)
                nxt = d.delta[(state, fed)]
                if nxt in live:
                    yield g, (nxt, None if waiting and g == pad else window_after)

        def flush_accepts(key) -> bool:
            state, window = key
            if window is None:
                return False
            for fed in [(pad, pad)] * (n - len(window)) + [(pad, s) for s in window]:
                state = d.delta.get((state, fed))
                if state is None:
                    return False
            return state in d.finals

        return _search([(d.start, None if prefix else ())], successors, flush_accepts,
                       max_depth=max_depth)

    return search


def shift_search(inst: ShiftInstance, max_len: int) -> DecisionOutcome:
    """Bounded search for a witness (x, n) with |x| <= max_len and
    1 <= n <= max_len; yes or unknown, never no.

    The witness is the length-then-lex least x over all n, with the smallest
    n for that x, so output is reproducible.
    """
    search = _window_searcher(determinize(inst.automaton), inst.c, inst.gamma)
    best = None
    for n in range(1, max_len + 1):
        x = search(n, max_len)
        if x is None:
            continue
        key = (len(x), tuple(inst.gamma.index(g) for g in x), n)
        if best is None or key < best[0]:
            best = (key, x, n)
    if best is None:
        return unknown(bound=max_len)
    _, x, n = best
    witness_word = convolve(x + (inst.c,) * n, (inst.c,) * n + x)
    _check_witness(inst.automaton.accepts(witness_word), "shift witness not accepted")
    return yes(x=x, n=n, word=witness_word)


class PowerInstance:
    """A digit-renamed shift instance: base k and the renamed automaton."""

    __slots__ = ("k", "automaton", "digit_of")

    def __init__(self, k: int, automaton: Nfa, digit_of: dict):
        self.k = k
        self.automaton = automaton
        self.digit_of = dict(digit_of)

    def __repr__(self):
        return f"PowerInstance(k={self.k}, {self.automaton!r})"


def shift_to_power(inst: ShiftInstance, digit_cap: int = 8) -> PowerInstance:
    """Rename gamma to the digits 1..|gamma| and c to 0; k is |gamma| + 1.

    The renaming is a bijection on symbols, so acceptance is preserved
    verbatim.  ``digit_cap`` bounds |gamma| purely as a guard; raise it for
    wider alphabets.
    """
    ell = len(inst.gamma)
    if ell > digit_cap:
        raise ValueError(f"gamma has {ell} symbols, above digit_cap={digit_cap}; "
                         "pass a larger digit_cap to allow this")
    digit_of = {inst.c: "0"}
    for i, g in enumerate(inst.gamma, start=1):
        digit_of[g] = str(i)
    pair_map = {(u, v): (digit_of[u], digit_of[v])
                for (u, v) in inst.automaton.alphabet}
    digits = tuple(str(i) for i in range(ell + 1))
    automaton = relabel(inst.automaton, pair_map, alphabet=pair_alphabet(digits))
    return PowerInstance(ell + 1, automaton, digit_of)


def _binary_pieces(s: RewritingSystem, a: Atom, b: Atom):
    d, c = _delimiter_and_padding(s, a, b)
    # The delimiter joins the enumeration, so every block (including the
    # padding image) shares one uniform length and stays uniquely decodable.
    phi = block_morphism(s.alphabet + (d,), c)
    return phi, d, c


def binary_morphism(s: RewritingSystem, a: Atom, b: Atom) -> Morphism:
    """The block morphism actually used by :func:`recode_binary`, covering
    the system's alphabet, the fresh delimiter and the padding letter."""
    phi, _d, _c = _binary_pieces(s, a, b)
    return phi


def binary_one_step_language(s: RewritingSystem, a: Atom, b: Atom) -> Nfa:
    """Binary-coded analogue of :func:`one_step_language`, over {0,1} pairs."""
    phi, _d, _c = _binary_pieces(s, a, b)
    return regex_assemble(_one_step_regex(s, encode=phi.apply),
                          pair_alphabet(("1", "0")))


def recode_binary(s: RewritingSystem, a: Atom, b: Atom) -> PowerInstance:
    """Binary-coded variant of :func:`rewrite_to_shift` over the pair
    alphabet of {0,1}, as a base-2 instance for the power search.

    Every atom of the unrecoded construction is replaced by its block image;
    blocks for real symbols are bordered by 1s while the padding block is all
    zeros, so zero runs on either track can only come from padding.
    """
    phi, d, c = _binary_pieces(s, a, b)
    enc = phi.apply
    expr = seq(
        lit(convolve(enc((d,)), enc((c,)))),
        plus(lit(convolve(enc((a,)), enc((c,))))),
        lit(convolve(enc((d,)), enc((d,)))),
        star(seq(_one_step_regex(s, encode=enc),
                 lit(convolve(enc((d,)), enc((d,)))))),
        plus(lit(convolve(enc((c,)), enc((b,))))),
        lit(convolve(enc((c,)), enc((d,)))),
    )
    automaton = regex_assemble(expr, pair_alphabet(("1", "0")))
    return PowerInstance(2, automaton, {"0": "0", "1": "1"})


def _projection_constraint_dfa(alphabet, gamma, c: Atom):
    # First track must be gamma* c+, second track c+ gamma*; built as one
    # small product of two three-phase machines plus a shared dead state.
    gamma_set = set(gamma)

    def step_first(phase, atom):
        if phase == 0:
            return 0 if atom in gamma_set else 1 if atom == c else None
        return 1 if atom == c else None

    def step_second(phase, atom):
        if phase == 0:
            return 1 if atom == c else None
        if phase == 1:
            return 1 if atom == c else 2 if atom in gamma_set else None
        return 2 if atom in gamma_set else None

    def successors(p):
        for (u, v) in alphabet:
            if p == "dead":
                yield (u, v), "dead"
                continue
            f, g = step_first(p[0], u), step_second(p[1], v)
            yield (u, v), "dead" if f is None or g is None else (f, g)

    order, delta = _explore([(0, 0)], successors)
    finals = {i for i, p in enumerate(order)
              if p != "dead" and p[0] == 1 and p[1] in (1, 2)}
    return Dfa(alphabet, range(len(order)), 0, finals, delta)


def general_shift_restrict(inst: ShiftInstance):
    """Diagonal pre-check plus restriction to single-padding-block words.

    Returns (diagonal_hit, restricted): diagonal_hit reports whether the
    instance accepts some x convolved with itself over gamma, and restricted
    is the intersection with the words whose first track lies in gamma* c+
    and whose second track lies in c+ gamma*.
    """
    d = determinize(inst.automaton)
    diagonal = [(g, g) for g in inst.gamma]
    diagonal_hit = _search([d.start], lambda q: [(s, d.delta[(q, s)]) for s in diagonal],
                           d.finals.__contains__) is not None
    restrictor = _projection_constraint_dfa(d.alphabet, inst.gamma, inst.c)
    restricted = product(d, restrictor, "intersect").to_nfa()
    return diagonal_hit, restricted
