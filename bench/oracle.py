"""Independent oracle for the wordshift benchmark.

Nothing here imports wordshift.  Automata are plain data: a DFA is a dict
``{"alphabet": [...], "finals": [...], "delta": [[q0 per symbol], ...]}``
with start state 0, and an NFA is an :class:`Nfa` built from transition
triples whose label ``None`` is a spontaneous move.  Words are tuples of
symbols; pair symbols are 2-tuples.  Every answer the benchmark compares
against comes from the brute-force routines below.
"""
from __future__ import annotations

import itertools
import re
from collections import deque


# ---------------------------------------------------------------- automata

def dfa_accepts(dfa, word):
    index = {s: i for i, s in enumerate(dfa["alphabet"])}
    state = 0
    for symbol in word:
        state = dfa["delta"][state][index[symbol]]
    return state in dfa["finals"]


class Nfa:
    """Membership runner for an NFA with spontaneous moves."""

    def __init__(self, alphabet, start, finals, transitions):
        self.alphabet = tuple(alphabet)
        self.start = frozenset(start)
        self.finals = frozenset(finals)
        self.moves = {}
        self.eps = {}
        for (src, label, dst) in transitions:
            if label is None:
                self.eps.setdefault(src, set()).add(dst)
            else:
                self.moves.setdefault((src, label), set()).add(dst)

    def closure(self, states):
        seen = set(states)
        todo = list(seen)
        while todo:
            for r in self.eps.get(todo.pop(), ()):
                if r not in seen:
                    seen.add(r)
                    todo.append(r)
        return frozenset(seen)

    def step(self, states, symbol):
        out = set()
        for q in states:
            out |= self.moves.get((q, symbol), set())
        return self.closure(out)

    def accepts(self, word):
        current = self.closure(self.start)
        for symbol in word:
            current = self.step(current, symbol)
            if not current:
                return False
        return bool(current & self.finals)


def all_words(alphabet, max_len, min_len=0):
    """Every word with min_len <= length <= max_len, length-then-lex order."""
    for length in range(min_len, max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


def dfa_words_of_length(dfa, length):
    """Accepted words of exactly ``length`` in lex order, pruned by a table of
    the states that can still finish in the remaining number of steps."""
    alphabet = dfa["alphabet"]
    delta = dfa["delta"]
    can = [set(dfa["finals"])]
    for _ in range(length):
        prev = can[-1]
        can.append({q for q, row in enumerate(delta) if any(r in prev for r in row)})

    def walk(state, remaining, prefix):
        if remaining == 0:
            yield tuple(prefix)
            return
        for i, symbol in enumerate(alphabet):
            nxt = delta[state][i]
            if nxt in can[remaining - 1]:
                prefix.append(symbol)
                yield from walk(nxt, remaining - 1, prefix)
                prefix.pop()

    if 0 in can[length]:
        yield from walk(0, length, [])


def nfa_accepted_words(nfa, max_len):
    """Accepted words of length <= max_len, length-then-lex order; prefixes
    whose state set cannot reach a final state are dropped."""
    back = {}
    for (src, label), dsts in nfa.moves.items():
        for dst in dsts:
            back.setdefault(dst, set()).add(src)
    for src, dsts in nfa.eps.items():
        for dst in dsts:
            back.setdefault(dst, set()).add(src)
    live = set(nfa.finals)
    todo = list(live)
    while todo:
        for r in back.get(todo.pop(), ()):
            if r not in live:
                live.add(r)
                todo.append(r)
    level = [((), nfa.closure(nfa.start) & live)]
    if not level[0][1]:
        return
    for length in range(max_len + 1):
        for word, states in level:
            if states & nfa.finals:
                yield word
        if length == max_len:
            return
        level = [(word + (s,), nxt) for word, states in level for s in nfa.alphabet
                 for nxt in [nfa.step(states, s) & live] if nxt]
        if not level:
            return


def ll_key(word, alphabet):
    """Length-then-lex sort key under the alphabet's declared order."""
    index = {s: i for i, s in enumerate(alphabet)}
    return (len(word), [index[s] for s in word])


# ------------------------------------------------------------------- words

def is_rotation(x, y):
    """True iff y is a cyclic shift of x (checked rotation by rotation)."""
    x, y = tuple(x), tuple(y)
    if len(x) != len(y):
        return False
    return not x or any(x[k:] + x[:k] == y for k in range(len(x)))


def digits_value(word, k):
    value = 0
    for atom in word:
        digit = int(atom)
        if not 0 <= digit < k:
            raise ValueError(f"digit {digit} out of range for base {k}")
        value = value * k + digit
    return value


def power_exponent(p, q, k):
    """i with p / q == k**i, or None."""
    if q == 0 or p == 0 or p % q:
        return None
    ratio, i = p // q, 0
    while ratio % k == 0:
        ratio //= k
        i += 1
    return i if ratio == 1 else None


def convolve(top, bottom):
    return tuple(zip(top, bottom))


# --------------------------------------------------------------- rewriting

def one_step(rules, word):
    """(successor, rule index, position) in rule-then-position order."""
    out = []
    for idx, (lhs, rhs) in enumerate(rules):
        for pos in range(len(word) - len(lhs) + 1):
            if word[pos:pos + len(lhs)] == lhs:
                out.append((word[:pos] + rhs + word[pos + len(lhs):], idx, pos))
    return out


def rewrite_bfs(rules, frm, to):
    """Breadth-first derivation frm =>* to as (words, steps), or None once
    the finite same-length component is exhausted."""
    frm, to = tuple(frm), tuple(to)
    if frm == to:
        return [frm], []
    parent = {frm: None}
    queue = deque([frm])
    while queue:
        word = queue.popleft()
        for nxt, idx, pos in one_step(rules, word):
            if nxt in parent:
                continue
            parent[nxt] = (word, idx, pos)
            if nxt == to:
                words, steps = [nxt], []
                while parent[words[-1]] is not None:
                    prev, idx, pos = parent[words[-1]]
                    words.append(prev)
                    steps.append((idx, pos))
                return words[::-1], steps[::-1]
            queue.append(nxt)
    return None


def power_rewrite(rules, a, b, max_n):
    """Least n <= max_n with a^n =>* b^n and its BFS derivation, or None."""
    for n in range(1, max_n + 1):
        found = rewrite_bfs(rules, (a,) * n, (b,) * n)
        if found is not None:
            return n, found[0], found[1]
    return None


def tm_encoding(tm, a="a", b="b", marker="$"):
    """Rules of the machine encoding, in the documented emission order."""
    moves = [tuple(m) for m in tm["delta"]]
    rules = [((a, a), (marker, tm["start"])), ((a,), (tm["blank"],))]
    ordered = [(q, c, m) for q in tm["states"] for c in tm["tape"]
               for m in moves if m[0] == q and m[1] == c]
    rules += [((q, c), (m[3], m[2])) for q, c, m in ordered if m[4] == "R"]
    rules += [((f, q, c), (m[2], f, m[3])) for q, c, m in ordered if m[4] == "L"
              for f in tm["tape"]]
    rules += [((tm["final"], c), (c, tm["final"])) for c in tm["tape"]]
    rules += [((c, tm["final"]), (tm["final"], b)) for c in tm["tape"]]
    rules.append(((marker, tm["final"]), (b, b)))
    alphabet = tuple(tm["tape"]) + tuple(tm["states"]) + (a, b, marker)
    return alphabet, rules


# ------------------------------------------------------ decision questions

def non_conjugates(dfa, bound):
    """Least non-conjugate pair (x, y) with |x| <= bound: y is the least
    accepted word of its length, x the least accepted word of that length
    that is not a rotation of y."""
    for length in range(bound + 1):
        words = dfa_words_of_length(dfa, length)
        y = next(words, None)
        for x in words:
            if not is_rotation(x, y):
                return x, y
    return None


def distinct_conjugate_pairs(words, accepts, alphabet):
    """Least (u, v) by (u, v) length-lex order with u, v nonempty, uv among
    ``words``, vu accepted and uv != vu."""
    best = None
    for w in words:
        for cut in range(1, len(w)):
            u, v = w[:cut], w[cut:]
            if u + v != v + u and accepts(v + u):
                key = (ll_key(u, alphabet), ll_key(v, alphabet))
                if best is None or key < best[0]:
                    best = (key, u, v)
    return None if best is None else (best[1], best[2])


def dfa_distinct_conjugate_pairs(dfa, bound):
    """distinct_conjugate_pairs over the DFA's words with |uv| <= bound."""
    words = (w for length in range(2, bound + 1) for w in dfa_words_of_length(dfa, length))
    return distinct_conjugate_pairs(words, lambda w: dfa_accepts(dfa, w), dfa["alphabet"])


def shift_witness(nfa, gamma, c, bound):
    """Least (x, n) by (|x|, lex x, n) with |x|, n <= bound and
    conv(x c^n, c^n x) accepted."""
    for x in all_words(gamma, bound):
        for n in range(1, bound + 1):
            if nfa.accepts(convolve(x + (c,) * n, (c,) * n + x)):
                return x, n
    return None


def long_shift_witness(nfa, gamma, c, bound, slack):
    """Least x with |x| <= bound and the least n in |x|..|x|+slack such that
    conv(x c^n, c^n x) is accepted."""
    for x in all_words(gamma, bound):
        for n in range(len(x), len(x) + slack + 1):
            if nfa.accepts(convolve(x + (c,) * n, (c,) * n + x)):
                return x, n
    return None


def power_word(nfa, k, max_len):
    """First accepted word (length-then-lex) of length <= max_len whose
    first track over second track is a power of k, with its exponent."""
    for word in nfa_accepted_words(nfa, max_len):
        i = power_exponent(digits_value([u for u, _ in word], k),
                           digits_value([v for _, v in word], k), k)
        if i is not None:
            return word, i
    return None


def block_images(symbols, padding):
    """i-th symbol -> 1^i 0^(m-i) 1, padding -> 0^(m+1)."""
    m = len(symbols)
    images = {padding: ("0",) * (m + 1)}
    for i, s in enumerate(symbols, start=1):
        images[s] = ("1",) * i + ("0",) * (m - i) + ("1",)
    return images


def encode_pairs(word, images):
    """Block-code both tracks of a pair word."""
    top = [bit for (u, _v) in word for bit in images[u]]
    bottom = [bit for (_u, v) in word for bit in images[v]]
    return convolve(top, bottom)


# ------------------------------------------------------------- text format

def parse_automaton(text):
    """Parse the automaton text format into an :class:`Nfa`."""
    alphabet, start, finals, transitions = [], [], [], []

    def symbol(token):
        return tuple(token.split("|")) if "|" in token else token

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition(":")
        tokens = value.split()
        if key == "alphabet":
            alphabet = [symbol(t) for t in tokens]
        elif key == "start":
            start = [int(t) for t in tokens]
        elif key == "finals":
            finals = [int(t) for t in tokens]
        elif key == "trans":
            src, label, dst = tokens
            label = None if label == "@" else symbol(label)
            if label is not None and label not in alphabet:
                alphabet.append(label)
            transitions.append((int(src), label, int(dst)))
    return Nfa(alphabet, start, finals, transitions)


def format_word(word):
    """Render a word as the command line prints it."""
    if not word:
        return ""
    if all(isinstance(s, str) and len(s) == 1 for s in word):
        return "".join(word)
    return ",".join("|".join(s) if isinstance(s, tuple) else s for s in word)


# ---------------------------------------------------- bounded languages

def lexleast_language(dfa, max_len):
    """Per-length least accepted words up to max_len."""
    out = set()
    for length in range(max_len + 1):
        least = next(dfa_words_of_length(dfa, length), None)
        if least is not None:
            out.add(least)
    return out


def cyc_language(dfa, max_len):
    out = set()
    for length in range(max_len + 1):
        for w in dfa_words_of_length(dfa, length):
            out.update(w[k:] + w[:k] for k in range(max(1, length)))
    return out



def lt_accepts(t, word):
    """Membership in the long-witness family lt(t):
    (a^t)+ b (a^(t+1))+ bb  or  (a^t)+ bb (a^(t+1))+ b."""
    pattern = f"(?:a{{{t}}})+(?:b(?:a{{{t + 1}}})+bb|bb(?:a{{{t + 1}}})+b)"
    return re.fullmatch(pattern, "".join(word)) is not None


def diagonal_word(nfa, gamma):
    """Shortest word w over gamma with conv(w, w) accepted, or None; a
    breadth-first walk over state sets reading only diagonal pairs."""
    start = nfa.closure(nfa.start)
    parent = {start: None}
    queue = deque([start])
    while queue:
        states = queue.popleft()
        if states & nfa.finals:
            out = []
            while parent[states] is not None:
                states, g = parent[states]
                out.append(g)
            return tuple(reversed(out))
        for g in gamma:
            nxt = nfa.step(states, (g, g))
            if nxt and nxt not in parent:
                parent[nxt] = (states, g)
                queue.append(nxt)
    return None


def one_block_track(word, c):
    """True iff the first track is in gamma* c+ and the second in c+ gamma*."""
    top = [u for u, _ in word]
    bottom = [v for _, v in word]
    i = 0
    while i < len(top) and top[i] != c:
        i += 1
    j = 0
    while j < len(bottom) and bottom[j] == c:
        j += 1
    return (0 < len(top) - i == top.count(c) and j > 0 and c not in bottom[j:])


def shift_encoding_accepts(word, rules, a, b, d, c):
    """Membership in the shift encoding of a rewriting system:
    (d|c) (a|c)+ (d|d) (block (d|d))* (c|b)+ (c|d), where a block is
    conv(v, u) for a one-step rewrite u -> v."""
    w = list(word)
    if len(w) < 5 or w[0] != (d, c) or w[-1] != (c, d):
        return False
    i = 1
    while w[i] == (a, c):
        i += 1
    if i == 1 or w[i] != (d, d):
        return False
    j = len(w) - 2
    while j > i and w[j] == (c, b):
        j -= 1
    if j == len(w) - 2:
        return False
    middle = w[i + 1:j + 1]
    if middle and middle[-1] != (d, d):
        return False
    block = []
    for pair in middle:
        if pair != (d, d):
            block.append(pair)
            continue
        if not block:
            return False
        top = tuple(v for v, _ in block)
        bottom = tuple(u for _, u in block)
        if top not in {nxt for nxt, _i, _p in one_step(rules, bottom)}:
            return False
        block = []
    return True


def dfa_difference_word(left, right):
    """Length-lex least word accepted by ``left`` and not by ``right``
    (same alphabet), by a breadth-first walk over state pairs; None when
    the inclusion holds."""
    lf, rf = set(left["finals"]), set(right["finals"])
    start = (0, 0)
    parent = {start: None}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        if pair[0] in lf and pair[1] not in rf:
            out = []
            while parent[pair] is not None:
                pair, symbol = parent[pair]
                out.append(symbol)
            return tuple(reversed(out))
        for i, symbol in enumerate(left["alphabet"]):
            nxt = (left["delta"][pair[0]][i], right["delta"][pair[1]][i])
            if nxt not in parent:
                parent[nxt] = (pair, symbol)
                queue.append(nxt)
    return None
