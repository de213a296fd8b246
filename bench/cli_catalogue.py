"""Catalogue of the ``cli`` workload: README pipelines as command lines.

Each paired template draws two variants with different seeded input files;
the fixed entries are the README pipelines on fixed inputs.  Expected
verdict and witness lines, emitted languages on bounded words and emitted
rules come from the oracle.  The exit code and the SHA-256 of the output
are recorded from the commit that builds the catalogue.
"""
from __future__ import annotations

import hashlib
import itertools
import os
import random
import shutil
import time

import oracle
import workloads
from catalogue import (AB, MACHINES, dfa_text, jsonable, lt_pairs, nfa_text,
                       rand_dfa, rand_pair_nfa, rand_system, system_text, tm_text)

LANG_LEN = 7
SHIFT_BASE = ("a", "b", "c")
DIGITS = ("0", "1", "2")


def fw(w):
    return oracle.format_word(w)


def record_yes(**witness):
    lines = ["verdict: yes"]
    lines += [f"witness-{key}: {value}" for key, value in witness.items()]
    return lines


def language(alphabet, max_len, accepts):
    return {"alphabet": jsonable(alphabet), "max_len": max_len,
            "accepted": sorted(fw(w) for w in oracle.all_words(alphabet, max_len)
                               if accepts(w))}


def shift_record(found, bound, c):
    if found is None:
        return ["verdict: unknown", f"bound: {bound}"], 2
    x, n = found
    return record_yes(x=fw(x), n=n, word=fw(oracle.convolve(x + (c,) * n, (c,) * n + x))), 0


def power_record(found, k, bound):
    if found is None:
        return ["verdict: unknown", f"bound: {bound}"], 2
    w, i = found
    return record_yes(i=i, word=fw(w), numerator=oracle.digits_value([u for u, _ in w], k),
                      denominator=oracle.digits_value([v for _, v in w], k)), 0


def rewrite_record(found, bound):
    if found is None:
        return ["verdict: unknown", f"bound: {bound}"], 2
    n, words, steps = found
    return record_yes(n=n, derivation=" => ".join(fw(w) for w in words),
                      steps=" ".join(f"{i}@{p}" for i, p in steps)), 0


def encoding_probes(rng, rules, d, encode=None):
    """Words labelled by the oracle's membership test for the shift
    encoding of ``rules``: well-formed derivation words and mutations."""
    c, pairs = "c", [(u, v) for u in AB + (d, "c") for v in AB + (d, "c")]
    probes = []
    for _ in range(16):
        w = [(d, c)] + [("a", c)] * rng.randint(1, 3) + [(d, d)]
        for _block in range(rng.randint(0, 2)):
            u = tuple(rng.choice(AB) for _ in range(rng.randint(1, 3)))
            steps = oracle.one_step(rules, u)
            v = rng.choice(steps)[0] if steps else u
            w += list(zip(v, u)) + [(d, d)]
        w += [(c, "b")] * rng.randint(1, 3) + [(c, d)]
        if rng.random() < 0.5:
            w[rng.randrange(len(w))] = rng.choice(pairs)
        w = tuple(w)
        accepted = oracle.shift_encoding_accepts(w, rules, "a", "b", d, c)
        probes.append({"word": jsonable(encode(w) if encode else w), "accepted": accepted})
    return probes


def probes(rng, nfa, label, rename=lambda w: w, max_len=6):
    """Up to 12 accepted words of ``nfa`` and 12 random words, each with the
    oracle's expected membership ``label(w)`` in the emitted automaton."""
    words = list(itertools.islice(oracle.nfa_accepted_words(nfa, max_len), 12))
    words += [tuple(rng.choice(nfa.alphabet) for _ in range(rng.randint(1, max_len)))
              for _ in range(12)]
    return [{"word": jsonable(rename(w)), "accepted": label(w)} for w in words]


def paired_templates():
    """(name, maker) pairs; maker(rng, tag) -> (argv, files, expect)."""

    def lexleast(rng, tag):
        m = rand_dfa(rng, 4)
        return (["lang", "lexleast", f"{tag}.dfa"], {f"{tag}.dfa": dfa_text(m)},
                {"language": language(AB, LANG_LEN, oracle.lexleast_language(m, LANG_LEN).__contains__)})

    def cyc(rng, tag):
        m = rand_dfa(rng, 4)
        return (["lang", "cyc", f"{tag}.dfa"], {f"{tag}.dfa": dfa_text(m)},
                {"language": language(AB, LANG_LEN, oracle.cyc_language(m, LANG_LEN).__contains__)})

    def product(mode, op):
        def make(rng, tag):
            m1, m2 = rand_dfa(rng, 3), rand_dfa(rng, 3)
            files = {f"{tag}-l.dfa": dfa_text(m1), f"{tag}-r.dfa": dfa_text(m2)}
            accepts = lambda w: op(oracle.dfa_accepts(m1, w), oracle.dfa_accepts(m2, w))
            return (["lang", "product", mode, f"{tag}-l.dfa", f"{tag}-r.dfa"], files,
                    {"language": language(AB, LANG_LEN, accepts)})
        return make

    def complement(rng, tag):
        m = rand_dfa(rng, 4)
        return (["lang", "complement", f"{tag}.dfa"], {f"{tag}.dfa": dfa_text(m)},
                {"language": language(AB, LANG_LEN, lambda w: not oracle.dfa_accepts(m, w))})

    def subset(rng, tag):
        m1, m2 = rand_dfa(rng, 4), rand_dfa(rng, 4)
        found = oracle.dfa_difference_word(m1, m2)
        record = ["verdict: yes"] if found is None else \
            ["verdict: no", f"counterexample: {fw(found)}"]
        return (["lang", "subset", f"{tag}-l.dfa", f"{tag}-r.dfa"],
                {f"{tag}-l.dfa": dfa_text(m1), f"{tag}-r.dfa": dfa_text(m2)},
                {"record": record})

    def non_conjugates(rng, tag):
        m = rand_dfa(rng, 5)
        found = oracle.non_conjugates(m, 12)
        expect = {"record": record_yes(x=fw(found[0]), y=fw(found[1]))} if found else {}
        return ["check", "non-conjugates", f"{tag}.dfa"], {f"{tag}.dfa": dfa_text(m)}, expect

    def distinct_conjugates(rng, tag):
        m = rand_dfa(rng, 3)
        found = oracle.dfa_distinct_conjugate_pairs(m, 12)
        expect = {}
        if found:
            u, v = found
            expect["record"] = record_yes(u=fw(u), v=fw(v), uv=fw(u + v), vu=fw(v + u))
        return ["check", "distinct-conjugates", f"{tag}.dfa"], {f"{tag}.dfa": dfa_text(m)}, expect

    def shift_file(rng):
        pairs, trans, finals = rand_pair_nfa(rng, 3, SHIFT_BASE, 0.12)
        return oracle.Nfa(pairs, {0}, finals, trans), nfa_text(pairs, 3, trans, finals)

    def long_shift(rng, tag):
        nfa, text = shift_file(rng)
        found = oracle.long_shift_witness(nfa, AB, "c", 4, 8)
        expect = {}
        if found:
            x, n = found
            expect["record"] = record_yes(
                x=fw(x), n=n, word=fw(oracle.convolve(x + ("c",) * n, ("c",) * n + x)))
        return ["check", "long-shift", f"{tag}.aut"], {f"{tag}.aut": text}, expect

    def search_shift(rng, tag):
        nfa, text = shift_file(rng)
        record, code = shift_record(oracle.shift_witness(nfa, AB, "c", 4), 4, "c")
        return (["search", "shift", f"{tag}.aut", "--max-len", "4"], {f"{tag}.aut": text},
                {"record": record, "code": code})

    def shift_to_power(rng, tag):
        nfa, text = shift_file(rng)
        digit = {"c": "0", "a": "1", "b": "2"}
        return (["reduce", "shift-to-power", f"{tag}.aut"], {f"{tag}.aut": text},
                {"probes": probes(rng, nfa, nfa.accepts,
                                  lambda w: tuple((digit[u], digit[v]) for u, v in w))})

    def restrict(rng, tag):
        nfa, text = shift_file(rng)
        return (["reduce", "restrict-general-shift", f"{tag}.aut"], {f"{tag}.aut": text},
                {"probes": probes(rng, nfa,
                                  lambda w: nfa.accepts(w) and oracle.one_block_track(w, "c"))})

    def search_power(rng, tag):
        pairs, trans, finals = rand_pair_nfa(rng, 3, DIGITS, 0.15)
        nfa = oracle.Nfa(pairs, {0}, finals, trans)
        record, code = power_record(oracle.power_word(nfa, 3, 6), 3, 6)
        return (["search", "power", f"{tag}.aut", "--base", "3", "--max-len", "6"],
                {f"{tag}.aut": nfa_text(pairs, 3, trans, finals)}, {"record": record, "code": code})

    def system_maker(kind):
        def make(rng, tag):
            s = rand_system(rng)
            rules = [(tuple(l), tuple(r)) for l, r in s["rules"]]
            files = {f"{tag}.rs": system_text(s)}
            if kind == "search":
                record, code = rewrite_record(oracle.power_rewrite(rules, "a", "b", 6), 6)
                return (["search", "rewrite-power", f"{tag}.rs", "--max-n", "6"], files,
                        {"record": record, "code": code})
            if kind == "shift":
                return (["reduce", "rewrite-to-shift", f"{tag}.rs"], files,
                        {"probes": encoding_probes(rng, rules, "_d0")})
            images = oracle.block_images(AB + ("_d0",), "c")
            return (["reduce", "recode-binary", f"{tag}.rs"], files,
                    {"probes": encoding_probes(rng, rules, "_d0",
                                               lambda w: oracle.encode_pairs(w, images))})
        return make

    def reachable(rng, tag):
        s = rand_system(rng)
        rules = [(tuple(l), tuple(r)) for l, r in s["rules"]]
        length = rng.randint(3, 6)
        u, v = (tuple(rng.choice(AB) for _ in range(length)) for _ in range(2))
        found = oracle.rewrite_bfs(rules, u, v)
        record = ["verdict: no", "note: exhaustive"] if found is None else record_yes(
            derivation=" => ".join(fw(w) for w in found[0]),
            steps=" ".join(f"{i}@{p}" for i, p in found[1]))
        return (["oracle", "reachable", f"{tag}.rs", fw(u), fw(v)],
                {f"{tag}.rs": system_text(s)}, {"record": record})

    def rewrite_power_jobs(rng, tag):
        argv, files, expect = system_maker("search")(rng, tag)
        return argv + ["--jobs", "2"], files, expect

    def tm_to_rewrite(rng, tag):
        tm = MACHINES[rng.choice(sorted(MACHINES))]
        _alphabet, rules = oracle.tm_encoding(tm)
        return (["reduce", "tm-to-rewrite", f"{tag}.tm"], {f"{tag}.tm": tm_text(tm)},
                {"rules": [f"rule: {' '.join(l)} -> {' '.join(r)}" for l, r in rules]})

    return [
        ("lexleast", lexleast), ("cyc", cyc),
        ("product-intersect", product("intersect", lambda p, q: p and q)),
        ("product-union", product("union", lambda p, q: p or q)),
        ("product-difference", product("difference", lambda p, q: p and not q)),
        ("complement", complement), ("subset", subset),
        ("non-conjugates", non_conjugates), ("distinct-conjugates", distinct_conjugates),
        ("long-shift", long_shift), ("search-shift", search_shift),
        ("shift-to-power", shift_to_power), ("restrict", restrict),
        ("search-power", search_power), ("rewrite-power", system_maker("search")),
        ("rewrite-to-shift", system_maker("shift")), ("recode-binary", system_maker("binary")),
        ("tm-to-rewrite", tm_to_rewrite), ("reachable", reachable),
        ("reachable-b", reachable), ("rewrite-power-jobs2", rewrite_power_jobs),
        ("lexleast-b", lexleast), ("cyc-b", cyc), ("non-conjugates-b", non_conjugates),
        ("distinct-conjugates-b", distinct_conjugates), ("search-shift-b", search_shift),
        ("search-power-b", search_power),
    ]


def run_cli(workdir, argv, files):
    runner = workloads.Cli(os.path.dirname(workloads.BENCH_DIR), workdir, 60)
    for name, text in files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    started = time.perf_counter()
    code, out = runner.run(argv)
    return time.perf_counter() - started, code, out


def fixed_entries(workdir):
    """README pipelines; later steps read earlier steps' output."""
    ab = {"alphabet": list(AB), "rules": [[["a"], ["b"]]]}
    ab_rules = [(("a",), ("b",))]
    entries = []

    def add(name, argv, files, expect):
        seconds, code, out = run_cli(workdir, argv, files)
        expect.setdefault("code", 0)
        entries.append({"id": f"cli-{name}", "argv": argv, "files": files,
                        "expect": expect, "cost_ms": round(seconds * 1000, 2)})
        return out

    lt1 = add("gen-lt1", ["gen", "lt", "1"], {},
              {"language": language(AB, 9, lambda w: oracle.lt_accepts(1, w))})
    add("gen-lt2", ["gen", "lt", "2"], {},
        {"language": language(AB, 11, lambda w: oracle.lt_accepts(2, w))})
    u, v = (fw(w) for w in lt_pairs(1, 12))
    add("check-lt1", ["check", "distinct-conjugates", "lt1.dfa"], {"lt1.dfa": lt1},
        {"record": record_yes(u=u, v=v, uv=u + v, vu=v + u)})
    shift = add("rewrite-to-shift-ab", ["reduce", "rewrite-to-shift", "ab.rs"],
                {"ab.rs": system_text(ab)},
                {"probes": encoding_probes(random.Random(1), ab_rules, "_d0")})
    shift_nfa = oracle.parse_automaton(shift)
    record, code = shift_record(oracle.shift_witness(shift_nfa, ("a", "b", "_d0"), "c", 6), 6, "c")
    add("search-shift-ab", ["search", "shift", "shift.aut", "--max-len", "6"],
        {"shift.aut": shift}, {"record": record, "code": code})
    digit = {"c": "0", "a": "1", "b": "2", "_d0": "3"}
    power = add("shift-to-power-ab", ["reduce", "shift-to-power", "shift.aut"],
                {"shift.aut": shift},
                {"probes": probes(random.Random(2), shift_nfa, shift_nfa.accepts,
                                  lambda w: tuple((digit[p], digit[q]) for p, q in w), 8)})
    record, code = power_record(oracle.power_word(oracle.parse_automaton(power), 4, 14), 4, 14)
    add("search-power-ab", ["search", "power", "power.aut", "--base", "4", "--max-len", "14"],
        {"power.aut": power}, {"record": record, "code": code})
    halt = MACHINES["halt1"]
    alphabet, rules = oracle.tm_encoding(halt)
    add("tm-to-rewrite-halt", ["reduce", "tm-to-rewrite", "halt.tm"], {"halt.tm": tm_text(halt)},
        {"rules": [f"rule: {' '.join(l)} -> {' '.join(r)}" for l, r in rules]})
    halt_rs = system_text({"alphabet": list(alphabet), "rules": rules})
    record, code = rewrite_record(oracle.power_rewrite(rules, "a", "b", 5), 5)
    for jobs in ("1", "2"):
        add(f"rewrite-power-halt-jobs{jobs}",
            ["search", "rewrite-power", "halt.rs", "--max-n", "5", "--jobs", jobs],
            {"halt.rs": halt_rs}, {"record": record, "code": code})
    return entries


def build():
    rng = random.Random(0x5EED04)
    workdir = os.path.join(workloads.BENCH_DIR, "out", "catalogue-cli")
    os.makedirs(workdir, exist_ok=True)
    try:
        fixed = fixed_entries(workdir)
        pairs = []
        for name, make in paired_templates():
            pair = []
            for variant in (0, 1):
                tag = f"{name}-{variant}"
                argv, files, expect = make(rng, tag)
                seconds, code, out = run_cli(workdir, argv, files)
                expect.setdefault("code", 0)
                pair.append({"id": f"cli-{tag}", "argv": argv, "files": files,
                             "expect": expect, "cost_ms": round(seconds * 1000, 2)})
            pairs.append(pair)
        checker = workloads.Cli(os.path.dirname(workloads.BENCH_DIR), workdir, 60)
        for entry in fixed + [e for p in pairs for e in p]:
            seconds, code, out = run_cli(workdir, entry["argv"], entry["files"])
            entry["expect"]["sha256"] = hashlib.sha256(out.encode("utf-8")).hexdigest()
            problem = checker.check(entry, (code, out))
            if problem:
                raise SystemExit(f"wordshift disagrees with the oracle: {problem}\n{out}")
            print(f"  {entry['id']}: {entry['cost_ms']} ms", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"fixed": fixed, "pairs": pairs, "dropped_over_cap": 0, "cap_s": None}
