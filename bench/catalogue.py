"""Build the benchmark catalogues in ``bench/data``.

    python3 bench/catalogue.py [workload ...]

For each workload this draws candidate instances from the workload's
catalogue seed, computes every expected answer with the benchmark's own
oracle, times wordshift on each candidate once to sort candidates by cost,
and writes ``bench/data/<workload>.json``.  Candidates slower than the
workload's cap are dropped (their count is recorded), because one of them
would outlast a whole run.  wordshift's answer on every kept candidate is
checked against the oracle; a mismatch aborts the build.

The catalogues are committed: the expected answers are generated once here
and compared on every run.  For ``cli`` the catalogue also records the
SHA-256 of each command's output on the commit that built it, so later
commits are checked for byte-identical output.
"""
from __future__ import annotations

import json
import os
import random
import signal
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import oracle  # noqa: E402
import workloads  # noqa: E402

AB = ("a", "b")

MACHINES = {
    "halt1": {"states": ["q0", "qf"], "tape": ["B"], "blank": "B", "start": "q0",
              "final": "qf", "delta": [["q0", "B", "qf", "B", "R"]]},
    "loop1": {"states": ["q0", "qf"], "tape": ["B"], "blank": "B", "start": "q0",
              "final": "qf", "delta": [["q0", "B", "q0", "B", "R"]]},
    "halt2": {"states": ["q0", "q1", "qf"], "tape": ["B", "X"], "blank": "B",
              "start": "q0", "final": "qf",
              "delta": [["q0", "B", "q1", "X", "R"], ["q0", "X", "q0", "X", "R"],
                        ["q1", "B", "qf", "X", "R"], ["q1", "X", "q1", "X", "R"]]},
    "back": {"states": ["q0", "q1", "qf"], "tape": ["B", "X"], "blank": "B",
             "start": "q0", "final": "qf",
             "delta": [["q0", "B", "q1", "X", "R"], ["q0", "X", "qf", "X", "R"],
                       ["q1", "B", "q0", "B", "L"], ["q1", "X", "q1", "X", "R"]]},
    "loop2": {"states": ["q0", "q1", "qf"], "tape": ["B", "X"], "blank": "B",
              "start": "q0", "final": "qf",
              "delta": [["q0", "B", "q1", "X", "R"], ["q0", "X", "q1", "B", "R"],
                        ["q1", "B", "q0", "B", "L"], ["q1", "X", "q0", "X", "L"]]},
}


class Timeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise Timeout()


def timed(fn, cap_s):
    """(seconds, result) of fn(), or (None, None) past cap_s."""
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    started = time.perf_counter()
    try:
        result = fn()
    except Timeout:
        return None, None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - started, result


# ------------------------------------------------------------- generators

def rand_dfa(rng, n, final_p=0.4):
    return {"alphabet": list(AB), "finals": [q for q in range(n) if rng.random() < final_p],
            "delta": [[rng.randrange(n) for _ in AB] for _ in range(n)]}


def one_b_dfa(rng, n):
    """A random DFA intersected with "exactly one b": all same-length words
    of such a language are rotations of each other."""
    base = rand_dfa(rng, n)
    ids, order, delta = {(0, 0): 0}, [(0, 0)], []
    for q, k in order:
        row = []
        for i, s in enumerate(AB):
            nxt = (base["delta"][q][i], min(2, k + (s == "b")))
            if nxt not in ids:
                ids[nxt] = len(order)
                order.append(nxt)
            row.append(ids[nxt])
        delta.append(row)
    finals = [ids[p] for p in order if p[0] in base["finals"] and p[1] == 1]
    return {"alphabet": list(AB), "finals": finals, "delta": delta}


def rand_system(rng, max_rules=3, max_side=2):
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        length = rng.randint(1, max_side)
        rules.append([[rng.choice(AB) for _ in range(length)],
                      [rng.choice(AB) for _ in range(length)]])
    return {"alphabet": list(AB), "rules": rules}


def rand_pair_nfa(rng, n, base, edge_p):
    pairs = [(u, v) for u in base for v in base]
    trans = [(q, p, r) for q in range(n) for p in pairs for r in range(n)
             if rng.random() < edge_p]
    finals = [q for q in range(1, n) if rng.random() < 0.4] or [n - 1]
    return pairs, trans, finals


# -------------------------------------------------------------- text forms

def fmt_symbol(s):
    return "|".join(s) if isinstance(s, (tuple, list)) else s


def dfa_text(spec):
    lines = ["alphabet: " + " ".join(spec["alphabet"]),
             "states: " + " ".join(str(q) for q in range(len(spec["delta"]))),
             "start: 0", "finals: " + " ".join(map(str, spec["finals"]))]
    lines += [f"trans: {q} {s} {r}" for q, row in enumerate(spec["delta"])
              for s, r in zip(spec["alphabet"], row)]
    return "\n".join(lines) + "\n"


def nfa_text(alphabet, n, trans, finals):
    lines = ["alphabet: " + " ".join(fmt_symbol(s) for s in alphabet),
             "states: " + " ".join(str(q) for q in range(n)), "start: 0",
             "finals: " + " ".join(map(str, finals))]
    lines += [f"trans: {q} {fmt_symbol(p)} {r}" for q, p, r in trans]
    return "\n".join(lines) + "\n"


def system_text(system):
    return "".join(["alphabet: " + " ".join(system["alphabet"]) + "\n"] +
                   [f"rule: {' '.join(l)} -> {' '.join(r)}\n" for l, r in system["rules"]])


def tm_text(tm):
    lines = [f"tm-states: {' '.join(tm['states'])}", "tm-input:",
             f"tm-tape: {' '.join(tm['tape'])}", f"tm-blank: {tm['blank']}",
             f"tm-start: {tm['start']}", f"tm-final: {tm['final']}"]
    lines += [f"tm-delta: {q} {c} -> {q2} {d} {m}" for q, c, q2, d, m in tm["delta"]]
    return "\n".join(lines) + "\n"


def jsonable(value):
    if isinstance(value, (tuple, list)):
        return [jsonable(v) for v in value]
    return value


# ------------------------------------------------------ oracle expectations

NONCONJ_BOUND = 12
DISTCONJ_BOUND = 12


def expect_nonconj(entry):
    found = oracle.non_conjugates(entry["dfa"], NONCONJ_BOUND)
    if found:
        return {"verdict": "yes", "x": jsonable(found[0]), "y": jsonable(found[1])}
    return {"verdict": "no", "exact": entry["kind"] == "one-b", "bound": NONCONJ_BOUND}


def lt_pairs(t, bound):
    """Brute-force least distinct-conjugate pair of lt(t) with |uv| <= bound."""
    words = (w for w in oracle.all_words(AB, bound, 2) if oracle.lt_accepts(t, w))
    return oracle.distinct_conjugate_pairs(words, lambda w: oracle.lt_accepts(t, w), AB)


def expect_distconj(entry):
    if "t" in entry:
        t = entry["t"]
        pair = lt_pairs(t, DISTCONJ_BOUND)
        out = {"verdict": "yes", "len_u": t * t + t + 1, "len_v": t * t + t + 2,
               "bound": DISTCONJ_BOUND}
    else:
        pair = oracle.dfa_distinct_conjugate_pairs(entry["dfa"], DISTCONJ_BOUND)
        out = {"verdict": "yes" if pair else "no", "exact": False, "bound": DISTCONJ_BOUND}
    if pair:
        out["u"], out["v"] = jsonable(pair[0]), jsonable(pair[1])
    return out


def _halting_expect(entry, res):
    """Oracle answers for one chain, computed on the plain-data system and
    on the chain's automata read as data."""
    b = entry["bounds"]
    if "tm" in entry:
        _alphabet, rules = oracle.tm_encoding(entry["tm"])
    else:
        rules = [(tuple(l), tuple(r)) for l, r in entry["system"]["rules"]]
    found = oracle.power_rewrite(rules, "a", "b", b["max_n"])
    e = {"rewrite": None if found is None else
         {"n": found[0], "derivation": jsonable(found[1]), "steps": jsonable(found[2])}}
    inst = res["inst"]
    nfa = workloads.oracle_nfa(inst.automaton)
    gamma, c = inst.gamma, inst.c
    found = oracle.shift_witness(nfa, gamma, c, b["shift_len"])
    e["shift"] = None if found is None else {"x": jsonable(found[0]), "n": found[1]}
    power = res["power_inst"]
    found = oracle.power_word(workloads.oracle_nfa(power.automaton), power.k, b["power_len"])
    e["power"] = None if found is None else {"word": jsonable(found[0]), "i": found[1]}
    found = oracle.long_shift_witness(nfa, gamma, c, b["long_len"], b["long_slack"])
    e["long"] = {"bound": b["long_len"], "slack": b["long_slack"]}
    if found:
        e["long"].update(x=jsonable(found[0]), n=found[1])
    e["diagonal"] = oracle.diagonal_word(nfa, gamma) is not None
    probes = []
    for w in oracle.nfa_accepted_words(nfa, b["probe_len"]):
        probes.append({"word": jsonable(w), "accepted": True,
                       "restricted": oracle.one_block_track(w, c)})
        if len(probes) == 12:
            break
    rng = random.Random(len(probes))
    pairs = nfa.alphabet
    while len(probes) < 24:
        w = tuple(rng.choice(pairs) for _ in range(rng.randint(1, b["probe_len"])))
        if not nfa.accepts(w):
            probes.append({"word": jsonable(w), "accepted": False, "restricted": False})
    e["probes"] = probes
    return e


# ------------------------------------------------------------- workloads

def build_ranked(workload, candidates, cap_s, want, tail, fixed_ids=()):
    """Time candidates and keep the first ``want`` under the cap.  The
    ``tail`` costliest and ``fixed_ids`` run in every pool, so the heavy
    instances that dominate a pass are the same for every seed; the rest
    are sorted by cost and paired with their neighbour."""
    w = workloads.WORKLOADS[workload]()
    kept, dropped = [], 0
    for entry in candidates:
        built = w.build(entry)
        seconds, out = timed(lambda: w.run(built), cap_s)
        if seconds is None:
            dropped += 1
            print(f"  {entry['id']}: over {cap_s}s, dropped", flush=True)
            continue
        if "expect" not in entry:
            entry["expect"] = EXPECT[workload](entry, out)
        problem = w.check(entry, out)
        if problem:
            raise SystemExit(f"wordshift disagrees with the oracle: {problem}")
        entry["cost_ms"] = round(seconds * 1000, 2)
        kept.append(entry)
        print(f"  {entry['id']}: {entry['cost_ms']} ms {entry['expect'].get('verdict', '')}",
              flush=True)
        if len(kept) == want:
            break
    fixed = [e for e in kept if e["id"] in fixed_ids]
    rest = sorted((e for e in kept if e["id"] not in fixed_ids), key=lambda e: e["cost_ms"])
    fixed += rest[len(rest) - tail:]
    rest = rest[:len(rest) - tail]
    if len(rest) % 2:
        fixed.append(rest.pop())
    pairs = [rest[i:i + 2] for i in range(0, len(rest), 2)]
    return {"fixed": fixed, "pairs": pairs, "dropped_over_cap": dropped, "cap_s": cap_s}


def nonconj():
    rng = random.Random(0x5EED01)

    def candidates():
        for i in range(10_000):
            if i % 4 == 3:
                yield {"id": f"nonconj-{i}", "kind": "one-b",
                       "dfa": one_b_dfa(rng, rng.randint(3, 6))}
            else:
                yield {"id": f"nonconj-{i}", "kind": "random",
                       "dfa": rand_dfa(rng, rng.randint(4, 10))}
    return build_ranked("nonconj", candidates(), cap_s=0.6, want=300, tail=20)


def distconj():
    rng = random.Random(0x5EED02)

    def candidates():
        for t in (1, 2, 3):
            yield {"id": f"lt{t}", "t": t}
        for i in range(10_000):
            yield {"id": f"distconj-{i}", "dfa": rand_dfa(rng, 2 + i % 3)}
    return build_ranked("distconj", candidates(), cap_s=1.0, want=203, tail=24,
                        fixed_ids=("lt1", "lt2", "lt3"))


def halting():
    rng = random.Random(0x5EED03)
    system_bounds = {"max_n": 10, "shift_len": 7, "power_len": 10, "digit_cap": 8,
                     "long_len": 5, "long_slack": 8, "probe_len": 8}
    machine_bounds = {"max_n": 7, "shift_len": 5, "power_len": 6, "digit_cap": 16,
                      "long_len": 3, "long_slack": 8, "probe_len": 6}

    def candidates():
        for name, tm in MACHINES.items():
            yield {"id": f"tm-{name}", "tm": tm, "bounds": machine_bounds}
        for i in range(10_000):
            yield {"id": f"halting-{i}", "system": rand_system(rng), "bounds": system_bounds}
    return build_ranked("halting", candidates(), cap_s=2.0, want=125, tail=15,
                        fixed_ids=tuple(f"tm-{name}" for name in MACHINES))


EXPECT = {
    "nonconj": lambda entry, _out: expect_nonconj(entry),
    "distconj": lambda entry, _out: expect_distconj(entry),
    "halting": _halting_expect,
}

BUILDERS = {"nonconj": nonconj, "distconj": distconj, "halting": halting}


def main(argv):
    names = argv or list(BUILDERS) + ["cli"]
    os.makedirs(workloads.DATA_DIR, exist_ok=True)
    for name in names:
        print(f"building {name}", flush=True)
        if name == "cli":
            import cli_catalogue
            data = cli_catalogue.build()
        else:
            data = BUILDERS[name]()
        path = os.path.join(workloads.DATA_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))
            fh.write("\n")
        pool = sum(e["cost_ms"] for e in data["fixed"]) + sum(
            (p[0]["cost_ms"] + p[-1]["cost_ms"]) / 2 for p in data["pairs"])
        print(f"{name}: {len(data['fixed'])} fixed, {len(data['pairs'])} pairs, "
              f"pool ~{pool:.0f} ms, {data['dropped_over_cap']} dropped", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
