"""The four benchmark workloads: how an instance is built from its catalogue
entry, the call that is timed, and the check against the oracle.

A catalogue (``bench/data/<workload>.json``, written by ``catalogue.py``)
holds every candidate instance with its oracle answer.  Instances marked
``fixed`` run in every pool; the rest come in pairs of neighbouring cost,
and the run's ``--seed`` picks one instance of each pair and the order of
the pool.  So every seed gives different inputs at nearly the same total
cost, which keeps runs with different seeds comparable.

wordshift functions are always looked up through their module at call time,
so the tracer's wrappers see every call.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys

import oracle

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DATA_DIR = os.path.join(BENCH_DIR, "data")


def word(data):
    """A word from JSON, where pair symbols are 2-element lists."""
    return tuple(tuple(s) if isinstance(s, list) else s for s in data)


def dfa_spec(spec):
    """wordshift Dfa for a plain-data DFA (start 0)."""
    from wordshift import automata
    alphabet = tuple(spec["alphabet"])
    delta = {(q, s): row[i] for q, row in enumerate(spec["delta"])
             for i, s in enumerate(alphabet)}
    return automata.Dfa(alphabet, range(len(spec["delta"])), 0, spec["finals"], delta)


def oracle_nfa(nfa):
    """Oracle runner over the transitions of a wordshift automaton."""
    if hasattr(nfa, "delta"):
        return oracle.Nfa(nfa.alphabet, {nfa.start}, nfa.finals,
                          [(q, s, r) for (q, s), r in nfa.delta.items()])
    return oracle.Nfa(nfa.alphabet, nfa.start, nfa.finals, nfa.transitions)


def load_catalogue(name):
    with open(os.path.join(DATA_DIR, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def select_pool(catalogue, seed):
    """Fixed entries plus one entry of each cost pair, in seeded order."""
    rng = random.Random(seed)
    pool = list(catalogue["fixed"])
    pool += [rng.choice(pair) for pair in catalogue["pairs"]]
    rng.shuffle(pool)
    return pool


def _fail(entry, message):
    return f"{entry['id']}: {message}"


def _check_witness(entry, what, got, expect):
    """Compare a bounded search's outcome with the oracle's answer: the
    oracle's witness must be returned exactly, and unknown is a failure only
    when the oracle holds a witness inside the bound."""
    if got.verdict == "no":
        return _fail(entry, f"{what}: a bounded search answered no")
    if expect is None:
        if got.verdict == "yes":
            return _fail(entry, f"{what}: yes {got.witness} but the oracle has "
                                "no witness inside the bound")
        return None
    if got.verdict != "yes":
        return _fail(entry, f"{what}: {got.verdict}, oracle witness {expect}")
    return None


# ------------------------------------------------------------------ nonconj

class NonConj:
    """accepts_non_conjugates on random complete DFAs over {a, b}."""


    def build(self, entry):
        return dfa_spec(entry["dfa"])

    def run(self, m):
        from wordshift import procedures
        return procedures.accepts_non_conjugates(m)

    def check(self, entry, out):
        spec, expect = entry["dfa"], entry["expect"]
        if out.verdict == "no":
            if expect["verdict"] == "yes":
                return _fail(entry, f"no, oracle witness {expect}")
            return None
        if out.verdict != "yes":
            return _fail(entry, f"exact procedure answered {out.verdict}")
        x, y = out.witness["x"], out.witness["y"]
        least = next(oracle.dfa_words_of_length(spec, len(y)), None)
        if not (oracle.dfa_accepts(spec, x) and y == least and len(x) == len(y)
                and not oracle.is_rotation(x, y)):
            return _fail(entry, f"witness {x}, {y} fails re-verification")
        if expect["verdict"] == "yes":
            if (x, y) != (word(expect["x"]), word(expect["y"])):
                return _fail(entry, f"witness {x}, {y}; oracle {expect}")
        elif expect["exact"] or len(x) <= expect["bound"]:
            return _fail(entry, f"yes {x}, {y}; oracle has none up to {expect['bound']}")
        return None


# ----------------------------------------------------------------- distconj

class DistConj:
    """accepts_distinct_conjugates(state_cap=None) on lt(t) and small DFAs."""


    def build(self, entry):
        from wordshift import procedures
        if "t" in entry:
            return procedures.long_witness_language(entry["t"])
        return dfa_spec(entry["dfa"])

    def run(self, m):
        from wordshift import procedures
        return procedures.accepts_distinct_conjugates(m, state_cap=None)

    def check(self, entry, out):
        expect = entry["expect"]
        accepts = (lambda w: oracle.lt_accepts(entry["t"], w)) if "t" in entry \
            else (lambda w: oracle.dfa_accepts(entry["dfa"], w))
        if out.verdict == "no":
            if expect["verdict"] == "yes":
                return _fail(entry, f"no, oracle {expect}")
            return None
        if out.verdict != "yes":
            return _fail(entry, f"exact procedure answered {out.verdict}")
        u, v = out.witness["u"], out.witness["v"]
        if not (u and v and accepts(u + v) and accepts(v + u) and u + v != v + u
                and out.witness["uv"] == u + v and out.witness["vu"] == v + u):
            return _fail(entry, f"witness {u}, {v} fails re-verification")
        if "len_u" in expect and (len(u), len(v)) != (expect["len_u"], expect["len_v"]):
            return _fail(entry, f"witness lengths {len(u)}, {len(v)}; oracle "
                                f"{expect['len_u']}, {expect['len_v']}")
        alphabet = ("a", "b")
        if expect.get("u") is not None:
            eu, ev = word(expect["u"]), word(expect["v"])
            beyond = (oracle.ll_key(u, alphabet) < oracle.ll_key(eu, alphabet)
                      and len(u) + len(v) > expect["bound"])
            if (u, v) != (eu, ev) and not beyond:
                return _fail(entry, f"witness {u}, {v}; oracle {eu}, {ev}")
        elif expect["verdict"] == "no" and expect["exact"]:
            return _fail(entry, "yes, oracle says no")
        elif len(u) + len(v) <= expect["bound"]:
            return _fail(entry, f"witness {u}, {v} inside the bound the oracle searched")
        return None


# ------------------------------------------------------------------ halting

class Halting:
    """The reduction chain on seeded rewriting systems and machine encodings."""


    def build(self, entry):
        from wordshift import rewriting
        if "tm" in entry:
            tm = entry["tm"]
            delta = {}
            for q, c, q2, d, direction in tm["delta"]:
                delta.setdefault((q, c), []).append((q2, d, direction))
            source = rewriting.TuringMachine(tm["states"], (), tm["tape"], delta,
                                             tm["start"], tm["blank"], tm["final"])
        else:
            source = rewriting.RewritingSystem(
                entry["system"]["alphabet"],
                [(tuple(l), tuple(r)) for l, r in entry["system"]["rules"]])
        return source, entry["bounds"]

    def run(self, built):
        from wordshift import procedures, reductions, rewriting
        source, b = built
        res = {}
        if isinstance(source, rewriting.TuringMachine):
            source = res["system"] = rewriting.tm_to_rewriting(source)
        res["rewrite"] = rewriting.rewrite_power_search(source, "a", "b", b["max_n"])
        inst = res["inst"] = reductions.rewrite_to_shift(source, "a", "b")
        res["shift"] = reductions.shift_search(inst, b["shift_len"])
        power = res["power_inst"] = reductions.shift_to_power(inst, digit_cap=b["digit_cap"])
        res["power"] = procedures.accepts_power_search(power.automaton, power.k,
                                                       b["power_len"])
        res["long"] = procedures.accepts_long_shift(inst)
        res["diag"], res["restricted"] = reductions.general_shift_restrict(inst)
        res["binary"] = reductions.recode_binary(source, "a", "b")
        return res

    def check(self, entry, res):
        e = entry["expect"]
        if "system" in res:
            alphabet, rules = oracle.tm_encoding(entry["tm"])
            if (res["system"].alphabet, res["system"].rules) != (alphabet, tuple(rules)):
                return _fail(entry, "machine encoding differs from the oracle's rules")
        out = res["rewrite"]
        problem = _check_witness(entry, "rewrite-power", out, e["rewrite"])
        if problem:
            return problem
        if out.verdict == "yes" and (
                out.witness["n"], out.witness["derivation"], out.witness["steps"]) != (
                e["rewrite"]["n"], [word(w) for w in e["rewrite"]["derivation"]],
                [tuple(s) for s in e["rewrite"]["steps"]]):
            return _fail(entry, f"rewrite-power witness n={out.witness['n']}; oracle {e['rewrite']}")

        inst = res["inst"]
        out = res["shift"]
        problem = _check_witness(entry, "shift", out, e["shift"])
        if problem:
            return problem
        if out.verdict == "yes" and (out.witness["x"], out.witness["n"]) != (
                word(e["shift"]["x"]), e["shift"]["n"]):
            return _fail(entry, f"shift witness {out.witness['x']}; oracle {e['shift']}")

        power = res["power_inst"]
        if power.k != len(inst.gamma) + 1:
            return _fail(entry, f"shift-to-power base {power.k}")
        out = res["power"]
        problem = _check_witness(entry, "power", out, e["power"])
        if problem:
            return problem
        if out.verdict == "yes":
            w = out.witness["word"]
            if (w, out.witness["i"]) != (word(e["power"]["word"]), e["power"]["i"]) or \
                    out.witness["numerator"] != oracle.digits_value([u for u, _ in w], power.k):
                return _fail(entry, f"power witness {w}; oracle {e['power']}")

        out = res["long"]
        if out.verdict == "yes":
            x, n = out.witness["x"], out.witness["n"]
            runner = oracle_nfa(inst.automaton)
            c = inst.c
            if n < len(x) or not runner.accepts(oracle.convolve(x + (c,) * n, (c,) * n + x)):
                return _fail(entry, f"long-shift witness {x}, {n} fails re-verification")
            lx = e["long"]
            if lx.get("x") is not None:
                if (x, n) != (word(lx["x"]), lx["n"]) and not (
                        oracle.ll_key(x, inst.gamma) < oracle.ll_key(word(lx["x"]), inst.gamma)
                        and n > len(x) + lx["slack"]):
                    return _fail(entry, f"long-shift witness {x}, {n}; oracle {lx}")
            elif len(x) <= lx["bound"] and n <= len(x) + lx["slack"]:
                return _fail(entry, f"long-shift witness {x}, {n} inside the oracle's bound")
        elif out.verdict == "no":
            if e["long"].get("x") is not None:
                return _fail(entry, f"long-shift no; oracle {e['long']}")
        else:
            return _fail(entry, "long-shift answered unknown")

        if res["diag"] != e["diagonal"]:
            return _fail(entry, f"diagonal-hit {res['diag']}; oracle {e['diagonal']}")
        digit = {inst.c: "0"}
        digit.update((g, str(i)) for i, g in enumerate(inst.gamma, start=1))
        renamed = oracle_nfa(power.automaton)
        restricted = oracle_nfa(res["restricted"])
        binary = oracle_nfa(res["binary"].automaton)
        images = oracle.block_images(inst.gamma, inst.c)
        for probe in e["probes"]:
            w, accepted, kept = word(probe["word"]), probe["accepted"], probe["restricted"]
            if renamed.accepts(tuple((digit[u], digit[v]) for u, v in w)) != accepted:
                return _fail(entry, f"digit renaming differs on {w}")
            if restricted.accepts(w) != kept:
                return _fail(entry, f"restricted language differs on {w}")
            if binary.accepts(oracle.encode_pairs(w, images)) != accepted:
                return _fail(entry, f"binary recoding differs on {w}")
        return None


# ---------------------------------------------------------------------- cli

class Cli:
    """README pipelines as real `python -m wordshift.cli` processes."""


    def __init__(self, root, workdir, limit_s):
        self.workdir = workdir
        self.limit_s = limit_s
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def write_files(self, pool):
        os.makedirs(self.workdir, exist_ok=True)
        for entry in pool:
            for name, text in entry["files"].items():
                with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as fh:
                    fh.write(text)

    def build(self, entry):
        return entry["argv"]

    def run(self, argv):
        proc = subprocess.run([sys.executable, "-m", "wordshift.cli"] + argv,
                              cwd=self.workdir, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=self.limit_s)
        return proc.returncode, proc.stdout.decode("utf-8")

    def run_in_process(self, argv):
        """Drive cli.main in this process (traced runs)."""
        import contextlib
        import io
        from wordshift import cli
        buf = io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(argv))
        finally:
            os.chdir(cwd)
        return code, buf.getvalue()

    def check(self, entry, result):
        code, out = result
        e = entry["expect"]
        if code != e["code"]:
            return _fail(entry, f"exit code {code}, expected {e['code']}")
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        if "record" in e and lines != e["record"]:
            return _fail(entry, f"record {lines}; oracle {e['record']}")
        if "language" in e:
            lang = e["language"]
            nfa = oracle.parse_automaton(out)
            got = {oracle.format_word(w) for w in oracle.all_words(word(lang["alphabet"]),
                                                                    lang["max_len"])
                   if nfa.accepts(w)}
            if got != set(lang["accepted"]):
                return _fail(entry, f"emitted language differs on words up to {lang['max_len']}")
        if "probes" in e:
            nfa = oracle.parse_automaton(out)
            for probe in e["probes"]:
                if nfa.accepts(word(probe["word"])) != probe["accepted"]:
                    return _fail(entry, f"emitted language differs on {probe['word']}")
        if "rules" in e:
            rules = [l for l in lines if l.startswith("rule:")]
            if rules != e["rules"]:
                return _fail(entry, "emitted rewriting system differs from the oracle's")
        if hashlib.sha256(out.encode("utf-8")).hexdigest() != e["sha256"]:
            return _fail(entry, "output is not byte-identical to the catalogue commit's")
        return None


WORKLOADS = {"nonconj": NonConj, "distconj": DistConj, "halting": Halting, "cli": Cli}
