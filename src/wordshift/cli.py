"""Command-line front end.

Subcommand groups: ``lang`` for regular-language operators, ``check`` for the
exact decision procedures, ``search`` for the bounded semi-decision searches,
``reduce`` for the encodings, ``oracle`` for the brute-force reachability and
membership checks, and ``gen`` for the benchmark family.  ``-`` reads a file
argument from standard input.  Exit status: 0 for a completed run with a
yes/no verdict (or a pure construction), 2 when a bounded search exhausted
its bound, 1 for usage or parse errors.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

from . import langops, procedures, reductions, rewriting
from .automata import (complement, determinize, is_subset, product,
                       with_alphabet_order)
from .formats import (format_automaton, format_rewriting, format_word,
                      parse_automaton, parse_rewriting, parse_tm, parse_word)
from .outcome import DecisionOutcome, unknown, yes


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read(path: str) -> tuple:
    if path == "-":
        return sys.stdin.read(), "<stdin>"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read(), path
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _load_automaton(path: str, order=None):
    text, source = _read(path)
    nfa = parse_automaton(text, source)
    if order:
        nfa = with_alphabet_order(nfa, tuple(parse_word(order)))
    return nfa


def _load_dfa(path: str, order=None):
    return determinize(_load_automaton(path, order))


def _load_rewriting(path: str):
    text, source = _read(path)
    return parse_rewriting(text, source)


def _load_shift_instance(path: str, shift_letter: str):
    nfa = _load_automaton(path)
    base = []
    for symbol in nfa.alphabet:
        if not isinstance(symbol, tuple):
            raise UsageError("shift instances need a pair-symbol alphabet")
        for atom in symbol:
            if atom not in base:
                base.append(atom)
    if shift_letter not in base:
        raise UsageError(f"padding letter {shift_letter!r} does not occur in the alphabet")
    gamma = tuple(atom for atom in base if atom != shift_letter)
    return reductions.ShiftInstance(gamma, shift_letter, nfa)


def _emit_record(outcome: DecisionOutcome, timing=None) -> int:
    print(f"verdict: {outcome.verdict}")
    if outcome.witness:
        for key, value in outcome.witness.items():
            if key == "steps":
                value = " ".join(f"{rule}@{pos}" for (rule, pos) in value)
            elif isinstance(value, tuple):
                value = format_word(value)
            elif isinstance(value, list):
                value = " => ".join(format_word(w) for w in value)
            print(f"witness-{key}: {value}")
    if outcome.bound is not None:
        print(f"bound: {outcome.bound}")
    if outcome.note:
        print(f"note: {outcome.note}")
    if timing is not None:
        print(f"elapsed-ms: {timing}")
    return 2 if outcome.is_unknown else 0


def _emit_automaton(automaton, provenance: str) -> int:
    sys.stdout.write(format_automaton(automaton, header=[f"wordshift: {provenance}"]))
    return 0


def _rewrite_power_job(args):
    system, a, b, n, budget = args
    return n, rewriting.reachable(system, (a,) * n, (b,) * n, budget)


def _run_rewrite_power(system, a, b, max_n, budget, jobs):
    if jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {jobs}")
    # The pool starts every worker at once; more than one per n or per core
    # only costs memory.
    jobs = min(jobs, max_n, os.cpu_count() or 1)
    if jobs <= 1:
        return rewriting.rewrite_power_search(system, a, b, max_n, budget)
    rewriting._check_letters(system, a, b)
    # Imported here: only --jobs > 1 needs it, and every CLI process would
    # pay for it at start-up.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        # Canonical merge: results arrive in n order and the smallest yes
        # wins, matching the serial loop.
        for n, out in pool.map(_rewrite_power_job,
                               [(system, a, b, n, budget) for n in range(1, max_n + 1)]):
            if out.is_yes:
                pool.shutdown(cancel_futures=True)
                return yes(n=n, **out.witness)
    return unknown(bound=max_n)


def build_parser() -> _Parser:
    parser = _Parser(prog="wordshift")
    parser.add_argument("--timing", action="store_true",
                        help="append an elapsed-ms line to result records")
    sub = parser.add_subparsers(dest="group", required=True)

    lang = sub.add_parser("lang", help="regular-language operators").add_subparsers(
        dest="op", required=True)
    for name in ("lexleast", "cyc", "complement"):
        p = lang.add_parser(name)
        p.add_argument("automaton")
        p.add_argument("--alphabet-order")
    p = lang.add_parser("product")
    p.add_argument("mode", choices=["intersect", "union", "difference"])
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--alphabet-order")
    p = lang.add_parser("subset")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--alphabet-order")

    check = sub.add_parser("check", help="exact decision procedures").add_subparsers(
        dest="op", required=True)
    p = check.add_parser("long-shift")
    p.add_argument("automaton")
    p.add_argument("--shift-letter", default="c")
    p = check.add_parser("distinct-conjugates")
    p.add_argument("automaton")
    p.add_argument("--state-cap", type=int, default=None,
                   help="reject machines with more states (default: uncapped)")
    p.add_argument("--alphabet-order")
    p = check.add_parser("non-conjugates")
    p.add_argument("automaton")
    p.add_argument("--alphabet-order")

    search = sub.add_parser("search", help="bounded semi-decision searches").add_subparsers(
        dest="op", required=True)
    p = search.add_parser("shift")
    p.add_argument("automaton")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--shift-letter", default="c")
    p = search.add_parser("power")
    p.add_argument("automaton")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--max-len", type=int, required=True)
    p = search.add_parser("rewrite-power")
    p.add_argument("system")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--step-budget", type=int, default=None)
    p.add_argument("--letters", nargs=2, default=("a", "b"), metavar=("A", "B"))
    p.add_argument("--jobs", type=int, default=1)

    reduce_ = sub.add_parser("reduce", help="constructive encodings").add_subparsers(
        dest="op", required=True)
    p = reduce_.add_parser("tm-to-rewrite")
    p.add_argument("machine")
    p = reduce_.add_parser("rewrite-to-shift")
    p.add_argument("system")
    p.add_argument("--letters", nargs=2, default=("a", "b"), metavar=("A", "B"))
    p = reduce_.add_parser("shift-to-power")
    p.add_argument("automaton")
    p.add_argument("--shift-letter", default="c")
    p.add_argument("--digit-cap", type=int, default=8)
    p = reduce_.add_parser("recode-binary")
    p.add_argument("system")
    p.add_argument("--letters", nargs=2, default=("a", "b"), metavar=("A", "B"))
    p = reduce_.add_parser("restrict-general-shift")
    p.add_argument("automaton")
    p.add_argument("--shift-letter", default="c")

    oracle = sub.add_parser("oracle", help="brute-force cross checks").add_subparsers(
        dest="op", required=True)
    p = oracle.add_parser("reachable")
    p.add_argument("system")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--step-budget", type=int, default=None)
    p = oracle.add_parser("membership")
    p.add_argument("automaton")
    p.add_argument("word")

    gen = sub.add_parser("gen", help="benchmark generators").add_subparsers(
        dest="op", required=True)
    p = gen.add_parser("lt")
    p.add_argument("t", type=int)

    return parser


def _dispatch(args) -> int:
    started = time.monotonic()
    timing = lambda: int((time.monotonic() - started) * 1000) if args.timing else None

    if args.group == "lang":
        if args.op == "product":
            left = _load_dfa(args.left, args.alphabet_order)
            right = _load_dfa(args.right, args.alphabet_order)
            return _emit_automaton(product(left, right, args.mode),
                                   f"lang product {args.mode}")
        if args.op == "subset":
            left = _load_dfa(args.left, args.alphabet_order)
            right = _load_dfa(args.right, args.alphabet_order)
            holds, counterexample = is_subset(left, right)
            print(f"verdict: {'yes' if holds else 'no'}")
            if counterexample is not None:
                print(f"counterexample: {format_word(counterexample)}")
            if args.timing:
                print(f"elapsed-ms: {timing()}")
            return 0
        dfa = _load_dfa(args.automaton, args.alphabet_order)
        if args.op == "lexleast":
            return _emit_automaton(langops.lexleast(dfa), "lang lexleast")
        if args.op == "cyc":
            return _emit_automaton(langops.cyc(dfa), "lang cyc")
        if args.op == "complement":
            return _emit_automaton(complement(dfa), "lang complement")

    if args.group == "check":
        if args.op == "long-shift":
            inst = _load_shift_instance(args.automaton, args.shift_letter)
            return _emit_record(procedures.accepts_long_shift(inst), timing())
        if args.op == "distinct-conjugates":
            dfa = _load_dfa(args.automaton, args.alphabet_order)
            out = procedures.accepts_distinct_conjugates(dfa, state_cap=args.state_cap)
            return _emit_record(out, timing())
        if args.op == "non-conjugates":
            dfa = _load_dfa(args.automaton, args.alphabet_order)
            return _emit_record(procedures.accepts_non_conjugates(dfa), timing())

    if args.group == "search":
        if args.op == "shift":
            inst = _load_shift_instance(args.automaton, args.shift_letter)
            return _emit_record(reductions.shift_search(inst, args.max_len), timing())
        if args.op == "power":
            nfa = _load_automaton(args.automaton)
            out = procedures.accepts_power_search(nfa, args.base, args.max_len)
            return _emit_record(out, timing())
        if args.op == "rewrite-power":
            system = _load_rewriting(args.system)
            a, b = args.letters
            out = _run_rewrite_power(system, a, b, args.max_n, args.step_budget,
                                     args.jobs)
            return _emit_record(out, timing())

    if args.group == "reduce":
        if args.op == "tm-to-rewrite":
            text, source = _read(args.machine)
            machine = parse_tm(text, source)
            system = rewriting.tm_to_rewriting(machine)
            sys.stdout.write(format_rewriting(
                system, header=[f"wordshift: reduce tm-to-rewrite {source}"]))
            return 0
        if args.op == "rewrite-to-shift":
            system = _load_rewriting(args.system)
            a, b = args.letters
            inst = reductions.rewrite_to_shift(system, a, b)
            return _emit_automaton(
                inst.automaton,
                f"reduce rewrite-to-shift letters={a},{b} padding={inst.c}")
        if args.op == "shift-to-power":
            inst = _load_shift_instance(args.automaton, args.shift_letter)
            power = reductions.shift_to_power(inst, digit_cap=args.digit_cap)
            renaming = " ".join(f"{old}->{new}" for old, new in
                                sorted(power.digit_of.items()))
            return _emit_automaton(
                power.automaton,
                f"reduce shift-to-power k={power.k} renaming: {renaming}")
        if args.op == "recode-binary":
            system = _load_rewriting(args.system)
            a, b = args.letters
            inst = reductions.recode_binary(system, a, b)
            return _emit_automaton(
                inst.automaton, f"reduce recode-binary letters={a},{b}")
        if args.op == "restrict-general-shift":
            inst = _load_shift_instance(args.automaton, args.shift_letter)
            hit, restricted = reductions.general_shift_restrict(inst)
            return _emit_automaton(
                restricted,
                f"reduce restrict-general-shift diagonal-hit={'yes' if hit else 'no'}")

    if args.group == "oracle":
        if args.op == "reachable":
            system = _load_rewriting(args.system)
            out = rewriting.reachable(system, parse_word(args.source),
                                      parse_word(args.target), args.step_budget)
            return _emit_record(out, timing())
        if args.op == "membership":
            nfa = _load_automaton(args.automaton)
            accepted = nfa.accepts(parse_word(args.word))
            print(f"verdict: {'yes' if accepted else 'no'}")
            if args.timing:
                print(f"elapsed-ms: {timing()}")
            return 0

    if args.group == "gen":
        if args.op == "lt":
            dfa = procedures.long_witness_language(args.t)
            return _emit_automaton(dfa, f"gen lt {args.t} states={len(dfa.states)}")

    raise UsageError(f"unhandled command {args.group} {getattr(args, 'op', '')}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
    except (UsageError, ValueError) as exc:
        print(f"wordshift: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
