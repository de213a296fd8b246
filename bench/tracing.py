"""Tracing from outside the library: every public wordshift function is
wrapped at every module binding it is reachable through, and each call
becomes a span (name, start, end, parent, instance).

Spans are kept in memory in flat arrays and written out at the end.  A
span's name is the function's defining module and name, so
``procedures.determinize`` and ``reductions.determinize`` both record as
``automata.determinize``.  Generator functions get one span per resume.

Per-layer metrics are means per traced instance; ``ms`` and ``self_ms`` are
self time (duration minus the time covered by child spans).
"""
from __future__ import annotations

import importlib
import inspect
import os
import time
from array import array
from collections import Counter

MODULES = ("automata", "words", "langops", "regex", "rewriting", "reductions",
           "procedures", "formats", "outcome", "cli")

# Spans whose result is an automaton; ``states`` sums their state counts.
STATE_SPANS = ("automata.determinize", "automata.product", "langops.lexleast",
               "langops.cyc", "regex.regex_assemble")

PER_LAYER = [
    ("automata.determinize.calls", "count"), ("automata.determinize.ms", "ms"),
    ("automata.determinize.states", "count"),
    ("automata.product.calls", "count"), ("automata.product.ms", "ms"),
    ("automata.product.states", "count"),
    ("automata.shortest_word.calls", "count"), ("automata.shortest_word.ms", "ms"),
    ("automata.accepted_words.ms", "ms"), ("automata.accepted_words.words", "count"),
    ("automata.co_reachable.calls", "count"), ("automata.co_reachable.ms", "ms"),
    ("automata.minimize.ms", "ms"),
    ("langops.lexleast.ms", "ms"), ("langops.lexleast.states", "count"),
    ("langops.cyc.ms", "ms"), ("langops.cyc.states", "count"),
    ("langops.distinct_conjugate_completions.calls", "count"),
    ("langops.distinct_conjugate_completions.ms", "ms"),
    ("langops.distinct_conjugate_completions.nonempty_ratio", "ratio"),
    ("words.primitive_root.calls", "count"), ("words.primitive_root.ms", "ms"),
    ("words.are_conjugates.calls", "count"),
    ("regex.regex_assemble.calls", "count"), ("regex.regex_assemble.ms", "ms"),
    ("regex.regex_assemble.states", "count"),
    ("rewriting.reachable.calls", "count"), ("rewriting.reachable.ms", "ms"),
    ("rewriting.one_step_labeled.calls", "count"), ("rewriting.tm_to_rewriting.ms", "ms"),
    ("reductions.shift_search.ms", "ms"), ("reductions.shift_search_at.calls", "count"),
    ("reductions.shift_search_at.ms", "ms"), ("reductions.rewrite_to_shift.ms", "ms"),
    ("reductions.shift_to_power.ms", "ms"), ("reductions.recode_binary.ms", "ms"),
    ("reductions.general_shift_restrict.ms", "ms"),
    ("procedures.accepts_non_conjugates.self_ms", "ms"),
    ("procedures.accepts_distinct_conjugates.self_ms", "ms"),
    ("procedures.accepts_distinct_conjugates.candidates", "count"),
    ("procedures.accepts_power_search.self_ms", "ms"),
    ("procedures.accepts_power_search.useful_ratio", "ratio"),
    ("procedures.accepts_long_shift.self_ms", "ms"),
    ("formats.parse_automaton.ms", "ms"), ("formats.parse_automaton.bytes", "bytes"),
    ("formats.format_automaton.ms", "ms"), ("formats.format_automaton.bytes", "bytes"),
    ("cli.build_parser.ms", "ms"), ("cli.main.self_ms", "ms"), ("cli.import.ms", "ms"),
    ("trace.instances_per_s_untraced", "1/s"), ("trace.instances_per_s_traced", "1/s"),
    ("trace.overhead_share", "ratio"),
]


def self_times(starts, ends, parents):
    """Self time of every span: its duration minus the union of its child
    spans' intervals, clipped to its own.  Spans must be in start order."""
    merged = {}
    for i in range(len(starts)):
        p = parents[i]
        if p < 0:
            continue
        s, e = max(starts[i], starts[p]), min(ends[i], ends[p])
        if e <= s:
            continue
        m = merged.get(p)
        if m is None:
            merged[p] = [0.0, s, e]
        elif s > m[2]:
            m[0] += m[2] - m[1]
            m[1], m[2] = s, e
        else:
            m[2] = max(m[2], e)
    out = [ends[i] - starts[i] for i in range(len(starts))]
    for p, (covered, s, e) in merged.items():
        out[p] -= covered + (e - s)
    return out


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.instances = array("l")
        self.stack = []
        self.instance = 0
        self.counts = Counter()
        self._saved = []

    def name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def parent_name(self, span):
        parent = self.parents[span]
        return self.names[self.span_name[parent]] if parent >= 0 else None

    # -------------------------------------------------------- installation

    def install(self):
        import wordshift
        modules = [wordshift] + [importlib.import_module(f"wordshift.{m}") for m in MODULES]
        for module in modules:
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or not fn.__module__.startswith("wordshift.")):
                    continue
                name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _open(self, nid):
        index = len(self.starts)
        self.span_name.append(nid)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.instances.append(self.instance)
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index):
        self.ends[index] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name):
        nid = self.name_id(name)
        hook = HOOKS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    span = tracer._open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(span)
                    if hook:
                        hook(tracer, span, args, item)
                    yield item
            return traced_generator

        def traced(*args, **kwargs):
            span = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook:
                hook(tracer, span, args, result)
            return result
        return traced

    # -------------------------------------------------------------- output

    def reset_stack(self):
        """Close spans left open by an instance that raised mid-call."""
        now = time.perf_counter()
        for index in self.stack:
            self.ends[index] = now
        self.stack.clear()

    def metrics(self, instances, time_scale=1.0):
        """Per-instance means of every PER_LAYER metric traced here, with
        times multiplied by ``time_scale``."""
        own = self_times(self.starts, self.ends, self.parents)
        calls, self_ms = Counter(), Counter()
        for i, nid in enumerate(self.span_name):
            calls[self.names[nid]] += 1
            self_ms[self.names[nid]] += own[i] * 1000 * time_scale
        n = max(instances, 1)
        c = self.counts
        out = {}
        for metric, _unit in PER_LAYER:
            span, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls[span] / n
            elif kind in ("ms", "self_ms"):
                out[metric] = self_ms[span] / n
            elif kind == "nonempty_ratio":
                out[metric] = c[f"{span}.nonempty"] / max(c[f"{span}.built"], 1)
            elif kind == "useful_ratio":
                out[metric] = c[f"{span}.useful"] / max(c[f"{span}.scanned"], 1)
            else:
                out[metric] = c[metric] / n
        return out

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tinstance\n")
            for i in range(len(self.starts)):
                fh.write(f"{self.names[self.span_name[i]]}\t{self.starts[i]:.9f}\t"
                         f"{self.ends[i]:.9f}\t{self.parents[i]}\t{self.instances[i]}\n")


# ------------------------------------------------------------------ hooks
# A hook runs after its span closed and sees the call's arguments and
# result; it only counts.

def _states(tracer, span, _args, result):
    tracer.counts[f"{tracer.names[tracer.span_name[span]]}.states"] += len(result.states)


def _accepted_word(tracer, span, _args, _word):
    tracer.counts["automata.accepted_words.words"] += 1
    if tracer.parent_name(span) == "procedures.accepts_power_search":
        tracer.counts["procedures.accepts_power_search.scanned"] += 1


def _power_search(tracer, _span, _args, outcome):
    tracer.counts["procedures.accepts_power_search.useful"] += outcome.verdict == "yes"


def _completions(tracer, span, _args, _result):
    if tracer.parent_name(span) == "procedures.accepts_distinct_conjugates":
        tracer.counts["procedures.accepts_distinct_conjugates.candidates"] += 1
        tracer.counts["langops.distinct_conjugate_completions.built"] += 1


def _shortest_word(tracer, span, _args, result):
    # accepts_distinct_conjugates asks for one shortest word per completion.
    if tracer.parent_name(span) == "procedures.accepts_distinct_conjugates":
        tracer.counts["langops.distinct_conjugate_completions.nonempty"] += result is not None


def _parse_bytes(tracer, _span, args, _result):
    tracer.counts["formats.parse_automaton.bytes"] += len(args[0])


def _format_bytes(tracer, _span, _args, result):
    tracer.counts["formats.format_automaton.bytes"] += len(result)


HOOKS = {name: _states for name in STATE_SPANS}
HOOKS.update({
    "automata.accepted_words": _accepted_word,
    "procedures.accepts_power_search": _power_search,
    "langops.distinct_conjugate_completions": _completions,
    "automata.shortest_word": _shortest_word,
    "formats.parse_automaton": _parse_bytes,
    "formats.format_automaton": _format_bytes,
})
