"""Automata toolkit for shift and conjugacy decision problems.

Exact representations of NFAs/DFAs over ordered (possibly pair) alphabets,
word combinatorics (convolution, primitive roots, conjugacy), regular
operators (lexleast, cyc), length-preserving rewriting with a Turing-machine
encoding, the reductions from rewriting reachability to shift acceptance and
base-k power acceptance, and the decidable procedures for long shifts,
distinct conjugates and non-conjugates.
"""

from .automata import (EPSILON, Dfa, Nfa, accepted_words, co_reachable,
                       complement, determinize, is_empty, is_subset, minimize,
                       pair_alphabet, product, relabel, shortest_word,
                       with_alphabet_order)
from .langops import cyc, distinct_conjugate_completions, lexleast
from .outcome import DecisionOutcome, WitnessError
from .procedures import (QuoEnumeration, accepts_distinct_conjugates,
                         accepts_long_shift, accepts_non_conjugates,
                         accepts_power_search, base_k_value,
                         long_witness_language, quo_enumerate)
from .reductions import (Morphism, PowerInstance, ShiftInstance,
                         binary_morphism, binary_one_step_language,
                         block_morphism, general_shift_restrict,
                         one_step_language, recode_binary, rewrite_to_shift,
                         shift_search, shift_search_at, shift_to_power)
from .rewriting import (RewritingSystem, TmRun, TuringMachine, one_step,
                        one_step_labeled, reachable, replay_derivation,
                        rewrite_power_search, tm_run, tm_to_rewriting)
from .words import are_conjugates, commutes, convolve, primitive_root, project

__version__ = "0.1.0"

__all__ = [
    "EPSILON", "Dfa", "Nfa", "accepted_words", "co_reachable", "complement",
    "determinize", "is_empty", "is_subset", "minimize", "pair_alphabet",
    "product", "relabel", "shortest_word", "with_alphabet_order",
    "cyc", "distinct_conjugate_completions", "lexleast",
    "DecisionOutcome", "WitnessError",
    "QuoEnumeration", "accepts_distinct_conjugates", "accepts_long_shift",
    "accepts_non_conjugates", "accepts_power_search", "base_k_value",
    "long_witness_language", "quo_enumerate",
    "Morphism", "PowerInstance", "ShiftInstance", "binary_morphism",
    "binary_one_step_language", "block_morphism",
    "general_shift_restrict", "one_step_language", "recode_binary",
    "rewrite_to_shift", "shift_search", "shift_search_at", "shift_to_power",
    "RewritingSystem", "TmRun", "TuringMachine", "one_step",
    "one_step_labeled", "reachable", "replay_derivation",
    "rewrite_power_search", "tm_run", "tm_to_rewriting",
    "are_conjugates", "commutes", "convolve", "primitive_root", "project",
    "__version__",
]
