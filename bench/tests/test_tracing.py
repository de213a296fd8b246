"""Self-time arithmetic and the wrapping of wordshift bindings."""
import pytest

import tracing


def test_self_time_on_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6], which overlap, and c
    # [9, 12], which runs past the root; a has the grandchild g [1.5, 2].
    starts = [0.0, 1.0, 1.5, 3.0, 9.0]
    ends = [10.0, 4.0, 2.0, 6.0, 12.0]
    parents = [-1, 0, 1, 0, 0]
    own = tracing.self_times(starts, ends, parents)
    assert own == pytest.approx([10 - 5 - 1, 3 - 0.5, 0.5, 3.0, 3.0])


def test_tracer_records_bindings_and_restores_them():
    from wordshift import automata, procedures
    original = procedures.determinize
    m = automata.Dfa(("a", "b"), range(2), 0, {0},
                     {(0, "a"): 0, (0, "b"): 1, (1, "a"): 1, (1, "b"): 1})
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert procedures.accepts_non_conjugates(m).verdict == "no"
    finally:
        tracer.uninstall()
    assert procedures.determinize is original
    names = [tracer.names[i] for i in tracer.span_name]
    assert names[0] == "procedures.accepts_non_conjugates"
    det = names.index("automata.determinize")
    assert tracer.parent_name(det) == "procedures.accepts_non_conjugates"
    metrics = tracer.metrics(1)
    assert metrics["automata.determinize.calls"] == 1
    assert metrics["langops.lexleast.states"] > 0
