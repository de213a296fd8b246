import hashlib
import io
import os
import subprocess
import sys

import pytest

import wordshift
from wordshift.cli import main

AB_SYSTEM = "alphabet: a b\nrule: a -> b\n"

HALT_TM = """\
tm-states: q0 qf
tm-tape: B
tm-blank: B
tm-start: q0
tm-final: qf
tm-delta: q0 B -> qf B R
"""

TWO_WORDS = """\
alphabet: a b
states: 0 1 2 3
start: 0
finals: 2
trans: 0 a 1
trans: 1 b 2
trans: 0 b 3
trans: 3 a 2
"""

LONG_SHIFT = ("alphabet: a|a a|c c|a c|c\n"
              "states: 0 1 2 3\nstart: 0\nfinals: 3\n"
              "trans: 0 a|c 1\ntrans: 1 c|c 2\ntrans: 2 c|a 3\n")


@pytest.fixture
def run(capsys, monkeypatch, tmp_path):
    def invoke(*argv, stdin=None):
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    invoke.write = write
    return invoke


def record(out):
    fields = {}
    for line in out.splitlines():
        if ":" in line and not line.startswith("#"):
            key, _, value = line.partition(":")
            fields[key.strip()] = value.strip()
    return fields


def test_usage_error_exits_1(run):
    code, _out, err = run("lang", "nonsense-op")
    assert code == 1 and "wordshift" in err


def test_parse_error_exits_1(run):
    path = run.write("bad.aut", "alphabet: a\nstates: x\n")
    code, _out, err = run("lang", "complement", path)
    assert code == 1 and "2" in err


def test_missing_file_exits_1(run):
    code, _out, err = run("oracle", "membership", "/nonexistent.aut", "a")
    assert code == 1 and "cannot read" in err


def test_membership_and_exit_codes(run):
    path = run.write("m.aut", TWO_WORDS)
    code, out, _ = run("oracle", "membership", path, "ab")
    assert code == 0 and record(out)["verdict"] == "yes"
    code, out, _ = run("oracle", "membership", path, "aa")
    assert code == 0 and record(out)["verdict"] == "no"


def test_unknown_exits_2(run):
    path = run.write("empty.rs", "alphabet: a b\n")
    code, out, _ = run("search", "rewrite-power", path, "--max-n", "3")
    assert code == 2
    fields = record(out)
    assert fields["verdict"] == "unknown" and fields["bound"] == "3"


def test_rewrite_power_single_rule(run):
    path = run.write("ab.rs", AB_SYSTEM)
    code, out, _ = run("search", "rewrite-power", path, "--max-n", "3")
    assert code == 0 and record(out)["witness-n"] == "1"


def test_alphabet_order_override(run):
    path = run.write("m.aut", TWO_WORDS)
    code, out, _ = run("lang", "lexleast", path, "--alphabet-order", "ba")
    assert code == 0 and "alphabet: b a" in out
    lex_path = run.write("lex.aut", out)
    code, out, _ = run("oracle", "membership", lex_path, "ba")
    assert record(out)["verdict"] == "yes"
    code, out, _ = run("oracle", "membership", lex_path, "ab")
    assert record(out)["verdict"] == "no"


def test_tm_pipeline_through_stdin(run):
    tm_path = run.write("halt.tm", HALT_TM)
    code, out, _ = run("reduce", "tm-to-rewrite", tm_path)
    assert code == 0 and out.startswith("#")
    code, out2, _ = run("search", "rewrite-power", "-", "--max-n", "5", stdin=out)
    assert code == 0
    fields = record(out2)
    assert fields["verdict"] == "yes" and fields["witness-n"] == "3"
    assert fields["witness-derivation"].startswith("aaa =>")


def test_oracle_reachable(run):
    path = run.write("ab.rs", AB_SYSTEM)
    code, out, _ = run("oracle", "reachable", path, "aaa", "bbb")
    assert code == 0 and record(out)["verdict"] == "yes"
    code, out, _ = run("oracle", "reachable", path, "ab", "aa")
    assert code == 0
    fields = record(out)
    assert fields["verdict"] == "no" and fields["note"] == "exhaustive"


def test_lang_subcommands(run):
    path = run.write("m.aut", TWO_WORDS)
    code, out, _ = run("lang", "lexleast", path)
    assert code == 0 and "alphabet: a b" in out
    lex_path = run.write("lex.aut", out)
    code, out, _ = run("lang", "subset", lex_path, path)
    assert code == 0 and record(out)["verdict"] == "yes"
    code, out, _ = run("lang", "subset", path, lex_path)
    fields = record(out)
    assert fields["verdict"] == "no" and fields["counterexample"] == "ba"
    code, out, _ = run("lang", "cyc", path)
    assert code == 0
    code, out, _ = run("lang", "product", "difference", path, path)
    assert code == 0
    code, out, _ = run("lang", "complement", path)
    assert code == 0


def test_check_subcommands(run):
    path = run.write("m.aut", TWO_WORDS)
    code, out, _ = run("check", "non-conjugates", path)
    assert code == 0 and record(out)["verdict"] == "no"
    code, out, _ = run("check", "distinct-conjugates", path)
    assert code == 0
    fields = record(out)
    assert fields["verdict"] == "yes"
    assert sorted((fields["witness-uv"], fields["witness-vu"])) == ["ab", "ba"]


def test_gen_then_check_pipeline(run):
    code, out, _ = run("gen", "lt", "1")
    assert code == 0
    path = run.write("lt1.dfa", out)
    code, out, _ = run("check", "distinct-conjugates", path)
    assert code == 0
    fields = record(out)
    assert fields["verdict"] == "yes"
    assert len(fields["witness-u"]) == 3 and len(fields["witness-v"]) == 4


def test_shift_pipeline(run):
    rs_path = run.write("ab.rs", AB_SYSTEM)
    code, out, _ = run("reduce", "rewrite-to-shift", rs_path)
    assert code == 0
    shift_path = run.write("shift.aut", out)
    code, out, _ = run("search", "shift", shift_path, "--max-len", "6")
    assert code == 0
    fields = record(out)
    assert fields["witness-x"] == "_d0,a,_d0,b,_d0" and fields["witness-n"] == "2"
    code, out, _ = run("reduce", "shift-to-power", shift_path)
    assert code == 0 and "k=4" in out.splitlines()[0]
    power_path = run.write("power.aut", out)
    code, out, _ = run("search", "power", power_path, "--base", "4",
                       "--max-len", "14")
    assert code == 0 and record(out)["verdict"] == "yes"


def test_check_long_shift(run):
    path = run.write("ls.aut", LONG_SHIFT)
    code, out, _ = run("check", "long-shift", path)
    assert code == 0
    fields = record(out)
    assert fields["verdict"] == "yes" and fields["witness-x"] == "a"
    # with no start line there is no start state, so no witness
    path = run.write("nostart.aut", LONG_SHIFT.replace("start: 0\n", ""))
    code, out, _ = run("check", "long-shift", path)
    assert code == 0 and record(out)["verdict"] == "no"


def test_restrict_general_shift(run):
    text = ("alphabet: a|a a|c c|a c|c\n"
            "states: 0 1\nstart: 0\nfinals: 1\n"
            "trans: 0 a|a 1\n")
    path = run.write("g.aut", text)
    code, out, _ = run("reduce", "restrict-general-shift", path)
    assert code == 0 and "diagonal-hit=yes" in out.splitlines()[0]


def test_recode_binary_emits_binary_pairs(run):
    rs_path = run.write("ab.rs", AB_SYSTEM)
    code, out, _ = run("reduce", "recode-binary", rs_path)
    assert code == 0
    assert "alphabet: 1|1 1|0 0|1 0|0" in out


def test_outputs_are_deterministic(run):
    rs_path = run.write("ab.rs", AB_SYSTEM)
    outputs = set()
    for _ in range(2):
        code, out, _ = run("reduce", "rewrite-to-shift", rs_path)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_timing_flag_adds_line(run):
    path = run.write("m.aut", TWO_WORDS)
    _, out, _ = run("oracle", "membership", path, "ab")
    assert "elapsed-ms" not in out
    _, out, _ = run("--timing", "oracle", "membership", path, "ab")
    assert "elapsed-ms" in out


def test_emitted_automata_reparse_canonically(run):
    rs_path = run.write("ab.rs", AB_SYSTEM)
    _, out, _ = run("reduce", "rewrite-to-shift", rs_path)
    from wordshift.formats import format_automaton, parse_automaton
    body = "\n".join(line for line in out.splitlines()
                     if not line.startswith("#")) + "\n"
    assert format_automaton(parse_automaton(out)) == body


def test_jobs_flag_matches_serial(run):
    tm_path = run.write("halt.tm", HALT_TM)
    _, system_text, _ = run("reduce", "tm-to-rewrite", tm_path)
    rs_path = run.write("halt.rs", system_text)
    _, serial, _ = run("search", "rewrite-power", rs_path, "--max-n", "4")
    _, parallel, _ = run("search", "rewrite-power", rs_path, "--max-n", "4",
                         "--jobs", "2")
    assert serial == parallel


# State ids are breadth-first discovery order with labels in alphabet order;
# these digests pin that numbering in whole emitted records.
GOLDEN_SHA256 = {
    "lang lexleast": "b0e225dcce2f183c242696fa09ca1ef4c659400f221c3cc95929f4f186043591",
    "lang cyc": "d16cdda9ecbc738a97dd26b5840b64dd43983cf085c831e999f2e94dbb02e5fa",
    "lang product difference": "7d029f219ff237aaeb5e61756ca678236f06746c50ee8436a085aef322b52f65",
    "gen lt 2": "97289245c02e1bda0e8e5051d38d79d2334f7caf6798555f252cf2b239f9d079",
    "reduce restrict-general-shift": "9672e495799d68076632c308ccf63d69cb54e728bcb0a7adf1f94c810857ba3d",
    "reduce rewrite-to-shift": "942bf2be4d5f2a12dc164f672081ab40e71cef3abbe8a1804b4551dd1012d484",
    "reduce recode-binary": "387e7c9b6bbe6b92788abaf3fa5babab69e35416588dede47753ea0ee387841d",
    "reduce shift-to-power": "6a7dd18a8e3a6a30e829b911c8964a97f82b1b1ff297233683a7eacac74542c6",
    "check long-shift": "4ccf9a063014ec15ea0fdb877967865587882f45a6392f1b5fefeb2957932d89",
    "search rewrite-power --max-n 5": "c20636f3a59025b77a3f539b22eb2ffae51f5c717626d27924cec07b913bacfe",
    "oracle reachable aaa bbb": "2f625d0db147b8a3a908dfd2bcd5b4e6ea4060a51172bd5903bb238190885c5b",
    "oracle reachable ab aa": "e6c4bcd36814ba3fcc306cd442b6f4c8bac5eb0482c13e413434f333132a7bb2",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_SHA256))
def test_golden_output(run, command):
    words = command.split()
    if words[0] == "lang":
        path = run.write("m.aut", TWO_WORDS)
        argv = words + [path] * (2 if words[1] == "product" else 1)
    elif words[1] in ("rewrite-to-shift", "recode-binary"):
        argv = words + [run.write("ab.rs", AB_SYSTEM)]
    elif words[0] == "reduce":
        _, shift, _ = run("reduce", "rewrite-to-shift", run.write("ab.rs", AB_SYSTEM))
        argv = words + [run.write("shift.aut", shift)]
    elif words[0] == "check":
        argv = words + [run.write("ls.aut", LONG_SHIFT)]
    elif words[0] == "search":
        _, system, _ = run("reduce", "tm-to-rewrite", run.write("halt.tm", HALT_TM))
        argv = words + [run.write("halt.rs", system)]
    elif words[0] == "oracle":
        argv = words[:2] + [run.write("ab.rs", AB_SYSTEM)] + words[2:]
    else:
        argv = words
    code, out, _ = run(*argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[command], out


def test_jobs_clamped_and_rejected(run, monkeypatch):
    sizes = []

    class RecordingPool:
        """Stands in for the process pool: records its size, maps serially."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    path = run.write("ab.rs", AB_SYSTEM)
    _, serial, _ = run("search", "rewrite-power", path, "--max-n", "5")
    code, out, _ = run("search", "rewrite-power", path, "--max-n", "5",
                       "--jobs", "1000000")
    assert code == 0 and out == serial
    run("search", "rewrite-power", path, "--max-n", "2", "--jobs", "1000000")
    assert sizes == [3, 2]
    for jobs in ("0", "-4"):
        code, out, err = run("search", "rewrite-power", path, "--max-n", "5",
                             "--jobs", jobs)
        assert code == 1 and out == "" and err.startswith("wordshift:")
    code, out, err = run("search", "rewrite-power", path, "--max-n", "5",
                         "--letters", "a", "z", "--jobs", "2")
    assert (code, out) == (1, "")
    assert err == "wordshift: a and b must be alphabet atoms\n"
    assert sizes == [3, 2]


def test_import_leaves_process_pool_unloaded():
    # Only --jobs > 1 needs concurrent.futures; every CLI process imports cli.
    src = os.path.dirname(os.path.dirname(wordshift.__file__))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, wordshift.cli; print('concurrent.futures' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
