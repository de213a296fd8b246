"""wordshift benchmark: time-to-verdict on four seeded workloads.

    python3 bench/run.py --workload nonconj --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --table --seed 1 --seconds 25

Run from the root of a checkout; wordshift is imported from ``src/``.  One
process is the single closed-loop client: it runs whole passes over the
seeded pool of instances, one at a time, until ``--seconds`` of timed work
have been done.  Every answer is checked against the oracle after its timed
span.  The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``--table`` runs
every workload in its own process and prints one row of end-to-end metrics
per workload.

``setup_s`` is the median over seven fresh processes of the time from process
start to the point where the first instance could be timed: interpreter
start, ``import wordshift``, loading and selecting the pool, writing input
files and building the instances.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

WORKLOAD_NAMES = ("nonconj", "distconj", "halting", "cli")
INSTANCE_LIMIT_S = 20
ADDRESS_SPACE_CAP = 2 << 30
SETUP_PROBES = 7
REFERENCE_S = 0.008
REFERENCE_EVERY_S = 0.1

END_TO_END = [("setup_s", "s"), ("instances_per_s", "1/s"), ("verdict_ms_p50", "ms"),
              ("verdict_ms_p90", "ms"), ("solved_share", "ratio"), ("peak_rss_mb", "MB")]


class InstanceTimeout(Exception):
    pass


_timed = [False]  # set while an instance runs, so a late alarm raises nowhere else


def _alarm(_signum, _frame):
    if _timed[0]:
        raise InstanceTimeout(f"over the {INSTANCE_LIMIT_S} s instance limit")


def import_wordshift():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "wordshift", "__init__.py")):
        raise SystemExit(f"bench: no wordshift sources under {src}")
    sys.path.insert(0, src)
    import wordshift
    if not os.path.abspath(wordshift.__file__).startswith(src + os.sep):
        raise SystemExit(f"bench: imported wordshift from {wordshift.__file__}, not {src}")


def setup(name, seed):
    """Everything before the first timed instance."""
    import_wordshift()
    import workloads
    pool = workloads.select_pool(workloads.load_catalogue(name), seed)
    if name == "cli":
        workload = workloads.Cli(ROOT, os.path.join(BENCH_DIR, "out", f"cli-{os.getpid()}"),
                                 INSTANCE_LIMIT_S)
        workload.write_files(pool)
    else:
        workload = workloads.WORKLOADS[name]()
    return workload, pool, [workload.build(entry) for entry in pool]


def cleanup(workload):
    if hasattr(workload, "workdir"):
        shutil.rmtree(workload.workdir, ignore_errors=True)


def reference_s():
    """Seconds taken by a fixed pure-Python task: hashing a few thousand
    small frozensets into a dict and looking them up again, the kind of
    work a subset construction does.  Sampled between instances, it tracks
    the speed the machine gives this process at that moment."""
    started = time.perf_counter()
    table = {}
    for i in range(2500):
        table[frozenset(range(i % 97, i % 97 + 6 + i % 5)) | {i}] = i
    for i in range(2500):
        table.get(frozenset(range(i % 97, i % 97 + 6 + i % 5)) | {i})
    return time.perf_counter() - started


def scale_to_reference(times, marks, references):
    """Each time multiplied by REFERENCE_S over the mean of the reference
    samples taken just before and just after it; ``marks[i]`` is the index
    of the last reference sample taken before ``times[i]``."""
    return [t * 2 * REFERENCE_S / (references[m] + references[m + 1])
            for t, m in zip(times, marks)]


def probe_setup(name, seed):
    """Seconds from spawning a fresh process to the end of its setup."""
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--probe",
                             "--workload", name, "--seed", str(seed)],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - started
    finally:
        proc.stdout.close()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"bench: setup probe failed with exit code {code}")
    return seconds


def run_instance(workload, entry, inp, execute):
    """Time one instance under the limits, then check its answer.
    Returns (seconds, failure or None).  A collection first leaves no
    garbage from earlier instances to be collected inside this one."""
    gc.collect()
    error = None
    signal.setitimer(signal.ITIMER_REAL, INSTANCE_LIMIT_S)
    _timed[0] = True
    started = time.perf_counter()
    try:
        result = execute(workload, inp)
    except (InstanceTimeout, MemoryError, subprocess.TimeoutExpired) as exc:
        error = f"{entry['id']}: {type(exc).__name__}: {exc}"
    except Exception as exc:  # any raise from the library is a failed instance
        error = f"{entry['id']}: raised {type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - started
        _timed[0] = False
        signal.setitimer(signal.ITIMER_REAL, 0)
    if error is None:
        error = workload.check(entry, result)
    if error:
        error = f"{error} [oracle: {json.dumps(entry['expect'])[:300]}]"
    return elapsed, error


def run_passes(workload, pool, built, seconds, execute):
    """Whole passes over the pool until ``seconds`` of timed work are done.
    A reference sample is taken before the first instance, between
    instances after every REFERENCE_EVERY_S of timed work, and after the
    last one.  Returns (scaled latencies, failures)."""
    latencies, marks, failures, references = [], [], [], []
    since_reference = REFERENCE_EVERY_S
    while sum(latencies) < seconds or not latencies:
        for entry, inp in zip(pool, built):
            if since_reference >= REFERENCE_EVERY_S:
                references.append(reference_s())
                since_reference = 0.0
            elapsed, error = run_instance(workload, entry, inp, execute)
            since_reference += elapsed
            latencies.append(elapsed)
            marks.append(len(references) - 1)
            if error:
                failures.append(error)
    references.append(reference_s())
    return scale_to_reference(latencies, marks, references), failures


def end_to_end(name, seed, seconds):
    probes, references = [], [reference_s()]
    for _ in range(SETUP_PROBES):
        probes.append(probe_setup(name, seed))
        references.append(reference_s())
    setup_s = statistics.median(scale_to_reference(probes, range(SETUP_PROBES), references))
    workload, pool, built = setup(name, seed)
    gc.freeze()  # the catalogue and built inputs are not the library's garbage
    try:
        latencies, failures = run_passes(workload, pool, built, seconds,
                                         lambda w, inp: w.run(inp))
    finally:
        cleanup(workload)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if name == "cli":
        rss_kb = max(rss_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    ms = [s * 1000 for s in latencies]
    p90 = statistics.quantiles(ms, n=10)[8]
    beyond = sum(1 for v in ms if v > p90)
    if beyond < 10:
        print(f"bench: only {beyond} samples above p90; run longer", file=sys.stderr)
    metrics = {"setup_s": setup_s, "instances_per_s": len(ms) * 1000 / sum(ms),
               "verdict_ms_p50": statistics.median(ms), "verdict_ms_p90": p90,
               "solved_share": 1 - len(failures) / len(ms), "peak_rss_mb": rss_kb / 1024}
    print(f"{name}: {len(pool)} instances in the pool, {len(ms)} timed, "
          f"{beyond} above p90, {len(failures)} failed")
    return len(ms), failures, {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}


def import_ms():
    """Median over three fresh interpreters of the time to import wordshift.cli."""
    code = ("import time; t = time.perf_counter(); import wordshift.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout) * 1000
        for _ in range(3))


def traced(name, seed, seconds):
    """Per-layer metrics.  Every instance runs untraced and then traced,
    back to back, so both see the same machine; passes repeat until the
    untraced runs reach half of ``seconds``.  The tracing overhead compares
    the two."""
    import tracing
    workload, pool, built = setup(name, seed)
    execute = (lambda w, inp: w.run_in_process(inp)) if name == "cli" else \
        (lambda w, inp: w.run(inp))
    gc.freeze()
    tracer = tracing.Tracer()
    plain, traced_latencies, failures, references = [], [], [], []
    try:
        while sum(plain) < seconds / 2:
            for entry, inp in zip(pool, built):
                if sum(plain) >= len(references) * REFERENCE_EVERY_S:
                    references.append(reference_s())
                elapsed, error = run_instance(workload, entry, inp, execute)
                plain.append(elapsed)
                failures += [error] if error else []
                tracer.instance = len(traced_latencies)
                tracer.install()
                try:
                    elapsed, error = run_instance(workload, entry, inp, execute)
                finally:
                    tracer.uninstall()
                    tracer.reset_stack()
                traced_latencies.append(elapsed)
                failures += [error] if error else []
    finally:
        cleanup(workload)
    factor = REFERENCE_S / statistics.mean(references)
    plain_ips = len(plain) / sum(plain) / factor
    traced_ips = len(traced_latencies) / sum(traced_latencies) / factor
    metrics = tracer.metrics(len(traced_latencies), factor)
    metrics["cli.import.ms"] = import_ms() * factor if name == "cli" else 0.0
    metrics["trace.instances_per_s_untraced"] = plain_ips
    metrics["trace.instances_per_s_traced"] = traced_ips
    metrics["trace.overhead_share"] = 1 - traced_ips / plain_ips
    spans = os.path.join(BENCH_DIR, "out", f"spans-{name}-{seed}.tsv")
    tracer.write(spans)
    print(f"{name}: {len(tracer.starts)} spans written to {os.path.relpath(spans, ROOT)}")
    return len(plain) + len(traced_latencies), failures, {
        k: {"value": metrics[k], "unit": u} for k, u in tracing.PER_LAYER}


def table(seed, seconds):
    """One row of end-to-end metrics per workload, each run in its own process."""
    print("workload  " + "  ".join(f"{k} [{u}]" for k, u in END_TO_END) + "  attempted  failed")
    ok = True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name}: failed with exit code {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        print(f"{name:9s} " + "  ".join(f"{result['metrics'][k]['value']:.4g}"
                                        for k, _u in END_TO_END)
              + f"  {result['attempted']}  {result['failed']}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--table", action="store_true", help="run every workload")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.table:
        return table(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    signal.signal(signal.SIGALRM, _alarm)
    if args.probe:
        workload = setup(args.workload, args.seed)[0]
        print("ready", flush=True)
        cleanup(workload)
        return 0
    run = traced if args.trace else end_to_end
    attempted, failures, metrics = run(args.workload, args.seed, args.seconds)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
