"""leonard-kit benchmark driver.

usage: python3 bench/run.py --deadline SECONDS --workload NAME --seed N
                            --seconds SECONDS --trace 0|1

Builds the workload's corpus from the seed, then runs it as a closed
loop with one client: each command in a fresh child process, one at a
time, killed at the deadline.  Passes over the corpus repeat for
--seconds, and at least until MIN_SAMPLES commands have run.  Every
report is checked by ``checks``, which does not use the library.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each command
untraced and then traced, and prints the per-layer metrics of the traced
runs.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import corpus
from spans import merge, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_SAMPLES = 80
SETUPS = 5


def tail_percentile(n):
    """Highest whole percentile whose nearest-rank sample has at least
    ten of the n samples beyond it."""
    return max(p for p in range(1, 100) if n - math.ceil(p * n / 100) >= 10)


TAIL = tail_percentile(MIN_SAMPLES)

# Per-layer metrics: (span name, fields) read from the traced spans.
LAYERS = (
    ("linalg.charpoly", ("s", "calls", "max_bits")),
    ("linalg.matmul", ("s", "calls")),
    ("linalg.kernel", ("s", "calls")),
    ("linalg.inverse", ("s", "calls")),
    ("linalg.represent_in_basis", ("s",)),
    ("linalg.subspace", ("s",)),
    ("linalg.simple_rational_eigen", ("self_s",)),
    ("leonard.verify_leonard", ("s", "self_s", "calls")),
    ("flags.standard_flag_set", ("s", "calls")),
    ("flags.induced_flag", ("s",)),
    ("flags.are_opposite", ("s",)),
    ("flags.decomposition_from_flags", ("s",)),
    ("split.split_type", ("s", "calls")),
    ("split.split_type_via_flags", ("s",)),
    ("adjacency.are_adjacent", ("s", "calls")),
    ("adjacency.are_adjacent_via_flags", ("s",)),
    ("adjacency.build_labeling", ("s",)),
    ("adjacency.verify_transition_identity", ("s",)),
    ("adjacency.classify_dichotomy", ("s",)),
    ("adjacency.check_mutually_adjacent", ("s",)),
    ("sl2.three_mutually_adjacent", ("self_s",)),
    ("sl2.companions", ("self_s",)),
    ("sl2.krawtchouk_normal_form", ("s", "calls")),
    ("sequences.classify_sequence", ("s", "calls")),
)
FIELD_UNITS = {"s": "s", "self_s": "s", "calls": "count", "max_bits": "bits"}
EXTRA_UNITS = {
    "leonard.verify_per_cmd": "calls/cmd",
    "flags.standard_flag_set.misses": "count",
    "jsonio.parse_s": "s",
    "jsonio.emit_s": "s",
    "jsonio.report_bytes": "bytes",
    "cli.s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.reports_changed": "count",
    "trace.overhead_s": "s",
}
END_TO_END_UNITS = {
    "run_s": "s",
    "cmd_p50_s": "s",
    f"cmd_p{TAIL}_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_units():
    units = {f"{name}.{f}": FIELD_UNITS[f] for name, fields in LAYERS for f in fields}
    units.update(EXTRA_UNITS)
    return units


@dataclass
class Result:
    wall: float
    code: int
    stdout: bytes
    stderr: str
    killed: bool
    trace: dict | None = None


def spawn(cmd, cwd, deadline):
    """Run one process, wait for it or kill it at the deadline, and reap it."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=deadline)
        killed = False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        killed = True
    wall = deadline if killed else time.perf_counter() - start
    return Result(wall, proc.returncode, out, err.decode("utf-8", "replace"), killed)


def run_child(argv, cwd, deadline, trace_file=None):
    """One leonard-kit command through child.py, with its spans when traced."""
    cmd = [sys.executable, str(BENCH / "child.py"), str(SRC), str(trace_file or "-"), *argv]
    result = spawn(cmd, cwd, deadline)
    if trace_file is not None and Path(trace_file).is_file():
        result.trace = json.loads(Path(trace_file).read_text(encoding="utf-8"))
    return result


def nearest_rank(values, p):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def write_corpus(commands, directory):
    """One directory per command holding the files it reads."""
    dirs = []
    for index, cmd in enumerate(commands):
        path = directory / f"c{index:03d}"
        path.mkdir(parents=True)
        for name, body in cmd.files.items():
            (path / name).write_text(body, encoding="utf-8")
        dirs.append(path)
    return dirs


def set_up(workload, seed, work, deadline):
    """Generate and write the corpus, then warm up with its first
    command; repeated SETUPS times, the median reported."""
    times = []
    for k in range(SETUPS):
        start = time.perf_counter()
        commands = corpus.build(workload, seed)
        dirs = write_corpus(commands, work / f"setup{k}")
        run_child(commands[0].argv, dirs[0], deadline)
        times.append(time.perf_counter() - start)
    return commands, dirs, statistics.median(times)


def run_pass(commands, dirs, deadline):
    """The corpus once; its time runs from the first spawn to the last exit."""
    start = time.perf_counter()
    results = [run_child(cmd.argv, path, deadline) for cmd, path in zip(commands, dirs)]
    return time.perf_counter() - start, results


def run_paired_pass(commands, dirs, deadline, trace_dir):
    """Each command untraced and then traced, so that both passes see the
    same machine load; each pass's time is the sum of its commands."""
    plain, traced = [], []
    for i, (cmd, path) in enumerate(zip(commands, dirs)):
        plain.append(run_child(cmd.argv, path, deadline))
        traced.append(run_child(cmd.argv, path, deadline, trace_dir / f"t{i:03d}.json"))
    return (sum(r.wall for r in plain), plain), (sum(r.wall for r in traced), traced)


def failure(cmd, result, deadline):
    """Why one execution failed, or None."""
    if result.killed:
        return f"killed at the {deadline} s deadline"
    if "Traceback" in result.stderr:
        return "crashed: " + result.stderr.strip().splitlines()[-1]
    if result.code != cmd.expect:
        return f"exit {result.code}, expected {cmd.expect}"
    try:
        report = json.loads(result.stdout)
    except ValueError:
        return "stdout is not one JSON report"
    try:
        return cmd.check(report)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return f"malformed report: {exc!r}"


def check_all(commands, passes, deadline):
    """Failure reasons of every execution; identical outputs are checked once."""
    seen = {}
    reasons = []
    for _, results in passes:
        for i, (cmd, result) in enumerate(zip(commands, results)):
            key = (i, result.killed, result.code, result.stdout, "Traceback" in result.stderr)
            if key not in seen:
                seen[key] = failure(cmd, result, deadline)
            if seen[key]:
                reasons.append(f"{cmd.key}: {seen[key]}")
    return reasons


def end_to_end(passes, setup_s):
    walls = [r.wall for _, results in passes for r in results]
    return {
        "run_s": statistics.median(t for t, _ in passes),
        "cmd_p50_s": statistics.median(walls),
        f"cmd_p{TAIL}_s": nearest_rank(walls, TAIL),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def layer_values(commands, results, digests):
    """Per-layer metrics of one traced pass."""
    totals = {}
    import_s = 0.0
    misses = 0
    for result in results:
        if result.trace:
            merge(totals, summarize(result.trace["spans"]))
            import_s += result.trace["import_s"]
            misses += result.trace["flag_set_misses"]

    def get(name, field):
        return totals.get(name, {}).get(field, 0)

    values = {f"{name}.{f}": get(name, f) for name, fields in LAYERS for f in fields}
    values.update(
        {
            "leonard.verify_per_cmd": get("leonard.verify_leonard", "calls") / len(commands),
            "flags.standard_flag_set.misses": misses,
            "jsonio.parse_s": get("jsonio.parse", "s"),
            "jsonio.emit_s": get("jsonio.emit", "s"),
            "jsonio.report_bytes": sum(len(r.stdout) for r in results),
            "cli.s": get("cli", "s"),
            "cli.import_s": import_s,
            "cli.self_s": get("cli", "self_s"),
            "cli.reports_changed": sum(
                digests.get(cmd.key) != hashlib.sha256(r.stdout).hexdigest()
                for cmd, r in zip(commands, results)
            ),
        }
    )
    return values


def measure(commands, dirs, deadline, seconds, work, traced):
    """Passes until --seconds is used, at least enough for MIN_SAMPLES;
    with tracing, paired untraced and traced passes."""
    plain, with_trace = [], []
    min_passes = 1 if traced else math.ceil(MIN_SAMPLES / len(commands))
    start = time.perf_counter()
    while True:
        if traced:
            trace_dir = work / f"trace{len(with_trace)}"
            trace_dir.mkdir()
            untraced_pass, traced_pass = run_paired_pass(commands, dirs, deadline, trace_dir)
            plain.append(untraced_pass)
            with_trace.append(traced_pass)
            round_s = untraced_pass[0] + traced_pass[0]
        else:
            plain.append(run_pass(commands, dirs, deadline))
            round_s = plain[-1][0]
        elapsed = time.perf_counter() - start
        if len(plain) >= min_passes and elapsed + round_s > seconds:
            return plain, with_trace


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--deadline", type=float, required=True, help="per-command kill deadline")
    args = parser.parse_args(argv)
    if not (SRC / "leonard_kit" / "cli.py").is_file():
        print(f"error: no leonard_kit sources under {SRC}", file=sys.stderr)
        return 2

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        commands, dirs, setup_s = set_up(args.workload, args.seed, work, args.deadline)
        plain, traced = measure(commands, dirs, args.deadline, args.seconds, work, args.trace)
        if args.trace:
            digests = json.loads((BENCH / "digests.json").read_text())[args.workload]
            per_pass = [layer_values(commands, results, digests) for _, results in traced]
            values = {k: statistics.median(v[k] for v in per_pass) for k in per_pass[0]}
            values["trace.overhead_s"] = statistics.median(
                t - u for (t, _), (u, _) in zip(traced, plain)
            )
            units = per_layer_units()
        else:
            values = end_to_end(plain, setup_s)
            units = END_TO_END_UNITS
        passes = plain + traced
        reasons = check_all(commands, passes, args.deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(results) for _, results in passes)
    for reason in sorted(set(reasons)):
        print(f"FAILED {reason}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {len(commands)} commands, {len(plain)} untraced "
        f"and {len(traced)} traced passes, {attempted} samples, tail p{TAIL}",
        file=sys.stderr,
    )
    result = {
        "correct": not reasons,
        "attempted": attempted,
        "failed": len(reasons),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
