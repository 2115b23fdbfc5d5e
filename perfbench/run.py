"""The simplepa benchmark: three closed-loop workloads over the ``pa`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/`` and exits with status 2, printing no result, when that is absent.
One client sends one op at a time and waits for its answer.

check-n4   ``pa check --n 4`` in a fresh interpreter: the verification
           verdict users wait for and the acceptance gate.  Nearly all of
           it is exact vertex verification (``geometry.verify_vertex``)
           plus the rewrite-graph regularity checks.
census-n5  ``pa faces --n 5 --dim 2 --classify --out FILE`` in a fresh
           interpreter: the combinatorics-only path (face enumeration,
           2-face classification, JSON encoding) with no Fraction
           arithmetic, so it bypasses the verification hot path.
lookup-n7  One long-lived interpreter answers ``pa bracketing --n 7
           --max-n 7 --parse TEXT`` through ``simplepa.cli.main``, one
           seeded random bracketing per op.  The first lookup builds the
           118,974-row facet table and counts as set-up.

Every op's output is checked against facts computed here, independently
of the package; a failed check counts in ``failed``.  ``--trace 0``
reports the end-to-end metrics: op time p50/p90, set-up time and the peak
RSS of the working process alone (``os.wait4`` on a fresh interpreter, or
the lookup worker's own ``getrusage``).
``--trace 1`` runs the same work once untraced and once with every public
simplepa function wrapped (see ``tracer.py``) and reports the per-layer
span totals and the tracing overhead.  The last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = [sys.executable, os.path.join(HERE, "child.py")]

# Every run stops its children by this deadline, so it ends within 180 s.
RUN_DEADLINE_S = 170.0
SETUP_REPEATS = 15  # fresh-interpreter imports timed per run
LOOKUP_SETUP_REPEATS = 3  # lookup workers started (and warmed up) per run
TRACE_LOOKUPS = 200  # stream lookups after the warm-up in a traced run
# The lookup worker's memory grows with every distinct vertex it caches, so
# its peak RSS is read after a fixed number of stream lookups, which every
# run completes, rather than after however many fit in --seconds.
RSS_AT_LOOKUPS = 2000

# census-n5 output at the benchmark's first commit; byte-identical output
# is a project rule, so any change to it is a failure.
CENSUS_N5_SHA256 = "6168b7d4002112ee2f7d0ebc2f22c5a51b615ed9344d972c589c5d464c0e8566"
CENSUS_N5 = {
    "pentagon": 20160,
    "quad1": 720,
    "quad4": 19440,
    "quad8": 20160,
    "octagon": 2520,
    "dodecagon": 1680,
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Run:
    """State of one benchmark run: deadline, scratch directory, op tally."""

    def __init__(self, seconds: int, scratch: str):
        self.started = time.perf_counter()
        self.seconds = seconds
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def gate(self, what: str, problems: list[str]) -> bool:
        """Count one checked op; log why it failed, if it did."""
        self.attempted += 1
        if problems:
            self.failed += 1
            log(f"FAILED {what}: " + "; ".join(problems[:5]))
        return not problems


# ---------------------------------------------------------------------------
# child processes

def spawn(run: Run, args: list[str], stdout_path: str) -> tuple[int, float, float]:
    """Run ``child.py ARGS`` to completion with stdout to a file.

    Returns (exit code, wall seconds, peak RSS in MB of that process only).
    The child is killed at the run deadline.
    """
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(CHILD + args, stdout=out, stderr=err, cwd=ROOT)
        killer = threading.Timer(max(run.remaining(), 0.0), proc.kill)
        killer.daemon = True
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stdout_path + ".err", "rb") as handle:
        stderr = handle.read().decode(errors="replace").strip()
    if stderr:
        log(f"child {args[:3]} stderr: {stderr[-500:]}")
    return proc.returncode, wall, usage.ru_maxrss / 1024


class Worker:
    """A long-lived ``child.py serve`` interpreter answering ``pa`` calls."""

    def __init__(self, run: Run, trace_path: str | None = None):
        args = ["serve"] + (["--trace", trace_path] if trace_path else [])
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            CHILD + args,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            text=True,
        )
        self.killer = threading.Timer(max(run.remaining(), 0.0), self.proc.kill)
        self.killer.daemon = True
        self.killer.start()
        if json.loads(self.proc.stdout.readline() or "{}").get("ready") is not True:
            self.proc.kill()
            self.close()
            raise RuntimeError("lookup worker did not start")

    def call(self, argv: list[str]) -> dict:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("lookup worker exited")
        return json.loads(line)

    def close(self) -> None:
        """End the worker and wait for it."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            _, status = os.waitpid(self.proc.pid, 0)
        finally:
            self.killer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# independent output checks

def check_report(text: str, code: int) -> list[str]:
    """``pa check --n 4``: exit 0, ok, and the known counts of PA_4."""
    try:
        report = json.loads(text)
    except ValueError:
        return [f"exit {code}, report is not JSON"]
    problems = []
    if code != 0 or report.get("ok") is not True:
        problems.append(f"exit {code}, ok={report.get('ok')}, failures={report.get('failures')}")
    expected_vertices = math.factorial(8) // math.factorial(4)
    if report.get("vertex_count") != expected_vertices:
        problems.append(f"vertex_count {report.get('vertex_count')} != {expected_vertices}")
    if report.get("facet_count") != 340:
        problems.append(f"facet_count {report.get('facet_count')} != 340")
    fv = report.get("f_vector")
    if fv != [1680, 3360, 2020, 340]:
        problems.append(f"f_vector {fv}")
    elif sum((-1) ** k * f for k, f in enumerate(fv)) != 1 - (-1) ** 4:
        problems.append("f_vector fails the Euler relation")
    return problems


def check_perturbed(text: str, code: int) -> list[str]:
    """The negative control ``pa check --n 3 --perturb`` must fail."""
    try:
        ok = json.loads(text).get("ok")
    except ValueError:
        ok = None
    return [] if code == 1 and ok is False else [f"control exit {code}, ok={ok}"]


def check_census(path: str, code: int) -> tuple[list[str], int]:
    """``pa faces --n 5 --dim 2 --classify``: pinned digest, face count and
    census, read off the indented JSON text without building the document.
    Returns the problems and the face count."""
    if code != 0 or not os.path.exists(path):
        return [f"exit {code}, output missing"], 0
    with open(path, "rb") as handle:
        data = handle.read()
    problems = []
    digest = hashlib.sha256(data).hexdigest()
    if digest != CENSUS_N5_SHA256:
        problems.append(f"sha256 {digest} differs from the pinned output")
    count = re.search(rb'\n  "count": (\d+),', data)
    census = re.search(rb'\n  "census": (\{[^}]*\})', data)
    count = int(count.group(1)) if count else -1
    census = json.loads(census.group(1)) if census else {}
    if count != 64680:
        problems.append(f"count {count} != 64680 (f_2 of PA_5)")
    if census != CENSUS_N5 or sum(census.values()) != count:
        problems.append(f"census {census} != {CENSUS_N5}")
    if data.count(b'\n    {\n      "chains": [') != count:
        problems.append("face entries differ from count")
    for kind, expected in CENSUS_N5.items():
        if data.count(b'"type": "%s"' % kind.encode()) != expected:
            problems.append(f"per-face {kind} tally differs from {expected}")
    return problems, count


def random_bracketing(rng: random.Random, n: int) -> tuple[str, tuple[int, ...], list]:
    """A uniform permutation of 0..n plus a random split tree over it.

    Returns the printed bracketing, the permutation, and the (core, ext)
    label tuples of the chains its vertex must be tight on: one per bracket
    pair spanning positions lo..hi, with core perm[hi:] and ext
    perm[lo+1:hi].
    """
    perm = tuple(rng.sample(range(n + 1), n + 1))
    chains = []

    def build(lo: int, hi: int) -> str:
        if lo == hi:
            return str(perm[lo])
        mid = rng.randrange(lo, hi)
        chains.append((tuple(sorted(perm[hi:])), perm[lo + 1:hi]))
        return f"({build(lo, mid)}*{build(mid + 1, hi)})"

    return build(0, n), perm, chains


def _facet(core: tuple[int, ...], ext: tuple[int, ...], n: int):
    """The facet halfspace of a chain, from the construction's formula:
    coefficient j on the j-th ext label, k on each core label, right-hand
    side (3^(k+l+1) - 3^(l+1))/2 + (3^k - 3k)/(3^n - n - 1) for a chain of
    k sets whose core has l + 1 labels."""
    k, l = len(ext) + 1, len(core) - 1
    coeffs = [0] * (n + 1)
    for position, label in enumerate(ext, start=1):
        coeffs[label] = position
    for label in core:
        coeffs[label] = k
    rhs = Fraction(3 ** (k + l + 1) - 3 ** (l + 1), 2) + Fraction(3**k - 3 * k, 3**n - n - 1)
    return coeffs, rhs


def check_lookup(reply: dict, query, n: int) -> list[str]:
    """``pa bracketing``: round trip, coordinate sum 3^(n+1), and the point
    tight on the facet of every chain of the bracketing."""
    text, perm, chains = query
    if reply["code"] != 0:
        return [f"exit {reply['code']}: {reply['err'].strip()}"]
    try:
        record = json.loads(reply["out"])
        point = [Fraction(x) for x in record["coordinates"]]
        tight = [(tuple(c["core"]), tuple(c["ext"])) for c in record["tight"]]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed record: {exc!r}"]
    problems = []
    if record.get("bracketing") != text or tuple(record.get("permutation", ())) != perm:
        problems.append(f"{text} printed back as {record.get('bracketing')}")
    if sum(point) != 3 ** (n + 1):
        problems.append(f"{text}: coordinates sum to {sum(point)}")
    if sorted(tight) != sorted(chains):
        problems.append(f"{text}: tight chains differ from its bracket pairs")
    for core, ext in chains:
        coeffs, rhs = _facet(core, ext, n)
        if sum(a * x for a, x in zip(coeffs, point)) != rhs:
            problems.append(f"{text}: not tight on chain core={core} ext={ext}")
    return problems


# ---------------------------------------------------------------------------
# workloads

CHECK_ARGS = ["check", "--n", "4"]
CONTROL_ARGS = ["check", "--n", "3", "--perturb"]
LOOKUP_N = 7


def census_args(path: str) -> list[str]:
    return ["faces", "--n", "5", "--dim", "2", "--classify", "--out", path]


def lookup_args(text: str) -> list[str]:
    return ["bracketing", "--n", str(LOOKUP_N), "--max-n", str(LOOKUP_N), "--parse", text]


def subprocess_op(run: Run, name: str, trace_path: str | None = None) -> dict:
    """One checked check-n4 or census-n5 op in a fresh interpreter."""
    stdout_path = os.path.join(run.scratch, "stdout")
    out_path = os.path.join(run.scratch, "faces.json")
    argv = CHECK_ARGS if name == "check-n4" else census_args(out_path)
    prefix = ["op"] + (["--trace", trace_path] if trace_path else [])
    code, wall, rss = spawn(run, prefix + argv, stdout_path)
    with open(stdout_path, encoding="utf-8", errors="replace") as handle:
        text = handle.read()
    if name == "check-n4":
        ok = run.gate("pa check --n 4", check_report(text, code))
        output_bytes, faces2 = len(text.encode()), 0
    else:
        problems, faces2 = check_census(out_path, code)
        ok = run.gate("pa faces --n 5 --dim 2 --classify", problems)
        output_bytes = os.path.getsize(out_path) if os.path.exists(out_path) else 0
        if os.path.exists(out_path):
            os.unlink(out_path)
    return {"ok": ok, "s": wall, "rss_mb": rss, "output_bytes": output_bytes, "faces2": faces2}


def negative_control(run: Run) -> None:
    stdout_path = os.path.join(run.scratch, "control")
    code, _, _ = spawn(run, ["op"] + CONTROL_ARGS, stdout_path)
    with open(stdout_path, encoding="utf-8", errors="replace") as handle:
        run.gate("negative control pa check --n 3 --perturb", check_perturbed(handle.read(), code))


def import_setups(run: Run) -> list[float]:
    """Interpreter start plus ``import simplepa``, timed in fresh processes."""
    times = []
    expected = os.path.join(ROOT, "src", "simplepa", "__init__.py")
    for _ in range(SETUP_REPEATS):
        stdout_path = os.path.join(run.scratch, "import")
        code, wall, _ = spawn(run, ["import"], stdout_path)
        with open(stdout_path, encoding="utf-8") as handle:
            origin = handle.read().strip()
        if code != 0 or os.path.realpath(origin) != os.path.realpath(expected):
            raise RuntimeError(f"simplepa imported from {origin!r}, expected {expected}")
        times.append(wall)
    return times


def lookup_stream(seed: int):
    rng = random.Random(seed)
    while True:
        yield random_bracketing(rng, LOOKUP_N)


def start_lookup_worker(run: Run, warmup, trace_path: str | None = None):
    """Start a worker and answer the warm-up lookup, which fills the facet
    table.  Returns the worker and its set-up time (start to warm answer)."""
    worker = Worker(run, trace_path)
    try:
        reply = worker.call(lookup_args(warmup[0]))
    except BaseException:
        worker.proc.kill()
        worker.close()
        raise
    setup = time.perf_counter() - worker.started
    run.gate(f"warm-up lookup {warmup[0]}", check_lookup(reply, warmup, LOOKUP_N))
    return worker, setup, reply


def lookup_ops(run: Run, worker: Worker, queries, count: int | None) -> list[dict]:
    """Closed loop of lookups: ``count`` of them, or until --seconds pass
    and at least RSS_AT_LOOKUPS are done."""
    replies = []
    stop = time.perf_counter() + run.seconds
    for query in queries:
        if count is None:
            if time.perf_counter() >= stop and len(replies) >= RSS_AT_LOOKUPS:
                break
        elif len(replies) == count:
            break
        reply = worker.call(lookup_args(query[0]))
        reply["ok"] = run.gate(f"lookup {query[0]}", check_lookup(reply, query, LOOKUP_N))
        replies.append(reply)
    return replies


def measure(run: Run, name: str, seed: int) -> dict:
    """The end-to-end metrics of one untraced run."""
    if name == "lookup-n7":
        queries = lookup_stream(seed)
        warmup = next(queries)
        setups = []
        for _ in range(LOOKUP_SETUP_REPEATS - 1):
            worker, setup, _ = start_lookup_worker(run, warmup)
            setups.append(setup)
            worker.close()
        worker, setup, _ = start_lookup_worker(run, warmup)
        setups.append(setup)
        try:
            replies = lookup_ops(run, worker, queries, None)
        finally:
            worker.close()
        rss = [replies[RSS_AT_LOOKUPS - 1]["rss_kb"] / 1024]
        times = [r["s"] for r in replies if r["ok"]]
    else:
        setups = import_setups(run)
        if name == "check-n4":
            negative_control(run)
        stop = time.perf_counter() + run.seconds
        ops = []
        while not ops or time.perf_counter() < stop:
            ops.append(subprocess_op(run, name))
        times = [op["s"] for op in ops if op["ok"]]
        rss = [op["rss_mb"] for op in ops]
    if not times:
        raise RuntimeError("no op succeeded")
    p90 = statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0]
    samples = {"op_s.p50": len(times), "op_s.p90": len(times), "setup_s": len(setups),
               "peak_rss_mb": len(rss)}
    metrics = {
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.p90": (p90, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    for key, (value, unit) in metrics.items():
        print(f"{name} {key} = {value:.6g} {unit} (samples: {samples[key]})")
    print(f"{name} op_s.p90: {sum(t > p90 for t in times)} samples above it")
    print(f"{name} ops_failed = {run.failed}/{run.attempted}")
    return metrics


# ---------------------------------------------------------------------------
# the traced run

# Per-layer metrics: (metric name, unit).  Span metrics are
# "<module>.<function>.<field>" with field calls, s (inclusive), self_s or
# first_s (the first call alone).  For lookup-n7 the span totals cover the
# warm-up lookup plus TRACE_LOOKUPS stream lookups.
PER_LAYER = [
    ("geometry.verify_vertex.s", "s"),
    ("geometry.verify_vertex.calls", "count"),
    ("geometry.affine_dimension.s", "s"),
    ("geometry.polytope_graph.s", "s"),
    ("geometry.f_vector.s", "s"),
    ("geometry.realization_report.self_s", "s"),
    ("brackets.RewriteGraph.degree.s", "s"),
    ("brackets.RewriteGraph.degree.calls", "count"),
    ("brackets.RewriteGraph.kind_degree.s", "s"),
    ("brackets.RewriteGraph.kind_degree.calls", "count"),
    ("brackets.RewriteGraph.is_connected.s", "s"),
    ("brackets.build_graph.s", "s"),
    ("brackets.from_nested.s", "s"),
    ("brackets.from_nested.calls", "count"),
    ("brackets.all_bracketings.s", "s"),
    ("geometry.facet_inequality.s", "s"),
    ("geometry.facet_inequality.calls", "count"),
    ("geometry.vertex_coordinates.first_s", "s"),
    ("geometry.vertex_coordinates.s", "s"),
    ("geometry.vertex_coordinates.calls", "count"),
    ("geometry.solve_exact.s", "s"),
    ("geometry.solve_exact.calls", "count"),
    ("brackets.parse_bracketing.s", "s"),
    ("brackets.to_nested.s", "s"),
    ("nestedsets.is_nested.s", "s"),
    ("nestedsets.is_nested.calls", "count"),
    ("cli.render_bracketing_record.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("nestedsets.enumerate_vertices.s", "s"),
    ("nestedsets.faces.s", "s"),
    ("nestedsets.faces.calls", "count"),
    ("classify.classify_2_face.s", "s"),
    ("classify.classify_2_face.calls", "count"),
    ("classify.diagram_census.self_s", "s"),
    ("cli.render_faces.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("nestedsets.faces.calls_per_dim", "ratio"),
    ("classify.classify_2_face.calls_per_face", "ratio"),
    ("layer.nestedsets.self_s", "s"),
    ("layer.brackets.self_s", "s"),
    ("layer.geometry.self_s", "s"),
    ("layer.classify.self_s", "s"),
    ("layer.cli.self_s", "s"),
    ("layer.limits.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.self_s_sum", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_est_s", "s"),
]

# Spans each workload must record at least one call of; a zero means the
# tracer missed a binding.
COVERAGE = {
    "check-n4": [
        "geometry.verify_vertex", "geometry.affine_dimension", "geometry.polytope_graph",
        "geometry.f_vector", "geometry.realization_report", "brackets.RewriteGraph.degree",
        "brackets.RewriteGraph.kind_degree", "brackets.RewriteGraph.is_connected",
        "brackets.build_graph", "brackets.from_nested", "brackets.all_bracketings",
        "nestedsets.faces", "cli.main",
    ],
    "census-n5": [
        "brackets.all_bracketings", "nestedsets.enumerate_vertices", "nestedsets.faces",
        "classify.classify_2_face", "classify.diagram_census", "cli.render_faces", "cli.main",
    ],
    "lookup-n7": [
        "geometry.facet_inequality", "geometry.vertex_coordinates", "geometry.solve_exact",
        "brackets.parse_bracketing", "brackets.to_nested", "nestedsets.is_nested",
        "cli.render_bracketing_record", "cli.main",
    ],
}
# Face dimensions the op asks for: the base of nestedsets.faces.calls_per_dim.
FACE_DIMS = {"check-n4": 4, "census-n5": 1, "lookup-n7": 0}


def traced_unit(run: Run, name: str, seed: int, trace_path: str | None) -> dict:
    """The work whose spans are totalled: one op, or for lookup-n7 the
    warm-up plus TRACE_LOOKUPS lookups in one worker."""
    if name != "lookup-n7":
        return subprocess_op(run, name, trace_path)
    queries = lookup_stream(seed)
    worker, _, warm = start_lookup_worker(run, next(queries), trace_path)
    try:
        replies = [warm] + lookup_ops(run, worker, queries, TRACE_LOOKUPS)
    finally:
        worker.close()
    return {
        "s": sum(r["s"] for r in replies),
        "output_bytes": sum(len(r["out"].encode()) for r in replies),
        "faces2": 0,
    }


def trace(run: Run, name: str, seed: int) -> dict:
    """Per-layer metrics from one traced and one untraced pass."""
    if name == "check-n4":
        negative_control(run)
    plain = traced_unit(run, name, seed, None)
    trace_path = os.path.join(run.scratch, "trace.json")
    traced = traced_unit(run, name, seed, trace_path)
    with open(trace_path, encoding="utf-8") as handle:
        dumped = json.load(handle)
    spans = dumped["spans"]

    missing = [span for span in COVERAGE[name] if spans.get(span, {}).get("calls", 0) == 0]
    if missing:
        run.gate("trace coverage", [f"no calls recorded for {', '.join(missing)}"])

    def span(key: str) -> float:
        base, field = key.rsplit(".", 1)
        return spans.get(base, {}).get(field, 0)

    layer_self: dict[str, float] = {}
    for key, record in spans.items():
        layer = key.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + record["self_s"]
    faces2 = traced["faces2"]
    derived = {
        "cli.output_bytes": traced["output_bytes"],
        "nestedsets.faces.calls_per_dim": span("nestedsets.faces.calls") / FACE_DIMS[name]
        if FACE_DIMS[name] else 0.0,
        "classify.classify_2_face.calls_per_face": span("classify.classify_2_face.calls") / faces2
        if faces2 else 0.0,
        "trace.wall_s": traced["s"],
        "trace.untraced_wall_s": plain["s"],
        "trace.overhead_s": traced["s"] - plain["s"],
        "trace.self_s_sum": sum(layer_self.values()),
        "trace.spans": sum(record["calls"] for record in spans.values()),
    }
    derived["trace.overhead_est_s"] = derived["trace.spans"] * dumped["span_cost_s"]
    for layer in ("nestedsets", "brackets", "geometry", "classify", "cli", "limits"):
        derived[f"layer.{layer}.self_s"] = layer_self.get(layer, 0.0)

    metrics = {}
    for key, unit in PER_LAYER:
        metrics[key] = (derived[key] if key in derived else span(key), unit)
    for key, record in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        if record["calls"]:
            print(f"{name} span {key}: calls={record['calls']} s={record['s']:.6f} "
                  f"self_s={record['self_s']:.6f} first_s={record['first_s']:.6f}")
    for key, (value, unit) in metrics.items():
        print(f"{name} {key} = {value:.6g} {unit}")
    print(f"{name} traced wall {traced['s']:.4f} s = span self time "
          f"{derived['trace.self_s_sum']:.4f} s + outside spans "
          f"{traced['s'] - derived['trace.self_s_sum']:.4f} s; untraced {plain['s']:.4f} s, "
          f"overhead {derived['trace.overhead_s']:.4f} s (estimated from "
          f"{derived['trace.spans']} spans: {derived['trace.overhead_est_s']:.4f} s)")
    return metrics


# ---------------------------------------------------------------------------

WORKLOADS = ("check-n4", "census-n5", "lookup-n7")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "simplepa", "__init__.py")):
        log(f"no simplepa sources under {os.path.join(ROOT, 'src')}")
        return 2
    print(f"machine: nproc={os.cpu_count()} {platform.machine()} {platform.system()} "
          f"python={platform.python_version()} ({sys.executable})")
    scratch = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(scratch)
    run = Run(args.seconds, scratch)
    try:
        if args.trace:
            metrics = trace(run, args.workload, args.seed)
        else:
            metrics = measure(run, args.workload, args.seed)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
