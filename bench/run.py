"""Benchmark of the kschur library and its command line.

Run from the repository root; it needs only the standard library:

    python3 bench/run.py --workload session --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py): `session` (cached `kschur` expansions with
some `lr` and `core` requests), `verify` (the paper's reproduction,
`verify --kmax 5 --suite all`) and `rect` (the four closed rectangle
formulas for 6 <= k <= 10).  One client sends the requests of a fixed,
seeded list in a closed loop; a pass is one trip through the list, each
`kschur` sub-session with a fresh cache directory.  Passes repeat while
the next one is expected to end within --seconds, with a minimum per
workload.

Each request runs `kschur.cli.main` in a child forked from this process
after it imported the library, so requests are isolated like separate
CLI invocations: no in-process state (the memo in `nilcoxeter`, or any
cache a later version keeps in memory) survives from one request to the
next, and only the cache files on disk carry over.  Cache directories
live in a temporary directory inside the checkout that is removed at the
end; `~/.cache/kschur` is never touched.

Every output is checked (check.py); a wrong output counts as a failed
request.  The last line of standard output is the result:

  --trace 0  end-to-end metrics, measured without tracing.
     setup_s      median over 11 fresh interpreters of: start, import
                  kschur, load the expected outputs, build the request
                  list, make and remove the temporary directory
     wall_s       time to serve one pass (sum of its request latencies;
                  checking happens between requests, untimed), averaged
                  over the passes: pass times on a shared host are
                  often bimodal, which moves their median more than
                  their mean
     req_per_s    requests served per second; for `verify` a request is
                  one check of its report, so this is checks per second
     req_p50_ms,  latency percentiles over all requests of all passes;
     req_p90_ms   for `verify`, over the per-check times of the reports
     peak_rss_mb  largest peak resident set of a child serving a request
  Medians and percentiles are Harrell-Davis estimates, weighted means of
  all the samples: a run holds only three or four samples of each rect
  request, and one or two order statistics of so few jump between runs.
  Every time above is given at a fixed reference speed.  A shared host
  can run this process's CPU at half speed for minutes, and the same
  pass then takes twice as long.  So before each request the parent
  times an empty loop of REFERENCE_ITERATIONS iterations, which never
  touches the library, and each time measured in the run is multiplied
  by REFERENCE_LOOP_S over the median of those loop times: the time the
  run would have taken on a CPU that runs the loop in REFERENCE_LOOP_S.
  A change to the library moves the measured times but not the loop, so
  it moves the metrics as much as it would unscaled.  The unscaled
  metrics and the scale factor are in the line before the result.
  --trace 1  per-layer metrics from one traced pass, after one untraced
             pass; trace.overhead_s is their wall_s difference.  Spans are
             written to .bench_traces/<workload>-seed<seed>.json.

The line before it holds provenance and input properties: seed, git SHA
when the checkout is a repository, Python version and flags, CPU count,
timing noise of a fixed loop, failed/attempted counts, the number of
latency samples, and per-workload input properties with their bases.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import workloads as wl
from check import Reply, check_seconds, load_expected, request_problems, verify_failures
from tracing import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
TMP_ROOT = ROOT / ".bench_tmp"
TRACE_DIR = ROOT / ".bench_traces"
SETUP_PROBES = 11
# Passes each run makes at least: three for wall_s, and for rect at least
# ten latency samples beyond p90.  One session pass already
# serves 444 requests.
MIN_PASSES = {"session": 1, "verify": 3, "rect": 3}
NOISE_LOOPS = 5
NOISE_ITERATIONS = 10_000_000
REFERENCE_ITERATIONS = 100_000
REFERENCE_LOOP_S = 0.002  # 20 ns an iteration: near the loop's fastest on a shared 2-vCPU VM

_now = time.perf_counter


def load_library():
    """Import kschur from the checkout's src/, never from an installed copy."""
    src = (ROOT / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import kschur
    import kschur.cli

    if not Path(kschur.__file__).resolve().is_relative_to(src):
        raise ImportError(f"kschur was imported from {kschur.__file__}, not from {src}")
    return kschur.cli


def make_requests(workload: str, seed: int, expected: dict) -> list[wl.Request]:
    if workload == "session":
        return wl.session_list(seed, expected["side_requests"])
    if workload == "rect":
        return wl.rect_list(seed)
    return wl.verify_list()


def setup(workload: str, seed: int):
    cli = load_library()
    expected = load_expected()
    requests = make_requests(workload, seed, expected)
    TMP_ROOT.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_ROOT))
    return cli, expected, requests, directory


def remove_run_directory(directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    with contextlib.suppress(OSError):
        TMP_ROOT.rmdir()


class SetupProbes:
    """Times SETUP_PROBES set-ups in fresh interpreters, spread evenly
    over the timed part of a run: a shared host's speed drifts over tens
    of seconds, and probes taken all at once would see only one moment of it."""

    def __init__(self, args: argparse.Namespace, start: float):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
                     "--setup-probe"]
        self.start = start
        self.interval = args.seconds / SETUP_PROBES
        self.times: list[float] = []

    def probe(self) -> None:
        start = _now()
        subprocess.run(self.argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        self.times.append(_now() - start)

    def if_due(self) -> None:
        """Probe when the schedule says so; called between requests."""
        if len(self.times) < SETUP_PROBES and _now() >= self.start + len(self.times) * self.interval:
            self.probe()

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return self.times


def serve(cli, argv: tuple[str, ...], tracer: Optional[Tracer]):
    """Serve one request in a forked child: (reply, seconds, peak RSS in
    KiB, trace).  The child sends its output back through a pipe."""
    read_fd, write_fd = os.pipe()
    start = _now()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        _serve_in_child(cli, argv, tracer, write_fd)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    seconds = _now() - start
    if status != 0 or not data:
        return Reply(None, "", f"child ended with status {status}"), seconds, usage.ru_maxrss, None
    code, out, err, trace = pickle.loads(data)
    return Reply(code, out, err), seconds, usage.ru_maxrss, trace


def _serve_in_child(cli, argv, tracer, write_fd) -> None:
    status = 1
    try:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse reports usage errors this way
                code = exc.code
            except Exception:
                traceback.print_exc()
                code = None
        trace = None if tracer is None else (dict(tracer.counts), tracer.spans)
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump((code, out.getvalue(), err.getvalue(), trace), pipe)
        status = 0
    finally:
        os._exit(status)


def reference_loop() -> float:
    """Seconds an empty loop of REFERENCE_ITERATIONS iterations takes:
    how fast the CPU runs this process just now."""
    start = _now()
    for _ in range(REFERENCE_ITERATIONS):
        pass
    return _now() - start


@dataclass
class Pass:
    latencies: list[float] = field(default_factory=list)
    reference_loops: list[float] = field(default_factory=list)
    check_seconds: list[float] = field(default_factory=list)
    peak_rss_kb: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    terms: int = 0
    doc_bytes: int = 0
    counts: Counter = field(default_factory=Counter)
    self_s: Counter = field(default_factory=Counter)
    spans: list[tuple] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_pass(cli, requests, directory: Path, expected: dict, tracer: Optional[Tracer] = None,
             between=None) -> Pass:
    """Serve and check every request once; `between`, if given, is
    called before each request, outside its timing."""
    result = Pass()
    for index, request in enumerate(requests):
        if between is not None:
            between()
        result.reference_loops.append(reference_loop())
        os.environ["KSCHUR_CACHE_DIR"] = str(directory / f"cache{request.group}")
        reply, seconds, rss_kb, trace = serve(cli, request.argv, tracer)
        result.latencies.append(seconds)
        result.peak_rss_kb = max(result.peak_rss_kb, rss_kb)
        if request.kind == "verify":
            failed, problems = verify_failures(reply, expected["verify_names"])
            result.attempted += len(expected["verify_names"])
            if not problems:
                result.check_seconds += check_seconds(reply)
        else:
            problems = request_problems(request, reply, expected)
            failed = 1 if problems else 0
            result.attempted += 1
            if not problems and request.kind in ("kschur", "rect"):
                result.terms += count_terms(request.kind, reply.out)
                result.doc_bytes += len(reply.out.encode())
        result.failed += failed
        result.problems += [f"{request.cmdline}: {p}" for p in problems]
        if trace is not None:
            counts, spans = trace
            result.counts.update(counts)
            result.counts["cache.warnings"] += reply.err.count("warning:")
            result.self_s.update(self_times(spans))
            offset = len(result.spans)
            result.spans += [(name, start, end, None if parent is None else parent + offset, index)
                             for name, start, end, parent in spans]
    return result


def count_terms(kind: str, out: str) -> int:
    doc = json.loads(out)
    if kind == "rect":
        return sum(len(f["terms"]) for f in doc["formulas"].values())
    return len(doc["terms"])


def quantile(samples, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the sorted
    samples weighted by the Beta(p(n+1), (1-p)(n+1)) probability of each
    one's stretch of [0, 1], integrated by the midpoint rule on at least
    4096 points."""
    xs = sorted(samples)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = max(8, -(-4096 // n))
    log_density = [[(a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
                    for x in ((i + (j + 0.5) / steps) / n for j in range(steps))] for i in range(n)]
    top = max(max(row) for row in log_density)
    weights = [sum(math.exp(v - top) for v in row) for row in log_density]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def speed_scale(passes: list[Pass]) -> float:
    """Factor that takes a time measured in these passes to the
    reference speed (see the module docstring)."""
    return REFERENCE_LOOP_S / statistics.median(s for p in passes for s in p.reference_loops)


def end_to_end(workload: str, passes: list[Pass], setup_times: list[float], scale: float = 1.0) -> dict:
    """The end-to-end metrics, every time multiplied by `scale`."""
    attr = "check_seconds" if workload == "verify" else "latencies"
    samples = [s * scale for p in passes for s in getattr(p, attr)]
    walls = [p.wall * scale for p in passes]
    return {
        "setup_s": (quantile(setup_times, 0.5) * scale, "s"),
        "wall_s": (statistics.mean(walls), "s"),
        "req_per_s": (len(samples) / sum(walls), "1/s"),
        "req_p50_ms": (quantile(samples, 0.5) * 1000, "ms"),
        "req_p90_ms": (quantile(samples, 0.9) * 1000, "ms"),
        "peak_rss_mb": (max(p.peak_rss_kb for p in passes) / 1024, "MB"),
    }


COUNT_METRICS = (
    "affine.windows_built", "affine.hashes", "affine.right_mult.calls",
    "affine.left_mult.calls", "affine.inverse.calls", "affine.length.calls",
    "affine.reduced_word.calls",
    "nilcoxeter.kschur.calls", "nilcoxeter.h_product.calls", "nilcoxeter.h_product.terms",
    "nilcoxeter.mul.calls", "nilcoxeter.mul.pairs", "nilcoxeter.add.calls",
    "cores.w_of_partition.calls", "cores.bounded_to_core.calls", "cores.apply_word_nil.calls",
    "cores.u_action.calls", "cores.core_to_bounded.calls",
    "alcoves.pseudo_translation.calls", "alcoves.reflect.calls", "alcoves.act.calls",
    "documents.terms", "cache.get.calls", "cache.put.calls", "cache.warnings",
)
SELF_TIME_METRICS = (
    "nilcoxeter.kschur", "nilcoxeter.h_product", "nilcoxeter.mul", "nilcoxeter.add",
    "nilcoxeter.act_on_core", "nilcoxeter.pieri_partitions", "nilcoxeter.lr_coefficient",
    "cores.apply_word_nil", "alcoves.pseudo_translation",
    "rectangles.by_readings", "rectangles.by_translations", "rectangles.by_columns",
    "rectangles.by_windows", "rectangles.act_on_partition",
    "documents.from_element", "cache.get", "cache.put",
)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(traced: Pass, untraced: Pass) -> dict:
    counts = traced.counts
    metrics = {name: (counts[name], "count") for name in COUNT_METRICS}
    metrics.update({f"{name}.self_s": (traced.self_s[name], "s") for name in SELF_TIME_METRICS})
    pairs = counts["nilcoxeter.mul.pairs"]
    metrics["nilcoxeter.mul.yield"] = (ratio(pairs - counts["nilcoxeter.mul.dead_pairs"], pairs), "ratio")
    metrics["documents.bytes"] = (traced.doc_bytes, "bytes")
    metrics["cache.hit_ratio"] = (ratio(counts["cache.hits"], counts["cache.get.calls"]), "ratio")
    metrics["cache.bytes_read"] = (counts["cache.bytes_read"], "bytes")
    metrics["cache.bytes_written"] = (counts["cache.bytes_written"], "bytes")
    metrics["cli.requests"] = (counts["cli.main.calls"], "count")
    metrics["cli.self_s"] = (traced.self_s["cli.main"], "s")
    metrics["trace.overhead_s"] = (traced.wall - untraced.wall, "s")
    return metrics


def input_properties(workload: str, requests: list[wl.Request], first: Pass) -> dict:
    props = {"requests_per_pass": len(requests), "terms_emitted_per_pass": first.terms}
    if workload == "session":
        kschur = [r for r in requests if r.kind == "kschur"]
        seen = {(r.group, r.k, r.lam) for r in kschur}
        props["kschur_requests"] = len(kschur)
        props["repeat_share"] = {"value": ratio(len(kschur) - len(seen), len(kschur)),
                                 "base": "kschur requests whose key an earlier request of its sub-session asked for"}
        with_rect = sum(wl.has_maximal_rectangle(r.k, r.lam) for r in kschur)
        props["maximal_rectangle_share"] = {"value": ratio(with_rect, len(kschur)),
                                            "base": "kschur requests"}
        props["lr_requests"] = sum(r.kind == "lr" for r in requests)
        props["core_requests"] = sum(r.kind == "core" for r in requests)
        props["sub_sessions"] = wl.SESSION_GROUPS
    return props


def timing_noise() -> dict:
    times = []
    for _ in range(NOISE_LOOPS):
        start = _now()
        for _ in range(NOISE_ITERATIONS):
            pass
        times.append(_now() - start)
    return {"loop_iterations": NOISE_ITERATIONS, "seconds": times,
            "max_over_min": max(times) / min(times)}


def git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def provenance(seed: int) -> dict:
    return {
        "seed": seed,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "sys_flags": repr(sys.flags),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
    }


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="kschur benchmark")
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up and exit; used to time set-up")
    return parser.parse_args(argv)


def measure(args, cli, expected, requests, directory) -> tuple[dict, dict]:
    def one_pass(tracer=None, between=None) -> Pass:
        return run_pass(cli, requests, directory / f"pass{len(passes)}", expected, tracer, between)

    # The noise loop runs first and doubles as a warm-up: timing starts
    # once the CPU has left any idle state.
    noise = timing_noise()
    passes: list[Pass] = []
    if args.trace:
        passes.append(one_pass())
        tracer = Tracer()
        tracer.install()
        passes.append(one_pass(tracer))
        metrics = per_layer(passes[1], passes[0])
        TRACE_DIR.mkdir(exist_ok=True)
        trace_file = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "request"],
                                          "spans": passes[1].spans}, separators=(",", ":")))
        extra = {"trace_file": str(trace_file.relative_to(ROOT)), "spans": len(passes[1].spans),
                 "untraced_wall_s": passes[0].wall, "traced_wall_s": passes[1].wall}
    else:
        start = _now()
        probes = SetupProbes(args, start)
        while len(passes) < MIN_PASSES[args.workload] or (
            (_now() - start) * (len(passes) + 1) / len(passes) <= args.seconds
        ):
            passes.append(one_pass(between=probes.if_due))
        setup_times = probes.finish()
        scale = speed_scale(passes)
        metrics = end_to_end(args.workload, passes, setup_times, scale)
        unscaled = end_to_end(args.workload, passes, setup_times)
        samples = [s for p in passes for s in (p.check_seconds if args.workload == "verify" else p.latencies)]
        p90 = unscaled["req_p90_ms"][0] / 1000
        loops = [s for p in passes for s in p.reference_loops]
        extra = {"speed_scale": scale, "unscaled_metrics": {k: v for k, (v, _) in unscaled.items()},
                 "reference_loop_s": {"median": statistics.median(loops), "min": min(loops),
                                      "max": max(loops), "samples": len(loops)},
                 "setup_probe_s": setup_times, "pass_walls_s": [p.wall for p in passes],
                 "latency_samples": len(samples),
                 "samples_beyond_p90": sum(s > p90 for s in samples)}
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    details = {
        "workload": args.workload,
        "provenance": provenance(args.seed),
        "timing_noise": noise,
        "passes": len(passes),
        "inputs": input_properties(args.workload, requests, passes[0]),
        "failed_ratio": {"value": ratio(failed, attempted), "failed": failed, "attempted": attempted},
        "problems": [p for run in passes for p in run.problems][:10],
        **extra,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return details, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if sys.flags.optimize:
        print("error: refusing to run under python -O, which strips the library's "
              "assert-based checks and so measures a different program", file=sys.stderr)
        return 2
    if not args.setup_probe:
        # One CPU for this process and every child it forks: the CPUs of a
        # shared host can run at different speeds at the same moment, and
        # the reference loop must time the CPU that serves the requests.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        cli, expected, requests, directory = setup(args.workload, args.seed)
    except (ImportError, OSError, ValueError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 1
    try:
        if args.setup_probe:
            return 0
        details, result = measure(args, cli, expected, requests, directory)
    finally:
        remove_run_directory(directory)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
