"""Benchmark of the hqcdfs command line, run as a user runs it.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the repository root. ``--trace 0`` is one client in a closed loop:
each invocation is a fresh interpreter (``python -m hqcdfs.cli ...`` with
``src`` on the path), timed from spawn to exit, its CPU time and peak RSS
read from ``os.wait4``, and its output verified against the closed-form
results. It prints the end-to-end metrics. ``--trace 1`` replays the same
invocations in process through ``hqcdfs.cli.main``, alternating untraced
and traced rounds, and prints the per-layer metrics.

Rounds run until ``--seconds`` have passed, and a started round always
finishes, so every run holds whole rounds and the same mix of invocations.
End-to-end times are scaled to a reference machine speed (see
REFERENCE_S); the unscaled values are printed and recorded too.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full run record
(machine facts included) goes to ``.perfbench_out/`` under the current
directory. The exit status is 1 when any invocation fails verification and
2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import verify
import workloads

# BLAS/OpenMP threads for the program, in children and in the in-process
# replay alike. One thread keeps a shared machine's scheduler out of the
# numbers; it never exceeds the core count.
THREADS = 1
THREAD_ENV = {
    var: str(THREADS)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
}

# The speed of a shared machine drifts by tens of percent in phases that
# last seconds to minutes, as other tenants come and go. Every run therefore
# times a fixed pure-Python loop right before and right after each process
# it measures, and scales that process's times by REFERENCE_S / (mean loop
# time): the time metrics read as seconds on a machine whose loop takes
# REFERENCE_S, about a shared 2-vCPU x86-64 Xeon VM in a quiet phase. The
# loop does not involve the program, so a change to the program moves the
# scaled and the raw times in the same proportion; both are recorded.
REFERENCE_LOOP = 100_000
REFERENCE_S = 0.008

SRC = Path("src")
OUT_DIR = Path(".perfbench_out")
SETUP_MIN = 9
TAIL_BEYOND = 10

E2E_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "cpu_per_op_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

FACTS_SCRIPT = """
import json, numpy, platform
blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")}}))
"""


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update(THREAD_ENV)
    return env


def spawn(argv: list[str], env: dict) -> tuple[int, str, float, float, float]:
    """Run one process to exit: (status, stdout, wall s, cpu s, max rss MB)."""
    begin = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    try:
        with selectors.DefaultSelector() as sel:
            for stream in chunks:
                sel.register(stream, selectors.EVENT_READ)
            while sel.get_map():
                for key, _ in sel.select():
                    data = os.read(key.fileobj.fileno(), 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
                        key.fileobj.close()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - begin
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = b"".join(chunks[proc.stdout]).decode("utf-8", "replace")
    return proc.returncode, out, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def git_commit() -> str:
    """Commit of the checkout, or "unknown" outside a git repository."""
    # The ceiling stops git from reporting a repository that encloses the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path.cwd().parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, env=env
        ).stdout
    except OSError:
        return "unknown"
    return out.strip() or "unknown"


def machine_facts(env: dict, args) -> dict:
    status, out, *_ = spawn([sys.executable, "-c", FACTS_SCRIPT], env)
    facts = json.loads(out) if status == 0 else {"error": f"facts probe exited {status}"}
    facts.update(
        {
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "threads": THREAD_ENV,
            "reference_s": REFERENCE_S,
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "commit": git_commit(),
        }
    )
    return facts


def reference_time() -> float:
    """Wall time of a fixed pure-Python loop: the machine's current speed."""
    begin = time.perf_counter()
    x = 0
    for i in range(REFERENCE_LOOP):
        x += i * i % 7
    return time.perf_counter() - begin


def scaled_spawn(argv: list[str], env: dict) -> tuple[int, str, float, float, float, float]:
    """spawn(), plus the factor that scales its times to reference speed."""
    before = reference_time()
    result = spawn(argv, env)
    scale = 2.0 * REFERENCE_S / (before + reference_time())
    return (*result, scale)


def import_time(env: dict) -> tuple[float, float]:
    """(wall time, scale) of a fresh interpreter importing hqcdfs.cli."""
    status, _, wall, _, _, scale = scaled_spawn([sys.executable, "-c", "import hqcdfs.cli"], env)
    if status != 0:
        raise SystemExit(f"error: importing hqcdfs.cli exited {status}")
    return wall, scale


def tail_latency(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_closed_loop(args, env: dict) -> tuple[dict, dict]:
    import_time(env)  # untimed: writes the bytecode cache
    base = [sys.executable, "-m", "hqcdfs.cli"]
    samples = []
    setup = []
    elapsed = 0.0
    for batch in workloads.rounds(args.workload, args.seed):
        if elapsed >= args.seconds:
            break
        # One set-up sample per round spreads them over the run.
        setup.append(import_time(env))
        for inv in batch:
            begin = time.perf_counter()
            status, out, wall, cpu, rss, scale = scaled_spawn(base + list(inv.args), env)
            checked = time.perf_counter()
            try:
                verify.verify(inv, status, out)
                error = None
            except verify.VerificationError as exc:
                error = str(exc)
                print(f"FAIL {inv.kind} {' '.join(inv.args)[:120]}: {error}", file=sys.stderr)
            now = time.perf_counter()
            elapsed += now - begin
            # Spawn to exit plus verification; the reference loops are the
            # benchmark's cost, not the program's, and stay out of ops_per_s.
            step = wall + now - checked
            samples.append(
                {"kind": inv.kind, "wall": wall, "cpu": cpu, "rss_mb": rss, "step": step,
                 "scale": scale, "error": error}
            )
    while len(setup) < SETUP_MIN:
        setup.append(import_time(env))

    def metrics(scaled: bool) -> dict:
        def t(s: dict, key: str) -> float:
            return s[key] * s["scale"] if scaled else s[key]

        walls = [t(s, "wall") for s in samples]
        tail, _ = tail_latency(walls)
        return {
            "ops_per_s": ok / sum(t(s, "step") for s in samples),
            "latency_p50_s": statistics.median(walls),
            "latency_tail_s": tail,
            "cpu_per_op_s": sum(t(s, "cpu") for s in samples) / len(samples),
            "peak_rss_mb": max(s["rss_mb"] for s in samples),
            "setup_s": statistics.median(w * k if scaled else w for w, k in setup),
        }

    ok = sum(s["error"] is None for s in samples)
    scales = [s["scale"] for s in samples]
    detail = {
        "attempted": len(samples),
        "failed": len(samples) - ok,
        "fail_ratio": (len(samples) - ok) / len(samples),
        "elapsed_s": elapsed,
        "latency_tail_percentile": tail_latency([s["wall"] for s in samples])[1],
        "latency_tail_beyond": TAIL_BEYOND,
        "scale_median": statistics.median(scales),
        "scale_range": [min(scales), max(scales)],
        "raw_metrics": metrics(scaled=False),
        "setup_samples": setup,
        "invocations": samples,
    }
    return {k: (v, E2E_UNITS[k]) for k, v in metrics(scaled=True).items()}, detail


def run_traced(args) -> tuple[dict, dict]:
    import numpy

    sys.path.insert(0, str(SRC))
    import hqcdfs.cli

    modules = {layer: sys.modules[f"hqcdfs.{layer}"] for layer in spans.LAYERS}
    tracer = spans.Tracer()

    def call(inv) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                status = hqcdfs.cli.main(list(inv.args))
            except SystemExit as exc:
                status = exc.code if isinstance(exc.code, int) else 2
        return status, out.getvalue()

    generator = workloads.rounds(args.workload, args.seed)
    first = next(generator)
    warmed = set()
    for inv in first:
        if inv.kind not in warmed:
            call(inv)
            warmed.add(inv.kind)

    totals = {"untraced": 0.0, "traced": 0.0}
    attempted = failed = traced_count = noise_samples = report_bytes = 0
    begin = time.perf_counter()
    batch, index = first, 0
    while True:
        order = ("untraced", "traced") if index % 2 == 0 else ("traced", "untraced")
        for mode in order:
            uninstall = spans.instrument(tracer, modules, numpy.linalg) if mode == "traced" else None
            try:
                for inv in batch:
                    t0 = time.perf_counter()
                    status, out = call(inv)
                    totals[mode] += time.perf_counter() - t0
                    attempted += 1
                    try:
                        verify.verify(inv, status, out)
                    except verify.VerificationError as exc:
                        failed += 1
                        print(f"FAIL {inv.kind} ({mode}): {exc}", file=sys.stderr)
                    if mode == "traced":
                        traced_count += 1
                        report_bytes += len(out.encode("utf-8"))
                        noise_samples += inv.expect.get("samples", 0)
            finally:
                if uninstall:
                    uninstall()
        index += 1
        if time.perf_counter() - begin >= args.seconds:
            break
        batch = next(generator)

    metrics = spans.layer_metrics(tracer, traced_count, noise_samples, report_bytes)
    metrics["trace.overhead_s"] = ((totals["traced"] - totals["untraced"]) / traced_count, "s/op")
    OUT_DIR.mkdir(exist_ok=True)
    span_path = OUT_DIR / f"spans_{args.workload}_s{args.seed}.tsv.gz"
    with gzip.open(span_path, "wt", encoding="utf-8", compresslevel=1) as fh:
        tracer.write_tsv(fh)
    detail = {
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "traced_invocations": traced_count,
        "replay_untraced_s": totals["untraced"],
        "replay_traced_s": totals["traced"],
        "spans": len(tracer),
        "spans_file": str(span_path),
    }
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "hqcdfs" / "cli.py").is_file():
        print(f"error: {SRC / 'hqcdfs' / 'cli.py'} not found; run from the repository root",
              file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so a running child is killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Before numpy is imported, so the in-process replay uses THREADS too.
    os.environ.update(THREAD_ENV)
    env = child_env()
    facts = machine_facts(env, args)
    # The program and the reference loop share one CPU, so the loop measures
    # the speed of the CPU the program runs on.
    facts["pinned_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {facts["pinned_cpu"]})
    if args.trace:
        metrics, detail = run_traced(args)
    else:
        metrics, detail = run_closed_loop(args, env)

    OUT_DIR.mkdir(exist_ok=True)
    record = {"facts": facts, "metrics": metrics, "detail": detail}
    (OUT_DIR / f"BENCH_{args.workload}_s{args.seed}_t{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    raw = detail.get("raw_metrics", {})
    for name, (value, unit) in metrics.items():
        extra = f"   (unscaled {raw[name]:.6g})" if name in raw else ""
        print(f"{name:30s} {value:14.6g} {unit}{extra}")
    if not args.trace:
        print(
            f"fail_ratio {detail['fail_ratio']:g} ({detail['failed']}/{detail['attempted']}); "
            f"latency_tail_s is p{detail['latency_tail_percentile']:.1f} of "
            f"{detail['attempted']} invocations; median scale {detail['scale_median']:.3f}"
        )
    print(json.dumps({"facts": facts}))
    result = {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if detail["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
