"""EtaGraph reproduction benchmark: host cost and simulated results.

Usage (from the repository root)::

    python3 perfbench/run.py --workload query-cold --seed 1 --seconds 20 \\
        --trace 0

Runs one workload in this single process (no worker threads; BLAS and
OpenMP pinned to one thread; glibc malloc thresholds and NumPy's huge
page requests pinned so host times repeat), checks every answer, and
prints one JSON result as the last line of standard output.  The line
before it is a JSON ``meta`` record: seed, host facts, the pinning, and
the percentile and sample count behind every ``*_tail`` value.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
same ops twice from a fresh set-up — untraced, then with every layer's
import sites wrapped (``perfbench/layers.py``) — checks that labels and
simulated clocks digest identically, prints the per-layer metrics and
writes the host spans as a Chrome trace under ``perfbench/traces/``.
"""

from __future__ import annotations

import os
import time

_PROCESS_START = time.perf_counter()

_THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(_THREAD_PINS)


def _libc():
    import ctypes
    import ctypes.util

    name = ctypes.util.find_library("c")
    if name is None:
        return None
    try:
        return ctypes.CDLL(name)
    except OSError:
        return None


_LIBC = _libc()


def _pin_allocator() -> dict:
    """Fix glibc malloc's thresholds before the first large allocation.

    By default glibc raises its mmap and trim thresholds as large blocks
    are freed, so how often an array allocation page-faults fresh memory
    depends on the process's allocation history; host times then differ
    by 10% or more between two runs of one seed.  With the thresholds
    pinned, freed heap memory is reused and runs repeat.
    """
    import ctypes

    mallopt = getattr(_LIBC, "mallopt", None)
    if mallopt is None:
        return {}
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    pins = {"M_MMAP_THRESHOLD": 32 << 20, "M_TRIM_THRESHOLD": 2**31 - 1}
    codes = {"M_MMAP_THRESHOLD": -3, "M_TRIM_THRESHOLD": -1}
    return {k: v for k, v in pins.items() if mallopt(codes[k], v) == 1}


_MALLOC_PINS = _pin_allocator()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per ``--trace 0`` run.  ``setup_s`` is the time the imports
#: took plus the median of these set-ups, each begun on a trimmed heap.
SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail(values):
    """The highest percentile with at least ten samples beyond it: the
    11th-largest value.  Returns ``(value, percentile, samples)``."""
    n = len(values)
    if n < 11:
        return max(values), 100.0, n
    return sorted(values)[n - 11], 100.0 * (n - 10) / n, n


class Pass:
    """One sequence of whole rounds of ops, timed op by op."""

    def __init__(self):
        self.op_ns: list[int] = []
        self.outcomes = []
        self.digest = hashlib.blake2b(digest_size=32)
        self.errors: list[str] = []

    @property
    def timed_ns(self) -> int:
        return sum(self.op_ns)


def run_pass(wl, state, checker, *, seconds=None, min_rounds=0,
             rounds=None, recorder=None) -> Pass:
    from workloads import Outcome

    result = Pass()
    ops = wl.ops(state)
    done = 0
    while True:
        for _ in range(wl.round_ops):
            op = next(ops)
            error = None
            if recorder is not None:
                recorder.op_id = len(result.op_ns)
                recorder.active = True
            t0 = time.perf_counter_ns()
            try:
                if recorder is not None:
                    raw = recorder.span("op", "op", wl.run, (state, op), {})
                else:
                    raw = wl.run(state, op)
            except Exception:  # a failed op is counted, not fatal
                error = traceback.format_exc(limit=4)
            t1 = time.perf_counter_ns()
            if recorder is not None:
                recorder.active = False
            result.op_ns.append(t1 - t0)
            if error is None:
                outcome = wl.judge(state, op, raw, checker)
            else:
                outcome = Outcome(
                    ok=False, served=False, hit=False,
                    has_deadline=getattr(op, "deadline_ms", None)
                    is not None)
                result.errors.append(error)
            result.outcomes.append(outcome)
            result.digest.update(outcome.digest)
        done += 1
        if rounds is not None:
            if done >= rounds:
                return result
        elif done >= min_rounds and result.timed_ns >= seconds * 1e9:
            return result


def setup(wl, seed, checker):
    """One timed set-up; warm-up answers are checked after the clock.

    The freed heap goes back to the system first, so every set-up
    faults its memory in afresh, as the first one of a process does.
    """
    gc.collect()
    if hasattr(_LIBC, "malloc_trim"):
        _LIBC.malloc_trim(0)
    t0 = time.perf_counter()
    state, warm = wl.setup(seed)
    setup_s = time.perf_counter() - t0
    bad = sum(not o.ok for o in wl.judge_warm(state, warm, checker))
    return state, setup_s, bad


def sim_metrics(outcomes):
    served = [o for o in outcomes if o.served and o.sim_ms is not None]
    deadlined = [o for o in outcomes if o.has_deadline]
    lat = [o.sim_latency_ms for o in served]
    lat_tail = tail(lat) if lat else (0.0, 0.0, 0)
    return {
        "sim_ms_per_op": statistics.fmean(o.sim_ms for o in served)
        if served else 0.0,
        "sim_latency_p50_ms": statistics.median(lat) if lat else 0.0,
        "sim_latency_tail_ms": lat_tail[0],
        # No deadline-bearing op: every op is on time (vacuously 1).
        "sim_deadline_hit_rate": (
            sum(o.hit for o in deadlined) / len(deadlined)
            if deadlined else 1.0),
        "served_frac": len(served) / len(outcomes),
    }, lat_tail


#: Metrics that are exact functions of (code, seed): any move in them is
#: a change of the simulated model, never noise.
DETERMINISTIC = (
    "sim_ms_per_op", "sim_latency_p50_ms", "sim_latency_tail_ms",
    "sim_deadline_hit_rate", "served_frac", "ok_frac",
    "*.calls", "*.launches", "*.waves", "*.requests", "*.sim_*",
    "cache.sectors", "session.memo_*", "serving.hedges", "trace.ops",
)

UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "wall_ms_p50": "ms",
    "wall_ms_tail": "ms", "peak_rss_mb": "MB", "sim_ms_per_op": "ms_sim",
    "sim_latency_p50_ms": "ms_sim", "sim_latency_tail_ms": "ms_sim",
    "sim_deadline_hit_rate": "frac", "served_frac": "frac", "ok_frac": "frac",
}


def end_to_end(wl, args, checker, meta):
    # The modules import once per process; their time is charged to
    # every set-up.
    import_s = time.perf_counter() - _PROCESS_START
    setups, bad_warm, state = [], 0, None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            wl.close(state)
            state = None
        state, setup_s, bad = setup(wl, args.seed, checker)
        setups.append(setup_s)
        bad_warm += bad
    meta["first_op_s"] = time.perf_counter() - _PROCESS_START
    run = run_pass(wl, state, checker, seconds=args.seconds,
                   min_rounds=wl.sim_rounds)
    wl.close(state)
    n = len(run.op_ns)
    failed = sum(not o.ok for o in run.outcomes)
    # A completed op was served and answered correctly; a shed request
    # costs next to no host time and would drag the median down.
    wall_ms = [ns / 1e6 for ns, o in zip(run.op_ns, run.outcomes)
               if o.ok and o.served] or [ns / 1e6 for ns in run.op_ns]
    wall_tail = tail(wall_ms)
    # A round is the workload's fixed op mix, so its mean host ms per op
    # is steady from seed to seed.
    k = wl.round_ops
    round_ms = [sum(run.op_ns[i:i + k]) / k / 1e6 for i in range(0, n, k)]
    p50_samples = round_ms if wl.p50_over_rounds else wall_ms
    sims, sim_tail = sim_metrics(
        run.outcomes[:wl.sim_rounds * wl.round_ops])
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "ops_per_s": n / (run.timed_ns / 1e9),
        "wall_ms_p50": statistics.median(p50_samples),
        "wall_ms_tail": wall_tail[0],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **sims,
        "ok_frac": (n - failed) / n,
    }
    meta.update({
        "import_s": import_s, "setups_s": setups, "ops": n,
        "rounds": n // wl.round_ops,
        "timed_s": run.timed_ns / 1e9, "failed_frac": failed / n,
        "warmup_failures": bad_warm,
        "sim_ops": wl.sim_rounds * wl.round_ops,
        "wall_ms_p50": {
            "over": "rounds" if wl.p50_over_rounds else "completed ops",
            "samples": len(p50_samples), "ops_per_round": k,
            "per_op_median_ms": statistics.median(wall_ms),
            "round_mean_median_ms": statistics.median(round_ms)},
        "wall_ms_tail": {"percentile": wall_tail[1],
                         "samples": wall_tail[2]},
        "sim_latency_tail_ms": {"percentile": sim_tail[1],
                                "samples": sim_tail[2]},
        "errors": run.errors[:3],
    })
    return metrics, n, failed + bad_warm, {m: UNITS[m] for m in metrics}


def layer_unit(name: str) -> str:
    field = name.split(".", 1)[1]
    if "bytes" in field:
        return "B"
    if field.endswith("_ms"):
        return "ms_sim" if field.startswith("sim_") else "ms"
    if field.startswith("ns_"):
        return "ns"
    if field.endswith(("share", "frac", "rate", "ratio")):
        return "frac"
    return "count"


def traced(wl, args, checker, meta):
    import layers

    state, _, bad_warm = setup(wl, args.seed, checker)
    plain = run_pass(wl, state, checker, rounds=wl.trace_rounds)
    wl.close(state)
    state, _, bad = setup(wl, args.seed, checker)
    bad_warm += bad
    build_ms = state["build_s"] * 1e3
    memo0 = wl.memo(state)
    hedges0 = wl.hedges(state) if hasattr(wl, "hedges") else 0

    recorder = layers.Recorder()
    undo = layers.install(recorder)
    try:
        run = run_pass(wl, state, checker, rounds=wl.trace_rounds,
                       recorder=recorder)
    finally:
        layers.uninstall(undo)
    memo1 = wl.memo(state)
    hedges1 = wl.hedges(state) if hasattr(wl, "hedges") else 0
    wl.close(state)
    layers.check_expected_work(recorder, wl.expected, wl.name)

    same = plain.digest.digest() == run.digest.digest()
    timed_ns = run.timed_ns
    metrics = {}
    for layer in layers.LAYERS:
        self_ns = recorder.self_ns[layer]
        metrics[f"{layer}.{layers.CALL_METRIC.get(layer, 'calls')}"] = \
            recorder.calls[layer]
        metrics[f"{layer}.self_ms"] = self_ns / 1e6
        metrics[f"{layer}.share"] = self_ns / timed_ns
    c = recorder.counters
    cache_ns = recorder.self_ns["cache"]
    hits, lookups = memo1[0] - memo0[0], memo1[1] - memo0[1]
    queued = [o.sim_queue_ms for o in run.outcomes
              if o.sim_queue_ms is not None]
    metrics.update({
        "cache.sectors": c["cache.sectors"],
        "cache.ns_per_sector": cache_ns / max(c["cache.sectors"], 1),
        "cache.sim_l1_hit_rate": c["cache.l1_hits"]
        / max(c["cache.sectors"], 1),
        "cache.sim_l2_accesses": c["cache.l2_accesses"],
        "cache.sim_l2_hit_rate": c["cache.l2_hits"]
        / max(c["cache.l2_accesses"], 1),
        "um.sim_bytes_migrated": c["um.sim_bytes_migrated"],
        "um.sim_bytes_prefetched": c["um.sim_bytes_prefetched"],
        "transfer.sim_bytes": c["transfer.sim_bytes"],
        "session.memo_hits": hits,
        "session.memo_lookups": lookups,
        "session.memo_hit_ratio": hits / max(lookups, 1),
        "serving.hedges": hedges1 - hedges0,
        "serving.sim_queue_ms": statistics.fmean(queued) if queued else 0.0,
        "graph.build_ms": build_ms,
        "trace.ops": len(run.op_ns),
        "trace.timed_ms": timed_ns / 1e6,
        "trace.untraced_ms": plain.timed_ns / 1e6,
        "trace.overhead_frac": timed_ns / plain.timed_ns - 1.0,
        "trace.unattributed_share": recorder.self_ns["op"] / timed_ns,
    })
    failed = sum(not o.ok for o in run.outcomes) + sum(
        not o.ok for o in plain.outcomes)
    n = len(run.outcomes) + len(plain.outcomes)
    trace_path = HERE / "traces" / f"{wl.name}-seed{args.seed}.json"
    recorder.write_chrome_trace(trace_path, {
        "workload": wl.name, "seed": args.seed})
    meta.update({
        "digest_match": same, "warmup_failures": bad_warm,
        "trace_file": str(trace_path.relative_to(ROOT)),
        "spans": len(recorder.spans),
        "predictions": layers.PREDICTIONS,
        "errors": (plain.errors + run.errors)[:3],
    })
    unit_of = {name: layer_unit(name) for name in metrics}
    return metrics, n, failed + bad_warm + (not same), unit_of


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy

    # Whether a large array gets transparent huge pages depends on how
    # fragmented the machine's memory is at that moment; asking for none
    # keeps host times from varying with it.
    numpy._core.multiarray._set_madvise_hugepage(False)

    from checks import AnswerChecker
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    checker = AnswerChecker()
    meta = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "machine": platform.machine(), "thread_pins": _THREAD_PINS,
        "malloc_pins": _MALLOC_PINS, "numpy_hugepage_madvise": False,
        "deterministic": DETERMINISTIC,
    }
    if args.trace:
        metrics, attempted, failed, unit_of = traced(wl, args, checker, meta)
    else:
        metrics, attempted, failed, unit_of = end_to_end(
            wl, args, checker, meta)
    meta["validations"] = checker.validations
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
