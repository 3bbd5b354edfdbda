"""The gate CLI: every correctness sweep and bit-identity check.

Usage::

    python -m repro.testing fuzz                      # 100 differential cases
    python -m repro.testing fuzz --runs 250 --seed 7
    python -m repro.testing fuzz --seconds 30         # time-budgeted smoke
    python -m repro.testing fuzz --problems bfs cc --baselines gunrock tigr
    python -m repro.testing fuzz --engine etagraph-service --runs 25
    python -m repro.testing chaos                     # 200 fault plans
    python -m repro.testing chaos --seconds 30 --trace-dir traces/
    python -m repro.testing heal                      # 200 self-healing runs
    python -m repro.testing heal --postmortem-dir pm/
    python -m repro.testing identity                  # every bit-identity leg

Every sweep takes the same budget, ``--runs N`` or ``--seconds S``, and
``--seed``; a failure prints the coordinates to replay it.

* ``fuzz`` — random graphs and configurations through EtaGraph, every
  baseline and the CPU oracle (:mod:`repro.testing.fuzz`);
* ``chaos`` — the same random cases through a
  :class:`~repro.resilience.ResilientSession` under random seeded fault
  plans: every outcome is a correct result or a typed ``ReproError``
  (:mod:`repro.resilience.chaos`);
* ``heal`` — sustained lane faults through the self-healing service
  plane; also requires at least one breaker recovery, and with
  ``--postmortem-dir`` at least one postmortem bundle
  (:mod:`repro.serving.chaos`);
* ``identity`` — toggles that must not move a result: engine vs
  resilient vs telemetry-on sessions on slashdot, service vs per-lane
  sessions, and the health plane and the observability stack on vs off.
  Prints one line per leg.

Exit status 0 when every contract holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
from typing import Callable

from repro.testing.differential import (
    ALL_BASELINES,
    ALL_PROBLEMS,
    EXTRA_ENGINE_FACTORIES,
)
from repro.testing.fuzz import run_fuzz


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing",
        description="Correctness gates: differential fuzzing, chaos "
                    "sweeps and bit-identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def sweep(name: str, unit: str, default: int, help: str):
        cmd = sub.add_parser(name, help=help, description=help)
        budget = cmd.add_mutually_exclusive_group()
        budget.add_argument("--runs", type=int, default=None,
                            help=f"number of {unit} (default {default})")
        budget.add_argument("--seconds", type=float, default=None,
                            help="wall-time budget instead of a count")
        cmd.add_argument("--seed", type=int, default=0,
                         help="sweep seed (default 0)")
        return cmd

    fuzz = sweep("fuzz", "differential cases", 100,
                 "differential/metamorphic sweep against the CPU oracle")
    fuzz.add_argument("--problems", nargs="+", default=list(ALL_PROBLEMS),
                      choices=ALL_PROBLEMS,
                      help="problems to rotate through")
    fuzz.add_argument("--baselines", nargs="+", default=list(ALL_BASELINES),
                      choices=ALL_BASELINES,
                      help="baseline frameworks to include")
    fuzz.add_argument("--engine", action="append", default=[],
                      dest="engines",
                      choices=sorted(EXTRA_ENGINE_FACTORIES),
                      help="extra serving path to fuzz alongside the "
                           "engine (repeatable): etagraph-session runs "
                           "each case on a warm resident session, "
                           "etagraph-service through the multi-tenant "
                           "serving frontend, etagraph-msbfs through a "
                           "packed multi-source wave, etagraph-dobfs "
                           "through direction-optimized BFS")
    fuzz.add_argument("--no-metamorphic", action="store_true",
                      help="skip the metamorphic checks")
    fuzz.add_argument("-q", "--quiet", action="store_true",
                      help="only print the final summary")

    chaos = sweep("chaos", "fault plans", 200,
                  "differential fuzzing under random seeded fault plans "
                  "through ResilientSession")
    chaos.add_argument("--trace-dir", default=None,
                       help="write a Chrome trace for every query that "
                            "ended in a typed error or a violation")
    chaos.add_argument("-q", "--quiet", action="store_true",
                       help="only print the final summary")

    heal = sweep("heal", "runs", 200,
                 "self-healing battery: sustained per-lane faults; every "
                 "request answered-or-typed-shed exactly once, every open "
                 "lane standby-replaced, at least one lane recovered")
    heal.add_argument("--postmortem-dir", default=None,
                      help="attach a flight recorder to every run, dump "
                           "postmortem bundles here, and require failing "
                           "plans to leave validating bundles")
    heal.set_defaults(quiet=False)

    sub.add_parser("identity", help="every bit-identity gate, one line "
                                    "per leg")
    return parser


def _identity_legs() -> list[tuple[str, Callable[[], list[str]]]]:
    """The ``identity`` gate's legs as ``(name, check)`` pairs; each
    ``check()`` returns its mismatch descriptions (empty = identical)."""
    from functools import partial

    from repro.core.config import EtaGraphConfig, MemoryMode
    from repro.graph import datasets
    from repro.resilience.chaos import check_bit_identity
    from repro.serving import identity

    weighted, query_source = datasets.load("slashdot", weighted=True)
    csr, _ = datasets.load("slashdot")
    legs = [
        (f"engine == resilient == telemetry, slashdot/{mode.value} "
         "(bfs, sssp, cc x 2 sources)",
         partial(check_bit_identity, weighted, ("bfs", "sssp", "cc"),
                 (0, int(query_source)), EtaGraphConfig(memory_mode=mode)))
        for mode in (MemoryMode.UM_PREFETCH, MemoryMode.DEVICE)
    ]
    legs += [
        (f"service == session, pool_size={size}",
         partial(identity.check_service_identity, csr, pool_size=size))
        for size in (1, 2)
    ]
    legs += [
        (f"{plane} on == off, pool_size=2",
         partial(check, csr, pool_size=2))
        for plane, check in (("health", identity.check_health_identity),
                             ("telemetry", identity.check_trace_identity))
    ]
    return legs


def _identity() -> int:
    failed = False
    for name, check in _identity_legs():
        mismatches = check()
        print(f"{'MISMATCH' if mismatches else 'ok'}: {name}", flush=True)
        for line in mismatches:
            print(f"  {line}")
        failed = failed or bool(mismatches)
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "identity":
        return _identity()
    log = None if args.quiet else (lambda msg: print(msg, flush=True))

    if args.command == "fuzz":
        report = run_fuzz(
            max_cases=args.runs, max_seconds=args.seconds, seed=args.seed,
            problems=tuple(args.problems), baselines=tuple(args.baselines),
            engines=tuple(args.engines),
            metamorphic_every=0 if args.no_metamorphic else 4, log=log,
        )
    elif args.command == "chaos":
        from repro.resilience.chaos import run_chaos

        report = run_chaos(
            max_plans=args.runs, max_seconds=args.seconds, seed=args.seed,
            trace_dir=args.trace_dir, log=log,
        )
    else:
        from repro.serving.chaos import run_heal_chaos

        report = run_heal_chaos(
            runs=args.runs, max_seconds=args.seconds, seed=args.seed,
            postmortem_dir=args.postmortem_dir, log=log,
        )
    print(report.summary())
    if not report.ok:
        return 1
    if args.command == "heal":
        if report.recoveries == 0:
            print("FAIL: no run demonstrated an open -> half-open -> "
                  "closed recovery")
            return 1
        if args.postmortem_dir is not None and report.postmortems == 0:
            print("FAIL: no run produced a postmortem bundle")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
