"""CLI for the serving layer.

Usage::

    python -m repro.serving demo                 # serve a sample mix
    python -m repro.bench serve                  # closed-loop load bench

The serving gates — service/health/telemetry bit-identity and the
self-healing battery — run under ``python -m repro.testing identity``
and ``python -m repro.testing heal``.
"""

from __future__ import annotations

import argparse
import sys

from repro.graph import datasets


def _demo(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving demo",
        description="Serve one sample multi-tenant batch and print the "
        "responses plus the metrics snapshot.",
    )
    parser.add_argument("--graph", default="slashdot")
    parser.add_argument("--pool-size", type=int, default=2)
    parser.add_argument(
        "--trace", default=None,
        help="write the service-track Chrome trace here",
    )
    args = parser.parse_args(argv)

    from repro.serving import (
        NeighborhoodRequest, PageRankRequest, ShortestPathRequest,
        StatsRequest, TraversalService, VisitRequest,
    )

    csr, source = datasets.load(args.graph)
    with TraversalService(
        csr, pool_size=args.pool_size, telemetry=args.trace is not None,
    ) as service:
        responses = service.serve([
            VisitRequest(problem="bfs", source=source, tenant="interactive",
                         deadline_ms=5.0),
            NeighborhoodRequest(source=source, hops=2, tenant="interactive",
                                deadline_ms=5.0),
            ShortestPathRequest(source=source, target=0, tenant="interactive",
                                deadline_ms=5.0),
            VisitRequest(problem="cc", source=0, tenant="batch"),
            PageRankRequest(tenant="analytics"),
            StatsRequest(tenant="analytics"),
        ])
        for response in responses:
            print(response)
        print()
        snapshot = service.metrics_snapshot()
        for key, value in sorted(snapshot["counters"].items()):
            print(f"  {key} = {value:g}")
        if args.trace:
            service.trace().save_chrome(args.trace)
            print(f"wrote {args.trace}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["demo"]:
        return _demo(argv[1:])
    print(__doc__.strip())
    return 0 if not argv else 2


if __name__ == "__main__":
    raise SystemExit(main())
