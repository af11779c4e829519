"""CLI entry point: ``python -m repro.service [--port N] [--cache-dir DIR]``.

Prints one ``listening on http://HOST:PORT`` line once the socket is bound
(``--port 0`` picks a free port; ``--port-file`` additionally writes the
bound port to a file, which is race-free for scripted callers).  SIGINT and
SIGTERM trigger the same graceful shutdown as ``POST /shutdown``: drain
in-flight jobs, close the worker pool, stop the listener.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import os
import signal
import sys

from .server import ServiceConfig, run_service


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="decomposition/synthesis job server (see docs/SERVICE.md)",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8321,
                        help="TCP port; 0 picks a free one (default 8321)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="shared on-disk result store (DecompositionCache "
                             "+ SynthesisCache under DIR; no caching when omitted)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="worker processes for the fork pool; 0 runs jobs "
                             "on one in-process thread (default: CPU count)")
    parser.add_argument("--port-file", default=None, metavar="PATH",
                        help="write the bound port to PATH once listening")
    parser.add_argument("--drain-timeout", type=float, default=120.0,
                        help="max seconds to wait for in-flight jobs on shutdown")
    parser.add_argument("--job-timeout", type=float, default=300.0, metavar="S",
                        help="default per-job wall-clock limit in seconds; a "
                             "spec's 'timeout' field overrides it (default 300)")
    parser.add_argument("--max-retries", type=int, default=2, metavar="N",
                        help="retries for jobs whose worker crashed; a spec's "
                             "'max_retries' field overrides it (default 2)")
    parser.add_argument("--read-timeout", type=float, default=30.0, metavar="S",
                        help="per-connection request read deadline in seconds; "
                             "slow clients get HTTP 408 (default 30)")
    args = parser.parse_args(argv)

    workers = args.workers if args.workers is not None else (os.cpu_count() or 1)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        workers=workers,
        drain_timeout=args.drain_timeout,
        job_timeout=args.job_timeout,
        max_retries=args.max_retries,
        read_timeout=args.read_timeout,
    )

    def ready(service) -> None:
        # The long-lived heap (modules, numpy, the server) is built by now:
        # freeze it out of the cyclic collector, so a full collection walks
        # only what requests left behind instead of stalling the event loop
        # over the whole heap.
        gc.freeze()
        print(f"listening on http://{config.host}:{service.port} "
              f"(workers={workers}, cache={args.cache_dir or 'off'})", flush=True)
        if args.port_file:
            tmp = f"{args.port_file}.tmp"
            with open(tmp, "w") as handle:
                handle.write(str(service.port))
            os.replace(tmp, args.port_file)

    async def serve() -> None:
        loop = asyncio.get_running_loop()
        holder = {}

        def capture(service):
            holder["service"] = service
            ready(service)

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum,
                    lambda: asyncio.ensure_future(holder["service"].shutdown()),
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await run_service(config, ready=capture)

    asyncio.run(serve())
    print("service stopped", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
