"""A subspace-skyline query client over the repro.serve HTTP API.

Demonstrates the production split end to end: an offline job computes the
compressed cube once (Stellar) and *publishes* it into a versioned
snapshot store; the online :class:`repro.serve.CubeService` loads the
active version and answers the paper's three query families over
HTTP/JSON with microsecond latency and **zero** skyline computation.
This script is the thin client half -- every command below is one HTTP
request against the service, which runs fully observed: structured JSON
logs, a Prometheus ``/metrics`` + ``/healthz`` endpoint (with live
RSS/CPU vitals from a heartbeat thread), a slow-query log dumped on
shutdown, and a flight recorder dumped on crash or ``SIGUSR1``.

Commands (one per line on stdin):

    skyline <subspace>        e.g.  skyline price,stops
    wins <label>              subspaces where the object is a skyline member
    top <k>                   top-k objects by number of subspaces won
    groups <label>            signatures of the object's skyline groups
    explain <kind> <args>     resolution plan, e.g.  explain skyline price
    quit

Run interactively:   python examples/subspace_query_service.py
Or scripted:         printf 'skyline price\ntop 3\nquit\n' | python examples/subspace_query_service.py
With a fixed port:   python examples/subspace_query_service.py --port 9090
Health self-check:   python examples/subspace_query_service.py --selfcheck --scrape-out scrape.txt
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path
from urllib.error import HTTPError
from urllib.parse import urlencode
from urllib.request import urlopen

from repro import Dataset
from repro.cube import CompressedSkylineCube
from repro.obs import (
    configure_logging,
    configure_slow_query_log,
    enable_flight,
    get_logger,
    install_crash_hooks,
    start_heartbeat,
    stop_heartbeat,
)
from repro.serve import CubeService, SnapshotStore, start_server


def build_catalog() -> Dataset:
    """The flight-route catalogue (see examples/flight_tickets.py)."""
    rows = [
        [980.0, 14.5, 1], [720.0, 18.0, 2], [980.0, 16.0, 1],
        [1450.0, 12.0, 0], [720.0, 21.5, 3], [860.0, 14.5, 1],
        [1450.0, 13.0, 1], [990.0, 18.0, 2],
    ]
    labels = ("LH-FRA", "BUDGET-LHR", "KL-AMS", "DIRECT", "MULTIHOP",
              "TK-YVR", "PREMIUM", "SLOW-EXPENSIVE")
    return Dataset.from_rows(
        rows, names=("price", "traveltime", "stops"),
        directions=("min", "min", "min"), labels=labels,
    )


def build_service(snapshot_root: Path) -> CubeService:
    """Offline step (compute + publish) followed by the online service."""
    dataset = build_catalog()
    store = SnapshotStore(snapshot_root)
    info = store.publish("routes", dataset, CompressedSkylineCube.build(dataset))
    print(f"[offline] cube published as routes@{info.version} "
          f"under {snapshot_root}")
    return CubeService(store, default_snapshot="routes")


def api_get(base_url: str, path: str, **params: object) -> dict:
    """One GET against the service; errors surface as ValueError."""
    url = f"{base_url}{path}"
    if params:
        url += "?" + urlencode(params, doseq=True)
    try:
        with urlopen(url, timeout=10) as response:
            return json.loads(response.read())
    except HTTPError as exc:
        detail = json.loads(exc.read()).get("detail", exc.reason)
        raise ValueError(detail) from None


def serve(base_url: str) -> None:
    """The stdin command loop -- a plain HTTP client of the service."""
    for line in sys.stdin:
        parts = line.strip().split(None, 1)
        if not parts:
            continue
        command, arg = parts[0].lower(), parts[1] if len(parts) > 1 else ""
        try:
            if command == "quit":
                break
            elif command == "skyline":
                result = api_get(base_url, "/v1/skyline", subspace=arg)["result"]
                print("  " + ", ".join(result))
            elif command == "wins":
                result = api_get(base_url, "/v1/where-wins", label=arg)["result"]
                print("  " + "; ".join(result) or "  (nowhere)")
            elif command == "top":
                result = api_get(base_url, "/v1/top-frequent", k=int(arg))
                for label, count in result["result"]:
                    print(f"  {label}: wins in {count} subspaces")
            elif command == "groups":
                result = api_get(base_url, "/v1/signature", label=arg)["result"]
                for signature in result:
                    print("  " + signature)
            elif command == "explain":
                if not arg:
                    print("  usage: explain <kind> <args...>")
                    continue
                kind, *rest = arg.split(None, 1)
                qargs = rest[0].split(None, 1) if rest else []
                rendered = api_get(
                    base_url, "/v1/explain", kind=kind, arg=qargs
                )["result"]["rendered"]
                print("\n".join("  " + ln for ln in rendered.splitlines()))
            else:
                print(f"  unknown command {command!r}")
        except (ValueError, KeyError) as exc:
            print(f"  error: {exc}")
    print("[online] bye")


def selfcheck(base_url: str, scrape_out: str | None) -> int:
    """One-shot health check: serve a few queries, scrape /metrics.

    Returns a process exit code; non-zero when the health endpoint or the
    metrics scrape fails.  Used by CI to archive a real Prometheus scrape.
    """
    api_get(base_url, "/v1/skyline", subspace="price,stops")
    api_get(base_url, "/v1/where-wins", label="TK-YVR")
    api_get(base_url, "/v1/top-frequent", k=3)
    heartbeat = start_heartbeat(interval=0.5)
    heartbeat.sample()  # at least one vitals sample before the scrape
    with urlopen(f"{base_url}/healthz", timeout=5) as response:
        if response.status != 200:
            print(f"[selfcheck] /healthz -> {response.status}", file=sys.stderr)
            return 1
    with urlopen(f"{base_url}/metrics", timeout=5) as response:
        body = response.read().decode("utf-8")
        if response.status != 200 or "repro_query" not in body:
            print("[selfcheck] /metrics scrape failed", file=sys.stderr)
            return 1
        if "repro_process_rss_bytes" not in body:
            print(
                "[selfcheck] /metrics scrape lacks heartbeat vitals",
                file=sys.stderr,
            )
            return 1
    if scrape_out:
        Path(scrape_out).write_text(body)
        print(f"[selfcheck] scrape written to {scrape_out}")
    print("[selfcheck] ok: /healthz and /metrics healthy, "
          f"{len(body.splitlines())} exposition lines")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--port", type=int, default=0,
        help="bind the service (API + /metrics + /healthz) to this port "
        "(default: an ephemeral port)",
    )
    parser.add_argument(
        "--log-json", nargs="?", const="info", default=None, metavar="LEVEL",
        help="emit structured JSON logs to stderr (default level: info)",
    )
    parser.add_argument(
        "--slowlog", type=int, default=5, metavar="N",
        help="retain the N slowest queries, dumped on shutdown (default 5)",
    )
    parser.add_argument(
        "--selfcheck", action="store_true",
        help="one-shot mode: run sample queries over HTTP, verify /healthz "
        "and /metrics, then exit (for CI health checks)",
    )
    parser.add_argument(
        "--scrape-out", default=None, metavar="FILE",
        help="with --selfcheck: write the /metrics scrape to FILE",
    )
    args = parser.parse_args(argv)

    if args.log_json is not None:
        configure_logging(args.log_json)
    slowlog = configure_slow_query_log(capacity=args.slowlog)
    # Black-box telemetry: a bounded in-memory ring, dumped only on an
    # unhandled exception or SIGUSR1 -- a healthy service writes nothing.
    enable_flight()
    install_crash_hooks()
    log = get_logger("examples.service")

    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
        service = build_service(Path(tmp) / "snapshots")
        server = start_server(service, port=args.port)
        health = api_get(server.url, "/healthz")
        log.info("service.ready", extra={"snapshots": health["snapshots"]})

        if args.selfcheck:
            try:
                return selfcheck(server.url, args.scrape_out)
            finally:
                stop_heartbeat()
                server.close()

        # Scrapes of a live service should show vitals, not just queries.
        start_heartbeat()
        print(f"[online] service at {server.url} "
              f"(metrics: {server.url}/metrics, health: {server.url}/healthz)")
        catalog = build_catalog()
        print(f"[online] serving {catalog.n_objects} routes; "
              "commands: skyline/wins/top/groups/explain/quit")
        try:
            serve(server.url)
        finally:
            stop_heartbeat()
            server.close()
            if slowlog.entries():
                print("[online] slow-query log:")
                print("\n".join("  " + ln for ln in slowlog.render().splitlines()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
