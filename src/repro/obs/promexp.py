"""Prometheus-style text exposition for the serving layer.

``render_prometheus(service)`` walks the service's counters and every
session's latency histograms into the text format (version 0.0.4) that
Prometheus, VictoriaMetrics, or plain ``curl`` can scrape;
``start_metrics_server`` hosts it on ``/metrics`` from a daemon thread —
the implementation behind ``repro serve --metrics-port``.

Only the stdlib ``http.server`` is used, imported when the exporter is
started, so a server without ``--metrics-port`` never loads it.  The
handler holds no state: every scrape renders a fresh snapshot.
"""

from __future__ import annotations

import threading

__all__ = ["render_prometheus", "start_metrics_server"]

_PREFIX = "dynfo"


def _fmt(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    return repr(value) if isinstance(value, float) else str(value)


def _labels(**labels: str) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def render_prometheus(service) -> str:
    """The whole service as Prometheus exposition text."""
    lines: list[str] = []

    def emit(name: str, kind: str, help_text: str) -> None:
        lines.append(f"# HELP {_PREFIX}_{name} {help_text}")
        lines.append(f"# TYPE {_PREFIX}_{name} {kind}")

    def sample(name: str, value, **labels: str) -> None:
        lines.append(f"{_PREFIX}_{name}{_labels(**labels)} {_fmt(value)}")

    svc = service.metrics.snapshot()
    emit("uptime_seconds", "gauge", "Seconds since the service started.")
    sample("uptime_seconds", svc["uptime_s"])
    emit("service_requests_total", "counter", "Frames dispatched by the front end.")
    sample("service_requests_total", svc["requests"])
    emit("service_errors_total", "counter", "Requests answered with a typed error.")
    sample("service_errors_total", svc["errors"])

    counter_help = {
        "reads": "Read requests scheduled.",
        "reads_collapsed": "Reads served by joining an in-flight identical read.",
        "writes": "Write requests acknowledged or failed.",
        "errors": "Per-session request errors.",
        "overloads": "Admission-control rejections.",
        "batches": "Group-commit write batches.",
    }
    views = {
        name: session.metrics.prometheus_view()
        for name, session in service.sessions.items()
    }
    for counter, help_text in counter_help.items():
        emit(f"session_{counter}_total", "counter", help_text)
        for name, (counters, _) in sorted(views.items()):
            sample(f"session_{counter}_total", counters[counter], session=name)

    hist_help = {
        "read_latency": "Read latency, admission to result (seconds).",
        "write_latency": "Write latency, enqueue to durable ack (seconds).",
        "queue_wait": "Write queue wait, enqueue to drain pickup (seconds).",
        "batch_commit": "Group-commit batch duration (seconds).",
        "fsync": "Journal group-fsync duration (seconds).",
    }
    for hist, help_text in hist_help.items():
        metric = f"{hist}_seconds"
        emit(metric, "histogram", help_text)
        for name, (_, hists) in sorted(views.items()):
            buckets, sum_ns, count = hists[hist]
            for bound_s, cumulative in buckets:
                sample(
                    f"{metric}_bucket", cumulative, session=name, le=_fmt(bound_s)
                )
            sample(f"{metric}_sum", sum_ns / 1e9, session=name)
            sample(f"{metric}_count", count, session=name)
    return "\n".join(lines) + "\n"


def start_metrics_server(service, host: str = "127.0.0.1", port: int = 9642):
    """Serve ``/metrics`` for ``service`` on a daemon thread; returns the
    HTTP server (``.server_address[1]`` is the bound port, ``.shutdown()``
    stops it)."""
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class MetricsHandler(BaseHTTPRequestHandler):
        def do_GET(self) -> None:  # noqa: N802 - http.server API
            if self.path.split("?", 1)[0] != "/metrics":
                self.send_error(404, "only /metrics lives here")
                return
            body = render_prometheus(service).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args) -> None:  # quiet: scrapes are not news
            pass

    server = ThreadingHTTPServer((host, port), MetricsHandler)
    server.daemon_threads = True
    thread = threading.Thread(
        target=server.serve_forever, name="dynfo-metrics", daemon=True
    )
    thread.start()
    return server
