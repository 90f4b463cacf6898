"""``repro dash`` — a stdlib-only live dashboard over a running campaign.

The dashboard owns no instrumentation of its own: a sweep (or check, or
audit) started with ``--events run.jsonl`` streams its typed events to a
JSONL file via :class:`~repro.obs.export.JsonlEventSink`; the dash
*tails* that file incrementally, replays each line back into a real
:class:`~repro.obs.metrics.MetricsCollector` through
:func:`~repro.obs.export.event_from_dict`, and serves the rebuilt state
over :mod:`http.server`:

* ``/api/summary`` — run progress: event counts, trial throughput,
  retry/quarantine/timeout/divergence counters, the
  latency-vs-stabilization curve, the campaign-ledger tail;
* ``/api/metrics`` — the full registry snapshot (same JSON as
  ``repro stats --json``);
* ``/api/events`` — the most recent raw event lines (``?n=`` to size);
* ``/metrics`` — Prometheus text exposition
  (:func:`~repro.obs.prom.render_prometheus`);
* ``/`` — a single self-contained HTML page that polls ``/api/summary``.

Replay-over-events means a dash can attach to a sweep that is *already
running*, restart without losing state, or replay a finished campaign
after the fact — the JSONL file is the single source of truth.  Unknown
event names (a stream written by a newer engine) are counted, never
fatal.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union
from urllib.parse import parse_qs, urlparse

from .campaign import CampaignLedger
from .events import TrialCompleted
from .export import event_from_dict
from .metrics import MetricsCollector
from .prom import render_prometheus

if TYPE_CHECKING:
    from http.server import ThreadingHTTPServer

#: Raw event lines kept for ``/api/events``.
_RECENT_EVENTS = 500

#: Curve points kept for the latency-vs-stabilization chart.
_CURVE_POINTS = 2000


class CampaignDash:
    """Tail an event stream (and optionally a ledger) into live state.

    Thread-safe: the HTTP handler threads call :meth:`summary` /
    :meth:`metrics` concurrently; every public method refreshes the tail
    under one lock first.
    """

    def __init__(
        self,
        events_path: Union[str, Path, None] = None,
        ledger: Union[CampaignLedger, str, Path, None] = None,
        store: Union[str, Path, None] = None,
    ):
        self.events_path = Path(events_path) if events_path else None
        if ledger is not None and not isinstance(ledger, CampaignLedger):
            ledger = CampaignLedger(ledger)
        self.ledger = ledger
        self.store = None
        if store is not None:
            from ..farm.store import open_store

            self.store = open_store(store)
        self.collector = MetricsCollector()
        self._lock = threading.Lock()
        self._offset = 0
        self._partial = ""
        self._event_counts: Dict[str, int] = {}
        self._unknown = 0
        self._recent: deque = deque(maxlen=_RECENT_EVENTS)
        self._curve: deque = deque(maxlen=_CURVE_POINTS)
        self._trials_seen = 0
        self._first_seen: Optional[float] = None
        self._last_seen: Optional[float] = None
        self.collector.bus.subscribe(self._on_completed, (TrialCompleted,))

    # -- tailing -------------------------------------------------------------

    def _on_completed(self, event: TrialCompleted) -> None:
        self._trials_seen += 1
        if event.stabilization >= 0 and event.latency >= 0:
            self._curve.append({
                "stabilization": event.stabilization,
                "latency": event.latency,
                "kind": event.kind,
                "cached": event.cached,
            })

    def refresh(self) -> int:
        """Consume any new event lines; returns how many were ingested."""
        with self._lock:
            return self._refresh_locked()

    def _refresh_locked(self) -> int:
        if self.events_path is None or not self.events_path.is_file():
            return 0
        size = self.events_path.stat().st_size
        if size < self._offset:
            # stream truncated/rotated: start over
            self._offset = 0
            self._partial = ""
        if size == self._offset:
            return 0
        with open(self.events_path, encoding="utf-8") as handle:
            handle.seek(self._offset)
            chunk = handle.read()
            self._offset = handle.tell()
        text = self._partial + chunk
        lines = text.split("\n")
        self._partial = lines.pop()  # "" on a clean newline, else a tail
        ingested = 0
        now = time.time()
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                body = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(body, dict) or "event" not in body:
                continue
            ingested += 1
            if self._first_seen is None:
                self._first_seen = now
            self._last_seen = now
            name = body["event"]
            self._event_counts[name] = self._event_counts.get(name, 0) + 1
            self._recent.append(body)
            try:
                event = event_from_dict(body)
            except Exception:
                # unknown/foreign event type — count it, keep tailing
                self._unknown += 1
                continue
            if self.collector.bus.active:
                self.collector.bus.publish(event)
        return ingested

    # -- views ---------------------------------------------------------------

    def _counter_total(self, name: str) -> int:
        metric = self.collector.registry.get(name)
        return metric.total() if metric is not None else 0

    def summary(self) -> Dict[str, Any]:
        """The ``/api/summary`` payload (plain JSON types only)."""
        self.refresh()
        with self._lock:
            elapsed = (
                (self._last_seen - self._first_seen)
                if self._first_seen is not None
                and self._last_seen is not None else 0.0
            )
            throughput = (
                self._trials_seen / elapsed if elapsed > 0 else 0.0
            )
            ledger_tail: List[Dict[str, Any]] = []
            if self.ledger is not None:
                ledger_tail = [r.to_dict() for r in self.ledger.tail(20)]
            return {
                "events": {
                    "total": sum(self._event_counts.values()),
                    "by_type": dict(sorted(self._event_counts.items())),
                    "unknown": self._unknown,
                },
                "trials": {
                    "completed": self._counter_total("trials_completed"),
                    "cached": self._counter_total("trials_cached"),
                    "violations": self._counter_total("trial_violations"),
                    "retries": self._counter_total("trial_retries"),
                    "quarantines": self._counter_total("trial_quarantines"),
                    "timeouts": self._counter_total("trial_timeouts"),
                    "divergences": self._counter_total("audit_divergences"),
                    "per_second": round(throughput, 3),
                },
                "curve": list(self._curve),
                "ledger": ledger_tail,
                "source": str(self.events_path) if self.events_path else None,
            }

    def metrics(self) -> Dict[str, Any]:
        self.refresh()
        with self._lock:
            return self.collector.snapshot()

    def prometheus(self) -> str:
        self.refresh()
        with self._lock:
            return render_prometheus(self.collector.registry)

    def events_tail(self, n: int = 50) -> List[Dict[str, Any]]:
        self.refresh()
        with self._lock:
            items = list(self._recent)
        return items[-n:] if n > 0 else []

    def farm(self) -> Optional[Dict[str, Any]]:
        """Live farm-store status for ``/api/farm`` (``None`` if unset).

        Read straight from the store on every call — the SQLite WAL lets
        this run concurrently with workers claiming and completing.
        """
        if self.store is None:
            return None
        return self.store.status()


_PAGE = """<!DOCTYPE html><html><head><meta charset="utf-8">
<title>repro dash</title>
<style>
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 1.5rem auto; max-width: 64rem; color: #1a1a2e; }
h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 1.5rem; }
.cards { display: flex; flex-wrap: wrap; gap: 0.75rem; }
.card { border: 1px solid #d8d8e0; border-radius: 6px;
        padding: 0.6rem 1rem; min-width: 7.5rem; }
.card .v { font-size: 1.4rem; font-weight: 600; }
.card .k { color: #667; font-size: 0.75rem; }
.card.bad .v { color: #b42318; }
table { border-collapse: collapse; font-size: 0.8rem; width: 100%; }
th, td { border: 1px solid #d8d8e0; padding: 0.25rem 0.5rem;
         text-align: left; }
#stale { color: #b42318; display: none; }
svg { border: 1px solid #d8d8e0; border-radius: 6px; }
.meta { color: #667; font-size: 0.8rem; }
</style></head><body>
<h1>repro dash <span id="stale">(poll failed)</span></h1>
<p class="meta" id="source"></p>
<div class="cards" id="cards"></div>
<h2>Latency vs stabilization</h2>
<svg id="curve" width="640" height="220" viewBox="0 0 640 220"></svg>
<h2>Events</h2>
<table id="events"></table>
<h2>Campaign ledger (latest)</h2>
<table id="ledger"></table>
<script>
function card(k, v, bad) {
  return '<div class="card' + (bad ? ' bad' : '') + '"><div class="v">'
    + v + '</div><div class="k">' + k + '</div></div>';
}
function drawCurve(points) {
  var svg = document.getElementById('curve');
  if (!points.length) { svg.innerHTML = ''; return; }
  var W = 640, H = 220, P = 34;
  var xs = points.map(function (p) { return p.stabilization; });
  var ys = points.map(function (p) { return p.latency; });
  var xlo = Math.min.apply(null, xs), xhi = Math.max.apply(null, xs);
  var ylo = Math.min.apply(null, ys), yhi = Math.max.apply(null, ys);
  var xs_ = (xhi - xlo) || 1, ys_ = (yhi - ylo) || 1;
  var out = '<line x1="' + P + '" y1="' + (H - P) + '" x2="' + (W - P)
    + '" y2="' + (H - P) + '" stroke="#99a"/>'
    + '<line x1="' + P + '" y1="' + P + '" x2="' + P + '" y2="'
    + (H - P) + '" stroke="#99a"/>'
    + '<text x="' + (W / 2) + '" y="' + (H - 6)
    + '" font-size="10" text-anchor="middle">stabilization time</text>'
    + '<text x="10" y="' + (P - 8) + '" font-size="10">latency</text>';
  points.forEach(function (p) {
    var cx = P + (p.stabilization - xlo) / xs_ * (W - 2 * P);
    var cy = H - P - (p.latency - ylo) / ys_ * (H - 2 * P);
    out += '<circle cx="' + cx.toFixed(1) + '" cy="' + cy.toFixed(1)
      + '" r="2.5" fill="' + (p.cached ? '#999' : '#3b5bdb')
      + '" fill-opacity="0.6"/>';
  });
  svg.innerHTML = out;
}
function rows(el, pairs) {
  document.getElementById(el).innerHTML = pairs.map(function (r) {
    return '<tr>' + r.map(function (c, i) {
      return (i === 0 ? '<th>' : '<td>') + c + (i === 0 ? '</th>' : '</td>');
    }).join('') + '</tr>';
  }).join('');
}
function tick() {
  fetch('/api/summary').then(function (r) { return r.json(); })
    .then(function (s) {
      document.getElementById('stale').style.display = 'none';
      document.getElementById('source').textContent =
        'tailing ' + (s.source || '(no event stream)');
      var t = s.trials;
      document.getElementById('cards').innerHTML =
        card('trials', t.completed) + card('cached', t.cached)
        + card('trials/s', t.per_second)
        + card('violations', t.violations, t.violations > 0)
        + card('retries', t.retries, t.retries > 0)
        + card('quarantined', t.quarantines, t.quarantines > 0)
        + card('timeouts', t.timeouts, t.timeouts > 0)
        + card('divergences', t.divergences, t.divergences > 0)
        + card('events', s.events.total);
      drawCurve(s.curve);
      var ev = Object.keys(s.events.by_type).map(function (k) {
        return [k, s.events.by_type[k]];
      });
      rows('events', [['event', 'count']].concat(ev));
      var led = s.ledger.map(function (r) {
        return [r.kind, r.verdict, r.duration.toFixed(2) + 's',
                r.trials, r.engine_version];
      });
      rows('ledger', [['kind', 'verdict', 'duration', 'trials', 'engine']]
        .concat(led));
    })
    .catch(function () {
      document.getElementById('stale').style.display = 'inline';
    });
}
tick();
setInterval(tick, 2000);
</script></body></html>
"""


def _make_handler(dash: CampaignDash):
    from http.server import BaseHTTPRequestHandler

    class Handler(BaseHTTPRequestHandler):
        def _send(self, status: int, content_type: str,
                  body: bytes) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.send_header("Cache-Control", "no-store")
            self.end_headers()
            self.wfile.write(body)

        def _send_json(self, payload: Any) -> None:
            body = json.dumps(payload).encode("utf-8")
            self._send(200, "application/json; charset=utf-8", body)

        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            parsed = urlparse(self.path)
            route = parsed.path.rstrip("/") or "/"
            try:
                if route == "/":
                    self._send(200, "text/html; charset=utf-8",
                               _PAGE.encode("utf-8"))
                elif route == "/api/summary":
                    self._send_json(dash.summary())
                elif route == "/api/metrics":
                    self._send_json(dash.metrics())
                elif route == "/api/events":
                    query = parse_qs(parsed.query)
                    n = int(query.get("n", ["50"])[0])
                    self._send_json(dash.events_tail(n))
                elif route == "/api/farm":
                    self._send_json(dash.farm())
                elif route == "/metrics":
                    self._send(200, "text/plain; version=0.0.4",
                               dash.prometheus().encode("utf-8"))
                else:
                    self._send(404, "text/plain; charset=utf-8",
                               b"not found\n")
            except BrokenPipeError:
                pass  # client went away mid-poll

        def log_message(self, fmt: str, *args: Any) -> None:
            pass  # the dash is quiet; the sweep owns the terminal

    return Handler


def make_server(dash: CampaignDash, host: str = "127.0.0.1",
                port: int = 8787) -> ThreadingHTTPServer:
    """A ready-to-``serve_forever`` HTTP server over ``dash``."""
    from http.server import ThreadingHTTPServer

    return ThreadingHTTPServer((host, port), _make_handler(dash))


def serve(
    events_path: Union[str, Path, None] = None,
    ledger: Union[str, Path, None] = None,
    host: str = "127.0.0.1",
    port: int = 8787,
    store: Union[str, Path, None] = None,
) -> None:
    """Blocking entry point used by ``repro dash``."""
    dash = CampaignDash(events_path, ledger, store=store)
    server = make_server(dash, host, port)
    print(f"repro dash on http://{host}:{server.server_address[1]}/ "
          f"(events: {events_path or '-'}, ledger: {ledger or '-'}, "
          f"store: {store or '-'})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
