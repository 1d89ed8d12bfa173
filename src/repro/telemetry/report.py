"""The run report: one machine-readable artifact per flow run.

``run.json`` (schema ``repro.telemetry/1``) bundles everything a run
recorded::

    {
      "schema": "repro.telemetry/1",
      "meta":    { "design": ..., "flow": ..., ... },
      "spans":   [ {id, parent, name, t0, dur, attrs}, ... ],
      "metrics": { "<stream>": {"steps": [...], "values": [...]}, ... },
      "events":  [ {schema, seq, t, type, ...}, ... ],
      "qor":     { ... },   # optional: repro.core.reporting QoR dict
      "perf":    { ... },   # optional: repro.perf report dict
      "monitor": { ... }    # optional: repro.monitor summary (resource
    }                       #   timeline peaks + final progress records)

Two runs' reports can be diffed stream-by-stream (:func:`diff_runs`) —
the regression gate behind ``repro report diff A B`` — and rendered to
a self-contained HTML page with SVG convergence plots
(:func:`render_html`).
"""

from __future__ import annotations

import html as _html
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.telemetry.trace import span_tree

SCHEMA = "repro.telemetry/1"

#: Streams where a *larger* final value is the better one.  Everything
#: else (wirelength, congestion, cost, power, loss, displacement)
#: defaults to lower-is-better.  Slacks are negative when failing, so
#: "higher" is toward meeting timing.
HIGHER_IS_BETTER = ("sta.wns", "sta.tns", "sta.hold_wns", "ml.train.r2")


@dataclass
class RunReport:
    """A serialisable telemetry run artifact."""

    meta: Dict[str, Any] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    events: List[Dict[str, Any]] = field(default_factory=list)
    qor: Optional[Dict[str, Any]] = None
    perf: Optional[Dict[str, Any]] = None
    monitor: Optional[Dict[str, Any]] = None

    @classmethod
    def from_session(
        cls,
        session: Any,
        meta: Optional[Dict[str, Any]] = None,
        qor: Optional[Dict[str, Any]] = None,
        perf: Optional[Dict[str, Any]] = None,
        monitor: Optional[Dict[str, Any]] = None,
    ) -> "RunReport":
        """Snapshot the record stores of a session (anything with a
        ``tracer``, ``metrics`` and ``events``) into a report."""
        return cls(
            meta=dict(meta or {}),
            spans=session.tracer.export(),
            metrics=session.metrics.export(),
            events=session.events.export(),
            qor=qor,
            perf=perf,
            monitor=monitor,
        )

    # -- (de)serialisation ---------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "schema": SCHEMA,
            "meta": self.meta,
            "spans": self.spans,
            "metrics": self.metrics,
            "events": self.events,
        }
        if self.qor is not None:
            out["qor"] = self.qor
        if self.perf is not None:
            out["perf"] = self.perf
        if self.monitor is not None:
            out["monitor"] = self.monitor
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunReport":
        schema = data.get("schema")
        if schema != SCHEMA:
            raise ValueError(
                f"not a telemetry run report (schema {schema!r}, "
                f"expected {SCHEMA!r})"
            )
        return cls(
            meta=dict(data.get("meta") or {}),
            spans=list(data.get("spans") or []),
            metrics=dict(data.get("metrics") or {}),
            events=list(data.get("events") or []),
            qor=data.get("qor"),
            perf=data.get("perf"),
            monitor=data.get("monitor"),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "RunReport":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    # -- queries -------------------------------------------------------
    def stream_final(self, name: str) -> Optional[float]:
        """Final value of one metric stream (None when absent/empty)."""
        stream = self.metrics.get(name)
        if not stream or not stream.get("values"):
            return None
        return float(stream["values"][-1])

    def span_tree(self) -> List[Dict[str, Any]]:
        """The spans as a forest (see :func:`repro.telemetry.span_tree`)."""
        return span_tree(self.spans)

    def span_names(self) -> List[str]:
        return sorted({s["name"] for s in self.spans})

    def events_of(self, event_type: str) -> List[Dict[str, Any]]:
        return [e for e in self.events if e.get("type") == event_type]


# ----------------------------------------------------------------------
# Run diffing (the regression gate)
# ----------------------------------------------------------------------
@dataclass
class StreamDelta:
    """One stream's baseline-vs-candidate comparison."""

    name: str
    baseline: Optional[float]
    candidate: Optional[float]
    #: Positive = candidate worse, in the stream's "badness" direction.
    worsening: float = 0.0
    regressed: bool = False
    missing: bool = False

    def describe(self) -> str:
        if self.missing:
            side = "baseline" if self.baseline is None else "candidate"
            return f"{self.name}: missing in {side}"
        tag = "REGRESSED" if self.regressed else "ok"
        if self.worsening > 0:
            change = f"{self.worsening:+.2%} worse"
        elif self.worsening < 0:
            change = f"{-self.worsening:+.2%} better"
        else:
            change = "unchanged"
        return (
            f"{self.name}: {self.baseline:.6g} -> {self.candidate:.6g} "
            f"({change}) [{tag}]"
        )


@dataclass
class RunDiff:
    """All stream comparisons of two runs."""

    deltas: List[StreamDelta] = field(default_factory=list)

    @property
    def regressions(self) -> List[StreamDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions


def _higher_is_better(name: str) -> bool:
    return any(name == k or name.startswith(k + ".") for k in HIGHER_IS_BETTER)


def diff_runs(
    baseline: RunReport,
    candidate: RunReport,
    rel_threshold: float = 0.05,
    abs_threshold: float = 1e-9,
    streams: Optional[List[str]] = None,
) -> RunDiff:
    """Compare two runs' QoR streams; flag regressions past thresholds.

    A stream *regresses* when the candidate's final value is worse than
    the baseline's by more than ``abs_threshold +
    rel_threshold * |baseline|`` in the stream's badness direction
    (lower-is-better unless listed in :data:`HIGHER_IS_BETTER`).
    Streams named in ``streams`` but missing from either run are
    reported as regressions too — a silently vanished metric must not
    pass a gate.
    """
    names = streams or sorted(set(baseline.metrics) | set(candidate.metrics))
    deltas: List[StreamDelta] = []
    for name in names:
        a = baseline.stream_final(name)
        b = candidate.stream_final(name)
        if a is None or b is None:
            missing_matters = streams is not None or (a is None) != (b is None)
            deltas.append(
                StreamDelta(
                    name=name,
                    baseline=a,
                    candidate=b,
                    missing=True,
                    regressed=bool(missing_matters),
                )
            )
            continue
        worse_by = (a - b) if _higher_is_better(name) else (b - a)
        denom = abs(a) if abs(a) > 0 else 1.0
        worsening = worse_by / denom
        limit = abs_threshold + rel_threshold * abs(a)
        deltas.append(
            StreamDelta(
                name=name,
                baseline=a,
                candidate=b,
                worsening=worsening,
                regressed=worse_by > limit,
            )
        )
    return RunDiff(deltas=deltas)


# ----------------------------------------------------------------------
# HTML rendering
# ----------------------------------------------------------------------
def _render_span_node(node: Dict[str, Any], lines: List[str]) -> None:
    attrs = ", ".join(f"{k}={v}" for k, v in node["attrs"].items())
    label = _html.escape(
        f"{node['name']}  {node['dur'] * 1e3:.1f} ms" + (f"  ({attrs})" if attrs else "")
    )
    if node["children"]:
        lines.append(f"<details open><summary>{label}</summary><ul>")
        for child in node["children"]:
            lines.append("<li>")
            _render_span_node(child, lines)
            lines.append("</li>")
        lines.append("</ul></details>")
    else:
        lines.append(f"<span>{label}</span>")


def render_html(report: RunReport, path: Optional[str] = None) -> str:
    """Render a self-contained HTML page: meta, convergence plots for
    every metric stream (inline SVG), the span tree and the event log."""
    from repro.viz.svg import render_series_svg

    title = report.meta.get("design", "run")
    lines = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>repro run report — {_html.escape(str(title))}</title>",
        "<style>body{font-family:sans-serif;margin:2em;}"
        "ul{list-style:none;border-left:1px solid #ccc;margin:0 0 0 .4em;"
        "padding-left:1em;}details>summary{cursor:pointer;}"
        "table{border-collapse:collapse;}td,th{border:1px solid #ccc;"
        "padding:2px 8px;text-align:left;}</style>",
        "</head><body>",
        f"<h1>Run report — {_html.escape(str(title))}</h1>",
        "<h2>Meta</h2><table>",
    ]
    for key in sorted(report.meta):
        lines.append(
            f"<tr><th>{_html.escape(str(key))}</th>"
            f"<td>{_html.escape(str(report.meta[key]))}</td></tr>"
        )
    lines.append("</table>")

    lines.append("<h2>QoR metric streams</h2>")
    for name in sorted(report.metrics):
        stream = report.metrics[name]
        values = stream.get("values") or []
        if not values:
            continue
        svg = render_series_svg(
            stream.get("steps") or list(range(len(values))),
            values,
            title=f"{name} (final {values[-1]:.6g}, n={len(values)})",
        )
        lines.append(f"<div>{svg}</div>")

    if report.monitor:
        lines.append("<h2>Live monitor</h2>")
        peak = report.monitor.get("peak_rss_bytes")
        samples = report.monitor.get("samples")
        if peak is not None:
            lines.append(
                f"<p>Peak RSS {peak / (1024 * 1024):.1f} MiB over "
                f"{samples} samples "
                f"(every {report.monitor.get('interval_s', 0)}s).</p>"
            )
        stage_peaks = report.monitor.get("stage_peak_rss_bytes") or {}
        if stage_peaks:
            lines.append("<table><tr><th>stage</th><th>peak RSS</th></tr>")
            for name in sorted(stage_peaks):
                lines.append(
                    f"<tr><td>{_html.escape(str(name))}</td>"
                    f"<td>{stage_peaks[name] / (1024 * 1024):.1f} MiB</td></tr>"
                )
            lines.append("</table>")
        progress = report.monitor.get("progress") or []
        if progress:
            lines.append(
                "<table><tr><th>loop</th><th>done</th><th>total</th>"
                "<th>unit</th><th>finished</th></tr>"
            )
            for task in progress:
                lines.append(
                    f"<tr><td>{_html.escape(str(task.get('name')))}</td>"
                    f"<td>{task.get('done')}</td><td>{task.get('total')}</td>"
                    f"<td>{_html.escape(str(task.get('unit')))}</td>"
                    f"<td>{task.get('finished')}</td></tr>"
                )
            lines.append("</table>")

    lines.append("<h2>Span tree</h2>")
    for root in report.span_tree():
        lines.append("<div>")
        _render_span_node(root, lines)
        lines.append("</div>")

    lines.append(f"<h2>Events ({len(report.events)})</h2><table>")
    lines.append("<tr><th>t (s)</th><th>type</th><th>fields</th></tr>")
    for event in report.events:
        fields = {
            k: v for k, v in event.items() if k not in ("schema", "seq", "t", "type")
        }
        lines.append(
            f"<tr><td>{event.get('t', 0.0):.3f}</td>"
            f"<td>{_html.escape(str(event.get('type')))}</td>"
            f"<td>{_html.escape(json.dumps(fields, sort_keys=True))}</td></tr>"
        )
    lines.append("</table></body></html>")
    text = "\n".join(lines)
    if path is not None:
        with open(path, "w") as handle:
            handle.write(text)
    return text
