"""Comparison tables and SVG line plots emitted from run directories.

A run directory is self-describing: metrics.json (method name, per-concept
metric report, optional erasure-vs-iteration timeline) plus optional
loss.csv and sweep.csv. Reports aggregate any number of runs into one CSV
(rows sorted by method name, values at 6 significant digits so reruns
byte-diff clean) and three line plots. SVG is emitted directly: textual,
diff-able, no plotting dependency.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Optional

from .analysis import MetricReport
from .errors import ConfigError
from .persistence import _atomic_open

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def fmt6(value) -> str:
    """Fixed 6-significant-digit rendering; empty string for missing."""
    if value is None:
        return ""
    return f"{float(value):.6g}"


def write_csv(path, header, rows) -> None:
    """Header plus rows, numbers at 6 significant digits, written atomically."""
    with _atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else fmt6(v) for v in row])


@dataclass(frozen=True)
class Series:
    label: str
    xs: tuple
    ys: tuple

    def __post_init__(self):
        if len(self.xs) != len(self.ys):
            raise ConfigError(f"series {self.label!r}: {len(self.xs)} x values "
                              f"vs {len(self.ys)} y values")


def _bounds(values):
    lo, hi = min(values), max(values)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    return lo, hi


def svg_line_plot(series, title, xlabel, ylabel, path) -> None:
    """One 640x400 polyline per series with axis ticks and a legend; the
    byte output depends only on the inputs."""
    width, height = 640, 400
    left, right, top, bottom = 64, 20, 36, 48
    plot_w, plot_h = width - left - right, height - top - bottom
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}">',
           f'<rect width="{width}" height="{height}" fill="white"/>',
           f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
           f'font-family="sans-serif" font-size="14">{title}</text>']

    drawn = [s for s in series if len(s.xs) > 0]
    if drawn:
        x_lo, x_hi = _bounds([x for s in drawn for x in s.xs])
        y_lo, y_hi = _bounds([y for s in drawn for y in s.ys])

        def px(x):
            return left + (x - x_lo) / (x_hi - x_lo) * plot_w

        def py(y):
            return top + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

        for k in range(5):
            xv = x_lo + k * (x_hi - x_lo) / 4
            yv = y_lo + k * (y_hi - y_lo) / 4
            gx, gy = px(xv), py(yv)
            out.append(f'<line x1="{gx:.1f}" y1="{top}" x2="{gx:.1f}" '
                       f'y2="{top + plot_h}" stroke="#dddddd"/>')
            out.append(f'<line x1="{left}" y1="{gy:.1f}" x2="{left + plot_w}" '
                       f'y2="{gy:.1f}" stroke="#dddddd"/>')
            out.append(f'<text x="{gx:.1f}" y="{top + plot_h + 16}" '
                       f'text-anchor="middle" font-family="sans-serif" '
                       f'font-size="10">{fmt6(round(xv, 10))}</text>')
            out.append(f'<text x="{left - 6}" y="{gy + 3:.1f}" '
                       f'text-anchor="end" font-family="sans-serif" '
                       f'font-size="10">{fmt6(round(yv, 10))}</text>')
        for i, s in enumerate(drawn):
            color = PALETTE[i % len(PALETTE)]
            pts = " ".join(f"{px(x):.2f},{py(y):.2f}"
                           for x, y in zip(s.xs, s.ys))
            out.append(f'<polyline points="{pts}" fill="none" '
                       f'stroke="{color}" stroke-width="1.5"/>')
            if len(s.xs) == 1:
                out.append(f'<circle cx="{px(s.xs[0]):.2f}" '
                           f'cy="{py(s.ys[0]):.2f}" r="3" fill="{color}"/>')
            ly = top + 14 + 14 * i
            out.append(f'<line x1="{left + plot_w - 110}" y1="{ly - 4}" '
                       f'x2="{left + plot_w - 94}" y2="{ly - 4}" '
                       f'stroke="{color}" stroke-width="2"/>')
            out.append(f'<text x="{left + plot_w - 90}" y="{ly}" '
                       f'font-family="sans-serif" font-size="11">'
                       f'{s.label}</text>')
    else:
        out.append(f'<text x="{width / 2:.1f}" y="{height / 2:.1f}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="12">no data</text>')

    out.append(f'<rect x="{left}" y="{top}" width="{plot_w}" '
               f'height="{plot_h}" fill="none" stroke="black"/>')
    out.append(f'<text x="{left + plot_w / 2:.1f}" y="{height - 10}" '
               f'text-anchor="middle" font-family="sans-serif" '
               f'font-size="12">{xlabel}</text>')
    out.append(f'<text x="16" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12" '
               f'transform="rotate(-90 16 {top + plot_h / 2:.1f})">'
               f'{ylabel}</text>')
    out.append("</svg>")
    with _atomic_open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


@dataclass
class RunRecord:
    """Everything a report needs from one run directory."""

    name: str
    method: str
    report: MetricReport
    timeline: Optional[Series]
    loss_rows: list
    sweep_rows: list


def _read_pairs(run_dir, name, x, y, x_type=float) -> list:
    """(x, y) per row of the run's CSV `name`; [] when the run has none."""
    path = os.path.join(run_dir, name)
    if not os.path.exists(path):
        return []
    try:
        with open(path, newline="") as fh:
            return [(x_type(r[x]), float(r[y])) for r in csv.DictReader(fh)]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"run {run_dir}: unreadable {name}: {exc!r}") from exc


def load_run(run_dir) -> RunRecord:
    """Read one run directory; a missing or unreadable metrics.json, or an
    unreadable loss.csv or sweep.csv, is a ConfigError naming the run."""
    metrics_path = os.path.join(run_dir, "metrics.json")
    if not os.path.exists(metrics_path):
        raise ConfigError(f"run {run_dir}: missing metrics.json")
    try:
        with open(metrics_path) as fh:
            raw = json.load(fh)
        method, timeline = raw["method"], raw.get("timeline")
        report = MetricReport.from_dict(raw["report"])
        timeline = Series(method, tuple(map(float, timeline["iterations"])),
                          tuple(map(float, timeline["rates"]))) \
            if timeline else None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"run {run_dir}: unreadable metrics.json: "
                          f"{exc!r}") from exc
    return RunRecord(name=os.path.basename(os.path.normpath(run_dir)),
                     method=method, report=report, timeline=timeline,
                     loss_rows=_read_pairs(run_dir, "loss.csv", "iteration",
                                           "total", int),
                     sweep_rows=_read_pairs(run_dir, "sweep.csv", "lambda",
                                            "consistency"))


def _mean(values):
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


def emit_report(records, out_dir) -> list:
    """Comparison CSV plus the three line plots of the loaded runs; returns
    the written paths."""
    records = sorted(records, key=lambda r: (r.method, r.name))
    written = []

    table = os.path.join(out_dir, "report.csv")
    rows = [(r.method,
             _mean(r.report.erasure_rates.values()),
             _mean(r.report.drift.values()),
             _mean(r.report.consistency.values())) for r in records]
    write_csv(table, ("method", "erasure_rate", "mmd2", "consistency"), rows)
    written.append(table)

    loss_plot = os.path.join(out_dir, "loss_vs_iteration.svg")
    svg_line_plot([Series(r.method, tuple(x for x, _ in r.loss_rows),
                          tuple(y for _, y in r.loss_rows))
                   for r in records if r.loss_rows],
                  "Total loss per iteration", "iteration", "loss", loss_plot)
    written.append(loss_plot)

    erasure_plot = os.path.join(out_dir, "erasure_vs_iteration.svg")
    svg_line_plot([r.timeline for r in records if r.timeline],
                  "Target erasure rate per iteration", "iteration",
                  "erasure rate", erasure_plot)
    written.append(erasure_plot)

    sweep_plot = os.path.join(out_dir, "consistency_vs_lambda.svg")
    svg_line_plot([Series(r.method, tuple(x for x, _ in r.sweep_rows),
                          tuple(y for _, y in r.sweep_rows))
                   for r in records if r.sweep_rows],
                  "Seed consistency per lambda", "lambda", "consistency",
                  sweep_plot)
    written.append(sweep_plot)
    return written
