"""Self-contained SVG line charts from experiment CSVs.

One series per value of the series column; points aggregate all rows
sharing (series, x) into a mean with a shaded 95% confidence band.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from xml.sax.saxutils import escape

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")


@dataclass(frozen=True)
class PlotSpec:
    x: str
    y: str
    series: str
    out: str
    title: str = ""
    logx: bool = False


def _aggregate(rows: list[dict], spec: PlotSpec) -> dict[str, list[tuple]]:
    """series -> sorted [(x, mean, low, high)], at least one point per
    series, skipping cells that are not finite numbers and, on a log x axis,
    x values that are not positive."""
    buckets: dict[tuple[str, float], list[float]] = {}
    order: list[str] = []
    for row in rows:
        name = row.get(spec.series, "")
        try:
            x = float(row[spec.x])
            y = float(row[spec.y])
        except (KeyError, TypeError, ValueError):
            continue
        if not (math.isfinite(x) and math.isfinite(y)) or (spec.logx and x <= 0):
            continue
        if name not in order:
            order.append(name)
        buckets.setdefault((name, x), []).append(y)
    out: dict[str, list[tuple]] = {name: [] for name in order}
    for (name, x), ys in buckets.items():
        n = len(ys)
        mean = sum(ys) / n
        if n > 1:
            var = sum((v - mean) ** 2 for v in ys) / (n - 1)
            half = 1.96 * math.sqrt(var / n)
        else:
            half = 0.0
        out[name].append((x, mean, mean - half, mean + half))
    for pts in out.values():
        pts.sort()
    return out


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    """Round values about (hi - lo) / count apart from lo up to hi > lo;
    none when a step is too small to advance a float on the way."""
    raw = (hi - lo) / count
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        if t + step == t:
            return []
        ticks.append(round(t, 10))
        t += step
    return ticks


def _widen(lo: float, hi: float) -> tuple[float, float]:
    """lo..hi widened on each side by 0.1% of its larger end (by 1 at zero),
    which leaves room for ticks at any magnitude."""
    d = 0.001 * max(abs(lo), abs(hi)) or 1.0
    return lo - d, hi + d


def emit_plot(csv_path: str, spec: PlotSpec) -> str:
    """Render the chart and write it to spec.out; returns the SVG text."""
    with open(csv_path, "r", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    series = _aggregate(rows, spec)
    if not series:
        positive = " with positive x on a log axis" if spec.logx else ""
        raise ValueError(f"no numeric data{positive} for x={spec.x!r} y={spec.y!r}")

    width, height = 720, 460
    ml, mr, mt, mb = 70, 160, 50, 55
    cw, ch = width - ml - mr, height - mt - mb

    xs = [p[0] for pts in series.values() for p in pts]
    ylo = min(p[2] for pts in series.values() for p in pts)
    yhi = max(p[3] for pts in series.values() for p in pts)
    if spec.logx:
        xs = [math.log10(x) for x in xs]
    xlo, xhi = min(xs), max(xs)
    if xhi == xlo:
        xlo, xhi = _widen(xlo, xhi)
    pad = 0.05 * (yhi - ylo or 1.0)
    ylo, yhi = ylo - pad, yhi + pad
    yticks = _ticks(ylo, yhi) if yhi > ylo else []
    if not yticks:  # the padded range is a few float spacings wide at most
        ylo, yhi = _widen(ylo, yhi)
        yticks = _ticks(ylo, yhi)

    def sx(x: float) -> float:
        v = math.log10(x) if spec.logx else x
        return ml + (v - xlo) / (xhi - xlo) * cw

    def sy(y: float) -> float:
        return mt + ch - (y - ylo) / (yhi - ylo) * ch

    svg = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
           f'font-family="sans-serif">',
           f'<rect width="{width}" height="{height}" fill="#ffffff"/>']
    if spec.title:
        svg.append(f'<text x="{width/2:.1f}" y="26" text-anchor="middle" '
                   f'font-size="16" fill="#222">{escape(spec.title)}</text>')

    for t in yticks:
        y = sy(t)
        svg.append(f'<line x1="{ml}" y1="{y:.1f}" x2="{ml+cw}" y2="{y:.1f}" '
                   f'stroke="#e5e5e5" stroke-width="1"/>')
        svg.append(f'<text x="{ml-8}" y="{y+4:.1f}" text-anchor="end" '
                   f'font-size="11" fill="#555">{t:g}</text>')
    xticks = sorted({p[0] for pts in series.values() for p in pts})
    if len(xticks) > 8:
        xticks = _ticks(xticks[0], xticks[-1], 6)
    for t in xticks:
        if spec.logx and t <= 0:
            continue
        x = sx(t)
        svg.append(f'<line x1="{x:.1f}" y1="{mt+ch}" x2="{x:.1f}" y2="{mt+ch+4}" '
                   f'stroke="#555"/>')
        svg.append(f'<text x="{x:.1f}" y="{mt+ch+18}" text-anchor="middle" '
                   f'font-size="11" fill="#555">{t:g}</text>')
    svg.append(f'<text x="{ml+cw/2:.1f}" y="{height-12}" text-anchor="middle" '
               f'font-size="12" fill="#333">{escape(spec.x)}</text>')
    svg.append(f'<text x="18" y="{mt+ch/2:.1f}" text-anchor="middle" font-size="12" '
               f'fill="#333" transform="rotate(-90,18,{mt+ch/2:.1f})">'
               f'{escape(spec.y)}</text>')

    for i, (name, pts) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        if len(pts) > 1 and any(p[3] > p[2] for p in pts):
            upper = " ".join(f"{sx(p[0]):.1f},{sy(p[3]):.1f}" for p in pts)
            lower = " ".join(f"{sx(p[0]):.1f},{sy(p[2]):.1f}" for p in reversed(pts))
            svg.append(f'<polygon points="{upper} {lower}" fill="{color}" '
                       f'fill-opacity="0.15" stroke="none"/>')
        line = " ".join(f"{sx(p[0]):.1f},{sy(p[1]):.1f}" for p in pts)
        svg.append(f'<polyline points="{line}" fill="none" stroke="{color}" '
                   f'stroke-width="2"/>')
        for p in pts:
            svg.append(f'<circle cx="{sx(p[0]):.1f}" cy="{sy(p[1]):.1f}" r="3" '
                       f'fill="{color}"/>')
        ly = mt + 16 + 18 * i
        lx = ml + cw + 12
        svg.append(f'<line x1="{lx}" y1="{ly-4}" x2="{lx+22}" y2="{ly-4}" '
                   f'stroke="{color}" stroke-width="2"/>')
        svg.append(f'<text x="{lx+28}" y="{ly}" font-size="11" fill="#333">'
                   f'{escape(name)}</text>')

    svg.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt+ch}" stroke="#333"/>')
    svg.append(f'<line x1="{ml}" y1="{mt+ch}" x2="{ml+cw}" y2="{mt+ch}" stroke="#333"/>')
    svg.append('</svg>')
    text = "\n".join(svg) + "\n"
    if spec.out:
        with open(spec.out, "w", encoding="utf-8") as f:
            f.write(text)
    return text
