"""Dependency-free SVG polyline plots (log-energy traces vs the decay bound)."""

from __future__ import annotations

import math

import numpy as np

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")

#: Plot width and height in pixels, and the most ticks an axis gets.
WIDTH, HEIGHT, TICKS = 720, 480, 5


def _ticks(lo: float, hi: float):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / TICKS))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= TICKS:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * span:
        out.append(t)
        t += step
    return out


def line_plot(path, series, title="", xlabel="", ylabel="") -> None:
    """Write a WIDTH x HEIGHT SVG with one polyline per (xs, ys, label)
    triple; points whose y is not finite are left out.  The polylines are
    written point by point from the arrays, not joined in memory."""
    margin = 64
    series = [(np.asarray(xs, float), np.asarray(ys, float), label)
              for xs, ys, label in series]
    finite = [np.isfinite(ys) for _, ys, _ in series]
    xs_all = [xs for xs, _, _ in series if len(xs)]
    ys_all = [ys[keep] for (_, ys, _), keep in zip(series, finite) if keep.any()]
    if xs_all and ys_all:
        x_lo, x_hi = float(min(map(np.min, xs_all))), float(max(map(np.max, xs_all)))
        y_lo, y_hi = float(min(map(np.min, ys_all))), float(max(map(np.max, ys_all)))
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (WIDTH - 2 * margin)

    def py(y):
        return HEIGHT - margin - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{WIDTH - 2 * margin}" '
        f'height="{HEIGHT - 2 * margin}" fill="none" stroke="black"/>',
    ]
    if title:
        parts.append(f'<text x="{WIDTH / 2}" y="{margin / 2}" text-anchor="middle" '
                     f'font-size="16">{title}</text>')
    for tx in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{px(tx):.1f}" y1="{HEIGHT - margin}" '
                     f'x2="{px(tx):.1f}" y2="{HEIGHT - margin + 5}" stroke="black"/>')
        parts.append(f'<text x="{px(tx):.1f}" y="{HEIGHT - margin + 18}" '
                     f'text-anchor="middle" font-size="11">{tx:g}</text>')
    for ty in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{margin - 5}" y1="{py(ty):.1f}" '
                     f'x2="{margin}" y2="{py(ty):.1f}" stroke="black"/>')
        parts.append(f'<text x="{margin - 8}" y="{py(ty):.1f}" text-anchor="end" '
                     f'dominant-baseline="middle" font-size="11">{ty:g}</text>')
    if xlabel:
        parts.append(f'<text x="{WIDTH / 2}" y="{HEIGHT - 12}" text-anchor="middle" '
                     f'font-size="13">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{HEIGHT / 2}" text-anchor="middle" '
                     f'font-size="13" transform="rotate(-90 16 {HEIGHT / 2})">{ylabel}</text>')
    with open(path, "w") as fh:
        fh.writelines(part + "\n" for part in parts)
        for idx, ((xs, ys, label), keep) in enumerate(zip(series, finite)):
            color = _COLORS[idx % len(_COLORS)]
            n = min(len(xs), len(ys))
            keep = keep[:n]
            if keep.any():
                fh.write('<polyline points="')
                pts = zip(px(xs[:n][keep]), py(ys[:n][keep]))
                x, y = next(pts)
                fh.write(f"{x:.2f},{y:.2f}")
                fh.writelines(f" {x:.2f},{y:.2f}" for x, y in pts)
                fh.write(f'" fill="none" stroke="{color}" stroke-width="1.5"/>\n')
            if label:
                ly = margin + 18 + 16 * idx
                fh.write(f'<line x1="{WIDTH - margin - 120}" y1="{ly - 4}" '
                         f'x2="{WIDTH - margin - 96}" y2="{ly - 4}" stroke="{color}" '
                         f'stroke-width="1.5"/>\n')
                fh.write(f'<text x="{WIDTH - margin - 90}" y="{ly}" '
                         f'font-size="12">{label}</text>\n')
        fh.write("</svg>\n")
