"""Dependency-free SVG polyline plots (log-energy traces vs the decay bound)."""

from __future__ import annotations

import math

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
    """Write a WIDTH x HEIGHT SVG with one polyline per (xs, ys, label) triple."""
    margin = 64
    xs_all = [x for xs, _, _ in series for x in xs]
    ys_all = [y for _, ys, _ in series for y in ys if math.isfinite(y)]
    if not xs_all or not ys_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
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
    for idx, (xs, ys, label) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(
            f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys) if math.isfinite(y)
        )
        if pts:
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                         f'stroke-width="1.5"/>')
        if label:
            ly = margin + 18 + 16 * idx
            parts.append(f'<line x1="{WIDTH - margin - 120}" y1="{ly - 4}" '
                         f'x2="{WIDTH - margin - 96}" y2="{ly - 4}" stroke="{color}" '
                         f'stroke-width="1.5"/>')
            parts.append(f'<text x="{WIDTH - margin - 90}" y="{ly}" '
                         f'font-size="12">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
