"""Minimal SVG line charts; no plotting dependency, just polylines."""
from __future__ import annotations

import math

from ..core import ConfigError

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

WIDTH, HEIGHT = 720, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 30, 40, 50


def _escape(text: str) -> str:
    """text as SVG character data."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _finite_pairs(xs, ys):
    return [(float(x), float(y)) for x, y in zip(xs, ys)
            if math.isfinite(float(x)) and math.isfinite(float(y))]


def polyline_chart(series, title: str, xlabel: str, ylabel: str) -> str:
    """SVG document plotting (label, xs, ys) series; non-finite points are
    dropped.  The title, axis labels and series labels are plain text."""
    title, xlabel, ylabel = _escape(title), _escape(xlabel), _escape(ylabel)
    cleaned = [(label, _finite_pairs(xs, ys)) for label, xs, ys in series]
    pts = [p for _, pp in cleaned for p in pp]
    if pts:
        x_lo = min(p[0] for p in pts)
        x_hi = max(p[0] for p in pts)
        y_lo = min(p[1] for p in pts)
        y_hi = max(p[1] for p in pts)
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{title}</text>',
    ]
    # axes
    out.append(
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T + plot_h}" x2="{MARGIN_L + plot_w}" '
        f'y2="{MARGIN_T + plot_h}" stroke="black"/>'
    )
    out.append(
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
        f'y2="{MARGIN_T + plot_h}" stroke="black"/>'
    )
    for i in range(5):
        fx = x_lo + (x_hi - x_lo) * i / 4
        fy = y_lo + (y_hi - y_lo) * i / 4
        out.append(
            f'<text x="{sx(fx):.1f}" y="{MARGIN_T + plot_h + 18}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{fx:.4g}</text>'
        )
        out.append(
            f'<text x="{MARGIN_L - 8}" y="{sy(fy) + 4:.1f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{fy:.4g}</text>'
        )
    out.append(
        f'<text x="{MARGIN_L + plot_w / 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">{xlabel}</text>'
    )
    out.append(
        f'<text x="18" y="{MARGIN_T + plot_h / 2}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif" transform="rotate(-90 18 {MARGIN_T + plot_h / 2})">'
        f"{ylabel}</text>"
    )
    for idx, (label, pp) in enumerate(cleaned):
        color = PALETTE[idx % len(PALETTE)]
        if pp:
            coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pp)
            out.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.6"/>'
            )
        ly = MARGIN_T + 14 + 16 * idx
        lx = MARGIN_L + plot_w - 150
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 28}" y="{ly}" font-size="12" font-family="sans-serif">'
            f"{_escape(label)}</text>"
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_artifact(path: str, text: str) -> None:
    """Write text to path; a failed write is a ConfigError naming the path."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e.strerror}") from e


def write_chart(path: str, series, title: str, xlabel: str, ylabel: str) -> None:
    write_artifact(path, polyline_chart(series, title, xlabel, ylabel))
