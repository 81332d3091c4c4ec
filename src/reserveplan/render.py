"""Deterministic SVG maps of protection decisions with per-parcel count annotations.

Each panel paints an n x n grid, one cell per parcel: green when protected,
orange when not, annotated with that parcel's species counts. Two panels side
by side compare solutions and carry a caption stating how many parcels share
the same protection status. Output bytes depend only on the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from html import escape
from typing import Sequence

from .experiment import similarity
from .landscape import CountsGrid
from .solver import ReserveSolution

__all__ = ["PRESERVED_COLOR", "UNPRESERVED_COLOR", "Panel", "caption_text", "render_grid"]

PRESERVED_COLOR = "#2e8b57"
UNPRESERVED_COLOR = "#e8861e"

_CELL = 46.0
_MARGIN = 14.0
_TITLE_H = 22.0
_CAPTION_H = 26.0
_PANEL_GAP = 28.0

#: Fractional (x, y) slots inside a cell, keyed by species count.
_LAYOUTS: dict[int, tuple[tuple[float, float], ...]] = {
    1: ((0.5, 0.58),),
    2: ((0.5, 0.36), (0.5, 0.80)),
    5: ((0.26, 0.30), (0.74, 0.30), (0.5, 0.58), (0.26, 0.88), (0.74, 0.88)),
}

_FONT_SIZE = {1: 17.0, 2: 12.0, 5: 8.5}
_FALLBACK_FONT_SIZE = 9.0


@dataclass(frozen=True, eq=False)
class Panel:
    """One solution with the counts grid used to annotate its parcels."""

    label: str
    counts: CountsGrid
    solution: ReserveSolution

    def __post_init__(self) -> None:
        if not isinstance(self.label, str):
            raise ValueError(f"panel label must be a string, got {type(self.label).__name__}")
        if self.solution.parcel_count != self.counts.parcel_count:
            raise ValueError(
                f"solution covers {self.solution.parcel_count} parcels, counts grid has "
                f"{self.counts.parcel_count}"
            )


def caption_text(panels: Sequence[Panel]) -> str | None:
    """Agreement caption for two panels, None for one; refuses other counts or mixed grid sizes."""
    if len(panels) not in (1, 2):
        raise ValueError(f"render one or two panels, got {len(panels)}")
    if len({p.counts.n for p in panels}) != 1:
        raise ValueError("panels must share the same grid size")
    if len(panels) == 1:
        return None
    a, b = panels
    same = similarity(a.solution, b.solution)
    return f"{same}/{a.counts.parcel_count} parcels share the same protection status"


def _annotations(values: list[int]) -> list[tuple[float, float, str, float]]:
    """(x-frac, y-frac, text, font-size) slots for one cell holding each species' count in ``values``."""
    layout = _LAYOUTS.get(len(values))
    if layout is None:
        # No per-species layout beyond the supported counts: one joined label.
        return [(0.5, 0.58, ",".join(str(v) for v in values), _FALLBACK_FONT_SIZE)]
    size = _FONT_SIZE[len(values)]
    return [(fx, fy, str(v), size) for (fx, fy), v in zip(layout, values)]


def _panel_svg(panel: Panel, x0: float, y0: float) -> list[str]:
    parts = [
        f'<text x="{x0 + panel.counts.n * _CELL / 2:.1f}" y="{y0 - 7:.1f}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="14" '
        f'fill="#222222">{escape(panel.label, quote=False)}</text>'
    ]
    n = panel.counts.n
    x = panel.solution.x.tolist()
    cells = panel.counts.matrix().T.tolist()  # per parcel, each species' count
    for row in range(n):
        for col in range(n):
            p = row * n + col
            fill = PRESERVED_COLOR if x[p] == 1 else UNPRESERVED_COLOR
            cx = x0 + col * _CELL
            cy = y0 + row * _CELL
            parts.append(
                f'<rect x="{cx:.1f}" y="{cy:.1f}" width="{_CELL:.1f}" height="{_CELL:.1f}" '
                f'fill="{fill}" stroke="#ffffff" stroke-width="1"/>'
            )
            for fx, fy, text, size in _annotations(cells[p]):
                parts.append(
                    f'<text x="{cx + fx * _CELL:.1f}" y="{cy + fy * _CELL:.1f}" '
                    f'text-anchor="middle" font-family="sans-serif" '
                    f'font-size="{size:g}" fill="#111111">{escape(text, quote=False)}</text>'
                )
    return parts


def render_grid(panels: Sequence[Panel]) -> str:
    """Render one or two panels, side by side, to a standalone SVG 1.1 document string."""
    caption = caption_text(panels)  # refuses the panels before anything is drawn
    n = panels[0].counts.n
    panel_w = panel_h = n * _CELL
    count = len(panels)
    width = 2 * _MARGIN + count * panel_w + (count - 1) * _PANEL_GAP
    height = _MARGIN + _TITLE_H + panel_h + (_CAPTION_H if caption else 0.0) + _MARGIN
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.1f}" height="{height:.1f}" viewBox="0 0 {width:.1f} {height:.1f}">',
        f'<rect x="0" y="0" width="{width:.1f}" height="{height:.1f}" fill="#ffffff"/>',
    ]
    y0 = _MARGIN + _TITLE_H
    for i, panel in enumerate(panels):
        x0 = _MARGIN + i * (panel_w + _PANEL_GAP)
        parts.extend(_panel_svg(panel, x0, y0))
    if caption:
        parts.append(
            f'<text x="{width / 2:.1f}" y="{y0 + panel_h + 18:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" fill="#222222">{escape(caption, quote=False)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
