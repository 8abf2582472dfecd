"""ASCII and SVG pictures of configurations.

The ASCII grids follow the usual matrix picture: entries with row 1 on
top, leg-determined values shown bare, dots where a one-leg shape masks the
quadrant. SVG output is a static diagram (boxes plus entry labels).
"""

from __future__ import annotations

from .configurations import (HookTableau, OneLegRPP, OneLegSPP, PlanePartition,
                             TwoLegRPP, TwoLegSPP, leg_reach, two_leg_ceiling)
from .errors import DomainError
from .partitions import contains, part


def _grid_lines(cells: dict, blank=".") -> str:
    if not cells:
        return "(empty)"
    rows = sorted({i for i, _ in cells})
    cols = sorted({j for _, j in cells})
    width = max(len(str(v)) for v in cells.values())
    lines = []
    for i in range(rows[0], rows[-1] + 1):
        line = []
        for j in range(cols[0], cols[-1] + 1):
            v = cells.get((i, j))
            line.append((blank if v is None else str(v)).rjust(width))
        lines.append(" ".join(line))
    return "\n".join(lines)


def render_ascii(cfg, span: int | None = None) -> str:
    if isinstance(cfg, PlanePartition):
        reach = span or max([max(c) for c in cfg.entries], default=1)
        return _grid_lines({(i, j): cfg.at(i, j)
                            for i in range(1, reach + 1)
                            for j in range(1, reach + 1)})
    if isinstance(cfg, OneLegSPP):
        reach = span or max([max(c) for c in cfg.entries]
                            + [len(cfg.shape), part(cfg.shape, 1)], default=1)
        return _grid_lines({(i, j): cfg.at(i, j)
                            for i in range(1, reach + 1)
                            for j in range(1, reach + 1)
                            if not contains(cfg.shape, (i, j))})
    if isinstance(cfg, OneLegRPP):
        return _grid_lines({(i, j): cfg.at(i, j)
                            for i in range(1, len(cfg.shape) + 1)
                            for j in range(1, cfg.shape[i - 1] + 1)})
    if isinstance(cfg, TwoLegSPP):
        reach = span or (2 + max([leg_reach(cfg.legs)]
                                 + [max(c) for c in cfg.excess or [(1, 1)]]))
        return _grid_lines({(i, j): cfg.at(i, j)
                            for i in range(1, reach + 1)
                            for j in range(1, reach + 1)})
    if isinstance(cfg, TwoLegRPP):
        lam, mu = cfg.legs
        ext = max([0] + [abs(i) + abs(j) for (i, j) in cfg.deficit])
        reach = span or (1 + ext + max(len(lam), len(mu), 1))
        cells = {}
        for i in range(1 - reach, reach + 1):
            for j in range(1 - reach, reach + 1):
                if two_leg_ceiling(cfg.legs, i, j) is not None:
                    cells[(i, j)] = cfg.at(i, j)
        return _grid_lines(cells)
    if isinstance(cfg, HookTableau):
        return _grid_lines(dict(cfg.values))
    raise DomainError(f"cannot render {type(cfg).__name__}")


def render_svg(cfg, span: int | None = None) -> str:
    """Static SVG of the ASCII grid (one square per shown cell)."""
    text = render_ascii(cfg, span)
    if text == "(empty)":
        return ('<svg xmlns="http://www.w3.org/2000/svg" width="40" height="40">'
                "<text x='4' y='20'>(empty)</text></svg>")
    rows = [line.split() for line in text.splitlines()]
    size = 28
    height = len(rows) * size
    width = max(len(r) for r in rows) * size
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{width + 2}" height="{height + 2}">']
    for r, row in enumerate(rows):
        for c, val in enumerate(row):
            x, y = 1 + c * size, 1 + r * size
            if val == ".":
                continue
            parts.append(f'<rect x="{x}" y="{y}" width="{size}" height="{size}" '
                         f'fill="white" stroke="black"/>')
            parts.append(f'<text x="{x + size // 2}" y="{y + size // 2 + 4}" '
                         f'text-anchor="middle" font-size="12">{val}</text>')
    parts.append("</svg>")
    return "".join(parts)
