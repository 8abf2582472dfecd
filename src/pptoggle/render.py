"""ASCII and SVG pictures of configurations.

The ASCII grids follow the usual matrix picture: entries with row 1 on
top, leg-determined values shown bare, dots where a one-leg shape masks the
quadrant. SVG output is a static diagram (boxes plus entry labels).
"""

from __future__ import annotations

from .bijections import stabilization_index
from .configurations import (WALL, HookTableau, OneLegRPP, OneLegSPP,
                             PlanePartition, TwoLegRPP, TwoLegSPP)
from .errors import DomainError
from .partitions import part


# The most cells a picture's rectangle may hold. A picture is the requested
# output, so it is sized by the object, but one sized by a huge part or a
# far cell would not fit in memory; it is refused before any cell is built.
MAX_PICTURE_CELLS = 1 << 18


def _fits(rows: int, cols: int):
    if rows * cols > MAX_PICTURE_CELLS:
        raise DomainError(f"a {rows}x{cols} picture is over the cap of "
                          f"{MAX_PICTURE_CELLS} cells")


def _grid_lines(cells: dict) -> str:
    if not cells:
        return "(empty)"
    top, bottom = min(i for i, _ in cells), max(i for i, _ in cells)
    left, right = min(j for _, j in cells), max(j for _, j in cells)
    _fits(bottom - top + 1, right - left + 1)
    width = max(len(str(v)) for v in cells.values())
    lines = []
    for i in range(top, bottom + 1):
        line = []
        for j in range(left, right + 1):
            v = cells.get((i, j))
            line.append(("." if v is None else str(v)).rjust(width))
        lines.append(" ".join(line))
    return "\n".join(lines)


def _picture(cfg, rows: range, cols: range) -> str:
    """The cells of rows x cols where cfg.at reads no WALL."""
    _fits(len(rows), len(cols))
    return _grid_lines({(i, j): v for i in rows for j in cols
                        if (v := cfg.at(i, j)) != WALL})


def render_ascii(cfg) -> str:
    if isinstance(cfg, PlanePartition):
        side = range(1, max([max(c) for c in cfg.entries], default=1) + 1)
        return _picture(cfg, side, side)
    if isinstance(cfg, OneLegSPP):
        shape = cfg.shape
        side = range(1, max([max(c) for c in cfg.entries]
                            + [len(shape), part(shape, 1)], default=1) + 1)
        return _picture(cfg, side, side)
    if isinstance(cfg, OneLegRPP):
        shape = cfg.shape
        return _picture(cfg, range(1, len(shape) + 1),
                        range(1, part(shape, 1) + 1))
    if isinstance(cfg, TwoLegSPP):
        # the square of side N + 2, N the stabilisation index, which the
        # legs' lengths size, not their parts: the two rows and columns
        # past [1,N]^2 show the leg tails
        side = range(1, stabilization_index(cfg) + 3)
        return _picture(cfg, side, side)
    if isinstance(cfg, TwoLegRPP):
        lam, mu = cfg.legs
        ext = max([0] + [abs(i) + abs(j) for (i, j) in cfg.deficit])
        reach = 1 + ext + max(len(lam), len(mu), 1)
        side = range(1 - reach, reach + 1)
        return _picture(cfg, side, side)
    if isinstance(cfg, HookTableau):
        return _grid_lines(dict(cfg.values))
    raise DomainError(f"cannot render {type(cfg).__name__}")


def render_svg(cfg) -> str:
    """Static SVG of the ASCII grid (one square per shown cell)."""
    text = render_ascii(cfg)
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
