"""Malevich triada: three squares encoding a coin triple.

Each pair of adjacent coin probabilities fixes one square side:

    L1 = sqrt(2 + 2*p1^2 - 4*p1 - 2*p2 + 2*p2^2 + 2*p1*p2)

and cyclically for L2 (p2, p3) and L3 (p3, p1).  The squares are drawn
black, red and white in that order.  The side polynomial is nonnegative on
the unit square and reaches its maximum sqrt(2) at corners such as
(0, 0); tiny negative radicands from floating error are clamped.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .states import SIDE_TOL, SPILL_TOL, ProbabilityTriple, _Frozen, _set

SIDE_MAX = math.sqrt(2.0)

# Square color assignment L1/L2/L3 -> black/red/white is our convention;
# only the set of three colors is fixed.
_FILLS = ("black", "red", "white")
_MARGIN = 10.0
# printf templates: %.3f and %.5f convert as the format specs .3f and .5f
# do, so coordinates are fixed-point and the output is byte-stable
_SVG_TAG = ('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            'width="%.3f" height="%.3f" viewBox="0 0 %.3f %.3f">')
_RECT = '<rect x="%.3f" y="%.3f" width="%.3f" height="%.3f" fill="%s"%s/>'
_LABEL = ('<text x="%.3f" y="%.3f" text-anchor="middle" '
          'font-family="sans-serif" font-size="10">%.5f</text>')


class MalevichTriada(_Frozen):
    """Side lengths of the black, red and white squares."""

    __slots__ = ("L1", "L2", "L3")

    def __init__(self, L1: float, L2: float, L3: float) -> None:
        for name, value in zip(self.__slots__, (L1, L2, L3)):
            value = float(value)
            if not 0.0 <= value <= SIDE_MAX + SIDE_TOL:
                raise DomainError(
                    f"{name} must lie in [0, sqrt(2)], got {value!r}"
                )
            _set(self, name, value)

    def sides(self) -> tuple[float, float, float]:
        return self.L1, self.L2, self.L3


def _side(a: float, b: float) -> float:
    radicand = 2.0 + 2.0 * a * a - 4.0 * a - 2.0 * b + 2.0 * b * b + 2.0 * a * b
    if radicand < 0.0:
        if not radicand > -SPILL_TOL:
            raise ArithmeticError(
                f"side radicand {radicand} is negative beyond floating error"
            )
        radicand = 0.0
    return math.sqrt(radicand)


def triada_sides(p: ProbabilityTriple) -> MalevichTriada:
    """Side lengths for a triple; classical triples are allowed."""
    return MalevichTriada(
        _side(p.p1, p.p2), _side(p.p2, p.p3), _side(p.p3, p.p1)
    )


def render_svg(
    triada: MalevichTriada, scale: float = 100.0, labels: bool = False
) -> str:
    """Deterministic SVG document for a triada.

    The squares sit left to right (black, red, white), bottom-aligned on a
    common baseline, separated by a gap of 0.25 * max(L) * scale.  The
    white square is stroked black so it stays visible.  Squares of zero
    side are suppressed.  Identical inputs yield byte-identical output.
    """
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"scale must be finite and positive, got {scale!r}")
    sides = [side * scale for side in triada.sides()]
    gap = 0.25 * max(triada.sides()) * scale
    baseline = _MARGIN + max(sides)
    content_width = sum(sides) + 2.0 * gap
    width = content_width + 2.0 * _MARGIN
    height = baseline + (22.0 if labels else 0.0) + _MARGIN
    # Every x lies in [0, width] and every y in [0, height].
    if not (math.isfinite(width) and math.isfinite(height)):
        raise ValueError(f"scale {scale!r} overflows the SVG coordinates")

    body = []
    x = _MARGIN
    for size, fill, side in zip(sides, _FILLS, triada.sides()):
        if size > 0.0:
            stroke = ' stroke="black" stroke-width="1"' if fill == "white" else ""
            body.append(_RECT % (x, baseline - size, size, size, fill, stroke))
            if labels:
                body.append(_LABEL % (x + size / 2.0, baseline + 14.0, side))
        x += size + gap

    lines = [_SVG_TAG % (width, height, width, height), *body, "</svg>"]
    return "\n".join(lines) + "\n"
