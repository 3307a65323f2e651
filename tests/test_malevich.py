import itertools
import math
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinqubit import (
    DomainError,
    MalevichTriada,
    ProbabilityTriple,
    render_svg,
    triada_sides,
)
from coinqubit.malevich import SIDE_MAX
from coinqubit.states import SPILL_TOL
from conftest import random_valid

DATA_DIR = pathlib.Path(__file__).parent / "data"
probs = st.floats(min_value=0.0, max_value=1.0)


class TestSides:
    @pytest.mark.parametrize(
        "triple, expected",
        [
            ((0.5, 0.5, 0.5), (math.sqrt(0.5),) * 3),
            ((1.0, 1.0, 1.0), (math.sqrt(2.0),) * 3),
            ((0.5, 0.5, 1.0), (math.sqrt(0.5), math.sqrt(1.5), math.sqrt(0.5))),
        ],
    )
    def test_fixtures(self, triple, expected):
        sides = triada_sides(ProbabilityTriple(*triple)).sides()
        assert sides == pytest.approx(expected, abs=1e-12)

    def test_a_radicand_just_below_zero_is_clamped(self):
        # L1's radicand rounds to about -1.04e-17, inside SPILL_TOL; math.sqrt
        # would raise on it unclamped
        p1, p2 = 0.9999999912882298, 8.070268367197516e-09
        radicand = 2 + 2 * p1 * p1 - 4 * p1 - 2 * p2 + 2 * p2 * p2 + 2 * p1 * p2
        assert -SPILL_TOL < radicand < 0.0
        assert triada_sides(ProbabilityTriple(p1, p2, 0.5)).L1 == 0.0

    @given(p=st.tuples(probs, probs, probs))
    @settings(max_examples=2000, deadline=None)
    def test_square_areas(self, p):
        """L1^2 + L2^2 + L3^2 = 3/2 + 4 sum x_i^2 + 2 sum x_i x_j, x_i = p_i - 1/2."""
        x1, x2, x3 = (v - 0.5 for v in p)
        sides = triada_sides(ProbabilityTriple(*p)).sides()
        expected = (1.5 + 4 * (x1 * x1 + x2 * x2 + x3 * x3)
                    + 2 * (x1 * x2 + x2 * x3 + x3 * x1))
        assert sum(s * s for s in sides) == pytest.approx(expected, rel=0, abs=1e-14)

    @pytest.mark.parametrize("triple, total", [
        ((0.5 + 0.5 / math.sqrt(3.0),) * 3, 3.0),  # the largest inside the ball
        ((0.0, 0.0, 0.0), 6.0),  # a cube corner
    ])
    def test_square_areas_at_their_extremes(self, triple, total):
        sides = triada_sides(ProbabilityTriple(*triple)).sides()
        assert sum(s * s for s in sides) == pytest.approx(total, rel=0, abs=1e-14)

    def test_corner_maximum(self):
        # exhaustive corner check: the side polynomial peaks at sqrt(2)
        worst = max(
            max(triada_sides(ProbabilityTriple(*corner)).sides())
            for corner in itertools.product((0.0, 1.0), repeat=3)
        )
        assert worst == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_sides_bounded(self, rng):
        for _ in range(1000):
            for side in triada_sides(random_valid(rng)).sides():
                assert 0.0 <= side <= math.sqrt(3.0)

    def test_cyclic_permutation_covariance(self, rng):
        for _ in range(500):
            p = random_valid(rng)
            rotated = ProbabilityTriple(p.p2, p.p3, p.p1)
            l1, l2, l3 = triada_sides(p).sides()
            assert triada_sides(rotated).sides() == pytest.approx(
                (l2, l3, l1), abs=1e-12
            )

    @pytest.mark.parametrize("sides, message", [
        ((2.0, 0, 0), r"^L1 must lie in \[0, sqrt\(2\)\], got 2.0$"),
        ((0, -0.1, 0), r"^L2 must lie in \[0, sqrt\(2\)\], got -0.1$"),
        ((-0.1, 0, 0), r"^L1 must lie in \[0, sqrt\(2\)\], got -0.1$"),
    ])
    def test_constructor_rejects_a_side_off_the_range(self, sides, message):
        with pytest.raises(DomainError, match=message):
            MalevichTriada(*sides)

    def test_continuity_probe(self):
        # finite-difference Lipschitz probe on a grid: no jumps
        eps = 1e-6
        grid = [0.05, 0.25, 0.5, 0.75, 0.95]
        for p1, p2, p3 in itertools.product(grid, repeat=3):
            base = triada_sides(ProbabilityTriple(p1, p2, p3)).sides()
            bumped = triada_sides(
                ProbabilityTriple(p1 + eps, p2 + eps, p3 + eps)
            ).sides()
            for a, b in zip(base, bumped):
                assert abs(a - b) <= 20.0 * eps


class TestRender:
    def test_deterministic(self):
        t = triada_sides(ProbabilityTriple(0.3, 0.8, 0.6))
        assert render_svg(t, 120.0, labels=True) == render_svg(
            t, 120.0, labels=True
        )

    def test_three_rects_at_scale(self):
        svg = render_svg(MalevichTriada(1.0, 1.0, 1.0), scale=100.0)
        assert svg.count("<rect") == 3
        assert svg.count('width="100.000" height="100.000"') == 3

    def test_zero_side_square_suppressed(self):
        svg = render_svg(MalevichTriada(0.0, 1.0, 1.0), scale=100.0)
        assert svg.count("<rect") == 2
        assert 'fill="black"' not in svg

    def test_white_square_is_stroked(self):
        svg = render_svg(MalevichTriada(1.0, 1.0, 1.0))
        assert 'fill="white" stroke="black" stroke-width="1"' in svg

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            render_svg(MalevichTriada(1.0, 1.0, 1.0), scale=0.0)

    @given(sides=st.lists(st.one_of(st.just(0.0), st.floats(0.0, SIDE_MAX)),
                          min_size=3, max_size=3),
           log_scale=st.floats(-3.0, 3.0), labels=st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_matches_the_f_string_rendering(self, sides, log_scale, labels):
        triada = MalevichTriada(*sides)
        scale = 10.0 ** log_scale
        assert render_svg(triada, scale, labels) == _old_render_svg(
            triada, scale, labels)

    @pytest.mark.parametrize("labels", [False, True])
    def test_overflow_matches_the_f_string_rendering(self, labels):
        triada = MalevichTriada(1.0, SIDE_MAX, 0.5)
        with pytest.raises(ValueError) as new:
            render_svg(triada, 1e308, labels)
        with pytest.raises(ValueError) as old:
            _old_render_svg(triada, 1e308, labels)
        assert str(new.value) == str(old.value) == "scale 1e+308 overflows the SVG coordinates"

    def test_golden_file(self):
        t = triada_sides(ProbabilityTriple(0.5, 0.5, 0.5))
        golden = (DATA_DIR / "triada_mixed_scale100_labels.svg").read_text(
            encoding="utf-8"
        )
        assert render_svg(t, scale=100.0, labels=True) == golden


def _old_render_svg(triada, scale=100.0, labels=False):
    """render_svg as it was written with f-strings, before its printf
    templates."""
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"scale must be finite and positive, got {scale!r}")
    def fmt(value):
        return f"{value:.3f}"

    margin = 10.0
    sides = [side * scale for side in triada.sides()]
    gap = 0.25 * max(triada.sides()) * scale
    baseline = margin + max(sides)
    content_width = sum(sides) + 2.0 * gap
    width = content_width + 2.0 * margin
    height = baseline + (22.0 if labels else 0.0) + margin
    if not (math.isfinite(width) and math.isfinite(height)):
        raise ValueError(f"scale {scale!r} overflows the SVG coordinates")
    body = []
    x = margin
    for size, fill, side in zip(sides, ("black", "red", "white"), triada.sides()):
        if size > 0.0:
            stroke = ' stroke="black" stroke-width="1"' if fill == "white" else ""
            body.append(
                f'<rect x="{fmt(x)}" y="{fmt(baseline - size)}" '
                f'width="{fmt(size)}" height="{fmt(size)}" '
                f'fill="{fill}"{stroke}/>'
            )
            if labels:
                body.append(
                    f'<text x="{fmt(x + size / 2.0)}" '
                    f'y="{fmt(baseline + 14.0)}" text-anchor="middle" '
                    f'font-family="sans-serif" font-size="10">'
                    f"{side:.5f}</text>"
                )
        x += size + gap
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{fmt(width)}" height="{fmt(height)}" '
        f'viewBox="0 0 {fmt(width)} {fmt(height)}">',
        *body,
        "</svg>",
    ]
    return "\n".join(lines) + "\n"
