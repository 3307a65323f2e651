from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from typing import TYPE_CHECKING

import pytest

from coinqubit import ProbabilityTriple

# numpy is imported by the helpers that need it, so the tests that do not
# (marked by the absence of needs_numpy) run where numpy is not installed
if TYPE_CHECKING:
    import numpy as np


def random_pure(rng: np.random.Generator, z_margin: float = 0.0) -> ProbabilityTriple:
    """Uniform pure triple (a point on the ball surface).

    z_margin > 0 keeps p3 away from the poles: p3 in
    (z_margin, 1 - z_margin).
    """
    z = rng.uniform(-1.0 + 2.0 * z_margin, 1.0 - 2.0 * z_margin)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    r = math.sqrt(1.0 - z * z) / 2.0
    return ProbabilityTriple(
        0.5 + r * math.cos(phi), 0.5 + r * math.sin(phi), 0.5 + z / 2.0
    )


def random_quantum(rng: np.random.Generator) -> ProbabilityTriple:
    """Uniform triple inside the correlation ball."""
    import numpy as np

    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    radius = 0.5 * rng.uniform() ** (1.0 / 3.0)
    point = 0.5 + radius * direction
    return ProbabilityTriple(*point)


def random_valid(rng: np.random.Generator) -> ProbabilityTriple:
    """Uniform triple in the cube (classical triples included)."""
    return ProbabilityTriple(*rng.uniform(size=3))


@pytest.fixture
def rng() -> np.random.Generator:
    import numpy as np

    return np.random.default_rng(20260823)


def exact_fma(a: float, b: float, c: float) -> float:
    """a*b + c rounded once, from exact rational arithmetic: the result an
    IEEE fused multiply-add returns, signed zeros and overflow included."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return a * b + c  # the product is inf or nan, as IEEE's is
    if not math.isfinite(c):
        return c
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    if exact == 0:
        # a zero sum is -0 only where the product and c are both -0
        product_sign = math.copysign(1.0, a) * math.copysign(1.0, b)
        both_negative = ((a == 0 or b == 0) and product_sign < 0
                         and math.copysign(1.0, c) < 0)
        return -0.0 if both_negative else 0.0
    try:
        return float(exact)  # rounds once; an underflow keeps its sign
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def exact_cmul(x: complex, y: complex) -> complex:
    """x*y with each part one exactly rounded fused multiply-add."""
    return complex(exact_fma(x.real, y.real, -(x.imag * y.imag)),
                   exact_fma(x.real, y.imag, x.imag * y.real))


@functools.cache
def _numpy_rounds_fused() -> bool:
    """Whether numpy's complex128 multiply, np.vdot and 2x2 complex matmul
    round with fused multiply-adds on this machine (as with AVX2 or AVX-512
    kernels), which the plain-float oracle and quantum_mean reproduce."""
    import numpy as np

    r = random.Random(1803)
    for _ in range(200):
        x, y, u, v = (complex(r.uniform(-1, 1), r.uniform(-1, 1)) for _ in range(4))
        product = np.multiply(np.array([x, u]), np.array([y, v])).tolist()
        norm2 = float(np.vdot(np.array([x, y]), np.array([x, y])).real)
        d00 = float((np.array([[x, y], [u, v]]) @ np.array([[u, x], [v, y]]))[0, 0].real)
        if (product != [exact_cmul(x, y), exact_cmul(u, v)]
                or norm2 != exact_fma(y.real, y.real, x.real * x.real)
                + exact_fma(y.imag, y.imag, x.imag * x.imag)
                or d00 != exact_fma(y.real, v.real, exact_fma(
                    -y.imag, v.imag, exact_fma(x.real, u.real, -(x.imag * u.imag))))):
            return False
    return True


def __getattr__(name: str):
    """``needs_fused_numpy``, a skip mark for tests that compare with live
    numpy (elsewhere their exact counterparts run), is built on its first
    import, since deciding it runs numpy."""
    if name != "needs_fused_numpy":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return pytest.mark.skipif(
        not _numpy_rounds_fused(),
        reason="numpy does not round complex products, np.vdot or 2x2 matmul with "
        "fused multiply-adds here, so the printed bits are not numpy's",
    )
