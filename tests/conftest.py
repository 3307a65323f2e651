from __future__ import annotations

import math
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
