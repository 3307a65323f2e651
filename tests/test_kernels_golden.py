"""Golden reprs of the library kernels on seeded pure pairs.

Every superposition path, ``superpose_checked``, ``fidelity``, ``purity``,
``render_svg`` and ``quantum_mean`` is pinned by the repr of its result (or
of the error it raised), so a rewrite of a kernel that changes one printed
bit fails here.  The inputs come from the seeded generator below: random
pure pairs, orthogonal pairs, pairs with a state at a pole, and pairs with
a state in the general rule's oracle hand-over band p3 in (1e-12, 1e-6].

Regenerate the file only when a change of output is intended:

    PYTHONPATH=src python tests/test_kernels_golden.py
"""

import json
import math
import pathlib
import random

from coinqubit import (
    CoinObservable,
    ProbabilityTriple,
    fidelity,
    orthogonal_partner,
    purity,
    quantum_mean,
    render_svg,
    superpose_checked,
    superpose_general,
    superpose_oracle,
    superpose_orthogonal,
    superpose_spinor,
    triada_sides,
    weights_for_phase,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "kernels_golden.json"
SEED = 20261019


def _on_circle(p3, phi):
    r = math.sqrt(p3 * (1.0 - p3))
    return ProbabilityTriple(0.5 + r * math.cos(phi), 0.5 + r * math.sin(phi), p3)


def _pure(r):
    return _on_circle(r.random(), r.uniform(0.0, 2.0 * math.pi))


def _pole(r):
    return ProbabilityTriple(0.5, 0.5, r.choice((0.0, 1.0)))


def _handover(r):
    """A state with p3 log-uniform in (1e-12, 1e-6]."""
    return _on_circle(10.0 ** r.uniform(-12.0, -6.0), r.uniform(0.0, 2.0 * math.pi))


def _cases():
    """(kind, p, q, w, observable) for about 200 seeded pure pairs."""
    r = random.Random(SEED)
    cases = []
    for kind, count in (("random", 80), ("orthogonal", 50), ("pole", 30),
                        ("handover", 40), ("annihilating", 6)):
        for _ in range(count):
            p = {"pole": _pole, "handover": _handover}.get(kind, _pure)(r)
            if kind == "orthogonal" or (kind != "random" and r.random() < 0.5):
                q = orthogonal_partner(p)
            elif kind == "annihilating":
                q = p
            else:
                q = _pure(r)
            if kind == "annihilating":
                w = weights_for_phase(math.pi, r.choice((0.5, 0.3))).triple
            else:
                w = _pure(r)
            obs = CoinObservable(*(r.uniform(-2.0, 2.0) for _ in range(4)))
            cases.append((kind, p, q, w, obs))
    return cases


def _repr(call, *args, **kwargs):
    try:
        return repr(call(*args, **kwargs))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _record(index, kind, p, q, w, obs):
    try:
        out = superpose_general(p, q, w).state
    except Exception:
        out = p
    # a scale log-uniform in [1e-3, 1e3], labels on every other item
    scale = 10.0 ** (-3.0 + 6.0 * ((index * 0.6180339887498949) % 1.0))
    return {
        "kind": kind,
        "inputs": [repr(p), repr(q), repr(w), repr(obs)],
        "general": _repr(superpose_general, p, q, w),
        "oracle": _repr(superpose_oracle, p, q, w),
        "orthogonal": _repr(superpose_orthogonal, p, q, w),
        "spinor": _repr(superpose_spinor, p, q, w),
        "checked": _repr(superpose_checked, p, q, w),
        "fidelity": _repr(fidelity, p, q),
        "purity": [_repr(purity, p), _repr(purity, q), _repr(purity, out)],
        "svg": _repr(render_svg, triada_sides(out), scale, labels=index % 2 == 1),
        "mean": _repr(quantum_mean, obs, out),
    }


def _records():
    return [_record(i, *case) for i, case in enumerate(_cases())]


def test_kernels_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    records = _records()
    assert len(records) == len(golden)
    for record, expected in zip(records, golden):
        assert record == expected


def test_the_cases_cover_every_outcome():
    records = json.loads(GOLDEN.read_text(encoding="utf-8"))
    kinds = {r["kind"] for r in records}
    assert kinds == {"random", "orthogonal", "pole", "handover", "annihilating"}
    assert any("fallback_used=True" in r["general"] for r in records)
    assert any("orthogonal_rule" in r["orthogonal"] for r in records)
    assert any(r["oracle"].startswith("DegenerateSuperpositionError")
               for r in records)
    assert any(r["orthogonal"].startswith("NotOrthogonalError") for r in records)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_records(), indent=1) + "\n", encoding="utf-8")
