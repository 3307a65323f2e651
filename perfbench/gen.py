"""Seeded input generator shared by every workload.

Pure standard library: it imports neither coinqubit nor numpy, so the
package under test receives only the generated floats, argv lists and file
contents.  The same (workload, seed, smoke) always gives the same inputs.
"""

from __future__ import annotations

import json
import math
import random

SUBCOMMANDS = (
    "check", "purity", "fidelity", "convert", "superpose",
    "partner", "triada", "render", "sample", "mean",
)

# Input sizes; the smoke test uses the small column.
SIZES = {
    #               (full,       smoke)
    "cli_pool": (120, 20),
    "cli_sample_n": (1000, 100),
    "kernels_pool": (512, 64),
    "bulk_pool": (16, 4),
    "bulk_n": (2_000_000, 20_000),
    "stream_pool": (16, 4),
    "stream_n": (10_000, 500),
}


def size(name: str, smoke: bool) -> int:
    return SIZES[name][1 if smoke else 0]


def _rng(workload: str, seed: int) -> random.Random:
    # String seeds are hashed with SHA-512, so this does not depend on
    # PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}")


def _direction(r: random.Random) -> tuple[float, float, float]:
    while True:
        v = (r.gauss(0, 1), r.gauss(0, 1), r.gauss(0, 1))
        norm = math.sqrt(sum(x * x for x in v))
        if norm > 1e-6:
            return tuple(x / norm for x in v)


def pure(r: random.Random) -> tuple[float, float, float]:
    return tuple(0.5 + 0.5 * x for x in _direction(r))


def inside(r: random.Random) -> tuple[float, float, float]:
    """A state strictly inside the ball: every coin probability in [0.01, 0.99]."""
    radius = 0.49 * r.random() ** (1.0 / 3.0)
    return tuple(0.5 + radius * x for x in _direction(r))


def classical(r: random.Random) -> tuple[float, float, float]:
    """A cube corner region, radius^2 >= 0.48: outside the correlation ball."""
    return tuple(r.uniform(0.0, 0.1) if r.random() < 0.5 else r.uniform(0.9, 1.0)
                 for _ in range(3))


def near_pole(r: random.Random, exact: bool = False) -> tuple[float, float, float]:
    """Pure triple with p3 = 0 or 1e-13: where the general closed form hands over to the oracle.

    The phase is 0.  Orthogonal pairs use only the exact pole: on the seed
    code, coin_phase reports phase 0 for every triple within 1e-12 of a
    pole, so the partner of a near-pole triple gets the wrong phase and
    superpose_orthogonal raises DomainError ("trace must be 1").
    """
    p3 = 0.0 if exact else r.choice((0.0, 1e-13))
    return 0.5 + math.sqrt(p3 * (1.0 - p3)), 0.5, p3


def partner(p):
    return tuple(1.0 - x for x in p)


def observable(r: random.Random) -> tuple[float, float, float, float]:
    return tuple(r.uniform(-2.0, 2.0) for _ in range(4))


def _spinor(p):
    a0 = math.sqrt(p[2])
    a1 = math.sqrt(1.0 - p[2])
    dx, dy = p[0] - 0.5, p[1] - 0.5
    phase = 0.0 if dx * dx + dy * dy <= 1e-12 else math.atan2(dy, dx)
    return complex(a0), a1 * complex(math.cos(phase), math.sin(phase))


def superposed_norm(p, q, w) -> float:
    """|c1|chi_p> + c2|chi_q>|^2, computed independently of the package."""
    c1, c2 = _spinor(w)
    p0, p1 = _spinor(p)
    q0, q1 = _spinor(q)
    top = c1.real * p0 + c2 * q0
    bottom = c1.real * p1 + c2 * q1
    return abs(top) ** 2 + abs(bottom) ** 2


def _pure_pair(r: random.Random):
    """Random pure pair plus weights, away from exact destructive interference."""
    while True:
        p, q, w = pure(r), pure(r), pure(r)
        if superposed_norm(p, q, w) > 0.05:
            return p, q, w


# ---------------------------------------------------------------- cli_oneshot

def state_json(p) -> str:
    return json.dumps({"kind": "coin-state", "p1": p[0], "p2": p[1], "p3": p[2]})


def cli_pool(seed: int, smoke: bool = False) -> list[dict]:
    """CLI requests spread evenly over the ten subcommands.

    About a quarter pass states as JSON files and about a tenth are inputs
    that end in a typed exit-2 error.  No input is one that ends in a
    traceback today (missing file, non-JSON, negative seed, infinite scale).
    """
    r = _rng("cli_oneshot", seed)
    count = size("cli_pool", smoke)
    subs = [SUBCOMMANDS[i % len(SUBCOMMANDS)] for i in range(count)]
    r.shuffle(subs)
    seen = set()
    requests = []
    for sub in subs:
        # The first request of each subcommand succeeds, so every
        # subcommand has an exit-0 timing even in the smoke pool.
        requests.append(_cli_request(r, sub, smoke, may_fail=sub in seen))
        seen.add(sub)
    return requests


def _cli_request(r: random.Random, sub: str, smoke: bool, may_fail: bool) -> dict:
    err = may_fail and r.random() < 0.1
    use_files = r.random() < 0.25
    req = {"sub": sub, "expect": 2 if err else 0, "files": use_files}
    if sub == "check":
        req["p"] = r.choice((pure, inside, classical))(r)
    elif sub == "purity":
        req["p"] = classical(r) if err else r.choice((pure, inside))(r)
    elif sub == "fidelity":
        req["p"] = inside(r)
        req["q"] = classical(r) if err else inside(r)
    elif sub == "convert":
        req["to"] = "spinor" if err else r.choice(("density", "spinor", "complex"))
        req["p"] = inside(r) if err or req["to"] == "density" else pure(r)
    elif sub == "superpose":
        if err:
            req["p"], req["q"], req["w"] = inside(r), pure(r), pure(r)
        elif r.random() < 0.5:
            p = pure(r)
            req["p"], req["q"], req["w"] = p, partner(p), pure(r)
        else:
            req["p"], req["q"], req["w"] = _pure_pair(r)
    elif sub == "partner":
        req["p"] = inside(r) if err else pure(r)
        req["sign"] = r.choice("+-")
    elif sub in ("triada", "render"):
        req["p"] = r.choice((pure, inside, classical))(r)
        if sub == "render":
            req["scale"] = round(r.uniform(10.0, 200.0), 3)
            req["labels"] = r.random() < 0.5
    elif sub == "sample":
        req["p"] = classical(r) if err else inside(r)
        req["n"] = size("cli_sample_n", smoke)
        req["seed"] = r.randrange(2 ** 31)
    elif sub == "mean":
        req["p"] = classical(r) if err else inside(r)
        req["obs"] = observable(r)
    if err and sub in ("check", "triada", "render"):
        # Out-of-range coin probability: a DomainError from the constructor.
        p = list(req["p"])
        p[r.randrange(3)] = r.choice((-0.5, 1.5))
        req["p"] = tuple(p)
    return req


_STATE_FLAGS = {"p": ("p", "state"), "q": ("q", "state2"), "w": ("w", "weights")}


def cli_files(req: dict) -> dict[str, str]:
    """File name -> contents for a request that passes states as files."""
    if not req["files"]:
        return {}
    return {f"{key}.json": state_json(req[key]) for key in "pqw" if key in req}


def cli_argv(req: dict, file_dir: str) -> list[str]:
    """argv for ``coinqubit.cli.main`` (without the program name)."""
    argv = [req["sub"]]
    two_states = req["sub"] in ("fidelity", "superpose")
    for key in "pqw":
        if key not in req:
            continue
        prefix, path_flag = _STATE_FLAGS[key]
        if key == "p" and two_states:
            path_flag = "state1"
        if req["files"]:
            argv.append(f"--{path_flag}={file_dir}/{key}.json")
        else:
            argv += [f"--{prefix}{i}={v!r}" for i, v in enumerate(req[key], 1)]
    if "to" in req:
        argv.append(f"--to={req['to']}")
    if "sign" in req:
        argv.append(f"--sign={req['sign']}")
    if "scale" in req:
        argv.append(f"--scale={req['scale']!r}")
        if req["labels"]:
            argv.append("--labels")
    if "n" in req:
        argv += [f"--n={req['n']}", f"--seed={req['seed']}"]
    if "obs" in req:
        argv += [f"--{k}={v!r}" for k, v in zip(("x", "y", "z1", "z2"), req["obs"])]
    return argv


# -------------------------------------------------------------- kernels_sweep

def kernels_pool(seed: int, smoke: bool = False) -> list[dict]:
    """Superposition requests: half random pure pairs, half orthogonal pairs.

    About one in forty puts a state at or next to the pole p3 = 0, where the
    general closed form hands over to the oracle.
    """
    r = _rng("kernels_sweep", seed)
    count = size("kernels_pool", smoke)
    kinds = ["random", "orthogonal"] * (count // 2)
    r.shuffle(kinds)
    items = []
    for kind in kinds:
        if kind == "orthogonal":
            p = near_pole(r, exact=True) if r.random() < 0.025 else pure(r)
            if r.random() < 0.5:
                p = partner(p)
            q, w = partner(p), pure(r)
        else:
            p, q, w = _pure_pair(r)
            if r.random() < 0.025:
                p = near_pole(r)
                while superposed_norm(p, q, w) <= 0.05:
                    w = pure(r)
        items.append({"kind": kind, "p": p, "q": q, "w": w, "obs": observable(r)})
    return items


# ------------------------------------------------------------------ tomography

def tomo_pool(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """Target states and sampling seeds for tomo_bulk / tomo_stream.

    Every coin probability lies in [0.01, 0.99], so the normal-approximation
    6-sigma check on p_hat is sound.
    """
    r = _rng(workload, seed)
    key = "bulk" if workload == "tomo_bulk" else "stream"
    n = size(f"{key}_n", smoke)
    return [
        {"p": inside(r), "n": n, "seed": r.randrange(2 ** 63)}
        for _ in range(size(f"{key}_pool", smoke))
    ]


def pool(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    if workload == "cli_oneshot":
        return cli_pool(seed, smoke)
    if workload == "kernels_sweep":
        return kernels_pool(seed, smoke)
    return tomo_pool(workload, seed, smoke)
