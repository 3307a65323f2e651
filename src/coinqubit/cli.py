"""Command-line front end.

Every subcommand is a thin shell over one library operation: parse flags,
call the function, serialize the result.  JSON numbers are written with 17
significant digits so doubles round-trip losslessly.  Exit codes: 0 on
success, 1 on usage errors, 2 on domain errors (with a machine-readable
error object on stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys

from .errors import CoinQubitError, DomainError, NotOrthogonalError
from .malevich import render_svg, triada_sides
from .observables import CoinObservable, classical_means, quantum_mean
from .states import (
    PATH_AGREE_TOL,
    ProbabilityTriple,
    coins_to_complex,
    fidelity,
    prob_to_density,
    prob_to_spinor,
    purity,
)
from .superposition import (
    SuperpositionWeights,
    orthogonal_partner,
    superpose_general,
    superpose_oracle,
    superpose_orthogonal,
    superpose_spinor,
)
from .tomography import AXES, _fold, _up_chunks, reconstruct, run_experiment

SEED_ENV_VAR = "COIN_QUBIT_SEED"
_NEGATIVE_FLOAT = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _dumps(obj) -> str:
    """JSON text with floats at 17 significant digits."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(
            f"{json.dumps(str(key))}: {_dumps(value)}" for key, value in obj.items()
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_dumps(value) for value in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(obj) -> None:
    sys.stdout.write(_dumps(obj) + "\n")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's negative-number pattern has no exponent, so it read the
        # "-1e3" of "--z2 -1e3" as an option; any negative float is a value.
        self._negative_number_matcher = _NEGATIVE_FLOAT

    def error(self, message):  # noqa: A003 - argparse API
        raise _UsageError(message)


def _load_json(path: str):
    """Parsed JSON file; an unreadable or malformed file is a DomainError."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        raise DomainError(f"cannot read JSON file {path!r}: {exc}") from exc


@contextlib.contextmanager
def _open_output(path: str, newline: str | None = None):
    """Text file open for writing in a with block; an OSError from the open,
    a write or the close is a DomainError."""
    try:
        with open(path, "w", newline=newline, encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise DomainError(f"cannot write file {path!r}: {exc}") from exc


def _load_state_file(path: str) -> ProbabilityTriple:
    return ProbabilityTriple.from_json_dict(_load_json(path))


def _state_from(args, prefix: str, path_flag: str) -> ProbabilityTriple:
    """Resolve one state from --<prefix>1/2/3 flags or a JSON file path."""
    path = getattr(args, path_flag, None)
    components = [getattr(args, f"{prefix}{i}", None) for i in (1, 2, 3)]
    if path is not None:
        if any(value is not None for value in components):
            raise _UsageError(
                f"give either --{path_flag.replace('_', '-')} or the "
                f"--{prefix}1/--{prefix}2/--{prefix}3 flags, not both"
            )
        return _load_state_file(path)
    if any(value is None for value in components):
        raise _UsageError(
            f"state requires --{prefix}1, --{prefix}2 and --{prefix}3 "
            f"(or a --{path_flag.replace('_', '-')} file)"
        )
    return ProbabilityTriple(*components)


def _add_state_flags(parser, prefix: str = "p", path_flag: str = "state") -> None:
    for i in (1, 2, 3):
        parser.add_argument(f"--{prefix}{i}", type=float)
    parser.add_argument(f"--{path_flag}", dest=path_flag.replace("-", "_"))


def _complex_json(value: complex) -> dict:
    return {"re": value.real, "im": value.imag}


def _matrix_json(rho) -> dict:
    return {
        "rho00": rho.rho00,
        "rho01": _complex_json(rho.rho01),
        "rho10": _complex_json(rho.rho10),
        "rho11": rho.rho11,
    }


def _build_parser() -> _Parser:
    parser = _Parser(prog="coinqubit", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_check = sub.add_parser("check", help="classify a triple against the ball")
    _add_state_flags(p_check)

    p_purity = sub.add_parser("purity", help="purity of a quantum triple")
    _add_state_flags(p_purity)

    p_fid = sub.add_parser("fidelity", help="overlap of two quantum triples")
    _add_state_flags(p_fid, "p", "state1")
    _add_state_flags(p_fid, "q", "state2")

    p_conv = sub.add_parser(
        "convert", help="triple to density matrix, spinor or complex number"
    )
    _add_state_flags(p_conv)
    p_conv.add_argument(
        "--to", choices=("density", "spinor", "complex"), default="density"
    )

    p_sup = sub.add_parser("superpose", help="superpose two pure states")
    _add_state_flags(p_sup, "p", "state1")
    _add_state_flags(p_sup, "q", "state2")
    _add_state_flags(p_sup, "w", "weights")

    p_partner = sub.add_parser(
        "partner", help="orthogonal partner of a pure state"
    )
    _add_state_flags(p_partner)
    p_partner.add_argument("--sign", choices=("+", "-"), default="+")

    p_triada = sub.add_parser("triada", help="Malevich square side lengths")
    _add_state_flags(p_triada)

    p_render = sub.add_parser("render", help="render the triada as SVG")
    _add_state_flags(p_render)
    p_render.add_argument("--scale", type=float, default=100.0)
    p_render.add_argument("--labels", action="store_true")
    p_render.add_argument("--out")

    p_sample = sub.add_parser(
        "sample", help="simulate coin flips and estimate the triple"
    )
    _add_state_flags(p_sample)
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--seed", type=int)
    p_sample.add_argument("--flips", help="write the flip stream to this CSV")

    p_mean = sub.add_parser("mean", help="quantum mean of a coin observable")
    _add_state_flags(p_mean)
    p_mean.add_argument("--x", type=float)
    p_mean.add_argument("--y", type=float)
    p_mean.add_argument("--z1", type=float)
    p_mean.add_argument("--z2", type=float)
    p_mean.add_argument("--obs", help="observable JSON file {x, y, z1, z2}")

    return parser


def _cmd_check(args) -> None:
    p = _state_from(args, "p", "state")
    _emit({"class": p.classify(), "radius2": p.radius2})


def _cmd_purity(args) -> None:
    p = _state_from(args, "p", "state")
    _emit({"purity": purity(p)})


def _cmd_fidelity(args) -> None:
    p = _state_from(args, "p", "state1")
    q = _state_from(args, "q", "state2")
    _emit({"fidelity": fidelity(p, q)})


def _cmd_convert(args) -> None:
    p = _state_from(args, "p", "state")
    if args.to == "density":
        rho = prob_to_density(p)
        _emit({"matrix": _matrix_json(rho), "nonnegative": rho.is_nonnegative})
    elif args.to == "spinor":
        s = prob_to_spinor(p)
        _emit(
            {
                "amplitude0": s.amplitude0,
                "amplitude1": s.amplitude1,
                "phase": s.phase,
            }
        )
    else:
        _emit(_complex_json(coins_to_complex(p)))


def _cmd_superpose(args) -> None:
    p = _state_from(args, "p", "state1")
    q = _state_from(args, "q", "state2")
    w = SuperpositionWeights(_state_from(args, "w", "weights"))
    general = superpose_general(p, q, w)
    oracle = superpose_oracle(p, q, w)
    paths = [general, oracle]
    with contextlib.suppress(NotOrthogonalError):
        paths += [superpose_orthogonal(p, q, w), superpose_spinor(p, q, w)]
    ref = oracle.state
    agree = all(
        max(
            abs(result.state.p1 - ref.p1),
            abs(result.state.p2 - ref.p2),
            abs(result.state.p3 - ref.p3),
        )
        < PATH_AGREE_TOL
        for result in paths
    )
    _emit(
        {
            "result": general.state.to_json_dict(),
            "normalization": general.normalization,
            "paths_agree": agree,
            "fallback_used": general.fallback_used,
        }
    )


def _cmd_partner(args) -> None:
    p = _state_from(args, "p", "state")
    _emit(orthogonal_partner(p, args.sign).to_json_dict())


def _cmd_triada(args) -> None:
    t = triada_sides(_state_from(args, "p", "state"))
    _emit({"L1": t.L1, "L2": t.L2, "L3": t.L3})


def _cmd_render(args) -> None:
    t = triada_sides(_state_from(args, "p", "state"))
    try:
        svg = render_svg(t, scale=args.scale, labels=args.labels)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    if args.out:
        with _open_output(args.out) as handle:
            handle.write(svg)
    else:
        sys.stdout.write(svg)


def _cmd_sample(args) -> None:
    p = _state_from(args, "p", "state")
    seed = args.seed
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR)
        if env is None:
            raise _UsageError(
                f"--seed is required (or set {SEED_ENV_VAR})"
            )
        try:
            seed = int(env)
        except ValueError as exc:
            raise _UsageError(
                f"{SEED_ENV_VAR} must be an integer, got {env!r}"
            ) from exc
    if seed < 0:
        raise _UsageError(f"the seed must be a nonnegative integer, got {seed}")
    if args.n < 1:
        raise _UsageError("--n must be a positive integer")
    if args.flips:
        chunks = _up_chunks(p, args.n, seed)  # checks p before the file exists
        ups = [0, 0, 0]
        with _open_output(args.flips, newline="") as handle:
            handle.write("trial,axis,outcome\r\n")
            for i, start, up in chunks:
                ups[i] += int(up.sum())
                ends = (f",{AXES[i]},down\r\n", f",{AXES[i]},up\r\n")
                handle.write(
                    "".join(f"{t}{ends[u]}" for t, u in enumerate(up.tolist(), start))
                )
        report = _fold(ups, (args.n,) * 3, seed)
    else:
        report = run_experiment(p, args.n, seed)
    rho, verdict = reconstruct(report)
    _emit(
        {
            "p_hat": report.p_hat.to_json_dict(),
            "counts": dict(zip(AXES, report.counts)),
            "std_errors": dict(zip(AXES, report.std_errors)),
            "seed": report.seed,
            "reconstruction": {
                "matrix": _matrix_json(rho),
                "nonnegative": rho.is_nonnegative,
                "class": verdict,
            },
        }
    )


def _cmd_mean(args) -> None:
    p = _state_from(args, "p", "state")
    if args.obs is not None:
        if any(v is not None for v in (args.x, args.y, args.z1, args.z2)):
            raise _UsageError("give either --obs or --x/--y/--z1/--z2, not both")
        obs = CoinObservable.from_json_dict(_load_json(args.obs))
    else:
        obs = CoinObservable(
            args.x or 0.0, args.y or 0.0, args.z1 or 0.0, args.z2 or 0.0
        )
    mean_x, mean_y, mean_z = classical_means(obs, p)
    _emit(
        {
            "mean": quantum_mean(obs, p),
            "classical_means": {"x": mean_x, "y": mean_y, "z": mean_z},
        }
    )


_DISPATCH = {
    "check": _cmd_check,
    "purity": _cmd_purity,
    "fidelity": _cmd_fidelity,
    "convert": _cmd_convert,
    "superpose": _cmd_superpose,
    "partner": _cmd_partner,
    "triada": _cmd_triada,
    "render": _cmd_render,
    "sample": _cmd_sample,
    "mean": _cmd_mean,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _DISPATCH[args.subcommand](args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except CoinQubitError as exc:
        sys.stderr.write(
            _dumps({"error": {"code": exc.code, "message": str(exc)}}) + "\n"
        )
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
