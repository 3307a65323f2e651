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

from .errors import CoinQubitError, DomainError
from .states import (
    ProbabilityTriple,
    coins_to_complex,
    fidelity,
    prob_to_density,
    prob_to_spinor,
    purity,
)

# The handlers import the modules beyond errors and states themselves, so
# a scalar subcommand such as check starts without loading them.

SEED_ENV_VAR = "COIN_QUBIT_SEED"
_NEGATIVE_FLOAT = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
_JSON_MAX = 1 << 20  # characters read at most from a --state*, --weights or --obs file


def _dumps(obj) -> str:
    """JSON text with floats at 17 significant digits."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
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
    raise TypeError(f"cannot serialize {type(obj)!r}")


class _UsageError(Exception):
    pass


class _Help(Exception):
    """A request for help; its one argument is the text to print."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's negative-number pattern has no exponent, so it read the
        # "-1e3" of "--z2 -1e3" as an option; any negative float is a value.
        self._negative_number_matcher = _NEGATIVE_FLOAT

    def error(self, message):  # noqa: A003 - argparse API
        raise _UsageError(message)

    def print_help(self, file=None):  # main writes the text to stdout
        raise _Help(self.format_help())


def _load_json(path: str):
    """Parsed JSON file; an unreadable, malformed or too long file is a DomainError."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read(_JSON_MAX + 1)
        if len(text) > _JSON_MAX:
            raise ValueError(f"the file is longer than {_JSON_MAX} characters")
        return json.loads(text)
    except (OSError, ValueError, RecursionError) as exc:
        raise DomainError(f"cannot read JSON file {path!r}: {exc}") from exc


@contextlib.contextmanager
def _writing(path: str):
    """A with block in which an OSError (from opening, writing or closing
    the output file `path`) is a DomainError."""
    try:
        yield
    except OSError as exc:
        raise DomainError(f"cannot write file {path!r}: {exc}") from exc


def _write(stream, text: str) -> None:
    """Write and flush `text` to the standard stream `stream`, which is None
    when its descriptor was closed at start.  A failed write raises OSError
    after pointing the descriptor at os.devnull, so that the flush at
    interpreter exit does not fail again (Python's note on SIGPIPE)."""
    if stream is None:
        raise OSError("the stream is closed")
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        raise


def _state_from(args, prefix: str, path_flag: str) -> ProbabilityTriple:
    """Resolve one state from --<prefix>1/2/3 flags or a JSON file path."""
    path = getattr(args, path_flag)
    components = [getattr(args, f"{prefix}{i}") for i in (1, 2, 3)]
    if path is not None:
        if any(value is not None for value in components):
            raise _UsageError(
                f"give either --{path_flag} or the "
                f"--{prefix}1/--{prefix}2/--{prefix}3 flags, not both"
            )
        return ProbabilityTriple.from_json_dict(_load_json(path))
    if any(value is None for value in components):
        raise _UsageError(
            f"state requires --{prefix}1, --{prefix}2 and --{prefix}3 "
            f"(or a --{path_flag} file)"
        )
    return ProbabilityTriple(*components)


def _complex_json(value: complex) -> dict:
    return {"re": value.real, "im": value.imag}


def _matrix_json(rho) -> dict:
    return {
        "rho00": rho.rho00,
        "rho01": _complex_json(rho.rho01),
        "rho10": _complex_json(rho.rho10),
        "rho11": rho.rho11,
    }


def _convert(args, p) -> dict:
    if args.to == "density":
        rho = prob_to_density(p)
        return {"matrix": _matrix_json(rho), "nonnegative": rho.is_nonnegative}
    if args.to == "spinor":
        s = prob_to_spinor(p)
        return {
            "amplitude0": s.amplitude0,
            "amplitude1": s.amplitude1,
            "phase": s.phase,
        }
    return _complex_json(coins_to_complex(p))


def _superpose(args, p, q, weights) -> dict:
    from .superposition import superpose_checked

    general, agree = superpose_checked(p, q, weights)
    return {
        "result": general.state.to_json_dict(),
        "normalization": general.normalization,
        "paths_agree": agree,
        "fallback_used": general.fallback_used,
    }


def _partner(args, p) -> dict:
    from .superposition import orthogonal_partner

    return orthogonal_partner(p, args.sign).to_json_dict()


def _triada(args, p) -> dict:
    from .malevich import triada_sides

    return dict(zip(("L1", "L2", "L3"), triada_sides(p).sides()))


def _render(args, p) -> str:
    from .malevich import render_svg, triada_sides

    t = triada_sides(p)
    try:
        svg = render_svg(t, scale=args.scale, labels=args.labels)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    if not args.out:
        return svg
    with _writing(args.out), open(args.out, "w", encoding="utf-8") as handle:
        handle.write(svg)
    return ""


def _sample(args, p) -> dict:
    from .tomography import AXES, reconstruct, run_experiment, write_flips

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
        with _writing(args.flips):
            report = write_flips(p, args.n, seed, args.flips)
    else:
        report = run_experiment(p, args.n, seed)
    rho, verdict = reconstruct(report)
    return {
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


def _mean(args, p) -> dict:
    from .observables import CoinObservable, classical_means, quantum_mean

    coefficients = (args.x, args.y, args.z1, args.z2)
    if args.obs is not None:
        if any(v is not None for v in coefficients):
            raise _UsageError("give either --obs or --x/--y/--z1/--z2, not both")
        obs = CoinObservable.from_json_dict(_load_json(args.obs))
    else:
        obs = CoinObservable(*(0.0 if v is None else v for v in coefficients))
    mean_x, mean_y, mean_z = classical_means(obs, p)
    return {
        "mean": quantum_mean(obs, p),
        "classical_means": {"x": mean_x, "y": mean_y, "z": mean_z},
    }


_STATE = (("p", "state"),)
_PAIR = (("p", "state1"), ("q", "state2"))

# name -> (help, state slots as (flag prefix, file flag), extra arguments as
# (flag, add_argument keywords), handler(args, *states) returning the dict to
# print as JSON, or the text to print as it is).  Each slot adds the flags
# --<prefix>1/2/3 and --<file flag>; main resolves the slots in order.
_COMMANDS = {
    "check": ("classify a triple against the ball", _STATE, [],
              lambda _, p: {"class": p.classify(), "radius2": p.radius2}),
    "purity": ("purity of a quantum triple", _STATE, [],
               lambda _, p: {"purity": purity(p)}),
    "fidelity": ("overlap of two quantum triples", _PAIR, [],
                 lambda _, p, q: {"fidelity": fidelity(p, q)}),
    "convert": ("triple to density matrix, spinor or complex number", _STATE,
                [("--to", {"choices": ("density", "spinor", "complex"),
                           "default": "density"})], _convert),
    "superpose": ("superpose two pure states", (*_PAIR, ("w", "weights")), [],
                  _superpose),
    "partner": ("orthogonal partner of a pure state", _STATE,
                [("--sign", {"choices": ("+", "-"), "default": "+"})], _partner),
    "triada": ("Malevich square side lengths", _STATE, [], _triada),
    "render": ("render the triada as SVG", _STATE,
               [("--scale", {"type": float, "default": 100.0}),
                ("--labels", {"action": "store_true"}), ("--out", {})], _render),
    "sample": ("simulate coin flips and estimate the triple", _STATE,
               [("--n", {"type": int, "required": True}), ("--seed", {"type": int}),
                ("--flips", {"help": "write the flip stream to this CSV"})], _sample),
    "mean": ("quantum mean of a coin observable", _STATE,
             [*((f"--{name}", {"type": float}) for name in ("x", "y", "z1", "z2")),
              ("--obs", {"help": "observable JSON file {x, y, z1, z2}"})], _mean),
}


def _parser(name: str | None) -> _Parser:
    """The parser with the subparser of table entry `name` only, or with
    every subparser (for the usage message) when `name` is None."""
    parser = _Parser(prog="coinqubit", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for command in _COMMANDS if name is None else (name,):
        help_text, slots, extra, _ = _COMMANDS[command]
        subparser = sub.add_parser(command, help=help_text)
        for prefix, path_flag in slots:
            for i in (1, 2, 3):
                subparser.add_argument(f"--{prefix}{i}", type=float)
            subparser.add_argument(f"--{path_flag}")
        for flag, options in extra:
            subparser.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    code, report = 0, ""
    try:
        try:
            name = argv[0] if argv and argv[0] in _COMMANDS else None
            args = _parser(name).parse_args(argv)
            _, slots, _, handler = _COMMANDS[args.subcommand]
            result = handler(args, *(_state_from(args, *slot) for slot in slots))
        except _Help as request:
            result = str(request)
        text = result if isinstance(result, str) else _dumps(result) + "\n"
        if text:
            with _writing("<stdout>"):
                _write(sys.stdout, text)
    except _UsageError as exc:
        code, report = 1, f"usage error: {exc}\n"
    except CoinQubitError as exc:
        error = {"code": exc.code, "message": str(exc)}
        code, report = 2, _dumps({"error": error}) + "\n"
    if report:  # a missing or failing stderr loses the report, not the exit code
        with contextlib.suppress(OSError):
            _write(sys.stderr, report)
    return code


if __name__ == "__main__":
    sys.exit(main())
