"""Command-line front end.

Subcommands:
  simulate   chain spec -> CSV series (+ manifest.json, optional oracle verify)
  return     chain spec -> return-classification verdict JSON (optional scan CSV)
  families   list available chain families and parameter schemas
  verify     standalone oracle cross-check of the spectral evaluation paths

Exit codes: 0 success, 2 invalid spec or arguments (wrong JSON types,
malformed JSON, non-finite rates and grid bounds, a --spec path that
cannot be read, such as a directory, and an --output directory or output
file that cannot be written, such as an existing file at the directory's
path or a directory at a file's, included; the message names the
offending field or flag), 3 a result failed a check: an oracle
mismatch above tolerance, or a NumericError (a value that cannot be
trusted, such as a site past the certified Lanczos rows of a Meixner, sc
or directly built measure; the message names the site and its certificate,
and no series or verdict is written).

Every run is deterministic at a fixed BLAS thread count: each time point
is an ordered reduction over the spectral nodes, so the same inputs give
byte-identical CSV files.  The eigensolver's BLAS may round differently
under another thread count (OPENBLAS_NUM_THREADS, say), so runs compared
byte for byte should fix it.

Each output file (series CSV, manifest.json) is written as a new file:
whatever is at its path is unlinked first, never truncated and rewritten
in place, so a hard or symbolic link at an output path is replaced, not
written through.  Nothing is fsynced, so a crash right after a run can
lose what it wrote.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from .chain_families import _STEPS_CAP, build_from_spec, family_schemas
from .dynamics import (AmplitudeSeries, ProbabilitySeries, _bind, _oracle_evolutions, _rows,
                       quantum_amplitude, series_csv, series_filename)
from .errors import NumericError, SpectralWalkError, UsageError
from .jacobi_core import generator
from .return_analysis import (LATTICE_TOL, classify_return, modified_measure,
                              return_probability_scan)
from .spectral import _carries_eigenvectors, eigendecompose

EXIT_OK = 0
EXIT_INVALID = 2
# a result failed a check: oracle mismatch or NumericError
EXIT_MISMATCH = 3

_VERIFY_TOL = 1e-10
_VERIFY_TIMES = (0.1, 0.5, 1.0, 2.0, 5.0)


def _time_grid(args) -> np.ndarray:
    """The --tmin/--tmax/--steps grid; errors name the offending flag."""
    for name, value in (("tmin", args.tmin), ("tmax", args.tmax)):
        if not math.isfinite(value):
            raise UsageError(f"field '{name}' is {value}, must be finite")
    if args.tmin < 0:
        raise UsageError(f"field 'tmin' is {args.tmin}, must be >= 0")
    if args.tmax < args.tmin:
        raise UsageError(f"field 'tmax' is {args.tmax}, below tmin {args.tmin}")
    # a one-point grid (tmax == tmin) takes any count from 1 to the cap
    need = 1 if args.tmax == args.tmin else 2
    if args.steps < need:
        raise UsageError(f"field 'steps' is {args.steps}, need >= {need} for a grid")
    if args.steps > _STEPS_CAP:
        raise UsageError(f"field 'steps' is {args.steps}, above the cap {_STEPS_CAP}")
    if need == 1:
        return np.array([args.tmin])
    return np.linspace(args.tmin, args.tmax, args.steps)


def _verify_tol(args) -> float:
    """--verify-tol, refused when NaN or negative."""
    if not args.verify_tol >= 0:  # NaN fails
        raise UsageError(f"--verify-tol is {args.verify_tol}, must be a number >= 0")
    return args.verify_tol


def _json(text: str, what: str):
    """Parsed JSON text; a parse error names ``what`` the text came from."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what}: {exc}") from exc


def _spec_params() -> dict:
    """name -> (flag, schema type, {range: families}) of every family
    parameter, each once, in the order :func:`family_schemas` names it."""
    params = {}
    for family, info in family_schemas().items():
        for name, meta in info["params"].items():
            flag, kind, ranges = params.setdefault(
                name, ("--" + name.replace("_", "-"), meta["type"], {}))
            ranges.setdefault(meta["range"], []).append(family)
    return params


def _load_spec(args) -> dict:
    """Chain spec from --spec (file path or inline JSON) or --family + flags;
    a list parameter's flag carries JSON text."""
    if (args.spec is None) == (args.family is None):
        raise UsageError("exactly one of --spec or --family is required")
    if args.family is not None:
        spec = {"family": args.family}
        for name, (flag, kind, _) in _spec_params().items():
            value = getattr(args, name)
            if kind == "list[float]":
                value = _json(value, f"{flag} is not valid JSON") if value else None
            if value is not None:
                spec[name] = value
        return spec
    text = args.spec
    if os.path.exists(args.spec):
        try:
            with open(args.spec) as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"--spec cannot be read: {exc}") from exc
    return _json(text, "--spec is neither an existing file nor valid JSON")


def _write(args, name: str, text: str) -> None:
    """Write ``text`` as a new file ``name`` in the --output directory,
    made if missing, unlinking any file at that path first: rewriting a
    file in place can wait on the writeback of its old blocks (ext4's
    auto_da_alloc forces one on truncation), and a new file does not.
    An OS error (the directory is a file, the path a directory) names
    the flag."""
    path = os.path.join(args.output, name)
    try:
        os.makedirs(args.output, exist_ok=True)
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"--output cannot be written: {exc}") from exc


def _check_site(name: str, value: int, size: int) -> None:
    if not 0 <= value < size:
        raise UsageError(f"field '{name}' is {value}, outside the chain's {size} sites")


def _targets(args, size: int) -> list[int]:
    """The --j targets (default: --i), after checking --i and each of
    them; a target given twice is refused."""
    js = args.j or [args.i]
    _check_site("i", args.i, size)
    for k, jj in enumerate(js):
        _check_site("j", jj, size)
        if jj in js[:k]:
            raise UsageError(f"field 'j' repeats {jj}")
    return js


def _cross_check(build, args, js: list[int], modes, tmax: float):
    """Oracle cross-check on the truncated operator for each mode of
    ``modes`` (True: classical): the spectral-sum path against dense
    exp(tA) / exp(-iJt), at the check times up to ``tmax`` (at least the
    first).  Returns each mode's max abs deviation, NaN if any deviation
    is NaN, and the check times.

    Every mode's oracle is built first, so an operator above the
    oracle's size cap is refused before anything is decomposed.  The
    spectral path then runs on ``build.measure`` itself when it carries
    its operator's eigenvectors (custom, pst-demo, uniform),
    else on one eigendecomposition of that operator, shared by the
    modes.  All targets are evaluated over all check times in one call
    per mode, and the raw rows are compared: a NaN or out-of-band value
    is a mismatch."""
    j_op = build.measure.jacobi
    times = [t for t in _VERIFY_TIMES if t <= max(tmax, _VERIFY_TIMES[0])]
    checks = []
    for classical in modes:
        if classical:
            # _bind reads only the operator, which a decomposition keeps
            pi, boundary = _bind(build.measure, build.rates)
            operator = generator(build.rates, j_op.size - 1, boundary=boundary)
        else:
            operator, pi = j_op, None
        checks.append((pi, _oracle_evolutions(operator, times)))
    measure = build.measure if _carries_eigenvectors(build.measure) else eigendecompose(j_op)
    worst = []
    for pi, evolutions in checks:
        rows = _rows(measure, range(args.i, args.i + 1), js, np.array(times), pi)[0]
        deviations = []
        for k, dense in enumerate(evolutions):
            deviations += [abs(row[k] - dense[args.i, jj]) for row, jj in zip(rows, js)]
        # np.max keeps a NaN deviation, which max() would drop
        worst.append(float(np.max(deviations)))
    return worst, times


def cmd_simulate(args) -> int:
    verify_tol = _verify_tol(args)
    spec = _load_spec(args)
    build = build_from_spec(spec)
    times = _time_grid(args)
    js = _targets(args, build.measure.jacobi.size)
    if args.classical and build.rates is None:
        raise UsageError(
            f"family '{build.family}' defines no birth-death rates; classical "
            "dynamics is undefined (use --quantum)")
    pi, kind = ((_bind(build.measure, build.rates)[0], ProbabilitySeries) if args.classical
                else (None, AmplitudeSeries))
    # all targets in one pass over the grid; the series check each row
    # (NaN, probability band), and the oracle refuses a chain above its
    # caps, before the output directory is made
    rows = _rows(build.measure, range(args.i, args.i + 1), js, times, pi)[0]
    all_series = [kind(i=args.i, j=jj, times=times, values=row) for jj, row in zip(js, rows)]
    if args.verify:
        (worst,), at = _cross_check(build, args, js, [args.classical], times[-1])
    written = []
    for series in all_series:
        name = series_filename(series)
        _write(args, name, series_csv(series))
        written.append(name)
    manifest = {
        "command": "simulate",
        "mode": "classical" if args.classical else "quantum",
        "spec": spec,
        "grid": {"tmin": args.tmin, "tmax": args.tmax, "steps": args.steps},
        "sites": {"i": args.i, "j": js},
        "truncation": build.info,
        "tolerances": {"verify": verify_tol},
        "files": written,
    }
    code = EXIT_OK
    if args.verify:
        manifest["verify"] = {"max_abs_diff": worst, "times": list(at),
                              "target": "truncated-operator oracle"}
        print(f"oracle cross-check: max |diff| = {worst:.3e} over t in {list(at)}")
        if not worst <= verify_tol:  # NaN fails
            print(f"verification FAILED: {worst:.3e} > {verify_tol:.1e}", file=sys.stderr)
            code = EXIT_MISMATCH
    _write(args, "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    for name in written:
        print(os.path.join(args.output, name))
    return code


def cmd_return(args) -> int:
    build = build_from_spec(_load_spec(args))
    times = _time_grid(args)
    site = args.i
    measure = build.measure
    _check_site("i", site, measure.jacobi.size)
    verdict = classify_return(modified_measure(measure, measure.jacobi, site), tol=args.tol)
    payload = verdict.to_json_dict()
    if build.info:
        payload["evidence"] = dict(payload["evidence"]) | {"family_info": build.info}
    if args.scan:
        series = quantum_amplitude(build.measure, site, site, times)
        name = series_filename(series)
        _write(args, name, series_csv(series))
        maxima = return_probability_scan(series)
        payload["scan"] = {
            "file": os.path.join(args.output, name),
            "top_maxima": [[t, a] for t, a in maxima[:10]],
        }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_families(as_json: bool) -> int:
    schemas = family_schemas()
    if as_json:
        print(json.dumps(schemas, indent=2, sort_keys=True))
        return EXIT_OK
    for name, info in schemas.items():
        print(f"{name}: {info['notes']}")
        for pname, meta in info["params"].items():
            req = "required" if meta.get("required") else "optional"
            print(f"    {pname} ({meta['type']}, {req}): {meta['range']}")
    return EXIT_OK


def cmd_verify(args) -> int:
    verify_tol = _verify_tol(args)
    build = build_from_spec(_load_spec(args))
    tmax = _time_grid(args)[-1]
    js = _targets(args, build.measure.jacobi.size)
    modes = [False] if build.rates is None else [False, True]
    worsts, times = _cross_check(build, args, js, modes, tmax)
    print(f"quantum  spectral-vs-dense: max |diff| = {worsts[0]:.3e} over t in {list(times)}")
    if build.rates is not None:
        print(f"classical spectral-vs-expm: max |diff| = {worsts[1]:.3e}")
    else:
        print(f"classical check skipped: family '{build.family}' has no rates")
    worst = float(np.max(worsts))
    if not worst <= verify_tol:  # NaN fails
        print(f"verification FAILED: {worst:.3e} > {verify_tol:.1e}", file=sys.stderr)
        return EXIT_MISMATCH
    print(f"ok (tolerance {verify_tol:.1e})")
    return EXIT_OK


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", help="chain spec: path to a JSON file, or inline JSON")
    p.add_argument("--family", choices=[*family_schemas()], help="named family instead of --spec")
    for name, (flag, kind, ranges) in _spec_params().items():
        # a list parameter is given as JSON text
        p.add_argument(flag, dest=name, type={"float": float, "int": int}.get(kind),
                       help="; ".join(f"{'/'.join(fams)}: {r}" for r, fams in ranges.items())
                       + (" (JSON array)" if kind == "list[float]" else ""))
    p.add_argument("--output", default=".", help="output directory (default .)")


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tmin", type=float, default=0.0)
    p.add_argument("--tmax", type=float, default=10.0)
    p.add_argument("--steps", type=int, default=201)
    p.add_argument("--i", type=int, default=0, help="source site (default 0)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args leaves it unchanged, and
    an in-process main() call does not rebuild it."""
    parser = argparse.ArgumentParser(
        prog="spectral-walk",
        description="Birth-death processes and quantum walks from spectral measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="compute P_ij(t) or f_ij(t) series to CSV")
    _add_spec_args(p_sim)
    _add_grid_args(p_sim)
    p_sim.add_argument("--j", type=int, action="append",
                       help="target site, repeatable (default: same as --i)")
    mode = p_sim.add_mutually_exclusive_group()
    mode.add_argument("--classical", action="store_true", help="P_ij(t) (default: quantum)")
    mode.add_argument("--quantum", action="store_true", help="f_ij(t)")
    p_sim.add_argument("--verify", action="store_true",
                       help="cross-check against the dense oracle; mismatch exits 3")
    p_sim.add_argument("--verify-tol", type=float, default=_VERIFY_TOL)

    p_ret = sub.add_parser("return", help="classify return behavior, print verdict JSON")
    _add_spec_args(p_ret)
    _add_grid_args(p_ret)
    p_ret.add_argument("--tol", type=float, default=LATTICE_TOL, help="lattice-fit tolerance")
    p_ret.add_argument("--scan", action="store_true",
                       help="also write an |f_ii| scan CSV over the time grid")

    p_fam = sub.add_parser("families", help="list family specs and parameters")
    p_fam.add_argument("--json", action="store_true", help="machine-readable output")

    p_ver = sub.add_parser("verify", help="oracle cross-check for a chain spec")
    _add_spec_args(p_ver)
    _add_grid_args(p_ver)
    p_ver.add_argument("--j", type=int, action="append")
    p_ver.add_argument("--verify-tol", type=float, default=_VERIFY_TOL)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "families":
            return cmd_families(args.json)
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "return":
            return cmd_return(args)
        return cmd_verify(args)
    except SpectralWalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH if isinstance(exc, NumericError) else EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
