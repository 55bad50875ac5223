"""Command-line front end.

Subcommands:
  simulate   chain spec -> CSV series (+ manifest.json, optional oracle verify)
  return     chain spec -> return-classification verdict JSON (optional scan CSV)
  families   list available chain families and parameter schemas
  verify     standalone oracle cross-check of the spectral evaluation paths

Exit codes: 0 success, 2 invalid spec or arguments (message names the
offending field), 3 oracle mismatch above tolerance.

Every run is deterministic: each time point is an ordered reduction over
the spectral nodes, so the same inputs give byte-identical CSV files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .chain_families import FAMILY_NAMES, build_from_spec, family_schemas
from .dynamics import (classical_transition, oracle_expm, quantum_amplitude, series_csv,
                       series_filename)
from .errors import SpectralWalkError, UsageError
from .jacobi_core import generator
from .return_analysis import classify_return, modified_measure, return_probability_scan
from .spectral import eigendecompose

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_MISMATCH = 3

_VERIFY_TOL = 1e-10
_VERIFY_TIMES = (0.1, 0.5, 1.0, 2.0, 5.0)


@dataclass
class RunConfig:
    """Resolved invocation: chain spec plus grid, sites and outputs."""

    spec: dict
    t_min: float = 0.0
    t_max: float = 10.0
    steps: int = 201
    i: int = 0
    js: tuple[int, ...] = (0,)
    output: str = "."
    verify_tol: float = _VERIFY_TOL
    lattice_tol: float = 1e-9
    extra: dict = field(default_factory=dict)

    def time_grid(self) -> np.ndarray:
        if self.t_min < 0:
            raise UsageError(f"field 'tmin' is {self.t_min}, must be >= 0")
        if self.t_max < self.t_min:
            raise UsageError(f"field 'tmax' is {self.t_max}, below tmin {self.t_min}")
        if self.t_max == self.t_min:
            return np.array([self.t_min])
        if self.steps < 2:
            raise UsageError(f"field 'steps' is {self.steps}, need >= 2 for a grid")
        return np.linspace(self.t_min, self.t_max, self.steps)


def _load_spec(arg_spec: str | None, arg_family: str | None, params: dict) -> dict:
    """Chain spec from --spec (file path or inline JSON) or --family + flags."""
    if (arg_spec is None) == (arg_family is None):
        raise UsageError("exactly one of --spec or --family is required")
    if arg_family is not None:
        spec = {"family": arg_family}
        spec.update({k: v for k, v in params.items() if v is not None})
        return spec
    text = arg_spec
    if os.path.exists(arg_spec):
        with open(arg_spec) as fh:
            text = fh.read()
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"--spec is neither an existing file nor valid JSON: {exc}")
    return spec


def _family_params(args) -> dict:
    return {
        "beta": args.beta, "c": args.c, "k": args.k, "n": args.n,
        "s_max": args.s_max, "quad_order": args.quad_order,
        "lambdas": json.loads(args.lambdas) if args.lambdas else None,
        "mus": json.loads(args.mus) if args.mus else None,
    }


def _check_site(name: str, value: int, size: int) -> None:
    if not 0 <= value < size:
        raise UsageError(f"field '{name}' is {value}, outside the chain's {size} sites")


def _verify_build(build, config: RunConfig, classical: bool):
    """Oracle cross-check on the truncated operator: the spectral-sum
    path against dense exp(tA) / exp(-iJt).  Returns max abs deviation."""
    j_op = build.jacobi
    check_measure = eigendecompose(j_op)
    worst = 0.0
    times = [t for t in _VERIFY_TIMES if t <= max(config.t_max, _VERIFY_TIMES[0])]
    if classical:
        if build.rates is None:
            raise UsageError(f"family '{build.family}' has no classical rates to verify")
        gen = generator(build.rates, j_op.size - 1,
                        boundary="reflecting" if build.family == "custom" else "absorbing-tail")
        for t in times:
            dense = oracle_expm(gen, t)
            for jj in config.js:
                series = classical_transition(check_measure, build.rates,
                                              config.i, jj, np.array([t]))
                worst = max(worst, abs(float(series.values[0]) - dense[config.i, jj]))
    else:
        for t in times:
            dense = oracle_expm(j_op, t)
            for jj in config.js:
                series = quantum_amplitude(check_measure, config.i, jj, np.array([t]))
                worst = max(worst, abs(complex(series.values[0]) - dense[config.i, jj]))
    return worst, times


def cmd_simulate(config: RunConfig) -> int:
    build = build_from_spec(config.spec)
    classical = config.extra.get("classical", False)
    times = config.time_grid()
    _check_site("i", config.i, build.jacobi.size)
    for jj in config.js:
        _check_site("j", jj, build.jacobi.size)
    if classical and build.rates is None:
        raise UsageError(
            f"family '{build.family}' defines no birth-death rates; classical "
            "dynamics is undefined (use --quantum)")
    os.makedirs(config.output, exist_ok=True)
    written = []
    for jj in config.js:
        if classical:
            series = classical_transition(build.measure, build.rates, config.i, jj, times)
        else:
            series = quantum_amplitude(build.measure, config.i, jj, times)
        name = series_filename(series)
        with open(os.path.join(config.output, name), "w") as fh:
            fh.write(series_csv(series))
        written.append(name)
    manifest = {
        "command": "simulate",
        "mode": "classical" if classical else "quantum",
        "spec": config.spec,
        "grid": {"tmin": config.t_min, "tmax": config.t_max, "steps": config.steps},
        "sites": {"i": config.i, "j": list(config.js)},
        "truncation": build.info,
        "tolerances": {"verify": config.verify_tol},
        "files": written,
    }
    code = EXIT_OK
    if config.extra.get("verify", False):
        worst, at = _verify_build(build, config, classical)
        manifest["verify"] = {"max_abs_diff": worst, "times": list(at),
                              "target": "truncated-operator oracle"}
        print(f"oracle cross-check: max |diff| = {worst:.3e} over t in {list(at)}")
        if worst > config.verify_tol:
            print(f"verification FAILED: {worst:.3e} > {config.verify_tol:.1e}",
                  file=sys.stderr)
            code = EXIT_MISMATCH
    with open(os.path.join(config.output, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name in written:
        print(os.path.join(config.output, name))
    return code


def cmd_return(config: RunConfig) -> int:
    build = build_from_spec(config.spec)
    site = config.i
    _check_site("site", site, build.jacobi.size)
    measure = build.measure
    if site != 0:
        measure = modified_measure(measure, build.jacobi, site)
    verdict = classify_return(measure, tol=config.lattice_tol)
    payload = verdict.to_json_dict()
    if build.info:
        payload["evidence"] = dict(payload["evidence"]) | {"family_info": build.info}
    if config.extra.get("scan", False):
        times = config.time_grid()
        series = quantum_amplitude(build.measure, site, site, times)
        os.makedirs(config.output, exist_ok=True)
        name = series_filename(series)
        with open(os.path.join(config.output, name), "w") as fh:
            fh.write(series_csv(series))
        maxima = return_probability_scan(series)
        payload["scan"] = {
            "file": os.path.join(config.output, name),
            "top_maxima": [[t, a] for t, a in maxima[:10]],
        }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_families(as_json: bool) -> int:
    schemas = family_schemas()
    if as_json:
        print(json.dumps(schemas, indent=2, sort_keys=True))
        return EXIT_OK
    for name in FAMILY_NAMES:
        info = schemas[name]
        print(f"{name}: {info['notes']}")
        for pname, meta in info["params"].items():
            req = "required" if meta.get("required") else "optional"
            print(f"    {pname} ({meta['type']}, {req}): {meta['range']}")
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    build = build_from_spec(config.spec)
    _check_site("i", config.i, build.jacobi.size)
    for jj in config.js:
        _check_site("j", jj, build.jacobi.size)
    worst_q, times = _verify_build(build, config, classical=False)
    print(f"quantum  spectral-vs-dense: max |diff| = {worst_q:.3e} over t in {list(times)}")
    worst = worst_q
    if build.rates is not None:
        worst_c, _ = _verify_build(build, config, classical=True)
        print(f"classical spectral-vs-expm: max |diff| = {worst_c:.3e}")
        worst = max(worst, worst_c)
    else:
        print(f"classical check skipped: family '{build.family}' has no rates")
    if worst > config.verify_tol:
        print(f"verification FAILED: {worst:.3e} > {config.verify_tol:.1e}",
              file=sys.stderr)
        return EXIT_MISMATCH
    print(f"ok (tolerance {config.verify_tol:.1e})")
    return EXIT_OK


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", help="chain spec: path to a JSON file, or inline JSON")
    p.add_argument("--family", choices=FAMILY_NAMES, help="named family instead of --spec")
    p.add_argument("--beta", type=float, help="meixner: beta > 0")
    p.add_argument("--c", type=float, help="meixner: c in (0,1)")
    p.add_argument("--k", type=float, help="sc-c/sc-d: modulus in (0,1)")
    p.add_argument("--n", type=int, help="family-dependent truncation / size")
    p.add_argument("--s-max", dest="s_max", type=int, help="sc: half support override")
    p.add_argument("--quad-order", dest="quad_order", type=int,
                   help="uniform continuous mode: quadrature order (default 256)")
    p.add_argument("--lambdas", help="custom: JSON array of birth rates")
    p.add_argument("--mus", help="custom: JSON array of death rates")
    p.add_argument("--output", default=".", help="output directory (default .)")


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tmin", type=float, default=0.0)
    p.add_argument("--tmax", type=float, default=10.0)
    p.add_argument("--steps", type=int, default=201)
    p.add_argument("--i", type=int, default=0, help="source site (default 0)")


def build_parser() -> argparse.ArgumentParser:
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
    p_ret.add_argument("--tol", type=float, default=1e-9, help="lattice-fit tolerance")
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


def _config_from_args(args) -> RunConfig:
    spec = _load_spec(args.spec, args.family, _family_params(args))
    js = tuple(args.j) if getattr(args, "j", None) else (args.i,)
    return RunConfig(
        spec=spec,
        t_min=args.tmin, t_max=args.tmax, steps=args.steps,
        i=args.i, js=js,
        output=args.output,
        verify_tol=getattr(args, "verify_tol", _VERIFY_TOL),
        lattice_tol=getattr(args, "tol", 1e-9),
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "families":
            return cmd_families(args.json)
        config = _config_from_args(args)
        if args.command == "simulate":
            config.extra["classical"] = args.classical
            config.extra["verify"] = args.verify
            return cmd_simulate(config)
        if args.command == "return":
            config.extra["scan"] = args.scan
            return cmd_return(config)
        return cmd_verify(config)
    except SpectralWalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
