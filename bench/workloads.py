"""The benchmark's three workloads: seeded inputs, ops and oracle checks.

Each workload is a fixed list of ops built from the seed.  An op is one
chain or one CLI command: ``run`` is the timed call into spectral_walk
and returns everything the check needs; ``check`` compares that output
with an oracle from :mod:`oracles` outside the timed region.  The
parameters that set an op's cost (sites, quadrature order, modulus) are
spread evenly over their ranges, so every seed gives the same amount of
work; the rates, sites, targets and time grids come from the seed.

Ops call the package through module attributes at call time, so a traced
pass sees the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
import scipy.special

import oracles

P_TOL = 1e-8          # classical entries against expm
F_TOL = 1e-10         # quantum entries against the dense unitary
CLOSED_TOL = 1e-8     # amplitudes against special-function closed forms
SPECIAL_TOL = 1e-10   # the package's own bessel_j1 / jacobi_cn_dn
PERIOD_RTOL = 1e-9    # verdict t0 against the exact period
GRID_STEPS = 2001


@dataclass
class Op:
    """One timed call.  ``stiff`` marks inputs of the stiff-chain family
    (potential coefficients pi spanning many decades, ROADMAP item 3),
    on which the program is known to miss or refuse; the benchmark keeps
    them so that the defect stays visible."""

    kind: str
    size: int
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    outdir: str | None = None
    stiff: bool = False

    def misses(self, out) -> list[str]:
        """Oracle check of one output; an exception the op raised is its
        output and always a miss."""
        if isinstance(out, Exception):
            return [f"raised {type(out).__name__}: {out}"]
        try:
            return self.check(out)
        except (OSError, LookupError, TypeError, ValueError) as exc:  # output not as expected
            return [f"output unreadable: {type(exc).__name__}: {exc}"]


def _num(x) -> str:
    """Command-line text of a number that parses back to the same double."""
    return repr(float(x))


def _worst(got, want) -> float:
    diff = np.abs(np.asarray(got) - np.asarray(want))
    return float(np.max(np.where(np.isnan(diff), np.inf, diff)))


def _compare(misses: list[str], what: str, got, want, tol: float) -> None:
    err = _worst(got, want)
    if not err <= tol:
        misses.append(f"{what}: max |diff| {err:.3e} > {tol:.0e}")


# -- corpus: per-call overhead on small chains ---------------------------------

CORPUS_CHAINS = 120
CORPUS_SITES = (3, 18)            # sizes from one continuous range
CORPUS_GRADED_EVERY = 3           # every third chain has graded rates
CORPUS_TIMES = np.array([0.01, 0.1, 0.5, 1.0, 3.0])


def _corpus_run(sw, rates):
    j_op = sw.symmetrize(rates)
    measure = sw.eigendecompose(j_op)
    n = j_op.size
    p = np.full((n, n, len(CORPUS_TIMES)), np.nan)
    f = np.empty((n, n, len(CORPUS_TIMES)), dtype=complex)
    for i in range(n):
        for j in range(n):
            try:
                p[i, j] = sw.classical_transition(measure, rates, i, j, CORPUS_TIMES).values
            except sw.NumericError:
                pass  # left NaN: the check counts the entry as missed
            f[i, j] = sw.quantum_amplitude(measure, i, j, CORPUS_TIMES).values
    return p, f, sw.classify_return(measure).kind


def _corpus_check(lam, mu, out) -> list[str]:
    p, f, verdict = out
    misses = []
    err_p = np.abs(p - oracles.transition_expm(lam, mu, CORPUS_TIMES))
    err_p = np.where(np.isnan(err_p), np.inf, err_p)
    for i, j in np.argwhere(err_p.max(axis=2) > P_TOL):
        k = int(np.argmax(err_p[i, j]))
        what = ("raised NumericError" if np.isnan(p[i, j, k])
                else f"misses expm by {err_p[i, j, k]:.3e}")
        misses.append(f"P[{i},{j}] at t={CORPUS_TIMES[k]} {what}")
    b, jc = oracles.jacobi_of_rates(lam, mu)
    err_f = np.abs(f - oracles.unitary_dense(b, jc, CORPUS_TIMES)).max(axis=2)
    for i, j in np.argwhere(~(err_f <= F_TOL)):
        misses.append(f"f[{i},{j}] misses the dense unitary by {err_f[i, j]:.3e}")
    if verdict not in ("AlmostPerfect", "Perfect"):
        misses.append(f"verdict {verdict} for a finite chain")
    return misses


def corpus(sw, seed: int, workdir: str) -> list[Op]:
    """Seeded random finite chains; one op builds the full P(t) and f(t)
    matrices entry by entry, as per-entry API callers do."""
    rng = np.random.default_rng(seed)
    sizes = np.linspace(*CORPUS_SITES, CORPUS_CHAINS).round().astype(int).tolist()
    ops = []
    for k, n in enumerate(sizes):
        graded = k % CORPUS_GRADED_EVERY == 0
        if graded:
            a, b = rng.uniform(1.6, 2.0), rng.uniform(1.05, 1.25)
            lam, mu = a ** np.arange(n - 1.0), np.r_[0.0, b ** np.arange(1.0, n)]
            label = f"chain {k} graded n={n} lambda_i={a:.4f}^i mu_i={b:.4f}^i"
        else:
            lam, mu = rng.uniform(0.1, 2.0, n - 1), np.r_[0.0, rng.uniform(0.1, 2.0, n - 1)]
            label = f"chain {k} random n={n}"
        rates = sw.BirthDeathRates.from_arrays(lam, mu)
        ops.append(Op("graded" if graded else "random", n, label,
                      partial(_corpus_run, sw, rates),
                      partial(_corpus_check, np.r_[lam, 0.0], mu), stiff=graded))
    return ops


# -- long-grid: CLI commands over long time grids ------------------------------

def _cli_run(cli, argv: list[str]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue()


def _read_csv(outdir: str, name: str):
    data = np.loadtxt(os.path.join(outdir, name), delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1] + 1j * data[:, 2]


def _check_cli(outdir: str, t_max: float, expect: dict, out) -> list[str]:
    """``expect`` maps CSV names to closed-form callables of t, plus the
    optional keys 'verdict' (class, period or None) and 'verify'."""
    code, stdout = out
    if code != 0:
        return [f"exit code {code}"]
    misses = []
    grid = np.linspace(0.0, t_max, GRID_STEPS)
    for name, closed in expect.get("files", {}).items():
        try:
            t, f = _read_csv(outdir, name)
        except (OSError, ValueError) as exc:
            misses.append(f"{name}: unreadable ({exc})")
            continue
        _compare(misses, f"{name} grid", t, grid, 1e-12 * t_max)
        _compare(misses, name, f, closed(grid), expect.get("tol", CLOSED_TOL))
    if "verdict" in expect:
        kind, period = expect["verdict"]
        try:
            verdict = json.loads(stdout)
        except json.JSONDecodeError:
            return misses + ["verdict JSON unreadable"]
        if verdict.get("class") != kind:
            misses.append(f"verdict {verdict.get('class')}, expected {kind}")
        elif period is not None and not abs(verdict["t0"] - period) <= PERIOD_RTOL * period:
            misses.append(f"t0 = {verdict['t0']!r}, expected {period!r}")
    if expect.get("verify"):
        with open(os.path.join(outdir, "manifest.json")) as fh:
            worst = json.load(fh)["verify"]["max_abs_diff"]
        if not worst <= F_TOL:
            misses.append(f"verify max_abs_diff {worst:.3e} > {F_TOL:.0e}")
    return misses


def _closed_bessel(sw, q: int, t):
    _, measure = sw.uniform_chain(quad_order=q)
    f = sw.quantum_amplitude(measure, 0, 0, t).values
    return f, sw.bessel_j1(t[1:])


def _check_bessel(t, out) -> list[str]:
    f, j1 = out
    misses = []
    _compare(misses, "bessel_j1", j1, scipy.special.j1(t[1:]), SPECIAL_TOL)
    _compare(misses, "f_00 vs 2 J1(t)/t", f, oracles.uniform_continuous_amplitude(0, t),
             CLOSED_TOL)
    return misses


def _closed_elliptic(sw, variant: str, k: float, t):
    _, measure = sw.stieltjes_carlitz_chain(variant, k)
    ctx = sw.elliptic_context(k)
    omega = sw.fitted_omega(variant, ctx, measure)
    cn, dn = sw.jacobi_cn_dn(omega * t, ctx)
    return sw.quantum_amplitude(measure, 0, 0, t).values, cn, dn


def _check_elliptic(variant: str, k: float, t, out) -> list[str]:
    f, cn, dn = out
    _, cn_ref, dn_ref, _ = scipy.special.ellipj(t, k * k)
    misses = []
    _compare(misses, "jacobi_cn_dn cn", cn, cn_ref, SPECIAL_TOL)
    _compare(misses, "jacobi_cn_dn dn", dn, dn_ref, SPECIAL_TOL)
    _compare(misses, "f_00 vs cn/dn", f, oracles.stieltjes_carlitz_amplitudes(variant, k, t)[0],
             CLOSED_TOL)
    return misses


def _closed_characteristic(sw, beta: float, c: float, t):
    _, _, measure = sw.meixner_chain(beta, c)
    return sw.characteristic(measure, t)


def _check_characteristic(beta: float, c: float, t, out) -> list[str]:
    misses = []
    _compare(misses, "Meixner characteristic", out, oracles.meixner_characteristic(beta, c, t),
             1e-9)
    return misses


def long_grid(sw, seed: int, workdir: str) -> list[Op]:
    """In-process ``spectral_walk.cli.main`` commands on closed-form
    families over 2001-point grids, plus a few library ops that evaluate
    the package's own special functions on the grid, as the demos do."""
    import spectral_walk.cli as cli

    rng = np.random.default_rng(seed)
    ops: list[Op] = []

    def command(kind: str, size: int, argv: list[str], t_max: float, expect: dict):
        outdir = os.path.join(workdir, f"op{len(ops):03d}")
        full = argv + ["--tmax", _num(t_max), "--steps", str(GRID_STEPS), "--output", outdir]
        ops.append(Op(kind, size, " ".join(full[:-2]), partial(_cli_run, cli, full),
                      partial(_check_cli, outdir, t_max, expect), outdir))

    def library(kind: str, size: int, label: str, run, check):
        ops.append(Op(kind, size, label, run, check))

    t_maxes = iter(rng.permutation(np.linspace(20.0, 50.0, 100)))

    for q in np.geomspace(128, 1024, 18).round().astype(int):
        site, t_max = int(rng.integers(0, 4)), next(t_maxes)
        command("uniform-scan", q, ["return", "--scan", "--family", "uniform",
                                    "--quad-order", str(q), "--i", str(site)], t_max,
                {"files": {f"f_{site}_{site}.csv": partial(oracles.uniform_continuous_return, site)},
                 "verdict": ("NoReturn", None)})
    for q in np.geomspace(128, 512, 10).round().astype(int):
        js = sorted(rng.choice(9, size=2, replace=False).tolist())
        command("uniform-sim", q, ["simulate", "--family", "uniform", "--quad-order", str(q)]
                + [a for j in js for a in ("--j", str(j))], next(t_maxes),
                {"files": {f"f_0_{j}.csv": partial(oracles.uniform_continuous_amplitude, j)
                           for j in js}})
    for k_index, gap in enumerate(np.geomspace(1e-3, 0.5, 26)):
        k = 1.0 - gap
        variant = "C" if k_index % 2 == 0 else "D"
        family = f"sc-{variant.lower()}"
        law = partial(oracles.stieltjes_carlitz_amplitudes, variant, k)
        if k_index % 3 == 2:
            command("sc-sim", round(1 / gap), ["simulate", "--family", family, "--k", _num(k),
                                  "--j", "0", "--j", "1"], next(t_maxes),
                    {"files": {"f_0_0.csv": lambda t, law=law: law(t)[0],
                               "f_0_1.csv": lambda t, law=law: law(t)[1]}})
        else:
            command("sc-scan", round(1 / gap), ["return", "--scan", "--family", family, "--k", _num(k)],
                    next(t_maxes),
                    {"files": {"f_0_0.csv": lambda t, law=law: law(t)[0]},
                     "verdict": ("Perfect", oracles.stieltjes_carlitz_period(k))})
    for gap in np.geomspace(0.01, 0.7, 14):
        c, beta = 1.0 - gap, rng.uniform(0.5, 2.5)
        command("meixner-return", round(1 / gap), ["return", "--family", "meixner", "--beta", _num(beta),
                                      "--c", _num(c)], next(t_maxes),
                {"verdict": ("Perfect", 2.0 * math.pi)})
    for gap in np.geomspace(0.2, 0.7, 8):
        c, beta = 1.0 - gap, rng.uniform(0.5, 2.5)
        command("meixner-scan", round(1 / gap), ["return", "--scan", "--family", "meixner",
                                    "--beta", _num(beta), "--c", _num(c)], next(t_maxes),
                {"files": {"f_0_0.csv": partial(oracles.meixner_amplitude, beta, c, 0)},
                 "verdict": ("Perfect", 2.0 * math.pi), "tol": 1e-9})
    for gap in np.linspace(0.3, 0.7, 6):
        c, beta = 1.0 - gap, rng.uniform(0.5, 2.5)
        js = sorted(rng.choice(11, size=3, replace=False).tolist())
        command("meixner-sim", round(1 / gap), ["simulate", "--family", "meixner", "--beta", _num(beta),
                                   "--c", _num(c)] + [a for j in js for a in ("--j", str(j))],
                next(t_maxes),
                {"files": {f"f_0_{j}.csv": partial(oracles.meixner_amplitude, beta, c, j)
                           for j in js}, "tol": 1e-9})
    verify_families = ("pst-demo", "uniform", "sc-d", "meixner")
    for v_index, sites in enumerate(np.geomspace(16, 384, 8).round().astype(int)):
        family = verify_families[v_index % len(verify_families)]
        params = {"pst-demo": ["--n", str(sites)], "uniform": ["--n", str(sites - 1)],
                  "sc-d": ["--k", "0.8", "--s-max", str(sites // 2)],
                  "meixner": ["--beta", "1.0", "--c", _num(0.3 + 0.4 * rng.uniform())]}[family]
        command("verify", sites, ["simulate", "--verify", "--family", family] + params
                + ["--j", "0", "--j", "1"], 10.0, {"verify": True})
    for q in np.geomspace(128, 1024, 4).round().astype(int):
        t = np.linspace(0.0, next(t_maxes), GRID_STEPS)
        library("closed-bessel", q, f"bessel_j1 law, quad_order={q}",
                partial(_closed_bessel, sw, q, t), partial(_check_bessel, t))
    for e_index, gap in enumerate(np.geomspace(1e-3, 0.5, 4)):
        variant, k = "CD"[e_index % 2], 1.0 - gap
        t = np.linspace(0.0, next(t_maxes), GRID_STEPS)
        library("closed-elliptic", round(1 / gap), f"jacobi_cn_dn law, variant {variant}, k={float(k)!r}",
                partial(_closed_elliptic, sw, variant, k, t),
                partial(_check_elliptic, variant, k, t))
    for gap in np.linspace(0.2, 0.7, 2):
        c, beta = 1.0 - gap, rng.uniform(0.5, 2.5)
        t = np.linspace(0.0, next(t_maxes), GRID_STEPS)
        library("closed-characteristic", round(1 / gap), f"Meixner characteristic, beta={float(beta)!r} c={float(c)!r}",
                partial(_closed_characteristic, sw, beta, c, t),
                partial(_check_characteristic, beta, c, t))
    return ops


# -- big-chain: eigendecomposition of large finite chains ----------------------

BIG_SITES = (64, 2048)
BIG_CHAINS = 100
BIG_STEPS = 65


def _uniform_reference(n, pairs, times):
    return [(oracles.uniform_finite_amplitude(n, i, [j], times)[0], None) for i, j in pairs]


def _pst_reference(n, pairs, times):
    # the chain is mirror-symmetric: f_{n-1, n-1-j} = f_{0, j}
    return [(oracles.pst_amplitude(n, j if i == 0 else n - 1 - j, times), None)
            for i, j in pairs]


def _rates_reference(lam, mu, pairs, t_max):
    b, jc = oracles.jacobi_of_rates(lam, mu)
    rows = {i: (oracles.amplitude_row(b, jc, i, t_max, BIG_STEPS),
                oracles.transition_row(lam, mu, i, t_max, BIG_STEPS)) for i in {i for i, _ in pairs}}
    return [(rows[i][0][:, j], rows[i][1][:, j]) for i, j in pairs]


def _big_check(pairs, reference, out) -> list[str]:
    f, p = out
    misses: list[str] = []
    for k, ((i, j), (f_ref, p_ref)) in enumerate(zip(pairs, reference())):
        _compare(misses, f"f[{i},{j}]", f[k], f_ref, F_TOL)
        if p_ref is not None:
            _compare(misses, f"P[{i},{j}]", p[k], p_ref, P_TOL)
    return misses


def big_chain(sw, seed: int, workdir: str) -> list[Op]:
    """Uniform, perfect-transfer and random-rate chains with N
    log-spread over BIG_SITES; each op eigendecomposes the chain, then
    reads a few f entries (and P entries for the rate chains)."""
    rng = np.random.default_rng(seed)
    ops = []

    def run(build, rates, pairs, times):
        measure = build()
        f = [sw.quantum_amplitude(measure, i, j, times).values for i, j in pairs]
        p = [sw.classical_transition(measure, rates, i, j, times).values
             for i, j in pairs] if rates is not None else []
        return f, p

    sizes = np.geomspace(*BIG_SITES, BIG_CHAINS).round().astype(int).tolist()
    for k, n in enumerate(sizes):
        kind, rates = ("uniform", "pst-demo", "random-rates")[k % 3], None
        if kind == "uniform":
            times = np.linspace(0.0, 20.0, BIG_STEPS)
            pairs = [(int(i), int(j)) for i in rng.choice(n, size=2, replace=False)
                     for j in rng.choice(n, size=2)]
            build = lambda n=n: sw.uniform_chain(n=n - 1)[1]
            reference = partial(_uniform_reference, n, pairs, times)
        elif kind == "pst-demo":
            times = np.linspace(0.0, math.pi, BIG_STEPS)
            targets = [int(rng.integers(1, n - 1)), n - 1]
            pairs = [(0, j) for j in targets] + [(n - 1, n - 1 - j) for j in targets]
            build = lambda n=n: sw.eigendecompose(sw.pst_demo_chain(n))
            reference = partial(_pst_reference, n, pairs, times)
        else:
            times = np.linspace(0.0, 5.0, BIG_STEPS)
            lam = np.r_[rng.uniform(0.5, 1.5, n - 1), 0.0]
            mu = np.r_[0.0, rng.uniform(0.5, 1.5, n - 1)]
            rates = sw.BirthDeathRates.from_arrays(lam[:-1], mu)
            # a random environment: pi spans many decades as N grows (stiff);
            # near-diagonal P entries keep sqrt(pi_j / pi_i) moderate
            pairs = [(int(i), int(i) + d) for i in rng.choice(np.arange(2, n - 2), size=2,
                                                              replace=False) for d in (0, 1)]
            build = lambda rates=rates: sw.eigendecompose(sw.symmetrize(rates))
            reference = partial(_rates_reference, lam, mu, pairs, times[-1])
        ops.append(Op(kind, n, f"{kind} N={n} pairs={pairs}",
                      partial(run, build, rates, pairs, times),
                      partial(_big_check, pairs, reference), stiff=rates is not None))
    return ops


WORKLOADS = {"corpus": corpus, "long-grid": long_grid, "big-chain": big_chain}
# workloads whose time goes to large-array work: their host-speed
# calibration includes a LAPACK eigensolve (see hostspeed)
LAPACK_CALIBRATED = {"long-grid", "big-chain"}
