"""Command-line front end: scenario runs, parameter sweeps, certification.

Subcommands
-----------
run <config> [--out DIR] [--format csv|json]
    Resolve the mode range (scenario.resolve_m_range: auto, or an
    explicit range that covers every mode the potential requires), solve
    those modes, and write into the output directory: the per-mode table
    (``modes.csv`` or ``modes.json``), the run summary (``summary.csv``,
    one key,value line each, or ``summary.json``, one object), and, when
    the scenario requests angle samples, ``differential.csv`` with phi vs
    d sigma/d phi ready for plotting (csv in either format).

sweep <config> --vary name=start:stop:step [--vary ...] [--out DIR] [--format csv|json]
    Cartesian product over the varied potential parameters.  Each grid
    point resolves and solves its modes as run does and adds one row
    (varied values + total absorption cross section) to ``sweep.csv`` or
    ``sweep.json``, ordered by the flag order with the rightmost axis
    fastest.

certify [--strict]
    Self-check suite: Wronskian sweep, ODE residual sweep, closed-form
    model invariants, the independent radial-integration oracle against
    the closed forms, the quartic flux identities, the mirror-built
    quartic S_m against an independent forward fit, and the default
    (Floquet) quartic S_m against the inward solve.
    Prints one pass/fail line per check with its worst residual.
    --strict reruns the oracle at tolerance/100 and additionally requires
    the residuals to shrink.

Every file goes through one writer, which overwrites an existing table
in place and cuts it at the new end; the differential reaches it as one
2-D float64 array.  csv prints floats with 17 significant digits, under
a header line except in the key,value summary; json holds
``{name: [row objects]}`` (the summary: one object) whose numbers are
the same doubles, since 17 digits round-trip one.  A given input
produces byte-identical files.  Exit codes: 0 success, 1 usage or
configuration error, 2 solver or any other unexpected error (one line on
stderr, no traceback; a cross section past a double names p, and no
table is written unless all are finite), 3 certification failure.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import dataclasses
import itertools
import json
import math
import os
import sys

import numpy as np

from . import channels, oracle, quartic, scenario, specfun
from .errors import ConfigError, FluxsinkError, RangeError

__all__ = ["main", "run_scenario", "certify", "run_sweep"]


# points per --vary axis and per sweep grid (~4 h at ~70 inverse-square points/s)
GRID_POINTS_MAX = 10**6

MODE_COLUMNS = ("m", "regime", "nu_squared", "mu", "re_s", "im_s", "abs_s", "sigma_abs")


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _total_sigma(sols: list) -> float:
    # a sequential loop on purpose: sum() compensates on Python >= 3.12,
    # which would change the last digits of the written totals
    total = 0.0
    for sol in sorted(sols, key=lambda s: s.mode.m):
        total += sol.sigma_abs
    return total


def _model_label(model, pot) -> str:
    if isinstance(model, channels.Sink):
        return "sink"
    if isinstance(model, channels.Elastic):
        return "elastic(" + ", ".join(f"{k}={_g17(getattr(model, k))}" for k in pot.ELASTIC_KEYS) + ")"
    if isinstance(model, channels.TotalAbsorption):
        return pot.WINDOW_LABEL.format(lo=-model.n_minus, hi=model.n_plus)
    if isinstance(model, channels.Custom):
        ms = ", ".join(str(m) for m in sorted(model.ratios))
        return f"custom(modes {ms})"
    return type(model).__name__


# ---------------------------------------------------------------------
# output
# ---------------------------------------------------------------------


def _write_table(out_dir: str, name: str, fmt: str, header, rows) -> str:
    """Write ``name.csv`` or ``name.json``; returns the path.

    csv: the header line, then one line per row, floats as 17g text.
    json: ``{name: [row objects]}`` with floats as numbers; 17g round-trips
    a double, so both formats carry the same values.  With header None
    the rows are (key, value) pairs: csv lines without a header, or one
    flat JSON object.
    """
    path = os.path.join(out_dir, f"{name}.{fmt}")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline="") as fh:
        try:
            if fmt == "csv":
                # \n terminator and minimal quoting keep the bytes platform-independent
                out = csv.writer(fh, lineterminator="\n")
                if header is not None:
                    out.writerow(header)
                array = isinstance(rows, np.ndarray)  # a 2-D float64 table needs no per-cell scan
                cells = tuple(rows.ravel().tolist() if array else itertools.chain.from_iterable(rows))
                if array or rows and {*map(len, rows)} == {len(rows[0])} and all(map(isinstance, cells, itertools.repeat(float))):
                    line = ",".join(["%.17g"] * (rows.shape[1] if array else len(rows[0]))) + "\n"  # _g17 per cell, never quoted
                    fh.write(line * len(rows) % cells)  # one format pass; ragged rows take csv.writer
                else:
                    out.writerows([_g17(v) if isinstance(v, float) else v for v in row] for row in rows)
            else:
                obj = dict(rows) if header is None else {name: [dict(zip(header, row)) for row in rows]}
                fh.write(json.dumps(obj, indent=2) + "\n")
        finally:  # no O_TRUNC, which costs more than this cut; a shorter table leaves no stale tail
            if os.path.isfile(path):  # a device such as /dev/null cannot be cut
                fh.truncate()
    return path


def _resolve_out_dir(flag_value, scn) -> str:
    return flag_value or os.environ.get("FLUXSINK_OUTDIR") or scn.out_path


# ---------------------------------------------------------------------
# run
# ---------------------------------------------------------------------


def run_scenario(scn: scenario.Scenario, out_dir: str, fmt: str) -> list:
    """Solve, aggregate, and write the three output files; returns paths."""
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown output format {fmt!r} (csv or json)")
    pot = scn.potential
    lo, hi = scenario.resolve_m_range(scn)
    sols = pot.solve(range(lo, hi + 1), scn.model)
    modes = [
        (s.mode.m, s.mode.regime, s.mode.nu_squared, s.mode.mu,
         s.s_matrix.real, s.s_matrix.imag, abs(s.s_matrix), s.sigma_abs)
        for s in sols
    ]
    total = _total_sigma(sols)
    summary = [
        ("potential", pot.KIND),
        ("beta", pot.beta),
        (pot.COUPLING, getattr(pot, pot.COUPLING)),
        ("p", pot.p),
        ("mass", pot.mass),
        ("model", _model_label(scn.model, pot)),
        ("m_lo", lo),
        ("m_hi", hi),
        ("phi_samples", scn.phi_samples),
        ("sigma_total_abs", total),
    ]
    tables = [("modes", fmt, MODE_COLUMNS, modes), ("summary", fmt, None, summary)]
    finite = math.isfinite(total)  # each sigma_abs is >= 0, so a finite total has finite terms
    if scn.phi_samples > 0:
        edge = 2.0 * channels.PHI_MIN
        grid = np.linspace(edge, 2.0 * math.pi - edge, scn.phi_samples)
        rows = np.column_stack((grid, pot.differential(sols, grid)))
        tables.append(("differential", "csv", ("phi", "dsigma_dphi"), rows))
        finite = finite and np.isfinite(rows).all()
    if not finite:  # before any table is written
        raise RangeError(f"p={pot.p} is too small: a cross section overflows a double")
    os.makedirs(out_dir, exist_ok=True)
    return [_write_table(out_dir, *table) for table in tables]


def _cmd_run(args) -> int:
    scn = scenario.load_scenario(args.config)
    fmt = args.format or scn.out_format
    out_dir = _resolve_out_dir(args.out, scn)
    for path in run_scenario(scn, out_dir, fmt):
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------


def _parse_vary(raw: str) -> tuple:
    name, eq, grid = raw.partition("=")
    name = name.strip()
    parts = grid.split(":")
    if not eq or len(parts) != 3:
        raise ConfigError(f"--vary wants name=start:stop:step, got {raw!r}")
    try:
        start, stop, step = (float(t) for t in parts)
    except ValueError as exc:
        raise ConfigError(f"--vary {raw!r}: bounds must be numbers") from exc
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ConfigError(f"--vary {raw!r}: start, stop and step must be finite")
    if step <= 0.0 or stop < start:
        raise ConfigError(f"--vary {raw!r}: need step > 0 and stop >= start")
    count = (stop - start) / step + 1.0 + 1e-9  # inf if stop - start overflows
    if count >= GRID_POINTS_MAX + 1:
        raise ConfigError(f"--vary {raw!r}: more than {GRID_POINTS_MAX} points")
    values = [start + k * step for k in range(math.floor(count))]
    return name, values


def run_sweep(scn: scenario.Scenario, axes: list, out_dir: str, fmt: str) -> str:
    """Cartesian sweep over potential parameters; one row per grid point."""
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown output format {fmt!r} (csv or json)")
    allowed = {"beta", "p", "mass", scn.potential.COUPLING}
    names = [name for name, _ in axes]
    for name in names:
        if name not in allowed:
            raise ConfigError(
                f"--vary {name}: not a parameter of this potential"
                f" (allowed: {', '.join(sorted(allowed))})"
            )
    if len(set(names)) != len(names):
        raise ConfigError("--vary repeats a parameter name")
    if math.prod(len(values) for _, values in axes) > GRID_POINTS_MAX:
        raise ConfigError(f"--vary: the sweep grid has more than {GRID_POINTS_MAX} points")

    rows = []
    for combo in itertools.product(*(values for _, values in axes)):
        # an error names its grid point and keeps its class, so its exit code;
        # a parameter the potential refuses is invalid input
        try:
            potential = dataclasses.replace(scn.potential, **dict(zip(names, combo)))
        except FluxsinkError as exc:
            raise ConfigError(_at_point(names, combo, exc)) from exc
        try:
            lo, hi = scenario.resolve_m_range(dataclasses.replace(scn, potential=potential))
            rows.append((*combo, _total_sigma(potential.solve(range(lo, hi + 1), scn.model))))
        except FluxsinkError as exc:
            raise type(exc)(_at_point(names, combo, exc)) from exc

    os.makedirs(out_dir, exist_ok=True)
    return _write_table(out_dir, "sweep", fmt, names + ["sigma_total_abs"], rows)


def _at_point(names: list, combo: tuple, exc: Exception) -> str:
    point = ", ".join(f"{n}={_g17(v)}" for n, v in zip(names, combo))
    return f"sweep point ({point}): {exc}"


def _cmd_sweep(args) -> int:
    scn = scenario.load_scenario(args.config)
    axes = [_parse_vary(raw) for raw in args.vary]
    fmt = args.format or scn.out_format
    out_dir = _resolve_out_dir(args.out, scn)
    path = run_sweep(scn, axes, out_dir, fmt)
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------


def _wronskian_worst(n_draws: int, rng: np.random.Generator) -> float:
    worst = 0.0
    for _ in range(n_draws):
        kind = "real" if rng.random() < 0.5 else "imaginary"
        mu = rng.uniform(0.05 if kind == "imaginary" else 0.0, 40.0)
        x = 10.0 ** rng.uniform(-3.0, 4.0)
        worst = np.max((worst, specfun.wronskian_check(specfun.Order(kind, mu), x)))
    return worst


def _residual_worst(n_draws: int, rng: np.random.Generator) -> float:
    # five-point stencil at h = 1e-4 x against the defining equation
    worst = 0.0
    for _ in range(n_draws):
        kind = "real" if rng.random() < 0.5 else "imaginary"
        mu = rng.uniform(0.05 if kind == "imaginary" else 0.0, 5.0)
        order = specfun.Order(kind, mu)
        x = 10.0 ** rng.uniform(math.log10(0.5), 2.0)
        fn = specfun.bessel_j if rng.random() < 0.5 else (
            lambda o, xx: specfun.hankel(1, o, xx)
        )
        h = 1e-4 * x
        ys = [fn(order, x + k * h) for k in (-2, -1, 0, 1, 2)]
        d1 = (ys[0] - 8 * ys[1] + 8 * ys[3] - ys[4]) / (12 * h)
        d2 = (-ys[0] + 16 * ys[1] - 30 * ys[2] + 16 * ys[3] - ys[4]) / (12 * h * h)
        r = d2 + d1 / x + (1.0 - order.nu_squared / (x * x)) * ys[2]
        worst = np.max((worst, abs(r) / max(abs(ys[2]), 1.0)))
    return worst


def _closed_form_worst(n_draws: int, rng: np.random.Generator) -> float:
    worst = 0.0
    for _ in range(n_draws):
        beta = rng.uniform(0.05, 0.95)
        gamma = rng.uniform(0.3, 2.0)
        p = rng.uniform(0.5, 2.0)
        cfg = channels.ScatteringConfig(beta=beta, gamma=gamma, p=p)
        for m in channels.nonregular_modes(cfg):
            mode = channels.classify_mode(cfg, m)
            if mode.regime == channels.Regime.SUPERCRITICAL:
                el = channels.solve_channel(
                    cfg, mode, channels.ElasticSupercritical(theta=rng.uniform(0, 2 * math.pi))
                )
                sk = channels.solve_channel(cfg, mode, channels.Sink())
                want = (1.0 - math.exp(-2.0 * math.pi * mode.mu)) / p
                worst = np.max((worst, abs(sk.sigma_abs - want) / want))
            else:
                el = channels.solve_channel(
                    cfg, mode, channels.ElasticSubcritical(l=rng.uniform(-2.0, 2.0))
                )
            worst = np.max((worst, abs(abs(el.s_matrix) - 1.0), el.sigma_abs * p))
            ta = channels.solve_channel(
                cfg, mode, channels.TotalAbsorption(n_minus=abs(m), n_plus=abs(m))
            )
            worst = np.max((worst, abs(ta.sigma_abs - 1.0 / p) * p))
            want_f = -cmath.exp(-0.25j * math.pi) / p * math.cos(math.pi * beta)
            worst = np.max((worst, abs(ta.f_coeff - want_f) * p))
    return worst


def _oracle_channels(rng: np.random.Generator, n_draws: int) -> list:
    chans = []
    for _ in range(n_draws):
        if rng.random() < 0.5:
            beta = rng.uniform(0.05, 0.8)
            gamma = beta + rng.uniform(0.3, 1.0)
            cfg = channels.ScatteringConfig(beta=beta, gamma=gamma, p=rng.uniform(0.5, 2.0))
            chans.append((cfg, 0, channels.Sink()))
        else:
            beta = rng.uniform(0.1, 0.8)
            cfg = channels.ScatteringConfig(beta=beta, gamma=0.05, p=rng.uniform(0.5, 2.0))
            chans.append((cfg, 1, channels.ElasticSubcritical(l=rng.uniform(-0.5, 0.5))))
    return chans


def _oracle_worst(chans: list, tol: float) -> float:
    worst = 0.0
    for cfg, m, model in chans:
        mode = channels.classify_mode(cfg, m)
        closed = channels.solve_channel(cfg, mode, model).s_matrix
        probed = oracle.oracle_smatrix(cfg, mode, model, tol=tol)
        worst = np.max((worst, abs(probed - closed)))
    return worst


def _quartic_worst() -> tuple:
    cfg = quartic.QuarticConfig(beta=0.3, lam=1.0, p=1.0)
    flux = 0.0
    unit = 0.0
    forward = 0.0
    for m, conn in zip((0, 1), quartic.connection_matrices(cfg, (0, 1))):
        flux = np.max((flux, *conn.flux_defects))
        sol = quartic.quartic_smatrix(cfg, m, channels.Elastic())
        unit = np.max((unit, abs(abs(sol.s_matrix) - 1.0)))
        forward = np.max((forward, quartic.forward_fit_defect(cfg, m)))
    back = quartic.backward_defect(cfg, 0)
    return flux, unit, forward, back


def _spectral_vs_ode_worst() -> float:
    # beta = 0.3 and q = 2, 8 put m = -1..1 and more in instability bands, q = 100 all of -3..3
    cases = [(quartic.QuarticConfig(beta=0.3, lam=q, p=1.0), model)
             for q in (0.3, 2.0, 8.0, 100.0) for model in (channels.Sink(), channels.Elastic(theta=1.1))]
    return np.max([abs(a.s_matrix - b.s_matrix) for cfg, model in cases for a, b in zip(
        quartic.quartic_smatrices(cfg, range(-3, 4), model),
        quartic.quartic_smatrices(cfg, range(-3, 4), model, tol=1e-10))])


def certify(strict: bool = False, stream=None) -> int:
    """Run the release-gate checks; print the matrix; 0 if all pass else 3."""
    stream = stream or sys.stdout
    rng = np.random.default_rng(20260819)
    checks = []

    checks.append(("wronskian-sweep", _wronskian_worst(30, rng), 1e-8))
    checks.append(("ode-residual-sweep", _residual_worst(30, rng), 1e-6))
    checks.append(("closed-form-invariants", _closed_form_worst(8, rng), 1e-12))

    chans = _oracle_channels(rng, 3)
    worst_default = _oracle_worst(chans, 1e-6)
    checks.append(("oracle-vs-closed", worst_default, 1e-5))
    if strict:
        worst_tight = _oracle_worst(chans, 1e-8)
        checks.append(("oracle-vs-closed/100", worst_tight, 1e-5))
        # convergence evidence: refining the tolerance must help
        checks.append(("oracle-refinement", worst_tight, worst_default))

    flux, unit, forward, back = _quartic_worst()
    checks.append(("quartic-flux-form", flux, 1e-6))
    checks.append(("quartic-elastic-unitarity", unit, 1e-6))
    checks.append(("quartic-forward-fit", forward, 1e-6))
    checks.append(("quartic-backward-roundtrip", back, 1e-5))
    checks.append(("quartic-spectral-vs-ode", _spectral_vs_ode_worst(), 1e-8))

    failed = 0
    for name, worst, bound in checks:
        # a non-finite row fails; the rows take np.max, which keeps a NaN (max(0.0, nan) is 0.0)
        ok = math.isfinite(worst) and worst <= bound
        failed += 0 if ok else 1
        verdict = "PASS" if ok else "FAIL"
        print(
            f"[{verdict}] {name:28s} worst={worst:.3e}  bound={bound:.3e}",
            file=stream,
        )
    total = len(checks)
    print(f"certify: {total - failed}/{total} checks passed", file=stream)
    return 0 if failed == 0 else 3


def _cmd_certify(args) -> int:
    return certify(strict=args.strict)


# ---------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluxsink",
        description="Partial-wave scattering and absorption on flux lines with singular cores.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one scenario and write tables")
    p_run.add_argument("config", help="scenario file (ini sections, see package docs)")
    p_run.add_argument("--out", help="output directory (overrides FLUXSINK_OUTDIR and the config)")
    p_run.add_argument("--format", choices=("csv", "json"), help="table format (overrides config)")
    p_run.set_defaults(func=_cmd_run)

    p_cert = sub.add_parser("certify", help="run the self-check suite")
    p_cert.add_argument("--strict", action="store_true", help="also rerun the oracle at tolerance/100")
    p_cert.set_defaults(func=_cmd_certify)

    p_sweep = sub.add_parser("sweep", help="Cartesian parameter sweep")
    p_sweep.add_argument("config", help="base scenario file")
    p_sweep.add_argument(
        "--vary",
        action="append",
        required=True,
        metavar="NAME=START:STOP:STEP",
        help="axis to vary (repeatable); rightmost flag varies fastest",
    )
    p_sweep.add_argument("--out", help="output directory (overrides FLUXSINK_OUTDIR and the config)")
    p_sweep.add_argument("--format", choices=("csv", "json"), help="table format (overrides config)")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FluxsinkError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a failure no check anticipated: one line, no traceback
        print(f"solver error: {type(exc).__name__}: {exc}".replace("\n", " "), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
