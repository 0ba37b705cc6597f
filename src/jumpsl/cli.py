"""Command-line front end.

Subcommands: eigs, spectral-data, weyl, asym-check, gauge, two-spectra,
fit, contour-count.  Configs use the JSON problem schema; outputs are
CSV/JSON tables written atomically.  Exit status: 0 success, 1 validation
or config error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import asymptotics, inverse, weyl
from .errors import ConfigParseError, NumericalError, ValidationError
from .problem import _atomic_write, gauge_transform, load_problem, problem_to_dict
from .spectrum import (_fmt, _spectral_text, char_delta, count_zeros_contour,
                       eigenvalues, spectral_data)

__all__ = ["main"]

_HINTS = {
    "ConfigParseError": "check the JSON config against the documented schema",
    "JumpOrderError": "jump points must be strictly increasing inside (0, pi)",
    "JumpSignError": "each jump needs a*b > 0",
    "BoundaryConstraintError": "eigenparameter data must satisfy r1 > 0 and r2 > 0",
    "MissedEigenvalueError": "the oscillation index and Delta disagree; try a higher cpm_density",
    "ContourTooCloseError": "shift the contour away from eigenvalues",
    "InterlacingError": "primary and secondary spectra must interlace",
    "NonconvergenceError": "try a closer initial guess or wider bounds",
    "PoleError": "evaluation point coincides with an eigenvalue",
}


def _emit(text, out_path):
    if out_path:
        _atomic_write(out_path, text)
    else:
        sys.stdout.write(text)


def _parse_floats(csv_text):
    return [float(t) for t in csv_text.split(",") if t.strip()]


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="jumpsl",
        description="Forward and inverse spectral solver for Sturm-Liouville "
                    "problems with interior transmission conditions.")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def add(name, command, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(command=command)
        p.add_argument("config", help="problem config (JSON)")
        p.add_argument("-o", "--output", default=None,
                       help="output path (default: stdout)")
        return p

    p = add("eigs", _cmd_eigs, "lowest eigenvalues as CSV")
    p.add_argument("--count", type=int, required=True)

    p = add("spectral-data", _cmd_spectral_data, "eigenvalues with gamma_n and beta_n as CSV")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--json", action="store_true", dest="as_json")

    p = add("weyl", _cmd_weyl, "sample the Weyl m-function along a lambda line")
    p.add_argument("--grid", required=True,
                   help="START:STOP:NUM for the real part of lambda")
    p.add_argument("--imag", type=float, default=0.0,
                   help="imaginary part of lambda (default 0)")

    p = add("asym-check", _cmd_asym_check, "exact vs asymptotic Delta comparison table")
    p.add_argument("--rho", required=True,
                   help="comma-separated rho values, e.g. 40,80")

    add("gauge", _cmd_gauge, "emit the gauge-normalized config (w preserved)")

    p = add("two-spectra", _cmd_two_spectra, "recover m(lambda) from two truncated spectra")
    p.add_argument("--count", type=int, required=True,
                   help="eigenvalues per spectrum")
    p.add_argument("--lam", required=True,
                   help="comma-separated lambda evaluation points")
    p.add_argument("--truncation", type=int, default=None)

    p = add("fit", _cmd_fit, "inverse fit from a fit-spec JSON")
    p.add_argument("fitspec", help="fit definition (JSON)")

    p = add("contour-count", _cmd_contour_count, "argument-principle zero count in a rectangle")
    p.add_argument("--rect", required=True,
                   help="re_min,re_max,im_min,im_max")
    return ap


# ----------------------------------------------------------------------
# subcommand bodies
# ----------------------------------------------------------------------

def _cmd_eigs(p, args):
    _emit(_spectral_text(eigenvalues(p, args.count)), args.output)


def _cmd_spectral_data(p, args):
    sd = spectral_data(p, eigenvalues(p, args.count))
    _emit(_spectral_text(sd, args.as_json), args.output)


def _cmd_weyl(p, args):
    try:
        start, stop, num = args.grid.split(":")
        grid = np.linspace(float(start), float(stop), int(num))
    except ValueError:
        raise ConfigParseError(f"--grid expects START:STOP:NUM, got {args.grid!r}")
    _emit(weyl._m_samples_text(weyl.weyl_m(p, grid + 1j * args.imag)),
          args.output)


def _cmd_asym_check(p, args):
    rhos = _parse_floats(args.rho)
    power = 5 if p.variant == "eigenparameter" else 1
    lines = ["rho,exact_delta,asymptotic_delta,scaled_error"]
    scaled = []
    for r in rhos:
        asym = complex(asymptotics.asymptotic_eval(p, "delta", None, r)).real
        exact = char_delta(p, r * r).real
        err = abs(exact - asym) / abs(r) ** power
        scaled.append(err)
        lines.append(",".join([_fmt(r), _fmt(exact), _fmt(asym), _fmt(err)]))
    if len(rhos) == 2 and scaled[0] != 0.0:
        lines.append(f"# scaled_error_ratio,{_fmt(scaled[1] / scaled[0])}")
    _emit("\n".join(lines) + "\n", args.output)


def _cmd_gauge(p, args):
    g = gauge_transform(p)
    data = problem_to_dict(g)
    data["note"] = ("gauge-normalized transmission coefficients: every "
                    "a_i b_i = 1, so w == 1 identically")
    _emit(json.dumps(data, indent=2) + "\n", args.output)


def _cmd_two_spectra(p, args):
    prim = eigenvalues(p, args.count)
    sec = weyl.secondary_spectrum(p, args.count)
    ts = weyl.TwoSpectra(primary=prim, secondary=sec, problem=p)
    lams = np.array(_parse_floats(args.lam))
    approx = weyl.m_from_two_spectra(ts, lams, n_terms=args.truncation).real
    direct = weyl.weyl_m(p, lams, prim).m.real
    lines = ["lambda,m_two_spectra,m_direct"]
    lines += [",".join(map(_fmt, row)) for row in zip(lams, approx, direct)]
    _emit("\n".join(lines) + "\n", args.output)


def _named_parameters(fs, params):
    """Fitted values by token: a list of coefficients for ``q<i>``, else a
    number."""
    return {tok: params[sl].tolist() if kind == "q" else params[sl][0].item()
            for tok, kind, _, sl in inverse._token_slots(fs)}


def _cmd_fit(template, args):
    fs = inverse.load_fitspec(args.fitspec, template)
    result = inverse.fit(fs)
    data = {
        "converged": result.converged,
        "residual_norm": result.norm,
        "nfev": result.nfev,
        "message": result.message,
        "parameters": _named_parameters(fs, result.params),
        "problem": problem_to_dict(result.problem),
    }
    _emit(json.dumps(data, indent=2) + "\n", args.output)
    if not result.converged:
        raise NumericalError(f"fit did not converge: {result.message}")


def _cmd_contour_count(p, args):
    rect = _parse_floats(args.rect)
    if len(rect) != 4:
        raise ConfigParseError("--rect expects re_min,re_max,im_min,im_max")
    n = count_zeros_contour(p, tuple(rect))
    _emit(f"zeros_inside,{n}\n", args.output)


def main(argv=None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits 2 on usage errors; remap to the validation code
            return 0 if exc.code in (0, None) else 1
        args.command(load_problem(args.config), args)
        return 0
    except NumericalError as exc:
        _report(exc)
        return 2
    except (ValidationError, OSError) as exc:
        _report(exc)
        return 1


def _report(exc):
    name = type(exc).__name__
    hint = _HINTS.get(name)
    line = f"jumpsl: {name}: {exc}"
    if hint:
        line += f" (hint: {hint})"
    print(line, file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
