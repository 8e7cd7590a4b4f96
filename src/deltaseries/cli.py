"""Batch command line front end.

Subcommands: table, log, bernoulli, invert, eval, verify, presets-list.
Exit codes: 0 success, 1 verification/invariant failure, 2 usage or parse
error.  DELTASERIES_MAX_ORDER (a positive integer, default 128) caps
--order and the build orders of bernoulli (order+1) and verify (2n+2).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import exprparse as ep
from . import fps
from . import presets as pr
from . import scalar as sc
from . import stirling as st
from . import verify as vf
from .errors import DeltaSeriesError

DEFAULT_MAX_ORDER = 128


class UsageError(Exception):
    pass


def _check_cap(order, what):
    raw = os.environ.get("DELTASERIES_MAX_ORDER", "")
    try:
        cap = int(raw) if raw else DEFAULT_MAX_ORDER
    except ValueError:
        cap = 0
    if cap < 1:  # a cap below 1 would refuse every request as "exceeding" it
        raise UsageError("DELTASERIES_MAX_ORDER must be a positive integer, got %r" % raw)
    if order > cap:
        raise UsageError("%s %d exceeds the cap %d (DELTASERIES_MAX_ORDER)" % (what, order, cap))


@functools.cache
def _parser():
    """The argument parser, built on first use and kept for the process."""
    ap = argparse.ArgumentParser(prog="deltaseries", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, order=True, n=False, fmt=True):
        src = p.add_mutually_exclusive_group()
        src.add_argument("--preset", help="built-in series id (see presets-list)")
        src.add_argument("--f", dest="expr", help="delta series expression, e.g. 't/(1+t)'")
        p.add_argument("--lambda", dest="lam", default=None,
                       help="'symbolic' or a rational value for lambda")
        if n:
            p.add_argument("--n", type=int, default=None, help="maximum row index")
        if order:
            p.add_argument("--order", type=int, default=None, help="truncation order")
        if fmt:
            p.add_argument("--format", dest="fmt", choices=("plain", "csv", "json"), default="plain")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")

    p = sub.add_parser("table", help="emit a Stirling triangle")
    p.add_argument("--kind", choices=("s1", "s2"), required=True)
    add_common(p, n=True)

    p = sub.add_parser("log", help="emit the associated logarithm")
    add_common(p)

    p = sub.add_parser("bernoulli", help="emit associated Bernoulli numbers")
    p.add_argument("--alpha", required=True, help="order alpha (rational)")
    add_common(p, n=True)

    p = sub.add_parser("invert", help="emit the compositional inverse")
    add_common(p)

    p = sub.add_parser("eval", help="evaluate an expression to a series")
    add_common(p)

    p = sub.add_parser("verify", help="run an invariant suite (plain text report)")
    p.add_argument("suite", choices=vf.SUITES + ("all",))
    add_common(p, n=True, fmt=False)

    p = sub.add_parser("presets-list", help="list the built-in series")
    p.add_argument("--format", dest="fmt", choices=("plain", "csv", "json"), default="plain")
    p.add_argument("--out", default=None)

    return ap


def _resolve_orders(args, default_n=8):
    n, order = getattr(args, "n", None), getattr(args, "order", None)
    if n is not None and n < 0:
        raise UsageError("--n must not be negative, got %d" % n)
    flag = "--order" if order is not None else "--n (without --order)"
    if order is None:
        order = default_n if n is None else n
    if n is None:
        n = order
    if n > order:
        raise UsageError("--n (%d) must not exceed --order (%d)" % (n, order))
    _check_cap(order, "--order")
    if order < 1:
        raise UsageError("%s must be at least 1" % flag)
    return n, order


def _lambda_mode(args):
    lam = args.lam
    if lam is None:
        return sc.LAMBDA_ABSENT
    if lam == sc.LAMBDA_SYMBOLIC:
        return sc.LAMBDA_SYMBOLIC
    try:
        return Fraction(lam)
    except (ValueError, ZeroDivisionError):
        raise UsageError("--lambda must be 'symbolic' or a rational, got %r" % lam)


def _series_source(args, order, need_delta=True):
    """Build the working series from --preset or --f at the given order."""
    mode = _lambda_mode(args)
    if args.preset:
        if args.preset not in pr.PRESET_IDS:
            raise UsageError("unknown preset %r (see presets-list)" % args.preset)
        preset = pr.make_preset(args.preset, order, mode)
        return preset.f if need_delta else preset.f.series, args.preset
    if args.expr:
        s = ep.eval_expr(ep.parse(args.expr), order, mode)
        return (ep.require_delta(s) if need_delta else s), args.expr
    raise UsageError("give one of --preset / --f")


def _emit(text, out):
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError("cannot write --out %r: %s" % (out, exc.strerror or exc)) from None
    else:
        sys.stdout.write(text)


def _values_csv(values):
    lines = ["n,value"]
    for n, v in enumerate(values):
        lines.append("%d,%s" % (n, sc.csv_cell(v)))
    return "\n".join(lines) + "\n"


def _series_text(series, fmt):
    if fmt == "json":
        return fps.series_to_json_str(series) + "\n"
    if fmt == "csv":
        return _values_csv(series.coeffs)
    out = []
    for n, c in enumerate(series.coeffs):
        out.append("[t^%d] %s" % (n, sc.format_scalar(c)))
    return "\n".join(out) + "\n"


def _triangle_text(tri, fmt, label):
    if fmt == "json":
        return json.dumps(tri.to_json(label)) + "\n"
    if fmt == "csv":
        return tri.to_csv()
    out = []
    for n in range(tri.max_n + 1):
        cells = "  ".join(sc.format_scalar(c) for c in tri.rows[n])
        out.append("%d: %s" % (n, cells))
    return "\n".join(out) + "\n"


def run_table(args):
    n, order = _resolve_orders(args)
    f, label = _series_source(args, order)
    f = f.truncate(max(n, 1))  # rows up to n read only f's first n coefficients
    tri = st.s1_assoc(f, n) if args.kind == "s1" else st.s2_assoc(f, n)
    _emit(_triangle_text(tri, args.fmt, label), args.out)
    return 0


def run_log(args):
    _, order = _resolve_orders(args)
    f, _label = _series_source(args, order)
    _emit(_series_text(st.assoc_log(f), args.fmt), args.out)
    return 0


def run_bernoulli(args):
    try:
        alpha = Fraction(args.alpha)
    except (ValueError, ZeroDivisionError):
        raise UsageError("--alpha must be rational, got %r" % args.alpha)
    n, order = _resolve_orders(args)
    _check_cap(order + 1, "bernoulli's build order (order+1) =")
    f, label = _series_source(args, order + 1)
    fam = st.bernoulli_assoc(f, alpha, n)
    if args.fmt == "json":
        text = json.dumps({
            "alpha": str(alpha),
            "f": label,
            "values": [sc.format_scalar(v) for v in fam.values],
        }) + "\n"
    elif args.fmt == "csv":
        text = _values_csv(fam.values)
    else:
        text = "\n".join("B_%d = %s" % (m, sc.format_scalar(v)) for m, v in enumerate(fam.values)) + "\n"
    _emit(text, args.out)
    return 0


def run_invert(args):
    _, order = _resolve_orders(args)
    f, _label = _series_source(args, order)
    _emit(_series_text(st.compositional_inverse(f).series, args.fmt), args.out)
    return 0


def run_eval(args):
    _, order = _resolve_orders(args)
    s, _label = _series_source(args, order, need_delta=False)
    _emit(_series_text(s, args.fmt), args.out)
    return 0


def run_verify(args):
    n, _ = _resolve_orders(args)
    build_order = 2 * n + 2
    _check_cap(build_order, "verify's build order 2n+2 =")
    if args.preset == "all":
        if args.lam is not None:
            raise UsageError("--preset all fixes lambda (symbolic for degenerate presets); drop --lambda")
        targets = vf.corpus_targets(build_order)
    else:
        f, label = _series_source(args, build_order)
        targets = [(label, f)]
    suites = (args.suite,)
    reports = vf.run_suites(suites, targets, n)
    lines = []
    for r in reports:
        lines.extend(r.lines())
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if all(r.ok for r in reports) else 1


def run_presets_list(args):
    reg = pr.registry_json()
    if args.fmt == "json":
        text = json.dumps(reg, indent=2) + "\n"
    elif args.fmt == "csv":
        lines = ["id,letter,degenerate,formula"]
        for pid, info in reg.items():
            lines.append('%s,%s,%s,"%s"' % (pid, info["letter"], info["degenerate"], info["formula"]))
        text = "\n".join(lines) + "\n"
    else:
        lines = []
        for pid, info in reg.items():
            mark = "lambda" if info["degenerate"] else "      "
            lines.append("%-18s (%s) %s  %s" % (pid, info["letter"], mark, info["formula"]))
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


_RUNNERS = {
    "table": run_table,
    "log": run_log,
    "bernoulli": run_bernoulli,
    "invert": run_invert,
    "eval": run_eval,
    "verify": run_verify,
    "presets-list": run_presets_list,
}


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep its code
        return int(exc.code or 0)
    try:
        return _RUNNERS[args.command](args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except DeltaSeriesError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant violation
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
