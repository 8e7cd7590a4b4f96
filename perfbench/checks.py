"""Output checks for the benchmark jobs, each by a route independent of the
one the job took, and the canonical text that output digests are taken of.

A check returns None when the output is right, a :class:`Mismatch` when an
independent route disagrees with it, or a :class:`BadExit` when a command
line request exited with the wrong code.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from fractions import Fraction

from deltaseries import cli, exprparse, fps, presets, scalar, stirling, verify


class Mismatch(str):
    """An output that an independent route disagrees with."""


class BadExit(str):
    """A request that exited with another code than expected."""


def _same(a, b):
    return scalar.simplify(a) == scalar.simplify(b)


def canon(out):
    """Canonical text of a job's output; equal text means bit-identical."""
    fmt = scalar.format_scalar
    if isinstance(out, stirling.Triangle):
        rows = "\n".join("  ".join(fmt(c) for c in row) for row in out.rows)
        return "triangle %s %d %s\n%s" % (out.kind, out.max_n, out.ring, rows)
    if isinstance(out, fps.DeltaSeries):
        out = out.series
    if isinstance(out, fps.Series):
        return "series %d %s\n%s" % (out.order, out.ring, "\n".join(fmt(c) for c in out.coeffs))
    if isinstance(out, stirling.BernoulliFamily):
        return "bernoulli %s\n%s" % (out.order_alpha, "\n".join(fmt(v) for v in out.values))
    if isinstance(out, tuple):
        code, stdout, _stderr = out
        return "exit %d\n%s" % (code, stdout)
    raise TypeError("no canonical form for %r" % (type(out),))


# ---------------------------------------------------------------------------
# triangle builders

def _exp_m1(order):
    return fps.sub(fps.exp_series(fps.t_series(order)), fps.one(order))


def builder_check(kind, src, f, n, alpha):
    """Check one builder output.  Presets go through their closed-form
    oracles; other inputs through orthogonality of the two triangles or a
    composition identity."""

    def check_triangle(tri):
        if tri.kind != kind or tri.max_n != n:
            return Mismatch("triangle is %s n=%d" % (tri.kind, tri.max_n))
        if src.pid is not None:
            oracle = presets.oracle_s2 if kind == "s2" else presets.oracle_s1
            for i in range(n + 1):
                for k in range(i + 1):
                    if not _same(tri.entry(i, k), oracle(src.pid, i, k, src.lam)):
                        return Mismatch("(%d,%d) differs from the closed form" % (i, k))
            return None
        other = stirling.s1_assoc(f, n) if kind == "s2" else stirling.s2_assoc(f, n)
        s2, s1 = (tri, other) if kind == "s2" else (other, tri)
        rep = stirling.check_orthogonality_triangles(s2, s1)
        return None if rep.ok else Mismatch("orthogonality: %r" % (rep.failures[0],))

    def check_log(out):
        if src.pid is not None:
            want = presets.oracle_log(src.pid, f.order, src.lam)
        else:
            # L = f(log(1+t)) composes back to f with e^t - 1
            out, want = fps.compose(out, _exp_m1(f.order)), f.series
        ok = out.order == want.order and all(_same(a, b) for a, b in zip(out.coeffs, want.coeffs))
        return None if ok else Mismatch("associated logarithm differs")

    def check_inverse(out):
        ok = fps.compose(f.series, out.series) == fps.t_series(f.order)
        return None if ok else Mismatch("f(fbar(t)) != t")

    def check_bernoulli(fam):
        # (t/(e^g-1))^alpha through exp/log instead of division and powers
        gs = f.series.truncate(n + 1)
        w = fps.shift_down(fps.sub(fps.exp_series(gs), fps.one(n + 1, gs.ring)), 1)
        c = w.coeffs[0]
        unit = fps.scale(w, scalar.scalar_inv(c))
        want = fps.scale(fps.pow_ratio(unit, Fraction(-alpha)), scalar.scalar_pow(c, -alpha))
        vals = [fps.egf_coeff(want, m) for m in range(n + 1)]
        ok = len(fam.values) == n + 1 and all(_same(a, b) for a, b in zip(fam.values, vals))
        return None if ok else Mismatch("Bernoulli numbers differ from the exp/log route")

    return {"s2": check_triangle, "s1": check_triangle, "log": check_log,
            "inv": check_inverse, "bern": check_bernoulli}[kind]


# ---------------------------------------------------------------------------
# command line requests

def run_cli(argv):
    """cli.main in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _mode(req):
    if req.mode is None:
        return presets.LAMBDA_ABSENT
    return req.mode if req.mode == presets.LAMBDA_SYMBOLIC else Fraction(req.mode)


def _library_source(req, order, need_delta=True):
    kind, what = req.source
    if kind == "preset":
        f = presets.make_preset(what, order, _mode(req)).f
        return f if need_delta else f.series
    s = exprparse.eval_expr(exprparse.parse(what), order, _mode(req))
    return exprparse.require_delta(s) if need_delta else s


def _csv_cells(text, header, width):
    """Value cells of a csv listing, keyed by their index columns."""
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != header:
        raise ValueError("csv header %r" % rows[0])
    return {tuple(int(x) for x in r[:width]): r[width] for r in rows[1:]}


def _parsed_values(req, out):
    """The scalars a request printed, keyed by position, with the json
    fields that are not scalars."""
    fmt, cmd = req.fmt, req.cmd
    meta = {}
    if cmd == "table":
        if fmt == "json":
            obj = json.loads(out)
            meta = {k: obj[k] for k in ("kind", "f", "ring", "max_n")}
            cells = {(i, k): c for i, row in enumerate(obj["rows"]) for k, c in enumerate(row)}
        elif fmt == "csv":
            cells = _csv_cells(out, ["n", "k", "value"], 2)
        else:
            cells = {}
            for line in out.splitlines():
                head, rest = line.split(": ", 1)
                for k, c in enumerate(rest.split("  ")):
                    cells[(int(head), k)] = c
    elif cmd == "bernoulli":
        if fmt == "json":
            obj = json.loads(out)
            meta = {"alpha": obj["alpha"], "f": obj["f"]}
            cells = {(m,): c for m, c in enumerate(obj["values"])}
        elif fmt == "csv":
            cells = _csv_cells(out, ["n", "value"], 1)
        else:
            cells = {}
            for line in out.splitlines():
                head, c = line.split(" = ", 1)
                cells[(int(head[2:]),)] = c
    else:
        if fmt == "json":
            obj = json.loads(out)
            meta = {k: obj[k] for k in ("order", "ring", "egf")}
            cells = {(m,): c for m, c in enumerate(obj["coeffs"])}
        elif fmt == "csv":
            cells = _csv_cells(out, ["n", "value"], 1)
        else:
            cells = {}
            for line in out.splitlines():
                head, c = line.split("] ", 1)
                cells[(int(head[3:]),)] = c
    return {key: scalar.parse_scalar(c) for key, c in cells.items()}, meta


def _library_values(req):
    """What the library computes for the request, keyed like the output."""
    if req.cmd == "table":
        f = _library_source(req, req.order)
        tri = (stirling.s1_assoc if req.extra == "s1" else stirling.s2_assoc)(f, req.n)
        label = req.source[1]
        meta = {"kind": req.extra, "f": label, "ring": tri.ring, "max_n": req.n}
        return {(i, k): c for i, row in enumerate(tri.rows) for k, c in enumerate(row)}, meta
    if req.cmd == "bernoulli":
        alpha = Fraction(req.extra)
        f = _library_source(req, max(req.order, req.n) + 1)
        fam = stirling.bernoulli_assoc(f, alpha, req.n)
        meta = {"alpha": str(alpha), "f": req.source[1]}
        return {(m,): v for m, v in enumerate(fam.values)}, meta
    if req.cmd == "log":
        s = stirling.assoc_log(_library_source(req, req.order))
    elif req.cmd == "invert":
        s = stirling.compositional_inverse(_library_source(req, req.order)).series
    else:
        s = _library_source(req, req.order, need_delta=False)
    meta = {"order": s.order, "ring": s.ring, "egf": False}
    return {(m,): c for m, c in enumerate(s.coeffs)}, meta


def cli_check(req):
    def check(result):
        code, out, err = result
        if req.expect == 2:
            if code != 2:
                return BadExit("exit %d, want 2: %s" % (code, err.strip().splitlines()[-1:]))
            return Mismatch("error exit wrote to stdout") if out else None
        if req.cmd == "verify":
            n, label = req.n, req.source[1]
            if label == "all":
                targets = verify.corpus_targets(2 * n + 2)
            else:
                targets = [(label, _library_source(req, 2 * n + 2))]
            reports = verify.run_suites((req.extra,), targets, n)
            want = 0 if all(r.ok for r in reports) else 1
            if code != want:
                return BadExit("exit %d, want %d" % (code, want))
            lines = "\n".join(line for r in reports for line in r.lines()) + "\n"
            return None if out == lines else Mismatch("verify report differs")
        if code != 0:
            return BadExit("exit %d: %s" % (code, err.strip().splitlines()[-1:]))
        if req.cmd == "presets-list":
            return _check_presets_list(req.fmt, out)
        try:
            got, got_meta = _parsed_values(req, out)
        except (ValueError, KeyError, IndexError) as exc:
            return Mismatch("unparseable %s output: %s" % (req.fmt, exc))
        want, want_meta = _library_values(req)
        if set(got) != set(want):
            return Mismatch("printed %d values, library has %d" % (len(got), len(want)))
        for key, v in want.items():
            if not _same(got[key], v):
                return Mismatch("value at %s differs from the library" % (key,))
        for key, v in got_meta.items():
            if want_meta[key] != v:
                return Mismatch("json field %s is %r, want %r" % (key, v, want_meta[key]))
        return None
    return check


def _check_presets_list(fmt, out):
    reg = presets.registry_json()
    if fmt == "json":
        return None if json.loads(out) == reg else Mismatch("registry json differs")
    lines = out.splitlines()
    if fmt == "csv":
        if lines[0] != "id,letter,degenerate,formula":
            return Mismatch("csv header %r" % lines[0])
        lines = lines[1:]
    ids = [line.split("," if fmt == "csv" else None, 1)[0] for line in lines]
    return None if ids == list(reg) else Mismatch("preset ids differ")
