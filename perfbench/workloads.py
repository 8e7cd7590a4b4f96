"""Seeded job lists for the three benchmark workloads.

A job is one closed-loop call into a public function of ``deltaseries``:
the next job starts only after the previous one returned.  Every job calls
its module at call time (``stirling.s2_assoc``, never a name bound earlier),
so the traced run sees the wrappers it installs on module attributes.

Building a job list is the workload's set-up: it builds the presets,
moment-derived series and parsed expressions the jobs take as inputs.
The seed picks the concrete inputs; the shape of each list (how many jobs
of each builder, which orders) is fixed, so that a pass costs about the
same whatever the seed and the run-to-run spread stays small.
"""

from __future__ import annotations

import random
from fractions import Fraction

from checks import builder_check, cli_check, run_cli
from deltaseries import exprparse, presets, scalar, stirling, verify

WORKLOADS = ("q_triangles", "lambda_triangles", "cli_requests")
DEFAULT_SEED = 1

BUILDERS = ("s2", "s1", "log", "inv", "bern")
ALPHAS = (-2, -1, 1, 2, 3)

Q_PRESETS = ("identity", "rising", "central", "central_bell", "lah_bell", "bell",
             "mittag_leffler", "laguerre_m1")
DEG_PRESETS = ("deg_falling", "deg_rising", "deg_central_bell", "deg_lah_bell",
               "partial_deg_bell", "full_deg_bell")
# values of one height, so the seed changes the numbers but not their size
Q_LAMBDAS = ("1/2", "-1/2", "2", "-2")
SMALL = ("1", "2", "3", "1/2", "-1", "-2", "1/3", "-1/2")


class Job:
    """One call of the workload.

    ``call`` returns the output; ``check(output)`` returns None when an
    independent route agrees with it, else a ``checks.Mismatch`` or
    ``checks.BadExit`` that says why.
    """

    __slots__ = ("jid", "name", "call", "check")

    def __init__(self, jid, name, call, check):
        self.jid = jid
        self.name = name
        self.call = call
        self.check = check


class Source:
    """A delta series input: a preset (maybe at a rational lambda), a
    moment-derived series or a parsed expression."""

    __slots__ = ("label", "pid", "lam", "build")

    def __init__(self, label, build, pid=None, lam=None):
        self.label = label
        self.build = build      # order -> DeltaSeries
        self.pid = pid          # preset id when the preset oracles apply
        self.lam = lam          # the lambda value the oracles need


def preset_source(pid, mode=presets.LAMBDA_ABSENT):
    lam = scalar.resolve_lambda_mode(mode)
    label = pid if lam is None else "%s@%s" % (pid, mode)
    return Source(label, lambda order: presets.make_preset(pid, order, mode).f, pid, lam)


def expr_source(text, mode=presets.LAMBDA_ABSENT):
    tree = exprparse.parse(text)
    return Source(text, lambda order: exprparse.require_delta(exprparse.eval_expr(tree, order, mode)))


def moment_source(label, moments):
    return Source(label, lambda order: presets.moment_delta(moments, order))


# ---------------------------------------------------------------------------
# expression grammar

def _unit_expr(shape, rng):
    """An expression with constant term 1; its shape from `shape`, the sign
    of its coefficient from `rng`."""
    c = _pm(rng, shape.choice(("1", "2", "1/2", "1/3")))
    return shape.choice([
        "exp(%s*t)" % c,
        "1/(1+%s*t)" % c,
        "(1+%s*t)^%d" % (c, shape.randint(2, 3)),
        "sqrt(1+%s*t)" % c,
        "1+%s*t^2" % c,
        "log(1+%s*t)/(%s*t)" % (c, c),
    ])


def _pm(rng, magnitude):
    return rng.choice((magnitude, "-" + magnitude))


def q_delta_exprs(rng):
    """Delta series over Q, one per shape.  The seed picks signs, which
    change the outputs but not the size of their numbers, so the cost of
    a pass does not depend on the seed."""
    return [
        "2*t*exp(%s*t)" % _pm(rng, "1"),
        "t*(1+%s*t)^2*sqrt(1+%s*t)" % (_pm(rng, "1"), _pm(rng, "2")),
        "(exp(%s*t)-1)/2" % _pm(rng, "2"),
        "log(1+%s*t)" % _pm(rng, "1/2"),
        "t/(1+%s*t)" % _pm(rng, "2"),
        "t+%s*t^2+%s*t^3" % (_pm(rng, "1"), _pm(rng, "1/3")),
    ]


def lambda_delta_exprs(rng):
    """Delta series whose linear coefficient is a non-constant polynomial
    in lambda, so the builders work over Q(lambda): one per shape, with
    seeded signs."""
    return [
        "(lambda+%s)*t+%s*t^2" % (_pm(rng, "1"), _pm(rng, "2")),
        "lambda*t+%s*t^2" % _pm(rng, "1"),
        "(lambda+%s)*t/(1+%s*t)" % (_pm(rng, "2"), _pm(rng, "1")),
        "(lambda+%s)*t+%s*t^3" % (_pm(rng, "1"), _pm(rng, "2")),
    ]


def nested_div_expr(shape, rng, depth):
    """Nested divisions that each cancel a power of t, so the evaluator
    re-evaluates both sides one order higher at every level."""
    e = "t"
    for _ in range(depth):
        c, d = shape.choice(("1", "2", "3")), _pm(rng, shape.choice(("1", "2", "1/2")))
        e = "(t*(%s+%s))/(t*(1+%s*t))" % (c, e, d)
    return e


# ---------------------------------------------------------------------------
# triangle workloads

def _builder_call(kind, f, n, alpha):
    if kind == "s2":
        return lambda: stirling.s2_assoc(f, n)
    if kind == "s1":
        return lambda: stirling.s1_assoc(f, n)
    if kind == "log":
        return lambda: stirling.assoc_log(f)
    if kind == "inv":
        return lambda: stirling.compositional_inverse(f)
    return lambda: stirling.bernoulli_assoc(f, Fraction(alpha), n)


def _triangle_jobs(groups, rng):
    """One job per (builder, source).  ``groups`` pairs a list of sources
    with each builder's ladder of orders, one per source; source i takes
    rung (i + builder index) of the ladder, and Bernoulli order ALPHAS[i],
    so neither depends on the seed and a pass costs about the same for
    every seed."""
    plan = []
    for sources, ladders in groups:
        for b, kind in enumerate(BUILDERS):
            ladder = ladders[kind]
            if len(ladder) != len(sources):
                raise ValueError("%s ladder has %d rungs for %d sources" % (kind, len(ladder), len(sources)))
            for i, src in enumerate(sources):
                n = ladder[(i + b) % len(ladder)]
                plan.append((kind, src, n, ALPHAS[i % len(ALPHAS)] if kind == "bern" else None))
    rng.shuffle(plan)
    top = {}
    for kind, src, n, _ in plan:
        top[src.label] = max(top.get(src.label, 0), n + 1 if kind == "bern" else n)
    built = {src.label: src.build(top[src.label]) for sources, _ in groups for src in sources}
    jobs = []
    for jid, (kind, src, n, alpha) in enumerate(plan):
        f = built[src.label]
        need = n + 1 if kind == "bern" else n
        if f.order > need:
            f = f.truncate(need)
        name = "%s %s n=%d%s" % (kind, src.label, n, "" if alpha is None else " alpha=%d" % alpha)
        jobs.append(Job(jid, name, _builder_call(kind, f, n, alpha), builder_check(kind, src, f, n, alpha)))
    return jobs


def _ladders(s2, log, bern):
    """Orders per builder: s1 shares the s2 ladder, inv the log ladder."""
    return {"s2": s2, "s1": s2, "log": log, "inv": log, "bern": bern}


def q_triangles(seed):
    rng = random.Random(seed)
    deg = [preset_source(pid, Fraction(rng.choice(Q_LAMBDAS))) for pid in DEG_PRESETS]
    exprs = [expr_source(text) for text in q_delta_exprs(rng)]
    return _triangle_jobs([
        ([preset_source(pid) for pid in Q_PRESETS],
         _ladders((12, 12, 14, 14, 14, 16, 16, 16), (12, 14, 14, 14, 16, 16, 16, 16),
                  (16, 24, 32, 40, 48, 56, 64, 64))),
        (deg, _ladders((12, 12, 14, 14, 16, 16), (12, 14, 14, 16, 16, 16), (24, 32, 40, 48, 56, 64))),
        (exprs, _ladders((12, 12, 14, 14, 16, 16), (12, 12, 14, 14, 16, 16), (16, 24, 32, 40, 48, 56))),
    ], rng)


def lambda_triangles(seed):
    rng = random.Random(seed)
    sym = presets.LAMBDA_SYMBOLIC
    moments = [moment_source("prob_uniform", presets.uniform_moments(scalar.LAMBDA)),
               moment_source("prob_one", presets.point_mass_moments(1, scalar.LAMBDA))]
    exprs = [expr_source(text, sym) for text in lambda_delta_exprs(rng)]
    return _triangle_jobs([
        ([preset_source(pid, sym) for pid in DEG_PRESETS],
         _ladders((6, 7, 8, 9, 10, 12), (6, 7, 8, 9, 10, 12), (6, 8, 10, 12, 14, 16))),
        (moments, _ladders((8, 10), (8, 10), (8, 12))),
        (exprs, _ladders((6, 6, 6, 6), (6, 6, 6, 6), (6, 6, 6, 6))),
    ], rng)


# ---------------------------------------------------------------------------
# command line requests

class Request:
    """One command line and what the generator knows about it."""

    __slots__ = ("argv", "cmd", "source", "mode", "n", "order", "fmt", "extra", "expect")

    def __init__(self, argv, cmd, source=None, mode=None, n=None, order=None, fmt="plain",
                 extra=None, expect=0):
        self.argv = argv
        self.cmd = cmd
        self.source = source    # ("preset", pid) / ("expr", text) / None
        self.mode = mode        # None, "symbolic" or a rational string
        self.n = n
        self.order = order
        self.fmt = fmt
        self.extra = extra      # table kind, bernoulli alpha or verify suite
        self.expect = expect    # exit code


FORMATS = ("plain", "csv", "json")
# presets whose linear coefficient is not 1; a rational alpha needs it to be
NON_UNIT = ("mittag_leffler", "laguerre_m1", "probabilistic")


def _source_args(shape, rng, need_alpha_unit=False):
    """(argv fragment, source, mode) over presets and expressions in all
    three lambda modes.  Negative values use the --opt=value form, because
    argparse reads a bare "-1/2" as an option."""
    pick = shape.random()
    if pick < 0.45:
        pid = shape.choice([p for p in presets.PRESET_IDS if not (need_alpha_unit and p in NON_UNIT)])
        mode = None
        if presets.is_degenerate(pid):
            mode = shape.choice(("symbolic", "rational"))
            if mode == "rational":
                mode = rng.choice(Q_LAMBDAS)
        argv = ["--preset", pid] + ([] if mode is None else ["--lambda=%s" % mode])
        return argv, ("preset", pid), mode
    if pick < 0.75 or need_alpha_unit:
        if need_alpha_unit:
            text = "t+%s*t^2" % _pm(rng, "2")
        else:
            text = q_delta_exprs(rng)[shape.randrange(6)]
        return _expr_arg(text), ("expr", text), None
    mode = shape.choice(("symbolic", "rational"))
    if mode == "rational":
        mode = rng.choice(Q_LAMBDAS)
    text = shape.choice(["t+lambda*t^2", "(exp(lambda*t)-1)/lambda", "t/(1+lambda*t)",
                         "log(1+t)+lambda*t^3"])
    return _expr_arg(text) + ["--lambda=%s" % mode], ("expr", text), mode


def _expr_arg(text):
    return ["--f=" + text] if text.startswith("-") else ["--f", text]


def _fmt(rng):
    fmt = rng.choice(FORMATS)
    return fmt, (["--format", fmt] if fmt != "plain" or rng.random() < 0.5 else [])


def _table(shape, rng):
    kind = shape.choice(("s1", "s2"))
    src, source, mode = _source_args(shape, rng)
    n = shape.randint(4, 10)
    fmt, fa = _fmt(rng)
    return Request(["table", "--kind", kind] + src + ["--n", str(n)] + fa, "table", source, mode,
                   n, n, fmt, kind)


def _series_cmd(cmd):
    def gen(shape, rng):
        src, source, mode = _source_args(shape, rng)
        order = shape.randint(4, 10)
        fmt, fa = _fmt(rng)
        return Request([cmd] + src + ["--order", str(order)] + fa, cmd, source, mode, None, order, fmt)
    return gen


def _bernoulli(shape, rng):
    alpha = shape.choice(("1", "2", "3", "-1", "-2", "1/2", "-3/2", "5/2"))
    src, source, mode = _source_args(shape, rng, need_alpha_unit="/" in alpha)
    n = shape.randint(4, 10)
    fmt, fa = _fmt(rng)
    return Request(["bernoulli", "--alpha=%s" % alpha] + src + ["--n", str(n)] + fa, "bernoulli",
                   source, mode, n, n, fmt, alpha)


def _eval(shape, rng):
    order = shape.randint(4, 10)
    text = q_delta_exprs(rng)[shape.randrange(6)]
    if shape.random() < 0.5:
        text = "%s+%s" % (_unit_expr(shape, rng), text)
    fmt, fa = _fmt(rng)
    return Request(["eval"] + _expr_arg(text) + ["--order", str(order)] + fa, "eval", ("expr", text), None,
                   None, order, fmt)


def _verify(shape, rng):
    suite = shape.choice(verify.SUITES)
    pid = shape.choice([p for p in presets.PRESET_IDS if p != "probabilistic"])
    mode = "symbolic" if presets.is_degenerate(pid) else None
    n = shape.randint(2, 3)
    argv = ["verify", suite, "--preset", pid, "--n", str(n)]
    if mode:
        argv.append("--lambda=symbolic")
    return Request(argv, "verify", ("preset", pid), mode, n, n, "plain", suite)


def _verify_corpus_request(shape, rng):
    suite = shape.choice(verify.SUITES + ("all",))
    return Request(["verify", suite, "--preset", "all", "--n", "1"], "verify", ("preset", "all"),
                   None, 1, 1, "plain", suite)


def _presets_list(shape, rng):
    fmt, fa = _fmt(rng)
    return Request(["presets-list"] + fa, "presets-list", fmt=fmt)


def _nested_div(depth):
    def gen(shape, rng):
        text = nested_div_expr(shape, rng, depth)
        order = shape.randint(4, 6)
        return Request(["eval"] + _expr_arg(text) + ["--order", str(order)], "eval", ("expr", text), None,
                       None, order, "plain")
    return gen


def _bad(shape, rng):
    """A malformed or hostile request; each must exit 2 with a typed error."""
    c = rng.choice(SMALL)
    order = str(shape.randint(4, 10))
    return shape.choice([
        ["table", "--kind", "s2", "--preset", "no_such_preset", "--n", order],
        ["eval", "--f", "t+*%s" % c, "--order", order],
        ["eval", "--f", "sin(%s*t)" % c, "--order", order],
        ["eval", "--f", "2t", "--order", order],
        ["table", "--kind", "s1", "--f", "1+%s*t" % c, "--n", order],
        ["log", "--f=%s*t^2" % c, "--order", order],
        ["eval", "--f", "log(2+%s*t)" % c, "--order", order],
        ["eval", "--f", "sqrt(2+t)", "--order", order],
        ["eval", "--f", "1/t", "--order", order],
        ["table", "--kind", "s2", "--preset", rng.choice(DEG_PRESETS), "--n", order],
        ["eval", "--f", "lambda*t", "--order", order],
        ["table", "--kind", "s2", "--preset", "bell", "--n", "9", "--order", "4"],
        ["table", "--kind", "s2", "--preset", "bell", "--n", "500"],
        ["log", "--preset", "bell", "--order", "100000"],
        ["bernoulli", "--alpha", "x", "--preset", "bell", "--n", order],
        ["bernoulli", "--alpha=1/2", "--preset", "mittag_leffler", "--n", order],
        ["table", "--kind", "s3", "--preset", "bell"],
        ["frobnicate", "--preset", "bell"],
        ["table", "--kind", "s2", "--preset", "deg_falling", "--lambda=abc", "--n", order],
        ["invert", "--preset", "bell", "--f", "t", "--order", order],
        ["eval", "--f", "(((t)", "--order", order],
        ["eval", "--f", "", "--order", order],
    ])


CLI_QUOTAS = (
    (_table, 34),
    (_series_cmd("log"), 20),
    (_bernoulli, 20),
    (_series_cmd("invert"), 16),
    (_eval, 20),
    # nested divisions cost twice as much per level: a single depth-8
    # request would cost a sixth of a pass, a depth-10 one nearly as much as
    # the rest of the pass; these five, to depth 7, cost a sixth together
    (_nested_div(5), 2),
    (_nested_div(6), 2),
    (_nested_div(7), 1),
    (_verify, 10),
    (_verify_corpus_request, 2),
    (_presets_list, 5),
)
CLI_BAD = 22
# The shape of the stream (subcommands, presets, expression shapes, lambda
# modes, orders) comes from this fixed seed; the workload seed picks the
# values that do not change the cost: formats, signs, lambda values and
# the order of the requests.
CLI_SHAPE_SEED = 0


def cli_requests(seed):
    """A seeded stream of interactive requests through cli.main(argv)."""
    shape, rng = random.Random(CLI_SHAPE_SEED), random.Random(seed)
    reqs = [gen(shape, rng) for gen, count in CLI_QUOTAS for _ in range(count)]
    reqs += [Request(_bad(shape, rng), "bad", expect=2) for _ in range(CLI_BAD)]
    rng.shuffle(reqs)
    return [Job(jid, " ".join(r.argv), (lambda r=r: run_cli(r.argv)), cli_check(r))
            for jid, r in enumerate(reqs)]


# Requests nested past the parser's recursion limit.  They must exit 2, but
# where the parser recurses they exit 1 with "internal error" (a
# RecursionError), so they run as a probe beside the stream and are
# reported on their own.
DEEP_NESTING = (
    ["eval", "--f", "(" * 400 + "t" + ")" * 400, "--order", "4"],
    ["eval", "--f=" + "-" * 2000 + "t", "--order", "4"],
    ["table", "--kind", "s2", "--f", "exp(" * 300 + "t" + ")" * 300, "--n", "4"],
)


def build(workload, seed):
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    return globals()[workload](seed)
