"""Benchmark of deltaseries: end-to-end timings and, traced, per-layer spans.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload q_triangles --seed 1 --seconds 25 --trace 0

One process, one client, closed loop: each job is issued only after the
previous one returned.  A run

1. times the set-up several times, each in a fresh interpreter that
   imports ``deltaseries`` from ``src/`` and builds the workload's inputs
   (``setup_s`` is their median);
2. builds the same job list and runs passes over it until ``--seconds``
   are spent, clearing every ``lru_cache`` of ``stirling``, ``presets``
   and ``classical`` before each job, so every pass does the same work;
3. with ``--trace 1`` spends the first half untraced and the second half
   with the tracer of ``tracing.py`` installed, reports per-layer
   metrics of the traced passes and names the entries with the most
   self time;
4. runs every job once more untimed and checks its output by an
   independent route (``checks.py``), and that every timed pass gave the
   same output, bit for bit.  On the default seed the outputs must also
   match the digests in ``digests.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Timings are
medians over passes, scaled to a reference speed (see ``REFERENCE_S``).
Spans of a traced run go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
SETUPS = 7
# The machine's speed swings by up to a factor of two on a scale of
# seconds to minutes.  A fixed reference loop is timed before every job,
# and every timing is scaled by REFERENCE_S over the median of the
# REFERENCE_WINDOW loops nearest to it: REFERENCE_S is about what the loop
# takes on the baseline machine at its full speed.
REFERENCE_S = 0.0005
REFERENCE_WINDOW = 9
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
)

STIRLING_BUILDERS = ("s2_assoc", "s1_assoc", "assoc_log", "compositional_inverse", "bernoulli_assoc")
PER_LAYER = (
    ("scalar.LPoly.ops.calls", "count"),
    ("scalar.LPoly.ops.self_s", "s"),
    ("scalar.LRat.ops.calls", "count"),
    ("scalar.LRat.ops.self_s", "s"),
    ("scalar.simplify.calls", "count"),
    ("scalar.format_scalar.self_s", "s"),
    ("scalar.out_max_bits", "bits"),
    ("fps.mul.calls", "count"),
    ("fps.mul.self_s", "s"),
    ("fps.compose.calls", "count"),
    ("fps.compose.total_s", "s"),
    ("fps.invert_newton.total_s", "s"),
    ("fps.div.self_s", "s"),
    ("fps.exp_series.total_s", "s"),
    ("fps.log_series.total_s", "s"),
    ("fps.pow_int.total_s", "s"),
    ("fps.pow_ratio.total_s", "s"),
    ("fps.Series.init.calls", "count"),
    ("fps.Series.init.self_s", "s"),
    ("fps.series_to_json_str.self_s", "s"),
) + tuple(
    ("stirling.%s.%s" % (b, m), "count" if m == "calls" else "s")
    for b in STIRLING_BUILDERS for m in ("calls", "total_s", "self_s")
) + (
    ("stirling.partial_bell.total_s", "s"),
    ("stirling.schloemilch_s1.total_s", "s"),
    ("stirling.cache_hit_ratio", "frac"),
    ("stirling.cache_entries", "count"),
    ("presets.make_preset.total_s", "s"),
    ("presets.corpus.total_s", "s"),
    ("presets.moment_delta.total_s", "s"),
    ("classical.calls", "count"),
    ("classical.total_s", "s"),
    ("exprparse.parse.calls", "count"),
    ("exprparse.parse.total_s", "s"),
    ("exprparse.eval_expr.calls", "count"),
    ("exprparse.eval_expr.total_s", "s"),
) + tuple(
    ("verify.suite_%s.total_s" % s, "s")
    for s in ("orthogonality", "schloemilch", "theorem22", "lemmas", "logarithm", "lambda_limit")
) + (
    ("verify.run_suites.total_s", "s"),
    ("verify.pool_overlap", "frac"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.deep_nesting_bad_exit", "count"),
    ("trace.overhead_frac", "frac"),
)


def use_checkout_sources():
    src = ROOT / "src"
    if not (src / "deltaseries" / "__init__.py").is_file():
        sys.exit("perfbench: no deltaseries sources under %s" % src)
    sys.path.insert(0, str(src))


def _cached_functions():
    """The lru_caches of stirling, presets and classical (13 at the first
    benchmarked commit), found by their public cache_clear()."""
    from deltaseries import classical, presets, stirling

    return {mod.__name__.rsplit(".", 1)[1]: [f for f in vars(mod).values() if hasattr(f, "cache_clear")]
            for mod in (stirling, presets, classical)}


def setup_time(workload, seed):
    """Seconds this interpreter takes to import deltaseries and build the
    job list, scaled to the reference speed by reference loops timed just
    before and after in the same process."""
    reference = [reference_time() for _ in range(REFERENCE_WINDOW)]
    t0 = time.perf_counter()
    use_checkout_sources()
    import workloads

    workloads.build(workload, seed)
    t1 = time.perf_counter()
    reference += [reference_time() for _ in range(REFERENCE_WINDOW)]
    return (t1 - t0) * speed_factor(reference)


def _setup_once(workload, seed):
    """`setup_time` in a fresh interpreter, which has not yet imported
    deltaseries."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=False)
    if proc.returncode != 0:
        raise RuntimeError("set-up process failed with exit code %s" % proc.returncode)
    return float(proc.stdout)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _max_bits(text):
    return max((int(d).bit_length() for d in re.findall(r"\d+", text)), default=0)


def tail_percentile(count):
    """The highest percentile of the ladder with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if count * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def _nearest_rank(sorted_values, p):
    return sorted_values[max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)]


def reference_loop():
    """Fixed pure-Python work that calls nothing of deltaseries: rational
    and big-integer arithmetic and small containers, the mix the jobs run."""
    acc = Fraction(0)
    for k in range(1, 120):
        acc += Fraction(k * k + 1, 3 * k + 2)
    x = 1
    for k in range(1, 300):
        x = x * (k + 7) + k
    d = {i: [i, i + 1] for i in range(300)}
    return acc, x, len(d)


def reference_time():
    """Seconds of one reference loop, with the collector off so that the
    objects the jobs keep alive do not slow it."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t0
    finally:
        if was_on:
            gc.enable()


def speed_factor(reference_times):
    """What scales a time measured next to `reference_times` to the
    reference speed."""
    return REFERENCE_S / statistics.median(reference_times)


class Pass:
    """Latency, CPU time, output digest and reference loop time of every
    job of one pass."""

    def __init__(self):
        self.latency = []
        self.cpu = []
        self.reference = []
        self.children_cpu = 0.0
        self.digests = []
        self.errors = {}

    @property
    def wall(self):
        return sum(self.latency)

    def factors(self):
        """Each job's speed factor, from the REFERENCE_WINDOW reference
        loops timed nearest to it in this pass."""
        n, w = len(self.reference), REFERENCE_WINDOW
        return [speed_factor(self.reference[max(0, min(j - w // 2, n - w)):][:w]) for j in range(n)]

    def scaled(self, field):
        """`field` of every job, scaled to the reference speed."""
        return [v * f for v, f in zip(getattr(self, field), self.factors())]

    @property
    def scaled_wall(self):
        return sum(self.scaled("latency"))

    @property
    def scaled_cpu(self):
        return sum(self.scaled("cpu")) + self.children_cpu * statistics.median(self.factors())


def _clear(caches):
    for group in caches.values():
        for c in group:
            c.cache_clear()


def run_pass(jobs, caches, tracer=None, layer_extra=None):
    from checks import canon

    p = Pass()
    t_children = os.times()
    for job in jobs:
        _clear(caches)
        p.reference.append(reference_time())
        if tracer is not None:
            tracer.job += 1
            tracer.on = True
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = job.call()
        except Exception as exc:  # a job that raises is a failed job, not a crash
            out = exc
        t1 = time.perf_counter()
        c1 = time.process_time()
        if tracer is not None:
            tracer.on = False
        p.latency.append(t1 - t0)
        p.cpu.append(c1 - c0)
        if isinstance(out, Exception):
            p.errors[job.jid] = "%s: %s" % (type(out).__name__, out)
            p.digests.append(None)
            continue
        text = canon(out)
        p.digests.append(_digest(text))
        if layer_extra is not None:
            layer_extra["bits"] = max(layer_extra["bits"], _max_bits(text))
            infos = [c.cache_info() for c in caches["stirling"]]
            layer_extra["hits"] += sum(i.hits for i in infos)
            layer_extra["misses"] += sum(i.misses for i in infos)
            layer_extra["entries"] = max(layer_extra["entries"], sum(i.currsize for i in infos))
    t_end = os.times()
    p.children_cpu = (t_end.children_user - t_children.children_user
                      + t_end.children_system - t_children.children_system)
    return p


def _passes(jobs, caches, seconds, before_pass, tracer=None, layer_extra=None):
    """Passes until `seconds` of passes are spent; `before_pass` runs
    between them, outside the time budget."""
    done, spent = [], 0.0
    while not done or spent < seconds:
        before_pass()
        gc.collect()  # every pass starts from the same collector state
        t0 = time.perf_counter()
        done.append(run_pass(jobs, caches, tracer, layer_extra))
        spent += time.perf_counter() - t0
    return done


def deep_nesting_probe():
    """How many of the deep-nesting requests exit with another code than 2."""
    from checks import run_cli
    from workloads import DEEP_NESTING

    return sum(1 for argv in DEEP_NESTING if run_cli(argv)[0] != 2)


def check_outputs(jobs, caches, passes):
    """Run every job once more, check its output independently and compare
    it with what each timed pass produced.  Returns (correct, failed
    executions, combined digest, reasons)."""
    from checks import Mismatch, canon

    correct, failed, reasons, digests = True, 0, [], []
    for i, job in enumerate(jobs):
        _clear(caches)
        try:
            out = job.call()
        except Exception as exc:  # the job fails; its passes are counted below
            verdict, digest = "%s: %s" % (type(exc).__name__, exc), None
        else:
            verdict, digest = job.check(out), _digest(canon(out))
        digests.append(digest or "-")
        if verdict is not None:
            reasons.append("job %d (%s): %s" % (job.jid, job.name, verdict))
            correct = correct and not isinstance(verdict, Mismatch)
        for p in passes:
            if job.jid in p.errors:
                failed += 1
                if verdict is None:
                    reasons.append("job %d (%s): %s" % (job.jid, job.name, p.errors[job.jid]))
            elif p.digests[i] != digest:
                failed += 1
                correct = False
                reasons.append("job %d (%s): a timed pass gave another output" % (job.jid, job.name))
            elif verdict is not None:
                failed += 1
    return correct, failed, _digest("\n".join(digests)), reasons


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(setup, passes, rss_mb, attempted, failed):
    """Timings are scaled to the reference speed.  The percentile of
    `job_tail_ms` is fixed by the jobs of one pass, so it does not change
    with the number of passes; both percentiles are taken over the
    latencies of all passes pooled."""
    p = tail_percentile(len(passes[0].latency))
    pooled = sorted(t for ps in passes for t in ps.scaled("latency"))
    values = {
        "setup_s": _median(setup),
        "wall_s": _median([ps.scaled_wall for ps in passes]),
        "job_p50_ms": 1000.0 * statistics.median(pooled),
        "job_tail_ms": 1000.0 * _nearest_rank(pooled, p),
        "cpu_s": _median([ps.scaled_cpu for ps in passes]),
        "peak_rss_mb": rss_mb,
        "ok_frac": 1.0 - failed / attempted,
    }
    return values, p


def per_layer(stats, spans, traced, untraced, extra, probe):
    n = len(traced)
    values = {}
    for name, _unit in PER_LAYER:
        head, _, field = name.rpartition(".")
        if field in ("calls", "total_s", "self_s") and head:
            rec = stats.get(head, (0, 0.0, 0.0))
            values[name] = rec[("calls", "total_s", "self_s").index(field)] / n
    lookups = extra["hits"] + extra["misses"]
    suites = sum(s[3] - s[2] for s in spans if s[1] == "verify.run_suites")
    suite = sum(s[3] - s[2] for s in spans if s[1] == "verify.run_suite")
    values.update({
        "scalar.out_max_bits": extra["bits"],
        "stirling.cache_hit_ratio": extra["hits"] / lookups if lookups else 0.0,
        "stirling.cache_entries": extra["entries"],
        "verify.pool_overlap": suite / suites if suites else 0.0,
        "cli.deep_nesting_bad_exit": probe,
        "trace.overhead_frac": (_median([p.scaled_wall for p in traced])
                                / _median([p.scaled_wall for p in untraced]) - 1.0),
    })
    return values


def top_self_time(stats, passes, count=5):
    """The names with the most self time, each with its share of all self
    time recorded (layer totals left out)."""
    from tracing import LAYERS

    own = {name: rec[2] for name, rec in stats.items() if name not in LAYERS}
    total = sum(own.values()) or 1.0
    top = sorted(own.items(), key=lambda kv: -kv[1])[:count]
    return ", ".join("%s %.3f s (%.0f%%)" % (name, t / passes, 100.0 * t / total) for name, t in top)


def measure(workload, seed, seconds, trace, setups=SETUPS, jobs=None):
    """One benchmark run; returns (result dict, notes for the reader)."""
    import workloads

    # set-up samples are spread between the passes, so that one burst of
    # load from elsewhere on the machine does not shift all of them
    setup = []

    def sample_setup():
        if len(setup) < setups:
            setup.append(_setup_once(workload, seed))

    sample_setup()
    golden = jobs is None and seed == workloads.DEFAULT_SEED and DIGESTS.is_file()
    if jobs is None:
        jobs = workloads.build(workload, seed)
    caches = _cached_functions()
    untraced = _passes(jobs, caches, seconds / 2.0 if trace else seconds, sample_setup)
    traced, tracer, extra = [], None, None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        extra = {"bits": 0, "hits": 0, "misses": 0, "entries": 0}
        tracer.install()
        try:
            traced = _passes(jobs, caches, seconds / 2.0, sample_setup, tracer, extra)
        finally:
            tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup) < setups:
        sample_setup()
    passes = untraced + traced
    correct, failed, digest, reasons = check_outputs(jobs, caches, passes)
    probe = deep_nesting_probe()
    notes = ["workload %s seed %d: %d jobs per pass, %d untraced and %d traced passes"
             % (workload, seed, len(jobs), len(untraced), len(traced)),
             "digest %s" % digest]
    if golden:
        want = json.loads(DIGESTS.read_text()).get(workload, {}).get("sha256")
        if want is not None and want != digest:
            correct = False
            reasons.append("outputs differ from the recorded digest %s" % want)
    if probe:
        notes.append("known defect: %d of %d deep-nesting requests exit with another code than 2"
                     % (probe, len(workloads.DEEP_NESTING)))
    attempted = len(jobs) * len(passes)
    if trace:
        stats = tracer.stats()
        spans = tracer.spans()
        values = per_layer(stats, spans, traced, untraced, extra, probe)
        units = dict(PER_LAYER)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / ("spans-%s.json" % workload),
                     {"workload": workload, "seed": seed, "passes": len(traced)})
        notes.append("%d spans written to %s" % (len(spans), out_dir / ("spans-%s.json" % workload)))
        notes.append("top self time a traced pass: " + top_self_time(stats, len(traced)))
    else:
        values, p = end_to_end(setup, untraced, rss_mb, attempted, failed)
        units = dict(END_TO_END)
        notes.append("job_tail_ms is p%g of %d jobs per pass, over %d samples from %d passes"
                     % (p, len(jobs), len(jobs) * len(untraced), len(untraced)))
    notes.append("pass wall_s as measured: %s" % " ".join("%.3f" % ps.wall for ps in untraced))
    notes.append("pass speed factors: %s" % " ".join("%.3f" % statistics.median(ps.factors())
                                                      for ps in untraced))
    if traced:
        notes.append("traced pass wall_s: %s" % " ".join("%.3f" % ps.wall for ps in traced))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return result, notes + reasons[:20]


def record_digests(seed):
    """Write digests.json from the outputs of every workload at `seed`."""
    import workloads

    caches = _cached_functions()
    table = {}
    for name in workloads.WORKLOADS:
        jobs = workloads.build(name, seed)
        correct, failed, digest, reasons = check_outputs(jobs, caches, [])
        if not correct or reasons:
            sys.exit("perfbench: %s fails its checks: %s" % (name, reasons[:3]))
        table[name] = {"seed": seed, "jobs": len(jobs), "sha256": digest}
    DIGESTS.write_text(json.dumps(table, indent=2) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the job list, print its set-up time in seconds and exit")
    ap.add_argument("--record-digests", action="store_true",
                    help="write digests.json from the outputs at --seed")
    args = ap.parse_args(argv)
    if args.setup_only:
        print(repr(setup_time(args.workload, args.seed)))
        return 0
    use_checkout_sources()
    import workloads

    if args.record_digests:
        record_digests(args.seed)
        return 0
    if args.workload not in workloads.WORKLOADS:
        ap.error("--workload must be one of %s" % ", ".join(workloads.WORKLOADS))
    result, notes = measure(args.workload, args.seed, args.seconds, args.trace)
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
