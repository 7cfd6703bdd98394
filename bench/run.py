"""The liesymp benchmark: run one workload, check every output, print metrics.

    python3 bench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Run it from the root of a liesymp checkout.  It imports the package from
./src and drives it in this process, with one thread; only ``setup_s`` starts
fresh interpreters, one after another.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it records how the run went (passes, samples, the tail
percentile, deadline misses and the reason for every failure).

Workloads.  One operation decides one algebra; the seed shuffles the order of
the operations and, for ``files``, generates the seeded block.

* ``paper``: the 43 catalog entries of the paper's tables and families, each
  through ``regression.run_regression([item])``, plus one
  ``reproduce_propositions()``.  What users run most; many small algebras,
  dominated by torus verification, the Der(g) solve and work repeated per
  entry.
* ``scale``: family members beyond the tables (L n=10,12; Q n=11,13; abelian
  n=6,7; dim 12 to 16) through the same path.  A few large systems, where
  elimination cost outweighs per-call overhead.
* ``files``: generated nilpotent ``.lie`` sources (gen.py) with a fixed share
  of invalid ones, each through ``cli.main(["symplectic", FILE, "--json"])``:
  a core of CORE_BLOCKS blocks from a fixed generator seed, the same in every
  run, and SEED_BLOCKS block generated from the run's seed.  The cost of a
  random source varies so much that even 270 fresh ones per seed make a pass
  cost +-10% from seed to seed; the core keeps the work of a run nearly the
  same, and the seeded block still brings unseen inputs to every run.
  The only workload where parsing, the rejection path, the witness search and
  the exit-code contract do real work, and where torus verification does
  none.  Each operation has a deadline counted in work, not time: it may
  evaluate at most WORK_BUDGET polynomial terms (``MultiPoly.evaluate``,
  the witness search's step), so the same sources miss it on every run and
  every machine.  A miss is a failed operation, never a dropped input.  A
  CPU-time backstop of BACKSTOP_S seconds, from a profiling timer in this
  process, stops any other runaway operation.

A run makes one warm-up pass over the workload, which fills the program's
caches and checks every output, then repeats timed passes until
``--seconds`` have passed and at least MIN_PASSES are timed.  An operation's
time is the mean over the timed passes.

Timings are scaled to the host's fast state.  The benchmark runs on a few
cores of a shared host that switches between a fast and a slow speed for
stretches of seconds, the slow one 1.6x to 2x slower; the share of time
spent slow drifts over minutes, from a quarter to nearly all of it, which
moves raw times of the same code by 10% to 27% from run to run.  So the run
times a fixed reference kernel of about 2 ms in the benchmark's own code
(reference_time) just before and just after each timed operation, and every
TICK_S during it (Ticks), which sees the speed of the moment.  Each
operation's time is reported as measured x REF_KERNEL_S / (the mean of its
kernel times), where REF_KERNEL_S is the kernel's time in the fast state: a
change of the program moves it in full, and a change of the host's speed
mostly cancels.  The raw wall time and the kernel's mean are in the info
line.

End-to-end metrics (``--trace 0``), timings scaled as above:

* ``wall_s``: one pass over the workload, the sum of the operation times;
* ``op_p50_ms``, ``op_tail_ms``: the median and the tail of the operation
  times.  The tail is the highest percentile with at least ten operations
  beyond it (p77 of 44 for ``paper``, p93 of 144 for ``files``); ``scale``
  has six operations, so its tail is the slowest one;
* ``setup_s``: median over SETUP_REPEATS fresh interpreters, started one
  after another, of ``import liesymp`` plus ``catalog.build_entry`` for the
  workload's entries, scaled by the kernel's samples taken between them;
* ``peak_rss_mib``: peak resident memory of this process;
* ``ok_frac``: operations that passed every check over operations attempted.

``attempted`` counts the distinct operations of the run, each run in every
pass; an operation fails when any of its passes fails: on a wrong exit code, a
wrong output (checked by check.py, which shares no code with liesymp, and
against digests.json), an output that differs between passes, an exception
that escapes, or a missed deadline.  So ``attempted`` and ``failed`` depend on
the workload and the seed only.  ``correct`` is false when any output was
wrong; an operation that raised or missed its deadline gave no output and
counts in ``failed`` only.

Per-layer metrics (``--trace 1``): passes alternate between untraced and
traced (tracing.py) after the warm-up.  ``calls`` and the size counters come
from the first traced pass, so they repeat exactly; ``self_s`` is the fastest
over traced passes, unscaled; ``trace.overhead_frac`` compares the scaled
times of traced and untraced passes.  The spans of the first traced pass go
to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

import check
import gen
from tracing import SPAN_NAMES, Tracer

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = BENCH_DIR / "digests.json"
OUT_DIR = BENCH_DIR / "out"

PAPER = (
    [("n3_1", {}), ("n4_1", {})]
    + [(f"n5_{i}", {}) for i in range(1, 7)]
    + [(f"n6_{i}", {}) for i in range(1, 23)]
    + [("abelian", {"n": n}) for n in (1, 2, 3, 4)]
    + [("L", {"n": n}) for n in (3, 4, 5, 6, 7, 8)]
    + [("Q", {"n": n}) for n in (5, 7, 9)]
)
SCALE = [("L", {"n": 10}), ("L", {"n": 12}), ("Q", {"n": 11}), ("Q", {"n": 13}),
         ("abelian", {"n": 6}), ("abelian", {"n": 7})]
CORE_SEED = 1_000_003
CORE_BLOCKS = 7
SEED_BLOCKS = 1
# About half a second of witness search in the host's fast state; the
# sources that need more are the slow witness searches of ROADMAP item 4.
WORK_BUDGET = 25_000
BACKSTOP_S = 10.0
MIN_PASSES = 3
REF_REPEATS = 2
TICK_S = 0.25
REF_KERNEL_S = 0.00197  # the kernel's time in the host's fast state, Python 3.11
SETUP_REPEATS = 25
SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, "src")
import liesymp
from liesymp.catalog import build_entry
for name, params in json.loads(sys.argv[1]):
    build_entry(name, **params)
print(time.perf_counter() - t0)
"""


class DeadlineExceeded(BaseException):
    """Raised inside an operation that ran past its work budget or the
    CPU-time backstop.

    A BaseException, so the program's own ``except Exception`` handlers
    cannot swallow it."""


def _on_deadline(signum, frame):
    raise DeadlineExceeded()


class WorkBudget:
    """Counts the polynomial terms ``MultiPoly.evaluate`` visits in the
    current operation and ends the operation past WORK_BUDGET."""

    def __init__(self) -> None:
        self.used = 0

    def install(self) -> None:
        from liesymp.poly import MultiPoly

        original = MultiPoly.evaluate

        def evaluate(poly, *args, **kwargs):
            self.used += len(poly.terms)
            if self.used > WORK_BUDGET:
                raise DeadlineExceeded()
            return original(poly, *args, **kwargs)

        MultiPoly.evaluate = evaluate


_BUDGET = WorkBudget()


def _reference_rows() -> list[dict[int, Fraction]]:
    rng = random.Random(2024)
    return [{c: Fraction(rng.randint(-9, 9)) for c in range(12)} for _ in range(12)]


REF_ROWS = _reference_rows()


def reference_time() -> float:
    """Seconds for the reference kernel, the reduced echelon form of a fixed
    12 x 12 rational matrix by gen.py: the best of REF_REPEATS timings, with
    the garbage collector off so the program's heap cannot slow it."""
    best = float("inf")
    enabled = gc.isenabled()
    for _ in range(REF_REPEATS):
        rows = [dict(row) for row in REF_ROWS]
        gc.disable()
        try:
            t0 = perf_counter()
            gen._sparse_rref(rows)
            best = min(best, perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
    return best


class Ticks:
    """Reference times taken every TICK_S inside an operation by a SIGALRM
    handler, which runs in this thread between the program's bytecodes;
    ``spent`` is the time the handler took, for the operation's time to
    leave out."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.times.append(reference_time())
        self.spent += perf_counter() - t0

    def __enter__(self) -> "Ticks":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def scaled(times: list[float], kernels: list[list[float]]) -> list[float]:
    """Each of ``times`` in seconds of the host's fast state; ``kernels``
    holds, for each, the reference times taken before, during and after it."""
    return [t * REF_KERNEL_S / statistics.fmean(k) for t, k in zip(times, kernels)]


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    render: Callable[[object], str]  # the output as text, outside the timing
    check: Callable[[object, str], str | None]  # None, or why it is wrong


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def item_label(name: str, params: dict) -> str:
    return name + "".join(f" {k}={v}" for k, v in params.items())


# -- the operations -----------------------------------------------------------


def _regression_json(report) -> str:
    """The bytes ``liesymp catalog verify --json`` prints for this report."""
    entries = [
        {
            "name": e.name,
            "params": {k: str(v) for k, v in e.params.items()},
            "dim": e.dim,
            "green": e.green,
            "symplectic": e.symplectic,
            "exact": e.exact,
            "pfaffian": str(e.pfaffian),
            "comparisons": [
                {"field": c.fieldname, "computed": c.computed, "expected": c.expected,
                 "status": c.status, "typo": c.typo}
                for c in e.comparisons
            ],
            "conditions": [
                {"label": c.label, "divides": c.divides, "status": c.status, "typo": c.typo}
                for c in e.conditions
            ],
        }
        for e in report.entries
    ]
    payload = {"green": report.green, "summary": report.counts, "entries": entries}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _props_json(report) -> str:
    """The bytes ``liesymp repro-props --json`` prints for this report."""
    items = [{"label": i.label, "ok": i.ok, "detail": i.detail} for i in report.items]
    return json.dumps({"green": report.green, "items": items}, indent=2, sort_keys=True) + "\n"


def _green_and_digest(expected: str | None):
    def check_report(report, text: str) -> str | None:
        if not report.green:
            return "report is not green"
        if expected is not None and digest(text) != expected:
            return "output differs from the stored digest"
        return None

    return check_report


def catalog_ops(items, stored: dict, props: bool) -> list[Op]:
    from liesymp import regression

    ops = []
    for name, params in items:
        label = item_label(name, params)
        ops.append(Op(label, lambda item=(name, params): regression.run_regression([item]),
                      _regression_json, _green_and_digest(stored.get(label))))
    if props:
        ops.append(Op("repro-props", regression.reproduce_propositions, _props_json,
                      _green_and_digest(stored.get("repro-props"))))
    return ops


def _run_file(path: str):
    from liesymp import cli

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    _BUDGET.used = 0
    signal.setitimer(signal.ITIMER_PROF, BACKSTOP_S)
    try:
        code = cli.main(["symplectic", path, "--json"])
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


def sources_digest(sources: list[gen.Source]) -> str:
    return digest("".join(src.text for src in sources))


def file_sources(seed: int | None) -> list[gen.Source]:
    """The core sources (seed None) or the seeded part for ``seed``."""
    if seed is None:
        return gen.generate(CORE_SEED, CORE_BLOCKS * gen.BLOCK, prefix="core")
    return gen.generate(seed, SEED_BLOCKS * gen.BLOCK)


def file_ops(seed: int, stored: dict) -> list[Op]:
    """``stored`` holds, under "core" and under each recorded seed, the
    digest of the generated sources and the output digest of each source
    whose output is known to be right."""
    sources, outputs = [], {}
    for key, part in (("core", None), (str(seed), seed)):
        generated = file_sources(part)
        known = stored.get(key, {})
        if known and known["sources"] != sources_digest(generated):
            raise RuntimeError(f"the generated {key} sources differ from digests.json")
        sources += generated
        outputs.update(known.get("outputs", {}))
    return source_ops(sources, outputs, OUT_DIR / f"files-{seed}")


def source_ops(sources: list[gen.Source], outputs: dict, folder: Path) -> list[Op]:
    """One operation per source, written to ``folder``; ``outputs`` maps a
    source name to the digest of its known-good output."""
    folder.mkdir(parents=True, exist_ok=True)
    ops = []
    for src in sources:
        path = folder / f"{src.name}.lie"
        path.write_text(src.text, encoding="utf-8")

        def check_file(result, text, src=src, want=outputs.get(src.name)):
            reason = check.check_file(src, *result)
            if reason is None and want is not None and digest(text) != want:
                reason = "output differs from the stored digest"
            return reason

        ops.append(Op(src.name, lambda p=str(path): _run_file(p),
                      lambda r: f"{r[0]}\n{r[1]}", check_file))
    return ops


def make_ops(workload: str, seed: int, stored: dict) -> tuple[list[Op], list]:
    """The operations of a workload in run order, and its catalog items.

    ``stored`` holds the digests of known-good outputs (digests.json)."""
    if workload == "paper":
        ops, items = catalog_ops(PAPER, stored.get("paper", {}), props=True), PAPER
    elif workload == "scale":
        ops, items = catalog_ops(SCALE, stored.get("scale", {}), props=False), SCALE
    else:
        ops, items = file_ops(seed, stored.get("files", {})), []
    random.Random(seed).shuffle(ops)
    return ops, items


# -- measuring ---------------------------------------------------------------


class Run:
    """Outcomes of the operations of a run."""

    def __init__(self, ops: list[Op]):
        self.ops = ops
        self.first: dict[str, tuple[str, str | None]] = {}  # label -> (output, reason)
        self.failures: dict[str, str] = {}  # label -> why its first failing pass failed
        self.wrong: set[str] = set()

    def one_pass(self, tracer: Tracer | None = None,
                 kernels: list[list[float]] | None = None) -> list[float]:
        """Times of the operations.  With ``kernels``, appends for each
        operation the reference times taken just before it, every TICK_S
        during it (untraced passes only, so that no span holds a tick) and
        just after it, and leaves the ticks out of its time."""
        times = []
        before = reference_time() if kernels is not None else 0.0
        for idx, op in enumerate(self.ops):
            if tracer is not None:
                tracer.begin_op(idx)
            reason = None
            ticks = Ticks()
            t0 = perf_counter()
            try:
                if kernels is not None and tracer is None:
                    with ticks:
                        result = op.call()
                else:
                    result = op.call()
            except DeadlineExceeded:
                reason = "deadline"
            except Exception as exc:  # an escaped exception fails the operation
                reason = f"raised {type(exc).__name__}"
            times.append(perf_counter() - t0 - ticks.spent)
            if kernels is not None:
                after = reference_time()
                kernels.append([before, *ticks.times, after])
                before = after
            if tracer is not None:
                tracer.end_op()
                if reason == "deadline":
                    tracer.deadline_hits += 1
            if reason is None:
                reason = self._check(op, result)
            if reason is not None:
                self.failures.setdefault(op.label, reason)
        return times

    def _check(self, op: Op, result) -> str | None:
        try:
            text = op.render(result)
            if op.label not in self.first:
                self.first[op.label] = text, op.check(result, text)
            first, reason = self.first[op.label]
            if text != first:
                reason = "output differs between passes"
        except Exception as exc:  # output the checks cannot read is wrong
            reason = f"unreadable output ({type(exc).__name__})"
        if reason is not None:
            self.wrong.add(op.label)
        return reason

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def failure_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for reason in self.failures.values():
            counts[reason] = counts.get(reason, 0) + 1
        return counts


def op_times(passes: list[list[float]]) -> list[float]:
    """Each operation's time: the mean over its passes."""
    return [statistics.fmean(col) for col in zip(*passes)]


def tail_percentile(samples: int) -> int:
    """Highest whole percentile above the median with at least ten of
    ``samples`` beyond it; 100 (the slowest) when there is none."""
    for q in range(99, 50, -1):
        if samples - _rank(q, samples) >= 10:
            return q
    return 100


def _rank(q: int, n: int) -> int:
    return -(-q * n // 100)  # nearest rank, ceil(q n / 100), 1-based


def percentile(values: list[float], q: int) -> float:
    ordered = sorted(values)
    return ordered[max(_rank(q, len(ordered)), 1) - 1]


def measure_setup(root: Path, items: list) -> tuple[list[float], list[list[float]]]:
    """Seconds of SETUP_REPEATS fresh interpreters, one after another, and
    the reference times just before and after each."""
    arg = json.dumps(items)
    times, kernels = [], []
    before = reference_time()
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, arg], cwd=root,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
        after = reference_time()
        kernels.append([before, after])
        before = after
    return times, kernels


def end_to_end(run: Run, passes: list[list[float]], kernels: list[list[list[float]]],
               setup: tuple[list[float], list[list[float]]], info: dict):
    times = op_times(list(map(scaled, passes, kernels)))
    q = tail_percentile(len(times))
    info.update(samples=len(times), tail_percentile=q,
                raw_wall_s=sum(op_times(passes)),
                raw_setup_s=statistics.median(setup[0]),
                ref_mean_ms=1000 * statistics.fmean(x for p in kernels for k in p for x in k))
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "wall_s": (sum(times), "s"),
        "op_p50_ms": (1000 * statistics.median(times), "ms"),
        "op_tail_ms": (1000 * percentile(times, q), "ms"),
        "setup_s": (statistics.median(scaled(*setup)), "s"),
        "peak_rss_mib": (rss_mib, "MiB"),
        "ok_frac": (1 - run.failed / run.attempted, "ratio"),
    }


def per_layer(run: Run, untraced: list[list[float]], traced: list[list[float]],
              tracers: list[Tracer]):
    """``untraced`` and ``traced`` hold the scaled times of the passes."""
    first = tracers[0]
    totals = [t.layer_totals() for t in tracers]
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (totals[0][name][0], "count")
        metrics[f"{name}.self_s"] = (min(t[name][1] for t in totals), "s")
    ops = len(run.ops)
    searches = totals[0]["symplectic.find_nonvanishing_point"][0]
    metrics.update({
        "linalg.rref.cells": (first.rref_cells, "count"),
        "linalg.rref.rank_frac": (first.rref_rank / first.rref_rows if first.rref_rows else 0.0,
                                  "ratio"),
        "poly.pfaffian.terms": (first.pfaffian_terms, "count"),
        "symplectic.witness.points": (first.witness_points, "count"),
        "symplectic.witness.points_per_search": (
            first.witness_points / searches if searches else 0.0, "count"),
        "structure.verify_torus.calls_per_algebra": (
            totals[0]["structure.verify_torus"][0] / ops, "count"),
        "symplectic.cocycle_space.calls_per_algebra": (
            totals[0]["symplectic.cocycle_space"][0] / ops, "count"),
        "trace.overhead_frac": (sum(op_times(traced)) / sum(op_times(untraced)) - 1, "ratio"),
        "bench.deadline_hits": (first.deadline_hits, "count"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("paper", "scale", "files"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "liesymp" / "__init__.py").is_file():
        print("bench: no src/liesymp here; run from the root of a liesymp checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import liesymp

    if not Path(liesymp.__file__).resolve().is_relative_to(src.resolve()):
        print(f"bench: imported liesymp from {liesymp.__file__}, not from ./src",
              file=sys.stderr)
        return 2

    ops, items = make_ops(args.workload, args.seed, json.loads(DIGESTS.read_text()))
    run = Run(ops)
    signal.signal(signal.SIGPROF, _on_deadline)
    if args.workload == "files":
        _BUDGET.install()
    start = perf_counter()
    run.one_pass()  # warm-up
    untraced: list[list[float]] = []
    traced: list[list[float]] = []
    tracers: list[Tracer] = []
    kernels: list[list[list[float]]] = []  # reference times of each untraced pass
    traced_kernels: list[list[list[float]]] = []
    # A traced run needs one timed pass of each kind.
    need = 1 if args.trace else MIN_PASSES
    while (len(untraced) < need
           or (args.trace and not traced)
           or perf_counter() - start < args.seconds):
        if args.trace and len(traced) < len(untraced):
            tracer = Tracer()
            tracer.install()
            traced_kernels.append([])
            try:
                traced.append(run.one_pass(tracer, traced_kernels[-1]))
            finally:
                tracer.uninstall()
            tracers.append(tracer)
        else:
            kernels.append([])
            untraced.append(run.one_pass(kernels=kernels[-1]))

    info = {"workload": args.workload, "seed": args.seed, "ops_per_pass": len(ops),
            "passes": len(untraced), "traced_passes": len(traced),
            "failures": run.failure_counts()}
    if args.trace:
        metrics = per_layer(run, list(map(scaled, untraced, kernels)),
                            list(map(scaled, traced, traced_kernels)), tracers)
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
        tracers[0].write(spans, [op.label for op in ops])
        info["spans"] = str(spans.relative_to(root))
    else:
        metrics = end_to_end(run, untraced, kernels, measure_setup(root, items), info)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
