"""coverlab benchmark: one workload per process, checked results, metrics.

Run from the repository root:

    python3 perfbench/run.py --workload etf --seed 1 --seconds 30 --trace 0

--seconds fixes the number of passes through each workload's nominal pass
time (see planned_rounds), so a run takes about that long on a machine of
the baseline's speed.  --trace 0 reports the end-to-end metrics (setup_s,
pass_s, peak_rss_mb); --trace 1 alternates untraced and traced passes on
the same inputs and reports the per-layer metrics plus
trace.overhead_ratio.  Times are scaled to a reference machine speed
sampled during the run (see speed.py).  The last line of standard output
is one JSON object with correct, attempted, failed and metrics; the
lines before it are per-request rows.  A record of the run
(versions, rows, pass times, payload hashes, call tree) is written under
perfbench/out/.  --full adds the TS(3,2) request to analyze; --stages
prints the stage table instead (see stages.py).  See README.md.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing

# one process, no extra threads: pin BLAS pools before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("COVERLAB_THREADS", None)  # a no-op knob; leave it unset

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9  # set-up samples per run
# Times `import coverlab` in a fresh interpreter, then samples the speed
# kernel there (after the import, so that it loads nothing coverlab would)
# and prints the import time scaled to reference speed.
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
                "t = time.perf_counter(); import coverlab; "
                "s = time.perf_counter() - t; import speed; "
                "print(speed.scale(s, [speed.kernel() for _ in range(40)]))")
MODULES = ("cli", "constructions", "graphcore", "groupops", "frames", "perms",
           "params", "casecheck", "autgroup", "numtheory", "exact")


def import_coverlab():
    """Import coverlab from this checkout's src/; returns (namespace, secs)."""
    src = ROOT / "src"
    if not (src / "coverlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no coverlab sources under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    mods = {m: importlib.import_module(f"coverlab.{m}") for m in MODULES}
    import_s = time.perf_counter() - t0
    pkg = sys.modules["coverlab"]
    if Path(pkg.__file__).resolve().parent != (src / "coverlab").resolve():
        raise SystemExit(f"error: coverlab imported from {pkg.__file__}")
    return argparse.Namespace(**mods), import_s


def setup_sample(wl, meter) -> tuple[float, float]:
    """One set-up: (seconds to import coverlab, numpy included, in a fresh
    interpreter; seconds of wl.setup()), both at reference speed."""
    res = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"),
         str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120, check=True)
    with meter:
        t0 = time.perf_counter()
        wl.setup()
        t1 = time.perf_counter()
    return float(res.stdout), meter.scaled(t0, t1)[1]


def planned_rounds(wl, seconds: float, trace: int) -> int:
    """Rounds a run makes: fixed by --seconds and the workload's nominal pass
    time, never by how long the passes actually take.  Untraced, a whole
    number of passes per input variant; traced, at least two rounds of an
    untraced and a traced pass."""
    if trace:
        return max(2, round(seconds / (2 * wl.nominal_pass_s)))
    per_variant = round(seconds / (wl.variants * wl.nominal_pass_s))
    return wl.variants * max(1, per_variant)


def run_pass(requests, meter, tracer=None):
    """Run every request once under the meter; returns (wall seconds,
    [(request, raw secs, scaled secs, out, err)])."""
    timed = []
    gc.collect()  # every pass starts from the same heap state
    t0 = time.perf_counter()
    with meter:
        for req in requests:
            if tracer is not None:
                tracer.request = req.name
            t = time.perf_counter()
            try:
                out, err = req.run(), None
            except Exception as exc:  # a failed request is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            timed.append((req, t, time.perf_counter(), out, err))
    wall = time.perf_counter() - t0
    return wall, [(req, *meter.scaled(t, t1), out, err)
                  for req, t, t1, out, err in timed]


def check_pass(rows) -> tuple[list[str], list[str]]:
    """(failures, digests) of a pass; checks run here, outside the timing."""
    failures, digests = [], []
    for req, _, _, out, err in rows:
        if err is not None:
            problems = [err]
        else:
            try:
                problems = req.check(out)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append(f"{req.name}: {'; '.join(problems)}")
        digests.append(json.dumps([req.name, None if err else req.digest(out)],
                                  sort_keys=True, default=str))
    return failures, digests


def median(xs):
    return statistics.median(xs) if xs else 0.0


class Passes:
    """The measured passes of one run and what they found.

    Untraced, pass i runs input variant i % variants.  Request times are
    scaled to reference speed by a speed.Meter (see speed.py), and pass_s
    adds up each request's median scaled time over the passes.  Traced,
    each round is an untraced and a traced pass over variant 0, whose
    results must agree, and the traced pass is summed the same way.
    Outputs are dropped after their checks, so peak memory is one pass's.
    """

    def __init__(self, workload, trace: int, meter):
        self.wl = workload
        self.meter = meter
        self.trace = trace
        self.rounds = self.attempted = 0
        self.failures, self.problems = [], []
        self.pass_times, self.traced_times = [], []
        self.request_times: dict[str, list[float]] = {}  # scaled
        self.raw_request_times: dict[str, list[float]] = {}
        self.kernel_medians: list[float] = []  # per pass, for the record
        self.traced_request_times: dict[str, list[float]] = {}
        self.traced_metrics, self.call_tree = [], []
        self.digests_differ = False
        self.payload_hashes: dict[str, str] = {}  # information, not gated

    def _measured(self, variant: int, times: dict, tracer=None):
        wall, rows = run_pass(self.wl.requests(variant), self.meter, tracer)
        self.kernel_medians.append(statistics.median(self.meter.kernels))
        failures, digests = check_pass(rows)
        self.attempted += len(rows)
        self.failures += failures
        for req, raw, secs, out, err in rows:
            times.setdefault(req.name, []).append(secs)
            if tracer is None:
                self.raw_request_times.setdefault(req.name, []).append(raw)
            if req.cli and err is None:
                self.payload_hashes[f"v{variant}/{req.name}"] = hashlib.sha256(
                    out[1].encode()).hexdigest()
        return wall, rows, digests

    def run_round(self) -> None:
        variant = 0 if self.trace else self.rounds % self.wl.variants
        wall, rows, digests = self._measured(variant, self.request_times)
        self.pass_times.append(wall)
        del rows
        if self.trace:
            tracer = tracing.Tracer()
            with tracing.Instrumented(tracer):
                wall, rows, traced = self._measured(
                    variant, self.traced_request_times, tracer)
            self.traced_times.append(wall)
            if traced != digests and not self.digests_differ:
                self.digests_differ = True
                self.problems.append("traced pass results differ from untraced")
            metrics = tracer.layer_metrics()
            metrics["cli.payload_bytes"] = sum(
                len(out[1].encode()) for req, _, _, out, err in rows
                if req.cli and err is None)
            self.traced_metrics.append(metrics)
            self.call_tree = tracer.call_tree()
        self.rounds += 1

    @staticmethod
    def median_sum(times: dict[str, list[float]]) -> float:
        return sum(median(v) for v in times.values())

    def pass_s(self) -> float:
        return self.median_sum(self.request_times)


def blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS reports it uses; None if there is no
    such library to ask (another BLAS, or numpy built against a system one)."""
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def run_record(args, workload, rounds: int) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed,
        "seed_used": workload.seeded, "seconds": args.seconds,
        "trace": args.trace, "full": args.full, "rounds": rounds,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_requested": os.environ["OPENBLAS_NUM_THREADS"],
        "coverlab_threads_env": os.environ.get("COVERLAB_THREADS"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="etf")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--full", action="store_true",
                    help="analyze: add TS(3,2), which fails today")
    ap.add_argument("--stages", action="store_true",
                    help="print the per-stage table instead")
    args = ap.parse_args(argv)

    cl, import_s = import_coverlab()
    import workloads  # after coverlab, so that import_s includes numpy

    if args.stages:
        import stages
        return stages.main(cl, args.seed)
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"known: {sorted(workloads.WORKLOADS)}")

    wl = workloads.WORKLOADS[args.workload](cl, ROOT, args.seed, args.full)
    rounds = planned_rounds(wl, args.seconds, args.trace)
    # Set-up samples are spread over the run, before the first pass and
    # after each round, and scaled to reference speed like the requests.
    # setup_s is the median import plus the median set-up.
    meter = speed.Meter()
    slots = [i * (rounds + 1) // SETUP_REPEATS for i in range(SETUP_REPEATS)]
    imports, setups = [], []

    def sample_setups(slot: int) -> None:
        for _ in range(slots.count(slot)):
            imp, sec = setup_sample(wl, meter)
            imports.append(imp)
            setups.append(sec)

    sample_setups(0)
    problems = wl.validate()  # inputs that are not what they should be
    record = run_record(args, wl, rounds)

    passes = Passes(wl, args.trace, meter)
    for r in range(rounds):
        passes.run_round()
        sample_setups(r + 1)
    setup_s = median(imports) + median(setups)
    problems += passes.problems
    failures, attempted = passes.failures, passes.attempted
    pass_times, traced_times = passes.pass_times, passes.traced_times
    request_times = passes.request_times
    failed = len(failures)

    for name, secs in request_times.items():
        print(f"row {name:<44} min_ms={1000 * min(secs):10.3f} "
              f"median_ms={1000 * median(secs):10.3f} runs={len(secs)}")
    print(f"# workload={args.workload} seed={args.seed} passes={len(pass_times)} "
          f"wall_s={[round(t, 3) for t in pass_times]} "
          f"raw_pass_s={passes.median_sum(passes.raw_request_times):.3f} "
          f"kernel_ms={[round(1000 * k, 4) for k in passes.kernel_medians]} "
          f"fail_ratio={failed}/{attempted}")
    for f in problems + failures[:20]:
        print(f"# FAIL {f}")

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        build = tracing.Tracer()
        with tracing.Instrumented(build):
            wl.setup()
        metrics = {}
        for name in passes.traced_metrics[0]:
            vals = [m[name] for m in passes.traced_metrics]
            metrics[name] = median(vals) if name.endswith("_s") else vals[0]
        metrics["constructions.build_s"] = build.layer_metrics()[
            "constructions.build_s"]
        metrics["trace.overhead_ratio"] = (
            passes.median_sum(passes.traced_request_times)
            / passes.pass_s() - 1.0)
        units = {n: ("s" if n.endswith("_s") else "ratio"
                     if n.endswith("_ratio") else "B"
                     if n.endswith("_bytes") else "count")
                 for n in metrics}
    else:
        metrics = {"setup_s": setup_s, "pass_s": passes.pass_s(),
                   "peak_rss_mb": peak_rss_mb}
        units = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}

    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    record.update(setup_s=setup_s, setup_samples=setups,
                  import_samples=imports, first_import_s=import_s,
                  pass_times=pass_times, traced_times=traced_times,
                  peak_rss_mb=peak_rss_mb, attempted=attempted, failed=failed,
                  failures=failures, problems=problems,
                  traced_identical=not passes.digests_differ,
                  rows={k: {"min_s": min(v), "median_s": median(v),
                            "raw_s": passes.raw_request_times.get(k)}
                        for k, v in request_times.items()},
                  kernel_medians=passes.kernel_medians,
                  raw_pass_s=passes.median_sum(passes.raw_request_times),
                  payload_hashes=passes.payload_hashes, metrics=metrics,
                  call_tree=passes.call_tree[:200])
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{name}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": not (failures or problems), "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
