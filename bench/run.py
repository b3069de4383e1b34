"""qmeasure benchmark: one workload, one process, one thread.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It imports the library from ./src, pins
BLAS to one thread before numpy is imported, sets up SETUP_ROUNDS times
(a fresh import of qmeasure, then warm-up at every composite dimension),
proves its output checks have teeth, and then times ops for --seconds
seconds of op time (and at least MIN_OPS ops). Every output is checked
against the independent oracle in oracle.py outside the timed region.
All timings are scaled to the reference speed of refclock.py.

--trace 0 reports the end-to-end metrics. --trace 1 runs every op
twice, untraced and traced, and reports the per-layer metrics of
spans.py. The last line of stdout is the JSON result; the full record
with the environment goes to .bench_out/ in the repository root.
"""

import os
import sys
import time

_T0 = time.perf_counter()
# every set-up round compiles qmeasure from source, whatever the environment
sys.dont_write_bytecode = True
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
INHERITED = {v: os.environ.get(v) for v in PIN_VARS}
for _v in PIN_VARS:
    os.environ[_v] = "1"
# the CLI reports are compared with the oracle at the default tolerance
os.environ.pop("QMEASURE_TOL", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import threading  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
MIN_OPS = 100          # p90 then has at least ten samples beyond it
SETUP_ROUNDS = 5       # setup_s is the median round
MAX_WALL_S = 150.0     # hard stop for the timed loop, checks included
END_TO_END = {"trials_per_s": "1/s", "reports_per_s": "1/s", "latency_ms_p50": "ms",
              "latency_ms_p90": "ms", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def import_library():
    """Import qmeasure afresh from ./src, dropping any earlier import, and
    rebind the bench module that uses it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "qmeasure", "__init__.py")):
        raise ImportError(f"no qmeasure sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "qmeasure" or m.startswith("qmeasure.")]:
        del sys.modules[name]
    qmeasure = importlib.import_module("qmeasure")
    importlib.import_module("qmeasure.cli")
    if not os.path.abspath(qmeasure.__file__).startswith(src + os.sep):
        raise ImportError(f"qmeasure imported from {qmeasure.__file__}, not from {src}")
    if "workloads" in sys.modules:
        return importlib.reload(sys.modules["workloads"])
    return importlib.import_module("workloads")


def blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    import numpy as np
    base = os.path.dirname(os.path.dirname(np.__file__))
    for lib in sorted(glob.glob(os.path.join(base, "numpy*libs", "*openblas*"))):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha():
    """HEAD of the checkout, read from .git without starting git; None
    outside a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    threads = blas_threads()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "blas_pinned": threads == 1,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "pinning": {v: os.environ.get(v) for v in PIN_VARS},
        "pinning_inherited": INHERITED,
        "python_threads": threading.active_count(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }


def run_ops(wl, seconds, clock, tracer=None, deadline=None):
    """Closed loop: generate, time, check, until `seconds` of op time and
    MIN_OPS ops have passed. The reference kernel is sampled before the
    first op, after every clock.sample_every_s of op time and after the
    last op; each op's latency is then scaled by the kernel samples next
    to it. With a tracer each op runs twice on fresh inputs, untraced and
    traced, in alternating order, so that both see the same machine speed
    and neither always runs second."""
    st = {"ops": 0, "failed": 0, "lat": [], "scaled": [], "traced_lat": [], "refs": [clock.sample()],
          "trials": 0, "dims": [], "problems": []}
    passes = (None,) if tracer is None else (None, tracer)
    near, since = [], 0.0  # near[i]: index of the kernel sample before op i
    k = 0
    while sum(st["lat"]) < seconds or k < MIN_OPS:
        if deadline is not None and time.perf_counter() > deadline:
            st["problems"].append(f"stopped after {k} ops at the wall-clock limit")
            break
        for tr in (passes if k % 2 == 0 else passes[::-1]):
            inp = wl.make_input(k)
            if tr is not None:
                tr.begin(k)
            t = time.perf_counter()
            try:
                out, issues = wl.run(inp), None
            except Exception as err:  # a failed op, counted below
                out, issues = None, [f"op {k} raised {type(err).__name__}: {err}"]
            dt = time.perf_counter() - t
            if tr is None:
                st["lat"].append(dt)
                near.append(len(st["refs"]) - 1)
                since += dt
            else:
                tr.end()
                st["traced_lat"].append(dt)
            if issues is None:
                issues = wl.check(inp, out)
            st["ops"] += 1
            if issues:
                st["failed"] += 1
                st["problems"] += issues[:3]
            elif tr is tracer:  # counts of the pass the metrics describe
                st["trials"] += wl.trials(inp)
                n = wl.dim(inp, out)
                if n is not None:
                    st["dims"].append(n)
        if since >= clock.sample_every_s:
            st["refs"].append(clock.sample())
            since = 0.0
        k += 1
    st["refs"].append(clock.sample())
    st["scaled"] = [x * clock.factor(st["refs"], j) for x, j in zip(st["lat"], near)]
    return st


def self_test(work_dir: str) -> dict:
    """The checks must reject a perturbed report and a failing CLI run."""
    import oracle
    import workloads
    import qmeasure as qm

    results = {}
    rng = workloads.bench_rng(0, 77)
    u, rho0, meter = workloads.haar(4, rng), workloads.density(2, rng, False), workloads.hermitian(2, rng)
    a, b, rho = workloads.hermitian(2, rng), workloads.hermitian(2, rng), workloads.density(2, rng, False)
    mp = qm.MeasuringProcess(qm.DensityOperator(rho0), u, qm.HermitianObservable(meter))
    ref = oracle.edr_oracle(oracle.process_moments(u, rho0, meter, 2), a, b, rho)
    good = dataclasses.asdict(qm.edr_ledger(mp, a, b, rho))
    bad = dict(good, epsilon=good["epsilon"] * (1.0 + 1e-4))
    results["good_report_passes"] = not oracle.compare_edr(good, ref, "self-test")
    results["perturbed_report_fails"] = bool(oracle.compare_edr(bad, ref, "self-test"))

    cli = workloads.CliScenarios(0, work_dir)
    os.makedirs(work_dir, exist_ok=True)
    inp = cli._input(1, 78)  # a finite process scenario
    with contextlib.redirect_stderr(io.StringIO()):
        ok_code = cli.run(inp)
        results["good_cli_passes"] = not cli.check(inp, ok_code)
        path = os.path.join(inp["out"], "report.json")
        with open(path) as fh:
            report = json.load(fh)
        report["results"]["epsilon"] *= 1.0 + 1e-4
        with open(path, "w") as fh:
            json.dump(report, fh)
        results["perturbed_cli_report_fails"] = bool(cli.check(inp, ok_code))
        inp["cfg"]["payload"]["process"]["unitary"][0][0] = [2.0, 0.0]  # no longer unitary
        inp["path"], inp["out"] = cli._write(inp["cfg"], "selftest-bad")
        code = cli.run(inp)
        results["nonzero_cli_exit_fails"] = code != 0 and bool(cli.check(inp, code))
    return results


def end_to_end(stats, lat, setup_s) -> dict:
    """The end-to-end metrics from one list of op latencies (seconds)."""
    busy = sum(lat)
    good = len(lat) - stats["failed"]
    return {
        "trials_per_s": stats["trials"] / busy,
        "reports_per_s": good / busy,
        "latency_ms_p50": 1e3 * statistics.median(lat),
        "latency_ms_p90": 1e3 * statistics.quantiles(lat, n=10)[8],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": good / len(lat),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        workloads = import_library()
    except ImportError as err:
        print(f"bench: cannot import the library: {err}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    import refclock
    import spans

    deadline = _T0 + MAX_WALL_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        clock = refclock.RefClock(workloads.REF_KERNEL[args.workload])
        refs = [clock.sample() for _ in range(clock.window // 2)]
        rounds, near = [], []
        for rnd in range(SETUP_ROUNDS):
            t = time.perf_counter()
            wl = import_library().make_workload(args.workload, args.seed, work_dir)
            wl.setup(rnd)
            rounds.append(time.perf_counter() - t)
            near.append(len(refs) - 1)
            refs += [clock.sample() for _ in range(clock.window // 2)]
        setup_s = statistics.median(r * clock.factor(refs, j) for r, j in zip(rounds, near))
        raw_setup_s = statistics.median(rounds)
        teeth = self_test(os.path.join(work_dir, "selftest"))

        tracer = None
        if args.trace:
            import qmeasure
            tracer = spans.Tracer()
            tracer.install(qmeasure)
        try:
            stats = run_ops(wl, args.seconds / (2.0 if tracer else 1.0), clock, tracer, deadline)
        finally:
            if tracer:
                tracer.uninstall()
        final = wl.final_checks()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = stats["ops"] + 1  # the final determinism checks count as one op
    failed = stats["failed"] + bool(final)
    env = environment()
    correct = failed == 0 and all(teeth.values())
    busy = sum(stats["lat"])
    raw_metrics = None
    if tracer is None:
        metrics = end_to_end(stats, stats["scaled"], setup_s)
        raw_metrics = end_to_end(stats, stats["lat"], raw_setup_s)
        units = END_TO_END
    else:
        traced_busy = sum(stats["traced_lat"])
        metrics = tracer.summary(stats["trials"], traced_busy)
        metrics["work.n_mean"] = statistics.fmean(stats["dims"]) if stats["dims"] else 0.0
        metrics["trace.overhead_ratio"] = traced_busy / busy
        units = spans.metric_units()
        if set(units) != set(metrics):
            raise RuntimeError(f"per-layer metric set mismatch: {sorted(set(units) ^ set(metrics))}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "ops": stats["ops"], "op_seconds": busy, "setup_rounds_s": rounds,
        "ref_kernel_s": refs + stats["refs"], "raw_metrics": raw_metrics,
        "latencies_ms": [1e3 * x for x in stats["lat"]],
        "self_test": teeth, "final_checks": final, "known_defects": wl.known_defects,
        "problems": stats["problems"][:50],
        "environment": env, "result": result,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    if tracer is not None:
        tracer.write_spans(os.path.join(OUT_DIR, f"{tag}.spans.csv"))
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=2)
    if not env["blas_pinned"]:
        print(f"bench: WARNING: BLAS not pinned to one thread ({env['blas_threads']})", file=sys.stderr)
    for msg in record["problems"][:10] + final:
        print(f"bench: FAILED {msg}", file=sys.stderr)
    for msg, count in wl.known_defects.items():
        print(f"bench: known defect, not counted as failed: {msg} ({count} ops)", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} ops={stats['ops']} op_s={busy:.2f} "
          f"python={env['python']} numpy={env['numpy']} blas_threads={env['blas_threads']} "
          f"nproc={env['nproc']} git={env['git_sha']}")
    print(f"# self-test {teeth}")
    if tracer is None:
        for k, m in result["metrics"].items():
            print(f"#   {k:16s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
