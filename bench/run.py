"""casphere benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; casphere is imported from the
checkout's ``src`` and nowhere else.  Workloads (see ``scenes.py``):

* ``pair_force``: warm in-process ``casimir_force`` calls on an equal
  dielectric pair on the z axis, l_max = 4, separation drawn per op.
* ``thermal_three_body``: warm in-process ``three_body_energy`` calls
  at 293 K on seeded triangles of a gold, a silica and a dielectric
  sphere, l_max = 3.
* ``cli_sweep``: cold ``python -m casphere.cli force`` processes, each a
  two-point seeded sweep of an off-axis pair, l_max = 3.

Everything is serial: one process at a time, BLAS limited to 1 thread.

``--trace 0`` times ops for ``--seconds`` and reports the end-to-end
metrics; ``--workload all`` runs the three workloads in turn.  Times are
in reference seconds: the run times a fixed calibration kernel before
and after every op and set-up probe, and scales each clock time by
CAL_REF_S over the mean of its two neighbouring kernel times, so that a
shared machine running faster or slower for a while does not move the
metrics.  The clock values are printed beside them.  ``--trace 1`` runs the first TRACE_OPS inputs untraced and
then traced, and reports per-op layer metrics from ``layers.Tracer``.
Both check every output (``verify.py``).  Human-readable lines come
first; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record of the run, environment
included, is written to ``.bench_work/``.  The exit code is 0 only when
every output is correct.
"""

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time

import scenes
import verify

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3
# Times are reported in reference seconds: as if the calibration kernel
# took CAL_REF_S (see ``reference_seconds``).
CAL_REF_S = 0.25
TRACE_OPS = 2
CHILD_TIMEOUT_S = 60.0

END_TO_END_UNITS = {"call_s_p50": "s", "points_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB",
                    "max_rel_err": "1", "failed_frac": "1"}
# the metrics BENCHMARK.json lists; max_rel_err and failed_frac can be 0,
# so they are printed and recorded but carried in the JSON line by
# ``correct`` and ``failed``
REPORTED = ("call_s_p50", "points_per_s", "setup_s", "peak_rss_mb")


# --------------------------------------------------------------- children

def run_child(argv, stderr_path):
    """Run one child to completion: (exit code, peak RSS in kB, seconds).

    Waits with ``os.wait4`` for the child's own resource usage; a
    watchdog kills a child that outlives CHILD_TIMEOUT_S.
    """
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                                stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss, seconds


def _stderr_tail(path):
    with open(path, encoding="utf-8", errors="replace") as fh:
        lines = fh.read().strip().splitlines()
    return lines[-1] if lines else ""


def measure_setup(workload):
    """(clock seconds of fresh interpreters made ready, calibrations
    before each and after the last)."""
    if workload == "cli_sweep":
        argv = [sys.executable, "-m", "casphere.cli", "--version"]
    else:
        argv = [sys.executable, os.path.join(HERE, "probe.py"), workload]
    samples, calibration = [], [calibrate()]
    for _ in range(SETUP_REPEATS):
        path = os.path.join(WORK, "setup_stderr.txt")
        code, _, seconds = run_child(argv, path)
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}: "
                               f"{_stderr_tail(path)}")
        samples.append(seconds)
        calibration.append(calibrate())
    return samples, calibration


# ------------------------------------------------------------ calibration

def calibration_kernel(n=12000):
    """Fixed work in the style of casphere's hot path (scalar-sized numpy
    arrays, scipy.special, Python loops) that shares no code with it."""
    import numpy
    from scipy.special import ive
    acc = 0.0
    for i in range(n):
        x = numpy.atleast_1d(numpy.asarray(0.5 + 0.001 * i,
                                           dtype=float)).astype(float)
        v = numpy.sqrt(numpy.pi / (2.0 * x)) * ive(2.5, x)
        p = numpy.full_like(x, 0.28)
        s = numpy.sqrt(numpy.clip(1.0 - x * x, 0.0, None))
        for k in range(1, 4):
            p = -math.sqrt((2 * k + 1) / (2.0 * k)) * s * p
        w = numpy.zeros(3, dtype=complex)
        w += numpy.array([1.5, 0.5j, 0.0])
        acc += float(v[0]) + float(p[0]) + w.real[0]
    return acc


def calibrate():
    """Clock seconds of one calibration kernel run."""
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


def reference_seconds(seconds, calibration):
    """Scale each timed item by the mean of the calibrations just before
    and just after it: calibration[i] precedes item i."""
    return [t * CAL_REF_S / (0.5 * (calibration[i] + calibration[i + 1]))
            for i, t in enumerate(seconds)]


# -------------------------------------------------------------------- ops

def cli_op(inp, traced=False):
    """One cli_sweep process; returns its result record."""
    out = os.path.join(".bench_work", "sweep.csv")
    if os.path.exists(os.path.join(ROOT, out)):
        os.remove(os.path.join(ROOT, out))
    argv = scenes.cli_argv(inp, out)
    summary = os.path.join(WORK, "cli_trace_summary.json")
    if traced:
        argv = [sys.executable, os.path.join(HERE, "cli_child.py"), summary,
                os.path.join(WORK, "cli_trace_spans.json")] + argv
    else:
        argv = [sys.executable, "-m", "casphere.cli"] + argv
    stderr_path = os.path.join(WORK, "cli_stderr.txt")
    code, rss_kb, seconds = run_child(argv, stderr_path)
    csv_text = None
    if os.path.exists(os.path.join(ROOT, out)):
        with open(os.path.join(ROOT, out), encoding="utf-8") as fh:
            csv_text = fh.read()
    result = {"csv": csv_text, "exit": code, "rss_kb": rss_kb}
    if code != 0:
        result["stderr"] = _stderr_tail(stderr_path)
    if traced and code == 0:
        with open(summary, encoding="utf-8") as fh:
            result["trace"] = json.load(fh)
    return result, seconds


def in_process_op(workload, inp, tracer=None):
    t0 = time.perf_counter()
    if tracer is None:
        result = scenes.run_op(workload, inp)
    else:
        with tracer.op():
            result = scenes.run_op(workload, inp)
    return result, time.perf_counter() - t0


def attempt(workload, index, inp, traced=False, tracer=None):
    """Run one op; an exception is recorded as a failed op."""
    rec = {"index": index, "input": inp, "traced": traced}
    t0 = time.perf_counter()
    try:
        if workload == "cli_sweep":
            rec["result"], rec["seconds"] = cli_op(inp, traced)
        else:
            rec["result"], rec["seconds"] = in_process_op(workload, inp,
                                                          tracer)
    except Exception as exc:   # an op that raises is a failed op
        rec["seconds"] = time.perf_counter() - t0
        rec["result"] = None
        rec["raised"] = f"{type(exc).__name__}: {exc}"
    return rec


def calibrated_ops(workload, inputs, seconds=math.inf, **how):
    """Ops on consecutive inputs until they have taken ``seconds`` or the
    inputs run out, with a calibration before each op and after the last.
    Returns the records and the calibration times."""
    records, calibration = [], [calibrate()]
    for index, inp in enumerate(inputs):
        if records and sum(r["seconds"] for r in records) >= seconds:
            break
        records.append(attempt(workload, index, inp, **how))
        calibration.append(calibrate())
    return records, calibration


def ref_times(records, calibration):
    return reference_seconds([r["seconds"] for r in records], calibration)


# ------------------------------------------------------------ correctness

def check(workload, seed, records):
    """Attach a verdict to every record; returns the worst deviation."""
    ref_inputs, ref_results = verify.load_references(workload, seed)
    invariant_checked = False
    for rec in records:
        index, result = rec["index"], rec["result"]
        ref = None
        if index < len(ref_inputs):
            if ref_inputs[index] != rec["input"]:
                raise RuntimeError(
                    f"input {index} of seed {seed} differs from the stored "
                    "reference input; the generator changed")
            ref = ref_results[index]
        against = "reference" if ref is not None else "shape"
        if result is None:
            verdict = verify.Verdict(False, math.inf, rec["raised"])
        elif workload == "cli_sweep":
            if ref is not None:
                verdict = verify.check_csv(result["csv"], result["exit"],
                                           ref_text=ref["csv"])
            else:
                sweep, comments = verify.template_comments()
                comments = [c.replace(sweep, rec["input"]["sweep"])
                            for c in comments]
                verdict = verify.check_csv(result["csv"], result["exit"],
                                           comments=comments,
                                           n_rows=scenes.CLI_POINTS)
        else:
            verdict = verify.check_result(workload, result, ref)
        if ref is None and verdict.ok and not invariant_checked:
            invariant_checked, against = True, "invariant"
            residual = scenes.invariant_residual(workload, rec["input"],
                                                 result)
            ok = residual <= verify.REL_TOL[workload]
            verdict = verify.Verdict(
                ok, residual, "" if ok else f"invariant residual {residual:.3g}")
        rec["check"] = {"ok": verdict.ok, "rel_err": verdict.rel_err,
                        "reason": verdict.reason, "against": against}
    return max((r["check"]["rel_err"] for r in records), default=0.0)


def results_per_op(workload):
    return scenes.CLI_POINTS if workload == "cli_sweep" else 1


# ------------------------------------------------------------------ runs

def environment(seed):
    import numpy
    import scipy
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc,
            "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
            "machine": platform.machine(), "seed": seed}


def import_casphere():
    import casphere
    where = os.path.dirname(os.path.abspath(casphere.__file__))
    if where != os.path.join(SRC, "casphere"):
        raise RuntimeError(f"casphere imported from {where}, not {SRC}")
    return casphere


def run_end_to_end(workload, seed, seconds):
    if workload == "cli_sweep":
        with open(os.path.join(ROOT, scenes.CLI_SCENE_PATH), "w",
                  encoding="utf-8") as fh:
            json.dump(scenes.cli_scene_doc(), fh)
    else:
        import_casphere()
        scenes.warm_up(workload)
    setup_samples, setup_calibration = measure_setup(workload)
    records, op_calibration = calibrated_ops(
        workload, scenes.inputs(workload, seed), seconds)
    if workload == "cli_sweep":
        peak_kb = max((r["result"]["rss_kb"] for r in records
                       if r["result"] is not None), default=0)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worst = check(workload, seed, records)
    good = sum(r["check"]["ok"] for r in records)
    op_seconds = [r["seconds"] for r in records]
    op_ref = ref_times(records, op_calibration)
    busy = sum(op_seconds)
    metrics = {
        "call_s_p50": statistics.median(op_ref),
        "points_per_s": good * results_per_op(workload) / sum(op_ref),
        "setup_s": statistics.median(reference_seconds(setup_samples,
                                                       setup_calibration)),
        "peak_rss_mb": peak_kb / 1024.0,
        "max_rel_err": worst,
        "failed_frac": (len(records) - good) / len(records),
    }
    notes = {
        "call_s_p50": f"median of {len(records)} ops; "
                      f"{statistics.median(op_seconds):.4g} s on the clock",
        "points_per_s": f"{good * results_per_op(workload)} results in "
                        f"{busy:.2f} s on the clock",
        "setup_s": f"median of {len(setup_samples)} fresh interpreters; "
                   f"{statistics.median(setup_samples):.4g} s on the clock",
        "peak_rss_mb": "largest op process" if workload == "cli_sweep"
        else "process that ran the ops",
        "max_rel_err": f"{len(records)} ops checked",
        "failed_frac": f"{len(records) - good} of {len(records)} ops",
    }
    extra = {"setup_samples": setup_samples,
             "setup_calibration": setup_calibration,
             "op_calibration": op_calibration, "busy_seconds": busy}
    return records, metrics, notes, END_TO_END_UNITS, extra


def run_traced(workload, seed):
    import layers
    inputs = scenes.first_inputs(workload, seed, TRACE_OPS)
    if workload == "cli_sweep":
        with open(os.path.join(ROOT, scenes.CLI_SCENE_PATH), "w",
                  encoding="utf-8") as fh:
            json.dump(scenes.cli_scene_doc(), fh)
    else:
        import_casphere()
        scenes.warm_up(workload)
    plain, plain_cal = calibrated_ops(workload, inputs)
    if workload == "cli_sweep":
        traced, traced_cal = calibrated_ops(workload, inputs, traced=True)
        summaries = [r["result"].pop("trace") for r in traced
                     if r["result"] is not None and "trace" in r["result"]]
    else:
        tracer = layers.Tracer()
        tracer.install()
        try:
            traced, traced_cal = calibrated_ops(workload, inputs,
                                                traced=True, tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.dump(os.path.join(WORK, f"spans_{workload}_{seed}.json"))
        summaries = [tracer.summary()]
    records = plain + traced
    check(workload, seed, records)
    if not summaries or any(not r["check"]["ok"] for r in records):
        return records, {}, {}, {}, {}
    overhead = (statistics.median(ref_times(traced, traced_cal))
                / statistics.median(ref_times(plain, plain_cal)) - 1.0)
    metrics, missing = layers.layer_metrics(summaries, overhead)
    units = dict(layers.metric_names())
    notes = {name: f"per op, {len(traced)} traced ops" for name in metrics}
    notes["trace.overhead_frac"] = (f"{len(traced)} traced vs "
                                    f"{len(plain)} untraced ops")
    return records, metrics, notes, units, {"missing_layers": missing}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="casphere benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True,
                        choices=scenes.WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not os.path.isfile(os.path.join(SRC, "casphere", "__init__.py")):
        print(f"casphere sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [subprocess.call([sys.executable, os.path.abspath(__file__),
                                  "--workload", w, "--seed", str(args.seed),
                                  "--seconds", str(args.seconds),
                                  "--trace", str(args.trace)])
                 for w in scenes.WORKLOADS]
        return 1 if any(codes) else 0
    os.environ.update(BLAS_ENV)        # before numpy is first imported
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    calibration_kernel(10)      # import numpy and scipy outside the samples

    if args.trace:
        records, metrics, notes, units, extra = run_traced(args.workload,
                                                           args.seed)
        reported = list(metrics)
    else:
        records, metrics, notes, units, extra = run_end_to_end(
            args.workload, args.seed, args.seconds)
        reported = REPORTED
    failed = sum(not r["check"]["ok"] for r in records)
    env = environment(args.seed)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in metrics.items():
        print(f"{name:<36} {value:<14.6g} {units[name]:<6} {notes[name]}")
    for missing in extra.get("missing_layers", []):
        print(f"{missing:<36} missing: a wrapped name no longer exists")
    for rec in records:
        if not rec["check"]["ok"]:
            print(f"op {rec['index']} failed: {rec['check']['reason']}")

    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "environment": env,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()},
              "extra": extra, "ops": records}
    path = os.path.join(WORK, f"result_{args.workload}_seed{args.seed}"
                              f"_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in reported if k in metrics}}))
    return 0 if failed == 0 and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
