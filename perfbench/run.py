#!/usr/bin/env python3
"""retinapipe benchmark: drives `retinapipe.cli.main` in-process on inputs
generated from a seed, checks the outputs and prints the metrics declared in
BENCHMARK.json.

    python3 perfbench/run.py --workload {train,evaluate,report_png} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ./src, and
each timed operation is paired with the same operation run by the frozen
copy of the package in perfbench/baseline. With
--trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run (see perfbench/README.md).
The line before it holds the machine record, the workload's shape and the
details behind the metrics.
"""

import os

# One client, one thread: pin BLAS before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from common import BENCH_DIR, ROOT, BenchError, import_baseline, import_package  # noqa: E402

SETUP_REPEATS = 5
WORK_ROOT = os.path.join(BENCH_DIR, "_work")


def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def machine_record(seed: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def quantile(samples: list[float], q: float) -> float:
    s = sorted(samples)
    return s[int(q * (len(s) - 1))]


def tail(samples: list[float]) -> tuple[float, dict]:
    """The highest percentile with at least ten samples beyond it (the
    maximum when there are fewer than eleven samples)."""
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return s[-1], {"percentile": 100.0, "samples": n, "beyond": 0}
    return s[n - 11], {"percentile": round(100.0 * (n - 10) / n, 2), "samples": n, "beyond": 10}


def record(res, log: dict) -> None:
    log["attempted_ops"] += 1
    log["attempted"] += res.calls
    log["failed"] += res.failed_calls
    log["problems"].extend(res.problems[: max(0, 10 - len(log["problems"]))])


class Timings:
    """Wall times of the operations, each paired with the same operation
    run right after it by the frozen baseline package."""

    def __init__(self):
        self.ops: list[float] = []
        self.base: list[float] = []

    def ratios(self) -> list[float]:
        return [t / b for t, b in zip(self.ops, self.base)]

    def rel(self) -> float:
        return statistics.median(self.ratios())


def run_ops(wl, baseline, deadline: float, min_ops: int, log: dict) -> Timings:
    """Closed loop of operations, each followed by its baseline twin, until
    the deadline (and at least min_ops)."""
    timings = Timings()
    while len(timings.ops) < min_ops or time.perf_counter() < deadline:
        i = log["attempted_ops"]
        res = wl.op(i)
        record(res, log)
        timings.ops.append(res.seconds)
        timings.base.append(wl.baseline_op(i, baseline))
    return timings


def layer_metrics(tracer, wl, traced: Timings, untraced: Timings) -> dict:
    from layertrace import LAYERS, TARGETS, span_name

    ops = len(traced.ops)
    values = {}
    for module, attr in TARGETS:
        name = span_name(module, attr)
        values[f"{name}.calls"] = tracer.calls[name] / ops
        values[f"{name}.self_s"] = tracer.self_s[name] / ops
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = sum(
            tracer.self_s[span_name(m, a)] for m, a in TARGETS if m == layer) / ops
    c = tracer.counts
    examples = ops * wl.examples_per_op() if hasattr(wl, "examples_per_op") else 0
    values["autodiff.tape_records_per_example"] = c["tape_records"] / examples if examples else 0.0
    values["textgen.decode_beam.tokens"] = c["beam_tokens"] / ops
    values["textgen.lstm_steps_per_token"] = (
        c["beam_lstm_steps"] / c["beam_tokens"] if c["beam_tokens"] else 0.0)
    values["imageio.load_image.bytes"] = c["load_bytes"] / ops
    values["imageio.write_png.bytes"] = c["write_bytes"] / ops
    values["imageio.load_image.calls_per_case"] = (
        tracer.calls["imageio.load_image"] / (ops * wl.cases_per_op()))
    values["checkpoint.load.bytes"] = c["ckpt_load_bytes"] / ops
    values["checkpoint.save.bytes"] = c["ckpt_save_bytes"] / ops
    values["trace.self_share"] = sum(tracer.self_s.values()) / sum(traced.ops)
    values["trace.overhead_pct"] = 100.0 * (traced.rel() / untraced.rel() - 1.0)
    return values


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    declared = declared_metrics()
    package = import_package()
    work = os.path.join(WORK_ROOT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    wl = WORKLOADS[args.workload](package, work, args.seed)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        # The package's peak memory: set-up includes one operation, and the
        # baseline, which shares the process, is not loaded yet.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        baseline = import_baseline()
        wl.baseline_op(-1, baseline)  # warm-up of the baseline, outside set-up time

        log = {"attempted_ops": 0, "attempted": 0, "failed": 0, "problems": []}
        info = {"workload": args.workload, "machine": machine_record(args.seed),
                "setup_s_samples": setup_times}
        start = time.perf_counter()
        if not args.trace:
            timings = run_ops(wl, baseline, start + args.seconds, wl.min_ops, log)
            times = timings.ops
            tail_value, tail_info = tail(times)
            final = wl.final_op()
            if final is not None:
                record(final, log)
                info["final_op_s"] = final.seconds
            quality = wl.quality()
            values = {
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": peak_rss_mb,
                "op_time_rel": timings.rel(),
                **quality,
            }
            info.update(op_ms_p10=1000.0 * quantile(times, 0.1),
                        op_ms_p50=1000.0 * statistics.median(times),
                        op_ms_tail={"value": 1000.0 * tail_value, **tail_info},
                        baseline_ms_p50=1000.0 * statistics.median(timings.base),
                        op_seconds=times, baseline_seconds=timings.base)
            names = declared["end_to_end"]
        else:
            from layertrace import Tracer

            untraced = run_ops(wl, baseline, start + args.seconds / 3.0, 1, log)
            tracer = Tracer(package)
            tracer.install()
            try:
                traced = run_ops(wl, baseline, start + args.seconds, 1, log)
            finally:
                tracer.uninstall()
            values = layer_metrics(tracer, wl, traced, untraced)
            spans_path = os.path.join(WORK_ROOT, f"trace-{args.workload}-seed{args.seed}.csv")
            tracer.write_spans(spans_path, args.workload)
            ranking = sorted(((k.split(".")[1], v) for k, v in values.items()
                              if k.startswith("layer.")), key=lambda kv: -kv[1])
            info.update(untraced_op_seconds=untraced.ops, traced_op_seconds=traced.ops,
                        untraced_baseline_seconds=untraced.base, traced_baseline_seconds=traced.base,
                        layer_ranking=[k for k, _ in ranking],
                        spans_file=os.path.relpath(spans_path, ROOT), spans=len(tracer.spans))
            names = declared["per_layer"]
        if set(values) != set(names):
            raise BenchError(f"metrics {sorted(set(values) ^ set(names))} disagree with BENCHMARK.json")
        info.update(wl.info, ops=log["attempted_ops"], problems=log["problems"])
        print(json.dumps({"info": info}))
        print(json.dumps({
            "correct": log["failed"] == 0,
            "attempted": log["attempted"],
            "failed": log["failed"],
            "metrics": {k: {"value": values[k], "unit": names[k]} for k in names},
        }))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
