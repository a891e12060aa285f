"""solitonlab benchmark: scenario wall time, set-up, memory and failures.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; it measures the package in the
checkout's src/. NAME is propagate-1d, oracle-3d, scenarios-small, or all.

Each repetition runs the workload's scenarios through runner.run_scenario
in a fresh interpreter (bench/rep.py), one process at a time, so the set-up
and the oracle's weight build are paid as one CLI invocation pays them.
Repetitions run until the next one would end past S seconds, at least one.
Every run is checked: it fails if it raises, if its report is not passed,
if it carries no criterion checks, or if an evolving scenario took no step.

With --trace 0 the last output line holds the end-to-end metrics:
wall_s (first run_scenario call to last report.json), setup_s (package
import plus config build; extra set-up-only interpreters bring its samples
to at least SETUP_SAMPLES), and peak_rss_mb, each the median over the
repetitions. With --trace 1 the repetitions are followed by one traced
repetition, whose per-module spans give the per-layer metrics.

Exit status: 0 when every run passed, 1 when any failed (the result is
still printed), 2 when the benchmark could not run (no result printed).
Outputs go under .bench_out/ in the checkout: each workload's last
repetition, the traced run's spans, and a result file with the run metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("propagate-1d", "oracle-3d", "scenarios-small")
SETUP_SAMPLES = 7
DEADLINE_S = 170.0  # per workload; a run must end within 180 s
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _child(args: list[str], deadline: float) -> dict:
    """Run bench/rep.py in a fresh interpreter; its last line is JSON."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the next repetition")
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "rep.py"), *args],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"repetition {args} ran past the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"repetition {args} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _caches() -> dict[str, str]:
    """Total size per cache level over distinct instances, as lscpu sums."""
    sizes: dict[str, dict[str, int]] = {}
    for index in Path("/sys/devices/system/cpu").glob("cpu*/cache/index*"):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction" or not size.endswith("K"):
            continue
        sizes.setdefault(f"L{level}", {})[shared] = int(size[:-1])
    return {lvl: f"{sum(inst.values()) / 1024:g} MiB"
            for lvl, inst in sorted(sizes.items())}


def metadata(seed: int, deadline: float) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    meta = {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "caches": _caches(), "git_commit": _git_commit(), "seed": seed}
    meta.update(_child(["--probe"], deadline))
    return meta


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 tiny: bool, inject_failure: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    out = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    common = ["--workload", workload, "--seed", str(seed)]
    common += ["--tiny"] * tiny + ["--inject-failure"] * inject_failure

    def repetition(*extra: str) -> dict:
        shutil.rmtree(out, ignore_errors=True)
        return _child([*common, "--out", str(out), *extra], deadline)

    reps, durations = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        reps.append(repetition())
        durations.append(time.monotonic() - t0)
        if time.monotonic() - start + statistics.median(durations) > seconds:
            break
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_child([*common, "--setup-only"], deadline)["setup_s"])
    samples = {"wall_s": [r["wall_s"] for r in reps], "setup_s": setups,
               "peak_rss_mb": [r["peak_rss_mb"] for r in reps]}
    traced = repetition("--trace") if trace else None

    runs = [run for r in reps + [traced] if r for run in r["runs"]]
    result = {"workload": workload, "seed": seed, "inputs": reps[0]["inputs"],
              "samples": samples, "runs_first": reps[0]["runs"],
              "attempted": len(runs),
              "failed": sum(not run["passed"] for run in runs),
              "failures": [run for run in runs if not run["passed"]],
              "threads": max(r["threads"] for r in reps)}
    result["correct"] = result["failed"] == 0
    if traced is not None:
        layers = dict(traced["per_layer"])
        layers["trace.overhead_ratio"] = \
            traced["wall_s"] / statistics.median(samples["wall_s"]) - 1.0
        result.update(per_layer=layers, traced_wall_s=traced["wall_s"],
                      scenario_sum_s=traced["scenario_sum_s"],
                      spans_file=traced["spans_file"])
        if not traced.get("direct_warm_matches_cold", True):
            result["correct"] = False
            result["failures"].append("warm direct apply differs from cold")
    return result


def metrics(result: dict, trace: bool) -> dict[str, dict]:
    if trace:
        return {name: {"value": result["per_layer"][name], "unit": unit}
                for name, (unit, _) in PER_LAYER.items()}
    return {name: {"value": statistics.median(result["samples"][name]),
                   "unit": unit} for name, unit in END_TO_END.items()}


def report_lines(result: dict, trace: bool) -> list[str]:
    lines = [f"== workload {result['workload']}  seed {result['seed']}  "
             f"inputs {json.dumps(result['inputs'])}  "
             f"threads {result['threads']}"]
    for run in result["runs_first"]:
        for c in run["checks"]:
            lines.append(f"   {run['scenario']:<23} {c['criterion']:<12} "
                         f"{c['description']}: {c['value']:.6g} "
                         f"{c['comparison']} {c['threshold']:g}")
    for f in result["failures"]:
        lines.append(f"   FAILED: {json.dumps(f)}")
    lines.append(f"   {'metric':<34} {'value':>12} {'unit':<10} "
                 f"{'n':>3} {'q1':>12} {'q3':>12}")
    for name, unit in END_TO_END.items():
        values = result["samples"][name]
        q1, q3 = _quartiles(values)
        lines.append(f"   {name:<34} {statistics.median(values):>12.6g} "
                     f"{unit:<10} {len(values):>3} {q1:>12.6g} {q3:>12.6g}")
    ratio = result["failed"] / result["attempted"]
    lines.append(f"   {'fail_ratio':<34} {ratio:>12.6g} {'1':<10} "
                 f"{result['attempted']:>3}   ({result['failed']} failed of "
                 f"{result['attempted']} runs)")
    if trace:
        for name, (unit, _) in PER_LAYER.items():
            lines.append(f"   {name:<34} "
                         f"{result['per_layer'][name]:>12.6g} {unit}")
        lines.append(f"   traced wall {result['traced_wall_s']:.6g} s, "
                     f"runner.scenario.*.s sum "
                     f"{result['scenario_sum_s']:.6g} s, spans in "
                     f"{result['spans_file']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark solitonlab scenario runs.")
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30,
                        help="measure this long per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes: propagate-1d at n=256, "
                             "oracle-3d without its 3D case")
    parser.add_argument("--inject-failure", action="store_true",
                        help="make each workload's first scenario raise")
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    if not (ROOT / "src" / "solitonlab" / "__init__.py").is_file():
        print(f"no solitonlab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        meta = metadata(args.seed, time.monotonic() + DEADLINE_S)
        print("meta " + json.dumps(meta), flush=True)
        results = []
        for name in names:
            result = run_workload(name, args.seed, args.seconds, trace,
                                  args.tiny, args.inject_failure)
            print("\n".join(report_lines(result, trace)), flush=True)
            results.append(result)
    except BenchError as e:
        print(f"benchmark could not run: {e}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    for result in results:
        path = OUT / (f"result-{result['workload']}-seed{args.seed}"
                      f"-trace{args.trace}.json")
        path.write_text(json.dumps({"meta": meta, **result}, indent=1) + "\n")
    if len(results) == 1:
        found = metrics(results[0], trace)
    else:
        found = {f"{r['workload']}.{name}": value for r in results
                 for name, value in metrics(r, trace).items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": found}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
