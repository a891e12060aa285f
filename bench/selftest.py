"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Runs every workload with --tiny (propagate-1d at n=256, oracle-3d without
its 3D case) and checks that:

- every metric BENCHMARK.json names is printed, with its unit, untraced and
  traced, and fail_ratio is printed per workload;
- a single-workload run prints exactly the end-to-end metrics untraced and
  exactly the per-layer metrics traced;
- the traced run counts 4 transforms per coupled step, and the per-scenario
  spans sum to within 5 % of the traced wall time;
- the same seed gives the same inputs and another seed other inputs;
- a run made to raise (a step above the stability guard) counts in
  fail_ratio and makes the benchmark exit 1;
- in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits non-zero without printing a result.

Exits 1 and lists what failed when any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYERS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
problems: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        problems.append(what)


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "bench/run_bench.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines()


def printed(lines: list[str], workload: str, name: str, unit: str) -> bool:
    """A table row `name value unit ...` under the workload's header."""
    inside = False
    for line in lines:
        if line.startswith("== workload "):
            inside = line.split()[2] == workload
        elif inside:
            cols = line.split()
            if len(cols) >= 3 and cols[0] == name and cols[2] == unit:
                return True
    return False


def main() -> int:
    for trace, table in (("0", {**E2E, "fail_ratio": "1"}), ("1", LAYERS)):
        code, lines = bench("--workload", "all", "--seed", "11",
                            "--seconds", "1", "--trace", trace, "--tiny")
        result = json.loads(lines[-1])
        check(code == 0 and result["correct"] and result["failed"] == 0,
              f"trace {trace}: all workloads pass at tiny sizes")
        for w in WORKLOADS:
            missing = [n for n, u in table.items()
                       if not printed(lines, w, n, u)]
            check(not missing, f"trace {trace}: {w} prints every metric "
                  f"with its unit (missing {missing})")
            units = {n: result["metrics"].get(f"{w}.{n}", {}).get("unit")
                     for n in table if n != "fail_ratio"}
            check(all(units[n] == table[n] for n in units),
                  f"trace {trace}: {w} result carries every metric's unit")

    for trace, names in (("0", E2E), ("1", LAYERS)):
        code, lines = bench("--workload", "propagate-1d", "--seed", "5",
                            "--seconds", "1", "--trace", trace, "--tiny")
        result = json.loads(lines[-1])
        check(set(result) == {"correct", "attempted", "failed", "metrics"}
              and set(result["metrics"]) == set(names),
              f"trace {trace}: single-workload result has exactly the "
              f"{'end-to-end' if trace == '0' else 'per-layer'} metrics")
    layers = json.loads(
        (ROOT / ".bench_out/result-propagate-1d-seed5-trace1.json")
        .read_text())
    per = layers["per_layer"]
    check(per["evolution.steps"] > 0
          and per["spectral.fft.per_step"] == 4.0,
          f"traced coupled run: {per['evolution.steps']} steps, "
          f"{per['spectral.fft.per_step']} transforms per step")
    check(abs(layers["scenario_sum_s"] / layers["traced_wall_s"] - 1) < 0.05,
          "runner.scenario.*.s sums to within 5 % of the traced wall")

    def inputs(seed: str) -> dict:
        out = subprocess.run(
            [sys.executable, "bench/rep.py", "--workload", "propagate-1d",
             "--seed", seed, "--setup-only"], cwd=ROOT, capture_output=True,
            text=True, timeout=120, check=True).stdout.splitlines()[-1]
        return json.loads(out)["inputs"]

    check(inputs("7") == inputs("7") != inputs("8"),
          "inputs repeat for a seed and differ between seeds")

    code, lines = bench("--workload", "propagate-1d", "--seed", "3",
                        "--seconds", "1", "--trace", "0", "--tiny",
                        "--inject-failure")
    result = json.loads(lines[-1])
    ratio = [line for line in lines if line.split()[:1] == ["fail_ratio"]]
    check(code == 1 and not result["correct"]
          and result["failed"] == result["attempted"] > 0
          and ratio and float(ratio[0].split()[1]) == 1.0,
          "a run over the stability guard counts in fail_ratio, exit 1")

    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines = bench("--workload", WORKLOADS[0], "--seed", "1",
                        "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    check(code != 0 and not any(line.startswith("{") for line in lines),
          "without the package the benchmark exits non-zero, no result")

    if problems:
        print(f"{len(problems)} check(s) failed", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
