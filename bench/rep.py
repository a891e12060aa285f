"""One repetition of a workload, in a fresh interpreter.

    python3 bench/rep.py --workload NAME --seed N --out DIR [--trace]
    python3 bench/rep.py --workload NAME --seed N --setup-only
    python3 bench/rep.py --probe

A repetition imports solitonlab from the checkout's src/, builds the
workload's configs, runs each scenario through runner.run_scenario into DIR,
and checks every run. It prints one JSON object as its last line of output.
--setup-only stops after the configs are built. --probe prints the run
metadata that needs numpy, scipy and the BLAS library loaded. Exits 2 when
solitonlab cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

from workloads import EVOLVING, build

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def import_package():
    sys.path.insert(0, str(SRC))
    try:
        import solitonlab
    except ImportError as e:
        print(f"cannot import solitonlab from {SRC}: {e}", file=sys.stderr)
        sys.exit(2)
    if not Path(solitonlab.__file__).resolve().is_relative_to(SRC):
        print(f"solitonlab was imported from {solitonlab.__file__}, not "
              f"from {SRC}", file=sys.stderr)
        sys.exit(2)
    return solitonlab


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, None when not found."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads",
                    "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def probe() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration", ""),
            "blas_threads": _blas_threads(),
            "thread_env": {k: os.environ[k] for k in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS") if k in os.environ}}


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _verdict(config, out: Path, report, error: str | None) -> dict:
    """A run fails if it raised, did not pass, carries no criterion checks,
    evolves but took no step, or left a report.json that disagrees."""
    row = {"scenario": config.scenario, "error": error, "checks": [],
           "steps": 0, "reasons": []}
    if error is not None:
        row["reasons"].append(f"raised {error}")
    else:
        row["steps"] = report.step_count
        row["checks"] = [{"criterion": c.criterion,
                          "description": c.description, "value": c.value,
                          "comparison": c.comparison,
                          "threshold": c.threshold, "passed": c.passed}
                         for c in report.checks]
        if not report.passed:
            row["reasons"].append("report is not passed")
        if not report.checks:
            row["reasons"].append("no criterion checks")
        if config.scenario in EVOLVING and report.step_count == 0:
            row["reasons"].append("evolving scenario took 0 steps")
        try:
            status = json.loads((out / "report.json").read_text())["status"]
        except (OSError, ValueError, KeyError) as e:
            status = f"unreadable ({type(e).__name__})"
        if status != "passed":
            row["reasons"].append(f"report.json status is {status!r}")
    row["passed"] = not row["reasons"]
    return row


def repetition(args) -> dict:
    # set-up: the package import (numpy and scipy included) and the configs
    t_start = time.perf_counter()
    pkg = import_package()
    t_import = time.perf_counter()
    configs, inputs = build(args.workload, args.seed, tiny=args.tiny,
                            inject_failure=args.inject_failure)
    t_setup = time.perf_counter()
    result = {"setup_s": t_setup - t_start, "import_s": t_import - t_start,
              "config_s": t_setup - t_import, "inputs": inputs}
    if args.setup_only:
        return result

    from solitonlab import runner
    tracer = None
    if args.trace:
        from tracing import SCENARIOS, Tracer
        tracer = Tracer()
        tracer.install()
    out_root = Path(args.out)
    runs = []
    t_first = time.perf_counter()
    for i, config in enumerate(configs):
        out = out_root / f"{i}-{config.scenario}"
        try:
            if tracer is None:
                report = runner.run_scenario(config, out_dir=out)
            else:
                report = tracer.call("runner.run_scenario",
                                     runner.run_scenario, config,
                                     out_dir=out, tag=config.scenario)
        except Exception as e:  # noqa: BLE001 - every failure is counted
            runs.append((config, out, None, f"{type(e).__name__}: {e}"))
        else:
            runs.append((config, out, report, None))
    t_last = time.perf_counter()
    result["wall_s"] = t_last - t_first
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["threads"] = len(os.listdir("/proc/self/task"))
    result["runs"] = [_verdict(*run) for run in runs]

    if tracer is not None:
        tracer.uninstall()
        layers = tracer.per_layer()
        layers["init.import_s"] = result["import_s"]
        layers["config.build_s"] = result["config_s"]
        layers.update(_direct_warm(pkg, tracer, result))
        size = _dir_bytes(out_root)
        layers["artifacts.bytes"] = size
        layers["artifacts.mb_per_s"] = \
            size / 1e6 / layers["artifacts.write_s"] \
            if layers["artifacts.write_s"] else 0.0
        result["per_layer"] = layers
        result["scenario_sum_s"] = sum(layers[f"runner.scenario.{s}.s"]
                                       for s in SCENARIOS)
        spans_path = out_root / "spans.json"
        spans_path.write_text(json.dumps(
            {"fields": ["name", "parent", "start", "end", "scenario"],
             "spans": tracer.spans}))
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    return result


def _direct_warm(pkg, tracer, result: dict) -> dict:
    """Repeat the largest direct-quadrature call on the same grid and
    source: the weights are cached by then, so this times the apply only."""
    if tracer.direct_largest is None:
        return {"spectral.direct.cold_s": 0.0, "spectral.direct.warm_s": 0.0,
                "spectral.direct.madds": 0, "spectral.direct.gmadd_per_s": 0.0}
    import numpy as np
    points, call_args, cold_out, cold_s = tracer.direct_largest
    start = time.perf_counter()
    warm_out = pkg.spectral.yukawa_convolve_direct(*call_args)
    warm_s = time.perf_counter() - start
    result["direct_warm_matches_cold"] = bool(np.array_equal(warm_out,
                                                             cold_out))
    madds = points * points
    return {"spectral.direct.cold_s": cold_s,
            "spectral.direct.warm_s": warm_s,
            "spectral.direct.madds": madds,
            "spectral.direct.gmadd_per_s": madds / warm_s / 1e9}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--inject-failure", action="store_true")
    args = parser.parse_args()
    if args.probe:
        import_package()
        result = probe()
    else:
        result = repetition(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
