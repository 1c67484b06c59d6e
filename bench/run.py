"""leafatlas benchmark: one closed-loop client, one workload at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0

Run from the repository root. Each pass of a workload runs in a fresh
interpreter (bench/onepass.py), so in-process caches start cold as for a CLI
call, with BLAS and OpenMP pinned to one thread. Passes run one after
another for about S seconds. With --trace 0 the result holds the
end-to-end metrics; with --trace 1 untraced and traced passes alternate and
the result holds the per-layer metrics of the traced passes. Every output
is checked: atlas documents against bench/golden.json, verify batteries by
their own checks. Times are rescaled to reference machine speed by a probe
interleaved with the work (bench/speed.py), because the wall time of the
same pass varies by tens of percent on a shared host; the summary prints the
wall times beside them. The last line printed is the JSON result; see
bench/README.md for the metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from onepass import ROOT, SRC, WORKLOADS, form_labels  # noqa: E402
from tracer import KEYS  # noqa: E402

HARD_LIMIT_S = 170.0  # every run exits well within 180 s
SETUP_PROBES = 5  # set-up-only launches per untraced run, besides one per pass
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"pass_s": "s", "form_s.max": "s", "setup_s": "s",
                    "peak_rss_mib": "MiB"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for key in KEYS:
        units[f"{key}.calls"] = "count"
        units[f"{key}.self_s"] = "s"
    units.update({
        "rootsys.enumerate_weyl.elements": "count",
        "atlas.twisted_involutions.hit_ratio": "ratio",
        "matrixlie.representative_for.found_ratio": "ratio",
        "cli.writers.bytes": "B",
        "trace.overhead_ratio": "ratio",
    })
    return units


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    return env


def warm_up() -> None:
    """Import the package once so that bytecode is compiled before any
    pass is timed. Exits 2 when the sources are missing or do not import."""
    if not os.path.isfile(os.path.join(SRC, "leafatlas", "__init__.py")):
        sys.stderr.write(f"no leafatlas sources under {SRC}\n")
        raise SystemExit(2)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import leafatlas.cli, leafatlas.matrixlie")
    proc = subprocess.run([sys.executable, "-c", code, SRC], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(2)


def launch(workload: str, seed: int, mode: str, timeout: float) -> dict:
    """Start onepass.py in a fresh interpreter; returns its record, or a
    record with `error` set when it failed or ran out of time."""
    launched = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, os.path.join(HERE, "onepass.py"), workload, str(seed),
           mode, str(launched)]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"pass exceeded {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_pass(workload: str, record: dict, golden: dict[str, str]) -> list[str]:
    """Failures of one pass, one line per failed form."""
    labels = form_labels(workload)
    if "error" in record:
        return [f"{label}: {record['error']}" for label in labels]
    forms = {f["label"]: f for f in record["forms"]}
    failures = [f"{label}: not run" for label in labels if label not in forms]
    for label, form in forms.items():
        if form["error"]:
            failures.append(f"{label}: {form['error']}")
        elif "sha256" in form and form["sha256"] != golden.get(label):
            failures.append(f"{label}: JSON differs from the golden document")
        elif form.get("failed_checks"):
            failures.append(f"{label}: failed checks {', '.join(form['failed_checks'])}")
    return failures


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run passes for about `seconds`, alternating untraced and traced passes
    when tracing, and reduce them to the run's metrics. No pass (or pair of
    passes, when tracing) starts that would end after `seconds` if it took as
    long as the previous one, so a run's length stays close to `seconds`; the
    first always runs."""
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    start = time.monotonic()

    def time_left() -> float:
        return max(HARD_LIMIT_S - (time.monotonic() - start), 1.0)

    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = launch(workload, seed, "setup", timeout=time_left())
            if "setup_s" in probe:
                setups.append(probe)
    passes: dict[bool, list[dict]] = {False: [], True: []}
    failures: list[str] = []
    attempted = 0
    began = time.monotonic()
    while True:
        traced = trace and len(passes[True]) < len(passes[False])
        record = launch(workload, seed, "traced" if traced else "plain",
                        timeout=time_left())
        attempted += len(form_labels(workload))
        failures += check_pass(workload, record, golden)
        if "error" in record:
            break
        passes[traced].append(record)
        if trace and len(passes[True]) < len(passes[False]):
            continue
        now = time.monotonic()
        if (now - start) + (now - began) > seconds:
            break
        began = now

    untraced = passes[False]
    form_s = median_form_seconds(untraced)
    end_to_end = {
        "pass_s": sum(form_s.values()),
        "form_s.max": max(form_s.values(), default=0.0),
        "setup_s": _median([p["setup_s"] for p in setups + untraced]),
        "peak_rss_mib": _median([p["peak_rss_mib"] for p in untraced]),
    }
    wall = {
        "pass_s": sum(median_form_seconds(untraced, "wall_s").values()),
        "setup_s": _median([p["setup_wall_s"] for p in setups + untraced]),
    }
    if trace:
        units = per_layer_units()
        traced_pass = passes[True]
        values = {name: _median([p["trace"][name] for p in traced_pass], low=True)
                  for name in units if name != "trace.overhead_ratio"}
        traced_s = sum(median_form_seconds(traced_pass).values())
        values["trace.overhead_ratio"] = (traced_s / end_to_end["pass_s"] - 1
                                          if end_to_end["pass_s"] else 0.0)
    else:
        units = END_TO_END_UNITS
        values = end_to_end
    sample = (untraced + passes[True])[:1]
    return {
        "workload": workload,
        "passes": {"untraced": len(untraced), "traced": len(passes[True])},
        "form_s": form_s,
        "wall": wall,
        "versions": sample[0]["versions"] if sample else {},
        "correct": not failures and bool(untraced),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def median_form_seconds(passes: list[dict], key: str = "seconds") -> dict[str, float]:
    """Each form's median time over the passes, in reference seconds (or
    wall seconds with key="wall_s"). Their sum is the time of a median pass,
    and it is steadier than the median of pass totals, because a burst of
    load on the machine slows one form of a pass, not all of them."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for f in p["forms"]:
            times.setdefault(f["label"], []).append(f[key])
    return {label: statistics.median(v) for label, v in times.items()}


def _median(values: list[float], low: bool = False) -> float:
    """The median, or with `low` the lower median, which is always one of the
    values (a count stays whole); 0 for no values."""
    if not values:
        return 0.0
    return statistics.median_low(values) if low else statistics.median(values)


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def print_summary(result: dict) -> None:
    print(f"workload {result['workload']}: {result['passes']['untraced']} untraced and "
          f"{result['passes']['traced']} traced passes, "
          f"{result['attempted']} forms attempted, {result['failed']} failed")
    for failure in result["failures"][:20]:
        print(f"  FAIL {failure}")
    if result["form_s"]:
        label, seconds = max(result["form_s"].items(), key=lambda item: item[1])
        print(f"  slowest form {label}: {seconds:.6g} s (median over untraced passes)")
    print(f"  wall time, not rescaled: pass {result['wall']['pass_s']:.6g} s, "
          f"set-up {result['wall']['setup_s']:.6g} s")
    for name, metric in result["metrics"].items():
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'fail_ratio':<48} {ratio:>14.6g} ({result['failed']}/{result['attempted']})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must be from 1 to 120")

    warm_up()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results.append(result)
        print(json.dumps({"machine": machine(), "versions": result["versions"],
                          "workload": name, "seed": args.seed}))
        print_summary(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{name}": m
                   for r in results for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
