"""One pass of a benchmark workload, run in a fresh interpreter.

    python3 bench/onepass.py WORKLOAD SEED MODE LAUNCHED_NS

LAUNCHED_NS is the CLOCK_MONOTONIC reading, in nanoseconds, taken by the
parent just before it started this interpreter; set-up time runs from there
until the first form is ready. Every time is recorded twice: as wall time and
rescaled to reference machine speed by the speed probe (bench/speed.py),
which runs from the first statement of `main` until the pass ends. MODE is `plain` or `traced` for a pass, or
`setup` to stop once the forms are ready. The last line printed is one JSON
record of the pass. leafatlas is imported from the `src` directory next
to this benchmark, never from an installed copy.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import os
import platform
import random
import re
import resource
import sys
import time

from speed import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CATALOG = os.path.join(HERE, "catalog.txt")

WORKLOADS = ("atlas-catalog", "atlas-large", "verify-split", "verify-supq")
LARGE_TYPES = ("F4", "D5", "B5")
SPLIT = ("sl(2,R)", "sl(3,R)", "sl(4,R)", "sl(5,R)")
SUPQ = ("su(1,1)", "su(2,1)", "su(3,1)", "su(2,2)", "su(4,1)", "su(3,2)")


def form_labels(workload: str) -> tuple[str, ...]:
    """The labels of a workload's forms in their unshuffled order."""
    if workload == "atlas-catalog":
        with open(CATALOG, encoding="utf-8") as fh:
            return tuple(re.findall(r"^name=([^;]+);", fh.read(), re.M))
    if workload == "atlas-large":
        return tuple(f"custom({t})" for t in LARGE_TYPES)
    if workload == "verify-split":
        return SPLIT
    if workload == "verify-supq":
        return SUPQ
    raise ValueError(f"unknown workload {workload!r}")


def _load_forms(workload: str, seed: int):
    """Resolve the workload's diagrams the way the CLI does; returns the forms
    in run order and the catalog hash. The seed shuffles the atlas workloads;
    the verify workloads pass it to the battery instead."""
    from leafatlas import cli
    from leafatlas.satake import SatakeDiagram

    entries, catalog_hash = cli._resolve_catalog(
        cli.RunConfig(command="atlas", catalog_path=CATALOG))
    by_label = {e.label: e for e in entries}
    if workload == "atlas-large":
        forms = [SatakeDiagram(label=f"custom({t})", family=t[0], rank=int(t[1:]),
                               black=frozenset(), arrows=frozenset())
                 for t in LARGE_TYPES]
    else:
        forms = [by_label[label] for label in form_labels(workload)]
    if workload.startswith("atlas-"):
        random.Random(seed).shuffle(forms)
    return forms, catalog_hash


def run_form(workload: str, sd, catalog_hash: str, seed: int) -> dict:
    """Run one form through the public API as the CLI does. Functions are
    looked up on their modules at call time, so an installed tracer sees
    them. Returns the output to check: the JSON document of an atlas form, or
    the names of the failed checks of a verify battery."""
    from leafatlas import cli, satake

    atlas_mod = importlib.import_module("leafatlas.atlas")
    if workload.startswith("verify-"):
        doc = cli.run_verify_battery(
            sd, cli.RunConfig(command="verify", form=sd.label, seed=seed))
        return {"failed_checks": [c["name"] for c in doc["checks"] if not c["passed"]]}
    if workload == "atlas-catalog":
        validation = satake.validate(sd)
        if not validation.passed:
            raise ValueError(f"{sd.label} failed validation: "
                             + ", ".join(c.name for c in validation.failures()))
    report = atlas_mod.atlas(sd, catalog_hash=catalog_hash)
    text = cli._json_dumps(cli.atlas_document(report, 0))
    if workload == "atlas-catalog":
        cli.atlas_markdown(report)
    return {"document": text}


def run_pass(workload: str, seed: int, forms, catalog_hash: str, tracer=None,
             probe: SpeedProbe | None = None) -> list[dict]:
    """Time every form of one pass: `wall_s` is its wall time and `seconds`
    the same rescaled to reference speed by `probe` (wall time without one).
    A form that raises is recorded with its error and the pass goes on."""
    records = []
    if tracer is not None:
        tracer.install()
    try:
        for sd in forms:
            start = time.perf_counter()
            try:
                out = run_form(workload, sd, catalog_hash, seed)
                error = None
            except Exception as exc:  # a failed form is a result, not a crash
                out, error = {}, f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            seconds = probe.reference_seconds(start, end) if probe else end - start
            record = {"label": sd.label, "seconds": seconds, "wall_s": end - start,
                      "error": error}
            if "document" in out:
                record["sha256"] = hashlib.sha256(out["document"].encode("utf-8")).hexdigest()
            else:
                record["failed_checks"] = out.get("failed_checks", [])
            records.append(record)
    finally:
        if tracer is not None:
            tracer.restore()
    return records


def main(argv: list[str]) -> int:
    probe = SpeedProbe().start()
    workload, seed, mode, launched_ns = argv[0], int(argv[1]), argv[2], int(argv[3])
    launched = launched_ns / 1e9  # perf_counter is CLOCK_MONOTONIC on Linux
    sys.path.insert(0, SRC)
    import leafatlas

    if not os.path.abspath(leafatlas.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"leafatlas imported from {leafatlas.__file__}, not {SRC}")
    forms, catalog_hash = _load_forms(workload, seed)
    ready = time.perf_counter()
    setup = {"setup_s": probe.reference_seconds(launched, ready),
             "setup_wall_s": ready - launched}
    if mode == "setup":
        probe.stop()
        print(json.dumps(setup))
        return 0

    tracer = None
    if mode == "traced":
        sys.path.insert(0, HERE)
        from tracer import Tracer

        tracer = Tracer()
    records = run_pass(workload, seed, forms, catalog_hash, tracer, probe)
    probe.stop()

    import numpy
    import scipy

    print(json.dumps({
        **setup,
        "forms": records,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "trace": tracer.metrics() if tracer is not None else None,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
