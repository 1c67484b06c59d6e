"""The functions that the benchmark's tracer times: `TARGETS` of
`bench/tracer.py`, as (module, attribute path) pairs under `leafatlas`.
The one reader of that list for the tests, so that they agree about what
the benchmark calls. Imported by the test modules; pytest does not collect
it.
"""
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def tracer_targets() -> tuple[tuple[str, str], ...]:
    # run from its source, so nothing is installed and no bytecode is written
    return runpy.run_path(str(TRACER))["TARGETS"]
