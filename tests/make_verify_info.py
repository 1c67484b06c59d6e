"""Write `tests/verify_info.json`, the table that
`test_cli.py::test_verify_battery_passes_on_every_realized_form` pins: each
verify row's (name, tolerance, info) on the ten realized forms at seeds 0
and 1.  The fitted b of the Hermitian row moves at roundoff, so its info is
written as its prefix "b = …" (`test_cli._pinned_info`).

Run from the repository root after a change to verify's rows:

    python tests/make_verify_info.py

pytest does not collect it.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from leafatlas.cli import RunConfig, run_verify_battery  # noqa: E402
from leafatlas.satake import builtin_catalog  # noqa: E402

LABELS = ("sl(2,R)", "sl(3,R)", "sl(4,R)", "sl(5,R)",
          "su(1,1)", "su(2,1)", "su(3,1)", "su(2,2)", "su(4,1)", "su(3,2)")
SEEDS = (0, 1)


def pinned_info(check: dict) -> str:
    return "b = …" if check["name"] == "hermitian_fit_residual" else check["info"]


def table_text() -> str:
    """The table as the file holds it: one row of a form and seed per line."""
    by_label = {sd.label: sd for sd in builtin_catalog()}
    entries = []
    for label in LABELS:
        for seed in SEEDS:
            doc = run_verify_battery(by_label[label], RunConfig(command="verify", seed=seed))
            rows = ",\n".join("    " + json.dumps([c["name"], c["tolerance"], pinned_info(c)],
                                                  ensure_ascii=False)
                              for c in doc["checks"])
            entries.append(f"  {json.dumps(f'{label} seed {seed}')}: [\n{rows}\n  ]")
    return "{\n" + ",\n".join(entries) + "\n}\n"


if __name__ == "__main__":
    (HERE / "verify_info.json").write_text(table_text(), encoding="utf-8")
