"""`src` holds only what a command runs: the commands run in a fresh
interpreter under `sys.setprofile`, and every `def` of the package that no
run enters fails the test, apart from the public API (the module-level
functions of `leafatlas.__all__`), the functions that the benchmark's tracer
times, and `KEPT`. New code then arrives with a caller."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import leafatlas

from tracer_targets import tracer_targets

PACKAGE = Path(leafatlas.__file__).resolve().parent

# the exported type's identity: no command compares or hashes a WeylElement,
# but `leafatlas.__all__` exports the type with its equality
KEPT = {("rootsys", "WeylElement.__eq__"), ("rootsys", "WeylElement.__ne__"),
        ("rootsys", "WeylElement.__hash__")}

# runs every command under a profile hook and prints the (module, first line,
# name) of each package code object it entered; argv[1] is the package
# directory and each further argument one command line, as JSON
PROFILE_RUNS = """
import contextlib, io, json, os, sys
package, entered = sys.argv[1], set()

def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(hook)
import leafatlas.cli as cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(json.loads(argv)) for argv in sys.argv[2:]]
sys.setprofile(None)
print(json.dumps(codes))
print(json.dumps(sorted({(os.path.basename(c.co_filename)[:-3], c.co_firstlineno, c.co_name)
                         for c in entered if os.path.dirname(c.co_filename) == package})))
"""


def defined_functions():
    """Every def in the package: its (module, first line, name), the line and
    name as its code object gives them (`co_firstlineno` is the line of the
    first decorator), mapped to its (module, qualified name)."""
    out = {}

    def visit(module, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                out[module, first, child.name] = (module, prefix + child.name)
                visit(module, child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(module, child, f"{prefix}{child.name}.")
            else:
                visit(module, child, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(path.stem, ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def exported_functions():
    out = set()
    for name in leafatlas.__all__:
        obj = getattr(leafatlas, name)
        if callable(obj) and not isinstance(obj, type):
            out.add((obj.__module__.rsplit(".", 1)[-1], obj.__qualname__))
    return out


def test_every_function_in_src_is_reached_by_a_command(tmp_path):
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    good.write_text("name=su(3,1); type=A3; black={2}; arrows={(1,3)}\n", encoding="utf-8")
    bad.write_text("name=x; type=A3; color=red\n", encoding="utf-8")
    runs = [["atlas", "--form", label, "--format", fmt]
            for label in ("sl(2,R)", "su(3,1)", "so(4,1)", "sp(2,1)") for fmt in ("json", "md")]
    runs += [["atlas", "--type", "A3", "--black", "{2}", "--arrows", "{(1,3)}",
              "--label", "x", "--format", "md"],
             ["catalog"], ["catalog", "--format", "md"],
             ["atlas", "--form", "su(2,1)", "--out", str(tmp_path / "out.json")],
             ["catalog", "--catalog", str(good)]]
    runs += [["verify", "--form", label, "--format", fmt]
             for label in ("sl(2,R)", "su(2,1)") for fmt in ("json", "md")]
    runs += [["catalog", "--catalog", str(bad)], ["atlas", "--format", "xml"]]
    env = {k: v for k, v in os.environ.items() if k != "LEAFATLAS_CATALOG"}
    env["PYTHONPATH"] = str(PACKAGE.parent)
    proc = subprocess.run(
        [sys.executable, "-c", PROFILE_RUNS, str(PACKAGE), *map(json.dumps, runs)],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    codes, entered = map(json.loads, proc.stdout.splitlines())
    assert codes == [0] * (len(runs) - 2) + [2, 1]  # the error paths fail as they should
    defined = defined_functions()
    reached = {defined[m, line, name] for m, line, name in entered if (m, line, name) in defined}
    exempt = exported_functions() | set(tracer_targets()) | KEPT
    assert KEPT <= set(defined.values())
    unreached = sorted(set(defined.values()) - reached - exempt)
    assert unreached == [], "no command reaches " + ", ".join(f"{m}.{q}" for m, q in unreached)
