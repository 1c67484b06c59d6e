"""Command-line front end: atlas generation, numerical verification, catalog
validation, JSON and markdown report serialization.

Exit codes: 0 success, 1 usage error, 2 domain or validation failure, 141
(128 + SIGPIPE) when the reader of stdout closes it before the report ends.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import __version__
from .atlas import (NOTE_OPEN_COUNT, AtlasReport, Record, atlas, catalog_text_hash,
                    class_fields, realizable_candidate)
from .rootsys import RANK_CAP
from .satake import (
    BUILTIN_CATALOG,
    CatalogParseError,
    RealFormData,
    SatakeDiagram,
    SatakeError,
    load_catalog,
    validate,
)

SCHEMA_VERSION = 1
ENV_CATALOG = "LEAFATLAS_CATALOG"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer that a closed pipe ended

#: Thread-count variables of the BLAS and OpenMP runtimes.  `verify` sets
#: each to 1 unless the caller has: its matrices are at most 6 x 6, where
#: extra threads only contend for cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class RunConfig(NamedTuple):
    command: str
    form: str | None = None
    inline: SatakeDiagram | None = None
    output_format: str = "json"
    tolerances: Mapping[str, float] = MappingProxyType({})  # overrides, read-only
    samples: int = 100
    seed: int = 0
    catalog_path: str | None = None
    out_path: str | None = None


def default_tolerances() -> dict[str, float]:
    return {
        "iwasawa": 1e-12,
        "action": 1e-10,
        "formula": 1e-8,
        "hermitian": 1e-8,
        "tangency": 1e-8,
    }


# ---------------------------------------------------------------------------
# catalog resolution

def _resolve_catalog(cfg: RunConfig) -> tuple[tuple[SatakeDiagram, ...], str]:
    """The entries of --catalog, else of $LEAFATLAS_CATALOG, else of the
    shipped file, and the hash of that file's text."""
    path = cfg.catalog_path or os.environ.get(ENV_CATALOG) or BUILTIN_CATALOG
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        entries = load_catalog(text)
    except UnicodeDecodeError as exc:
        raise CatalogParseError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except CatalogParseError as exc:
        raise CatalogParseError(f"{path}: {exc}") from None
    return entries, catalog_text_hash(text)


def _emit(cfg: RunConfig, pieces: Iterable[str]) -> None:
    """Write a report's pieces in turn to stdout, or atomically to --out."""
    if cfg.out_path:
        directory = os.path.dirname(os.path.abspath(cfg.out_path))
        try:
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.writelines(pieces)
                os.replace(tmp, cfg.out_path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
        except OSError as exc:  # name the requested path, not the temporary one
            raise OSError(exc.errno, exc.strerror, cfg.out_path) from None
    else:  # flushed here, so that a closed pipe ends the command (`main`)
        sys.stdout.writelines(pieces)
        sys.stdout.flush()


_BOOL = ("false", "true")
#: the letter i of a Weyl word (`rootsys.Word`) to the ASCII digit i; the byte 0 stays NUL
_DIGITS = bytes.maketrans(bytes(range(1, 10)), b"123456789")
assert RANK_CAP <= 9, "a word letter renders as one digit"
#: a class record's fields (`atlas.class_fields`), after the comma that ends the one before
_ATLAS_RECORD = (',\n    {\n      "a": %d,\n      "codim_Y": %d,\n      "dims_in_range": %s,\n'
                 '      "family_dim": %d,\n      "is_closed_class": %s,\n      "is_open": %s,\n'
                 '      "leaf_codim": %d,\n      "leaf_dim": %d,\n      "parity_ok": %s,\n'
                 '      "psi_word": %s,\n      "t": %d\n    }')
_ATLAS_TAIL = ('\n  ],\n  "command": %s,\n  "flags": {\n    "has_open_leaves": %s\n  },\n'
               '  "form": {\n    "arrows": %s,\n    "black": %s,\n    "dim_g": %d,\n'
               '    "dim_k0": %d,\n    "dim_p0": %d,\n    "dim_x": %d,\n    "family": %s,\n'
               '    "label": %s,\n    "positive_restricted_count": %d,\n    "rank": %d,\n'
               '    "real_rank": %d\n  },\n  "largest_leaf_class": %d,\n  "notes": %s,\n'
               '  "open_class_count_note": %s,\n  "schema_version": %d,\n  "seed": %d,\n'
               '  "tool_version": %s,\n  "w0_word": %s,\n  "wb_word": %s\n}\n')


def _letters(word: Sequence[int]) -> str:
    """A Weyl word, or any sequence of its letters, one digit a letter."""
    return bytes(word).translate(_DIGITS).decode()


def _array(values: Sequence, indent: str) -> str:
    """Ints, or rendered values, as `json.dumps(indent=2)` lists them at indent;
    a str lists its characters (`_letters`)."""
    if not values:
        return "[]"
    sep = ",\n  " + indent
    items = values if isinstance(values, str) else map(str, values)
    return "[" + sep[1:] + sep.join(items) + "\n" + indent + "]"


def _class_texts(rf: RealFormData, classes: Iterable[Record],
                 render: Callable[[dict], str], sep: str) -> Iterator[str]:
    """render(`class_fields`) of each class record. The text is rendered once
    per (codim_Y, a, closed) key, with the word b"\0", and split at the NUL;
    each class joins its letters (`_letters`) by sep between the two parts."""
    texts = {}
    for codim_y, word, a in classes:
        key = codim_y, a, not word
        around = texts.get(key)
        if around is None:
            fields = class_fields(rf, (codim_y, b"\0" if word else b"", a))
            before, _, after = render(fields).partition("\0")
            around = texts[key] = before, after
        yield around[0] + sep.join(word.translate(_DIGITS).decode()) + around[1]


def _record_json(c: dict) -> str:
    return _ATLAS_RECORD % (c["a"], c["codim_Y"], _BOOL[c["dims_in_range"]], c["family_dim"],
                            _BOOL[c["is_closed_class"]], _BOOL[c["is_open"]], c["leaf_codim"],
                            c["leaf_dim"], _BOOL[c["parity_ok"]],
                            _array(_letters(c["psi_word"]), "      "), c["t"])


def _atlas_json(doc: dict) -> Iterator[str]:
    """An atlas document as `json.dumps(doc, sort_keys=True, indent=2)` plus a
    newline writes it, each class record as its fields, in pieces: the head
    with the first record (no comma before it), each further record, the tail.
    Every string goes through `json.dumps`, so its escaping is the encoder's."""
    records = _class_texts(doc["real_form"], doc["classes"], _record_json, ",\n        ")
    yield ('{\n  "catalog_hash": %s,\n  "classes": [' % json.dumps(doc["catalog_hash"])
           + next(records)[1:])
    yield from records
    form = doc["form"]
    yield _ATLAS_TAIL % (
        json.dumps(doc["command"]), _BOOL[doc["flags"]["has_open_leaves"]],
        _array([_array(pair, "      ") for pair in form["arrows"]], "    "),
        _array(form["black"], "    "), form["dim_g"], form["dim_k0"], form["dim_p0"],
        form["dim_x"], json.dumps(form["family"]), json.dumps(form["label"]),
        form["positive_restricted_count"], form["rank"], form["real_rank"],
        doc["largest_leaf_class"], _array([json.dumps(note) for note in doc["notes"]], "  "),
        json.dumps(doc["open_class_count_note"]), doc["schema_version"], doc["seed"],
        json.dumps(doc["tool_version"]), _array(_letters(doc["w0_word"]), "  "),
        _array(_letters(doc["wb_word"]), "  "))


def _json_dumps(doc: dict) -> str:
    """`json.dumps(doc, sort_keys=True, indent=2)` plus a newline, in strict
    JSON. An atlas document is rendered from its templates (`_atlas_json`)."""
    if doc.get("command") == "atlas":
        return "".join(_atlas_json(doc))
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# atlas command

def _form_doc(report: AtlasReport) -> dict:
    rf = report.form
    sd = rf.diagram
    return {
        "label": sd.label,
        "family": sd.family,
        "rank": sd.rank,
        "black": sorted(sd.black),
        "arrows": [list(p) for p in sorted(sd.arrows)],
        "dim_g": rf.dim_g,
        "dim_k0": rf.dim_k0,
        "dim_p0": rf.dim_p0,
        "dim_x": rf.dim_x,
        "real_rank": rf.real_rank,
        "positive_restricted_count": rf.dim_p0 - rf.real_rank,
    }


def atlas_document(report: AtlasReport, seed: int) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": "atlas",
        "seed": seed,
        "catalog_hash": report.catalog_hash,
        "form": _form_doc(report),
        "w0_word": report.form.w0.word,
        "wb_word": report.form.w_b.word,
        "classes": report.classes,
        "real_form": report.form,  # reads the records (`class_fields`); not written
        "flags": {"has_open_leaves": report.has_open_leaves},
        "largest_leaf_class": report.largest_leaf_class,
        "open_class_count_note": NOTE_OPEN_COUNT,
        "notes": list(report.notes),
    }


def _markdown_row(c: dict) -> str:
    word = c["psi_word"]
    return "| %s | %d | %d | %d | %d | %d | %d | %s | %s | %s |\n" % (
        "s" + " s".join(_letters(word)) if word else "e", c["codim_Y"], c["a"], c["t"],
        c["leaf_dim"], c["leaf_codim"], c["family_dim"], "*" if c["is_open"] else "",
        "*" if c["is_closed_class"] else "", "yes" if realizable_candidate(c) else "FLAGGED")


def _atlas_md(report: AtlasReport) -> Iterator[str]:
    """The markdown atlas in pieces: the head, each class's row, the notes."""
    rf = report.form
    yield (f"# Leaf atlas: {report.label}\n\n"
           f"- type: {rf.diagram.family}{rf.diagram.rank}, black={sorted(rf.diagram.black)}, "
           f"arrows={sorted(rf.diagram.arrows)}\n"
           f"- dim g = {rf.dim_g}, dim k0 = {rf.dim_k0}, dim X = {rf.dim_x}, "
           f"real rank = {rf.real_rank}\n"
           f"- open leaves: {'yes' if report.has_open_leaves else 'no'}\n\n"
           "| psi word | codim_Y | a | t | leaf dim | leaf codim | family dim | open | closed "
           "| ok |\n|---|---|---|---|---|---|---|---|---|---|\n")
    yield from _class_texts(rf, report.classes, _markdown_row, " s")
    yield "\n" + "".join(f"> {note}\n" for note in report.notes)


def atlas_markdown(report: AtlasReport) -> str:
    return "".join(_atlas_md(report))


def _catalog_form(entries: Sequence[SatakeDiagram], label: str | None) -> SatakeDiagram | None:
    """The entry labelled label, or None after listing the labels there are."""
    by_label = {e.label: e for e in entries}
    if label not in by_label:
        sys.stderr.write(f"unknown form {label!r}; available: "
                         + ", ".join(sorted(by_label)) + "\n")
    return by_label.get(label)


def cmd_atlas(cfg: RunConfig) -> int:
    entries, cat_hash = _resolve_catalog(cfg)
    sd = cfg.inline or _catalog_form(entries, cfg.form)
    if sd is None:
        return EXIT_USAGE
    report_v = validate(sd)
    if not report_v.passed:
        sys.stderr.write(f"form {sd.label} failed validation:\n")
        for c in report_v.failures():
            sys.stderr.write(f"  {c.name}: {c.detail}\n")
        return EXIT_DOMAIN
    report = atlas(sd, catalog_hash=cat_hash)
    _emit(cfg, _atlas_md(report) if cfg.output_format == "md"
          else _atlas_json(atlas_document(report, cfg.seed)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify command

def _check(name: str, value: float, tolerance: float, info: str = "") -> dict:
    return {
        "name": name,
        "value": value,
        "tolerance": tolerance,
        "passed": bool(value <= tolerance),
        "info": info,
    }


def _check_exact(name: str, ok: bool, info: str = "") -> dict:
    return _check(name, 0.0 if ok else 1.0, 0.0, info)


def run_verify_battery(sd: SatakeDiagram, cfg: RunConfig) -> dict:
    """The full numerical check battery for one realized form."""
    from . import matrixlie as ml

    rf = ml.realization(sd.label)
    tol = default_tolerances()
    tol.update(cfg.tolerances)
    report = atlas(sd)
    rfe = report.form
    seed = cfg.seed
    samples = cfg.samples
    checks: list[dict] = []

    cart = ml.cartan_consistency(rf)
    for key, info in (
            ("tau_sq", "tau's integer matrix on basis_u squares to 1"),
            ("commute", "tau is its integer matrix on the integer su(n) basis, entry for "
                        "entry: it preserves su(n), so it commutes with theta")):
        checks.append(_check(f"cartan_{key}", cart[key], 0.0, info))
    checks.append(_check_exact(
        "tau_root_compatibility",
        ml.tau_root_action(rf) == sd.root_system().permutations.images(rfe.tau_star),
        "concrete conjugation induces the catalog involution",
    ))
    ann, fixed, both = ml.annihilator_check(rf)
    checks.append(_check_exact(
        "annihilator_dims", ann == fixed == both == rfe.dim_p0,
        f"dim A, dim F, dim (A & F) = {ann}/{fixed}/{both} vs dim_p0 = {rfe.dim_p0}, "
        "A the annihilator of k0 in a+n under Im kappa and F = (a+n)^tau, by exact ranks"))

    checks.append(_check("iwasawa_roundtrip", ml.iwasawa_residual(rf, samples, seed),
                         tol["iwasawa"]))
    checks.append(_check("action_axiom",
                         ml.action_residual(rf, max(samples // 2, 10), seed + 1),
                         tol["action"]))

    mcybe, coisotropic, invariance = ml.poisson_identities(rf)
    checks.append(_check(
        "t_invariance", invariance, 0.0,
        f"lam is ad-invariant under the {rf.n - 1} generators of the torus, in integers"))
    checks.append(_check(
        "mcybe", mcybe, 0.0,
        f"[lam, lam] is ad-invariant under X and Y of the {rf.n - 1} simple roots, "
        "in integers"))
    checks.append(_check(
        "k0_coisotropic", coisotropic, 0.0,
        f"ad_X lam lies in k0 ^ u for every X of basis_k0 (dim k0 = {rf.dim_k0}), "
        "in integers"))

    max_rank, n_borderline = ml.max_sampled_rank(rf, n_samples=max(samples, 50), seed=seed + 5)
    largest = class_fields(rfe, report.classes[report.largest_leaf_class])
    expected_rank = rfe.dim_p0 - largest["leaf_codim"]
    checks.append(_check_exact(
        "rank_vs_atlas", max_rank == expected_rank,
        f"max sampled rank {max_rank}, atlas ceiling {expected_rank}, "
        f"{n_borderline} borderline samples",
    ))

    tangency, n_borderline = ml.leaf_tangency_residual(rf, 5, seed + 6)
    checks.append(_check("leaf_tangency", tangency, tol["tangency"],
                         f"{n_borderline} borderline samples"))

    if rf.kind == "sl_real" and rf.n == 2:
        checks.append(_check("example_formula", ml.formula_residual(rf, samples, seed + 7),
                             tol["formula"], "relative to the derived 1/8 amplitude"))

    if rf.kind == "su_pq":
        fit1 = ml.hermitian_fit(rf, n_samples=samples, seed=seed + 8)
        fit2 = ml.hermitian_fit(rf, n_samples=samples, seed=seed + 9)
        checks.append(_check("hermitian_fit_residual", fit1.max_residual,
                             tol["hermitian"], f"b = {fit1.b!r}"))
        checks.append(_check("hermitian_fit_stability", abs(fit1.b - fit2.b),
                             tol["hermitian"]))

    realized, reps = [], []
    for record in report.classes:
        u = ml.representative_for(rf, record[1])  # the class's psi_word
        if u is not None:
            realized.append(class_fields(rfe, record))
            reps.append(u)
    dims, dims_torus, n_borderline = ml.stabilizer_dim(rf, reps)
    found, total = len(realized), len(report.classes)
    matched = sum(d == cls["a"] + cls["codim_Y"] and dt == cls["t"] + cls["a"] + cls["codim_Y"]
                  for cls, d, dt in zip(realized, dims, dims_torus))
    checks.append(_check_exact(
        "stabilizer_dims", matched == found,
        f"{matched}/{found} matched of {total} classes ({total - found} unrealizable), "
        f"{n_borderline} borderline representatives",
    ))

    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": "verify",
        "seed": seed,
        "samples": samples,
        "form": _form_doc(report),
        "tolerances": {k: tol[k] for k in sorted(tol)},
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def verify_markdown(doc: dict) -> str:
    lines = [
        f"# Verification: {doc['form']['label']}",
        "",
        f"- seed {doc['seed']}, {doc['samples']} samples",
        f"- overall: {'PASS' if doc['passed'] else 'FAIL'}",
        "",
        "| check | value | tolerance | result |",
        "|---|---|---|---|",
    ]
    for c in doc["checks"]:
        lines.append(
            f"| {c['name']} | {c['value']:.3e} | {c['tolerance']:.1e} | "
            f"{'pass' if c['passed'] else 'FAIL'} |"
        )
    return "\n".join(lines) + "\n"


def cmd_verify(cfg: RunConfig) -> int:
    sd = _catalog_form(_resolve_catalog(cfg)[0], cfg.form)
    if sd is None:
        return EXIT_USAGE
    for name in THREAD_VARS:  # read by the BLAS runtime when numpy loads
        os.environ.setdefault(name, "1")
    from . import matrixlie as ml

    try:
        realized = ml.realization(sd.label).diagram
    except ml.RealizationError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_DOMAIN
    if sd.describe() != realized.describe():
        sys.stderr.write(f"{sd.label}: the catalog gives {sd.describe()}, but the realized "
                         f"{sd.label} has {realized.describe()}\n")
        return EXIT_DOMAIN
    doc = run_verify_battery(sd, cfg)
    _emit(cfg, [verify_markdown(doc) if cfg.output_format == "md" else _json_dumps(doc)])
    return EXIT_OK if doc["passed"] else EXIT_DOMAIN


# ---------------------------------------------------------------------------
# catalog command

def cmd_catalog(cfg: RunConfig) -> int:
    entries, cat_hash = _resolve_catalog(cfg)
    if not entries:
        sys.stderr.write("warning: catalog is empty\n")
    rows = []
    for sd in entries:
        rep = validate(sd)
        rows.append({
            "label": sd.label,
            "type": f"{sd.family}{sd.rank}",
            "passed": rep.passed,
            "failed_checks": [c.name for c in rep.failures()],
        })
    all_ok = all(r["passed"] for r in rows)
    if cfg.output_format == "md":
        _emit(cfg, ["| label | type | result | failures |\n|---|---|---|---|\n"] + [
            f"| {r['label']} | {r['type']} | {'pass' if r['passed'] else 'FAIL'} | "
            f"{', '.join(r['failed_checks'])} |\n" for r in rows])
    else:
        _emit(cfg, [_json_dumps({
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "command": "catalog",
            "seed": cfg.seed,
            "catalog_hash": cat_hash,
            "entries": rows,
            "passed": all_ok,
        })])
    return EXIT_OK if all_ok else EXIT_DOMAIN


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse exits 2 by default; we use 1
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _parse_tol(items: Sequence[str]) -> dict[str, float]:
    known = default_tolerances()
    out = {}
    for item in items:
        if "=" not in item:
            raise ValueError(f"expected NAME=VALUE, got {item!r}")
        name, _, value = item.partition("=")
        name = name.strip()
        if name not in known:
            raise ValueError(
                f"unknown tolerance {name!r}; known: {', '.join(sorted(known))}"
            )
        try:
            tol = float(value)
        except ValueError:
            tol = math.nan
        if not 0 <= tol < math.inf:  # NaN fails this too
            raise ValueError(
                f"tolerance {name!r} must be a number at least 0, got {value.strip()!r}")
        out[name] = tol
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="leafatlas", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "md"), default="json")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--catalog", help=f"catalog file (or ${ENV_CATALOG})")
    common.add_argument("--out", help="write the report to this path atomically")

    pa = sub.add_parser("atlas", parents=[common], help="leaf stratification report")
    pa.add_argument("--form", help="catalog label, e.g. sl(2,R)")
    pa.add_argument("--type", dest="cartan_type", help="inline diagram type, e.g. A2")
    pa.add_argument("--rank")
    pa.add_argument("--black")
    pa.add_argument("--arrows")
    pa.add_argument("--label", help="label for an inline diagram")

    pv = sub.add_parser("verify", parents=[common], help="numerical verification")
    pv.add_argument("--form", required=True)
    pv.add_argument("--samples", type=int, default=100)
    pv.add_argument("--tol", action="append", default=[],
                    metavar="NAME=VALUE", help="tolerance override, repeatable")

    sub.add_parser("catalog", parents=[common], help="validate the catalog")
    return parser


def _inline_diagram(args: argparse.Namespace) -> SatakeDiagram | None:
    """The diagram given by --type and its companion flags, or None without
    --type. Raises ValueError for flags that cannot be combined."""
    given = [f"--{n}" for n in ("rank", "black", "arrows", "label") if getattr(args, n) is not None]
    if not args.cartan_type:
        if given:
            raise ValueError(f"{', '.join(given)} only describe an inline --type diagram")
        return None
    if args.form is not None:
        raise ValueError("give either --form or an inline --type diagram, not both")
    from .satake import _parse_arrow_set, _parse_node_set, _parse_type

    family, rank = _parse_type(args.cartan_type, args.rank, keys=("--type ", "--rank "))
    black = _parse_node_set("{}" if args.black is None else args.black)
    arrows = _parse_arrow_set("{}" if args.arrows is None else args.arrows)
    label = args.label or f"custom({family}{rank})"
    return SatakeDiagram(label=label, family=family, rank=rank,
                         black=black, arrows=arrows)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        tolerances = _parse_tol(getattr(args, "tol", []))
    except ValueError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_USAGE
    if getattr(args, "samples", 1) < 1:
        sys.stderr.write(f"--samples must be at least 1, got {args.samples}\n")
        return EXIT_USAGE
    if args.command == "verify" and args.seed < 0:  # a stream seed is any int >= 0
        sys.stderr.write(f"--seed must be at least 0 for verify, got {args.seed}\n")
        return EXIT_USAGE

    inline = None
    if args.command == "atlas":
        try:
            inline = _inline_diagram(args)
        except ValueError as exc:  # CatalogParseError included
            sys.stderr.write(f"{exc}\n")
            return EXIT_USAGE
        if inline is None and args.form is None:
            sys.stderr.write("atlas needs --form or an inline --type diagram\n")
            return EXIT_USAGE

    cfg = RunConfig(
        command=args.command,
        form=getattr(args, "form", None),
        inline=inline,
        output_format=args.format,
        tolerances=tolerances,
        samples=getattr(args, "samples", 100),
        seed=args.seed,
        catalog_path=args.catalog,
        out_path=args.out,
    )

    try:
        return {"atlas": cmd_atlas, "verify": cmd_verify, "catalog": cmd_catalog}[args.command](cfg)
    except BrokenPipeError:  # `... | head`: the output ends; the flush at exit goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (CatalogParseError, SatakeError, OSError) as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
