import argparse
import gc
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from leafatlas.atlas import atlas, class_fields, realizable_candidate
from leafatlas.cli import (
    ENV_CATALOG,
    SAMPLES,
    THREAD_VARS,
    RunConfig,
    _json_dumps,
    _letters,
    atlas_document,
    atlas_markdown,
    build_parser,
    main,
    run_verify_battery,
)
from leafatlas.rootsys import RANK_CAP
from leafatlas.satake import builtin_catalog, sl_real_diagram, su_pq_diagram

import catalog_reference as cr


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# atlas

def test_atlas_json_sl2(capsys):
    code, out, _ = run(capsys, "atlas", "--form", "sl(2,R)")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["seed"] == 0
    assert doc["flags"]["has_open_leaves"] is True
    assert len(doc["classes"]) == 2
    open_cls = [c for c in doc["classes"] if c["is_open"]]
    assert open_cls == [{
        "psi_word": [1], "codim_Y": 0, "a": 0, "t": 1, "leaf_dim": 2,
        "leaf_codim": 0, "family_dim": 0, "is_open": True,
        "is_closed_class": False, "parity_ok": True, "dims_in_range": True,
    }]
    assert any("contractible" in n for n in doc["notes"])


def test_atlas_unknown_form_lists_labels(capsys):
    code, out, err = run(capsys, "atlas", "--form", "nosuch")
    assert code == 1
    assert "sl(2,R)" in err and "su(2,1)" in err
    assert out == ""


@pytest.mark.parametrize("argv,message", [
    ([], "atlas needs --form or an inline --type diagram\n"),
    (["--form", ""], "unknown form ''; available: "),
])
def test_atlas_without_a_form(capsys, argv, message):
    code, out, err = run(capsys, "atlas", *argv)
    assert code == 1 and out == ""
    assert err.startswith(message) and (argv == [] or "sl(2,R)" in err)


def test_atlas_inline_diagram_markdown(capsys):
    code, out, _ = run(
        capsys, "atlas", "--type", "A2", "--arrows", "{(1,2)}", "--format", "md"
    )
    assert code == 0
    assert out.count("| s") + out.count("| e") == 4  # four classes
    assert "open leaves: yes" in out


def test_atlas_inline_invalid_diagram(capsys):
    # black node 1 alone is not a Satake diagram of A2 or G2: white node 2
    # pairs to a half-integer with rho_X^v
    for cartan_type in ("A2", "G2"):
        code, out, err = run(capsys, "atlas", "--type", cartan_type, "--black", "{1}")
        assert code == 2 and out == ""
        assert f"involution: custom({cartan_type}): white node 2 has no arrow" in err


def test_atlas_inline_needs_rank(capsys):
    code, out, err = run(capsys, "atlas", "--type", "A")
    assert code == 1 and out == ""
    assert err == "missing rank (use --type A2 or --rank 2)\n"


def test_atlas_inline_rank_must_agree_with_type(capsys):
    code, out, err = run(capsys, "atlas", "--type", "A2", "--rank", "5")
    assert code == 1 and out == ""
    assert err == "--rank 5 disagrees with --type A2\n"
    assert run(capsys, "atlas", "--type", "A2", "--rank", "2")[0] == 0
    assert run(capsys, "atlas", "--type", "A", "--rank", "2")[0] == 0


@pytest.mark.parametrize("stanza,message", [
    ("name=x; type=A", "line 1: missing rank (use type=A2 or rank=2)"),
    ("name=x; type=A2; rank=3", "line 1: rank=3 disagrees with type=A2"),
    ("name=; type=A2; black={}; arrows={}", "line 1: empty name"),
])
def test_catalog_file_type_errors_keep_the_key_wording(tmp_path, capsys, stanza, message):
    path = tmp_path / "catalog.txt"
    path.write_text(stanza + "\n")
    code, out, err = run(capsys, "catalog", "--catalog", str(path))
    assert code == 2 and out == ""
    assert err == f"{path}: {message}\n"


@pytest.mark.parametrize("stanza,message", [
    ("name=x; type=A3; black={+2}", "line 1: bad node set '{+2}'"),
    ("name=x; type=A3; black={1_0}", "line 1: bad node set '{1_0}'"),
    ("name=x; type=A; rank=+2", "line 1: bad rank '+2'"),
])
def test_catalog_numbers_are_ascii_digits(tmp_path, capsys, stanza, message):
    # int() would take a sign, an underscore or a non-ASCII digit; an arrow
    # never did, and now no number of the format does
    path = tmp_path / "catalog.txt"
    path.write_text(stanza + "\n")
    for argv in (["catalog"], ["atlas", "--form", "x"]):
        code, out, err = run(capsys, *argv, "--catalog", str(path))
        assert code == 2 and out == ""
        assert err == f"{path}: {message}\n"


@pytest.mark.parametrize("flag,value,message", [
    ("--black", "{+2}", "bad node set '{+2}'"),
    ("--black", "{1_0}", "bad node set '{1_0}'"),
    ("--rank", "+2", "bad rank '+2'"),
    ("--black", "{x}", "bad node set '{x}'"),
    ("--arrows", "{(1,)}", "bad arrow pair '(1,)'"),
    ("--arrows", "{(1,2)(3,4)}", "bad arrow set '{(1,2)(3,4)}'"),
    ("--arrows", "{(1,2),,(3,4)}", "bad arrow set '{(1,2),,(3,4)}'"),
    ("--arrows", "{,(1,2)}", "bad arrow set '{,(1,2)}'"),
    ("--arrows", "{(1,2),}", "bad arrow set '{(1,2),}'"),
])
def test_atlas_inline_parse_error_has_no_line_prefix(capsys, flag, value, message):
    code, out, err = run(capsys, "atlas", "--type", "A3", flag, value)
    assert code == 1 and out == ""
    assert err == message + "\n"


@pytest.mark.parametrize("argv,message", [
    (["--form", "sl(3,R)", "--type", "A1"], "not both"),
    (["--form", "sl(2,R)", "--rank", "5", "--black", "{1}"], "--rank, --black only describe"),
    (["--form", "sl(2,R)", "--arrows", "{}"], "--arrows only describe"),
    (["--form", "sl(2,R)", "--label", "x"], "--label only describe"),
    (["--black", "{}"], "--black only describe"),
])
def test_atlas_inline_flags_need_type_and_no_form(capsys, argv, message):
    code, out, err = run(capsys, "atlas", *argv)
    assert code == 1 and out == ""
    assert message in err


def test_atlas_byte_identical_reruns(capsys):
    _, first, _ = run(capsys, "atlas", "--form", "su(2,1)", "--seed", "5")
    _, second, _ = run(capsys, "atlas", "--form", "su(2,1)", "--seed", "5")
    assert first == second


def test_atlas_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "atlas", "--form", "sl(2,R)", "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["form"]["label"] == "sl(2,R)"


def test_out_into_a_missing_directory_names_the_out_path(tmp_path, capsys):
    target = tmp_path / "nodir" / "report.json"
    code, out, err = run(capsys, "atlas", "--form", "sl(2,R)", "--out", str(target))
    assert code == 2 and out == ""
    assert err == f"[Errno 2] No such file or directory: {str(target)!r}\n"
    assert not (tmp_path / "nodir").exists()


def test_out_onto_an_existing_directory_names_the_out_path(tmp_path, capsys):
    target = tmp_path / "outdir"
    target.mkdir()
    code, out, err = run(capsys, "catalog", "--out", str(target))
    assert code == 2 and out == ""
    assert err == f"[Errno 21] Is a directory: {str(target)!r}\n"
    assert list(tmp_path.iterdir()) == [target] and not list(target.iterdir())


def test_atlas_split_e6_document(capsys, monkeypatch):
    """Split E6 has 892 classes. Its document, pinned by SHA-256, fixes every
    class's psi_word as the lexicographically least reduced word."""
    monkeypatch.delenv(ENV_CATALOG, raising=False)
    code, out, _ = run(capsys, "atlas", "--type", "E6", "--seed", "0")
    assert code == 0
    assert len(json.loads(out)["classes"]) == 892
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "e222ec0926d7825e0d2bac2fedd633124b3f7bda8fef56ff9ef6851f65f6f750"
    )


def test_atlas_split_e7_document(capsys, monkeypatch):
    """Split E7 has 10,208 classes; its document is pinned by SHA-256 like
    split E6's."""
    monkeypatch.delenv(ENV_CATALOG, raising=False)
    code, out, _ = run(capsys, "atlas", "--type", "E7", "--seed", "0")
    assert code == 0
    assert len(json.loads(out)["classes"]) == 10208
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "c5b626248d8efaf82f292d5228c64fc6f11d7b602de6d395deeaa064d4c8fe41"
    )


def test_python_dash_m_runs_from_the_source_tree(capsys, monkeypatch):
    # `python -m leafatlas` needs only the package on the path, no install
    monkeypatch.delenv(ENV_CATALOG, raising=False)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "leafatlas", "atlas", "--form", "sl(2,R)"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert run(capsys, "atlas", "--form", "sl(2,R)") == (0, proc.stdout, "")


@pytest.mark.parametrize("output_format", ["json", "md"])
def test_closed_stdout_ends_the_output_quietly(monkeypatch, output_format):
    # `leafatlas atlas --type E7 | head -1`: the reader closes the pipe after
    # one line, long before the report ends, which exits 141 (128 + SIGPIPE)
    # with nothing on stderr, not 2 with "[Errno 32] Broken pipe"
    monkeypatch.delenv(ENV_CATALOG, raising=False)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "leafatlas", "atlas", "--type", "E7", "--format", output_format],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    with proc.stderr:
        assert proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""


def test_markdown_command_writes_atlas_markdown(capsys, monkeypatch):
    # the command writes the markdown piece by piece; atlas_markdown joins them
    monkeypatch.delenv(ENV_CATALOG, raising=False)
    for argv, sd in ((["--type", "E6"], cr.diagram("custom(E6)", "E", 6)),
                     (["--form", "su(2,1)"], cr.by_label()["su(2,1)"])):
        assert run(capsys, "atlas", *argv, "--format", "md") == (
            0, atlas_markdown(atlas(sd)), "")


@pytest.mark.parametrize("cartan_type", ["E9", "A0"])
def test_atlas_unsupported_cartan_type(capsys, cartan_type):
    code, out, err = run(capsys, "atlas", "--type", cartan_type)
    assert code == 2 and out == ""
    assert f"structure: custom({cartan_type}): unsupported Cartan type {cartan_type}" in err
    assert "compact" not in err


def test_atlas_golden_documents(tmp_path):
    """Every catalog form's atlas JSON is byte-identical to the recorded one."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    catalog = bench / "catalog.txt"
    golden = json.loads((bench / "golden.json").read_text(encoding="utf-8"))
    labels = re.findall(r"^name=([^;]+);", catalog.read_text(encoding="utf-8"), re.M)
    assert labels
    out = tmp_path / "atlas.json"
    mismatched = []
    for label in labels:
        code = main(["atlas", "--catalog", str(catalog), "--seed", "0",
                     "--form", label, "--out", str(out)])
        assert code == 0, label
        if hashlib.sha256(out.read_bytes()).hexdigest() != golden[label]:
            mismatched.append(label)
    assert mismatched == []


def _generic(doc):
    return json.dumps(doc, sort_keys=True, indent=2, default=list) + "\n"


def _strict_loads(text):
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=reject)


def _written(doc):
    """An atlas document as it is written: each class record as its fields,
    without the form data that reads them."""
    written = dict(doc, classes=[class_fields(doc["real_form"], c) for c in doc["classes"]])
    del written["real_form"]
    return written


def test_class_writer_matches_json_dumps_on_every_atlas_document():
    # every catalog form and split E6
    forms = builtin_catalog() + (cr.diagram("custom(E6)", "E", 6),)
    words = set()
    for sd in forms:
        doc = atlas_document(atlas(sd, catalog_hash="0123abcd"), 0)
        assert _json_dumps(doc) == _generic(_written(doc)), sd.label
        words |= {len(word) for _, word, _ in doc["classes"]}
    assert {0, 1} <= words  # a closed class and a one-letter word


#: a quote, a backslash, non-ASCII letters (one outside the BMP) and a control character
ESCAPED_LABEL = 'a"b\\cé\x01𝔤'


def test_labels_that_need_escaping_match_json_dumps(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(ENV_CATALOG, raising=False)
    code, inline, _ = run(capsys, "atlas", "--type", "A2", "--label", ESCAPED_LABEL)
    assert code == 0
    catalog = tmp_path / "catalog.txt"
    catalog.write_text(f"name={ESCAPED_LABEL}; type=A2; arrows={{(1,2)}}\n", encoding="utf-8")
    code, listed, _ = run(capsys, "atlas", "--catalog", str(catalog), "--form", ESCAPED_LABEL)
    assert code == 0
    for out, arrows in ((inline, ()), (listed, [(1, 2)])):
        doc = json.loads(out)
        assert doc["form"]["label"] == ESCAPED_LABEL
        assert out == _generic(doc)
        sd = cr.diagram(ESCAPED_LABEL, "A", 2, arrows=arrows)
        assert _json_dumps(atlas_document(atlas(sd, catalog_hash=doc["catalog_hash"]), 0)) == out


def _reference_markdown(report):
    """The markdown as a per-row f-string renders it: the reference for the
    row template of `atlas_markdown`."""
    rf = report.form
    lines = [
        f"# Leaf atlas: {report.label}",
        "",
        f"- type: {rf.diagram.family}{rf.diagram.rank}, black={sorted(rf.diagram.black)}, "
        f"arrows={sorted(rf.diagram.arrows)}",
        f"- dim g = {rf.dim_g}, dim k0 = {rf.dim_k0}, dim X = {rf.dim_x}, "
        f"real rank = {rf.real_rank}",
        f"- open leaves: {'yes' if report.has_open_leaves else 'no'}",
        "",
        "| psi word | codim_Y | a | t | leaf dim | leaf codim | family dim | open | closed | ok |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for c in (class_fields(rf, record) for record in report.classes):
        word = "s" + " s".join(map(str, c["psi_word"])) if c["psi_word"] else "e"
        ok = "yes" if realizable_candidate(c) else "FLAGGED"
        lines.append(
            f"| {word} | {c['codim_Y']} | {c['a']} | {c['t']} | {c['leaf_dim']} "
            f"| {c['leaf_codim']} | {c['family_dim']} | {'*' if c['is_open'] else ''} | "
            f"{'*' if c['is_closed_class'] else ''} | {ok} |"
        )
    lines.append("")
    for note in report.notes:
        lines.append(f"> {note}")
    return "\n".join(lines) + "\n"


def test_markdown_matches_the_reference_renderer():
    flagged = 0
    for sd in builtin_catalog() + (cr.diagram("custom(E6)", "E", 6),):
        report = atlas(sd)
        assert atlas_markdown(report) == _reference_markdown(report), sd.label
        flagged += sum(not realizable_candidate(class_fields(report.form, c))
                       for c in report.classes)
    assert flagged  # the FLAGGED cell is covered


def test_atlas_writers_leave_no_cyclic_garbage():
    reports = [atlas(sd, catalog_hash="0123abcd") for sd in builtin_catalog()]
    docs = [atlas_document(report, 0) for report in reports]
    gc.collect()
    gc.disable()
    try:
        for report, doc in zip(reports, docs):
            _json_dumps(doc)
            atlas_markdown(report)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_words_are_bytes_and_class_records_are_untracked():
    # a class record is (codim_Y, psi_word, a): two ints and bytes, so the
    # cyclic collector stops tracking it at the first collection that sees
    # it; a letter renders as one digit
    assert RANK_CAP <= 9
    assert _letters(range(1, RANK_CAP + 1)) == "".join(map(str, range(1, RANK_CAP + 1)))
    for sd in builtin_catalog() + (cr.diagram("custom(E6)", "E", 6),):
        report = atlas(sd)
        assert all(list(map(type, c)) == [int, bytes, int] for c in report.classes), sd.label
        gc.collect()
        assert not any(gc.is_tracked(c) for c in report.classes), sd.label
        words = [report.form.w0.word, report.form.w_b.word]
        words += [word for _, word, _ in report.classes]
        assert all(type(word) is bytes for word in words), sd.label
        for word in words:
            assert [int(letter) for letter in _letters(word)] == list(word)


@pytest.mark.slow
def test_split_e8_document_sha256(tmp_path):
    """Split E8 has 199,952 classes and a 177 MiB document, written piece by
    piece to --out in under 60 MiB of peak RSS (54 MiB measured, 146 MiB when
    each class record was a dict); run with `-m slow`."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop(ENV_CATALOG, None)
    out = tmp_path / "e8.json"
    # the command line of `python -m leafatlas`, then the child's peak RSS as
    # VmHWM, the high-water mark of its own memory: ru_maxrss would also
    # count the resident pages of the process that spawned it
    script = ("import sys\n"
              "from leafatlas.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "with open('/proc/self/status') as fh:\n"
              "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')))\n"
              "raise SystemExit(code)\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, "atlas", "--type", "E8", "--seed", "0",
         "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) / 1024 < 60  # VmHWM is in kB
    digest = hashlib.sha256()
    with open(out, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    assert digest.hexdigest() == (
        "8a896be5055c286b15f95ca2c2d3eb6851f500c28765e44a3b977c0e846b3b1b"
    )


def test_verify_and_catalog_documents_take_the_generic_path(capsys, monkeypatch):
    monkeypatch.delenv(ENV_CATALOG, raising=False)
    doc = run_verify_battery(cr.by_label()["sl(2,R)"], RunConfig(command="verify"))
    assert _json_dumps(doc) == _generic(doc)
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert _json_dumps(_strict_loads(out)) == _generic(json.loads(out)) == out


def test_writer_refuses_non_finite_numbers():
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            _json_dumps({"value": value})


# ---------------------------------------------------------------------------
# verify

def test_verify_small_battery(capsys):
    code, out, _ = run(capsys, "verify", "--form", "sl(2,R)", "--seed", "42")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert {"mcybe", "k0_coisotropic", "annihilator_dims", "rank_vs_atlas",
            "example_formula", "t_invariance"} <= names
    assert "multiplicativity" not in names
    assert doc["seed"] == 42


# every check's (name, tolerance, info) at seeds 0 and 1 for the ten realized
# forms, as tests/make_verify_info.py writes them
VERIFY_INFO = json.loads((Path(__file__).parent / "verify_info.json").read_text(encoding="utf-8"))

BATTERY = [
    "cartan_tau_sq", "cartan_commute", "tau_root_compatibility", "annihilator_dims",
    "iwasawa_roundtrip", "action_axiom", "t_invariance", "mcybe",
    "k0_coisotropic", "rank_vs_atlas", "leaf_tangency",
]


@pytest.mark.parametrize("label", [
    "sl(2,R)", "sl(3,R)", "sl(4,R)", "sl(5,R)",
    "su(1,1)", "su(2,1)", "su(3,1)", "su(2,2)", "su(4,1)", "su(3,2)",
])
def test_verify_battery_passes_on_every_realized_form(label):
    if label == "sl(2,R)":
        extra = ["example_formula"]
    elif label.startswith("su("):
        extra = ["hermitian_fit_residual"]
    else:
        extra = []
    for seed in (0, 1):
        doc = run_verify_battery(cr.by_label()[label], RunConfig(command="verify", seed=seed))
        assert doc["samples"] == dict(SAMPLES)
        failed = [c["name"] for c in doc["checks"] if not c["passed"]]
        assert failed == [], seed
        assert doc["passed"] is True
        assert [c["name"] for c in doc["checks"]] == BATTERY + extra + ["stabilizer_dims"]
        got = [[c["name"], c["tolerance"], _pinned_info(c)] for c in doc["checks"]]
        assert got == VERIFY_INFO[f"{label} seed {seed}"], seed


# type A at n = 6 and 7, past the catalog, built directly so that the
# built-in catalog_hash does not move: (p, q), q = 0 for sl(p,R), and the
# realized and total class counts of stabilizer_dims
TYPE_A_6_7 = [(6, 0, 76, 76), (3, 3, 76, 76), (4, 2, 61, 76), (5, 1, 16, 76),
              (7, 0, 232, 232), (4, 3, 232, 232), (5, 2, 127, 232), (6, 1, 22, 232)]


@pytest.mark.parametrize("p,q,found,total", TYPE_A_6_7)
def test_verify_battery_passes_on_type_a_at_n_6_and_7(p, q, found, total):
    sd = su_pq_diagram(p, q) if q else sl_real_diagram(p)
    doc = run_verify_battery(sd, RunConfig(command="verify"))
    assert [c["name"] for c in doc["checks"] if not c["passed"]] == []
    (info,) = [c["info"] for c in doc["checks"] if c["name"] == "stabilizer_dims"]
    assert info.startswith(f"{found}/{found} matched of {total} classes "
                           f"({total - found} unrealizable), ")


def _pinned_info(check):
    """A check's info string as the table pins it: the fitted b of the
    Hermitian fit moves at roundoff, so only its prefix is pinned."""
    if check["name"] == "hermitian_fit_residual":
        assert check["info"].startswith("b = ")
        return "b = …"
    return check["info"]


# each sampled row's SAMPLES key, by its stream's offset from the seed, and
# the words per sample per n^2: 2 for a unitary or an iwasawa m (the real and
# imaginary parts of n^2 normals), 3 * 2 for an action triple (u, g, h)
SAMPLED_ROWS = {0: ("iwasawa", 2), 1: ("action", 6), 5: ("rank", 2), 6: ("tangency", 2),
                7: ("formula", 2), 8: ("hermitian", 2)}


def test_verify_battery_builds_a_fixed_number_of_generators(monkeypatch):
    # each sampled row builds one stream, not one per sample, and reads
    # SAMPLES[row] samples from it, so the document's samples map is what
    # each row drew (the Cartan, Poisson and torus identities are exact)
    from leafatlas import matrixlie as ml

    streams, init = [], ml.SampleStream.__init__

    def recording(self, seed):
        init(self, seed)
        streams.append((SAMPLED_ROWS[seed - 3][0], self))

    monkeypatch.setattr(ml.SampleStream, "__init__", recording)
    for label, last in (("su(3,2)", "hermitian"), ("sl(2,R)", "formula")):
        streams.clear()
        doc = run_verify_battery(cr.by_label()[label], RunConfig(command="verify", seed=3))
        assert doc["passed"] is True and doc["samples"] == dict(SAMPLES)
        assert [row for row, _ in streams] == ["iwasawa", "action", "rank", "tangency", last]
        n2 = ml.realization(label).n ** 2
        words = dict(SAMPLED_ROWS.values())
        assert all(stream.drawn == SAMPLES[row] * words[row] * n2 for row, stream in streams)


def test_verify_no_realization(capsys):
    code, _, err = run(capsys, "verify", "--form", "so(4,1)")
    assert code == 2
    assert "no matrix realization" in err


def test_verify_reads_only_ascii_digits_in_a_realized_label(tmp_path, capsys):
    # an Arabic-Indic three is a digit to the regex class \d, but not to the
    # catalog format: sl(3,R) was built for it and verified
    path = tmp_path / "cat.txt"
    path.write_text("name=sl(\u0663,R); type=A2; black={}; arrows={}\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", "--catalog", str(path), "--form", "sl(\u0663,R)")
    assert code == 2 and out == ""
    assert "no matrix realization shipped for 'sl(\u0663,R)'" in err


@pytest.mark.parametrize("label,given,realized", [
    # the diagram of su(2,1) under the label of sl(3,R): its classes are not
    # involutions, and the representative search raised a traceback
    ("sl(3,R)", "type=A2; black={}; arrows={(1,2)}", "type=A2; black={}; arrows={}"),
    # the split B2 under the label of su(2,1): the battery ran against B2's
    # atlas, and five checks failed
    ("su(2,1)", "type=B2; black={}; arrows={}", "type=A2; black={}; arrows={(1,2)}"),
])
def test_verify_refuses_a_diagram_that_is_not_the_realized_forms(
        tmp_path, capsys, label, given, realized):
    path = tmp_path / "cat.txt"
    path.write_text(f"name={label}; {given}\n")
    code, out, err = run(capsys, "verify", "--catalog", str(path), "--form", label)
    assert code == 2 and out == ""
    assert err == f"{label}: the catalog gives {given}, but the realized {label} has {realized}\n"


def test_verify_unknown_form(capsys):
    code, _, err = run(capsys, "verify", "--form", "bogus")
    assert code == 1


def test_verify_takes_no_tolerance_option(capsys):
    # the tolerances are fixed (cli.TOLERANCES); the document reports each
    # row's value, so an override could only relabel it
    code, out, err = run(capsys, "verify", "--form", "sl(2,R)", "--tol", "iwasawa=1")
    assert code == 1 and out == ""
    assert "unrecognized arguments: --tol iwasawa=1" in err


@pytest.mark.parametrize("seed", ["160", "3949"])
def test_verify_passes_where_a_sample_needs_the_householder_factorization(capsys, seed):
    # one of the 100 Gaussian SL(5,C) samples of iwasawa_roundtrip at each
    # seed has its u off unitary by 1.9e-10 or 4.6e-9 when factored through
    # the Cholesky factor of m m^dagger; iwasawa's Householder u is unitary
    # to roundoff
    code, out, err = run(capsys, "verify", "--form", "sl(5,R)", "--seed", seed)
    assert code == 0 and err == ""
    assert all(c["passed"] for c in _strict_loads(out)["checks"])


def test_verify_document_is_strict_json_when_tangency_dimensions_differ(capsys, monkeypatch):
    from leafatlas import matrixlie as ml

    original, calls = ml.column_space, []

    def dropping(m):  # every orbit span loses its last vector
        calls.append(m)
        q, borderline = original(m)
        return (q[:, :-1] if len(calls) % 2 == 0 else q), borderline

    monkeypatch.setattr(ml, "column_space", dropping)
    code, out, _ = run(capsys, "verify", "--form", "sl(2,R)")
    assert code == 2
    doc = _strict_loads(out)
    tangency = [c for c in doc["checks"] if c["name"] == "leaf_tangency"]
    assert tangency == [{"name": "leaf_tangency", "value": math.pi / 2, "tolerance": 1e-8,
                         "passed": False, "info": "0 borderline samples"}]
    assert [c["name"] for c in doc["checks"] if not c["passed"]] == ["leaf_tangency"]


def test_rank_threshold_override_reaches_both_rank_checks(monkeypatch):
    from leafatlas import matrixlie as ml

    # both rank rows rank by numerical_rank, which reads RANK_THRESHOLD at each
    # call; a planted cutoff of 1.0 drops every singular value up to the largest one
    monkeypatch.setattr(ml, "RANK_THRESHOLD", 1.0)
    doc = run_verify_battery(cr.by_label()["su(2,1)"], RunConfig(command="verify"))
    failed = [c["name"] for c in doc["checks"] if not c["passed"]]
    assert failed == ["rank_vs_atlas", "stabilizer_dims"]


def test_every_float_rank_row_reports_its_borderline_count(monkeypatch):
    import numpy as np

    from leafatlas import matrixlie as ml

    original = ml._floored_rank
    # every rank of the float rows marked borderline, the ranks themselves kept
    monkeypatch.setattr(ml, "_floored_rank",
                        lambda s, threshold: (original(s, threshold)[0],
                                              np.ones(s.shape[:-1], dtype=bool)))
    doc = run_verify_battery(cr.by_label()["su(2,1)"], RunConfig(command="verify"))
    assert doc["passed"] is True
    info = {c["name"]: c["info"] for c in doc["checks"]}
    assert info["rank_vs_atlas"].endswith(", 100 borderline samples")
    assert info["leaf_tangency"] == "5 borderline samples"
    assert info["stabilizer_dims"] == ("4/4 matched of 4 classes (0 unrealizable), "
                                       "4 borderline representatives")


def test_verify_takes_no_samples_option(capsys):
    # the sample counts are fixed (cli.SAMPLES), and the document prints them
    code, out, err = run(capsys, "verify", "--form", "sl(2,R)", "--samples", "10")
    assert code == 1 and out == ""
    assert "unrecognized arguments: --samples 10" in err


def test_verify_rejects_a_negative_seed(capsys):
    code, out, err = run(capsys, "verify", "--form", "sl(2,R)", "--seed", "-1")
    assert code == 1 and out == ""
    assert err == "--seed must be at least 0 for verify, got -1\n"
    assert run(capsys, "atlas", "--form", "sl(2,R)", "--seed", "-1")[0] == 0


def test_verify_takes_seeds_past_64_bits(capsys):
    # the streams fold the whole seed, so 2^64 + 5 neither wraps to 5 nor
    # overflows
    docs = {}
    for seed in (5, 2**64 + 5):
        code, out, err = run(capsys, "verify", "--form", "su(2,1)", "--seed", str(seed))
        assert code == 0 and err == ""
        docs[seed] = _strict_loads(out)
        assert docs[seed]["passed"] is True and docs[seed]["seed"] == seed
    # the roundoff-level residuals of the sampled rows: equal documents would
    # mean equal draws
    sampled = ("iwasawa_roundtrip", "action_axiom", "leaf_tangency")
    values = {seed: [c["value"] for c in doc["checks"] if c["name"] in sampled]
              for seed, doc in docs.items()}
    assert len(values[5]) == 3 and all(v > 0 for v in values[5])
    assert all(a != b for a, b in zip(values[5], values[2**64 + 5]))


# ---------------------------------------------------------------------------
# the numerical engine loads on the verify path only

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _python(code, *args, env_vars=None):
    """stdout of `python -c code args` on the source tree, with no catalog
    variable and no thread-count variable but those in env_vars."""
    env = {k: v for k, v in os.environ.items()
           if k not in THREAD_VARS and k != ENV_CATALOG}
    env.update(env_vars or {}, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_atlas_and_catalog_import_no_numerics():
    out = _python(
        "import contextlib, io, sys\n"
        "import leafatlas, leafatlas.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['atlas', '--form', 'sl(2,R)']), cli.main(['catalog'])]\n"
        "print(codes, [m for m in ('numpy', 'scipy', 'fractions', 'decimal',\n"
        "                          'dataclasses', 'inspect')\n"
        "              if m in sys.modules])\n"
    )
    assert out.split("\n")[0] == "[0, 0] []"


def test_verify_battery_imports_no_scipy():
    out = _python(
        "import sys\n"
        "from leafatlas.cli import RunConfig, run_verify_battery\n"
        "from leafatlas.satake import builtin_catalog\n"
        "by_label = {sd.label: sd for sd in builtin_catalog()}\n"
        "for label in ('sl(2,R)', 'su(2,1)'):\n"
        "    doc = run_verify_battery(by_label[label], RunConfig(command='verify'))\n"
        "    print(doc['passed'], 'numpy' in sys.modules,\n"
        "          [m for m in ('scipy', 'fractions', 'decimal') if m in sys.modules])\n"
    )
    assert out.split("\n")[:2] == ["True True []"] * 2


def test_verify_imports_neither_numpy_random_nor_scipy():
    # the sample streams are numpy integer arithmetic: numpy.random, with
    # its bit generators and `secrets`, is never loaded
    out = _python(
        "import contextlib, io, sys\n"
        "import leafatlas.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify', '--form', 'su(2,1)'])\n"
        "print(code, 'numpy' in sys.modules,\n"
        "      sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'scipy' or m.startswith('numpy.random')))\n"
    )
    assert out.strip() == "0 True []"


PRINT_THREADS = (
    "import contextlib, io, os, sys\n"
    "import leafatlas.cli as cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = cli.main(sys.argv[1:])\n"
    "print(code, [os.environ.get(v) for v in cli.THREAD_VARS])\n"
)
VERIFY_SL2 = ("verify", "--form", "sl(2,R)")


def test_verify_pins_blas_threads_when_unset():
    assert _python(PRINT_THREADS, *VERIFY_SL2).strip() == f"0 {['1'] * 6}"


def test_verify_keeps_a_preset_thread_count():
    out = _python(PRINT_THREADS, *VERIFY_SL2, env_vars={"OPENBLAS_NUM_THREADS": "3"})
    assert out.strip() == "0 ['1', '3', '1', '1', '1', '1']"


def test_atlas_leaves_thread_counts_alone():
    out = _python(PRINT_THREADS, "atlas", "--form", "sl(2,R)")
    assert out.strip() == f"0 {[None] * 6}"


# ---------------------------------------------------------------------------
# catalog

def test_catalog_builtin_all_pass(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert len(doc["entries"]) == len(builtin_catalog())


def test_catalog_from_file(tmp_path, capsys):
    path = tmp_path / "cat.txt"
    path.write_text(cr.render_catalog(builtin_catalog()[:3]))
    code, out, _ = run(capsys, "catalog", "--catalog", str(path))
    assert code == 0
    assert len(json.loads(out)["entries"]) == 3


def test_catalog_env_var(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cat.txt"
    path.write_text("name=only; type=A1; black={}; arrows={}\n")
    monkeypatch.setenv("LEAFATLAS_CATALOG", str(path))
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert [e["label"] for e in json.loads(out)["entries"]] == ["only"]


def test_catalog_invalid_entry_flagged(tmp_path, capsys):
    path = tmp_path / "cat.txt"
    path.write_text("name=bad; type=A2; black={1}; arrows={}\n")
    code, out, _ = run(capsys, "catalog", "--catalog", str(path))
    assert code == 2
    doc = json.loads(out)
    assert doc["entries"][0]["passed"] is False
    assert doc["entries"][0]["failed_checks"] == ["involution"]


def test_catalog_unsupported_cartan_type_flagged(tmp_path, capsys):
    path = tmp_path / "cat.txt"
    path.write_text("name=big; type=E9; black={}; arrows={}\n")
    code, out, _ = run(capsys, "catalog", "--catalog", str(path))
    assert code == 2
    assert json.loads(out)["entries"][0]["failed_checks"] == ["structure"]
    code, _, err = run(capsys, "atlas", "--catalog", str(path), "--form", "big")
    assert code == 2
    assert "unsupported Cartan type E9" in err


def test_catalog_parse_error_reports_line(tmp_path, capsys):
    path = tmp_path / "cat.txt"
    path.write_text("name=x; type=A2\n\nname=y; hue=blue\n")
    code, _, err = run(capsys, "catalog", "--catalog", str(path))
    assert code == 2
    assert "line 3" in err


@pytest.mark.parametrize("argv", [
    ["catalog"],
    ["atlas", "--form", "sl(2,R)"],
    ["atlas", "--type", "A2"],
    ["verify", "--form", "sl(2,R)"],
])
def test_catalog_file_that_is_not_utf8(tmp_path, capsys, argv):
    path = tmp_path / "cat.txt"
    data = b"name=sl(2,R); type=A1; black={}; arrows={}\n\xff\n"
    path.write_bytes(data)
    code, out, err = run(capsys, *argv, "--catalog", str(path))
    assert code == 2 and out == ""
    assert err == f"{path}: not UTF-8 text (invalid start byte at byte {data.index(0xff)})\n"


def test_catalog_file_that_does_not_exist(tmp_path, capsys):
    path = tmp_path / "nosuch.txt"
    code, out, err = run(capsys, "catalog", "--catalog", str(path))
    assert code == 2 and out == ""
    assert err == f"[Errno 2] No such file or directory: {str(path)!r}\n"


def test_catalog_empty_file(tmp_path, capsys):
    path = tmp_path / "cat.txt"
    path.write_text("# intentionally empty\n")
    code, out, err = run(capsys, "catalog", "--catalog", str(path))
    assert code == 0
    assert "empty" in err
    assert json.loads(out)["entries"] == []
    code, out, err = run(capsys, "catalog", "--catalog", str(path), "--format", "md")
    assert code == 0
    assert "empty" in err
    assert out == "| label | type | result | failures |\n|---|---|---|---|\n"


def test_catalog_markdown(capsys):
    code, out, _ = run(capsys, "catalog", "--format", "md")
    assert code == 0
    assert out.startswith("| label |")


@pytest.mark.parametrize("fmt,digest", [
    ("json", "dfb521d448edf4154474aa772a9a8f1990d2fe564b8b68f88f644a6d176a3858"),
    ("md", "725cac39d75610dc6571fe415fc9a15a25773537ed45bcea51c9ebbc36a2410b"),
])
def test_catalog_builtin_document_sha256(capsys, monkeypatch, fmt, digest):
    # the rows, their order and the built-in catalog_hash 870aeab17c8e7a22
    monkeypatch.delenv(ENV_CATALOG, raising=False)
    code, out, _ = run(capsys, "catalog", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# ---------------------------------------------------------------------------
# misc

def _option_strings(parser):
    """The option strings of a parser and, recursively, of its subparsers."""
    out = set()
    for action in parser._actions:
        out.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                out |= _option_strings(sub)
    return out


def test_readme_names_exactly_the_parsers_long_options():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
    documented.discard("--no-build-isolation")  # pip's, in the install line
    parsed = {o for o in _option_strings(build_parser()) if o.startswith("--")}
    assert documented == parsed - {"--help", "--version"}


def test_usage_error_exit_code(capsys):
    assert run(capsys, "atlas", "--format", "xml")[0] == 1


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip() == "0.1.0"
