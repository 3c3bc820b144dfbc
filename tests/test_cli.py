import contextlib
import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import pargoids
from pargoids import cli, typability
from pargoids.errors import InternalError

import oracles

SCHEMAS = Path(pargoids.__file__).resolve().parent / "schemas"
SIX = str(oracles.FIXTURES / "six.pgd")
THREE = str(oracles.FIXTURES / "three.pgd")
SIX_TYPING = str(oracles.FIXTURES / "six-typing.json")

QUAD_TEXT = "elements: a b c d\na a = b\na b = d\nc c = d\n"


def run(argv):
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run(argv)
        stdout.flush()
    return code, stdout.buffer.getvalue().decode(), stderr.getvalue()


def check_schema(doc, name):
    schema = json.loads(SCHEMAS.joinpath(name).read_text())
    jsonschema.validate(doc, schema)


def test_decide_six_text():
    code, out, _ = run(["decide", SIX])
    assert code == 0
    assert out == ("typable\n"
                   "a: g1 -> g5 -> g5\n"
                   "b: g1\n"
                   "c: g1 -> g4\n"
                   "ab: g5 -> g5\n"
                   "cb: g4\n"
                   "d: g5\n")


def test_decide_three_with_certificate():
    code, out, _ = run(["decide", THREE, "--cert"])
    assert code == 1
    assert out == "untypable\ncycle: a < a\n"
    code, out, _ = run(["decide", THREE])
    assert code == 1
    assert out == "untypable\n"


def test_decide_json_outputs(tmp_path):
    code, out, _ = run(["decide", SIX, "--json"])
    assert code == 0
    doc = json.loads(out)
    check_schema(doc, "decide.schema.json")
    assert doc["verdict"] == "typable"
    assert doc["typing"]["types"]["a"] == "g1 -> g5 -> g5"

    code, out, _ = run(["decide", THREE, "--json"])
    assert code == 1
    doc = json.loads(out)
    check_schema(doc, "decide.schema.json")
    assert doc["certificate"] == {"kind": "cycle", "path": ["a", "a"]}

    quad = tmp_path / "quad.pgd"
    quad.write_text(QUAD_TEXT)
    code, out, _ = run(["decide", str(quad), "--json"])
    assert code == 1
    doc = json.loads(out)
    check_schema(doc, "decide.schema.json")
    cert = doc["certificate"]
    assert cert["kind"] == "definite-violation"
    assert cert["op"]["witness"] == "(prod var var)"
    assert (cert["a"], cert["c"]) == ("a", "c")
    assert cert["separator"]["witness"] == "(prod var (const a))"

    code, out, _ = run(["decide", SIX, "--json", "--budget", "7"])
    assert code == 3
    doc = json.loads(out)
    check_schema(doc, "decide.schema.json")
    assert doc == {"schema": 1, "verdict": "resource-exhausted",
                   "stage": "clone", "budget": 7}


def test_type_then_verify_round_trip(tmp_path):
    code, out, _ = run(["type", SIX])
    assert code == 0
    typing_file = tmp_path / "six-inferred.json"
    typing_file.write_text(out)
    code, out, _ = run(["verify", SIX, str(typing_file)])
    assert code == 0
    assert out == "accepted\n"
    code, out, _ = run(["verify", SIX, str(typing_file), "--strong"])
    assert code == 0


def test_type_refuses_untypable():
    code, out, err = run(["type", THREE])
    assert code == 1
    assert out == ""
    assert "untypable" in err


def test_verify_known_typing_strong():
    code, out, _ = run(["verify", SIX, SIX_TYPING, "--strong"])
    assert code == 0
    code, out, _ = run(["verify", SIX, SIX_TYPING, "--strong", "--json"])
    assert code == 0
    doc = json.loads(out)
    check_schema(doc, "verify.schema.json")
    assert doc["accepted"] is True
    assert doc["mode"] == "strong"
    assert doc["failures"] == []


def test_verify_rejects_altered_typing(tmp_path):
    doc = json.loads(Path(SIX_TYPING).read_text())
    doc["types"]["c"] = doc["types"]["a"]
    altered = tmp_path / "altered.json"
    altered.write_text(json.dumps(doc))
    code, out, _ = run(["verify", SIX, str(altered)])
    assert code == 1
    assert out.startswith("rejected\n")
    assert "c b = cb" in out
    code, out, _ = run(["verify", SIX, str(altered), "--json"])
    assert code == 1
    doc = json.loads(out)
    check_schema(doc, "verify.schema.json")
    assert doc["accepted"] is False
    assert doc["checks"]["axiom1_forward"] is False


def test_verify_labels_literal_totality_as_informational(tmp_path):
    # strongly typable, but the constructed typing puts e0 and e4 under
    # one ground, so e3 e2 matches by type and diverges
    pgd = tmp_path / "s71209.pgd"
    code, out, _ = run(["gen", "--seed", "71209", "--size", "8", "--density", "0.05"])
    pgd.write_text(out)
    code, out, _ = run(["type", str(pgd)])
    assert code == 0
    typing = tmp_path / "s71209.json"
    typing.write_text(out)
    line = ("e3 e2 diverges despite matching types (g6 -> g0) -> g0 "
            "and g6 -> g0\n")
    code, out, _ = run(["verify", str(pgd), str(typing)])
    assert code == 0
    assert out == "accepted\naxiom1-totality (informational; literal mode): " + line
    code, out, _ = run(["verify", str(pgd), str(typing), "--strong"])
    assert code == 1
    assert out == "rejected\naxiom1-totality: " + line
    code, out, _ = run(["verify", str(pgd), str(typing), "--json"])
    assert code == 0
    assert json.loads(out)["failures"] == [
        {"check": "axiom1-totality", "detail": line.rstrip("\n")}]


def test_clone_listing():
    code, out, _ = run(["clone", THREE])
    assert code == 0
    assert out == (
        "0: var :: a->a b->b c->c [trivial]\n"
        "1: (const a) :: a->a b->a c->a [trivial,constant]\n"
        "2: (const b) :: a->b b->b c->b [trivial,constant]\n"
        "3: (const c) :: a->c b->c c->c [trivial,constant]\n"
        "4: (prod var var) :: a->a [definite]\n"
        "5: (prod var (const b)) :: [definite]\n"
        "6: (prod (const b) var) :: c->c [definite]\n"
        "7: (prod var (const c)) :: b->c [definite]\n")
    code, out, _ = run(["clone", SIX, "--json"])
    assert code == 0
    doc = json.loads(out)
    check_schema(doc, "clone.schema.json")
    assert doc["reading"] == "total"
    assert len(doc["ops"]) == 15
    assert doc["ops"][0] == {"graph": {n: n for n in oracles.six().names},
                             "witness": "var", "trivial": True,
                             "constant": False, "definite": False}


def test_clone_reading_flag():
    code, out, _ = run(["clone", SIX, "--json", "--constant-reading", "on-domain"])
    assert code == 0
    doc = json.loads(out)
    assert doc["reading"] == "on-domain"
    by_witness = {op["witness"]: op for op in doc["ops"]}
    assert by_witness["(prod var (const d))"]["definite"] is False
    code, out, _ = run(["clone", SIX, "--json"])
    doc = json.loads(out)
    by_witness = {op["witness"]: op for op in doc["ops"]}
    assert by_witness["(prod var (const d))"]["definite"] is True


def test_congruence_output():
    code, out, _ = run(["congruence", SIX])
    assert code == 0
    assert out == "a\nb\nc\nab\ncb\nd\n"
    code, out, _ = run(["congruence", SIX, "--json"])
    doc = json.loads(out)
    check_schema(doc, "congruence.schema.json")
    assert doc["blocks"] == [["a"], ["b"], ["c"], ["ab"], ["cb"], ["d"]]


def test_claim_star_three():
    code, out, _ = run(["claim-star", THREE])
    assert code == 1
    assert out == ("coconvergence-implies-equivalence: holds\n"
                   "equivalence-implies-coconvergence: holds\n"
                   "eventual-divergence: holds\n"
                   "claim: holds\n"
                   "verdict: untypable\n")


def test_claim_star_six():
    code, out, _ = run(["claim-star", SIX])
    assert code == 0
    assert out == (
        "coconvergence-implies-equivalence: fails (a c via (prod var (const b)))\n"
        "equivalence-implies-coconvergence: fails (cb cb)\n"
        "eventual-divergence: holds\n"
        "claim: fails\n"
        "verdict: typable\n")
    code, out, _ = run(["claim-star", SIX, "--json"])
    assert code == 0
    doc = json.loads(out)
    check_schema(doc, "claim-star.schema.json")
    assert doc["holds"] is False
    assert doc["verdict"] == "typable"
    assert doc["counterexamples"]["coconvergence"]["op"]["witness"] == \
        "(prod var (const b))"
    assert doc["counterexamples"]["equivalence"] == {"a": "cb", "c": "cb"}


def test_gen_deterministic_and_valid_json():
    args = ["gen", "--size", "5", "--seed", "42", "--density", "0.3"]
    code1, out1, _ = run(args)
    code2, out2, _ = run(args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("elements: e0 e1 e2 e3 e4\n")
    code, out, _ = run(args + ["--json"])
    assert code == 0
    doc = json.loads(out)
    check_schema(doc, "pargoid.schema.json")


def test_gen_with_typing_end_to_end(tmp_path):
    pgd = tmp_path / "typed.pgd"
    typ = tmp_path / "typed-typing.json"
    code, out, _ = run(["gen", "--size", "6", "--seed", "11",
                        "--mode", "typed_strong", "--with-typing", str(typ)])
    assert code == 0
    pgd.write_text(out)
    check_schema(json.loads(typ.read_text()), "typing.schema.json")
    code, out, _ = run(["verify", str(pgd), str(typ), "--strong"])
    assert code == 0
    code, out, _ = run(["decide", str(pgd)])
    assert code == 0


def test_gen_with_typing_rejected_for_arbitrary():
    code, _, err = run(["gen", "--size", "3", "--seed", "0",
                        "--with-typing", "/tmp/nope.json"])
    assert code == 2
    assert "no typing" in err


def test_stats_frozen_rows():
    args = ["stats", "--size", "4", "--seed", "100", "--count", "3",
            "--density", "0.4"]
    code, out, _ = run(args)
    assert code == 0
    assert out == (
        "seed,n,density,verdict,certificate_kind,clone_size,"
        "class_count,strong_totality\n"
        "100,4,0.4,untypable,definite-violation,22,4,\n"
        "101,4,0.4,untypable,definite-violation,16,4,\n"
        "102,4,0.4,untypable,definite-violation,56,4,\n")
    code2, out2, _ = run(args)
    assert out2 == out


def test_stats_typed_mode_reports_strong_totality():
    code, out, _ = run(["stats", "--size", "4", "--seed", "0", "--count", "2",
                        "--mode", "typed_strong"])
    assert code == 0
    rows = out.strip().split("\n")[1:]
    for row in rows:
        fields = row.split(",")
        assert fields[3] == "typable"
        assert fields[7] == "true"


def test_exit_codes_for_bad_input(tmp_path):
    code, _, err = run(["decide", str(tmp_path / "missing.pgd")])
    assert code == 2
    bad = tmp_path / "bad.pgd"
    bad.write_text("elements: a\na a = z\n")
    code, _, err = run(["decide", str(bad)])
    assert code == 2
    assert "unknown element" in err
    assert "bad.pgd" in err


DEEP_PARENS = "(" * 3000 + "g" + ")" * 3000
LONG_CHAIN = " -> ".join(["g"] * 900)


def _typing_of_a(t):
    types = {nm: "g" for nm in ("a", "b", "c", "ab", "cb", "d")}
    return json.dumps({"types": dict(types, a=t)}).encode()


@pytest.mark.parametrize("command, name, data", [
    ("decide", "list.json", b'{"elements":["a","b"],"products":[[["a"],"b","a"]]}'),
    ("decide", "scalar.json", b'{"elements":["a"],"products":5}'),
    ("decide", "latin1.pgd", b"elements: a\xff b\n"),
], ids=["list-in-product", "scalar-products", "non-utf8"])
def test_malformed_input_exits_2_without_traceback(tmp_path, command, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    proc = subprocess.run([sys.executable, "-m", "pargoids.cli", command, str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("text", [DEEP_PARENS, LONG_CHAIN],
                         ids=["deep-parens", "long-chain"])
def test_deeply_nested_typing_is_rejected_without_traceback(tmp_path, text):
    # well-formed typings, however deep: a's type is the ground g or a
    # 900-arrow chain, and either one breaks the product a b = ab
    path = tmp_path / "typing.json"
    path.write_bytes(_typing_of_a(text))
    proc = subprocess.run([sys.executable, "-m", "pargoids.cli", "verify", SIX, str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout.startswith("rejected\n")
    assert any(line.startswith("axiom1-forward: a b = ab: ")
               for line in proc.stdout.splitlines())
    assert "Traceback" not in proc.stderr


def _imported_modules(argv):
    """Exit code, stdout and the dotted names of the modules a CLI process
    imports; a package's name is among them whenever any of its modules is."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "pargoids.cli",
                           *argv], capture_output=True, text=True)
    names = {line.rsplit("|", 1)[1].strip()
             for line in proc.stderr.splitlines() if line.startswith("import time:")}
    return proc.returncode, proc.stdout, names


def test_verify_process_loads_no_numpy(tmp_path):
    code, out, modules = _imported_modules(["verify", SIX, SIX_TYPING])
    assert code == 0
    assert out == "accepted\n"
    assert "pargoids" in modules
    assert "numpy" not in modules
    assert "pargoids.generators" not in modules
    # so does gen, in arbitrary and typed modes
    typing = str(tmp_path / "typing.json")
    for argv in (["--size", "5"],
                 ["--size", "5", "--mode", "typed_strong", "--with-typing", typing]):
        code, out, modules = _imported_modules(["gen", "--seed", "3", *argv])
        assert code == 0
        assert out.startswith("elements: ")
        assert "pargoids" in modules
        assert "numpy" not in modules
    # decide computes a clone, which needs numpy, but generates nothing
    code, _, modules = _imported_modules(["decide", SIX])
    assert code == 0
    assert "numpy" in modules
    assert "pargoids.generators" not in modules


def test_exit_code_resource_exhaustion():
    code, _, err = run(["clone", THREE, "--budget", "4"])
    assert code == 3
    assert "budget" in err
    code, _, _ = run(["congruence", SIX, "--budget", "7"])
    assert code == 3
    code, _, _ = run(["claim-star", SIX, "--budget", "7"])
    assert code == 3
    code, out, err = run(["type", "--budget", "7", SIX])
    assert (code, out) == (3, "")
    assert err == "error: clone: budget of 7 exhausted before closure\n"


def test_stats_reports_resource_exhaustion():
    # typed_strong tables are acyclic, so no cycle salvages a truncated clone
    code, out, _ = run(["stats", "--seed", "2", "--count", "2", "--size", "6",
                        "--mode", "typed_strong", "--budget", "12"])
    assert code == 0
    assert out.split("\n")[1:] == ["2,6,0.5,typable,,8,1,true",
                                    "3,6,0.5,resource-exhausted,,12,,", ""]


def test_stats_refuses_arguments_before_any_output():
    code, out, err = run(["stats", "--seed", "0", "--count", "4", "--size", "6",
                          "--mode", "typed_strong", "--budget", "6"])
    assert (code, out) == (2, "")
    assert err == "error: clone budget must be at least 7\n"
    code, out, _ = run(["stats", "--seed", "0", "--count", "2", "--size", "0"])
    assert (code, out) == (2, "")


def test_stats_refuses_a_count_below_one():
    # no row is made, so a check of the first row alone would pass them
    for argv in (["--count", "0", "--size", "5", "--budget", "1"],
                 ["--count", "-2", "--size", "0"]):
        code, out, err = run(["stats", *argv])
        assert (code, out) == (2, "")
        assert err == "error: --count must be at least 1\n"


def test_gen_refuses_a_negative_type_depth():
    code, out, err = run(["gen", "--mode", "typed_strong", "--size", "4",
                          "--type-depth", "-3"])
    assert (code, out) == (2, "")
    assert err == "error: type depth must be at least 0\n"


def test_internal_error_exits_4(monkeypatch):
    def broken(g, varpi):
        raise InternalError("application order contains a cycle")

    monkeypatch.setattr(typability, "construct_typing", broken)
    code, out, err = run(["decide", SIX])
    assert code == 4
    assert out == ""
    assert err == "error: internal error: application order contains a cycle\n"


def test_budget_env_variable(monkeypatch):
    # the budget has one setting, --budget; the environment leaves it alone
    for value in ("7", "many"):
        monkeypatch.setenv("PARGOID_BUDGET", value)
        code, out, err = run(["decide", SIX])
        assert (code, err) == (0, "")
        assert out.startswith("typable\n")


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE here")
def test_closed_stdout_ends_the_process_silently():
    # `pargoid clone six.pgd | head -1`, with the reader gone before the
    # first write: SIGPIPE ends the process, as it ends other filters
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "pargoids.cli", "clone", SIX],
                              stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (-signal.SIGPIPE, "")


def test_package_import_defines_no_names():
    # names are imported from their modules; the package itself is empty
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, pargoids; print(sorted(n for n in "
         "vars(pargoids) if not n.startswith('_')), 'numpy' in sys.modules)"],
        capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[] False\n")


def test_argparse_failures_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["decide"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate", SIX])
    assert exc.value.code == 2


# each subcommand's required arguments, and the flags its handler reads
SUBCOMMANDS = {
    "decide": ([SIX], ("--json", "--budget", "--constant-reading")),
    "type": ([SIX], ("--budget", "--constant-reading")),
    "verify": ([SIX, SIX_TYPING], ("--json",)),
    "clone": ([SIX], ("--json", "--budget", "--constant-reading")),
    "congruence": ([SIX], ("--json", "--budget")),
    "gen": (["--size", "3"], ("--json", "--seed")),
    "stats": (["--size", "3", "--count", "1"], ("--budget", "--constant-reading", "--seed")),
    "claim-star": ([SIX], ("--json", "--budget", "--constant-reading")),
}
# each flag's argument, and where the parsed value lands
FLAGS = {
    "--json": ([], "json", True),
    "--budget": (["64"], "budget", 64),
    "--constant-reading": (["on-domain"], "reading", "on-domain"),
    "--seed": (["9"], "seed", 9),
}


def test_subcommands_take_only_the_flags_they_read(capsys):
    refused = 0
    for command, (required, kept) in SUBCOMMANDS.items():
        for flag, (value, dest, parsed) in FLAGS.items():
            argv = [command, *required, flag, *value]
            if flag in kept:
                args = cli._build_parser().parse_args(argv)
                assert getattr(args, dest) == parsed, argv
                continue
            refused += 1
            with pytest.raises(SystemExit) as exc:
                cli.run(argv)
            assert exc.value.code == 2, argv
            out, err = capsys.readouterr()
            assert out == "", argv
            assert "usage:" in err and "unrecognized arguments" in err, argv
    assert refused == 13


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "pargoids.cli", "decide", SIX],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("typable\n")
    proc2 = subprocess.run(["pargoid", "decide", SIX],
                           capture_output=True, text=True)
    assert proc2.returncode == 0
    assert proc2.stdout == proc.stdout
