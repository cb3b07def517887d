import argparse
import hashlib
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import schubitope
from conftest import D9
from schubitope import checks, diagrams
from schubitope.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def d9_file(tmp_path):
    path = tmp_path / "d9.json"
    path.write_text(json.dumps(diagrams.to_json_dict(D9)))
    return str(path)


class TestVertices:
    def test_skyline_json(self, capsys):
        code, out, _ = run_cli(capsys, "vertices", "--skyline", "1,0,3", "--format", "json")
        assert code == 0
        assert out.strip() == '{"vertices":[[1,0,3],[1,3,0],[3,0,1],[3,1,0]]}'

    def test_empty_skyline(self, capsys):
        code, out, _ = run_cli(capsys, "vertices", "--skyline", "0,0", "--format", "json")
        assert code == 0
        assert out.strip() == '{"vertices":[[0,0]]}'

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "vertices", "--skyline", "1,0,3", "--format", "text")
        assert code == 0
        assert out.splitlines() == ["1,0,3", "1,3,0", "3,0,1", "3,1,0"]

    def test_rothe_source(self, capsys):
        code, out, _ = run_cli(capsys, "vertices", "--rothe", "1432")
        assert code == 0
        got = set(map(tuple, json.loads(out)["vertices"]))
        assert (0, 2, 1, 0) in got


class TestTheta:
    def test_d9_breakdown(self, capsys, d9_file):
        code, out, _ = run_cli(capsys, "theta", "--diagram", d9_file, "--set", "1,3")
        assert code == 0
        assert out.splitlines() == ["7", "columns: 2,1,1,2,1"]

    def test_json(self, capsys, d9_file):
        code, out, _ = run_cli(capsys, "theta", "--diagram", d9_file, "--set", "1,3",
                               "--format", "json")
        assert json.loads(out) == {"set": [1, 3], "theta": 7, "columns": [2, 1, 1, 2, 1]}

    def test_rank_agrees(self, capsys, d9_file):
        code, out, _ = run_cli(capsys, "rank", "--diagram", d9_file, "--set", "1,3")
        assert code == 0
        assert out.splitlines()[0] == "7"


class TestConstructorsAndFill:
    def test_rothe_json(self, capsys):
        code, out, _ = run_cli(capsys, "rothe", "--perm", "1432")
        assert code == 0
        assert json.loads(out) == {"n": 4, "boxes": [[2, 2], [2, 3], [3, 2]]}

    @pytest.mark.parametrize("verb, flag", [("rothe", "--perm"), ("skyline", "--alpha"),
                                            ("schubert", "--perm"), ("key", "--alpha")])
    def test_empty_argument_is_n_zero(self, capsys, verb, flag):
        # the empty permutation and the empty composition answer alike
        code, out, err = run_cli(capsys, verb, flag, "")
        assert code == 0 and err == ""
        doc = {"n": 0, "boxes": []} if verb in ("rothe", "skyline") else {"n": 0, "terms": [{"e": [], "c": 1}]}
        assert json.loads(out) == doc

    def test_skyline_text(self, capsys):
        code, out, _ = run_cli(capsys, "skyline", "--alpha", "1,0,3", "--format", "text")
        assert out.strip() == "□..\n...\n□□□"

    def test_fill_grid(self, capsys):
        code, out, _ = run_cli(capsys, "fill", "--skyline", "1,0,3", "--perm", "213")
        assert code == 0
        assert out.strip() == "1..\n...\n222"

    def test_fill_d9(self, capsys, d9_file):
        code, out, _ = run_cli(capsys, "fill", "--diagram", d9_file, "--perm", "31524")
        assert code == 0
        assert len(out.strip().splitlines()) == 5


class TestHRep:
    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "hrep", "--skyline", "1,0,3")
        doc = json.loads(out)
        assert doc["total"] == 4
        assert {"S": [1], "b": 3} in doc["bounds"]

    def test_hform(self, capsys):
        code, out, _ = run_cli(capsys, "hrep", "--skyline", "1,0,3", "--format", "hform")
        assert out.splitlines()[0] == "3 4"
        assert len(out.splitlines()) == 7


class TestMemberAndBruhat:
    def test_member_true(self, capsys):
        code, out, _ = run_cli(capsys, "member", "--skyline", "1,0,3", "--point", "2,1,1")
        assert code == 0 and out.strip() == "true"

    def test_member_false(self, capsys):
        code, out, _ = run_cli(capsys, "member", "--skyline", "1,0,3", "--point", "4,0,0")
        assert code == 0 and out.strip() == "false"

    def test_member_rational_point(self, capsys):
        code, out, _ = run_cli(capsys, "member", "--skyline", "1,0,3",
                               "--point", "3/2,3/2,1")
        assert code == 0 and out.strip() == "true"

    def test_member_empty_point(self, capsys):
        # an empty --point is the point of n = 0, the one point of the n = 0
        # polytope, and of the wrong dimension elsewhere
        code, out, err = run_cli(capsys, "member", "--skyline", "", "--point", "")
        assert code == 0 and out.strip() == "true" and err == ""
        code, out, err = run_cli(capsys, "member", "--rothe", "21", "--point", "")
        assert code == 2 and out == ""
        assert err == "error: --point: point has dimension 0, expected 2\n"

    def test_bruhat(self, capsys):
        code, out, _ = run_cli(capsys, "bruhat", "--u", "312", "--w", "321")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run_cli(capsys, "bruhat", "--u", "321", "--w", "312", "--format", "json")
        assert code == 0 and json.loads(out) == {"leq": False}


class TestPolynomials:
    def test_key_json(self, capsys):
        code, out, _ = run_cli(capsys, "key", "--alpha", "1,0,3")
        doc = json.loads(out)
        assert doc["n"] == 3 and len(doc["terms"]) == 9

    def test_key_text(self, capsys):
        code, out, _ = run_cli(capsys, "key", "--alpha", "0,1", "--format", "text")
        assert out.strip() == "x1 + x2"

    def test_schubert_text(self, capsys):
        code, out, _ = run_cli(capsys, "schubert", "--perm", "132", "--format", "text")
        assert out.strip() == "x1 + x2"


class TestErrors:
    def test_bad_permutation_names_flag(self, capsys):
        code, _, err = run_cli(capsys, "rothe", "--perm", "1322")
        assert code == 2
        assert "--perm" in err and "permutation" in err

    def test_malformed_diagram_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "theta", "--diagram", str(path), "--set", "1")
        assert code == 2 and "--diagram" in err

    def test_diagram_file_is_utf8(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run_cli(capsys, "vertices", "--diagram", str(path))
        assert code == 2 and out == ""
        assert err == (f"error: --diagram: {path} is not valid JSON: "
                       "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n")
        path.write_bytes('{"n": 1, "boxes": [], "\u00e9": 0}'.encode())
        assert run_cli(capsys, "vertices", "--diagram", str(path)) == (0, '{"vertices":[[0]]}\n', "")

    def test_diagram_file_repeats_no_key(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "boxes": [[1, 1]], "n": 3}')
        code, out, err = run_cli(capsys, "vertices", "--diagram", str(path))
        assert code == 2 and out == ""
        assert err == f"error: --diagram: {path} is not valid JSON: repeated key 'n'\n"

    def test_diagram_file_nested_too_deeply(self, capsys, tmp_path):
        # the JSON reader recurses per nesting level; too deep is invalid JSON, not a traceback
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(capsys, "vertices", "--diagram", str(path))
        assert code == 2 and out == ""
        assert err == (f"error: --diagram: {path} is not valid JSON: "
                       "maximum recursion depth exceeded while decoding a JSON array from a unicode string\n")

    def test_unreadable_diagram_file(self, capsys, tmp_path):
        path = tmp_path / "absent.json"
        code, out, err = run_cli(capsys, "vertices", "--diagram", str(path))
        assert code == 2 and out == ""
        assert err == f"error: --diagram: cannot read {path}: [Errno 2] No such file or directory: '{path}'\n"

    def test_diagram_missing_field(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2}))
        code, _, err = run_cli(capsys, "vertices", "--diagram", str(path))
        assert code == 2 and "boxes" in err

    def test_conflicting_sources_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["vertices", "--skyline", "1,0", "--rothe", "12"])
        assert exc.value.code == 2

    def test_missing_source_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["vertices"])
        assert exc.value.code == 2

    def test_part_exceeding_grid(self, capsys):
        code, _, err = run_cli(capsys, "vertices", "--skyline", "9,0")
        assert code == 2 and "exceeds" in err

    def test_dimension_overflow(self, capsys):
        code, _, err = run_cli(capsys, "vertices", "--rothe", "11,10,9,8,7,6,5,4,3,2,1")
        assert code == 2 and "budget" in err

    def test_point_dimension_mismatch(self, capsys):
        # the message of `polytope.member`, prefixed with the flag
        code, out, err = run_cli(capsys, "member", "--skyline", "1,0,3", "--point", "1,1")
        assert code == 2 and out == ""
        assert err == "error: --point: point has dimension 2, expected 3\n"

    @pytest.mark.parametrize("verb", ["theta", "rank"])
    @pytest.mark.parametrize("element", ["0", "5"])
    def test_subset_element_out_of_range(self, capsys, verb, element):
        # theta and rank share the library's subset rule and its message
        code, out, err = run_cli(capsys, verb, "--skyline", "1,0,3", "--set", element)
        assert code == 2 and out == ""
        assert err == f"error: --set: subset element {element} out of range 1..3\n"

    def test_bruhat_degrees_differ(self, capsys):
        # the message of `perms.bruhat_leq`, prefixed with both flags
        code, out, err = run_cli(capsys, "bruhat", "--u", "12", "--w", "321")
        assert code == 2 and out == ""
        assert err == "error: --u/--w: permutation degrees differ: 2 vs 3\n"

    @pytest.mark.parametrize("argv, message", [
        (("skyline", "--alpha", "9,0"), "--alpha: part 9 in row 1 exceeds the grid size 2"),
        (("fill", "--skyline", "1,0,3", "--perm", "2134"),
         "--perm: permutation degree 4 does not match grid size 3"),
        (("theta", "--skyline", "1,0,3", "--set", "1,x"), "--set: expected comma-separated integers, got '1,x'"),
        (("member", "--skyline", "1,0,3", "--point", "1,1/0,3"), "--point: bad coordinate '1/0' (use integers or p/q)"),
        (("skyline", "--alpha", "1,a"), "--alpha: bad composition '1,a': parts must be integers"),
        (("member", "--skyline", "1,0,3", "--point", "1,,2"), "--point: bad coordinate '' (use integers or p/q)"),
    ])
    def test_library_errors_name_their_flag(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


class TestVerify:
    def test_small_scope_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--jobs", "1")
        assert code == 0
        assert out.splitlines()[-1].startswith("PASS:")

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--jobs", "1", "--format", "json")
        doc = json.loads(out)
        assert doc["status"] == "pass"
        assert all(c["counterexample"] is None for c in doc["checks"])
        # answer fields only: no timing enters the JSON report
        assert all(set(c) == {"name", "instances", "counterexample"} for c in doc["checks"])

    def test_deterministic_given_seed(self, capsys):
        # the text report times each check; everything but the seconds repeats
        _, out1, _ = run_cli(capsys, "verify", "--n", "2", "--jobs", "1", "--seed", "42")
        _, out2, _ = run_cli(capsys, "verify", "--n", "2", "--jobs", "1", "--seed", "42")
        untimed = [re.sub(r", \d+\.\d\d s\b", "", out) for out in (out1, out2)]
        assert untimed[0] == untimed[1] and not re.search(r"\d s\b", untimed[0])

    def test_worker_pool(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--jobs", "2")
        assert code == 0

    def test_failing_check_names_its_rerun(self, capsys, monkeypatch):
        # a FAIL line ends with the command that reruns the check alone; the
        # JSON report carries no such command
        def run_all(n, seed, jobs, only):
            return [checks.CheckResult("rothe-box-count", 7, "diagram of (2, 1)", min(n, 5), 0.5)]

        monkeypatch.setattr(checks, "run_all", run_all)
        code, out, _ = run_cli(capsys, "verify", "--n", "3", "--seed", "11", "--jobs", "1")
        assert code == 1
        assert out.splitlines() == [
            "FAIL rothe-box-count (7 instances, scope 3, 0.50 s): diagram of (2, 1); "
            "reproduce: schubitope verify --only rothe-box-count --n 3 --seed 11",
            "FAIL: 0/1 checks passed, 7 instances, 0.50 s",
        ]
        code, out, _ = run_cli(capsys, "verify", "--n", "3", "--seed", "11", "--jobs", "1", "--format", "json")
        assert code == 1
        assert out == '{"status":"fail","checks":[{"name":"rothe-box-count","instances":7,' \
                      '"counterexample":"diagram of (2, 1)"}]}\n'

    def test_digest_tool_on_its_first_case(self, capsys):
        # tools/verify_digests.py prints `n seed exit sha256` for 25 cases;
        # the line of n = 1, seed 0 hashes exactly what the verb prints
        path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "verify_digests.py"
        spec = importlib.util.spec_from_file_location("verify_digests", path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        assert tool.CASES == [(n, seed) for n in range(1, 6) for seed in range(5)]
        line = tool.digest(1, 0)
        code, out, _ = run_cli(capsys, "verify", "--n", "1", "--seed", "0", "--jobs", "1", "--format", "json")
        assert line == f"1 0 {code} {hashlib.sha256(out.encode()).hexdigest()}"
        assert line == "1 0 0 f8c360a5dbe7f10540b46f775a1977dc3da1d0645a22d242755d3db9393f6a88"

    @pytest.mark.parametrize("n", ["-1", "0", "6"])
    def test_scope_out_of_range(self, capsys, n):
        code, out, err = run_cli(capsys, "verify", "--n", n, "--jobs", "1")
        assert code == 2 and out == ""
        assert err == f"error: --n: must be in 1..5 (the largest check scope), got {n}\n"

    def test_only_text(self, capsys):
        # registry order, whatever the order the names are given in
        code, out, _ = run_cli(capsys, "verify", "--n", "3", "--jobs", "1",
                               "--only", "vertex-swap-stability,rothe-box-count")
        lines = [re.sub(r", \d+\.\d\d s\b", "", line) for line in out.splitlines()]
        assert code == 0
        assert lines == [
            "PASS rothe-box-count (9 instances, scope 3)",
            "PASS vertex-swap-stability (144 instances, scope 3)",
            "PASS: 2/2 checks passed, 153 instances",
        ]

    def test_only_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "4", "--jobs", "1", "--format", "json",
                               "--only", "greedy-equals-filling")
        assert code == 0
        assert out == '{"status":"pass","checks":[{"name":"greedy-equals-filling","instances":15936,' \
                      '"counterexample":null}]}\n'

    @pytest.mark.parametrize("only, bad", [("rothe-box-count,nope", "nope"), ("", ""),
                                           ("rothe-box-count, json-round-trip", " json-round-trip")])
    def test_only_unknown_name(self, capsys, monkeypatch, only, bad):
        monkeypatch.setattr(checks, "run_all", lambda *args, **kwargs: pytest.fail("run_all ran"))
        code, out, err = run_cli(capsys, "verify", "--jobs", "1", "--only", only)
        assert code == 2 and out == ""
        assert err == f"error: --only: no check named {bad!r}\n"

    @pytest.mark.parametrize("jobs", ["-1", "-5"])
    def test_negative_jobs(self, capsys, monkeypatch, jobs):
        monkeypatch.setattr(checks, "run_all", lambda *args, **kwargs: pytest.fail("run_all ran"))
        code, out, err = run_cli(capsys, "verify", "--n", "2", "--jobs", jobs)
        assert code == 2 and out == ""
        assert err == f"error: --jobs: must be 0 (all cores) or a positive worker count, got {jobs}\n"

    @pytest.mark.parametrize("jobs, cpus, workers", [
        ("0", 4, 4),  # all cores
        ("0", None, None),  # unknown core count: serial
        ("1000000", 64, 29),  # one worker per check at most
        ("1", 64, None),
    ])
    def test_jobs_clamp(self, capsys, monkeypatch, fake_pool, jobs, cpus, workers):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--jobs", jobs)
        assert code == 0 and out.splitlines()[-1].startswith("PASS: 29/29 checks passed")
        assert fake_pool == ([] if workers is None else [workers])


class TestRoundTrips:
    """Every emitted JSON document must parse back and re-serialize bit-identically."""

    def test_vertices_doc(self, capsys):
        from schubitope.polytope import vertex_set_from_json_dict, vertex_set_to_json_dict

        _, out, _ = run_cli(capsys, "vertices", "--skyline", "1,0,3")
        doc = out.strip()
        again = json.dumps(vertex_set_to_json_dict(vertex_set_from_json_dict(json.loads(doc))),
                           separators=(",", ":"))
        assert doc == again

    def test_diagram_doc(self, capsys):
        _, out, _ = run_cli(capsys, "rothe", "--perm", "1432")
        doc = out.strip()
        again = json.dumps(diagrams.to_json_dict(diagrams.from_json_dict(json.loads(doc))),
                           separators=(",", ":"))
        assert doc == again

    def test_hrep_doc(self, capsys):
        from schubitope.polytope import hrep_from_json_dict, hrep_to_json_dict

        _, out, _ = run_cli(capsys, "hrep", "--skyline", "1,0,3")
        doc = out.strip()
        again = json.dumps(hrep_to_json_dict(hrep_from_json_dict(json.loads(doc))),
                           separators=(",", ":"))
        assert doc == again

    def test_polynomial_doc(self, capsys):
        from schubitope.polyoracle import poly_from_json_dict, poly_to_json_dict

        _, out, _ = run_cli(capsys, "key", "--alpha", "1,0,3")
        doc = out.strip()
        again = json.dumps(poly_to_json_dict(poly_from_json_dict(json.loads(doc))),
                           separators=(",", ":"))
        assert doc == again


SOURCE = ["--diagram FILE", "--rothe PERM", "--skyline COMP"]  # exactly one of them

# every verb's options: flag, metavar, choices or type, whether required, default
PARSER_TABLE = {
    "rothe": ["--perm PERM required", "--format {json,text} default json"],
    "skyline": ["--alpha COMP required", "--format {json,text} default json"],
    "fill": [*SOURCE, "--perm PERM required", "--format {text} default text"],
    "vertices": [*SOURCE, "--format {json,text} default json"],
    "hrep": [*SOURCE, "--format {json,hform} default json"],
    "theta": [*SOURCE, "--set CSV required", "--format {text,json} default text"],
    "rank": [*SOURCE, "--set CSV required", "--format {text,json} default text"],
    "member": [*SOURCE, "--point CSV required", "--format {text,json} default text"],
    "key": ["--alpha COMP required", "--format {json,text} default json"],
    "schubert": ["--perm PERM required", "--format {json,text} default json"],
    "bruhat": ["--u PERM required", "--w PERM required", "--format {text,json} default text"],
    "verify": ["--n int default 4", "--seed int default 0", "--jobs int default 0",
               "--only NAME[,NAME]", "--format {text,json} default text"],
}


def describe(action):
    words = ["/".join(action.option_strings)]
    words += [action.metavar] if action.metavar else []
    words += ["{" + ",".join(action.choices) + "}"] if action.choices else []
    words += [action.type.__name__] if action.type else []
    words += ["required"] if action.required else []
    words += ["default", str(action.default)] if action.default is not None else []
    return " ".join(words)


def test_parser_pins_every_verb_and_flag():
    # an edit to the verb table cannot drop, rename or loosen a flag unseen
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = {}
    for verb, sp in sub.choices.items():
        got[verb] = [describe(a) for a in sp._actions if a.option_strings != ["-h", "--help"]]
        groups = [([describe(a) for a in g._group_actions], g.required) for g in sp._mutually_exclusive_groups]
        assert groups == ([(SOURCE, True)] if PARSER_TABLE[verb][:3] == SOURCE else []), verb
    assert got == PARSER_TABLE


def _modules_after(code):
    """The modules loaded once ``code`` ran in a fresh interpreter without the
    site packages (-S), which is how the benchmark starts one, and what it
    printed before its last line, which holds the loaded names as JSON."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(schubitope.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True)
    *printed, last = proc.stdout.splitlines()
    return "\n".join(printed), set(json.loads(last))


# standard-library modules each cold start used to pay for, none of them used
# once the classes are built: dataclasses (through inspect) and typing
STARTUP_WEIGHT = {"dataclasses", "inspect", "typing", "concurrent.futures"}

# `fractions` and the modules only it loads here: no Fraction can exist
# before something imports it, so the library's type tests never do
NUMBER_MODULES = {"fractions", "decimal", "numbers"}

# `struct`, which only `polytope._unpack` imports, for tables of 256 boxes
# or more
PACKING_MODULES = {"struct", "_struct"}


def test_package_import_loads_no_reference_code():
    # oracles, checks, the CLI and the greedy fillings load only on use:
    # importing `oracles` with the package made a cold `import schubitope`
    # measurably slower.  `lp` and `polyoracle` stay, so that
    # newton-certify's first timed call does not compile them
    _, loaded = _modules_after("import json, schubitope, sys; print(json.dumps([*sys.modules]))")
    ours = {name for name in loaded if name.startswith("schubitope.")}
    assert ours == {f"schubitope.{name}" for name in ("diagrams", "perms", "lp", "polyoracle", "polytope")}
    assert not loaded & {*STARTUP_WEIGHT, *NUMBER_MODULES, *PACKING_MODULES}
    # the package still exports the reference ranks, resolved from `oracles` on use
    from schubitope import oracles

    for name in ("rank_brute", "rank_max_filling"):
        assert getattr(schubitope, name) is getattr(oracles, name)
        assert name in schubitope.__all__


def test_verb_loads_no_verify_suite():
    # only `verify` imports the suite, its oracles and its process pool; a
    # verb that reads no Fraction and no filling loads neither module
    out, loaded = _modules_after(
        "import json, sys; from schubitope import cli; cli.main(['vertices', '--rothe', '2143']); "
        "print(json.dumps([*sys.modules]))"
    )
    assert out == '{"vertices":[[1,0,1,0],[1,1,0,0],[2,0,0,0]]}'
    assert "schubitope.cli" in loaded
    assert not loaded & {"schubitope.checks", "schubitope.oracles", "schubitope.fillings",
                         *STARTUP_WEIGHT, *NUMBER_MODULES, *PACKING_MODULES}


def test_verify_on_one_worker_loads_no_pool():
    out, loaded = _modules_after(
        "import json, sys; from schubitope import cli; "
        "cli.main(['verify', '--jobs', '1', '--only', 'rothe-box-count']); print(json.dumps([*sys.modules]))"
    )
    assert out.splitlines()[-1].startswith("PASS: 1/1 checks passed")
    assert "schubitope.checks" in loaded
    assert not loaded & {"concurrent", *STARTUP_WEIGHT}


def test_every_exported_name_resolves_in_a_fresh_interpreter():
    # names served by the package's __getattr__ resolve by attribute and by
    # a star import alike, and are the objects of their home modules
    out, _ = _modules_after(
        "import json, sys, schubitope\n"
        "got = {name: getattr(schubitope, name) for name in schubitope.__all__}\n"
        "star = {}\n"
        "exec('from schubitope import *', star)\n"
        "print(json.dumps({\n"
        "    'missing': [name for name in schubitope.__all__ if star.get(name) is not got[name]],\n"
        "    'homes': sorted({value.__module__ for value in got.values()}),\n"
        "    'fillings': schubitope.fillings is sys.modules['schubitope.fillings'],\n"
        "}))\n"
        "print(json.dumps([*sys.modules]))"
    )
    doc = json.loads(out)
    assert doc["missing"] == []
    assert doc["homes"] == [f"schubitope.{name}" for name in
                            ("diagrams", "fillings", "lp", "oracles", "perms", "polyoracle", "polytope")]
    assert doc["fillings"] is True


# each of these refuses a float and a bool coordinate, named with its value
REFUSALS = """
from schubitope import certify_vertices, convex_combination, hrep, hull_vertices, member, skyline
from schubitope.lp import solve_nonnegative

h = hrep(skyline((1, 0, 3)))
calls = {
    "member": lambda x: member(h, (1, x, 3)),
    "certify_vertices": lambda x: certify_vertices(h, [(1, 3, 0), (1, x, 3)]),
    "hull_vertices": lambda x: hull_vertices([(0, 0), (1, x)]),
    "convex_combination": lambda x: convex_combination((1, x), [(0, 0)]),
    "solve_nonnegative": lambda x: solve_nonnegative([[1, x]], [1]),
}
"""


def test_type_refusal_before_and_after_fractions_loads():
    # before `fractions` loads, the type tests admit ints alone, and refusing
    # loads it no more than accepting does; after it, Fractions pass too
    out, _ = _modules_after(REFUSALS + (
        "import json, sys\n"
        "messages = {}\n"
        "for name, call in calls.items():\n"
        "    for bad in (0.5, True):\n"
        "        try:\n"
        "            call(bad)\n"
        "        except ValueError as exc:\n"
        "            messages[f'{name} {bad!r}'] = str(exc)\n"
        "print(json.dumps(messages))\n"
        "print(json.dumps('fractions' in sys.modules))\n"
        "from fractions import Fraction\n"
        "half = Fraction(1, 2)\n"
        "print(json.dumps({name: repr(call(half)) for name, call in calls.items()}))\n"
        "print(json.dumps([*sys.modules]))"
    ))
    messages, early, accepted = map(json.loads, out.splitlines())
    expected = {}
    for bad in ("0.5", "True"):
        expected |= {
            f"member {bad}": f"point coordinate 2 is {bad}, expected an integer or a Fraction",
            f"certify_vertices {bad}": f"point coordinate 2 is {bad}, expected an integer or a Fraction",
            f"hull_vertices {bad}": f"point (1, {bad}) has coordinate {bad}, expected an integer or a Fraction",
            f"convex_combination {bad}": f"point (1, {bad}) has coordinate {bad}, expected an integer or a Fraction",
            f"solve_nonnegative {bad}": f"LP entry {bad} is not an integer or a Fraction",
        }
    assert messages == expected
    assert early is False
    # after `import fractions` each answers as it does in this process
    here = {}
    exec(REFUSALS, here)
    assert accepted == {name: repr(call(Fraction(1, 2))) for name, call in here["calls"].items()}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "schubitope.cli", "vertices", "--skyline", "1,0,3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == '{"vertices":[[1,0,3],[1,3,0],[3,0,1],[3,1,0]]}'
