"""README as a checked map: its command-line examples, the error messages
its prose quotes, the package names it backticks and the caps it names
must all match the code."""
import importlib
import json
import pathlib
import re
import shlex

import pytest

from conftest import D9
import schubitope
from schubitope import checks, cli, diagrams

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# the caps README names, each as `module.NAME` = value
CAPS = {"polytope.HREP_CAP", "polytope.SWEEP_CAP", "oracles.SWEEP_CAP", "oracles.ENUMERATION_CAP",
        "polyoracle.SCHUBERT_CAP", "polyoracle.KEY_CAP_N", "polyoracle.KEY_CAP_PART"}


def command_block():
    """The lines of the sh block of the "Command line" section."""
    section = README.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()


def examples():
    """(argv, shown) per `schubitope` line of the block that is run, in order:
    the verb's arguments and the output its comment shows."""
    out = []
    for line in command_block():
        command, _, shown = line.partition("  #")
        argv = shlex.split(command)
        if argv[0] == "schubitope" and argv[1] != "verify":
            out.append((argv[1:], shown.strip()))
    return out


def resolve(dotted: str):
    """The package object a dotted name such as `oracles.SWEEP_CAP` or
    `HRep.table` names: each part an attribute, a submodule or a field."""
    obj, parts = schubitope, dotted.split(".")
    for part in parts[parts[0] == "schubitope":]:
        if part in getattr(obj, "_fields", ()):
            return None  # a value class's field lives on its instances
        obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(f"{obj.__name__}.{part}")
    return obj


def test_block_holds_only_commands_and_its_input():
    lines = command_block()
    # one line writes the 9-box diagram of `column_word`'s doctest, which
    # the theta and rank examples read
    assert lines[0] == f"echo '{json.dumps(diagrams.to_json_dict(D9), separators=(',', ':'))}' > d9.json"
    assert all(line.startswith("schubitope ") for line in lines[1:])
    # `verify` is not run here: one line opens a 4-worker pool, and
    # tests/test_cli.py::TestVerify and tests/test_checks.py run its checks
    assert sum(shlex.split(line)[1] == "verify" for line in lines[1:]) == 2


def test_command_line_examples(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    command = shlex.split(command_block()[0])
    (tmp_path / command[-1]).write_text(command[1])
    for argv, shown in examples():
        assert cli.main(argv) == 0, argv
        captured = capsys.readouterr()
        assert captured.err == "", argv
        out = " / ".join(captured.out.rstrip("\n").split("\n"))
        if shown.endswith("..."):  # a prefix of the output
            assert out.startswith(shown[:-3]), (argv, out)
        else:
            assert out == shown, (argv, out)


def test_quoted_errors(capsys):
    quoted = re.findall(r"`([a-z]+ --[^`]*)` prints\s+`(error: [^`]*)`", README)
    assert {command for command, _ in quoted} >= {
        "rank --skyline 1,0,3 --set 5", "bruhat --u 12 --w 321", "verify --only nope"}
    for command, message in quoted:
        assert cli.main(shlex.split(command)) == 2, command
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message + "\n"), command


def test_dotted_names_resolve():
    # file names such as d9.json are no package names
    names = {name for name in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", README)
             if name.rsplit(".", 1)[1] not in {"json", "py", "md"}}
    assert CAPS <= names and "HRep.table" in names
    for name in sorted(names):
        try:
            resolve(name)
        except (AttributeError, ImportError):
            pytest.fail(f"README names `{name}`, which the package does not have")


def test_caps_and_counts():
    caps = dict(re.findall(r"`([\w.]+_CAP\w*)` = (\d+)", README))
    assert caps.keys() == CAPS
    for name, value in caps.items():
        assert resolve(name) == int(value), name
    assert f"`verify` runs {len(checks.check_names())} checks" in README
    assert f"the largest scope, {checks.largest_scope()}." in README
