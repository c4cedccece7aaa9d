"""What each entry point loads, each checked in a fresh interpreter:
`import glkit` loads no submodule, the package resolves its public names
on first access, `parse` loads only `syntax` and `limits` besides `cli`,
`check-cert` adds only `certcheck`, and only the commands that use the
proof kernel or bisimulation load `calculus` or `bisim`."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import glkit
from glkit import calculus, cli, completeness, syntax

SRC = str(Path(glkit.__file__).parents[1])
KERNEL = {"glkit.calculus", "glkit.bisim"}
MODEL = {"worlds": ["u", "v"], "rel": [["u", "v"]], "val": {"p": ["v"]}}


def fresh(code: str):
    """Run code in a fresh interpreter that imports glkit from the tree
    under test; return the JSON value it prints last."""
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r})\n{code}"],
        capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def loaded_after(*argvs) -> set[str]:
    """The glkit modules loaded after `cli.main` runs each argv in turn."""
    return set(fresh(
        "import json\n"
        "from glkit import cli\n"
        f"for argv in {list(argvs)!r}:\n"
        "    cli.main(argv)\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('glkit')]))"
    ))


@pytest.fixture
def files(tmp_path):
    cert, proof, model = tmp_path / "cert.json", tmp_path / "proof.json", tmp_path / "m.json"
    assert cli.main(["decide", "Box p --> p", "--cert", str(cert)]) == 1
    assert cli.main(["lemma", "imp_refl", "p", "--emit", str(proof)]) == 0
    model.write_text(json.dumps(MODEL))
    return {"cert": str(cert), "proof": str(proof), "model": str(model)}


def test_import_glkit_loads_no_submodule():
    assert fresh("import json, glkit\n"
                 "print(json.dumps([m for m in sys.modules if m.startswith('glkit.')]))") == []


@pytest.mark.parametrize("command", ["decide", "check-cert", "parse", "check-model", "frame-check"])
def test_decide_side_commands_load_neither_kernel_nor_bisim(command, files):
    argv = {
        "decide": ["decide", "Box p --> p", "--json"],
        "check-cert": ["check-cert", files["cert"]],
        "parse": ["parse", "p && q"],
        "check-model": ["check-model", files["model"], "Box p"],
        "frame-check": ["frame-check", files["model"]],
    }[command]
    loaded = loaded_after(argv)
    assert "glkit.cli" in loaded and not loaded & KERNEL, loaded


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["parse", "p && q"], set()),
        (["check-model", "MODEL", "Box p"], {"glkit.kripke", "glkit.certcheck"}),
        (["frame-check", "MODEL"], {"glkit.kripke", "glkit.certcheck"}),
        (["decide", "Box p --> p"], {"glkit.kripke", "glkit.certcheck", "glkit.completeness"}),
        # The checker reads the document itself and parses no formula.
        (["check-cert", "CERT"], {"glkit.certcheck"}),
    ],
    ids=["parse", "check-model", "frame-check", "decide", "check-cert"],
)
def test_each_command_loads_only_what_it_uses(argv, modules, files):
    argv = [{"MODEL": files["model"], "CERT": files["cert"]}.get(a, a) for a in argv]
    base = {"glkit", "glkit.cli", "glkit.syntax", "glkit.limits"}
    assert loaded_after(argv) == base | modules


def test_decide_then_check_cert_load_neither(files):
    loaded = loaded_after(["decide", "Box p --> p"], ["check-cert", files["cert"]])
    assert {"glkit.completeness", "glkit.kripke", "glkit.syntax"} <= loaded
    assert not loaded & KERNEL, loaded


@pytest.mark.parametrize(
    "command, module",
    [("lemma", "glkit.calculus"), ("check-proof", "glkit.calculus"), ("bisim", "glkit.bisim")],
)
def test_kernel_and_bisim_commands_load_their_module(command, module, files):
    argv = {
        "lemma": ["lemma", "imp_refl", "p"],
        "check-proof": ["check-proof", files["proof"]],
        "bisim": ["bisim", files["model"], files["model"]],
    }[command]
    loaded = loaded_after(argv)
    assert module in loaded and not loaded & KERNEL - {module}, loaded


def test_completeness_imports_only_syntax_kripke_limits():
    loaded = fresh("import json, glkit.completeness\n"
                   "print(json.dumps([m for m in sys.modules if m.startswith('glkit.')]))")
    assert set(loaded) == {
        "glkit.completeness", "glkit.certcheck", "glkit.kripke", "glkit.limits", "glkit.syntax"
    }


def test_certcheck_imports_no_other_glkit_module():
    loaded = fresh("import json, glkit.certcheck\n"
                   "print(json.dumps([m for m in sys.modules if m.startswith('glkit.')]))")
    assert loaded == ["glkit.certcheck"]


def test_every_public_name_is_its_owners_object():
    # In a fresh interpreter, so that each name goes through __getattr__.
    mismatched = fresh(
        "import importlib, json, glkit\n"
        "bad = []\n"
        "for name in glkit.__all__:\n"
        "    owner = importlib.import_module('glkit.' + glkit._OWNER[name])\n"
        "    want = owner if owner.__name__ == 'glkit.' + name else getattr(owner, name)\n"
        "    if getattr(glkit, name) is not want:\n"
        "        bad.append(name)\n"
        "print(json.dumps(bad))"
    )
    assert mismatched == []
    assert glkit.conjlist is syntax.conjlist is calculus.conjlist is completeness.conjlist


def test_dir_and_star_import_list_every_name():
    names = fresh(
        "import json, glkit\n"
        "listed = dir(glkit)\n"
        "ns = {}\n"
        "exec('from glkit import *', ns)\n"
        "print(json.dumps([sorted(glkit.__all__), listed, sorted(set(ns) - {'__builtins__'})]))"
    )
    every, listed, bound = names
    assert set(every) <= set(listed)
    assert bound == every
    assert {"decide", "lemma", "largest_bisimulation", "kripke"} <= set(every)
    # The command-line module stays out, so a star import loads no argparse.
    assert "cli" not in every


def test_submodule_attribute_without_import():
    assert fresh("import json, glkit\n"
                 "print(json.dumps(glkit.kripke.__name__))") == "glkit.kripke"


def test_unknown_attribute_raises_the_standard_error():
    with pytest.raises(AttributeError, match=r"^module 'glkit' has no attribute 'no_such_name'$"):
        glkit.no_such_name
    assert not hasattr(glkit, "no_such_name")
