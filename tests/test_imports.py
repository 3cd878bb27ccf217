"""What each CLI run loads, and the package's lazy exports.

Every CLI run starts a fresh interpreter that compiles the modules it
imports, so the set of ``classfield`` modules a subcommand loads is a
machine-independent measure of its start-up cost.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import classfield

FIXTURES = Path(__file__).parent.parent / "src" / "classfield" / "fixtures"

GROUP = {"classfield", "classfield.cli", "classfield.abelian",
         "classfield.groups", "classfield.transfer", "classfield.report"}
MACKEY = GROUP | {"classfield.mackey", "classfield.ramification"}
CFT = MACKEY | {"classfield.cft"}

S3 = [[0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3], [2, 0, 1, 5, 3, 4],
      [3, 5, 4, 0, 2, 1], [4, 3, 5, 1, 0, 2], [5, 4, 3, 2, 1, 0]]


def loaded_modules(code: str) -> tuple[int, set]:
    """Run ``code`` in a fresh interpreter; its exit code and the classfield
    modules it loaded (``code`` may set ``exit_code``)."""
    script = (f"import json, sys\nexit_code = 0\n{code}\n"
              "print(json.dumps([m for m in sys.modules if m == 'classfield'"
              " or m.startswith('classfield.')]))\n"
              "sys.exit(exit_code)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, set(json.loads(proc.stdout.splitlines()[-1]))


def cli_modules(tmp_path, sub: str, scenario) -> tuple[int, set]:
    if isinstance(scenario, Path):
        path = scenario
    else:
        path = tmp_path / "in.json"
        path.write_text(json.dumps(scenario))
    argv = [sub, "--input", str(path), "--out", str(tmp_path / "out.json")]
    return loaded_modules("from classfield.cli import main\n"
                          f"exit_code = main({argv!r})")


class TestModuleFootprint:
    """Each subcommand loads the layers it runs and nothing else."""

    @pytest.mark.parametrize("sub, scenario, code, expected", [
        ("hrv", FIXTURES / "hrv_rank2.json", 0,
         {"classfield", "classfield.cli", "classfield.hrv", "classfield.report"}),
        ("group", {"group": {"cayley_table": S3}}, 0, GROUP),
        ("group", {"group": {"builtin": "S3"}}, 0, GROUP | {"classfield.catalog"}),
        ("mackey", {"group": {"cayley_table": S3},
                    "functor": {"kind": "abelianization"}}, 0, MACKEY),
        ("mackey", {"group": {"builtin": "D4"},
                    "functor": {"kind": "abelianization"}}, 0,
         MACKEY | {"classfield.catalog"}),
        ("cft", FIXTURES / "c2_unramified.json", 0, CFT),
        ("cft", FIXTURES / "c2_negation.json", 1, CFT),
        ("mackey", {"functor": {"kind": "abelianization"}}, 2,
         {"classfield", "classfield.cli"}),
        ("hrv", [], 2, {"classfield", "classfield.cli"}),
    ])
    def test_subcommand_loads_only_its_layers(self, tmp_path, sub, scenario,
                                              code, expected):
        assert cli_modules(tmp_path, sub, scenario) == (code, expected)

    def test_package_import_loads_no_engine_module(self):
        assert loaded_modules("import classfield") == (0, {"classfield"})


class TestLazyExports:
    def test_every_export_is_the_defining_modules_object(self):
        for name in classfield.__all__:
            obj = getattr(classfield, name)
            home = sys.modules[obj.__module__]
            assert home.__name__.startswith("classfield.")
            assert vars(home)[name] is obj

    def test_from_import(self):
        from classfield import AbHom
        assert AbHom is importlib.import_module("classfield.abelian").AbHom

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            classfield.nope
