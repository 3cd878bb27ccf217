"""What each CLI run loads, the package's lazy exports, and the
definitions in ``src/`` that nothing in ``src/`` calls.

Every CLI run starts a fresh interpreter that compiles the modules it
imports, so the set of ``classfield`` modules a subcommand loads is a
machine-independent measure of its start-up cost.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import classfield

SRC = Path(__file__).parent.parent / "src" / "classfield"
FIXTURES = SRC / "fixtures"

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


PAPER, BENCH, WRITER = "paper object", "bench entry point", "tables writer"

# Definitions that no code in src/ refers to, each with why it stays: a
# paper object that tests check, a function that bench/ calls, or the
# writer of the CLI's functor tables input.
KEPT_UNCALLED = {
    "abelian.solve_integer": BENCH,
    "cft.check_hilbert90": PAPER,
    "cft.induce_valuation_family": PAPER,
    "cft.lattice_property_check": PAPER,
    "cft.norm_subgroup_assignment": PAPER,
    "cft.tautological_assignment": PAPER,
    "cft.unramified_upsilon": PAPER,
    "groups.lift_double_coset_transversal": PAPER,
    "groups.t_permutation": PAPER,
    "mackey.SubgroupSystem.is_arithmetic": PAPER,
    "mackey.adjunction_maps": PAPER,
    "mackey.check_galois_descent": PAPER,
    "mackey.functor_to_json": WRITER,
    "ramification.SupernaturalNumber.divides": PAPER,
    "ramification.SupernaturalNumber.from_int": PAPER,
    "ramification.SupernaturalNumber.p_part": PAPER,
    "ramification.power_subgroup": PAPER,
    "transfer.transfer_between": PAPER,
    "transfer.transfer_via_lambda": PAPER,
    "transfer.trivial_system": PAPER,
    "transfer.validate_abelianization_system": PAPER,
}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def uncalled_definitions() -> set[str]:
    """Module-level functions and classes, and methods, of ``src/classfield``
    whose name no ``ast.Name`` or ``ast.Attribute`` in those files spells;
    an import alone does not count.  Dunders are called by Python itself."""
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    spelled = {node.id if isinstance(node, ast.Name) else node.attr
               for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, (ast.Name, ast.Attribute))}
    defs = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{module}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                defs.update((f"{module}.{node.name}.{item.name}", item.name)
                            for item in node.body if isinstance(item, ast.FunctionDef))
    return {qual for qual, name in defs.items()
            if not _dunder(name) and name not in spelled}


class TestNoUncalledDefinitions:
    def test_every_uncalled_definition_is_kept_on_purpose(self):
        """A definition that only its own tests call belongs in ``tests/``.

        Blind spots: a name counts as called once anything in ``src/``
        spells it, so the scan misses a method whose name another class or
        attribute uses (such as ``to_json``), and a function that only
        calls itself."""
        assert uncalled_definitions() == set(KEPT_UNCALLED)
