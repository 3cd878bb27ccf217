"""Golden CLI reports: refactors must keep every report byte for byte.

Each case runs ``cli.main`` in process and compares the written report
with the committed file under ``tests/golden/``.  After a deliberate
change of output, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of ``tests/golden/``.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from classfield import cli
from classfield.catalog import catalog
from classfield.mackey import abelianization_functor, full_system, functor_to_json
from classfield.transfer import commutator_system

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = Path(__file__).parent.parent / "src" / "classfield" / "fixtures"
CFT_FIXTURES = ("c2_unramified", "c2_negation", "c4_unramified", "v4_projection")


def _mackey_scenario(name: str, functor: dict) -> dict:
    return {"group": {"builtin": name}, "functor": functor}


def _perm_module(name: str) -> dict:
    """Z/3-permutation module on the first index-4 subgroup of the group."""
    stab = next(h for h in catalog()[name].all_subgroups() if h.index == 4)
    return {"kind": "fixed_point",
            "module": {"kind": "permutation", "torsion": 3,
                       "stabilizer": {"elements": list(stab.elements)}}}


def _cases():
    """(golden file, subcommand, scenario path or JSON data, extra argv, exit)."""
    out = []
    for name in CFT_FIXTURES:
        code = 1 if name == "c2_negation" else 0
        path = FIXTURES / f"{name}.json"
        out.append((f"cft_{name}", "cft", path, ["--seed", "0"], code))
        out.append((f"cft_{name}_certify", "cft", path,
                    ["--seed", "0", "--certify"], code))
    out.append(("hrv_rank2", "hrv", FIXTURES / "hrv_rank2.json",
                ["--seed", "0"], 0))
    for name in ("D4", "S4"):
        out.append((f"mackey_{name}_pi_ab", "mackey",
                    _mackey_scenario(name, {"kind": "abelianization"}), [], 0))
        out.append((f"mackey_{name}_fixed_trivial", "mackey",
                    _mackey_scenario(name, {"kind": "fixed_point"}), [], 0))
        out.append((f"mackey_{name}_fixed_perm", "mackey",
                    _mackey_scenario(name, _perm_module(name)), [], 0))
    out.append(("group_S4", "group", {"group": {"builtin": "S4"}}, [], 0))
    return out


CASES = _cases()


def _report(tmp: Path, sub: str, scenario, extra) -> tuple[int, bytes]:
    if isinstance(scenario, Path):
        path = scenario
    else:
        path = tmp / "scenario.json"
        path.write_text(json.dumps(scenario))
    out = tmp / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([sub, "--input", str(path), "--out", str(out), *extra])
    return code, out.read_bytes() if out.exists() else b""


def _pi_ab_tables(name: str) -> bytes:
    system = full_system(catalog()[name])
    phi = abelianization_functor(system, commutator_system(system))
    return (json.dumps(functor_to_json(phi), sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_cli_report_is_golden(case, tmp_path):
    name, sub, scenario, extra, expected_code = case
    code, report = _report(tmp_path, sub, scenario, extra)
    assert code == expected_code
    assert report == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", ["D4", "S4"])
def test_pi_ab_tables_are_golden(name):
    assert _pi_ab_tables(name) == (GOLDEN / f"pi_ab_tables_{name}.json").read_bytes()


def regenerate():
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, sub, scenario, extra, _ in CASES:
            _, report = _report(Path(tmp), sub, scenario, extra)
            (GOLDEN / f"{name}.json").write_bytes(report)
    for name in ("D4", "S4"):
        (GOLDEN / f"pi_ab_tables_{name}.json").write_bytes(_pi_ab_tables(name))


if __name__ == "__main__":
    sys.exit(regenerate())
