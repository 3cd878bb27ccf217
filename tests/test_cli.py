import contextlib
import io
import json
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


FIXTURES = Path(__file__).parent.parent / "src" / "classfield" / "fixtures"


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "classfield.cli", *argv],
        capture_output=True, text=True)
    return proc


class TestCftScenarios:
    def test_c2_fixture_passes(self):
        proc = run_cli("cft", "--input", str(FIXTURES / "c2_unramified.json"))
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert all(c["status"] == "pass" for c in out["checks"])
        # the Z/2 -> Z/2 table is present and an isomorphism
        main = [t for t in out["tables"]
                if t["source"]["invariant_factors"] == [2]]
        assert main and main[0]["is_iso"] and main[0]["matrix"] == [[1]]

    def test_c4_and_v4_pass(self):
        for name in ("c4_unramified.json", "v4_projection.json"):
            proc = run_cli("cft", "--input", str(FIXTURES / name))
            assert proc.returncode == 0, proc.stderr

    def test_negation_fails(self):
        proc = run_cli("cft", "--input", str(FIXTURES / "c2_negation.json"))
        assert proc.returncode == 1
        out = json.loads(proc.stdout)
        statuses = {c["name"]: c["status"] for c in out["checks"]}
        assert statuses["fnd_valid"] == "fail"
        assert out["tables"] == []

    def test_missing_valuation_block(self, tmp_path):
        data = json.loads((FIXTURES / "c2_unramified.json").read_text())
        del data["valuation"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        proc = run_cli("cft", "--input", str(path))
        assert proc.returncode == 2
        assert "valuation" in proc.stderr

    def test_certify_flag_adds_certificates(self):
        proc = run_cli("cft", "--input", str(FIXTURES / "c2_unramified.json"),
                       "--certify")
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert any(c["name"].startswith("upsilon_tilde_multiplicative")
                   for c in out["checks"])

    def test_each_verdict_computed_once(self, monkeypatch, tmp_path):
        # the composite checks nest their sub-verdicts, and the report reads
        # them there: the valuation check inside the urFND inside the FND,
        # and Upsilon's naturality inside the reduced verification
        from classfield import cft, cli, mackey
        calls = Counter()

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        for name in ("validate_valuation", "validate_urfnd", "validate_fnd",
                     "reduced_verification", "validate_functor_morphism"):
            count(cft, name)
        count(mackey, "validate_functor_morphism")
        assert cli.main(["cft", "--input", str(FIXTURES / "c4_unramified.json"),
                         "--out", str(tmp_path / "out.json")]) == 0
        # naturality is checked once for the valuation, once for Upsilon
        assert calls == {"validate_valuation": 1, "validate_urfnd": 1,
                         "validate_fnd": 1, "reduced_verification": 1,
                         "validate_functor_morphism": 2}


    def test_one_unramified_spectrum(self, monkeypatch, tmp_path):
        # the default spectrum is the unramified one, which the FND check
        # reuses instead of computing, building and validating it again
        from classfield import cft, cli
        calls, extensions = [], []
        check = cft.Spectrum._validate_extension
        monkeypatch.setattr(cft.Spectrum, "_validate_extension",
                            lambda self: calls.append(1) or check(self))
        extension = cft.unramified_extension
        monkeypatch.setattr(cft, "unramified_extension",
                            lambda *args: extensions.append(1) or extension(*args))
        assert cli.main(["cft", "--input", str(FIXTURES / "c4_unramified.json"),
                         "--out", str(tmp_path / "out.json")]) == 0
        assert len(calls) == 1 and len(extensions) == 1


class TestGroupReport:
    def test_s3(self, tmp_path):
        path = tmp_path / "s3.json"
        path.write_text(json.dumps({"builtin": "S3"}))
        proc = run_cli("group", "--input", str(path))
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["order"] == 6
        assert out["abelianization"] == {"free_rank": 0,
                                         "invariant_factors": [2]}
        # transfer to A3 is the constant identity table
        a3 = [t for t in out["transfer_tables"] if t["index"] == 2]
        assert a3 and a3[0]["transfer"] == [0] * 6

    def test_trivial_group(self, tmp_path):
        path = tmp_path / "c1.json"
        path.write_text(json.dumps({"cayley_table": [[0]]}))
        proc = run_cli("group", "--input", str(path))
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["subgroup_counts"] == {"1": 1}

    def test_malformed_table(self, tmp_path):
        path = tmp_path / "bad.json"
        # valid Latin square with identity but broken associativity
        path.write_text(json.dumps({"cayley_table": [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]}))
        proc = run_cli("group", "--input", str(path))
        assert proc.returncode == 2
        assert "associativity" in proc.stderr

    def test_subgroup_option(self, tmp_path):
        gpath = tmp_path / "s3.json"
        gpath.write_text(json.dumps({"builtin": "S3"}))
        spath = tmp_path / "sub.json"
        spath.write_text(json.dumps({"generators": [1]}))
        proc = run_cli("group", "--input", str(gpath),
                       "--subgroup", str(spath))
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert len(out["transfer_tables"]) == 1


class TestMackeyCheck:
    def test_pi_ab(self, tmp_path):
        path = tmp_path / "mk.json"
        path.write_text(json.dumps(
            {"group": {"builtin": "S3"},
             "functor": {"kind": "abelianization"}}))
        proc = run_cli("mackey", "--input", str(path))
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        names = {c["name"] for c in out["checks"]}
        assert {"ric_axioms", "stability", "cohomological",
                "mackey_formula"} <= names

    def test_fixed_point_builtin(self, tmp_path):
        path = tmp_path / "mk.json"
        path.write_text(json.dumps(
            {"group": {"builtin": "D4"},
             "functor": {"kind": "fixed_point",
                         "module": {"kind": "permutation",
                                    "stabilizer": {"generators": [1]},
                                    "torsion": 3}}}))
        proc = run_cli("mackey", "--input", str(path))
        assert proc.returncode == 0


    def test_tables_functor_gets_the_mackey_formula(self, tmp_path):
        # the tables carry their own subgroup system, which is validated
        # like a scenario's; unvalidated, it failed as "not a Mackey system"
        _, scenario = _scenarios()[3]
        path = tmp_path / "tables.json"
        path.write_text(json.dumps(scenario))
        proc = run_cli("mackey", "--input", str(path))
        assert proc.returncode == 0, proc.stderr
        statuses = {c["name"]: c["status"] for c in json.loads(proc.stdout)["checks"]}
        assert statuses["mackey_formula"] == "pass"

    def test_invalid_system_is_an_input_error(self, tmp_path):
        # S_r(S3) without one subgroup of order 2 is not conjugation-
        # equivariant: the system is refused when it is built, from a
        # system block or from tables, with one line and no traceback
        from classfield.catalog import catalog
        from classfield.mackey import (
            abelianization_functor, full_system, functor_to_json, system_to_json)
        from classfield.transfer import commutator_system
        s3 = full_system(catalog()["S3"])
        custom = dict(system_to_json(s3), kind="custom")
        tables = functor_to_json(abelianization_functor(s3, commutator_system(s3)))
        for data in (custom, tables["system"]):
            data["res"]["0,1,2,3,4,5"].remove("0,1")
        detail = "S_r not conjugation-equivariant at (2, (0, 1, 2, 3, 4, 5))"
        path = tmp_path / "broken.json"
        for scenario, what in (
                ({"system": custom, "functor": {"kind": "abelianization"}},
                 "subgroup system"),
                ({"functor": {"kind": "tables", "functor": tables}},
                 "functor tables")):
            path.write_text(json.dumps(dict(scenario, group={"builtin": "S3"})))
            proc = run_cli("mackey", "--input", str(path))
            assert proc.returncode == 2, proc.stderr
            assert proc.stderr == f"input error: invalid {what}: {detail}\n"

    def test_tables_system_is_checked_once(self, monkeypatch, tmp_path):
        # by the constructor, over a generating set, and by nothing else
        from classfield import cli, mackey
        _, scenario = _scenarios()[3]
        path = tmp_path / "tables.json"
        path.write_text(json.dumps(scenario))
        calls = []
        check = mackey._system_failure
        monkeypatch.setattr(mackey, "_system_failure",
                            lambda *args: calls.append(1) or check(*args))
        assert cli.main(["mackey", "--input", str(path),
                         "--out", str(tmp_path / "out.json")]) == 0
        assert len(calls) == 1

    def test_checks_run_on_the_system_of_the_tables(self, tmp_path):
        # a valid system that is not a Mackey system: S_r(G) = {G, A, 1} and
        # S_i(G) = {G, B, 1} meet in 1, which is not in S_r(B) = {B}
        from classfield.catalog import catalog
        from classfield.mackey import (
            SubgroupSystem, abelianization_functor, full_system,
            functor_to_json, system_to_json)
        from classfield.transfer import commutator_system
        g = catalog()["C2xC2"]
        one, a, b, c, top = (0,), (0, 1), (0, 2), (0, 3), (0, 1, 2, 3)
        res = {k: {k, one} for k in (one, a, b, c, top)}
        ind = dict(res)
        res[top], res[b], ind[top] = {top, a, one}, {b}, {top, b, one}
        odd = SubgroupSystem(g, g.all_subgroups(), res, ind)
        assert not odd.is_mackey
        full = full_system(g)

        def tables(system):
            return {"kind": "tables", "functor": functor_to_json(
                abelianization_functor(system, commutator_system(system)))}
        # non-Mackey tables, no system block: the default full system is
        # not where they live, and the Mackey formula does not apply
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"group": {"builtin": "C2xC2"},
                                    "functor": tables(odd)}))
        proc = run_cli("mackey", "--input", str(path))
        assert proc.returncode == 0, proc.stderr
        checks = json.loads(proc.stdout)["checks"]
        assert [c["name"] for c in checks] == [
            "subgroup_system_valid", "ric_axioms", "stability", "cohomological"]
        assert all(c["status"] == "pass" for c in checks)
        # tables carry their own system: a system block beside them, which
        # would go unused, is an input error
        path = tmp_path / "full.json"
        path.write_text(json.dumps({
            "group": {"builtin": "C2xC2"},
            "system": dict(system_to_json(odd), kind="custom"),
            "functor": tables(full)}))
        proc = run_cli("mackey", "--input", str(path))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == ("input error: functor tables carry their own "
                               "subgroup system; drop the 'system' block\n")

    def test_cft_runs_on_the_system_of_the_tables(self, tmp_path):
        # C2xC2 tables on the two-point system {1, G}, with no system block:
        # the valuation, spectrum and extension are taken over {1, G}, not
        # over the full system of C2xC2, whose points the tables lack
        from classfield.abelian import FgAbGroup
        from classfield.catalog import catalog
        from classfield.mackey import (
            SubgroupSystem, fixed_point_functor, functor_to_json, trivial_module)
        g = catalog()["C2xC2"]
        one, top = (0,), (0, 1, 2, 3)
        edges = {one: {one}, top: {top, one}}
        two = SubgroupSystem(g, [g.trivial_subgroup(), g.full_subgroup()],
                             edges, dict(edges))
        module = trivial_module(g, FgAbGroup(1))
        scenario = {
            "group": {"builtin": "C2xC2"},
            "ramification": {"modulus": 2, "d": [0, 0, 1, 1], "primes_P": [2]},
            "functor": {"kind": "tables", "functor": functor_to_json(
                fixed_point_functor(module, two))},
            "valuation": {"omega": {"modulus": 0}, "components": "identity"}}
        path = tmp_path / "two_point.json"
        path.write_text(json.dumps(scenario))
        proc = run_cli("cft", "--input", str(path))
        assert proc.returncode in (0, 1) and "Traceback" not in proc.stderr, proc.stderr
        out = json.loads(proc.stdout)
        assert [c["name"] for c in out["checks"]][:3] == [
            "valuation_valid", "urfnd_valid", "fnd_valid"]
        assert proc.returncode == (0 if all(c["status"] == "pass"
                                            for c in out["checks"]) else 1)
        scenario["system"] = {"kind": "full"}
        path.write_text(json.dumps(scenario))
        for sub in ("cft", "mackey"):
            proc = run_cli(sub, "--input", str(path))
            assert proc.returncode == 2 and "own subgroup system" in proc.stderr

    def test_matrix_entries_must_be_integers(self, tmp_path):
        # 1.5 failed a check (exit 1), and 1.0 and true passed as the map 1
        # (exit 0): a table that is not integral is an input error
        from classfield.abelian import AbHom, FgAbGroup
        from classfield.catalog import catalog
        from classfield.mackey import (
            SubgroupSystem, fixed_point_functor, functor_to_json, trivial_module)
        g = catalog()["C2xC2"]
        one, top = (0,), (0, 1, 2, 3)
        edges = {one: {one}, top: {top, one}}
        two = SubgroupSystem(g, [g.trivial_subgroup(), g.full_subgroup()],
                             edges, dict(edges))
        tables = functor_to_json(fixed_point_functor(trivial_module(g, FgAbGroup(1)), two))
        path = tmp_path / "tables.json"
        scenario = {"group": {"builtin": "C2xC2"},
                    "functor": {"kind": "tables", "functor": tables}}
        path.write_text(json.dumps(scenario))
        assert run_cli("mackey", "--input", str(path)).returncode == 0
        edge = next(e for e in tables["res"] if e["matrix"] == [[1]])
        for entry in (1.5, 1.0, True):
            edge["matrix"] = [[entry]]
            path.write_text(json.dumps(scenario))
            proc = run_cli("mackey", "--input", str(path))
            assert proc.returncode == 2, (entry, proc.returncode)
            assert "matrix entries must be integers" in proc.stderr
            assert "Traceback" not in proc.stderr
            with pytest.raises(ValueError, match="must be integers"):
                AbHom.from_json({"domain": {"free_rank": 1},
                                 "codomain": {"free_rank": 1}, "matrix": [[entry]]})

    def test_con_element_must_be_a_group_element(self, tmp_path):
        # true in place of 1, and an extra entry at -1 or -3 (an element by
        # negative indexing), passed (exit 0); 1.0 and "1" exited 2 with an
        # internal message
        from classfield.abelian import FgAbGroup
        from classfield.catalog import catalog
        from classfield.mackey import (
            SubgroupSystem, fixed_point_functor, functor_to_json, trivial_module)
        g = catalog()["C2xC2"]
        one, top = (0,), (0, 1, 2, 3)
        edges = {one: {one}, top: {top, one}}
        two = SubgroupSystem(g, [g.trivial_subgroup(), g.full_subgroup()],
                             edges, dict(edges))
        good = functor_to_json(fixed_point_functor(trivial_module(g, FgAbGroup(1)), two))
        path = tmp_path / "tables.json"
        for g_entry, extra in ((True, False), (1.0, False), ("1", False),
                               (-1, True), (-3, True), (4, True)):
            tables = json.loads(json.dumps(good))
            edge = next(e for e in tables["con"] if e["g"] == 1)
            if extra:
                tables["con"].append(dict(edge, g=g_entry))
            else:
                edge["g"] = g_entry
            path.write_text(json.dumps({"group": {"builtin": "C2xC2"},
                                        "functor": {"kind": "tables", "functor": tables}}))
            proc = run_cli("mackey", "--input", str(path))
            assert proc.returncode == 2, (g_entry, proc.returncode)
            assert proc.stderr == ("input error: invalid functor tables: con entry g "
                                   "must be an integer from 0 to 3\n"), g_entry


class TestReportNest:
    def test_nest_carries_the_verdict_and_keeps_the_part(self):
        from classfield.report import CheckItem, Report
        inner = Report()
        inner.add("first", True)
        inner.add("second", False, (1, 2))
        item = CheckItem("morphism", False, ("res", 1, 0), detail="res square fails")
        outer = Report()
        outer.nest("inner", inner)
        outer.nest("item", item)
        outer.nest("fine", CheckItem("fine", True))
        assert outer.checks == [CheckItem("inner", False, inner.checks[1]),
                                CheckItem("item", False, ("res", 1, 0)),
                                CheckItem("fine", True)]
        assert outer.parts["inner"] is inner and outer.parts["item"] is item
        assert outer.first_failure().witness == CheckItem("second", False, (1, 2))
        # golden reports print nested verdicts by repr: no detail, no parts
        assert "detail" not in repr(item) and "parts" not in repr(outer)


class TestHrv:
    def test_fixture(self):
        proc = run_cli("hrv", "--input", str(FIXTURES / "hrv_rank2.json"))
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["valuations"][0]["value"] == [1, 0]
        assert out["roundtrips"][0]["violations"] == 0

    def test_zero_element_surfaced(self, tmp_path):
        data = {"elements": [{"p": 2, "rank": 1,
                              "window": {"lo": [-2], "hi": [2]},
                              "support": []}],
                "tasks": ["valuation"]}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(data))
        proc = run_cli("hrv", "--input", str(path))
        assert proc.returncode == 1
        out = json.loads(proc.stdout)
        assert "error" in out["valuations"][0]

    def test_no_samples_is_an_input_error(self, tmp_path):
        # a sampled check with no samples would pass without checking anything
        data = json.loads((FIXTURES / "hrv_rank2.json").read_text())
        for samples in (0, -5):
            data.update(samples=samples, tasks=["roundtrip", "axioms"])
            path = tmp_path / f"samples{samples}.json"
            path.write_text(json.dumps(data))
            proc = run_cli("hrv", "--input", str(path))
            assert proc.returncode == 2, proc.stderr
            assert proc.stderr.startswith("input error: hrv samples")


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        outputs = []
        for i in range(2):
            out_path = tmp_path / f"r{i}.json"
            proc = run_cli("cft", "--input",
                           str(FIXTURES / "v4_projection.json"),
                           "--out", str(out_path), "--seed", "0")
            assert proc.returncode == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_text_format(self):
        proc = run_cli("cft", "--input", str(FIXTURES / "c2_unramified.json"),
                       "--format", "text")
        assert proc.returncode == 0
        assert "PASS" in proc.stdout


class TestExitCodeContract:
    """Malformed input exits 2 with a one-line message, never a traceback."""

    MALFORMED = [
        ("mackey", {"functor": {"kind": "abelianization"}}, "'group'"),
        ("cft", {"ramification": {"modulus": 2, "d": [0, 1]}}, "'group'"),
        ("group", [[0, 1], [1, 0]], "JSON object"),
        ("mackey", {"group": {"builtin": "C2"}, "ramification": [2, [0, 1]],
                    "functor": {"kind": "abelianization"}}, "'ramification'"),
        ("cft", {"group": {"builtin": "C2"}, "ramification": 2},
         "'ramification'"),
        ("group", {"group": [[0, 1], [1, 0]]}, "group must be a JSON object"),
        ("group", {"group": {"builtin": "C5000"}}, "unknown builtin group"),
        ("hrv", [], "scenario must be a JSON object"),
        ("hrv", {"tasks": "roundtrip"}, "hrv tasks must be a list"),
        ("hrv", {"elements": [{"p": 2}]}, "invalid Laurent element"),
        # a scenario that names no check to run must not pass vacuously
        ("hrv", {"tasks": ["bogus"]}, "unknown hrv task 'bogus'"),
        ("hrv", {"tasks": []}, "hrv tasks must name at least one of"),
        ("hrv", {"tasks": ["roundtrip"]}, "'roundtrip' needs a field or elements"),
        ("hrv", {}, "'valuation' needs elements"),
    ]

    def test_malformed_shapes_exit_2(self, tmp_path):
        for i, (sub, data, needle) in enumerate(self.MALFORMED):
            path = tmp_path / f"bad{i}.json"
            path.write_text(json.dumps(data))
            proc = run_cli(sub, "--input", str(path))
            assert proc.returncode == 2, (sub, data, proc.stderr)
            assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1
            assert proc.stderr.startswith("input error:") and needle in proc.stderr

    def test_unusable_system_or_tables_exit_2(self, tmp_path):
        # both used to crash in the functor builders or checkers (exit 1)
        (_, tables), (_, custom) = _scenarios()[3:5]
        tables["functor"]["functor"]["con"] = []
        del custom["system"]["res"]["0"]
        for i, (data, needle) in enumerate(((tables, "functor tables"),
                                            (custom, "subgroup system"))):
            path = tmp_path / f"bad{i}.json"
            path.write_text(json.dumps(data))
            proc = run_cli("mackey", "--input", str(path))
            assert proc.returncode == 2, proc.stderr
            assert proc.stderr.startswith("input error:") and needle in proc.stderr

    def test_model_limit_exits_1(self, monkeypatch):
        # every limit of the finite model met by the engine exits 1 with a
        # one-line message, whichever scenario meets it
        from classfield import cft, cli
        from classfield.cft import NotUrFnd
        from classfield.ramification import (
            DepthInsufficient, InertiaTrivialHorizon, NoLiftInModel)
        for exc in (NoLiftInModel, DepthInsufficient, InertiaTrivialHorizon,
                    NotUrFnd):
            def limit(*args, **kwargs):
                raise exc("the finite model is too shallow")
            monkeypatch.setattr(cft, "upsilon_morphism", limit)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(["cft", "--input", str(FIXTURES / "c2_unramified.json")])
            assert code == 1
            assert err.getvalue() == (f"check failed: {exc.__name__}: "
                                      "the finite model is too shallow\n")

    def test_relabeled_c12_passes(self, tmp_path):
        # C12 with elements 1..11 relabeled by perm: the cosets holding the
        # generators of some (H/U)^ab have no Frobenius lift, so Upsilon
        # takes their values from the lifted cosets
        perm = [0, 7, 11, 1, 5, 8, 4, 6, 3, 2, 10, 9]
        table = [[0] * 12 for _ in range(12)]
        for a in range(12):
            for b in range(12):
                table[perm[a]][perm[b]] = perm[(a + b) % 12]
        d = [perm.index(x) for x in range(12)]
        scenario = {
            "group": {"cayley_table": table},
            "ramification": {"modulus": 12, "d": d, "primes_P": [2, 3]},
            "functor": {"kind": "fixed_point", "module": {"kind": "trivial"}},
            "valuation": {"omega": {"modulus": 0}, "components": "identity"},
            "spectrum": {"kind": "unramified"}, "system": {"kind": "full"}}
        path = tmp_path / "c12.json"
        path.write_text(json.dumps(scenario))
        proc = run_cli("cft", "--input", str(path))
        assert proc.returncode == 0, proc.stderr
        assert all(c["status"] == "pass" for c in json.loads(proc.stdout)["checks"])


class TestBoundedInput:
    """A valid input just over a size bound exits 2 and names the bound."""

    def _run(self, tmp_path, sub, data, timeout=20):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(data))
        return subprocess.run([sys.executable, "-m", "classfield.cli", sub,
                               "--input", str(path)],
                              capture_output=True, text=True, timeout=timeout)

    def test_hrv_samples(self, tmp_path):
        from classfield.cli import MAX_HRV_SAMPLES
        data = json.loads((FIXTURES / "hrv_rank2.json").read_text())
        data.update(samples=MAX_HRV_SAMPLES + 1, tasks=["roundtrip", "axioms"])
        proc = self._run(tmp_path, "hrv", data)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == (f"input error: hrv samples must be from 1 to "
                               f"{MAX_HRV_SAMPLES}\n")

    def test_cayley_table_checked_before_validation(self, tmp_path, monkeypatch):
        from classfield import cli
        from classfield.groups import MAX_INPUT_ORDER, FiniteGroup
        n = MAX_INPUT_ORDER + 1
        table = [[(a + b) % n for b in range(n)] for a in range(n)]

        def validate(self):
            raise AssertionError("the O(n^3) table check ran")
        monkeypatch.setattr(FiniteGroup, "_validate", validate)
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"cayley_table": table}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli.main(["group", "--input", str(path)]) == 2
        assert err.getvalue() == ("input error: invalid group data: group order "
                                  f"exceeds the maximum {MAX_INPUT_ORDER}\n")

    def test_permutation_closure(self, tmp_path):
        from classfield.groups import MAX_INPUT_ORDER
        n = MAX_INPUT_ORDER + 1  # one (n)-cycle generates a group of order n
        cycle = {"degree": n, "perm_generators": [list(range(1, n)) + [0]]}
        # S12 has 479001600 elements: only a closure that stops as soon as
        # it passes the bound answers within the timeout
        s12 = {"degree": 12, "perm_generators": [[1, 0] + list(range(2, 12)),
                                                 list(range(1, 12)) + [0]]}
        for group in (cycle, s12):
            proc = self._run(tmp_path, "group", {"group": group})
            assert proc.returncode == 2, proc.stderr
            assert proc.stderr == ("input error: invalid group data: group order "
                                   f"exceeds the maximum {MAX_INPUT_ORDER}\n")


def _scenarios():
    """Valid scenarios for every subcommand, to be mutated by the fuzz test."""
    from classfield.catalog import catalog
    from classfield.mackey import (abelianization_functor, full_system,
                                   functor_to_json, system_to_json)
    from classfield.transfer import commutator_system
    out = [("cft", json.loads((FIXTURES / f"{name}.json").read_text()))
           for name in ("c2_unramified", "c2_negation")]
    out.append(("hrv", json.loads((FIXTURES / "hrv_rank2.json").read_text())))
    c2 = catalog()["C2"]
    system = full_system(c2)
    tables = functor_to_json(abelianization_functor(system, commutator_system(system)))
    custom = dict(system_to_json(system), kind="custom")
    out += [
        ("mackey", {"group": {"builtin": "C2"},
                    "functor": {"kind": "tables", "functor": tables}}),
        ("mackey", {"group": {"cayley_table": [[0, 1], [1, 0]]}, "system": custom,
                    "functor": {"kind": "fixed_point", "module": {
                        "kind": "permutation", "torsion": 2,
                        "stabilizer": {"elements": [0]},
                        "sign_kernel": {"generators": []}}}}),
        ("group", {"group": {"perm_generators": [[1, 0, 2]], "degree": 3}}),
        ("cft", {"group": {"builtin": "C2"},
                 "ramification": {"modulus": 2, "d": [0, 1]},
                 "functor": {"kind": "fixed_point"},
                 "valuation": {"omega": {"modulus": 0},
                               "components": {"0": [[1]], "0,1": [[1]]}},
                 "spectrum": {"pairs": [[[0, 1], [0]]]}}),
    ]
    return out


def _paths(value, prefix=()):
    yield prefix
    items = (value.items() if isinstance(value, dict) else
             enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _replaced(value, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {k: _replaced(v, rest, new) if k == head else v
                for k, v in value.items()}
    return [_replaced(v, rest, new) if i == head else v
            for i, v in enumerate(value)]


SCHEMA_KEYS = ["group", "builtin", "cayley_table", "perm_generators", "degree",
               "functor", "kind", "module", "underlying", "free_rank",
               "invariant_factors", "kernel", "stabilizer", "torsion",
               "elements", "generators", "system", "base", "res", "ind",
               "ramification", "modulus", "d", "valuation", "omega",
               "components", "spectrum", "pairs", "tasks", "field", "p",
               "rank", "window", "lo", "hi", "support", "exp", "coeff"]
JSON_SCALARS = (st.none() | st.booleans() | st.integers(-2, 6)
                | st.floats(-2, 4, width=16) | st.text(max_size=3)
                | st.sampled_from(["C1", "C2", "full", "custom", "tables",
                                   "fixed_point", "abelianization", "identity",
                                   "0", "0,1", "valuation", "roundtrip"]))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(SCHEMA_KEYS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=16)
SUBCOMMANDS = ["group", "mackey", "cft", "hrv"]


def _exit_code(sub, data):
    """cli.main in process; anything it raises fails the calling test."""
    from classfield import cli
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        path.write_text(json.dumps(data))
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main([sub, "--input", str(path),
                             "--out", str(Path(tmp) / "out.json")])


class TestCliFuzz:
    @given(st.sampled_from(SUBCOMMANDS), JSON_VALUES)
    @settings(max_examples=200, deadline=None)
    def test_any_json_value(self, sub, data):
        assert _exit_code(sub, data) in (0, 1, 2)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_mutated_scenarios(self, data):
        scenarios = _scenarios()
        sub, scenario = data.draw(st.sampled_from(scenarios))
        for _ in range(data.draw(st.integers(1, 3))):
            paths = list(_paths(scenario))
            path = data.draw(st.sampled_from(paths))
            scenario = _replaced(scenario, path, data.draw(JSON_VALUES))
        assert _exit_code(sub, scenario) in (0, 1, 2)
