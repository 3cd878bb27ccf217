"""Batch front end: scenario files in, deterministic reports out.

Subcommands: group, mackey, cft, hrv.  Reports are JSON-first with an
optional aligned text rendering; identical scenario and seed give
byte-identical output.  Exit codes: 0 all requested checks passed,
1 at least one check failed or hit a limit of the finite model, 2 input
error.  Handlers import the layers they run after checking input shapes.
"""

from __future__ import annotations

import argparse
import json
import sys

MAX_HRV_SAMPLES = 100_000  # largest "samples" an hrv scenario may ask for
HRV_TASKS = ("valuation", "roundtrip", "axioms")


class InputError(ValueError):
    pass


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _object(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise InputError(f"{what} must be a JSON object")
    return data


def _block(data: dict, key: str) -> dict:
    if key not in data:
        raise InputError(f"scenario needs a {key!r} block")
    return _object(data[key], f"{key!r} block")


def _int(value, what: str) -> int:
    if type(value) is not int:
        raise InputError(f"{what} must be an integer")
    return value


def _ints(data, what: str) -> list[int]:
    if not isinstance(data, list):
        raise InputError(f"{what} must be a list of integers")
    return [_int(v, what) for v in data]


def _parsed(what: str, parse, *args):
    """``parse(*args)`` on JSON data; a malformed shape is an input error."""
    try:
        return parse(*args)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"invalid {what}: {exc}") from exc


def _load_group(data) -> FiniteGroup:
    data = _object(data, "group")
    if "builtin" in data:
        from .catalog import catalog
        cat = catalog()
        name = data["builtin"]
        if not isinstance(name, str) or name not in cat:
            raise InputError(f"unknown builtin group {name!r}")
        return cat[name]
    from .groups import FiniteGroup
    return _parsed("group data", FiniteGroup.from_json, data)


def _load_subgroup(group: FiniteGroup, data) -> Subgroup:
    data = _object(data, "subgroup")
    if "elements" in data:
        from .groups import Subgroup
        return _parsed("subgroup", Subgroup, group,
                       _ints(data["elements"], "subgroup elements"))
    if "generators" in data:
        gens = _ints(data["generators"], "subgroup generators")
        if not all(0 <= g < group.order for g in gens):
            raise InputError("subgroup generator out of range")
        return group.generated_subgroup(gens)
    raise InputError("subgroup needs 'elements' or 'generators'")


def _report_json(report: Report) -> list[dict]:
    return [{"name": c.name, "status": "pass" if c.passed else "fail",
             "witness": _as_json(c.witness)} for c in report.checks]


def _as_json(obj):
    if obj is None or isinstance(obj, (bool, int, str, float)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_as_json(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _as_json(v) for k, v in obj.items()}
    return str(obj)


# ---------------------------------------------------------------------------
# group subcommand
# ---------------------------------------------------------------------------

def run_group_report(args) -> tuple[dict, bool]:
    data = _object(_load_json(args.input), "scenario")
    group = _load_group(data.get("group", data))
    from .groups import abelianization, commutator_subgroup, subgroup_key_to_id
    from .transfer import transfer
    ab, _ = abelianization(group)
    subgroups = group.all_subgroups()
    lattice = {}
    for h in subgroups:
        lattice.setdefault(len(h), 0)
        lattice[len(h)] += 1
    targets = []
    if args.subgroup:
        targets.append(_load_subgroup(group, _load_json(args.subgroup)))
    else:
        targets.extend(h for h in subgroups
                       if 1 < h.index <= 12)
    tables = []
    r_g = commutator_subgroup(group.full_subgroup())
    for h in targets:
        r_h = commutator_subgroup(h)
        table = [transfer(group, h, r_h, r_g, x) for x in range(group.order)]
        tables.append({"subgroup": subgroup_key_to_id(h.elements),
                       "index": h.index, "transfer": table})
    report = {
        "order": group.order,
        "abelianization": ab.to_json(),
        "subgroup_counts": {str(k): v for k, v in sorted(lattice.items())},
        "transfer_tables": tables,
        "checks": [{"name": "group_valid", "status": "pass", "witness": None}],
    }
    return report, True


# ---------------------------------------------------------------------------
# mackey subcommand
# ---------------------------------------------------------------------------

def _build_module(group: FiniteGroup, data):
    from .abelian import FgAbGroup
    from .mackey import permutation_module, sign_module, trivial_module
    data = _object(data, "module")
    kind = data.get("kind", "trivial")
    torsion = _int(data.get("torsion", 0), "module torsion")
    if kind == "trivial":
        ab = _parsed("module group", FgAbGroup.from_json, data.get(
            "underlying", {"free_rank": 1, "invariant_factors": []}))
        return trivial_module(group, ab)
    if kind == "sign":
        kernel = _load_subgroup(group, _block(data, "kernel"))
        return sign_module(group, kernel, torsion=torsion)
    if kind == "permutation":
        stab = _load_subgroup(group, _block(data, "stabilizer"))
        sign_kernel = None
        if "sign_kernel" in data:
            sign_kernel = _load_subgroup(group, data["sign_kernel"])
        return permutation_module(group, stab, torsion=torsion,
                                  sign_kernel=sign_kernel)
    raise InputError(f"unknown module kind {kind!r}")


def _build_system(group: FiniteGroup, data, datum=None):
    from .mackey import full_system, system_from_json, unramified_system
    if data is None:
        return full_system(group)
    kind = _object(data, "system").get("kind", "full")
    if kind == "full":
        return full_system(group)
    if kind == "unramified":
        if datum is None:
            raise InputError("unramified system needs a ramification block")
        return unramified_system(datum)
    return _parsed("subgroup system", system_from_json, group, data)


def _build_functor(group: FiniteGroup, scenario: dict, datum):
    """The scenario's functor.  Tables carry their own subgroup system, so a
    ``system`` block beside them is an input error; every other kind lives
    on the system that the block describes."""
    from .mackey import abelianization_functor, fixed_point_functor, functor_from_json
    from .transfer import commutator_system
    data = _block(scenario, "functor")
    kind = _object(data, "functor").get("kind")
    if kind == "tables":
        if "system" in scenario:
            raise InputError("functor tables carry their own subgroup system; "
                             "drop the 'system' block")
        phi = _parsed("functor tables", functor_from_json, group,
                      data.get("functor"))
        dom = phi.domain
        if not all(x in phi.values
                   and all((y, x) in phi.res for y in dom.res_set(x))
                   and all((x, y) in phi.ind for y in dom.ind_set(x))
                   and all((g, x) in phi.con for g in range(group.order))
                   for x in dom.points()):
            raise InputError("functor tables miss a value or an edge map")
        return phi
    system = _build_system(group, scenario.get("system"), datum)
    if kind == "fixed_point":
        module = _build_module(group, data.get("module", {}))
        return fixed_point_functor(module, system)
    if kind == "abelianization":
        return abelianization_functor(system, commutator_system(system))
    raise InputError(f"unknown functor kind {kind!r}")


def run_mackey_check(args) -> tuple[dict, bool]:
    data = _object(_load_json(args.input), "scenario")
    group_data = _block(data, "group")
    from .groups import subgroup_key_to_id
    from .mackey import (
        check_cohomological, check_mackey_formula, check_stability,
        validate_ric_functor,
    )
    from .report import CheckItem, Report
    group = _load_group(group_data)
    datum = None
    if "ramification" in data:
        datum = _ramification(group, _block(data, "ramification"))
    phi = _build_functor(group, data, datum)
    # the domain passed the subgroup-system axioms when it was built
    report = Report([CheckItem("subgroup_system_valid", True),
                     validate_ric_functor(phi), check_stability(phi),
                     check_cohomological(phi)])
    if phi.domain.is_mackey:
        report.checks.append(check_mackey_formula(phi))
    out = {"checks": _report_json(report),
           "values": {subgroup_key_to_id(k): v.to_json()
                      for k, v in sorted(phi.values.items())}}
    return out, report.passed


# ---------------------------------------------------------------------------
# cft subcommand
# ---------------------------------------------------------------------------

def _ramification(group: FiniteGroup, data: dict) -> RamificationDatum:
    modulus = _int(data.get("modulus"), "ramification modulus")
    d = _ints(data.get("d"), "ramification d")
    primes = _ints(data.get("primes_P", []), "ramification primes_P")
    from .ramification import RamificationDatum
    return _parsed("ramification datum", RamificationDatum, group, modulus,
                   tuple(d), frozenset(primes))


def _valuation(c, data: dict, system) -> ValuationFamily:
    from .abelian import AbHom, FgAbGroup
    from .cft import ValuationFamily
    from .groups import subgroup_key_to_id
    if "omega" not in data:
        raise InputError("valuation block needs an 'omega' entry")
    m = _int(_object(data["omega"], "omega").get("modulus", 0), "omega modulus")
    omega = FgAbGroup(1) if m == 0 else FgAbGroup(0, (m,))
    comp_data = data.get("components")
    components = {}
    if comp_data == "identity" or comp_data is None:
        for k in system.points():
            if c.values[k] != omega:
                raise InputError(
                    "identity valuation needs C(H) = Omega everywhere")
            components[k] = AbHom.identity(omega)
    elif comp_data == "zero":
        components = {k: AbHom.zero(c.values[k], omega)
                      for k in system.points()}
    else:
        comp_data = _object(comp_data, "valuation components")
        for k in system.points():
            key = subgroup_key_to_id(k)
            if key not in comp_data:
                raise InputError(f"valuation component missing for {key}")
            matrix = comp_data[key]
            if not isinstance(matrix, list):
                raise InputError(f"valuation component for {key} must be a matrix")
            rows = tuple(tuple(_ints(r, "valuation matrix row")) for r in matrix)
            components[k] = _parsed("valuation component", AbHom, c.values[k],
                                    omega, rows)
    return ValuationFamily(c, omega, components)


def run_cft_scenario(args) -> tuple[dict, bool]:
    data = _object(_load_json(args.input), "scenario")
    group_data = _block(data, "group")
    from .cft import (
        Spectrum, certify_upsilon_tilde_multiplicative, reduced_verification,
        unramified_extension, upsilon_morphism, validate_fnd,
    )
    from .groups import subgroup_key_to_id
    from .report import Report
    from .transfer import commutator_system
    group = _load_group(group_data)
    datum = _ramification(group, _block(data, "ramification"))
    c = _build_functor(group, data, datum)
    system = c.domain
    vfam = _valuation(c, _block(data, "valuation"), system)

    spec_data = _object(data.get("spectrum", {"kind": "unramified"}),
                        "spectrum")
    if "pairs" in spec_data:
        pairs = spec_data["pairs"]
        if not isinstance(pairs, list):
            raise InputError("spectrum pairs must be a list")
        ext: dict = {k: set() for k in system.points()}
        for pair in pairs:
            if not isinstance(pair, list) or len(pair) != 2:
                raise InputError("a spectrum pair must be [H, U]")
            hkey = tuple(sorted(_ints(pair[0], "spectrum pair H")))
            if hkey not in ext:
                raise InputError(f"spectrum pair H {list(hkey)} is not in the system")
            ext[hkey].add(_load_subgroup(group, {"elements": pair[1]}).elements)
        for k in system.points():
            ext[k].add(k)
        extension = {k: sorted(v) for k, v in ext.items()}
    elif spec_data.get("kind") == "unramified":
        extension = unramified_extension(system, datum)
    else:
        raise InputError("spectrum needs 'pairs' or kind 'unramified'")
    spectrum = Spectrum(system, extension)

    # validate_fnd runs the urFND on Sp(system, unramified_extension), which
    # runs the valuation check; each verdict is read from the part it nests
    fnd = validate_fnd(c, vfam, spectrum, datum)
    ur = fnd.parts["urfnd_on_unramified_subspectrum"]
    report = Report()
    report.nest("valuation_valid", ur.parts["valuation_valid"])
    report.nest("urfnd_valid", ur)
    report.nest("fnd_valid", fnd)

    tables = []
    if fnd.passed:
        rsys = commutator_system(system)
        morphism, table_map = upsilon_morphism(
            c, vfam, datum, spectrum, rsys, fnd_validated=True)
        rv = reduced_verification(morphism, "prime", rsys)
        report.nest("upsilon_is_morphism", rv.parts["morphism"])
        report.add("upsilon_all_iso",
                   all(t.is_iso for t in table_map.values()))
        report.add("upsilon_lift_independent",
                   all(t.lift_independent in (True, None)
                       for t in table_map.values()))
        report.nest("reduction_agreement", rv.checks[-1])  # "agreement"
        if args.certify:
            for pair in spectrum.points():
                name = "|".join(map(subgroup_key_to_id, pair))
                report.nest(f"upsilon_tilde_multiplicative:{name}",
                            certify_upsilon_tilde_multiplicative(c, vfam, datum, pair))
        tables = [table_map[p].to_json() for p in spectrum.points()]
    out = {"checks": _report_json(report), "tables": tables}
    return out, report.passed


# ---------------------------------------------------------------------------
# hrv subcommand
# ---------------------------------------------------------------------------

def run_hrv_eval(args) -> tuple[dict, bool]:
    data = _object(_load_json(args.input), "scenario")
    tasks = data.get("tasks", ["valuation"])
    if not isinstance(tasks, list):
        raise InputError("hrv tasks must be a list")
    if not tasks:
        raise InputError(f"hrv tasks must name at least one of {', '.join(HRV_TASKS)}")
    for task in tasks:
        if task not in HRV_TASKS:
            raise InputError(f"unknown hrv task {task!r}: expected one of "
                             f"{', '.join(HRV_TASKS)}")
    seed = args.seed if args.seed is not None else _int(data.get("seed", 0),
                                                        "hrv seed")
    samples = data.get("samples")
    if samples is not None and not 1 <= _int(samples, "hrv samples") <= MAX_HRV_SAMPLES:
        raise InputError(f"hrv samples must be from 1 to {MAX_HRV_SAMPLES}")
    elements = data.get("elements", [])
    if not isinstance(elements, list):
        raise InputError("hrv elements must be a list")
    # a requested task with nothing to run on would pass without a check
    if "valuation" in tasks and not elements:
        raise InputError("hrv task 'valuation' needs elements")
    for task in ("roundtrip", "axioms"):
        if task in tasks and not elements and "field" not in data:
            raise InputError(f"hrv task {task!r} needs a field or elements")
    from .hrv import (
        LaurentField, ZeroValuation, laurent_from_json, project_valuation,
        rank_n_valuation, stack_roundtrip, valuation_axiom_sampler,
    )
    from .report import Report
    report = Report()
    results: dict = {"checks": [], "valuations": [], "roundtrips": []}
    elements = [_parsed("Laurent element", laurent_from_json, e)
                for e in elements]
    if "valuation" in tasks:
        for i, x in enumerate(elements):
            try:
                v = rank_n_valuation(x)
                entry = {"index": i, "value": list(v),
                         "projections": {str(r): list(project_valuation(v, r))
                                         for r in range(1, x.field.rank + 1)}}
            except ZeroValuation as exc:
                entry = {"index": i, "error": str(exc)}
                report.add("valuation_defined", False, i)
            results["valuations"].append(entry)
    if "roundtrip" in tasks or "axioms" in tasks:
        fields = dict.fromkeys(x.field for x in elements)
        if "field" in data:
            f = data["field"]
            fields[_parsed("hrv field", lambda: LaurentField(
                f["p"], f["rank"], tuple(f["window"]["lo"]),
                tuple(f["window"]["hi"])))] = None
        for field in fields:
            if "roundtrip" in tasks:
                r = stack_roundtrip(field, seed=seed,
                                    samples=1000 if samples is None else samples)
                report.add("stack_roundtrip", r.passed,
                           r.violations[:3] or None)
                results["roundtrips"].append(
                    {"rank": field.rank, "p": field.characteristic,
                     "samples": r.samples, "skipped": r.skipped,
                     "violations": len(r.violations)})
            if "axioms" in tasks:
                r = valuation_axiom_sampler(
                    field, seed=seed, samples=500 if samples is None else samples)
                report.add("valuation_axioms", r.passed,
                           r.violations[:3] or None)
    results["checks"] = _report_json(report)
    return results, report.passed


# ---------------------------------------------------------------------------
# rendering and entry point
# ---------------------------------------------------------------------------

def _render_text(out: dict) -> str:
    lines = []
    for check in out.get("checks", []):
        status = check["status"].upper()
        witness = "" if check["witness"] is None else f"  witness={check['witness']}"
        lines.append(f"{status:<6} {check['name']}{witness}")
    for key in sorted(out):
        if key == "checks":
            continue
        lines.append(f"{key}: {json.dumps(out[key], sort_keys=True)}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="classfield",
        description="checks and reciprocity computations over finite models")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("group", run_group_report), ("mackey", run_mackey_check),
                     ("cft", run_cft_scenario), ("hrv", run_hrv_eval)):
        p = sub.add_parser(name)
        p.add_argument("--input", required=True)
        p.add_argument("--out")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--certify", action="store_true")
        p.add_argument("--format", choices=("json", "text"), default="json")
        if name == "group":
            p.add_argument("--subgroup")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        out, passed = args.fn(args)
    except ValueError as exc:  # InputError included
        if not isinstance(exc, InputError):  # so bad input imports nothing more
            from .report import ModelLimit
            if isinstance(exc, ModelLimit):  # a limit of the finite model
                print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                return 1
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    rendered = (json.dumps(out, sort_keys=True, indent=2) + "\n"
                if args.format == "json" else _render_text(out))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
