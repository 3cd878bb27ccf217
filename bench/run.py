"""classfield benchmark: seeded verification jobs, timed end to end.

    python3 bench/run.py --workload lattice --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --seed 1            # every workload, one after another

One run is one user batch in a fresh interpreter: a closed loop with one
client, jobs back to back.  With ``--trace 0`` the run sets up, then
repeats whole seeded batches for about ``--seconds`` seconds and reports
the end-to-end metrics.  With ``--trace 1`` it runs each job of batch 0
untraced and then traced, and reports the per-layer metrics.  The last line of
standard output is one JSON object; the lines before it name every metric
with its unit.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("lattice", "mackey", "transfer", "cli")
SETUP_EVERY_S = 1.0     # wall time between set-up samples in a run
IMPORT_SAMPLES = 3
TAIL_LADDER = (99, 95, 90, 75, 50)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def locate_program():
    """Put the checkout's src/ first on the path, or stop with code 2."""
    if not (SRC / "classfield" / "__init__.py").is_file():
        print(f"bench: no classfield sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str]) -> str:
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, check=True)
    return proc.stdout


def setup(workload: str, seed: int, workdir: Path):
    """Import classfield, build the catalog, generate batch 0."""
    start = time.perf_counter()
    import workloads
    workloads.catalog()
    jobs = workloads.make_batch(workload, seed, 0, workdir)
    return time.perf_counter() - start, workloads, jobs


def tail_percentile(batch_size: int) -> int:
    """Highest ladder percentile with >= 10 jobs beyond it in two batches.

    Fixed per workload by its batch size, so the metric means the same
    thing however many batches a run completes.
    """
    for p in TAIL_LADDER:
        if 2 * batch_size * (100 - p) / 100 >= 10:
            return p
    return TAIL_LADDER[-1]


def percentile(values, p) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


class Runner:
    """Runs jobs one after another and keeps one record per job."""

    def __init__(self, workloads, workload: str, launcher: list[str],
                 trace_dir: Path | None = None):
        self.wl = workloads
        self.records: list[dict] = []
        self.cli = (workloads.CliEnv(ROOT, launcher, child_env(), trace_dir)
                    if workload == "cli" else None)

    def run_one(self, batch: int, job, tracer=None) -> float:
        """Run one job, traced when ``tracer`` is given; returns its latency."""
        if tracer is not None:
            tracer.install(namespaces=[vars(self.wl)])
            tracer.begin_job(job.id, f"{job.kind}:{job.label}")
        try:
            start = time.perf_counter()
            outcome = self.wl.run_job(job, self.cli)
            latency = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.end_job()
                tracer.uninstall()
        oracle = self._collect(job, tracer) if tracer is not None else None
        self.records.append({
            "batch": batch, "id": job.id, "kind": job.kind,
            "label": job.label, "latency_s": latency,
            "ok": outcome.ok and oracle is None,
            "known_defect": job.known_defect,
            "detail": oracle or outcome.detail,
            "digest": outcome.digest()})
        return latency

    def _collect(self, job, tracer) -> str | None:
        """Merge a traced child's results, then check the job's sampled
        Smith decompositions; returns the first mismatch, or None."""
        from tracer import check_snf
        samples = [(key, snf) for jid, key, snf in tracer.oracle_samples
                   if jid == job.id]
        tracer.oracle_samples = [s for s in tracer.oracle_samples
                                 if s[0] != job.id]
        if self.cli is not None and self.cli.trace_dir is not None:
            child = json.loads((self.cli.trace_dir
                                / f"child-{job.id}.json").read_text())
            tracer.merge(child)
            for span in child["spans"]:   # span ids are per process
                span["id"] = f"child{job.id}.{span['id']}"
                if span["parent"] is not None:
                    span["parent"] = f"child{job.id}.{span['parent']}"
                tracer.spans.append(span)
            samples += [(key, SimpleNamespace(diagonal=d, left=l, right=r))
                        for key, d, l, r in child["oracle_samples"]]
        tracer.counters["oracle.checked"] += len(samples)
        for key, snf in samples:
            problem = check_snf(key, snf)
            if problem:
                tracer.counters["oracle.mismatches"] += 1
                return f"smith_decompose oracle: {problem}"
        return None


def batch_digest(records, batch: int) -> str:
    h = hashlib.sha256()
    for r in sorted((r for r in records if r["batch"] == batch),
                    key=lambda r: r["id"]):
        h.update(f"{r['id']}:{r['label']}:{r['digest']}\n".encode())
    return h.hexdigest()


def print_metric(name, value, unit, note=""):
    print(f"  {name:<44} {value:>14.6g} {unit:<6} {note}".rstrip())


def report(workload, seed, metrics, records, extra_lines=()):
    """Print every metric by name and unit; return the result object."""
    unexpected = [r for r in records if not r["ok"] and not r["known_defect"]]
    known = [r for r in records if not r["ok"] and r["known_defect"]]
    attempted = len(records)
    print(f"workload {workload}  seed {seed}  jobs {attempted}")
    for name, (value, unit, note) in metrics.items():
        print_metric(name, value, unit, note)
    missed = len(unexpected) + len(known)
    print_metric("fail_frac", missed / attempted, "ratio",
                 f"({missed} of {attempted} jobs missed their expected "
                 f"verdict; {len(known)} of them are listed known defects)")
    for r in unexpected[:10]:
        print(f"  FAILED job {r['id']} {r['label']}: {r['detail']}")
    for reason in sorted({r["known_defect"] for r in known}):
        hits = [r["label"] for r in known if r["known_defect"] == reason]
        print(f"  known defect, {len(hits)} jobs: {reason}: "
              f"{', '.join(sorted(set(hits)))}")
    for line in extra_lines:
        print(f"  {line}")
    return {"correct": not unexpected, "attempted": attempted,
            "failed": len(unexpected),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u, _) in metrics.items()}}


def setup_probe(workload: str, seed: int, workdir: Path) -> list[str]:
    """argv of a fresh interpreter that times one set-up and prints it."""
    code = (f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import run; "
            f"run.locate_program(); from pathlib import Path; "
            f"print(run.setup({workload!r}, {seed}, Path({str(workdir)!r}))[0])")
    return [sys.executable, "-c", code]


def untraced_run(args, workdir: Path) -> dict:
    setup_s, wl, jobs = setup(args.workload, args.seed, workdir)
    # Set-up is sampled in fresh interpreters between jobs across the whole
    # run, so the samples see the same fast and slow spells of the host as
    # the jobs do.  The fastest of them is the set-up cost with the least
    # interference from other work on the host.
    samples = [setup_s]
    probe = setup_probe(args.workload, args.seed, workdir / "setup")
    runner = Runner(wl, args.workload, [sys.executable, "-m", "classfield.cli"])
    busy, batch = 0.0, 0
    next_sample = time.perf_counter() + SETUP_EVERY_S
    while True:
        busy_batch = 0.0
        for job in jobs:
            busy_batch += runner.run_one(batch, job)
            if time.perf_counter() >= next_sample:
                samples.append(float(run_child(probe)))
                next_sample = time.perf_counter() + SETUP_EVERY_S
        busy += busy_batch
        batch += 1
        if busy + busy_batch > args.seconds:
            break
        jobs = wl.make_batch(args.workload, args.seed, batch, workdir)
    latencies = [r["latency_s"] for r in runner.records]
    p = tail_percentile(len(runner.records) // batch)
    beyond = sum(1 for v in latencies if v > percentile(latencies, p))
    if runner.cli is not None:
        rss_kb, whose = max(runner.cli.child_rss_kb), "largest cli child"
    else:
        rss_kb, whose = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "run process"
    metrics = {
        "setup_s": (min(samples), "s",
                    f"(fastest of {len(samples)} set-ups)"),
        "jobs_per_s": (len(latencies) / busy, "1/s",
                       f"({len(latencies)} jobs in {batch} batches, {busy:.2f} s busy)"),
        "job_p50_ms": (statistics.median(latencies) * 1000, "ms", ""),
        "job_tail_ms": (percentile(latencies, p) * 1000, "ms",
                        f"(p{p} of {len(latencies)} jobs, {beyond} beyond it)"),
        "peak_rss_mb": (rss_kb / 1024, "MB", f"({whose})"),
    }
    digest = batch_digest(runner.records, 0)
    result = report(args.workload, args.seed, metrics, runner.records,
                    [f"digest of batch 0 verdicts and reports: {digest}"])
    record = WORK / "records" / f"{args.workload}-seed{args.seed}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "metrics": metrics,
        "setup_samples": samples, "batch0_digest": digest,
        "jobs": runner.records}, indent=1, sort_keys=True) + "\n")
    return result


def cli_import_seconds() -> float:
    code = ("import time; t = time.perf_counter(); import classfield.cli; "
            "print(time.perf_counter() - t)")
    return statistics.median(float(run_child([sys.executable, "-c", code]))
                             for _ in range(IMPORT_SAMPLES))


def traced_run(args, workdir: Path) -> dict:
    import tracer as tracing
    trace_dir = WORK / "trace" / f"{args.workload}-seed{args.seed}"
    if trace_dir.exists():
        shutil.rmtree(trace_dir / "children", ignore_errors=True)
    (trace_dir / "children").mkdir(parents=True, exist_ok=True)
    import workloads as wl
    tracer = tracing.Tracer(seed=args.seed)
    tracer.install(namespaces=[vars(wl)])
    try:
        wl.catalog()
    finally:
        tracer.uninstall()
    jobs = wl.make_batch(args.workload, args.seed, 0, workdir)

    # Each job runs untraced, then traced, so that the machine's slow and
    # fast phases fall on both sides of trace.overhead_frac alike.
    plain = Runner(wl, args.workload, [sys.executable, "-m", "classfield.cli"])
    traced = Runner(wl, args.workload,
                    [sys.executable, str(BENCH_DIR / "cli_child.py")],
                    trace_dir=trace_dir / "children")
    plain_s = traced_s = 0.0
    for job in jobs:
        plain_s += plain.run_one(0, job)
        traced_s += traced.run_one(0, job, tracer)
    metrics = layer_metrics(tracer, traced_s / plain_s - 1, cli_import_seconds())
    counts = _exact_counts(tracer)
    lines = [f"digest of batch 0 verdicts and reports: "
             f"{batch_digest(traced.records, 0)}",
             f"untraced digest matches traced: "
             f"{batch_digest(plain.records, 0) == batch_digest(traced.records, 0)}",
             f"smith_decompose oracle: {tracer.counters['oracle.checked']} "
             f"checked, {tracer.counters['oracle.mismatches']} mismatches"]
    counts_path = trace_dir / "counts.json"
    if counts_path.exists():
        before = json.loads(counts_path.read_text())
        differ = sorted(k for k in set(before) | set(counts)
                        if before.get(k) != counts.get(k))
        lines.append("exact counters repeat the previous traced run: "
                     + ("yes" if not differ else
                        "NO: " + ", ".join(f"{k} {before.get(k)} -> {counts.get(k)}"
                                           for k in differ)))
    counts_path.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
    tracer.write(trace_dir, {"metrics": {k: v[0] for k, v in metrics.items()},
                             "untraced_s": plain_s, "traced_s": traced_s})
    lines.append(f"spans and aggregates written to {trace_dir.relative_to(ROOT)}")
    records = plain.records + traced.records
    return report(args.workload, args.seed, metrics, records, lines)


def _exact_counts(tracer) -> dict:
    out = {f"{layer}.{name}.calls": s.calls
           for (layer, name), s in tracer.stats.items() if s.calls}
    out.update(tracer.counters)
    return out


def layer_metrics(tracer, overhead: float, import_s: float) -> dict:
    stats = tracer.stats
    empty = SimpleNamespace(calls=0, total=0.0, self_time=0.0, errors={})

    def st(layer, name):
        return stats.get((layer, name), empty)

    def self_s(layer):
        return sum(s.self_time for (l, _), s in stats.items() if l == layer)

    def frac(num, den):
        return num / den if den else 0.0

    c = tracer.counters
    snf = st("abelian", "smith_decompose")
    post = st("abelian", "AbHom.__post_init__")
    compose = st("abelian", "AbHom.compose")
    frob = st("ramification", "frobenius_group")
    m = {}

    def put(name, value, unit, note=""):
        m[name] = (value, unit, note)

    put("abelian.self_s", self_s("abelian"), "s")
    put("abelian.smith_decompose.calls", snf.calls, "count")
    put("abelian.smith_decompose.self_s", snf.self_time, "s")
    put("abelian.smith_decompose.repeat_frac",
        frac(c["abelian.smith_decompose.repeats"], snf.calls), "ratio",
        f"({c['abelian.smith_decompose.repeats']} repeats / {snf.calls} calls)")
    put("abelian.solve_integer.calls", st("abelian", "solve_integer").calls, "count")
    put("abelian.kernel_basis.calls", st("abelian", "kernel_basis").calls, "count")
    put("abelian.subgroup_contains.calls",
        st("abelian", "subgroup_contains").calls, "count")
    put("abelian.subgroup_contains.total_s",
        st("abelian", "subgroup_contains").total, "s")
    put("abelian.AbHom.constructions", post.calls, "count")
    put("abelian.AbHom.compose.calls", compose.calls, "count")
    put("abelian.AbHom.self_s", post.self_time + compose.self_time, "s")
    put("groups.self_s", self_s("groups"), "s")
    put("groups.all_subgroups.calls",
        st("groups", "FiniteGroup.all_subgroups").calls, "count")
    put("groups.generated_subgroup.calls",
        st("groups", "FiniteGroup.generated_subgroup").calls, "count")
    put("groups.abelian_quotient.calls",
        st("groups", "abelian_quotient").calls, "count")
    put("transfer.self_s", self_s("transfer"), "s")
    put("transfer.transfer.calls", st("transfer", "transfer").calls, "count")
    put("transfer.transfer_via_lambda.calls",
        st("transfer", "transfer_via_lambda").calls, "count")
    put("ramification.self_s", self_s("ramification"), "s")
    put("ramification.frobenius_group.calls", frob.calls, "count")
    put("ramification.frobenius_group.raise_frac",
        frac(frob.errors.get("DepthInsufficient", 0), frob.calls), "ratio",
        f"({frob.errors.get('DepthInsufficient', 0)} DepthInsufficient "
        f"/ {frob.calls} calls)")
    put("mackey.self_s", self_s("mackey"), "s")
    put("mackey.build.total_s",
        st("mackey", "fixed_point_functor").total
        + st("mackey", "abelianization_functor").total, "s")
    for name in ("validate_ric_functor", "check_mackey_formula",
                 "adjunction_maps"):
        put(f"mackey.{name}.total_s", st("mackey", name).total, "s")
    put("cft.self_s", self_s("cft"), "s")
    for name in ("tautological_cft", "lattice_property_check",
                 "upsilon_morphism"):
        put(f"cft.{name}.total_s", st("cft", name).total, "s")
    put("hrv.self_s", self_s("hrv"), "s")
    put("hrv.samples.skip_frac",
        frac(c["hrv.samples.skipped"], c["hrv.samples.sampled"]), "ratio",
        f"({c['hrv.samples.skipped']} skipped / {c['hrv.samples.sampled']} sampled)")
    put("cli.import_s", import_s, "s",
        f"(median of {IMPORT_SAMPLES} fresh interpreters)")
    put("cli.self_s", self_s("cli"), "s")
    put("catalog.self_s", self_s("catalog"), "s")
    put("trace.overhead_frac", overhead, "ratio",
        "(traced batch / untraced batch - 1)")
    return m


def run_all(args) -> int:
    """Run each workload in its own interpreter and print every metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    locate_program()
    if args.workload == "all":
        return run_all(args)
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        result = (traced_run if args.trace else untraced_run)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
