"""Traced launcher for one ``classfield`` CLI call.

Usage: python bench/cli_child.py <trace-dir> <job-id> <cli argv...>

Installs the benchmark's wrappers, runs ``classfield.cli.main(argv)`` as
one job span, writes ``<trace-dir>/child-<job-id>.json`` (aggregates and
spans) and exits with the CLI's exit code.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import classfield.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    trace_dir, job_id, argv = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer(seed=job_id)
    tracer.install()
    tracer.begin_job(job_id, "cli:" + argv[0])
    code = 1
    try:
        code = classfield.cli.main(argv)
    finally:
        tracer.end_job()
        tracer.uninstall()
        data = tracer.aggregates()
        data["spans"] = tracer.spans
        data["oracle_samples"] = [
            [key, snf.diagonal, snf.left, snf.right]
            for _, key, snf in tracer.oracle_samples]
        (trace_dir / f"child-{job_id}.json").write_text(json.dumps(data))
    return code


if __name__ == "__main__":
    sys.exit(main())
