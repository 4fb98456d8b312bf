"""F-DETA benchmark: paper-length workloads, end-to-end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload durable-integrity-74w --seed 2016 \\
        --seconds 10 --trace 0

Workloads (all closed loops, one single-threaded process per run):

* ``durable-integrity-74w`` -- the durable, integrity-armed, fully
  instrumented monitor over 74 weeks, WAL fsynced every cycle;
* ``eventtime-late-74w`` -- the same population delivered late and out
  of order through the event-time ingestor, with tight lateness bounds;
* ``evaluation-tables`` -- the Section VIII evaluation behind Tables
  II/III, run serially through ``run_evaluation``.

With ``--trace 0`` the last stdout line is one JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run (plus the tracing overhead against an untraced run).
Earlier stdout lines stamp the run (source revision, python, numpy,
nproc, seed, sizes).  Each phase runs in its own fresh process with the
BLAS/OpenMP pools pinned to one thread.  Inputs are cached under
``.perfbench/`` in the checkout; scratch files live there too and are
removed when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

#: Everything must finish well inside the harness's 180 s limit.
DEADLINE_S = 170.0

#: Environment that pins every BLAS/OpenMP pool to one thread; set
#: before the worker imports numpy.
SINGLE_THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

WORKLOADS = ("durable-integrity-74w", "eventtime-late-74w", "evaluation-tables")

STATE_DIR = ".perfbench"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="store this run's outputs as the oracle's reference for the seed",
    )
    parser.add_argument("--role", choices=("prepare", "measure", "trace"))
    parser.add_argument("--out", type=Path)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Worker side (one fresh process per phase)
# ----------------------------------------------------------------------


def _worker(args) -> int:
    root = Path.cwd()
    sys.path[:0] = [str(root / "src"), str(root)]
    cache = root / STATE_DIR / "cache"
    work = root / STATE_DIR / f"work-{os.getpid()}"
    cache.mkdir(parents=True, exist_ok=True)
    from perfbench import measure

    try:
        if args.role == "prepare":
            measure.prepare(args.workload, args.seed, cache)
            payload = {"ok": True}
        elif args.role == "measure":
            inputs = measure.load_inputs(cache, args.workload, args.seed)
            payload = measure.measure(inputs, args.seconds, work)
        else:
            from perfbench import trace

            inputs = measure.load_inputs(cache, args.workload, args.seed)
            payload = trace.traced_run(inputs, work, root / STATE_DIR / "traces")
            payload["trace_file"] = str(Path(payload["trace_file"]).relative_to(root))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    args.out.write_text(json.dumps(payload))
    return 0


# ----------------------------------------------------------------------
# Orchestrator side
# ----------------------------------------------------------------------


def _source_stamp(root: Path) -> dict:
    """Git revision when available, and a digest of the program source."""
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()[:16]}


def _phase(args, role: str, deadline: float, root: Path) -> dict:
    out = root / STATE_DIR / f"{role}-{os.getpid()}.json"
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--role", role,
        "--out", str(out.relative_to(root)),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError(f"no time left for the {role} phase")
    try:
        completed = subprocess.run(
            command, cwd=root, timeout=remaining, stdout=sys.stderr
        )
        if completed.returncode != 0:
            raise RuntimeError(f"{role} phase exited with {completed.returncode}")
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.role is not None:
        return _worker(args)
    os.environ.update(SINGLE_THREAD_ENV)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").exists():
        print(
            "perfbench: run from the root of an F-DETA checkout "
            "(src/repro not found)",
            file=sys.stderr,
        )
        return 2
    deadline = time.monotonic() + DEADLINE_S
    (root / STATE_DIR).mkdir(exist_ok=True)
    try:
        _phase(args, "prepare", deadline, root)
        untraced = _phase(args, "measure", deadline, root)
        traced = _phase(args, "trace", deadline, root) if args.trace else None
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.write_reference:
        if untraced["invariant_failures"]:
            print(f"perfbench: not writing a reference: {untraced['invariant_failures']}",
                  file=sys.stderr)
            return 1
        sys.path[:0] = [str(root / "src"), str(root)]
        from perfbench import oracle

        path = oracle.write_reference(
            args.workload, args.seed, untraced["sizes"], untraced["outputs"]
        )
        print(f"perfbench: wrote {path.relative_to(root)}", file=sys.stderr)
    import numpy

    stamp = {
        **_source_stamp(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "sizes": untraced["sizes"],
        "passes": untraced["passes"],
    }
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({"raw_metrics": untraced["raw"]}))
    if untraced["notes"]:
        print(json.dumps({"oracle_notes": untraced["notes"]}))
    if traced is None:
        metrics = untraced["metrics"]
        correct = untraced["correct"]
        attempted, failed = untraced["attempted"], untraced["failed"]
    else:
        metrics = dict(traced["metrics"])
        metrics["trace.overhead_ratio"] = {
            "value": traced["wall_s"] / untraced["wall_s"] * untraced["passes"],
            "unit": "ratio",
        }
        print(json.dumps({"week_close_ms": traced["week_close_ms"]}))
        if traced["notes"]:
            print(json.dumps({"trace_notes": traced["notes"]}))
        print(json.dumps({"trace_file": traced["trace_file"]}))
        correct = untraced["correct"] and traced["correct"]
        attempted = untraced["attempted"] + traced["attempted"]
        failed = untraced["failed"] + traced["failed"]
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
