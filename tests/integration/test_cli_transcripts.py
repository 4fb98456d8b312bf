"""Golden transcripts of ``monitor``: the run loop's observable contract.

Each case runs ``python -m repro monitor`` in a fresh directory (one or
more steps, e.g. a hard kill at ``--crash-after-cycle`` and then
``--recover``) and compares stdout, stderr and the exit status — plus
the fault ledgers a step writes — byte for byte with the fixture in
``cli_transcripts.json``.  The fixtures were captured from the CLI as it
stood before its three monitor drivers (single service, event time,
fleet) were folded into one run loop; only cases whose output was
identical across two captures were kept.  A control reruns cases at
another ``--seed``; those must *not* match, so the comparison can tell
runs apart.

Re-capture (only when an output change is intended) against the
source tree on ``PYTHONPATH``::

    PYTHONPATH=src python tests/integration/test_cli_transcripts.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import repro
from repro.cli import main

FIXTURES = Path(__file__).with_name("cli_transcripts.json")

BASE = [
    "--consumers",
    "4",
    "--weeks",
    "6",
    "--seed",
    "11",
    "--min-training-weeks",
    "3",
    "--retrain-every-weeks",
    "2",
]
_DURABLE = ["--wal-dir", "wal", "--checkpoint", "mon.ckpt"]
_EVENTTIME = ["--eventtime", "--scramble-delay", "5", "--wal-dir", "et"]
_SHED = ["--shed-policy", "priority", "--cycle-deadline-ms", "0.0001"]

# name -> steps; a step is (extra monitor arguments, files it writes
# whose contents are part of the transcript).
CASES: dict[str, list[tuple[list[str], list[str]]]] = {
    "plain": [([], [])],
    "checkpoint-resume": [
        (["--checkpoint", "mon.ckpt"], []),
        (["--checkpoint", "mon.ckpt", "--resume"], []),
    ],
    "durable-checkpoint": [(_DURABLE, [])],
    "crash-recover": [
        (_DURABLE + ["--crash-after-cycle", "1000"], []),
        (_DURABLE + ["--recover"], []),
    ],
    "load-control": [(_SHED, [])],
    "integrity-quarantine": [
        (
            ["--integrity", "--wal-dir", "wal", "--max-reading", "0.5"],
            [],
        ),
    ],
    "eventtime": [(["--eventtime", "--scramble-delay", "5"], [])],
    "eventtime-crash-recover": [
        (_EVENTTIME + ["--crash-after-cycle", "1500"], []),
        (_EVENTTIME + ["--recover"], []),
    ],
    "fleet-load-control": [
        (["--shards", "2", "--wal-dir", "fleet"] + _SHED, []),
    ],
    "elastic-grow": [
        (
            [
                "--elastic",
                "--shards",
                "2",
                "--grow-at-week",
                "3",
                "--wal-dir",
                "fleet",
            ],
            [],
        ),
    ],
    "storage-faults": [
        (
            [
                "--wal-dir",
                "wal",
                "--storage-faults",
                "wal.append:write@1200=enospc",
                "--fault-ledger-out",
                "ledger.json",
            ],
            ["ledger.json"],
        ),
    ],
    "network-faults": [
        (
            [
                "--shards",
                "2",
                "--wal-dir",
                "fleet",
                "--network-faults",
                "shard-0000:ingest@40=partition,shard-*:ingest@90=drop",
                "--transport-ledger-out",
                "ledger.json",
            ],
            ["ledger.json"],
        ),
    ],
}


def _with_seed(args: list[str], seed: str) -> list[str]:
    out = list(args)
    out[out.index("--seed") + 1] = seed
    return out


def _run_step(argv: list[str], tmp: str) -> tuple[int, str, str]:
    """One ``monitor`` invocation with ``tmp`` as working directory.

    A ``--crash-after-cycle`` step hard-kills its process, so it runs in
    a child interpreter on the same source tree; every other step runs
    in this one, which saves the interpreter start-up per step.
    """
    if "--crash-after-cycle" in argv:
        src = Path(repro.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "repro"] + argv,
            cwd=tmp,
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def run_case(name: str, seed: str = "11") -> list[dict]:
    """Run every step of one case in a fresh directory; return the
    transcripts with the directory's path normalised to ``<TMP>``."""
    transcripts = []
    with tempfile.TemporaryDirectory() as tmp:
        for extra, files in CASES[name]:
            code, out, err = _run_step(
                ["monitor"] + _with_seed(BASE, seed) + extra, tmp
            )
            transcripts.append(
                {
                    "args": extra,
                    "exit": code,
                    "stdout": out.replace(tmp, "<TMP>"),
                    "stderr": err.replace(tmp, "<TMP>"),
                    "files": {
                        f: Path(tmp, f).read_text().replace(tmp, "<TMP>")
                        for f in files
                    },
                }
            )
    return transcripts


def _fixtures() -> dict:
    return json.loads(FIXTURES.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_transcript_matches_fixture(name):
    expected = _fixtures()[name]
    actual = run_case(name)
    for step, (want, got) in enumerate(zip(expected, actual)):
        for key in ("exit", "stdout", "stderr", "files"):
            assert got[key] == want[key], f"{name} step {step}: {key}"
    assert len(actual) == len(expected)


@pytest.mark.parametrize("name", ["plain", "load-control", "eventtime"])
def test_other_seed_does_not_match(name):
    """The control: a different population must change the transcript.

    The capture run checks this for every case; here the cheap ones
    keep the file fast."""
    expected = _fixtures()[name]
    actual = run_case(name, seed="12")
    assert [s["stdout"] for s in actual] != [s["stdout"] for s in expected]


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeat",
        type=int,
        default=2,
        help="captures per case; cases that differ between them are dropped",
    )
    opts = parser.parse_args()
    captured = {}
    for case in CASES:
        runs = [run_case(case) for _ in range(opts.repeat)]
        if all(run == runs[0] for run in runs):
            captured[case] = runs[0]
        else:
            print(f"dropped {case}: output differs between runs")
        if case in captured and run_case(case, seed="12") == captured[case]:
            print(f"control failed: {case} is the same at --seed 12")
    FIXTURES.write_text(json.dumps(captured, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(captured)} case(s) to {FIXTURES}")
