"""Pipeline benchmark for ecstmetrics: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 pipeline_bench/run.py --workload run-mixed --seed 1 --seconds 25 --trace 0

Workloads: run-mixed, parse-comment-dense, measure-deep-trees (see
README.md).  Each run happens in fresh worker processes with one thread.
With --trace 0 the run sets the workload up SETUPS times, each in its own
process, reports the median set-up time, and measures the end-to-end
metrics in the last of those processes.  With --trace 1 it sets up once
and reports the per-layer metrics from spans around the program's
functions.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUPS = 3
DEADLINE_S = 170.0  # the command must end within 180 seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WHY)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ecstmetrics" / "cli.py").is_file():
        sys.stderr.write(f"error: no program source at {ROOT / 'src' / 'ecstmetrics'}\n")
        return 2
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    started = time.monotonic()
    setups = []
    runs = SETUPS if args.trace == 0 else 1
    for index in range(runs):
        measured = index == runs - 1
        workdir = out_dir / f"{args.workload}-seed{args.seed}-{os.getpid()}-{index}"
        command = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--workdir", str(workdir),
        ]
        if not measured:
            command.append("--setup-only")
        try:
            proc = subprocess.run(
                command,
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)),
            )
        except subprocess.TimeoutExpired:
            sys.stderr.write(f"error: worker did not finish within {DEADLINE_S:.0f} s\n")
            return 1
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.stderr.write(f"error: worker exited {proc.returncode}\n")
            return 1
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        setups.append(result["setup_s"])
    for line in lines[:-1]:
        print(line)
    metrics = result["metrics"]
    if args.trace == 0:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
        print(f"# setup_s over {len(setups)} set-ups: {', '.join(f'{s:.4f}' for s in setups)}")
    summary = {key: result[key] for key in ("correct", "attempted", "failed")}
    print(json.dumps({**summary, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
