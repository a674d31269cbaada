#!/usr/bin/env python3
"""Checks tools/run_diff.py against real choreo_sim outcome files.

    tools/test_run_diff.py PATH/TO/choreo_sim

Two runs of one session seed must diff empty (exit 0, no output), and a run
of the next seed must not (exit 1, a report naming the first diverging app).
"""

import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SESSION = ["--mode", "session", "--tenants", "3", "--vms", "5",
           "--duration-hours", "6", "--apps-per-day", "200"]


def outcomes(sim, seed, path):
    subprocess.run([sim, *SESSION, "--seed", str(seed), f"--outcomes={path}"],
                   check=True, stdout=subprocess.DEVNULL)
    with open(path) as f:
        if not f.read().strip():
            raise SystemExit(f"seed {seed} wrote no outcomes")


def run_diff(a, b):
    return subprocess.run([sys.executable, os.path.join(HERE, "run_diff.py"), a, b],
                          capture_output=True, text=True)


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    sim = argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        a, again, b = (os.path.join(tmp, f"{n}.jsonl") for n in ("a", "again", "b"))
        outcomes(sim, 1, a)
        outcomes(sim, 1, again)
        outcomes(sim, 2, b)
        same = run_diff(a, again)
        if same.returncode != 0 or same.stdout or same.stderr:
            print(f"self-diff not empty (exit {same.returncode}):\n{same.stdout}{same.stderr}")
            return 1
        moved = run_diff(a, b)
        if moved.returncode != 1 or "first diverging app" not in moved.stdout:
            print(f"seed perturbation diffed empty (exit {moved.returncode}):\n"
                  f"{moved.stdout}{moved.stderr}")
            return 1
        print(moved.stdout, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
