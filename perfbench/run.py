#!/usr/bin/env python3
"""Build and run the repository benchmark (README.md in this directory).

    python3 perfbench/run.py --workload <paper-eval|queue-mixed|queue-faults>
                             --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the repository's src/) into .bench_build/
at the repository root, runs clip_perfbench, and for paper-eval at the
default seed also cross-checks the in-process sweeps against the --csv
output of fig8_high_budget, fig9_low_budget and summary_claims. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
FIGURES = ("fig8_high_budget", "fig9_low_budget", "summary_claims")
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return ROOT / target / "perfbench"


def build():
    """Configure once, then build incrementally; logs go to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no repository sources next to " + str(HERE))
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        # No build type given: the repository's default applies.
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out)],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out


def cross_check(out, figures_dir):
    """Figure names whose binary output differs from the in-process sweep."""
    bad = []
    for fig in FIGURES:
        binary = subprocess.run([str(out / fig), "--csv"], check=True,
                                capture_output=True, text=True,
                                timeout=RUN_TIMEOUT_S).stdout
        if (figures_dir / (fig + ".csv")).read_text() != binary:
            bad.append(fig)
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["paper-eval", "queue-mixed", "queue-faults"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    out = build()
    cmd = [str(out / "clip_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    figures_dir = out / "figures"
    check_figures = (args.workload == "paper-eval" and args.trace == 0
                     and args.seed == DEFAULT_SEED)
    if check_figures:
        figures_dir.mkdir(exist_ok=True)
        cmd += ["--figures-out", str(figures_dir)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        sys.exit("perfbench: clip_perfbench failed with code %d"
                 % proc.returncode)
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))
    if check_figures:
        bad = cross_check(out, figures_dir)
        for fig in bad:
            print("CHECK FAILED: %s --csv differs from the in-process sweep"
                  % fig)
        result["correct"] = result["correct"] and not bad
    print(json.dumps(result))


if __name__ == "__main__":
    main()
