"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload celf-regular --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Builds the library and the benchmark from source (see build.py), then runs
one JVM that sets the workload up from the seed, measures it in a closed loop
for the given seconds, checks its outputs and prints a report. The last line
of standard output is one JSON object: {correct, attempted, failed, metrics};
with --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. Details, logs and spans go to .bench_out/.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the benchmark directory
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

ROOT = build.ROOT
OUT = ROOT / ".bench_out"
HEAP = "3g"
RUN_TIMEOUT_S = 170

# Spark's JVM module options for Java 17 (as in the project's build).
MODULE_OPTS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
]


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def java(classes: Path, main: str, args: list, log: Path) -> subprocess.CompletedProcess:
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cp = os.pathsep.join([str(classes), str(build.spark_jars() / "*")])
    cmd = ["java", f"-Xmx{HEAP}", "-XX:-UsePerfData", *MODULE_OPTS, f"-Djava.io.tmpdir={tmp}", "-cp", cp, main, *args]
    with open(log, "w") as err:
        # run() kills the JVM on timeout and waits for it to end.
        return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--self-test", action="store_true", help="run the benchmark's own arithmetic tests")
    a = ap.parse_args()
    if not a.self_test and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    try:
        classes = build.build()
    except (build.BuildError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)

    if a.self_test:
        res = java(classes, "repro.perfbench.SelfTest", [], OUT / "self-test.log")
        sys.stdout.write(res.stdout)
        return res.returncode

    log = OUT / f"{a.workload}-seed{a.seed}-trace{a.trace}.log"
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--out", str(OUT), "--commit", git_commit()]
    try:
        res = java(classes, "repro.perfbench.Main", args, log)
    except subprocess.TimeoutExpired:
        print(f"run exceeded {RUN_TIMEOUT_S} s; log: {log}", file=sys.stderr)
        return 3
    lines = res.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if res.returncode != 0 or not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stdout.write("\n".join(l for l in lines if l.startswith("#")) + "\n")
        print(f"run failed (exit {res.returncode}); log: {log}", file=sys.stderr)
        print("".join(open(log).readlines()[-30:]), file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
