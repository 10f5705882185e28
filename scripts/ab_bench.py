"""A/B-run the repo benchmark on two revisions and write a BENCH_*.json file.

    python3 scripts/ab_bench.py --parent HEAD~1 --change HEAD \\
        --out BENCH_<n>_<slug>.json "one sentence on what the change does"
    python3 -m doctest scripts/ab_bench.py    # the summary arithmetic's tests

Each revision is unpacked with `git archive` into its own temporary directory
and built there by perfbench/build.py. Then, for each workload and the run
length that BENCHMARK.json declares, seeds 1 .. PAIRS run untraced and seeds
1 .. TRACED_PAIRS run traced (`perfbench/run.py --trace 1`). Both sides of a
pair use the same seed; odd seeds run the parent first and even seeds the
change first, so a slow drift of the host lands on both sides. Runs go one at
a time. The two trees are deleted when the script ends.

The output holds every run (side, workload, seed, trace flag, the run's
calibration loop times, failed checks, its report lines such as
`ic_trial_ms.WC` and its result line), the machine, and per trace flag and
workload a summary: each result metric's and report line's median and
quartiles on both sides and `change_lower_pairs`, the number of pairs whose
change value is below the parent's. The file is rewritten after every run, so an
interrupted A/B keeps what it measured. Uses only git and python3.
"""

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
MACHINE_KEYS = ["caches", "cpu_model", "jvm", "max_heap_mb", "nproc", "scala_version", "spark_cores",
                "spark_master", "spark_version", "xmx"]
PAIRS = 10
TRACED_PAIRS = 3


def quartiles(xs):
    """(q1, median, q3) by linear interpolation between order statistics.

    >>> quartiles([1, 2, 3, 4, 5])
    (2.0, 3.0, 4.0)
    >>> quartiles([10, 40, 20, 30])
    (17.5, 25.0, 32.5)
    >>> quartiles([7])
    (7.0, 7.0, 7.0)
    """
    xs = sorted(xs)
    if len(xs) == 1:
        return (float(xs[0]),) * 3
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return (float(q1), float(q2), float(q3))


def lower_pairs(pairs):
    """Pairs (parent, change) whose change value is strictly lower.

    >>> lower_pairs([(5.0, 4.0), (5.0, 5.0), (3.0, 4.0), (2.0, 1.5)])
    2
    """
    return sum(1 for p, c in pairs if c < p)


def summarize_metric(pairs):
    """Medians, quartiles and `change_lower_pairs` of one metric's pairs.

    >>> s = summarize_metric([(10.0, 9.0), (12.0, 11.0), (11.0, 11.5)])
    >>> s["parent_median"], s["parent_q1"], s["parent_q3"]
    (11.0, 10.5, 11.5)
    >>> s["change_median"], s["change_q1"], s["change_q3"]
    (11.0, 10.0, 11.25)
    >>> s["change_lower_pairs"]
    2
    """
    out = {}
    for side, xs in (("parent", [p for p, _ in pairs]), ("change", [c for _, c in pairs])):
        q1, med, q3 = quartiles(xs)
        out.update({f"{side}_median": round(med, 4), f"{side}_q1": round(q1, 4), f"{side}_q3": round(q3, 4)})
    out["change_lower_pairs"] = lower_pairs(pairs)
    return out


REPORT_LINE = re.compile(r"^# (\S+)\s+(\S+) (\S+) \(n=(\d+)")


def parse_report(lines):
    """The run report's `# <name> <value> <unit> (n=…)` lines as
    {name: {"value", "unit", "n"}}; provenance, failed-check and layer lines
    are skipped.

    >>> r = parse_report(["# provenance {}", "# ic_trial_ms.WC  1.23456 ms (n=120, p99 2.5)",
    ...                   "# retained_heap_mb 75.2 MB (n=1)", "# FAILED check mc.round_0 (n=1)",
    ...                   "# layer core.rng_coin_ns  3.1 ns", '{"correct": true}'])
    >>> r["ic_trial_ms.WC"]
    {'value': 1.23456, 'unit': 'ms', 'n': 120}
    >>> sorted(r)
    ['ic_trial_ms.WC', 'retained_heap_mb']
    """
    out = {}
    for line in lines:
        if line.startswith(("# provenance ", "# FAILED check ", "# layer ")):
            continue
        m = REPORT_LINE.match(line)
        if m:
            out[m.group(1)] = {"value": float(m.group(2)), "unit": m.group(3), "n": int(m.group(4))}
    return out


def summarize(runs):
    """Per trace flag and workload: pair count, operation counts, calibration
    medians, and one `summarize_metric` entry per result metric (`metrics`)
    and per report line (`report`) that every run of the pairs has.
    A seed counts as a pair only when both of its runs produced a result.

    >>> def run(side, seed, op, cal):
    ...     return {"side": side, "workload": "w", "seed": seed, "trace": 0, "calibration_ms": [cal],
    ...             "failed_checks": [], "report": {"x_ms": {"value": op / 2, "unit": "ms", "n": 3}},
    ...             "result": {"attempted": 10, "failed": 0, "metrics": {"op_ms": {"value": op, "unit": "ms"}}}}
    >>> runs = [run("parent", 1, 5.0, 100), run("change", 1, 4.0, 110),
    ...         run("change", 2, 6.0, 120), run("parent", 2, 7.0, 130)]
    >>> s = summarize(runs)["untraced"]["w"]
    >>> s["pairs"], s["attempted_ops"], s["calibration_ms_median"]
    (2, {'parent': 20, 'change': 20}, {'parent': 115.0, 'change': 115.0})
    >>> s["metrics"]["op_ms"]["parent_median"], s["metrics"]["op_ms"]["change_lower_pairs"]
    (6.0, 2)
    >>> s["report"]["x_ms"]["parent_median"], s["report"]["x_ms"]["change_lower_pairs"]
    (3.0, 2)
    """
    out = {}
    keyed = {(r["trace"], r["workload"], r["seed"], r["side"]): r for r in runs if r.get("result")}
    for trace, label in ((0, "untraced"), (1, "traced")):
        for w in dict.fromkeys(r["workload"] for r in runs if r["trace"] == trace):
            seeds = sorted({s for (t, ww, s, _) in keyed if (t, ww) == (trace, w)
                            and (t, w, s, "parent") in keyed and (t, w, s, "change") in keyed})
            if not seeds:
                continue
            sides = {side: [keyed[(trace, w, s, side)] for s in seeds] for side in ("parent", "change")}
            pairs = list(zip(sides["parent"], sides["change"]))

            def summary(table):
                names = [m for m in table(sides["parent"][0]) if all(m in table(r) for p in pairs for r in p)]
                return {m: summarize_metric([(table(p)[m]["value"], table(c)[m]["value"]) for p, c in pairs])
                        for m in names}
            out.setdefault(label, {})[w] = {
                "pairs": len(seeds),
                "failed_ops": {k: sum(r["result"]["failed"] for r in v) for k, v in sides.items()},
                "attempted_ops": {k: sum(r["result"]["attempted"] for r in v) for k, v in sides.items()},
                "calibration_ms_median": {
                    k: round(statistics.median(c for r in v for c in r["calibration_ms"]), 1) for k, v in sides.items()},
                "metrics": summary(lambda r: r["result"]["metrics"]),
                "report": summary(lambda r: r.get("report", {})),
            }
    return out


def render(doc):
    """The BENCH file's text: indented JSON, with each run on one line.

    >>> print(render({"what": "x", "runs": [{"seed": 1, "trace": 0}]}), end="")
    {
     "what": "x",
     "runs": [
      {"seed":1,"trace":0}
     ]
    }
    """
    runs = [json.dumps(r, separators=(",", ":"), ensure_ascii=False) for r in doc["runs"]]
    text = json.dumps({**doc, "runs": [f"@run{i}@" for i in range(len(runs))]}, indent=1, ensure_ascii=False)
    return re.sub(r'"@run(\d+)@"', lambda m: runs[int(m.group(1))], text) + "\n"


def rev_parse(rev):
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", rev + "^{commit}"],
                          check=True, stdout=subprocess.PIPE, text=True).stdout.strip()


def unpack(commit, dest):
    """`git archive` the commit into dest and build its benchmark there."""
    dest.mkdir(parents=True)
    tar = dest.with_suffix(".tar")
    subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", "-o", str(tar), commit], check=True)
    with tarfile.open(tar) as t:
        t.extractall(dest)
    tar.unlink()
    subprocess.run([sys.executable, "perfbench/build.py"], cwd=dest, check=True, stdout=subprocess.DEVNULL)


def run_one(tree, side, workload, seed, seconds, trace):
    """One perfbench run; its record as in a BENCH file's `runs`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = res.stdout.strip().splitlines()
    provenance = next((json.loads(l[len("# provenance "):]) for l in lines if l.startswith("# provenance ")), {})
    record = {"side": side, "workload": workload, "seed": seed, "trace": trace,
              "calibration_ms": provenance.get("calibration_ms", []),
              "failed_checks": [l[len("# FAILED check "):] for l in lines if l.startswith("# FAILED check ")],
              "report": parse_report(lines),
              "result": None}
    if res.returncode == 0 and lines:
        record["result"] = json.loads(lines[-1])
    else:
        record["error"] = f"exit {res.returncode}: {res.stderr.strip()[-500:]}"
    return record, provenance


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="the baseline revision")
    ap.add_argument("--change", required=True, help="the revision under test")
    ap.add_argument("--out", required=True, help="the BENCH JSON file to write")
    ap.add_argument("--workdir", help="where the two trees go (default: a new temporary directory)")
    ap.add_argument("what", help="one sentence on what the change does")
    a = ap.parse_args()

    commits = {"parent": rev_parse(a.parent), "change": rev_parse(a.change)}
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = contract["run_seconds"]
    workloads = [w["name"] for w in contract["workloads"]]
    work = Path(tempfile.mkdtemp(prefix="ab_bench-", dir=a.workdir))
    trees = {side: work / side for side in commits}
    out = Path(a.out)
    doc = {
        "what": a.what,
        "parent_commit": commits["parent"],
        "change": commits["change"],
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds:g} --trace <0|1>",
        "protocol": (
            "parent and change each unpacked with git archive into a fresh directory and built by "
            "perfbench/build.py; runs one at a time; within a pair, odd seeds run parent first, even seeds "
            f"change first. Untraced: seeds 1-{PAIRS} per workload. Traced: seeds 1-{TRACED_PAIRS} per workload. "
            "Written by scripts/ab_bench.py."),
        "machine": {},
        "summary": {},
        "runs": [],
    }
    try:
        for side, commit in commits.items():
            print(f"building {side} {commit[:10]} in {trees[side]}", file=sys.stderr)
            unpack(commit, trees[side])
        for trace, count in ((0, PAIRS), (1, TRACED_PAIRS)):
            for workload in workloads:
                for seed in range(1, count + 1):
                    order = ("parent", "change") if seed % 2 else ("change", "parent")
                    for side in order:
                        record, provenance = run_one(trees[side], side, workload, seed, seconds, trace)
                        doc["runs"].append(record)
                        if provenance and not doc["machine"]:
                            doc["machine"] = {k: provenance[k] for k in MACHINE_KEYS if k in provenance}
                        doc["summary"] = summarize(doc["runs"])
                        out.write_text(render(doc))
                        metric = (record["result"] or {}).get("metrics", {}).get("op_ms", {}).get("value")
                        print(f"{workload} seed {seed} trace {trace} {side}: op_ms {metric} "
                              f"calibration {record['calibration_ms']} {record.get('error', '')}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if all(r["result"] for r in doc["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
