#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark.

    tools/ab.py --workload serve_small [--parent REV] [--change REV|DIR]
                [--seeds 11-20,97] [--seconds 40] [--trace 0|1]
                [--workdir DIR] [--json OUT]

Each side is a git revision, exported with `git archive` into its own
directory under the work directory (a temporary one by default), or a
source directory used as it stands (`--change .`, the default, is the
working tree). Each side's benchmark is built once, into its own
CARGO_TARGET_DIR under the work directory, before any run. Then, for
every seed, the unchanged `perfbench/run.py` of each side runs once
with that seed; the side that goes first alternates from pair to pair,
so drift on a shared host falls on both sides alike.

For every metric it prints each side's median and quartiles,
the median of the per-pair ratios change/parent with a bootstrap 95%
interval, and how many pairs the change won (by the metric's `better`
direction in BENCHMARK.json). `beyond_iqr` says whether the medians
differ by more than the parent's interquartile range. With --json it
writes an fpc-bench-v1 document: a `paired` table (one row per
metric), a `runs` table (every run made, end-to-end metrics only) and
every run's full metric set under notes.runs. Stdlib only.
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        elif part:
            seeds.append(int(part))
    return seeds


def checkout(spec, workdir, name):
    """The source directory of one side."""
    if os.path.isdir(spec):
        return os.path.abspath(spec)
    dest = os.path.join(workdir, name + "-src")
    if not os.path.isdir(dest):
        os.makedirs(dest)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", spec],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            sys.exit("ab: git archive %s failed" % spec)
    return dest


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def bootstrap(ratios, rng, rounds=2000):
    """95% interval of the median ratio over resampled pairs."""
    meds = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                  for _ in range(rounds))
    return meds[int(0.025 * rounds)], meds[int(0.975 * rounds) - 1]


class Side:
    def __init__(self, name, spec, workdir):
        self.name = name
        self.src = checkout(spec, workdir, name)
        self.target = os.path.join(workdir, name + "-build")
        self.log = os.path.join(workdir, name + ".log")

    def env(self):
        env = dict(os.environ)
        env["CARGO_TARGET_DIR"] = self.target
        return env

    def build(self):
        # The commands run.py builds with, so that the timed runs find
        # the build up to date.
        bdir = os.path.join(self.target, "perfbench")
        with open(self.log, "a") as log:
            for cmd in (["cmake", "-S", os.path.join(self.src, "perfbench"),
                         "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                        ["cmake", "--build", bdir, "-j", "2"]):
                if subprocess.run(cmd, stdout=log, stderr=log,
                                  env=self.env()).returncode != 0:
                    sys.exit("ab: %s build failed, see %s"
                             % (self.name, self.log))

    def run(self, workload, seed, seconds, trace):
        cmd = [sys.executable, os.path.join(self.src, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        with open(self.log, "a") as log:
            proc = subprocess.run(cmd, cwd=self.src, env=self.env(),
                                  stdout=subprocess.PIPE, stderr=log,
                                  text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            return json.loads(lines[-1])
        except (IndexError, ValueError):
            sys.exit("ab: %s seed %d printed no result (exit %d), see %s"
                     % (self.name, seed, proc.returncode, self.log))


def directions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    out = {}
    for group in ("end_to_end", "per_layer"):
        for m in manifest.get(group, []):
            out[m["name"]] = (m["better"], m.get("unit", ""),
                              group == "end_to_end")
    return out


def value(run, name):
    """A metric's value in one run's result ({"value": v, "unit": u})."""
    m = run["metrics"].get(name)
    return m.get("value") if isinstance(m, dict) else m


def summarize(runs, better):
    rng = random.Random(1)
    rows = []
    names = sorted({k for r in runs for k in r["parent"]["metrics"]} &
                   {k for r in runs for k in r["change"]["metrics"]})
    for name in names:
        pairs = [(value(r["parent"], name), value(r["change"], name))
                 for r in runs]
        pairs = [(a, b) for a, b in pairs
                 if isinstance(a, (int, float)) and
                 isinstance(b, (int, float))]
        if not pairs:
            continue
        direction, unit, e2e = better.get(name, ("lower", "", False))
        a = [p[0] for p in pairs]
        b = [p[1] for p in pairs]
        wins = sum(1 for x, y in pairs
                   if (y < x if direction == "lower" else y > x))
        ratios = [y / x for x, y in pairs if x != 0]
        ra1, ra2, ra3 = quartiles(a)
        rb1, rb2, rb3 = quartiles(b)
        row = {"metric": name, "unit": unit, "better": direction,
               "end_to_end": e2e, "pairs": len(pairs), "wins": wins,
               "parent": [ra1, ra2, ra3], "change": [rb1, rb2, rb3],
               "beyond_iqr": abs(rb2 - ra2) > (ra3 - ra1)}
        if ratios:
            lo, hi = bootstrap(ratios, rng)
            row["ratio"] = [statistics.median(ratios), lo, hi]
        rows.append(row)
    return rows


def fmt(x):
    return "%.4g" % x if isinstance(x, (int, float)) else str(x)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--parent", default="HEAD")
    ap.add_argument("--change", default=ROOT)
    ap.add_argument("--seeds", default="11-20,97")
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir")
    ap.add_argument("--json")
    ap.add_argument("--from-runs", metavar="FILE",
                    help="summarize the pairs an earlier run kept in FILE "
                         "instead of running any")
    args = ap.parse_args()

    if args.from_runs:
        with open(args.from_runs) as f:
            runs = json.load(f)
    else:
        runs = run_pairs(args)
    report(args, runs)
    return 0


def run_pairs(args):
    workdir = args.workdir or tempfile.mkdtemp(prefix="fpc-ab-")
    os.makedirs(workdir, exist_ok=True)
    sides = {"parent": Side("parent", args.parent, workdir),
             "change": Side("change", args.change, workdir)}
    for side in sides.values():
        side.build()

    runs = []
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for name in order:
            pair[name] = sides[name].run(args.workload, seed, args.seconds,
                                         args.trace)
        runs.append(pair)
        # Every finished pair is kept, should a later run fail.
        with open(os.path.join(workdir, "runs-%s-trace%d.json"
                               % (args.workload, args.trace)), "w") as f:
            json.dump(runs, f)
        print("ab: pair %d seed %d (%s first): failed %s/%s"
              % (i + 1, seed, order[0], pair["parent"].get("failed"),
                 pair["change"].get("failed")), flush=True)
    return runs


def report(args, runs):
    better = directions()
    rows = summarize(runs, better)
    print("%-34s %10s %10s %10s %8s %17s %5s %s"
          % ("metric", "parent", "change", "par.IQR", "ratio",
             "95% interval", "wins", "beyond_iqr"))
    for r in rows:
        ratio = r.get("ratio", ["-", "-", "-"])
        print("%-34s %10s %10s %10s %8s %8s-%-8s %2d/%-2d %s"
              % (r["metric"], fmt(r["parent"][1]), fmt(r["change"][1]),
                 fmt(r["parent"][2] - r["parent"][0]), fmt(ratio[0]),
                 fmt(ratio[1]), fmt(ratio[2]), r["wins"], r["pairs"],
                 "yes" if r["beyond_iqr"] else "no"))

    if args.json:
        e2e = [n for n, (_, _, is_e2e) in better.items() if is_e2e]
        doc = {
            "schema": "fpc-bench-v1",
            "bench": "ab_" + args.workload,
            "tables": {
                "paired": {
                    "headers": ["metric", "unit", "better", "parent q1",
                                "parent median", "parent q3", "change q1",
                                "change median", "change q3",
                                "median ratio", "ratio lo", "ratio hi",
                                "wins", "pairs", "beyond_iqr"],
                    "rows": [[r["metric"], r["unit"], r["better"]] +
                             [fmt(x) for x in r["parent"] + r["change"] +
                              r.get("ratio", ["-"] * 3)] +
                             [r["wins"], r["pairs"], r["beyond_iqr"]]
                             for r in rows],
                },
                "runs": {
                    "headers": ["pair", "seed", "side", "first", "correct",
                                "failed"] + e2e,
                    "rows": [[i + 1, p["seed"], s, p["first"] == s,
                              p[s].get("correct"), p[s].get("failed")] +
                             [value(p[s], m) for m in e2e]
                             for i, p in enumerate(runs)
                             for s in ("parent", "change")],
                },
            },
            "metrics": {r["metric"] + ".median_ratio": r["ratio"][0]
                        for r in rows if "ratio" in r},
            "notes": {
                "workload": args.workload,
                "parent": args.parent,
                "change": (args.change if not os.path.isdir(args.change)
                           else "working tree"),
                "seconds": args.seconds,
                "trace": args.trace,
                "host": "%s, %d CPUs" % (platform.machine(),
                                         os.cpu_count()),
                "runs": runs,
            },
        }
        with open(args.json, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    sys.exit(main())
