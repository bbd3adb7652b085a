#!/usr/bin/env python3
"""Same-machine A/B comparison of a change against its parent commit.

Exports the parent commit (``--base``) with ``git archive`` into a
scratch directory, then runs the repository benchmark
(``python3 perfbench/run.py``) in alternating parent/change pairs on
every requested workload. The change is this checkout's working tree,
uncommitted edits included. Each side builds its own Release tree from
its own sources on first use; the scratch export is kept and reused
for the same parent commit.

For every metric and workload it prints each side's median and
quartiles, the number of pairs the change won, and a verdict under the
choosing-metrics rule for claiming a gain:

* ``gain``: the change won at least 9/10 of the pairs (ties count for
  neither side) and the medians differ, in the better direction, by
  more than the parent's interquartile range;
* ``loss``: the same test in the worse direction;
* ``REGRESSED``: an end-to-end metric whose median is worse than the
  parent's by more than its ``BENCHMARK.json`` bound;
* ``unresolved``: an end-to-end metric whose parent spread is wider
  than its bound, so "flat" could not be told apart from a regression,
  unless every run of the change reads better than every parent run;
* ``flat`` otherwise. Hash-valued metrics (``model.*.signature``,
  ``--trace 1``) must be equal in every pair: ``same`` or ``DIFFERS``.

The exit status is 1 when any run fails or reports ``"correct":
false``, a signature differs, or a metric regressed beyond its bound.

The parent defaults to the merge-base of HEAD and ``main``. When that
is HEAD itself, the parent is HEAD while the working tree has
uncommitted changes and HEAD~1 otherwise.

Usage:
  tools/bench_ab.py --workload sat32_sharded --pairs 10 --seconds 20 \\
      --seeds 31,32,33
  tools/bench_ab.py --workload sat8 --pairs 2 --trace 1   # per-layer
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_SHARE = 0.9


def git(*args, cwd=ROOT):
    r = subprocess.run(["git"] + list(args), cwd=cwd,
                       capture_output=True, text=True)
    if r.returncode != 0:
        sys.exit("bench_ab: git %s failed: %s"
                 % (" ".join(args), r.stderr.strip()))
    return r.stdout.strip()


def resolve_base(base):
    """Commit id of the parent the working tree is compared against."""
    if base:
        return git("rev-parse", "--verify", base + "^{commit}")
    head = git("rev-parse", "HEAD")
    merge_base = git("merge-base", "HEAD", "main")
    if merge_base != head:
        return merge_base
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return head if dirty else git("rev-parse", "HEAD~1")


def export_base(sha, scratch):
    """Export @p sha under @p scratch once; return the tree's root."""
    root = os.path.join(scratch, "base-" + sha[:12])
    marker = os.path.join(root, ".bench_ab_export")
    if os.path.isfile(marker):
        return root
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", root], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        sys.exit("bench_ab: git archive %s failed" % sha)
    with open(marker, "w") as f:
        f.write(sha + "\n")
    return root


def build(root):
    """Build perfbench in @p root (run.py builds before it forwards;
    --help then makes the program print its usage and stop)."""
    subprocess.run([sys.executable, "perfbench/run.py", "--help"],
                   cwd=root, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)
    binary = os.path.join(root, ".bench_build", "perfbench", "perfbench")
    if not os.path.isfile(binary):
        sys.exit("bench_ab: perfbench did not build in " + root)


def run_once(root, workload, seed, seconds, trace):
    """One benchmark run; returns its result object or None on failure."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr[-2000:])
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    attempted = result.get("attempted", 0)
    result["metrics"]["failed_frac"] = {
        "value": result.get("failed", 0) / attempted if attempted else 1.0,
        "unit": "fraction"}
    return result


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order stats."""
    xs = sorted(values)

    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def load_metric_specs():
    """{name: spec} from BENCHMARK.json, plus failed_frac."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {m["name"]: dict(m, end_to_end=True)
             for m in bench.get("end_to_end", [])}
    for m in bench.get("per_layer", []):
        specs.setdefault(m["name"], dict(m, end_to_end=False))
    specs.setdefault("failed_frac", {"name": "failed_frac",
                                     "unit": "fraction",
                                     "better": "lower", "bound": 0.0,
                                     "end_to_end": True})
    return specs


def verdict(spec, base, change):
    """Summarise one metric of one workload over the paired runs."""
    if spec.get("unit") == "hash":
        same = all(b == c for b, c in zip(base, change))
        return {"verdict": "same" if same else "DIFFERS", "fail": not same}
    sign = 1.0 if spec.get("better", "higher") == "higher" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    losses = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    gap = sign * (cmed - bmed)
    iqr = bq3 - bq1
    pairs = len(base)
    out = {"base": [bq1, bmed, bq3], "change": [cq1, cmed, cq3],
           "ratio": cmed / bmed if bmed else None, "wins": wins,
           "losses": losses, "pairs": pairs, "fail": False}
    bound = spec.get("bound") if spec.get("end_to_end") else None
    worse = -gap / abs(bmed) if bmed else (1.0 if gap < 0 else 0.0)
    if wins >= WIN_SHARE * pairs and gap > iqr:
        out["verdict"] = "gain"
    elif bound is not None and worse > bound:
        out["verdict"] = "REGRESSED"
        out["fail"] = True
    elif losses >= WIN_SHARE * pairs and -gap > iqr:
        out["verdict"] = "loss"
    elif (bound is not None and bmed and iqr / abs(bmed) > bound
          and not all(sign * (c - b) > 0 for c in change for b in base)):
        out["verdict"] = "unresolved"
    else:
        out["verdict"] = "flat"
    return out


def fmt(x):
    if x is None:
        return "-"
    if x == 0 or 1e-3 <= abs(x) < 1e6:
        return "%.4g" % x
    return "%.3e" % x


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n\n", 1)[1])
    ap.add_argument("--base", help="parent commit (default: see below)")
    ap.add_argument("--workload", action="append",
                    help="workload name, repeatable (default: every "
                    "BENCHMARK.json workload)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--seeds", default="31,32,33",
                    help="comma list; pair i uses seed i mod len")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch",
                    default=os.path.join(tempfile.gettempdir(),
                                         "bench_ab"),
                    help="where the parent is exported and built")
    ap.add_argument("--json", help="also write the summary here")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = args.workload or [w["name"]
                                      for w in json.load(f)["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",") if s]
    specs = load_metric_specs()

    base_sha = resolve_base(args.base)
    head = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    os.makedirs(args.scratch, exist_ok=True)
    base_root = export_base(base_sha, args.scratch)
    sides = {"base": base_root, "change": ROOT}
    for root in sides.values():
        build(root)

    print("bench_ab: base %s, change %s%s; %d pairs x %gs, seeds %s, "
          "trace %d; %s, nproc %d"
          % (base_sha[:12], head[:12], "+dirty" if dirty else "",
             args.pairs, args.seconds, args.seeds, args.trace,
             cpu_model(), os.cpu_count() or 0), flush=True)

    failed = False
    summary = {"base": base_sha, "change": head, "dirty": dirty,
               "pairs": args.pairs, "seconds": args.seconds,
               "seeds": seeds, "trace": args.trace, "cpu": cpu_model(),
               "nproc": os.cpu_count(), "workloads": {}}
    for workload in workloads:
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            order = ("base", "change") if i % 2 == 0 else ("change",
                                                           "base")
            for side in order:
                res = run_once(sides[side], workload, seed,
                               args.seconds, args.trace)
                if res is None or not res.get("correct", False):
                    print("bench_ab: %s %s seed %d: run failed or "
                          "incorrect" % (workload, side, seed))
                    failed = True
                    res = None
                runs[side].append(res)
            print("  %s pair %d/%d done" % (workload, i + 1, args.pairs),
                  file=sys.stderr, flush=True)
        ok = [i for i in range(args.pairs)
              if runs["base"][i] and runs["change"][i]]
        if not ok:
            continue
        names = [n for n in runs["base"][ok[0]]["metrics"]
                 if all(n in runs[s][i]["metrics"]
                        for s in runs for i in ok)]
        rows = {}
        print("\n%s (%d pairs)" % (workload, len(ok)))
        print("%-44s %-34s %-34s %7s %5s  %s"
              % ("metric", "base median [q1, q3]",
                 "change median [q1, q3]", "ratio", "wins", "verdict"))
        for name in names:
            spec = specs.get(name, {"name": name, "better": "higher"})
            base = [runs["base"][i]["metrics"][name]["value"] for i in ok]
            change = [runs["change"][i]["metrics"][name]["value"]
                      for i in ok]
            v = verdict(spec, base, change)
            v["runs"] = {"base": base, "change": change,
                         "seeds": [seeds[i % len(seeds)] for i in ok]}
            rows[name] = v
            failed = failed or v["fail"]
            if "base" in v:
                print("%-44s %-34s %-34s %7s %2d/%-2d  %s"
                      % (name,
                         "%s [%s, %s]" % (fmt(v["base"][1]),
                                          fmt(v["base"][0]),
                                          fmt(v["base"][2])),
                         "%s [%s, %s]" % (fmt(v["change"][1]),
                                          fmt(v["change"][0]),
                                          fmt(v["change"][2])),
                         fmt(v["ratio"]), v["wins"], v["pairs"],
                         v["verdict"]))
            else:
                print("%-44s %-34s %-34s %7s %5s  %s"
                      % (name, "", "", "", "", v["verdict"]))
        summary["workloads"][workload] = rows

    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
