"""Paired before/after benchmark of two commits on this machine.

    python3 scripts/bench_pair.py BASE CHANGE                    # 10 pairs, full size
    python3 scripts/bench_pair.py HEAD HEAD --size tiny --pairs 2 --seconds 1

Checks both commits out with `git worktree add` into a temporary directory
and runs each checkout's own untraced `perfbench/run.py` once per workload
and seed SEED0 .. SEED0 + PAIRS - 1, alternating seed by seed which side
goes first.  Writes both sides' BENCH_<sha>.json through bench_file.py and
prints, per workload and end-to-end metric, each side's median and
quartiles over its runs, the median paired ratio change/base, "lower in k
of n pairs", and whether every seed's call digests and walk steps match
between the sides.  Exits 1 when a call failed or a digest differs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from bench_file import END_TO_END, spread  # noqa: E402

WORKLOADS = ("solve", "eig", "point", "assumptions")


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          capture_output=True).stdout.strip()


def check_out(out: str) -> None:
    """Make the --out directory, and exit unless it is writable, before any
    run: the bench files are written only after the last pair."""
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        sys.exit(f"bench_pair: cannot make --out {out}: {exc}")
    if not os.access(path, os.W_OK | os.X_OK):
        sys.exit(f"bench_pair: --out {out} is not writable")


def run_once(tree: Path, workload: str, seed: int, args) -> dict:
    """One untraced run of the checkout's own benchmark: its result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(args.seconds),
         "--size", args.size], cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench_pair: {workload} seed {seed} in {tree} exited "
                 f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def read_runs(tree: Path, sha: str) -> list:
    """The checkout's runs.jsonl records, with the commit's sha: run.py reads
    HEAD from a .git directory, and a worktree's .git is a file."""
    path = tree / ".perfbench" / "runs.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for rec in records:
        rec["provenance"]["git_sha"] = rec["provenance"]["git_sha"] or sha
    return records


def write_bench_file(records: list, tree: Path, args) -> None:
    """BENCH_<sha>.json of one side, through scripts/bench_file.py."""
    runs = tree / ".perfbench" / "runs-with-sha.jsonl"
    runs.write_text("".join(json.dumps(r) + "\n" for r in records))
    subprocess.run([sys.executable, str(HERE / "bench_file.py"),
                    "--code-hash", records[0]["provenance"]["code_hash"],
                    "--size", args.size, "--runs", str(runs),
                    "--out", args.out], check=True)


def calls_by_seed(records: list) -> dict:
    """(workload, seed) -> [(call seed, digest, walk steps)] of each run."""
    return {(r["args"]["workload"], r["args"]["seed"]):
            [(c["seed"], c.get("digest"), c.get("steps")) for c in r["calls"]]
            for r in records}


def report(workload: str, results: dict, calls: dict, seeds: list) -> bool:
    """Print one workload's table; False when a call failed or digests differ."""
    n = len(seeds)
    base, change = ([results[side, workload, s] for s in seeds]
                    for side in ("base", "change"))
    failed = [sum(r["failed"] for r in side) for side in (base, change)]
    differ = sum(calls["base"][workload, s] != calls["change"][workload, s]
                 for s in seeds)
    print(f"\n{workload}: {n} pairs, seeds {seeds[0]}..{seeds[-1]}; failed "
          f"calls base {failed[0]}, change {failed[1]}; digests and "
          f"walk_steps " + ("match at every seed" if not differ
                            else f"DIFFER at {differ} of {n} seeds"))
    print(f"  {'metric':<12}{'base median [q1, q3]':>36}"
          f"{'change median [q1, q3]':>36}{'change/base':>13}  lower in")
    for name, _unit in END_TO_END:
        b, c = ([r["metrics"][name]["value"] for r in side]
                for side in (base, change))
        ratio = statistics.median(y / x for x, y in zip(b, c) if x)
        lower = sum(y < x for x, y in zip(b, c))
        cols = ["{median:.5g} [{q1:.5g}, {q3:.5g}]".format(**spread(v))
                for v in (b, c)]
        print(f"  {name:<12}{cols[0]:>36}{cols[1]:>36}{ratio:13.4f}  "
              f"{lower} of {n} pairs")
    return not differ and not any(failed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--out", default=str(ROOT),
                    help="directory of the two BENCH_<sha>.json files, "
                    "made if missing")
    args = ap.parse_args(argv)
    check_out(args.out)
    workloads = args.workloads.split(",")
    seeds = list(range(args.seed0, args.seed0 + args.pairs))
    shas = {side: git("rev-parse", "--verify", ref + "^{commit}")
            for side, ref in (("base", args.base), ("change", args.change))}
    with tempfile.TemporaryDirectory(prefix="bench_pair-") as tmp:
        trees = {side: Path(tmp) / side for side in shas}
        try:
            for side, sha in shas.items():
                git("worktree", "add", "--detach", str(trees[side]), sha)
            results = {}
            for i, seed in enumerate(seeds):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for workload in workloads:
                    for side in order:
                        results[side, workload, seed] = run_once(
                            trees[side], workload, seed, args)
            records = {side: read_runs(trees[side], shas[side])
                       for side in shas}
            for side in shas:
                write_bench_file(records[side], trees[side], args)
        finally:
            for tree in trees.values():
                if tree.exists():
                    git("worktree", "remove", "--force", str(tree))
    calls = {side: calls_by_seed(records[side]) for side in shas}
    print(f"base {shas['base'][:7]}, change {shas['change'][:7]}, "
          f"{args.size} size, {args.seconds:g} s per run")
    ok = [report(w, results, calls, seeds) for w in workloads]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
