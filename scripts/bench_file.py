"""Summarize benchmark runs of one program version into BENCH_<sha>.json.

    python3 scripts/bench_file.py                    # this checkout's code, full size
    python3 scripts/bench_file.py --code-hash d0da6dcf0aed361d --out /tmp

Reads the untraced records in `.perfbench/runs.jsonl` (written by
`perfbench/run.py`) whose code hash and size match, and writes, per
workload, the median and interquartile range over all their calls of each
end-to-end metric: `wall_s`, `walk_steps` and `peak_rss_mb` per timed call,
`setup_s` per set-up sample.  The file also lists each workload's call
seeds, its failed calls, and the provenance of the runs: machine, versions,
git sha, code hash, times and load averages.  It is named after the short
git sha of the runs, or after the code hash where they had no git checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import END_TO_END, code_hash  # noqa: E402

# per-call field of each end-to-end metric; setup_s comes from the set-ups
CALL_FIELD = {"wall_s": "wall_s", "walk_steps": "steps",
              "peak_rss_mb": "peak_rss_mb"}


def spread(values) -> dict:
    """Median, quartiles and interquartile range of a sample."""
    values = sorted(values)
    q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                  if len(values) > 1 else values * 3)
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "n": len(values)}


def summarize(records) -> dict:
    """The bench file's content from matching runs.jsonl records."""
    workloads = {}
    for rec in records:
        w = workloads.setdefault(rec["args"]["workload"],
                                 {"runs": 0, "calls": [], "setups": []})
        w["runs"] += 1
        w["calls"] += rec["calls"]
        w["setups"] += rec["setups_s"]
    out = {}
    for name, w in sorted(workloads.items()):
        done = [c for c in w["calls"] if "wall_s" in c]
        samples = {m: [c[f] for c in done] for m, f in CALL_FIELD.items()}
        samples["setup_s"] = w["setups"]
        out[name] = {
            "runs": w["runs"], "calls": len(w["calls"]),
            "failed": sum(1 for c in w["calls"]
                          if "error" in c or not c.get("ok")),
            "seeds": [c["seed"] for c in w["calls"]],
            "metrics": {m: {"unit": unit, **spread(samples[m])}
                        for m, unit in END_TO_END if samples[m]}}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--code-hash", default=None,
                    help="runs of this code hash (default: this checkout's)")
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--runs", default=str(ROOT / ".perfbench" / "runs.jsonl"))
    ap.add_argument("--out", default=str(ROOT),
                    help="output directory, made if missing")
    args = ap.parse_args(argv)
    want = args.code_hash or code_hash()
    with open(args.runs) as fh:
        records = [r for r in map(json.loads, fh)
                   if r["provenance"]["code_hash"] == want
                   and r["args"]["size"] == args.size
                   and not r["args"]["trace"]]
    if not records:
        print(f"bench_file: no untraced {args.size} runs of code {want} "
              f"in {args.runs}", file=sys.stderr)
        return 1
    prov = dict(records[-1]["provenance"])
    for key in ("git_sha", "nproc", "numpy", "scipy", "python"):
        seen = {json.dumps(r["provenance"][key]) for r in records}
        if len(seen) > 1:
            prov[key] = [json.loads(v) for v in sorted(seen)]
    prov.update(size=args.size, first_run=records[0]["time"],
                last_run=records[-1]["time"],
                loadavg_1min=[r["loadavg_before"][0] for r in records])
    sha = prov["git_sha"]
    name = sha[:7] if isinstance(sha, str) else want
    path = Path(args.out) / f"BENCH_{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"provenance": prov,
                                "workloads": summarize(records)},
                               indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
