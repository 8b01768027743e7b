"""fracwos benchmark: four solver workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

A run makes a fixed number of timed calls, each in a fresh process started
from `worker.py` with `workers=1` and one BLAS/OpenMP thread.  Call i uses
the library seed `1000 * seed + i`, so a seed always gives the same inputs
and the same walk steps.  The number of calls is `--seconds` divided by the
nominal time of one call on the reference machine (at least MIN_CALLS), so
it does not depend on how fast the machine is.  Every call's result is
checked, and its digest and walk steps are compared with every earlier run
of the same library seed on the same program and benchmark code; a call that raises, fails
its check or disagrees with an earlier run counts as failed.

With `--trace 0` the last stdout line holds the end-to-end metrics, with
`--trace 1` the per-layer metrics of the traced calls (see README.md).
Provenance and per-call details go to `.perfbench/runs.jsonl` at the root
of the checkout; digests go to `.perfbench/ledger-<code hash>.json`.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (needs HERE on sys.path)

# Seconds of one full-size call, with its process start, import and set-up,
# on the reference machine (2-core x86-64 sandbox).
CALL_S = {"solve": 6.8, "eig": 6.1, "point": 6.6, "assumptions": 10.5}
MIN_CALLS = 2
MIN_SETUPS = 5          # set-up samples per untraced run, for a steady median
DEADLINE_S = 170.0      # a run must end within 180 s
EXIT_SETUP = 3          # worker.py: fracwos could not be imported or set up

END_TO_END = [("wall_s", "s"), ("walk_steps", "count"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                  "NUMEXPR_NUM_THREADS")


class SetupFailed(RuntimeError):
    """A worker could not import or set up fracwos."""


def _worker(workload, size, seed, trace, timeout):
    """Run one worker process; returns its JSON record."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--size", size]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, **{v: "1" for v in PINNED_THREADS})
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=timeout)
    if proc.returncode == EXIT_SETUP:
        raise SetupFailed(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def code_hash() -> str:
    """Hash of the program and the benchmark code; keys the digest ledger."""
    h = hashlib.sha256()
    files = [*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_sha():
    """HEAD of the checkout's own .git directory; None when there is none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "system": platform.platform(),
            "python": platform.python_version(), **versions,
            "git_sha": _git_sha(), "code_hash": code_hash(),
            "threads": {v: "1" for v in PINNED_THREADS}}


def check_ledger(workload, size, calls) -> None:
    """Compare digests and steps with earlier runs of the same library seed.

    A disagreement marks the call failed; new seeds are added to the ledger.
    """
    STATE.mkdir(exist_ok=True)
    path = STATE / f"ledger-{code_hash()}.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    for c in calls:
        if "digest" not in c:
            continue
        key = f"{workload}/{size}/{c['seed']}"
        mine = {"digest": c["digest"], "steps": c["steps"]}
        seen = ledger.setdefault(key, mine)
        if seen != mine:
            c["ok"] = False
            c["detail"] += f"; differs from an earlier run: {seen}"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=0, sort_keys=True))
    os.replace(tmp, path)


def end_to_end(calls, setups) -> dict:
    done = [c for c in calls if "wall_s" in c]
    values = {
        "wall_s": statistics.fmean(c["wall_s"] for c in done),
        "walk_steps": statistics.fmean(c["steps"] for c in done),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in done),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer(calls) -> dict:
    done = [c for c in calls if "trace" in c and "wall_s" in c]
    spans = tracing.merge(c["trace"]["call"] for c in done)
    setup = tracing.merge(c["trace"]["setup"] for c in done)
    wall = sum(c["wall_s"] for c in done)
    return tracing.layer_metrics(spans, setup, len(done), wall)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="fracwos benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(CALL_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a seconds-long run that only tests the harness")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")

    start = time.monotonic()
    n_calls = MIN_CALLS
    if args.size == "full":
        n_calls = max(MIN_CALLS, round(args.seconds / CALL_S[args.workload]))
    n_setups = 0 if args.trace else max(0, MIN_SETUPS - n_calls)
    load_before = os.getloadavg()

    def remaining():
        return max(1.0, DEADLINE_S - (time.monotonic() - start))

    setups, calls = [], []
    try:
        for _ in range(n_setups):
            rec = _worker(args.workload, args.size, None, False, remaining())
            if "setup_s" not in rec:
                raise SetupFailed(rec["error"])
            setups.append(rec["setup_s"])
        for i in range(n_calls):
            seed = 1000 * args.seed + i
            try:
                rec = _worker(args.workload, args.size, seed, args.trace,
                              remaining())
            except subprocess.TimeoutExpired:
                calls.append({"seed": seed, "error": "run deadline reached"})
                break
            rec["seed"] = seed
            calls.append(rec)
            if "setup_s" in rec:
                setups.append(rec["setup_s"])
    except (SetupFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    load_after = os.getloadavg()

    if not any("wall_s" in c for c in calls):
        for c in calls:
            print(f"perfbench: seed {c['seed']}: {c.get('error')}",
                  file=sys.stderr)
        return 1
    check_ledger(args.workload, args.size, calls)
    failed = sum(1 for c in calls if "error" in c or not c.get("ok"))
    metrics = per_layer(calls) if args.trace else end_to_end(calls, setups)
    result = {"correct": failed == 0, "attempted": len(calls),
              "failed": failed, "metrics": metrics}

    record = {"time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
              "args": vars(args), "provenance": provenance(),
              "loadavg_before": load_before, "loadavg_after": load_after,
              "setups_s": setups,
              "calls": [{k: v for k, v in c.items() if k != "trace"}
                        for c in calls],
              "result": result}
    STATE.mkdir(exist_ok=True)
    with open(STATE / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    for c in calls:
        if "error" in c:
            print(f"seed {c['seed']}: FAILED: {c['error'].strip()}")
        else:
            print(f"seed {c['seed']}: {'ok' if c['ok'] else 'FAILED'}: "
                  f"{c['wall_s']:.3f} s, {c['steps']} steps, {c['detail']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
