"""One benchmark process: import fracwos, set the workload up, make one call.

`run.py` starts one of these for every timed call and for every extra
set-up sample, so each call runs in a fresh single process:

    python3 perfbench/worker.py --workload solve --size full --seed 7000 [--trace]

Without `--seed` the process only sets up.  It prints one JSON line with
`setup_s` and, for a call, `wall_s`, walk steps, the result digest, the
check, the peak resident memory and, with `--trace`, the span totals.  A
call that raises is reported in the line; when fracwos cannot be imported
or set up the process prints nothing and exits with EXIT_SETUP.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXIT_SETUP = 3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(1, str(src))
    t0 = time.perf_counter()
    try:
        import fracwos
    except ImportError:
        traceback.print_exc()
        return EXIT_SETUP
    import_s = time.perf_counter() - t0
    if not Path(fracwos.__file__).resolve().is_relative_to(src):
        print(f"fracwos imported from {fracwos.__file__}, not {src}",
              file=sys.stderr)
        return EXIT_SETUP

    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    t1 = time.perf_counter()
    try:
        wl = workloads.make(args.workload, args.size)
    except Exception:
        traceback.print_exc()
        return EXIT_SETUP
    out = {"setup_s": import_s + time.perf_counter() - t1}

    if args.seed is not None:
        if tracer is not None:
            setup_spans = tracer.totals()
            tracer.reset()
        try:
            t2, c2 = time.perf_counter(), time.process_time()
            res = wl.call(args.seed)
            out["wall_s"] = time.perf_counter() - t2
            out["cpu_s"] = time.process_time() - c2
            oc = wl.outcome(res)
            out.update(steps=int(oc.steps), digest=oc.digest, ok=oc.ok,
                       detail=oc.detail)
        except Exception:
            out["error"] = traceback.format_exc()
        out["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            out["trace"] = {"setup": setup_spans, "call": tracer.totals()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
