#!/usr/bin/env python3
"""One benchmark repetition in a fresh, single-threaded Python process.

    python3 bench/worker.py --workload NAME --seed N --rep I --mode run|trace|setup|reference

Imports ``sixv`` from this checkout and builds the workload's inputs (timed
as set-up), calls ``sixv.cli.main`` once (timed as wall time), checks the
output against ``reference.json`` and prints one JSON record as its last
line.  ``setup`` stops after set-up; ``trace`` wraps the layer entry points
first (see spans.py); ``reference`` prints what ``reference.json`` should
hold for this workload instead of checking.  ``run.py`` starts these
processes one after another.
"""

# Only os, sys (loaded at interpreter start-up) and the built-in time are
# imported before set-up is timed; every other import is paid inside it.
import os
import sys
import time


def _parse_args():
    import argparse  # loaded by sixv.cli by the time this runs

    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("run", "trace", "setup", "reference"))
    return parser.parse_args()


def _cache_counts(functions):
    """Total (hits, misses) of the ``lru_cache``s among ``functions``, or None if none is left."""
    infos = [f.cache_info() for f in functions if hasattr(f, "cache_info")]
    if not infos:
        return None
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def _cache_metrics(prefix, counts):
    if counts is None:
        return {f"{prefix}.{m}": None for m in ("cache_hits", "cache_misses", "cache_hit_ratio")}
    hits, misses = counts
    return {
        f"{prefix}.cache_hits": hits,
        f"{prefix}.cache_misses": misses,
        f"{prefix}.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


def _layer_metrics(tracer, spans):
    """Per-layer totals of the traced call; None marks an entry point the code no longer has."""
    out = {}
    for name in ["cli", *spans.LAYERS]:
        absent = name in tracer.absent
        out[f"{name}.calls"] = None if absent else tracer.calls[name]
        out[f"{name}.self_s"] = None if absent else tracer.self_s[name]
    for name in spans.COUNTED:
        out[f"{name}.calls"] = None if name in tracer.absent else tracer.calls[name]
    for metric, layer in (("duality.evolve.max_states", "duality.evolve"),
                          ("dynamics.step_law.max_outcomes", "dynamics.step_law")):
        out[metric] = None if layer in tracer.absent else tracer.recorded.get(metric, 0)
    calls = out["duality.functional.calls"]
    out["duality.functional.nonzero_ratio"] = (
        None if calls is None
        else tracer.recorded.get("duality.functional.nonzero", 0) / calls if calls else 0.0
    )
    return out


def main() -> int:
    start = time.perf_counter()
    import workloads

    cli = workloads.import_cli()
    args = _parse_args()
    argv, out_path = workloads.build(args.workload, args.seed, args.rep)
    setup_s = time.perf_counter() - start

    import json
    import resource

    import check
    import spans

    record = {"mode": args.mode, "setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    duality = sys.modules["sixv.duality"]
    evolve_caches = [getattr(duality, "_evolve", None)]
    step_caches = [getattr(duality, n, None) for n in ("_forward_entries", "_reversed_entries")]
    entry = cli.main
    tracer = None
    if args.mode == "trace":
        tracer = spans.Tracer()
        tracer.install()
        entry = tracer.wrap("cli", cli.main)

    start = time.perf_counter()
    code, stdout = workloads.run_cli(entry, argv)
    record["wall_s"] = time.perf_counter() - start
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["exit"] = code

    if args.mode == "reference":
        result = check.reference_entry(args.workload, code, stdout, out_path)
    else:
        result = check.check_output(args.workload, check.load_reference(), code, stdout,
                                    out_path)
    out_bytes = len(stdout.encode())
    if out_path is not None:
        out_bytes += os.path.getsize(out_path)
        os.remove(out_path)
    if args.mode == "reference":
        print(json.dumps(result))
        return 0
    record["ops"], record["errors"] = result["ops"], result["errors"]
    record["counters"] = {
        "verify.reports": result["reports"],
        "verify.reports.failed": result["reports_failed"],
        "duality.value.max_den_bits": result["max_den_bits"],
        "cli.out_bytes": out_bytes,
        **_cache_metrics("duality.evolve", _cache_counts(evolve_caches)),
        **_cache_metrics("duality.step_cache", _cache_counts(step_caches)),
    }
    if tracer is not None:
        record["counters"].update(_layer_metrics(tracer, spans))
        os.makedirs(workloads.WORKDIR, exist_ok=True)
        tracer.dump(os.path.join(workloads.WORKDIR, f"{args.workload}.spans.jsonl"))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
