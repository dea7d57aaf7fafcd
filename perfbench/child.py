"""One workload run in a fresh interpreter, started by run.py.

The in-process memo caches of the program (`sums._KL_TABLES`, the
`lru_cache`s in `relations`) therefore start cold, as they do for every CLI
invocation.  Prints one JSON object as the last line of stdout.
"""

import time

STARTED = time.monotonic()

import ultrashort.cli  # noqa: E402  (the import is what set-up time measures)

IMPORTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

# Public functions whose spans make up the per-layer metrics.
TRACED = {
    "arith": ["find_split_primes", "roots_mod_prime", "hensel_roots"],
    "relations": [
        "certified_complex_roots", "gamma_is_zero", "negation_pairing", "dominant_root_holds",
    ],
    "lattice": ["smith_normal_form", "saturate_rows", "intersect_rows"],
    "sums": [
        "additive_sum_grid", "mult_char_sum_grid", "make_condition_set", "uniformity_metric",
        "weyl_sum", "kloosterman_table", "trace_sum_grid", "hyper_kloosterman",
    ],
    "limitlaw": [
        "sato_tate_sum_samples", "sato_tate_samples", "haar_trace_samples",
        "torus_subgroup", "sigma_samples", "exact_mixed_moment",
    ],
    "stats": [
        "ks_distance", "binned_l1_2d", "moment_table", "stationarity_report",
        "conditioning_experiment",
    ],
    "cli": ["main"],
}
GRID_FUNCS = ("additive_sum_grid", "mult_char_sum_grid", "trace_sum_grid")
SAMPLERS = ("sato_tate_sum_samples", "sato_tate_samples", "haar_trace_samples", "sigma_samples")


def install_tracer(tracer) -> None:
    from ultrashort import sums

    def table_lookup(args, kwargs):
        r = args[0] if args else kwargs["r"]
        q = args[1] if len(args) > 1 else kwargs["q"]
        if (r, q) in getattr(sums, "_KL_TABLES", {}):
            tracer.count("sums.kl_table_memo_hits")
        else:
            tracer.count("sums.kl_table_builds")
            tracer.count("sums.kl_table_entries", q)

    for mod_name, names in TRACED.items():
        module = sys.modules["ultrashort." + mod_name]
        for name in names:
            before = after = None
            if name in GRID_FUNCS:
                def after(grid):
                    tracer.count("sums.grid_points", len(grid.values))
            elif name in SAMPLERS:
                def after(batch):
                    tracer.count("limitlaw.samples_drawn", len(batch))
            elif name == "kloosterman_table":
                before = table_lookup
            elif name == "gamma_is_zero":
                def after(is_zero):
                    tracer.count(f"relations.zero_tests_{str(is_zero).lower()}")
            tracer.install(module, name, before=before, after=after)


def versions() -> dict:
    import mpmath
    import numpy
    import sympy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--inputs")
    parser.add_argument("--workdir")
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    out = {"setup_s": IMPORTED - args.spawned_at, "import_s": IMPORTED - STARTED}
    if args.import_only:
        print(json.dumps(out))
        return

    import ops
    import spans

    with open(args.inputs) as fh:
        spec = json.load(fh)
    op_list = ops.WORKLOAD_OPS[args.workload](spec)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        install_tracer(tracer)
    started = time.perf_counter()
    results, measures = ops.run_ops(op_list, args.workdir, tracer)
    out["wall_s"] = time.perf_counter() - started
    if tracer is not None:
        ops.probe(args.workdir, measures)
        tracer.uninstall()
        out["layers"] = spans.layer_totals(tracer.spans)
        out["counters"] = tracer.counters
        with open(os.path.join(args.workdir, f"spans-{os.getpid()}.json"), "w") as fh:
            json.dump(tracer.to_json(), fh)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["ops"] = results
    out["measures"] = measures
    out["versions"] = versions()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
