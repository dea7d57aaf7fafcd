"""The ultrashort benchmark.

    python3 perfbench/run.py --workload {additive,kloosterman,certify} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Generates the workload's inputs from the
seed, then for S seconds runs the workload's op list, each time in a fresh
interpreter (one process, no contention), and checks every op's output.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: medians over the
runs of set-up time (spawn until `ultrashort.cli` is imported; five extra
import-only interpreters add samples), wall time of the op list, and peak
resident memory.  --trace 1 alternates untraced and traced runs and reports
the per-layer metrics from the spans of the traced ones.  Both print every
metric with its unit, the inputs and the provenance, and end with one JSON
line; the full report (per-op digests, spans) goes to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import inputs  # noqa: E402  (sits next to this file)

IMPORT_ONLY_SPAWNS = 5
MIN_RUNS = 2  # untraced workload runs; with --trace 1, one untraced/traced pair
RUN_LIMIT_S = 150  # start no further child past this, to end well within 180 s
CHILD_TIMEOUT_S = 170


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_facts() -> dict:
    files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
    return {"git_sha": git_sha(), "src_lines": lines, "src_sha256": digest.hexdigest()}


def spawn(extra: list[str], env: dict, timeout: float) -> dict:
    """Run child.py to completion and return its JSON line (or an error)."""
    started = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), *extra, "--spawned-at", repr(started)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}


def median(values):
    return statistics.median(values) if values else None


def op_list_wall(runs: list[dict]) -> float:
    """Wall time of the op list, summed op by op from each op's median time
    over the runs, so that a burst of machine noise in one run's op does not
    move the figure."""
    return sum(
        median([run["ops"][i]["seconds"] for run in runs]) for i in range(len(runs[0]["ops"]))
    )


def per_layer(traced: list[dict], untraced: list[dict], names: list[str]) -> dict:
    """Per-layer metrics: medians over the traced runs."""
    values: dict[str, list[float]] = {name: [] for name in names}
    for run in traced:
        flat = {}
        for layer, totals in run["layers"].items():
            flat[layer + ".self_s"] = totals["self_s"]
            flat[layer + ".calls"] = totals["calls"]
        counters = run["counters"]
        measures = run["measures"]
        builds = counters.get("sums.kl_table_builds", 0)
        hits = counters.get("sums.kl_table_memo_hits", 0)
        flat.update(
            {
                "cli.bytes_written": measures.get("cli.bytes_written", 0),
                "relations.zero_tests_true": counters.get("relations.zero_tests_true", 0),
                "relations.zero_tests_false": counters.get("relations.zero_tests_false", 0),
                "sums.grid_points": counters.get("sums.grid_points", 0),
                "sums.kl_table_builds": builds,
                "sums.kl_table_entries": counters.get("sums.kl_table_entries", 0),
                "sums.kl_table_reuse": hits / (builds + hits),
                "limitlaw.samples_drawn": counters.get("limitlaw.samples_drawn", 0),
            }
        )
        one, two = (
            ("sums.thread_1_s", "sums.thread_2_s")
            if "sums.thread_1_s" in measures
            else ("sums.probe_thread_1_s", "sums.probe_thread_2_s")
        )
        flat["sums.thread_speedup"] = measures[one] / measures[two]
        for name in names:
            if name in flat:
                values[name].append(flat[name])
    out = {name: median(vals) for name, vals in values.items()}
    out["cli.import_s"] = median([r["import_s"] for r in traced + untraced])
    out["trace.overhead_s"] = op_list_wall(traced) - op_list_wall(untraced)
    missing = [name for name in names if out.get(name) is None]
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {missing}")
    return out


def run_children(args, env: dict, run_args: list[str]):
    """Workload runs until --seconds is used up (at least MIN_RUNS untraced
    runs, or one untraced/traced pair), after the import-only set-ups."""
    start = time.monotonic()
    setups: list[float] = []
    children: list[dict] = []
    errors: list[str] = []

    def launch(extra: list[str]) -> dict | None:
        left = CHILD_TIMEOUT_S - (time.monotonic() - start)
        result = spawn(extra, env, max(left, 1.0))
        if "error" in result:
            errors.append(result["error"])
            return None
        setups.append(result["setup_s"])
        return result

    if not args.trace:
        for _ in range(IMPORT_ONLY_SPAWNS):
            launch(["--import-only"])
    durations: list[float] = []
    while True:
        began = time.monotonic()
        for flag in ([0, 1] if args.trace else [0]):
            result = launch(run_args + ["--trace", str(flag)])
            if result is not None:
                result["traced"] = flag
                children.append(result)
        durations.append(time.monotonic() - began)
        expected_end = time.monotonic() + statistics.mean(durations)
        if errors or expected_end - start > RUN_LIMIT_S:
            break
        if len(durations) >= (1 if args.trace else MIN_RUNS) and (
            expected_end - start > args.seconds
        ):
            break
    return children, setups, errors


def tally(children: list[dict], errors: list[str]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages): an op fails on a failed check, or when
    its output digest differs from the first run's; a run that crashed
    counts as one failed op."""
    attempted = failed = 0
    failures: list[str] = list(errors)
    reference = children[0]["ops"] if children else []
    for run in children:
        for op, first in zip(run["ops"], reference):
            attempted += 1
            bad = list(op["failures"])
            if op["digest"] != first["digest"]:
                bad.append("output digest differs between runs of the same inputs")
            if bad:
                failed += 1
                failures.append(f"{op['name']}: {'; '.join(bad)}")
    attempted += len(errors)
    failed += len(errors)
    if not children and not errors:
        failed, failures = 1, ["no run completed"]
    return max(attempted, 1), failed, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program = ROOT / "src" / "ultrashort" / "cli.py"
    spec_path = ROOT / "BENCHMARK.json"
    if not program.is_file() or not spec_path.is_file():
        print(f"perfbench: no program at {program} (or no BENCHMARK.json)", file=sys.stderr)
        return 2
    bench = json.loads(spec_path.read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    spec = inputs.generate(args.workload, args.seed)
    facts = source_facts()
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("inputs:", json.dumps(spec, sort_keys=True))

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs_path = workdir / "inputs.json"
        inputs_path.write_text(json.dumps(spec))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["ULTRASHORT_CACHE_DIR"] = str(workdir / "cache")
        run_args = ["--workload", args.workload, "--inputs", str(inputs_path),
                    "--workdir", str(workdir)]

        started = time.monotonic()
        children, setups, errors = run_children(args, env, run_args)
        elapsed = time.monotonic() - started
        attempted, failed, failures = tally(children, errors)
        reference = children[0]["ops"] if children else []

        untraced = [r for r in children if not r["traced"]]
        traced = [r for r in children if r["traced"]]
        metrics = {}
        if untraced:
            metrics = {
                "setup_s": median(setups),
                "wall_s": op_list_wall(untraced),
                "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
            }
        names = [m["name"] for m in bench["end_to_end"]]
        if args.trace and traced:
            names = [m["name"] for m in bench["per_layer"]]
            for name, value in metrics.items():
                print(f"  (untraced) {name} = {value:.6g} {units[name]}")
            try:
                metrics = per_layer(traced, untraced, names)
            except (KeyError, RuntimeError, ZeroDivisionError) as exc:
                metrics = {}
                failures.append(f"per-layer metrics: {exc!r}")
        result_digest = hashlib.sha256(
            json.dumps([op["digest"] for op in reference]).encode()
        ).hexdigest()

        provenance = dict(facts, **(children[0]["versions"] if children else {}))
        print("provenance:", json.dumps(provenance, sort_keys=True))
        print(f"runs: {len(untraced)} untraced, {len(traced)} traced, "
              f"{len(setups)} set-ups; elapsed {elapsed:.1f} s")
        for name in names:
            if name in metrics:
                print(f"  {name} = {metrics[name]:.6g} {units[name]}")
        print(f"  fail_ratio = {failed}/{attempted} = {failed / attempted:.4g} ops")
        print(f"  output digest = {result_digest}")
        for line in failures[:40]:
            print("FAILED", line)

        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        report = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "provenance": provenance, "inputs": spec, "metrics": metrics,
            "attempted": attempted, "failed": failed, "failures": failures,
            "output_digest": result_digest,
            "op_digests": {op["name"]: op["digest"] for op in reference},
            "runs": [{k: v for k, v in r.items() if k not in ("versions",)} for r in children],
        }
        spans_files = sorted(workdir.glob("spans-*.json"))
        if spans_files:
            report["spans"] = json.loads(spans_files[0].read_text())
        report_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        report_path.write_text(json.dumps(report) + "\n")

        line = {
            "correct": failed == 0 and set(names) <= set(metrics),
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name], "unit": units[name]}
                for name in names if name in metrics
            },
        }
        print(json.dumps(line))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
