"""The three workloads as ordered lists of ops.

An op is one user-level task plus its correctness check.  Ops call only the
public functions of `ultrashort`, always through their modules, so that the
traced run's wrappers see every call.  Each op feeds its numeric output into
a digest; failed checks are collected, and the run goes on.

No op calls additive_relations, value_relations, joint_power_relations,
multiplicative_relations or index_ind: their LLL step fails with sympy 1.14
(ROADMAP item 1), so relation modules come from the fixtures in inputs.py.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from inputs import MODULES
from ultrashort import arith, cli, lattice, limitlaw, relations, stats, sums


@dataclass
class Context:
    """What one op sees: shared state between ops, op-level measurements and
    counters, a scratch directory, and its own checks and digest."""

    workdir: str
    state: dict
    measures: dict
    failures: list = field(default_factory=list)
    hasher: object = field(default_factory=hashlib.sha256)

    def check(self, ok, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def digest(self, *items) -> None:
        for item in items:
            if isinstance(item, np.ndarray):
                arr = np.ascontiguousarray(item)
                self.hasher.update(f"{arr.dtype}{arr.shape}".encode())
                self.hasher.update(arr)
            else:
                self.hasher.update(repr(item).encode())
            self.hasher.update(b"|")

    def count(self, name: str, amount: float) -> None:
        self.measures[name] = self.measures.get(name, 0) + amount


def run_ops(ops, workdir: str, tracer=None) -> tuple[list[dict], dict]:
    """Run every op in order; an op that raises counts as failed."""
    state: dict = {}
    measures: dict = {}
    results = []
    for index, (name, fn) in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        ctx = Context(workdir, state, measures)
        started = time.perf_counter()
        try:
            fn(ctx)
        except Exception as exc:  # a failing op is counted, the run goes on
            ctx.failures.append(f"raised {type(exc).__name__}: {exc}")
        results.append(
            {"name": name, "seconds": time.perf_counter() - started,
             "failures": ctx.failures, "digest": ctx.hasher.hexdigest()}
        )
    if tracer is not None:
        tracer.op = None
    return results, measures


def _poly(text: str) -> arith.IntPoly:
    return arith.IntPoly.parse(text)


def _module(d: int, basis) -> relations.RelationModule:
    return relations.RelationModule(d, tuple(tuple(r) for r in basis), "additive")


def _own_eval(coeffs, x: int, q: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def _split_prime(ctx: Context, key: str, spec: dict, count: int | None = None):
    """Find the band's split primes (timed) and keep the chosen one(s)."""
    g = _poly(spec["poly"])
    primes = arith.find_split_primes(g, spec["lo"], spec["hi"])
    need = count or 1
    if len(primes) < need:
        raise ValueError(f"{len(primes)} split primes in [{spec['lo']}, {spec['hi']}]")
    if count:
        chosen = primes[:count]
    else:
        q = primes[spec["pick"] % len(primes)]
        roots = arith.roots_mod_prime(g, q).roots
        ctx.check(
            len(set(roots)) == g.degree
            and all(_own_eval(g.coeffs, r, q) == 0 for r in roots),
            f"{g} mod {q}: roots {roots} do not split g",
        )
        chosen = q
    ctx.state[key] = chosen
    ctx.digest(key, chosen)
    return chosen


# ---------------------------------------------------------------------------
# additive


def op_additive_primes(spec: dict, ctx: Context) -> None:
    for grid in spec["moment_grids"]:
        _split_prime(ctx, "moments:" + grid["poly"], grid)
    _split_prime(ctx, "n2", spec["grid_n2"])
    for st in spec["stationarity"]:
        _split_prime(ctx, "stationarity:" + st["poly"], st, st["count"])
    for key in ("mult", "condition", "condition_small", "cli"):
        _split_prime(ctx, key, spec[key])


def op_moments(spec: dict, ctx: Context) -> None:
    g = _poly(spec["poly"])
    q = ctx.state["moments:" + spec["poly"]]
    module = _module(g.degree, spec["module"])
    grid = sums.additive_sum_grid(g, q)
    table = stats.moment_table(grid, 4)
    ctx.state["grid:" + spec["poly"]] = grid
    for (m, n), emp in sorted(table.items()):
        exact = limitlaw.exact_mixed_moment(module, m, n)
        scaled = q * emp
        ctx.check(abs(scaled - round(scaled)) < 1e-4, f"q*moment({m},{n}) = {scaled} not integral")
        ctx.check(abs(emp - exact) < 1e-3, f"moment({m},{n}) = {emp} vs exact {exact}")
        ctx.digest(m, n, emp, exact)
    ctx.digest(grid.values)


def op_grid_threads(spec: dict, ctx: Context) -> None:
    """The largest grid, filled with 1 and then 2 threads: bitwise equal."""
    g = _poly(spec["poly"])
    q = ctx.state["n2"]
    digests = []
    times = []
    for threads in (1, 2):
        start = time.perf_counter()
        grid = sums.additive_sum_grid(g, q, 2, threads=threads)
        times.append(time.perf_counter() - start)
        ctx.check(len(grid.values) == q * q, f"grid size {len(grid.values)} != q^2")
        second = np.vdot(grid.values, grid.values).real / len(grid.values)
        ctx.check(abs(second - g.degree) < 1e-6, f"E|S|^2 = {second} != {g.degree}")
        digests.append(hashlib.sha256(grid.values).hexdigest())
        del grid
    ctx.check(digests[0] == digests[1], "threads=1 and threads=2 grids differ")
    ctx.count("sums.thread_1_s", times[0])
    ctx.count("sums.thread_2_s", times[1])
    ctx.digest(digests[0])


def op_stationarity(spec: dict, ctx: Context) -> None:
    g = _poly(spec["poly"])
    primes = ctx.state["stationarity:" + spec["poly"]]
    module = _module(g.degree, spec["module"])
    alphas = [list(r) for r in spec["module"]] + spec["non_relations"]
    report = stats.stationarity_report(g, primes, alphas, module)
    ctx.check(report["disagreement_count"] == 0, f"disagreements {report['disagreements']}")
    ctx.check(len(report["entries"]) == len(primes) * len(alphas), "missing entries")
    for entry in report["entries"]:
        want = 1 if entry["alpha"] in alphas[: len(spec["module"])] else 0
        ctx.check(entry["weyl"] == want, f"Weyl {entry} should be {want}")
        ctx.digest(entry["q"], entry["alpha"], entry["weyl"], entry["in_Rg"])


def op_sigma(spec: dict, ctx: Context) -> None:
    g = _poly(spec["poly"])
    h = limitlaw.torus_subgroup(_module(g.degree, spec["module"]))
    want = (1,) * len(spec["module"])
    ctx.check(h.invariant_factors == want, f"invariant factors {h.invariant_factors}")
    batch = limitlaw.sigma_samples(h, spec["count"], spec["seed"])
    ctx.check(len(batch) == spec["count"], "wrong sample count")
    grid = ctx.state["grid:" + spec["poly"]]
    dist = stats.binned_l1_2d(grid.values, batch.samples, 40, bound=3.0)
    ctx.check(dist <= 0.08, f"binned L1 {dist:.4f} > 0.08")
    ctx.digest(batch.samples, dist)


def op_mult(spec: dict, ctx: Context) -> None:
    g = _poly(spec["poly"])
    q = ctx.state["mult"]
    for prime, want3, want0 in ((13, 4, 8), (31, 10, 20), (q, (q - 1) // 3, 2 * (q - 1) // 3)):
        grid = sums.mult_char_sum_grid(g, prime)
        eq3 = int(np.sum(np.abs(grid.values - 3) < 1e-9))
        zeros = int(np.sum(np.abs(grid.values) < 1e-9))
        ctx.check(eq3 == want3, f"q={prime}: {eq3} sums equal 3 (want {want3})")
        ctx.check(zeros == want0, f"q={prime}: {zeros} sums vanish (want {want0})")
        ctx.digest(grid.values)


IMAGE_ALPHAS = [[1, 0, 0], [0, 1, -1], [2, 1, 0], [1, 1, 1]]


def _weyl_moduli(report):
    return [
        (e["alpha"], abs(complex(e["value_re"], e["value_im"])), e["in_Rg"])
        for e in report["weyl"]
    ]


def _squares_uniformity(q: int) -> float:
    """uniformity_metric of {x^2 mod q}: its exponential sum at h is
    (G_h + 1)/2 with the Gauss sum G_h = (h/q) sqrt(q) for q = 1 mod 4 and
    (h/q) i sqrt(q) for q = 3 mod 4, over |A| = (q + 1)/2."""
    if q % 4 == 1:
        return (math.sqrt(q) + 1) / (q + 1)
    return 1 / math.sqrt(q + 1)


def op_condition_interval(spec: dict, ctx: Context) -> None:
    g = _poly(spec["poly"])
    q = ctx.state["condition"]
    half = sums.make_condition_set(q, 1, "interval:0.5")
    rep = stats.conditioning_experiment(g, q, 1, half, [[1, 1, 1]], _module(3, []))
    um = rep["uniformity_metric"]
    ctx.check(abs(um - 0.6366) < 0.01, f"uniformity {um:.4f} != 0.6366 +- 0.01")
    (_, w, _), = _weyl_moduli(rep)
    ctx.check(abs(w - 2 / math.pi) < 0.02, f"restricted Weyl modulus {w:.4f} != 2/pi")
    ctx.digest(repr(sorted(rep.items())))


def op_condition_image(spec: dict, ctx: Context) -> None:
    g = _poly(spec["poly"])
    q = ctx.state["condition"]
    image = sums.make_condition_set(q, 1, "image:X^2")
    ctx.check(len(image) == (q + 1) // 2, f"|image| = {len(image)}")
    rep = stats.conditioning_experiment(g, q, 1, image, IMAGE_ALPHAS, _module(3, []))
    um, want = rep["uniformity_metric"], _squares_uniformity(q)
    ctx.check(abs(um - want) < 1e-9, f"uniformity {um} != {want}")
    for alpha, w, in_rg in _weyl_moduli(rep):
        ctx.check(not in_rg and w <= 5 / math.sqrt(q), f"|Weyl({alpha})| = {w:.5f}")
    ctx.digest(repr(sorted(rep.items())))


def op_condition_subgroup(spec: dict, ctx: Context) -> None:
    g = _poly(spec["poly"])
    q = ctx.state["condition"]
    order = max(m for m in range(1, 20_001) if (q - 1) % m == 0)
    sub = sums.make_condition_set(q, 1, f"subgroup:{order}")
    ctx.check(len(sub) == order, f"|H| = {len(sub)} != {order}")
    rep = stats.conditioning_experiment(g, q, 1, sub, IMAGE_ALPHAS, _module(3, []))
    # |sum over a subgroup of order M of e(ah/q)| <= sqrt(q) for h != 0
    bound = math.sqrt(q) / order + 1e-9
    ctx.check(rep["uniformity_metric"] <= bound, f"uniformity {rep['uniformity_metric']}")
    for alpha, w, _ in _weyl_moduli(rep):
        ctx.check(w <= bound, f"|Weyl({alpha})| = {w:.5f} > sqrt(q)/M")
    ctx.digest(order, repr(sorted(rep.items())))


def op_condition_small(spec: dict, ctx: Context) -> None:
    q = ctx.state["condition_small"]
    ctx.check(q <= 4096, f"q = {q} is above the direct-DFT limit")
    image = sums.make_condition_set(q, 1, "image:X^2")
    um, want = sums.uniformity_metric(image), _squares_uniformity(q)
    ctx.check(abs(um - want) < 1e-9, f"uniformity {um} != {want}")
    ctx.digest(image.members, um)


def _read_rows(path: str) -> list[list[str]]:
    with open(path) as fh:
        return [line.rstrip("\n").split(",") for line in fh][1:]


def _file_digest(ctx: Context, *paths) -> None:
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        ctx.count("cli.bytes_written", len(data))
        ctx.digest(hashlib.sha256(data).hexdigest())


def op_cli_sums_figure(spec: dict, ctx: Context) -> None:
    q = ctx.state["cli"]
    csv = os.path.join(ctx.workdir, "grid.csv")
    rc = cli.main(["sums", "--poly", spec["poly"], "--prime", str(q), "--out", csv])
    ctx.check(rc == 0, f"sums exited {rc}")
    rows = _read_rows(csv)
    grid = sums.additive_sum_grid(_poly(spec["poly"]), q)
    written = np.array([complex(float(re), float(im)) for _, re, im in rows])
    ctx.check(
        [int(a) for a, _, _ in rows] == list(range(q)) and np.array_equal(written, grid.values),
        "CSV does not round-trip the in-memory grid",
    )
    rc = cli.main(["figure", csv])
    ctx.check(rc == 0, f"figure exited {rc}")
    svg = os.path.join(ctx.workdir, "grid.svg")
    with open(svg) as fh:
        text = fh.read()
    ctx.check(text.count("<circle") == q and text.endswith("</svg>\n"), "SVG is incomplete")
    _file_digest(ctx, csv, os.path.join(ctx.workdir, "grid.json"), svg)


def op_cli_prime_sweep(spec: dict, ctx: Context) -> None:
    out = os.path.join(ctx.workdir, "sweep.csv")
    argv = ["prime-sweep", "--poly", spec["poly"], "--limit", str(spec["sweep_limit"])]
    rc = cli.main(argv + ["--out", out])
    ctx.check(rc == 0, f"prime-sweep exited {rc}")
    rows = _read_rows(out)
    primes = [int(p) for p, _, _ in rows]
    d = _poly(spec["poly"]).degree
    ctx.check(rows and primes == sorted(set(primes)), "sweep primes not ascending")
    ctx.check(
        all(abs(complex(float(re), float(im))) <= d + 1e-9 for _, re, im in rows),
        f"|sigma| > {d}",
    )
    _file_digest(ctx, out)


def additive_ops(spec: dict):
    ops = [("split-primes", partial(op_additive_primes, spec))]
    for grid in spec["moment_grids"]:
        args = dict(grid, module=MODULES[grid["poly"]])
        ops.append(("moments:" + grid["poly"], partial(op_moments, args)))
    ops.append(("grid-n2-threads", partial(op_grid_threads, spec["grid_n2"])))
    for st in spec["stationarity"]:
        args = dict(st, module=MODULES[st["poly"]])
        ops.append(("stationarity:" + st["poly"], partial(op_stationarity, args)))
    for sg in spec["sigma"]:
        args = dict(sg, module=MODULES[sg["poly"]])
        ops.append(("sigma-l1:" + sg["poly"], partial(op_sigma, args)))
    ops += [
        ("mult-degeneracy", partial(op_mult, spec["mult"])),
        ("condition-interval", partial(op_condition_interval, spec["condition"])),
        ("condition-image", partial(op_condition_image, spec["condition"])),
        ("condition-subgroup", partial(op_condition_subgroup, spec["condition"])),
        ("condition-direct-dft", partial(op_condition_small, spec["condition_small"])),
        ("cli-sums-figure", partial(op_cli_sums_figure, spec["cli"])),
        ("cli-prime-sweep", partial(op_cli_prime_sweep, spec["cli"])),
    ]
    return ops


# ---------------------------------------------------------------------------
# kloosterman


def op_kl_primes(spec: dict, ctx: Context) -> None:
    ctx.state["kl"] = [
        _split_prime(ctx, f"band{i}", dict(band, poly=spec["poly"]))
        for i, band in enumerate(spec["bands"])
    ]


def op_trace_grid(spec: dict, index: int, r: int, mode: str, ctx: Context) -> None:
    g = _poly(spec["poly"])
    q = ctx.state["kl"][index]
    grid = sums.trace_sum_grid(g, q, r=r, mode=mode)
    values = grid.values
    ctx.check(len(values) == q - len(grid.excluded), "wrong parameter count")
    ctx.check(len(grid.excluded) == (1 if mode == "dilate" else g.degree), "wrong exclusions")
    if r == 2:
        ctx.check(np.abs(values.imag).max() < 1e-9, "r=2 grid values not real to 1e-9")
    second = float(np.mean(np.abs(values) ** 2))
    ctx.check(abs(second - g.degree) < 0.1, f"second moment {second:.4f} != {g.degree} +- 0.1")
    top = float(np.abs(values).max())
    ctx.check(top <= r * g.degree + 1e-9, f"Weil bound: |S| = {top} > {r * g.degree}")
    if (index, r, mode) == (1, 2, "dilate"):
        ctx.state["ks-grid"] = values.real.copy()
    ctx.digest(q, r, mode, values)


def op_sato_tate_sum(spec: dict, ctx: Context) -> None:
    st = spec["st_sum"]
    batch = limitlaw.sato_tate_sum_samples(st["terms"], st["count"], st["seed"])
    second = float(np.mean(batch.samples**2))
    ctx.check(abs(second - st["terms"]) < 0.05, f"E S^2 = {second:.4f} != {st['terms']}")
    ks = stats.ks_distance(ctx.state["ks-grid"], batch.samples)
    ctx.check(ks <= 0.05, f"KS {ks:.4f} > 0.05 vs {st['terms']}-term Sato-Tate sum")
    ctx.digest(batch.samples, ks)


def op_usp_vs_sato_tate(spec: dict, ctx: Context) -> None:
    usp = limitlaw.haar_trace_samples("USp(2)", spec["usp"]["count"], spec["usp"]["seed"])
    st = limitlaw.sato_tate_samples(spec["st"]["count"], spec["st"]["seed"])
    t = st.samples
    m2, m4 = float(np.mean(t**2)), float(np.mean(t**4))
    ctx.check(abs(m2 - 1) < 0.02, f"E t^2 = {m2:.4f} != 1 +- 0.02")
    ctx.check(abs(m4 - 2) < 0.05, f"E t^4 = {m4:.4f} != 2 +- 0.05")
    ctx.check(np.abs(usp.samples.imag).max() < 1e-9, "USp(2) traces not real")
    ks = stats.ks_distance(usp.samples.real, t)
    ctx.check(ks <= 0.01, f"USp(2) vs Sato-Tate KS {ks:.4f} > 0.01")
    ctx.digest(usp.samples, t, ks)


def op_kl3_symmetry(spec: dict, ctx: Context) -> None:
    worst = 0.0
    for a, q in spec["kl3"]:
        value = sums.hyper_kloosterman(3, a, q)
        worst = max(worst, abs(sums.hyper_kloosterman(3, q - a, q) - value.conjugate()))
        ctx.check(abs(value) <= 3 + 1e-9, f"|Kl3({a}; {q})| > 3")
        ctx.digest(value)
    ctx.check(worst < 1e-9, f"Kl3 conjugation symmetry, worst deviation {worst:.2e}")


def op_kl2_single(spec: dict, ctx: Context) -> None:
    for a, q in spec["kl2"]:
        value = sums.hyper_kloosterman(2, a, q)
        ctx.check(abs(value.imag) < 1e-9, f"Kl2({a}; {q}) not real")
        ctx.check(abs(value) <= 2 + 1e-9, f"|Kl2({a}; {q})| > 2")
        ctx.digest(value)


def kloosterman_ops(spec: dict):
    ops = [("split-primes", partial(op_kl_primes, spec))]
    for index in range(len(spec["bands"])):
        for r, mode in ((2, "dilate"), (2, "translate")) + (((3, "dilate"),) if index == 0 else ()):
            ops.append(
                (f"trace-grid:{index}:r{r}:{mode}", partial(op_trace_grid, spec, index, r, mode))
            )
    ops += [
        ("sato-tate-sum-ks", partial(op_sato_tate_sum, spec)),
        ("usp2-vs-sato-tate", partial(op_usp_vs_sato_tate, spec)),
        ("kl3-symmetry", partial(op_kl3_symmetry, spec)),
        ("kl2-single", partial(op_kl2_single, spec)),
    ]
    return ops


# ---------------------------------------------------------------------------
# certify


def op_roots(fx: dict, bits: int, ctx: Context) -> None:
    g = _poly(fx["poly"])
    boxes = relations.certified_complex_roots(g, bits)
    ctx.state["roots:" + fx["name"]] = boxes
    centers = boxes.centers()
    ctx.check(len(centers) == g.degree, "wrong root count")
    for k, (c, (re, im)) in enumerate(zip(centers, fx["roots"])):
        ctx.check(abs(c - complex(re, im)) < 1e-9, f"root {k}: {c} vs {complex(re, im)}")
    ctx.check(
        all(b.radius <= 2.0 ** (-(bits // 2)) for b in boxes.boxes), "radius above 2^-(bits/2)"
    )
    for b in boxes.boxes:
        ctx.digest(repr(b.center), repr(b.radius))


def op_zero_tests(fx: dict, key: str, want: bool, ctx: Context) -> None:
    boxes = ctx.state["roots:" + fx["name"]]
    for alpha in fx[key]:
        got = relations.gamma_is_zero(alpha, boxes)
        ctx.check(got is want, f"gamma_is_zero({alpha}) = {got}, want {want}")
        ctx.digest(alpha, got)


def op_negation(fx: dict, ctx: Context) -> None:
    pairs, unpaired = relations.negation_pairing(_poly(fx["poly"]))
    want = sorted(tuple(p) for p in fx["negation_pairs"])
    paired = {i for p in want for i in p}
    want_unpaired = [i for i in range(len(fx["roots"])) if i not in paired]
    ctx.check(sorted(tuple(sorted(p)) for p in pairs) == want, f"pairs {pairs} != {want}")
    ctx.check(sorted(unpaired) == want_unpaired, f"unpaired {unpaired} != {want_unpaired}")
    ctx.digest(pairs, unpaired)


def op_dominant(fx: dict, ctx: Context) -> None:
    got = relations.dominant_root_holds(_poly(fx["poly"]))
    ctx.check(got is fx["dominant"], f"dominant_root_holds = {got}, want {fx['dominant']}")
    ctx.digest(got)


def op_lattice(fx: dict, ctx: Context) -> None:
    """Lattice algebra on the certified relation rows.  They span a saturated
    lattice L (disjoint primitive rows, or the p-gon relations among roots of
    unity), so sat(L) = L, sat(2L) = L, L meet 2Z^d = 2L, and the SNF of L
    and 2L has every invariant factor 1 and 2 respectively."""
    rows = fx["relations"]
    d = len(rows[0])
    hnf = lattice.hnf_rows(rows)
    sat = lattice.saturate_rows(rows)
    ctx.check(sat == hnf, f"saturation {sat} != HNF {hnf}")
    if fx["rank"] is not None:
        ctx.check(len(sat) == fx["rank"], f"rank {len(sat)} != {fx['rank']}")
    doubled = lattice.hnf_rows([[2 * x for x in row] for row in sat])
    ctx.check(lattice.saturate_rows(doubled) == sat, "sat(2L) != L")
    two = [[2 if i == j else 0 for j in range(d)] for i in range(d)]
    meet = lattice.intersect_rows(sat, two)
    ctx.check(meet == doubled, f"L meet 2Z^d = {meet} != 2L")
    for basis, factor in ((sat, 1), (doubled, 2)):
        h = limitlaw.torus_subgroup(_module(d, basis))
        want = (factor,) * len(basis)
        ctx.check(h.invariant_factors == want, f"invariant factors {h.invariant_factors} != {want}")
        ctx.digest(basis, h.invariant_factors)
    ctx.digest(meet)


def certify_ops(spec: dict):
    ops = []
    bits = spec["precision_bits"]
    for fx in spec["fixtures"]:
        name = fx["name"]
        ops.append((f"roots:{name}", partial(op_roots, fx, bits)))
        if fx["relations"]:
            ops.append((f"zero-true:{name}", partial(op_zero_tests, fx, "relations", True)))
        ops.append((f"zero-false:{name}", partial(op_zero_tests, fx, "non_relations", False)))
        ops.append((f"negation:{name}", partial(op_negation, fx)))
        if fx["dominant"] is not None:
            ops.append((f"dominant:{name}", partial(op_dominant, fx)))
        if fx["relations"]:
            ops.append((f"lattice:{name}", partial(op_lattice, fx)))
    return ops


WORKLOAD_OPS = {"additive": additive_ops, "kloosterman": kloosterman_ops, "certify": certify_ops}


# ---------------------------------------------------------------------------
# probe


PROBE_PRIME = 32789  # X^2+1 splits (q = 1 mod 4); the grid spans 17 fill chunks


def probe(workdir: str, measures: dict) -> None:
    """Call each traced function once on a small input, so that every
    per-layer time in a traced run is measured on every workload: a layer a
    workload leaves idle shows the probe's microseconds, not a constant 0.
    The probe's grid is filled with 1 and 2 threads, for workloads that fill
    no large grid of their own."""
    g = _poly("X^2+1")
    for threads in (1, 2):
        start = time.perf_counter()
        sums.additive_sum_grid(g, PROBE_PRIME, threads=threads)
        measures[f"sums.probe_thread_{threads}_s"] = time.perf_counter() - start
    arith.find_split_primes(g, 2, 30)
    arith.roots_mod_prime(g, 5)
    arith.hensel_roots(g, 5, 2)
    h2 = _poly("X^2-2")
    boxes = relations.certified_complex_roots(h2, 64)
    relations.gamma_is_zero([1, 1], boxes)
    relations.gamma_is_zero([1, 0], boxes)
    relations.negation_pairing(h2)
    relations.dominant_root_holds(h2)
    lattice.smith_normal_form([[2]])
    lattice.saturate_rows([[2, 2]])
    lattice.intersect_rows([[1, 1]], [[2, 0], [0, 2]])
    grid = sums.additive_sum_grid(g, 5)
    sums.mult_char_sum_grid(g, 5)
    full = sums.make_condition_set(5, 1, "full")
    sums.uniformity_metric(full)
    sums.weyl_sum(g, 5, 1, [1, 1], full)
    sums.kloosterman_table(2, 5)
    sums.trace_sum_grid(g, 5, 2, "translate")
    sums.hyper_kloosterman(2, 1, 5)
    module = _module(2, [[1, 1]])
    h = limitlaw.torus_subgroup(module)
    limitlaw.sigma_samples(h, 16, 0)
    limitlaw.exact_mixed_moment(module, 1, 1)
    limitlaw.sato_tate_samples(16, 0)
    limitlaw.sato_tate_sum_samples(1, 16, 0)
    limitlaw.haar_trace_samples("SU(2)", 16, 0)
    stats.moment_table(grid, 1)
    stats.ks_distance([0.0, 1.0], [0.5])
    stats.binned_l1_2d(grid.values, grid.values, 4)
    stats.stationarity_report(g, [5], [[1, 1]], module)
    stats.conditioning_experiment(g, 5, 1, full, [[1, 1]], module)
    out = os.path.join(workdir, "probe.json")
    cli.main(["primes", "--poly", "X^2+1", "--lo", "2", "--hi", "30", "--out", out])
    measures["cli.bytes_written"] = measures.get("cli.bytes_written", 0) + os.path.getsize(out)
