"""Command-line driver.

Every command is a thin wrapper over one library operation, emits CSV/JSON
artifacts, and is deterministic given its flags (all seeds are flags).
Usage errors exit 2 (argparse); domain errors exit 1 with the error name on
stderr.  A JSON config file can pre-set any flag; explicit flags win.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import warnings

import numpy as np

from . import limitlaw, relations, stats, sums
from .arith import IntPoly, LaurentPoly, find_split_primes, hensel_roots, roots_mod_primes
from .errors import UltrashortError


class UsageError(Exception):
    """Flag values and combinations argparse cannot catch; maps to exit code 2."""


CACHE_ENV = "ULTRASHORT_CACHE_DIR"
DEFAULT_CACHE_DIR = ".ultrashort-cache"
# Part of every cache key: raise it whenever the stored entry or the way a
# module is computed changes, so entries written before become misses.
CACHE_VERSION = 1


@contextlib.contextmanager
def _writing(path: str):
    """Report an OSError from creating or writing the artifact `path` as a
    usage error naming it, as a missing input file is."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror}") from None


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        with _writing(out), sums.replacing(out) as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _parsed(flag: str, parse, text: str):
    """parse(text), with malformed text reported as a usage error naming the flag."""
    try:
        return parse(text)
    except ValueError as exc:
        raise UsageError(f"{flag} {text!r}: {exc}") from None


def _poly(args) -> IntPoly:
    return _parsed("--poly", IntPoly.parse, args.poly)


def _laurent(text: str) -> LaurentPoly:
    return _parsed("--v", LaurentPoly.parse, text)


def _int_list(flag: str, text: str, sep: str = ",") -> list[int]:
    return _parsed(flag, lambda t: [int(x) for x in t.split(sep)], text)


def _alpha_list(text: str) -> list[list[int]]:
    chunks = [chunk.strip() for chunk in text.split(";")]
    return [_int_list("--alpha", chunk) for chunk in chunks if chunk]


# ---------------------------------------------------------------------------
# relation-module disk cache


def _cache_dir(args) -> str:
    return args.cache_dir or os.environ.get(CACHE_ENV, DEFAULT_CACHE_DIR)


def _cache_key(g: IntPoly, kind: str, v, exponents, coeff_cap, degree_bound) -> str:
    blob = json.dumps(
        {
            "version": CACHE_VERSION,
            "poly": g.key(),
            "kind": kind,
            "v": v.key() if v is not None else None,
            "exponents": list(exponents) if exponents else None,
            "coeff_cap": coeff_cap,
            "degree_bound": degree_bound,
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def cache_get(directory: str, key: str):
    """The cached module, or None on a miss; a malformed entry is a miss."""
    path = os.path.join(directory, key + ".json")
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            return relations.RelationModule.from_json_dict(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"warning: ignoring corrupt cache entry {path}: {exc}", file=sys.stderr)
        return None


def cache_put(directory: str, key: str, module) -> None:
    """Write the entry through sums.replacing, so a reader never sees a
    half-written entry."""
    os.makedirs(directory, exist_ok=True)
    with sums.replacing(os.path.join(directory, key + ".json")) as fh:
        json.dump(module.to_json_dict(), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands


def cmd_primes(args) -> int:
    g = _poly(args)
    qs = find_split_primes(g, args.lo, args.hi)
    _emit({"poly": str(g), "lo": args.lo, "hi": args.hi, "primes": qs}, args.out)
    return 0


def cmd_roots(args) -> int:
    g = _poly(args)
    rl = hensel_roots(g, args.prime, args.power)
    _emit(
        {
            "poly": str(g),
            "q": args.prime,
            "n": args.power,
            "modulus": rl.modulus.modulus,
            "roots": list(rl.roots),
        },
        args.out,
    )
    return 0


def _module(args, g: IntPoly, kind: str = "additive"):
    """The relation module of g that the flags name, through the disk cache."""
    v = _laurent(args.v) if getattr(args, "v", None) else None
    text = getattr(args, "exponents", None)
    exponents = tuple(_int_list("--exponents", text)) if text else None
    if kind == "value" and v is None:
        raise UsageError("--v is required for kind=value")
    if kind == "joint" and exponents is None:
        raise UsageError("--exponents is required for kind=joint")
    # every zero test uses min(bound, orbit(alpha)) and orbit(alpha) <= d!
    # for the length-d vectors of all four kinds, so any bound >= d! acts as d!
    bound = min(
        relations._degree_bound(g, args.degree_bound or None),
        relations.default_degree_bound(g.degree),
    )
    cap = relations._coeff_cap(args.coeff_cap)
    key = _cache_key(g, kind, v, exponents, cap, bound)
    directory = _cache_dir(args)
    module = None if args.no_cache else cache_get(directory, key)
    if module is None:
        if kind == "additive":
            module = relations.additive_relations(g, cap, bound)
        elif kind == "value":
            module = relations.value_relations(g, v, cap, bound)
        elif kind == "joint":
            module = relations.joint_power_relations(g, exponents, cap, bound)
        else:
            module = relations.multiplicative_relations(g, v or LaurentPoly.x(), cap, bound)
        if not args.no_cache:
            cache_put(directory, key, module)
    return module


def cmd_relations(args) -> int:
    _emit(_module(args, _poly(args), args.kind).to_json_dict(), args.out)
    return 0


def cmd_index(args) -> int:
    g = _poly(args)
    ind = relations.index_ind(g, args.coeff_cap, args.degree_bound or None)
    _emit({"poly": str(g), "ind": ind}, args.out)
    return 0


def _write_grid(grid, out: str | None) -> None:
    if out:
        with _writing(out):
            grid.write_csv(out)
        meta_path = os.path.splitext(out)[0] + ".json"
        with _writing(meta_path), sums.replacing(meta_path) as fh:
            json.dump(grid.to_json_dict(), fh, indent=2)
            fh.write("\n")
    else:
        sums.write_columns(sys.stdout, "", grid.params, grid.values.real, grid.values.imag)


def cmd_sums(args) -> int:
    g = _poly(args)
    v = _laurent(args.v) if args.v else None
    grid = sums.additive_sum_grid(g, args.prime, args.power, v)
    _write_grid(grid, args.out)
    return 0


def cmd_klsums(args) -> int:
    g = _poly(args)
    grid = sums.trace_sum_grid(g, args.prime, r=args.rank, mode=args.mode)
    _write_grid(grid, args.out)
    return 0


def cmd_mults(args) -> int:
    g = _poly(args)
    v = _laurent(args.v) if args.v else None
    grid = sums.mult_char_sum_grid(g, args.prime, v)
    _write_grid(grid, args.out)
    return 0


def _law_int(law: str) -> int:
    """The integer K or R after the colon of st-sum:K, su:R, usp:R or inv:R."""
    try:
        return int(law.partition(":")[2])
    except ValueError:
        raise UsageError(f"--law {law!r} needs an integer after the colon") from None


def cmd_limit(args) -> int:
    law = args.law
    if law == "sigma":
        if not args.poly:
            raise UsageError("--poly is required for --law sigma")
        g = _poly(args)
        module = _module(args, g)
        h = limitlaw.torus_subgroup(module)
        batch = limitlaw.sigma_samples(h, args.count, args.seed)
    elif law == "st":
        batch = limitlaw.sato_tate_samples(args.count, args.seed)
    elif law.startswith("st-sum:"):
        batch = limitlaw.sato_tate_sum_samples(_law_int(law), args.count, args.seed)
    elif law.startswith(("su:", "usp:")):
        name = law.partition(":")[0]
        batch = limitlaw.haar_trace_samples((name, _law_int(law)), args.count, args.seed)
    elif law.startswith("inv:"):
        if not args.poly:
            raise UsageError("--poly is required for --law inv:R")
        r = _law_int(law)
        g = _poly(args)
        pairs, unpaired = relations.negation_pairing(g)
        batch = limitlaw.involution_sum_samples(g.degree, pairs, r, args.count, args.seed)
    else:
        raise UsageError(f"unknown law {law!r} (sigma | st | st-sum:K | su:R | usp:R | inv:R)")
    if args.out:
        with _writing(args.out):
            batch.write_csv(args.out)
    else:
        sums.write_columns(sys.stdout, "", batch.samples.real, batch.samples.imag)
    return 0


def cmd_moments(args) -> int:
    g = _poly(args)
    grid = sums.additive_sum_grid(g, args.prime, args.power)
    module = _module(args, g)
    empirical = stats.moment_table(grid, args.max_order)
    exact = {
        (m, n): limitlaw.exact_mixed_moment(module, m, n)
        for (m, n) in empirical
    }
    payload = {
        "poly": str(g),
        "q": args.prime,
        "n": args.power,
        "empirical": limitlaw.MomentTable(empirical).to_json_dict(),
        "exact": limitlaw.MomentTable(exact).to_json_dict(),
    }
    _emit(payload, args.out)
    return 0


def cmd_weylcheck(args) -> int:
    g = _poly(args)
    if args.primes:
        qs = _int_list("--primes", args.primes)
    else:
        if not args.prime_range:
            raise UsageError("need --primes or --prime-range")
        bounds = _int_list("--prime-range", args.prime_range, ":")
        if len(bounds) != 3:
            raise UsageError(f"--prime-range {args.prime_range!r}: expected lo:hi:count")
        lo, hi, count = bounds
        if count < 1:
            raise UsageError(f"--prime-range {args.prime_range!r}: count must be at least 1")
        qs = find_split_primes(g, lo, hi)[:count]
    alphas = _alpha_list(args.alpha)
    module = _module(args, g)
    report = stats.stationarity_report(g, qs, alphas, module)
    _emit(report, args.out)
    return 0


def cmd_condition(args) -> int:
    g = _poly(args)
    A = sums.make_condition_set(args.prime, args.power, args.descriptor)
    alphas = _alpha_list(args.alpha)
    module = _module(args, g)
    report = stats.conditioning_experiment(g, args.prime, args.power, A, alphas, module)
    _emit(report, args.out)
    return 0


def cmd_prime_sweep(args) -> int:
    """Empirical law of sigma(U_p(a)) for fixed a over split p <= T.

    Exploratory only: whether these values equidistribute as the prime
    varies is an open question, so nothing is asserted about the output.
    """
    g = _poly(args)
    qs = find_split_primes(g, 2, args.limit)
    zs = np.empty(len(qs), dtype=np.complex128)
    for i, (q, rl) in enumerate(zip(qs, roots_mod_primes(g, qs))):
        zs[i] = sum(np.exp(2j * np.pi * ((args.a * r) % q) / q) for r in rl.roots)
    cols = (np.array(qs, dtype=np.int64), zs.real, zs.imag)
    if args.out:
        with _writing(args.out), sums.replacing(args.out) as fh:
            sums.write_columns(fh, "p,re,im\n", *cols)
    else:
        sums.write_columns(sys.stdout, "", *cols)
    return 0


# ---------------------------------------------------------------------------
# figures


def _read_csv(path):
    """The re, im columns as complex128, by one np.loadtxt (it rounds like
    float()); only a file it rejects is read line by line, which takes what
    float() takes (blank-looking lines, '1_000') or names the bad line."""
    try:
        with open(path) as fh:
            cols = {name: i for i, name in enumerate(fh.readline().strip().split(","))}
            if "re" not in cols or "im" not in cols:
                raise UsageError(f"{path} has no re,im header")
            usecols = (cols["re"], cols["im"])
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # no rows: reported below
                    pairs = np.loadtxt(path, delimiter=",", skiprows=1, usecols=usecols,
                                       comments=None, ndmin=2)
            except ValueError:
                pairs = []
                for n, line in enumerate(fh, 2):
                    r = line.strip().split(",")
                    if r == [""]:
                        continue
                    try:
                        pairs.append([float(r[i]) for i in usecols])
                    except (IndexError, ValueError):
                        msg = f"{path} line {n}: {','.join(r)!r} is not a re,im row"
                        raise UsageError(msg) from None
                pairs = np.array(pairs, dtype=np.float64).reshape(-1, 2)
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise UsageError(f"{path} is not UTF-8 text") from None
    if not len(pairs):
        raise UsageError(f"{path} has no samples")
    return pairs.view(np.complex128)[:, 0]


def _figure_range(path, values, explicit) -> float:
    if explicit:
        return float(explicit)
    meta_path = os.path.splitext(path)[0] + ".json"
    if os.path.exists(meta_path):
        try:
            with open(meta_path) as fh:
                meta = json.load(fh)
            if "d" in meta:
                return float(meta["d"])
        except (json.JSONDecodeError, ValueError):
            pass
    top = max(1.0, float(np.abs(values.real).max()), float(np.abs(values.imag).max()))
    return math.ceil(top)


SVG_SIZE = 800


def _svg_header(count: int) -> str:
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f"<!-- samples: {count} -->\n"
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_SIZE}" height="{SVG_SIZE}" '
        f'viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">\n'
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>\n'
    )


def render_scatter_svg(values: np.ndarray, bound: float) -> str:
    """800x800 scatter over [-bound-0.5, bound+0.5]^2, radius-1 dots."""
    span = 2 * (bound + 0.5)
    scale = SVG_SIZE / span

    def px(x):
        return (x + bound + 0.5) * scale

    parts = [_svg_header(len(values))]
    mid = px(0.0)
    parts.append(
        f'<line x1="0" y1="{mid:.1f}" x2="{SVG_SIZE}" y2="{mid:.1f}" '
        'stroke="#cccccc" stroke-width="1"/>\n'
        f'<line x1="{mid:.1f}" y1="0" x2="{mid:.1f}" y2="{SVG_SIZE}" '
        'stroke="#cccccc" stroke-width="1"/>\n'
    )
    circle = '<circle cx="{:.2f}" cy="{:.2f}" r="1" fill="black" fill-opacity="0.3"/>\n'
    parts.append("".join(map(circle.format, px(values.real).tolist(), px(-values.imag).tolist())))
    parts.append("</svg>\n")
    return "".join(parts)


def render_histogram_svg(values: np.ndarray, bound: float, bins: int) -> str:
    """800x800 histogram of real samples over [-bound-0.5, bound+0.5]."""
    lo, hi = -bound - 0.5, bound + 0.5
    counts, edges = np.histogram(values.real, bins=bins, range=(lo, hi))
    peak = max(1, counts.max())
    scale_x = SVG_SIZE / (hi - lo)
    h = (SVG_SIZE - 40) * (counts / peak)
    x, w = (edges[:-1] - lo) * scale_x, (edges[1:] - edges[:-1]) * scale_x
    rect = ('<rect x="{:.2f}" y="{:.2f}" width="{:.2f}" height="{:.2f}" fill="steelblue" '
            'stroke="white" stroke-width="0.5"/>\n')
    parts = [_svg_header(len(values))]
    parts.append("".join(map(rect.format, *(c.tolist() for c in (x, SVG_SIZE - h, w, h)))))
    parts.append("</svg>\n")
    return "".join(parts)


def cmd_figure(args) -> int:
    if args.bins < 1:
        raise UsageError(f"--bins {args.bins}: must be at least 1")
    if not 0 <= args.range < math.inf:
        raise UsageError(f"--range {args.range}: must be finite and >= 0 (0 = automatic)")
    values = _read_csv(args.input)
    bound = _figure_range(args.input, values, args.range)
    is_complex = bool(np.abs(values.imag).max() > 1e-12)
    if is_complex:
        svg = render_scatter_svg(values, bound)
    else:
        svg = render_histogram_svg(values, bound, args.bins)
    out = args.out or (os.path.splitext(args.input)[0] + ".svg")
    with _writing(out), sums.replacing(out) as fh:
        fh.write(svg)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultrashort",
        description="Ultra-short sums of trace functions over polynomial roots",
    )
    parser.add_argument("--config", help="JSON file of flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, poly=True):
        if poly:
            p.add_argument("--poly", help='"X^3+X+3" or "3,1,0,1"')
        p.add_argument("--out", help="output file (default: stdout)")

    def bounds(p, cache=True):
        p.add_argument("--coeff-cap", type=int, default=relations.DEFAULT_COEFF_CAP)
        p.add_argument("--degree-bound", type=int, default=0,
                       help="user-asserted [K_g:Q] bound (default: d!)")
        if cache:
            p.add_argument("--cache-dir", default=None)
            p.add_argument("--no-cache", action="store_true")

    p = sub.add_parser("primes", help="totally split primes in a range")
    common(p)
    p.add_argument("--lo", type=int)
    p.add_argument("--hi", type=int)
    p.set_defaults(_required=["poly", "lo", "hi"])

    p = sub.add_parser("roots", help="roots of g mod q^n")
    common(p)
    p.add_argument("--prime", type=int)
    p.add_argument("--power", type=int, default=1)
    p.set_defaults(_required=["poly", "prime"])

    p = sub.add_parser("relations", help="certified relation module")
    common(p)
    bounds(p)
    p.add_argument("--kind", default="additive",
                   choices=["additive", "value", "joint", "multiplicative"])
    p.add_argument("--v", help="Laurent polynomial, e.g. X+X^-1")
    p.add_argument("--exponents", help="comma list for kind=joint, e.g. 1,-1")
    p.set_defaults(_required=["poly"])

    p = sub.add_parser("index", help="ind(g)")
    common(p)
    bounds(p, cache=False)
    p.set_defaults(_required=["poly"])

    p = sub.add_parser("sums", help="full additive-character grid")
    common(p)
    p.add_argument("--prime", type=int)
    p.add_argument("--power", type=int, default=1)
    p.add_argument("--v", help="Laurent polynomial (default X)")
    p.set_defaults(_required=["poly", "prime"])

    p = sub.add_parser("klsums", help="Kloosterman trace-sum grid")
    common(p)
    p.add_argument("--prime", type=int)
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--mode", default="dilate", choices=["dilate", "translate"])
    p.set_defaults(_required=["poly", "prime"])

    p = sub.add_parser("mults", help="multiplicative-character grid")
    common(p)
    p.add_argument("--prime", type=int)
    p.add_argument("--v", help="Laurent polynomial (default X)")
    p.set_defaults(_required=["poly", "prime"])

    p = sub.add_parser("limit", help="sample a limit law")
    common(p, poly=False)
    bounds(p)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--poly", help="needed for --law sigma")
    p.add_argument("--law", default="sigma",
                   help="sigma | st | st-sum:K | su:R | usp:R | inv:R")
    p.add_argument("--count", type=int, default=100000)
    p.set_defaults(_required=[])

    p = sub.add_parser("moments", help="empirical vs exact mixed moments")
    common(p)
    bounds(p)
    p.add_argument("--prime", type=int)
    p.add_argument("--power", type=int, default=1)
    p.add_argument("--max-order", type=int, default=4)
    p.set_defaults(_required=["poly", "prime"])

    p = sub.add_parser("weylcheck", help="exact Weyl stationarity report")
    common(p)
    bounds(p)
    p.add_argument("--alpha", help='vectors "1,1,1;1,0,0"')
    p.add_argument("--primes", help="comma list of primes")
    p.add_argument("--prime-range", help='"lo:hi:count" split primes')
    p.set_defaults(_required=["poly", "alpha"])

    p = sub.add_parser("condition", help="conditioning experiment")
    common(p)
    bounds(p)
    p.add_argument("--prime", type=int)
    p.add_argument("--power", type=int, default=1)
    p.add_argument("--descriptor",
                   help="full | interval:A | image:F | subgroup:M")
    p.add_argument("--alpha", help='vectors "1,1,1;1,0,0"')
    p.set_defaults(_required=["poly", "prime", "descriptor", "alpha"])

    p = sub.add_parser("prime-sweep", help="sigma(U_p(a)) over split p <= T")
    common(p)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--limit", type=int)
    p.set_defaults(_required=["poly", "limit"])

    p = sub.add_parser("figure", help="render a CSV as an SVG figure")
    p.add_argument("input")
    p.add_argument("--out")
    p.add_argument("--bins", type=int, default=60)
    p.add_argument("--range", type=float, default=0.0)

    return parser


_DISPATCH = {
    "primes": cmd_primes,
    "roots": cmd_roots,
    "relations": cmd_relations,
    "index": cmd_index,
    "sums": cmd_sums,
    "klsums": cmd_klsums,
    "mults": cmd_mults,
    "limit": cmd_limit,
    "moments": cmd_moments,
    "weylcheck": cmd_weylcheck,
    "condition": cmd_condition,
    "prime-sweep": cmd_prime_sweep,
    "figure": cmd_figure,
}


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Load --config defaults; explicit flags still take precedence."""
    i = next((i for i, a in enumerate(argv) if a.partition("=")[0] == "--config"), None)
    if i is None:
        return argv
    _, eq, path = argv[i].partition("=")  # --config=FILE
    if not eq:
        if i + 1 == len(argv):
            raise UsageError("--config needs a file name")
        path = argv[i + 1]
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: malformed JSON
        raise UsageError(f"--config {path}: {exc}") from None
    if not isinstance(config, dict):
        raise UsageError(f"--config {path}: expected a JSON object of flag values")
    defaults = {k.replace("-", "_"): v for k, v in config.items()}
    for action in parser._subparsers._group_actions:
        for sub_parser in action.choices.values():
            known = {a.dest for a in sub_parser._actions}
            sub_parser.set_defaults(**{k: v for k, v in defaults.items() if k in known})
    return argv[:i] + argv[i + (1 if eq else 2) :]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_apply_config(parser, argv))
        for name in getattr(args, "_required", []):
            if getattr(args, name, None) in (None, ""):
                raise UsageError(f"--{name.replace('_', '-')} is required")
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except UltrashortError as exc:
        print(f"{exc.name}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
