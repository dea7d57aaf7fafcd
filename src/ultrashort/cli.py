"""Command-line driver.

Every command is a thin wrapper over one library operation, emits CSV/JSON
artifacts, and is deterministic given its flags (all seeds are flags).  No
other module of the package writes a file.  A command that returns exits 0;
usage errors exit 2 (argparse); domain errors exit 1 with the error name on
stderr.  A JSON config file can pre-set any flag; explicit flags win.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import stat
import sys
import warnings

import numpy as np

from . import limitlaw, stats, sums
from .arith import IntPoly, LaurentPoly, find_split_primes, hensel_roots
from .errors import UltrashortError


class UsageError(Exception):
    """Flag values and combinations argparse cannot catch; maps to exit code 2."""


CACHE_ENV = "ULTRASHORT_CACHE_DIR"
DEFAULT_CACHE_DIR = ".ultrashort-cache"
# Part of every cache key: raise it whenever the stored entry or the way a
# module is computed changes, so entries written before become misses.
CACHE_VERSION = 3


# ---------------------------------------------------------------------------
# writing files

_ROWS_PER_WRITE = 1 << 16


def write_columns(fh, header: str, *cols: np.ndarray) -> None:
    """Write `header`, then row i of the 1-D arrays `cols` as a CSV line:
    str for an integer, repr (shortest round-trip text) for a float.  Whole
    columns go through .tolist() and one str.format per row, in blocks of
    _ROWS_PER_WRITE rows to bound memory."""
    fh.write(header)
    line = ",".join(["{}"] * len(cols)) + "\n"
    for i in range(0, len(cols[0]), _ROWS_PER_WRITE):
        fh.write("".join(map(line.format, *(c[i : i + _ROWS_PER_WRITE].tolist() for c in cols))))


@contextlib.contextmanager
def replacing(path):
    """Yield a text handle that writes `path` as a new file: the body writes
    a temp file beside it, and on success the old file is unlinked and the
    temp file renamed into its place.  If the body (or closing the handle)
    raises, the temp file is deleted and the old file stays as it was.
    Every artifact (_write) and cache entry (cache_put) is written so.

    The old file is unlinked, never truncated or renamed over: on ext4 with
    auto_da_alloc, truncating a file that an earlier run truncated and
    rewrote waits for the writeback the kernel forced then, and a rename
    over it does the same (0.15-0.4 s a re-run for a 7 MB CSV), while an
    unlink and a rename to a free name do not wait.  So a reader that
    opened the old file keeps its complete bytes, and a re-run breaks hard
    links: the path gets a new inode, and other names keep the old bytes.

    The temp file is `path` plus a random suffix and ".tmp", created with
    O_EXCL and mode 0o666, so the umask applies as for open(path, "w"); it
    takes an existing file's permission bits.  An existing path that is
    not a regular file (a symlink, FIFO or device) is opened in place with
    open(path, "w").  Nothing is fsynced, so after a system crash the new
    file may read short or empty: every artifact is a function of its
    command's flags, and a malformed cache entry reads as a miss.
    """
    try:
        old = os.lstat(path)
    except FileNotFoundError:
        old = None
    if old is not None and not stat.S_ISREG(old.st_mode):
        with open(path, "w") as fh:
            yield fh
        return
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w") as fh:
            if old is not None:
                os.fchmod(fd, stat.S_IMODE(old.st_mode))
            yield fh
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        os.rename(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write(path: str, fill) -> None:
    """Write the artifact `path` by fill(fh) through replacing; an OSError
    from creating or writing it is a usage error naming it, as a missing
    input file is."""
    try:
        with replacing(path) as fh:
            fill(fh)
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror}") from None


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        _write(out, lambda fh: fh.write(text + "\n"))
    else:
        print(text)


def _emit_csv(out: str | None, header: str, *cols: np.ndarray) -> None:
    """The columns as CSV: to the file `out` under `header`, else headless to stdout."""
    if out:
        _write(out, lambda fh: write_columns(fh, header, *cols))
    else:
        write_columns(sys.stdout, "", *cols)


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
    alphas = [_int_list("--alpha", chunk) for chunk in text.split(";") if chunk.strip()]
    if not alphas:
        raise UsageError(f"--alpha {text!r} names no vector")
    return alphas


# ---------------------------------------------------------------------------
# relation-module disk cache


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


def cache_get(directory: str, key: str, check):
    """The cached module, or None on a miss.  An entry that from_json_dict
    refuses, or on which check(module) raises ValueError, warns and is a
    miss."""
    from .relations import RelationModule

    path = os.path.join(directory, key + ".json")
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            module = RelationModule.from_json_dict(json.load(fh))
        check(module)
        return module
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"warning: ignoring corrupt cache entry {path}: {exc}", file=sys.stderr)
        return None


def cache_put(directory: str, key: str, module) -> None:
    """Write the entry through replacing, so a reader never sees a
    half-written entry; a failed write only warns, as cache_get does."""
    path = os.path.join(directory, key + ".json")
    try:
        os.makedirs(directory, exist_ok=True)
        with replacing(path) as fh:
            json.dump(module.to_json_dict(), fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        print(f"warning: cannot write cache entry {path}: {exc.strerror}", file=sys.stderr)


# ---------------------------------------------------------------------------
# commands


def cmd_primes(args) -> None:
    g = _poly(args)
    qs = find_split_primes(g, args.lo, args.hi)
    _emit({"poly": str(g), "lo": args.lo, "hi": args.hi, "primes": qs}, args.out)


def cmd_roots(args) -> None:
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


def _module(args, g: IntPoly, kind: str = "additive"):
    """The relation module of g that the flags name, through the disk cache."""
    from . import relations

    v = _laurent(args.v) if getattr(args, "v", None) else None
    text = getattr(args, "exponents", None)
    # a joint module does not depend on the order of its exponents
    exponents = tuple(sorted(_int_list("--exponents", text))) if text else None
    if kind == "value" and v is None:
        raise UsageError("--v is required for kind=value")
    if kind == "joint" and exponents is None:
        raise UsageError("--exponents is required for kind=joint")
    # the key names only what the kind reads, so that one module has one entry
    v = {"value": v, "multiplicative": v or LaurentPoly.x()}.get(kind)
    exponents = exponents if kind == "joint" else None
    bound = relations._degree_bound(g, args.degree_bound or None)
    cap = relations._coeff_cap(args.coeff_cap)
    key = _cache_key(g, kind, v, exponents, cap, bound)
    directory = args.cache_dir or os.environ.get(CACHE_ENV, DEFAULT_CACHE_DIR)

    def check(module):  # re-certify a cached basis with detection's row test
        relations.check_cached_module(module, g, v, exponents, kind, bound)

    module = None if args.no_cache else cache_get(directory, key, check)
    if module is None:
        if kind == "additive":
            module = relations.additive_relations(g, cap, bound)
        elif kind == "value":
            module = relations.value_relations(g, v, cap, bound)
        elif kind == "joint":
            module = relations.joint_power_relations(g, exponents, cap, bound)
        else:
            module = relations.multiplicative_relations(g, v, cap, bound)
        if not args.no_cache:
            cache_put(directory, key, module)
    return module


def cmd_relations(args) -> None:
    _emit(_module(args, _poly(args), args.kind).to_json_dict(), args.out)


def cmd_index(args) -> None:
    from .relations import index_ind

    g = _poly(args)
    ind = index_ind(g, args.coeff_cap, args.degree_bound or None)
    _emit({"poly": str(g), "ind": ind}, args.out)


def _write_grid(grid, out: str | None) -> None:
    """The a,re,im rows, and beside a file `out` the grid's JSON sidecar."""
    _emit_csv(out, "a,re,im\n", grid.params, grid.values.real, grid.values.imag)
    if out:
        _emit(grid.to_json_dict(), os.path.splitext(out)[0] + ".json")


def cmd_sums(args) -> None:
    g = _poly(args)
    v = _laurent(args.v) if args.v else None
    _write_grid(sums.additive_sum_grid(g, args.prime, args.power, v), args.out)


def cmd_klsums(args) -> None:
    g = _poly(args)
    _write_grid(sums.trace_sum_grid(g, args.prime, r=args.rank, mode=args.mode), args.out)


def cmd_mults(args) -> None:
    g = _poly(args)
    v = _laurent(args.v) if args.v else None
    _write_grid(sums.mult_char_sum_grid(g, args.prime, v), args.out)


def _law_int(law: str) -> int:
    """The integer K or R after the colon of st-sum:K, su:R, usp:R or inv:R."""
    try:
        return int(law.partition(":")[2])
    except ValueError:
        raise UsageError(f"--law {law!r} needs an integer after the colon") from None


def cmd_limit(args) -> None:
    law = args.law
    if law == "sigma":
        if not args.poly:
            raise UsageError("--poly is required for --law sigma")
        h = limitlaw.torus_subgroup(_module(args, _poly(args)))
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
        from .relations import negation_pairing

        r, g = _law_int(law), _poly(args)
        pairs = negation_pairing(g)[0]  # unpaired roots are the rest
        batch = limitlaw.involution_sum_samples(g.degree, pairs, r, args.count, args.seed)
    else:
        raise UsageError(f"unknown law {law!r} (sigma | st | st-sum:K | su:R | usp:R | inv:R)")
    _emit_csv(args.out, "re,im\n", batch.samples.real, batch.samples.imag)


def _moment_keys(table: dict) -> dict:
    """{(m, n): value} as {"(m,n)": value}, in (m, n) order."""
    return {f"({m},{n})": value for (m, n), value in sorted(table.items())}


def cmd_moments(args) -> None:
    g = _poly(args)
    grid = sums.additive_sum_grid(g, args.prime, args.power)
    module = _module(args, g)
    empirical = stats.moment_table(grid, args.max_order)
    exact = {mn: limitlaw.exact_mixed_moment(module, *mn) for mn in empirical}
    payload = {
        "poly": str(g),
        "q": args.prime,
        "n": args.power,
        "empirical": _moment_keys(empirical),
        "exact": _moment_keys(exact),
    }
    _emit(payload, args.out)


def cmd_weylcheck(args) -> None:
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
    _emit(stats.stationarity_report(g, qs, alphas, module), args.out)


def cmd_condition(args) -> None:
    g = _poly(args)
    A = sums.make_condition_set(args.prime, args.power, args.descriptor)
    alphas = _alpha_list(args.alpha)
    module = _module(args, g)
    _emit(stats.conditioning_experiment(g, args.prime, args.power, A, alphas, module), args.out)


def cmd_prime_sweep(args) -> None:
    """Empirical law of sigma(U_p(a)) for fixed a over split p <= T.

    Exploratory only: whether these values equidistribute as the prime
    varies is an open question, so nothing is asserted about the output.
    """
    if args.limit < 2:
        raise UsageError(f"--limit {args.limit}: must be at least 2")
    g = _poly(args)
    qs = find_split_primes(g, 2, args.limit)
    zs = sums.prime_sweep_values(g, qs, args.a)
    _emit_csv(args.out, "p,re,im\n", np.array(qs, dtype=np.int64), zs.real, zs.imag)


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
    """--range if > 0; else the sidecar's d, times its r if it has one (a
    sum of d values of Kl_r has modulus at most r*d), if that is a finite
    number > 0; else the ceiling of the largest |coordinate| of the finite values, at
    least 1.  An unreadable sidecar, or a bound whose SVG span is not
    finite, is a usage error naming it."""
    meta_path, meta = os.path.splitext(path)[0] + ".json", None
    if not explicit and os.path.exists(meta_path):
        try:
            with open(meta_path) as fh:
                meta = json.load(fh, parse_int=float)  # 10^400 is inf, as 1e400 is
        except OSError as exc:
            raise UsageError(f"{meta_path}: {exc.strerror}") from None
        except ValueError:  # not JSON: no d
            pass
    d, r = (meta.get("d"), meta.get("r", 1.0)) if isinstance(meta, dict) else (None, None)
    if explicit:
        bound, source = explicit, "--range"
    elif all(isinstance(x, float) and x > 0 for x in (d, r)) and d * r < math.inf:
        bound, source = d * r, meta_path
    else:
        coords = np.abs(np.stack([values.real, values.imag]))
        bound, source = math.ceil(coords.max(initial=1.0)), path
    if not math.isfinite(2 * (bound + 0.5)):
        raise UsageError(f"{source}: figure range {bound:g} is too large to draw")
    return float(bound)


SVG_SIZE = 800


def _svg(count: int, skipped: dict, *elements: str) -> str:
    """The SVG document of `count` samples drawn as `elements`, joined once,
    noting each nonzero count of `skipped` samples ("non-finite",
    "out-of-range") in a comment of its own."""
    skip = "".join(f"<!-- skipped {why} samples: {n} -->\n" for why, n in skipped.items() if n)
    header = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f"<!-- samples: {count} -->\n{skip}"
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_SIZE}" height="{SVG_SIZE}" '
        f'viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">\n'
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>\n'
    )
    return "".join((header, *elements, "</svg>\n"))


def render_scatter_svg(values: np.ndarray, bound: float, skipped: dict) -> str:
    """800x800 scatter of values inside [-bound-0.5, bound+0.5]^2."""
    span = 2 * (bound + 0.5)
    scale = SVG_SIZE / span

    def px(x):
        return (x + bound + 0.5) * scale

    mid = px(0.0)
    axes = (
        f'<line x1="0" y1="{mid:.1f}" x2="{SVG_SIZE}" y2="{mid:.1f}" '
        'stroke="#cccccc" stroke-width="1"/>\n'
        f'<line x1="{mid:.1f}" y1="0" x2="{mid:.1f}" y2="{SVG_SIZE}" '
        'stroke="#cccccc" stroke-width="1"/>\n'
    )
    circle = '<circle cx="{:.2f}" cy="{:.2f}" r="1" fill="black" fill-opacity="0.3"/>\n'
    dots = map(circle.format, px(values.real).tolist(), px(-values.imag).tolist())
    return _svg(len(values), skipped, axes, *dots)


def render_histogram_svg(values: np.ndarray, bound: float, bins: int, skipped: dict) -> str:
    """800x800 histogram of real samples inside [-bound-0.5, bound+0.5]."""
    lo, hi = -bound - 0.5, bound + 0.5
    counts, edges = np.histogram(values.real, bins=bins, range=(lo, hi))
    peak = max(1, counts.max())
    scale_x = SVG_SIZE / (hi - lo)
    h = (SVG_SIZE - 40) * (counts / peak)
    x, w = (edges[:-1] - lo) * scale_x, (edges[1:] - edges[:-1]) * scale_x
    rect = ('<rect x="{:.2f}" y="{:.2f}" width="{:.2f}" height="{:.2f}" fill="steelblue" '
            'stroke="white" stroke-width="0.5"/>\n')
    return _svg(len(values), skipped,
                *map(rect.format, *(c.tolist() for c in (x, SVG_SIZE - h, w, h))))


def cmd_figure(args) -> None:
    if args.bins < 1:
        raise UsageError(f"--bins {args.bins}: must be at least 1")
    if not 0 <= args.range < math.inf:
        raise UsageError(f"--range {args.range}: must be finite and >= 0 (0 = automatic)")
    samples = _read_csv(args.input)
    values = samples[np.isfinite(samples)]  # complex isfinite: both parts
    if not len(values):
        raise UsageError(f"{args.input} has no finite samples")
    bound = _figure_range(args.input, values, args.range)
    scatter = np.abs(values.imag).max() > 1e-12
    drawn = values[np.maximum(np.abs(values.real), np.abs(values.imag)) <= bound + 0.5]
    skipped = {"non-finite": len(samples) - len(values), "out-of-range": len(values) - len(drawn)}
    if scatter:
        svg = render_scatter_svg(drawn, bound, skipped)
    else:
        svg = render_histogram_svg(drawn, bound, args.bins, skipped)
    _write(args.out or os.path.splitext(args.input)[0] + ".svg", lambda fh: fh.write(svg))


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultrashort",
        description="Ultra-short sums of trace functions over polynomial roots",
    )
    parser.add_argument("--config", help="JSON file of flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--poly", help='"X^3+X+3" or "3,1,0,1"')
        p.add_argument("--out", help="output file (default: stdout)")

    def bounds(p, cache=True):
        # None is relations.DEFAULT_COEFF_CAP, read only by the commands that
        # import relations, so the others do not load it (or mpmath)
        p.add_argument("--coeff-cap", type=int, default=None)
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
    common(p)
    bounds(p)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--law", default="sigma",
                   help="sigma | st | st-sum:K | su:R | usp:R | inv:R (sigma, inv:R need --poly)")
    p.add_argument("--count", type=int, default=100000)

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
            known = {a.dest: a for a in sub_parser._actions}
            sub_parser.set_defaults(**{
                k: _config_value(sub_parser, path, known[k], v)
                for k, v in defaults.items() if k in known
            })
    return argv[:i] + argv[i + (1 if eq else 2) :]


def _config_value(parser, path: str, action: argparse.Action, value):
    """A config value as the flag's own parsing takes it: JSON true or false
    for a switch, else a number or string parsed as its text on the command
    line would be."""
    switch, flag = action.nargs == 0, "/".join(action.option_strings) or action.dest
    if isinstance(value, bool) != switch or not isinstance(value, (int, float, str)):
        want = "true or false" if switch else "a number or string"
        raise UsageError(f"--config {path}: {flag} takes {want}, not {json.dumps(value)}")
    if switch:
        return value
    try:
        parsed = parser._get_value(action, str(value))
        parser._check_value(action, parsed)
    except argparse.ArgumentError as exc:
        raise UsageError(f"--config {path}: {exc}") from None
    return parsed


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_apply_config(parser, argv))
        for name in getattr(args, "_required", []):
            if getattr(args, name, None) in (None, ""):
                raise UsageError(f"--{name.replace('_', '-')} is required")
        _DISPATCH[args.command](args)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except UltrashortError as exc:
        print(f"{exc.name}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
