"""CLI driver: commands, cache, config precedence, figures, exit codes."""

import hashlib
import json
import math
import os
import stat
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import ultrashort
from ultrashort import cli
from ultrashort.cli import CACHE_ENV, _read_csv, main
from ultrashort.limitlaw import sato_tate_sum_samples
from ultrashort.sums import additive_sum_grid


@pytest.fixture(autouse=True)
def _cache_in_tmp(tmp_path, monkeypatch):
    """Commands that resolve a relation module must not write into the checkout."""
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "default-cache"))


def run(args, capsys=None):
    code = main(args)
    return code


def test_primes_command(tmp_path):
    out = tmp_path / "primes.json"
    assert main(["primes", "--poly", "X^5-1", "--lo", "2", "--hi", "40",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["primes"] == [11, 31]


def test_primes_command_stdout_is_pinned(capsys):
    assert main(["primes", "--poly", "X^3+X+3", "--lo", "30200", "--hi", "30250"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "poly": "X^3+X+3",\n  "lo": 30200,\n  "hi": 30250,\n'
        '  "primes": [\n    30211,\n    30223\n  ]\n}\n'
    )


def test_prime_sweep_csv_is_pinned(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["prime-sweep", "--poly", "X^2-2", "--a", "1", "--limit", "10000",
                 "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "fd71b1e6de5e9490f0b58a7823a4b693f9801f2f962c465ea9f9a16748d1b0b1"


def test_primes_band_reaching_2_63_is_domain_error(capsys):
    assert main(["primes", "--poly", "X^2+1", "--lo", "2",
                 "--hi", "9223372036854775808"]) == 1
    assert "OutOfRangeParameter" in capsys.readouterr().err


def test_roots_command(tmp_path):
    out = tmp_path / "roots.json"
    assert main(["roots", "--poly", "X^2-2", "--prime", "7", "--power", "2",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["roots"] == [10, 39]


def test_relations_command_and_cache(tmp_path):
    cache = tmp_path / "cache"
    out1 = tmp_path / "m1.json"
    out2 = tmp_path / "m2.json"
    args = ["relations", "--poly", "X^3+X+3", "--cache-dir", str(cache)]
    assert main(args + ["--out", str(out1)]) == 0
    data = json.loads(out1.read_text())
    assert data["basis"] == [[1, 1, 1]] and data["kind"] == "additive"
    entries = list(cache.glob("*.json"))
    assert len(entries) == 1
    # second run: served from cache, byte-identical artifact
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


def test_relations_cache_corruption_recovers(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ["relations", "--poly", "X^3+X+3", "--cache-dir", str(cache)]
    assert main(args) == 0
    entry = next(cache.glob("*.json"))
    entry.write_text("{ not json")
    assert main(args) == 0
    err = capsys.readouterr().err
    assert "corrupt cache" in err
    # the entry was rewritten with good content
    assert json.loads(entry.read_text())["basis"] == [[1, 1, 1]]


@pytest.mark.parametrize("entry", [[], {"d": 3, "basis": 5, "kind": "additive"},
                                   {"d": 3, "basis": [[1, 1]], "kind": "additive"}])
def test_relations_cache_malformed_entry_is_a_miss(tmp_path, capsys, entry):
    cache = tmp_path / "cache"
    args = ["relations", "--poly", "X^3+X+3", "--cache-dir", str(cache)]
    assert main(args) == 0
    path = next(cache.glob("*.json"))
    path.write_text(json.dumps(entry))
    capsys.readouterr()
    assert main(args) == 0
    captured = capsys.readouterr()
    assert "corrupt cache" in captured.err
    assert json.loads(captured.out)["basis"] == [[1, 1, 1]]
    assert json.loads(path.read_text())["basis"] == [[1, 1, 1]]


MODULE_READERS = {
    "relations": ["relations", "--poly", "X^3+X+3"],
    "weylcheck": ["weylcheck", "--poly", "X^3+X+3", "--alpha", "1,1,1;1,-1,0",
                  "--primes", "30211,30223"],
    "moments": ["moments", "--poly", "X^3+X+3", "--prime", "30223", "--max-order", "3"],
}
CORRUPT_ENTRIES = {
    "zero-row": {"basis": [[1, 1, 1], [0, 0, 0]]},
    "not-hnf": {"basis": [[3, 3, 3], [1, 1, 1]]},
    "missing-field": {"stable_doublings": None},
    "cap-reached-string": {"cap_reached": "no"},
    "wrong-d": {"d": 4, "basis": [[1, 1, 1, 1]]},
    "wrong-kind": {"kind": "multiplicative"},
}


@pytest.mark.parametrize("corrupt", list(CORRUPT_ENTRIES))
@pytest.mark.parametrize("command", list(MODULE_READERS))
def test_a_bad_cache_entry_is_recomputed(command, corrupt, tmp_path, capsys):
    """An entry that from_json_dict refuses, or that holds another d or
    kind, warns, and the command prints the fresh module's output and
    rewrites the entry."""
    argv = MODULE_READERS[command] + ["--cache-dir", str(tmp_path / "cache")]
    assert main(argv + ["--no-cache"]) == 0
    want = capsys.readouterr().out
    assert main(argv) == 0
    path = next((tmp_path / "cache").glob("*.json"))
    good = json.loads(path.read_text())
    bad = {**good, **CORRUPT_ENTRIES[corrupt]}
    path.write_text(json.dumps({k: v for k, v in bad.items() if v is not None}))
    capsys.readouterr()
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert f"warning: ignoring corrupt cache entry {path}" in captured.err
    assert captured.out == want
    assert json.loads(path.read_text()) == good


def test_one_module_has_one_cache_entry(tmp_path):
    """Flags that a kind does not read stay out of the key, and the
    multiplicative default v = X is keyed as X."""
    cache = tmp_path / "cache"
    runs = [
        ["--poly", "X^3+X+3"],
        ["--poly", "X^3+X+3", "--v", "X^2"],
        ["--poly", "X^3+X+3", "--exponents=1,2"],
        ["--poly", "X^3-1", "--kind", "multiplicative"],
        ["--poly", "X^3-1", "--kind", "multiplicative", "--v", "X"],
    ]
    for flags in runs:
        assert main(["relations", *flags, "--cache-dir", str(cache)]) == 0
    assert len(list(cache.glob("*.json"))) == 2


def test_cache_put_leaves_no_temp_file(tmp_path):
    from ultrashort.cli import cache_put

    class Module:
        def __init__(self, payload):
            self.payload = payload

        def to_json_dict(self):
            return self.payload

    cache = tmp_path / "cache"
    cache_put(str(cache), "k", Module({"d": 1, "basis": [], "kind": "additive"}))
    assert [p.name for p in cache.iterdir()] == ["k.json"]
    # a write that fails half way leaves the old entry and no temp file
    with pytest.raises(TypeError):
        cache_put(str(cache), "k", Module({"d": 1, "basis": object()}))
    assert [p.name for p in cache.iterdir()] == ["k.json"]
    assert json.loads((cache / "k.json").read_text())["kind"] == "additive"


def test_a_failed_cache_write_warns_and_prints_the_module(tmp_path, capsys):
    """With the cache directory under a regular file, the entry cannot be
    written: the command warns naming the entry and prints the module."""
    from ultrashort.arith import IntPoly
    from ultrashort.cli import _cache_key

    (tmp_path / "F").write_text("")
    base = ["relations", "--poly", "X^3+X+3"]
    assert main(base + ["--no-cache"]) == 0
    want = capsys.readouterr().out
    assert main(base + ["--cache-dir", str(tmp_path / "F" / "cache")]) == 0
    captured = capsys.readouterr()
    assert captured.out == want
    key = _cache_key(IntPoly.parse("X^3+X+3"), "additive", None, None, 64, 6)
    entry = tmp_path / "F" / "cache" / (key + ".json")
    assert f"warning: cannot write cache entry {entry}: Not a directory" in captured.err
    assert not list(tmp_path.rglob("*.tmp"))


def test_degree_bound_below_one_is_domain_error(capsys):
    assert main(["relations", "--poly", "X^3+X+3", "--degree-bound", "-2",
                 "--no-cache"]) == 1
    assert "OutOfRangeParameter" in capsys.readouterr().err


def test_equivalent_degree_bounds_share_one_cache_entry(tmp_path, capsys):
    # 0 is unset (d! = 6); 7 is above d!, so it acts as 6 in every zero test
    cache = tmp_path / "cache"
    base = ["relations", "--poly", "X^3+X+3", "--cache-dir", str(cache)]
    for bound in ("0", "6", "7"):
        assert main(base + ["--degree-bound", bound]) == 0
    assert len(list(cache.glob("*.json"))) == 1
    assert main(base + ["--degree-bound", "-2"]) == 1
    assert "OutOfRangeParameter" in capsys.readouterr().err


def test_an_entry_stored_under_the_unversioned_key_is_recomputed(tmp_path, capsys):
    # the key before CACHE_VERSION: the same blob without "version"; a stale
    # (wrong) basis stored under it must not be served
    from ultrashort.arith import IntPoly
    from ultrashort.cli import _cache_key

    g = IntPoly.parse("X^3+X+3")
    blob = json.dumps({"poly": g.key(), "kind": "additive", "v": None, "exponents": None,
                       "coeff_cap": 64, "degree_bound": 6}, sort_keys=True)
    old_key = hashlib.sha256(blob.encode()).hexdigest()
    cache = tmp_path / "cache"
    cache.mkdir()
    stale = cache / (old_key + ".json")
    stale.write_text(json.dumps({"d": 3, "basis": [[1, -1, 0]], "precision_bits": 96,
                                 "kind": "additive"}))
    assert main(["relations", "--poly", "X^3+X+3", "--cache-dir", str(cache)]) == 0
    assert json.loads(capsys.readouterr().out)["basis"] == [[1, 1, 1]]
    new_key = _cache_key(g, "additive", None, None, 64, 6)
    assert new_key != old_key
    assert sorted(p.name for p in cache.glob("*.json")) == sorted(
        [stale.name, new_key + ".json"])


def test_joint_exponents_in_either_order_share_one_cache_entry(tmp_path, capsys):
    cache = tmp_path / "cache"
    printed = []
    for exponents in ("1,-1", "-1,1"):
        assert main(["relations", "--poly", "X^4+1", "--kind", "joint",
                     f"--exponents={exponents}", "--cache-dir", str(cache)]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert json.loads(printed[0])["basis"] == [[1, 0, 0, 1], [0, 1, 1, 0]]
    assert len(list(cache.glob("*.json"))) == 1


def test_relations_cache_key_depends_on_caps(tmp_path):
    cache = tmp_path / "cache"
    base = ["relations", "--poly", "X^3+X+3", "--cache-dir", str(cache)]
    assert main(base) == 0
    assert main(base + ["--coeff-cap", "32"]) == 0
    assert len(list(cache.glob("*.json"))) == 2


def test_relations_cache_entry_name_is_pinned(tmp_path):
    """The default --coeff-cap and an explicit --coeff-cap 64 name one entry,
    under the key of CACHE_VERSION 3, whose entries hold the whole record."""
    cache = tmp_path / "cache"
    base = ["relations", "--poly", "X^3+X+3", "--cache-dir", str(cache)]
    assert main(base) == 0
    assert main(base + ["--coeff-cap", "64"]) == 0
    assert cli.CACHE_VERSION == 3
    assert [p.name for p in cache.iterdir()] == [
        "1a2fd9bbc566dcf478438f08fe277b3a2b599ad2d427cf86841367323a66c710.json"
    ]


def test_module_commands_share_the_cache(tmp_path):
    cache = tmp_path / "cache"
    weyl = ["weylcheck", "--poly", "X^3+X+3", "--alpha", "1,1,1", "--primes", "30223",
            "--cache-dir", str(cache), "--out", str(tmp_path / "w.json")]
    assert main(weyl + ["--degree-bound", "6"]) == 0
    entries = list(cache.glob("*.json"))
    assert len(entries) == 1
    # the same module through `relations` is a cache hit: no new entry
    assert main(["relations", "--poly", "X^3+X+3", "--degree-bound", "6",
                 "--cache-dir", str(cache), "--out", str(tmp_path / "r.json")]) == 0
    assert list(cache.glob("*.json")) == entries
    # a different effective degree bound (below d! = 6) is a different module
    assert main(weyl + ["--degree-bound", "3"]) == 0
    assert len(list(cache.glob("*.json"))) == 2


def test_relations_no_cache(tmp_path):
    cache = tmp_path / "cache"
    assert main(["relations", "--poly", "X^3+X+3", "--cache-dir", str(cache),
                 "--no-cache"]) == 0
    assert not cache.exists()


def test_relations_value_kind(tmp_path):
    out = tmp_path / "v.json"
    assert main(["relations", "--poly", "X^5-1", "--kind", "value",
                 "--v", "X+X^-1", "--no-cache", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["basis"]) == 3


def test_index_command(tmp_path):
    out = tmp_path / "i.json"
    assert main(["index", "--poly", "X^3+X^2+2X+1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["ind"] == 1


def test_sums_writes_csv_and_meta(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["sums", "--poly", "X^3-1", "--prime", "7",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "a,re,im" and len(lines) == 8
    meta = json.loads((tmp_path / "grid.json").read_text())
    assert meta["family"] == "additive" and meta["d"] == 3


def test_klsums_high_rank_writes_finite_real_rows(tmp_path):
    # sqrt(8089)^200 is far above the float range
    out = tmp_path / "kl.csv"
    assert main(["klsums", "--poly", "X^3-9X-1", "--prime", "8089", "--rank", "200",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 8088
    assert all(math.isfinite(float(re)) and im == "0.0" for _, re, im in rows)
    assert max(abs(float(re)) for _, re, _ in rows) <= 3 * 200


def test_figure_scatter_svg(tmp_path):
    csv = tmp_path / "grid.csv"
    svg = tmp_path / "grid.svg"
    main(["sums", "--poly", "X^3-1", "--prime", "31", "--out", str(csv)])
    assert main(["figure", str(csv), "--out", str(svg)]) == 0
    text = svg.read_text()
    assert "<!-- samples: 31 -->" in text
    root = ET.fromstring(text)  # well-formed XML
    assert root.tag.endswith("svg") and root.get("version") == "1.1"
    circles = [e for e in root.iter() if e.tag.endswith("circle")]
    assert len(circles) == 31


def test_figure_histogram_for_real_data(tmp_path):
    csv = tmp_path / "st.csv"
    svg = tmp_path / "st.svg"
    main(["limit", "--law", "st", "--count", "500", "--seed", "4",
          "--out", str(csv)])
    assert main(["figure", str(csv), "--out", str(svg), "--bins", "20",
                 "--range", "2"]) == 0
    text = svg.read_text()
    assert "<!-- samples: 500 -->" in text
    root = ET.fromstring(text)
    rects = [e for e in root.iter() if e.tag.endswith("rect")]
    assert len(rects) == 21  # 20 bins + background


@pytest.mark.parametrize(
    "sidecar", ["5", '{"d": null}', '{"d": 1e400}', '{"d": 1' + "0" * 400 + "}", '{"d": NaN}',
                '{"d": -3}', "not json", '{"d": 3, "r": "2"}', '{"d": 3, "r": 1e308}'],
    ids=["number", "null", "overflow", "huge-int", "nan", "negative", "not-json",
         "r-not-a-number", "r-times-d-overflow"],
)
def test_figure_without_a_usable_sidecar_d_takes_the_sample_bound(sidecar, tmp_path):
    """A sidecar whose d (times its r, if any) is not a finite number > 0 is
    passed over: the bound
    is the ceiling of the largest |coordinate|, here 3 = |S(0)| for X^3-1."""
    csv = tmp_path / "a.csv"
    main(["sums", "--poly", "X^3-1", "--prime", "31", "--out", str(csv)])
    assert main(["figure", str(csv), "--range", "3", "--out", str(tmp_path / "want.svg")]) == 0
    (tmp_path / "a.json").write_text(sidecar)
    assert main(["figure", str(csv)]) == 0
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "want.svg").read_bytes()


def test_figure_bound_passes_over_non_finite_samples(tmp_path):
    csv = tmp_path / "a.csv"
    csv.write_text("re,im\n0.5,0.25\ninf,0\nnan,1\n-1.0,-inf\n-1.5,2.0\n")
    assert main(["figure", str(csv), "--range", "2", "--out", str(tmp_path / "want.svg")]) == 0
    assert main(["figure", str(csv)]) == 0
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "want.svg").read_bytes()


@pytest.mark.parametrize(
    "rows, element, kept",
    [("0.5,0.25\n-1.5,2.0", "circle", 2), ("0.5,0\n-1.5,0", "rect", 20)],
    ids=["scatter", "histogram"],
)
def test_figure_skips_non_finite_samples(rows, element, kept, tmp_path):
    """Neither renderer draws a non-finite sample: the header counts the
    drawn samples, and a second comment the skipped ones."""
    csv = tmp_path / "a.csv"
    csv.write_text(f"re,im\ninf,0\n{rows}\nnan,1\n-1.0,-inf\n")
    assert main(["figure", str(csv), "--bins", "20"]) == 0
    text = (tmp_path / "a.svg").read_text()
    assert "<!-- samples: 2 -->\n<!-- skipped non-finite samples: 3 -->\n" in text
    assert "inf" not in text and "nan" not in text
    drawn = [e for e in ET.fromstring(text).iter() if e.tag.endswith(element)]
    assert len(drawn) == kept + (element == "rect")  # and the background


@pytest.mark.parametrize(
    "rows, element, drawn",
    [("0.5,0.25\n5.0,0.5\n-0.25,-1.75", "circle", 1), ("0.5,0\n5.0,0\n-0.25,0", "rect", 2)],
    ids=["scatter", "histogram"],
)
def test_figure_skips_samples_outside_its_range(rows, element, drawn, tmp_path):
    """Neither renderer draws a sample with a coordinate outside
    [-B-1/2, B+1/2]: the header counts the drawn samples, and a comment
    beside the non-finite one the skipped ones."""
    csv = tmp_path / "a.csv"
    csv.write_text(f"re,im\nnan,0\n{rows}\n")
    assert main(["figure", str(csv), "--range", "1", "--bins", "4"]) == 0
    text = (tmp_path / "a.svg").read_text()
    assert (f"<!-- samples: {drawn} -->\n<!-- skipped non-finite samples: 1 -->\n"
            f"<!-- skipped out-of-range samples: {3 - drawn} -->\n") in text
    shapes = [e for e in ET.fromstring(text).iter() if e.tag.endswith(element)]
    if element == "circle":
        assert [(c.get("cx"), c.get("cy")) for c in shapes] == [("533.33", "333.33")]
    else:  # the background, then 4 bins over [-1.5, 1.5] holding -0.25 and 0.5
        assert [r.get("height") for r in shapes[1:]] == ["0.00", "760.00", "760.00", "0.00"]


def test_figure_of_a_trace_grid_takes_the_range_r_times_d(tmp_path):
    """A Kloosterman trace grid's sidecar names d and r, and a sum of d
    values of Kl_r reaches past d (5.54 here, d = 3): the automatic range is
    r*d, so every sample is drawn."""
    csv = tmp_path / "kl.csv"
    assert main(["klsums", "--poly", "X^3-9X-1", "--prime", "8089", "--out", str(csv)]) == 0
    assert main(["figure", str(csv), "--range", "6", "--out", str(tmp_path / "want.svg")]) == 0
    assert main(["figure", str(csv)]) == 0
    text = (tmp_path / "kl.svg").read_text()
    assert text == (tmp_path / "want.svg").read_text()
    assert "<!-- samples: 8088 -->\n<svg" in text


@pytest.mark.parametrize(
    "sidecar, rows, argv, named",
    [
        (None, "0.5,0.25", ["--range", "1e308"], "--range"),
        ('{"d": 1e308}', "0.5,0.25", [], "a.json"),
        (None, "1.5e308,0.25", [], "a.csv"),
        ("dir", "0.5,0.25", [], "a.json"),
    ],
    ids=["range-flag", "sidecar-d", "samples", "sidecar-directory"],
)
def test_figure_bound_too_large_or_unreadable_sidecar_is_usage_error(
    sidecar, rows, argv, named, tmp_path, capsys
):
    csv = tmp_path / "a.csv"
    csv.write_text(f"re,im\n{rows}\n-1.0,2.0\n")
    if sidecar == "dir":
        (tmp_path / "a.json").mkdir()
    elif sidecar:
        (tmp_path / "a.json").write_text(sidecar)
    assert main(["figure", str(csv)] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and named in err
    assert not (tmp_path / "a.svg").exists()


def test_limit_sigma_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["limit", "--law", "sigma", "--poly", "X^3+X+3", "--count", "100",
            "--seed", "9"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_limit_usp_law(tmp_path):
    out = tmp_path / "usp.csv"
    assert main(["limit", "--law", "usp:2", "--count", "200", "--seed", "2",
                 "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    vals = [float(r.split(",")[0]) for r in rows]
    assert len(vals) == 200 and all(abs(v) <= 2 + 1e-9 for v in vals)


def test_limit_su1_writes_exact_ones(capsys):
    assert main(["limit", "--law", "su:1", "--count", "4", "--seed", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == ["1.0,0.0"] * 4


@pytest.mark.parametrize("law", ["st-sum:x", "su:x", "usp:", "inv:x", "su:2:3"])
def test_limit_non_integer_law_suffix_is_usage_error(law, capsys):
    assert main(["limit", "--law", law, "--poly", "X^4+1", "--count", "5"]) == 2
    assert law in capsys.readouterr().err


def test_limit_unknown_law_lists_every_law(capsys):
    assert main(["limit", "--law", "bogus"]) == 2
    assert "inv:R" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["inv:0"], ["inv:-1"], ["inv:9"], ["inv:3", "--count", "-5"],
                                  ["inv:3", "--count", "0"], ["inv:2"], ["inv:4"]])
def test_limit_involution_out_of_range_is_domain_error(args, capsys):
    assert main(["limit", "--poly", "X^4+1", "--law", *args]) == 1
    captured = capsys.readouterr()
    assert "OutOfRangeParameter" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "text,where",
    [("re,im\n", ""), ("", ""), ("re,im\n0.5,0.5\n1.0,x\n", "line 3"), ("re,im\n1.0\n", "line 2"),
     ("re,im\n\n  \n", ""), ("re,im\n1,2\n#3,4\n", "line 3"),
     (b"\xff\xfe,im\n1,2\n", "UTF-8"), (b"re,im\n\xff\xfe,1\n", "UTF-8"),
     ("re,im\ninf,0\nnan,1\n", "no finite samples")],
    ids=["header-only", "empty", "not-a-number", "short-row", "blank-rows-only", "comment-row",
         "non-utf8-header", "non-utf8-row", "no-finite-row"],
)
def test_figure_csv_without_samples_is_usage_error(text, where, tmp_path, capsys):
    csv = tmp_path / "bad.csv"
    csv.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["figure", str(csv)]) == 2
    err = capsys.readouterr().err
    assert str(csv) in err and where in err
    assert not (tmp_path / "bad.svg").exists()


@pytest.mark.parametrize(
    "text, want",
    [
        ("re,im\n1.5,-2.0\n", [(1.5, -2.0)]),
        ("re,im\n\n1,2\n  \n\n3,4\n\n", [(1.0, 2.0), (3.0, 4.0)]),
        ("im,re\n1,2\n3,4\n", [(2.0, 1.0), (4.0, 3.0)]),
        ("a,re,im,note\n0,1,2,x\n1, 3 ,4,y,z\n", [(1.0, 2.0), (3.0, 4.0)]),
        ("re,im\nnan,inf\n-inf,-0.0\nInfinity,-nan\n",
         [(math.nan, math.inf), (-math.inf, -0.0), (math.inf, -math.nan)]),
        ("re,im\n1_000,0.1000000000000000055511151231257827\n", [(1000.0, 0.1)]),
    ],
    ids=["one-row", "blank-lines", "im-re-order", "extra-columns", "nan-inf", "float-only-text"],
)
def test_read_csv_reads_what_float_reads(text, want, tmp_path):
    """_read_csv gives, bit for bit, complex(float(re), float(im)) per row."""
    path = tmp_path / "in.csv"
    path.write_text(text)
    got = _read_csv(str(path))
    want = np.array([complex(float(re), float(im)) for re, im in want])
    assert got.dtype == np.complex128 and got.shape == want.shape
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_readme_file_pipeline_runs(tmp_path, monkeypatch):
    """The README's file-writing commands run end to end, at small counts:
    `sums --out` and each `limit --out`, each CSV then through `figure`, and
    the CSVs read back bit for bit.  A second run in the same directory
    rewrites every CSV, JSON and SVG file with the same bytes and leaves no
    temp file."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        lines = [line for line in fh if line.startswith(("ultrashort sums", "ultrashort limit"))]
    assert len(lines) == 3
    monkeypatch.chdir(tmp_path)
    runs = [_run_readme_lines(lines, tmp_path) for _ in range(2)]
    assert {p.suffix for p in runs[0]} >= {".csv", ".json", ".svg"}
    assert runs[1] == runs[0]
    assert not list(tmp_path.rglob("*.tmp"))


def _run_readme_lines(lines, tmp_path) -> dict:
    """Run the README command lines in tmp_path and check their outputs;
    return the bytes of every file there by relative path."""
    import shlex

    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        if "--count" in argv:
            argv[argv.index("--count") + 1] = "2000"
        assert main(argv) == 0
        csv = argv[argv.index("--out") + 1]
        assert main(["figure", csv]) == 0
        values = _read_csv(csv)
        svg = (tmp_path / csv).with_suffix(".svg").read_text()
        assert f"<!-- samples: {len(values)} -->" in svg and svg.endswith("</svg>\n")
        flag = {name: argv[i + 1] for i, name in enumerate(argv) if name.startswith("--")}
        if argv[0] == "sums":
            g = ultrashort.IntPoly.parse(flag["--poly"])
            assert np.array_equal(values, additive_sum_grid(g, int(flag["--prime"])).values)
        if flag.get("--law") == "st-sum:3":
            want = sato_tate_sum_samples(3, len(values), int(flag["--seed"])).samples
            assert np.array_equal(values, want) and "<circle" not in svg
        else:
            assert svg.count("<circle") == len(values)
    return {p.relative_to(tmp_path): p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}


def test_moments_negative_max_order_is_domain_error(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert main(["moments", "--poly", "X^3+X+3", "--prime", "30223",
                 "--max-order", "-1", "--out", str(out)]) == 1
    assert "OutOfRangeParameter" in capsys.readouterr().err
    assert not out.exists()


def test_moments_command(tmp_path):
    out = tmp_path / "m.json"
    assert main(["moments", "--poly", "X^3+X+3", "--prime", "30223",
                 "--max-order", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert abs(data["empirical"]["(3,0)"] - 6) < 1e-3
    assert data["exact"]["(3,0)"] == 6


def test_weylcheck_command(tmp_path):
    out = tmp_path / "w.json"
    assert main(["weylcheck", "--poly", "X^5-1", "--alpha", "1,1,1,1,1;1,0,0,0,0",
                 "--primes", "11,31,41", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["disagreement_count"] == 0


def test_weylcheck_prime_range(tmp_path):
    out = tmp_path / "w.json"
    assert main(["weylcheck", "--poly", "X^3+X+3", "--alpha", "1,1,1",
                 "--prime-range", "1000:3000:5", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["entries"]) == 5
    assert all(e["weyl"] == 1 for e in data["entries"])


def test_condition_command(tmp_path):
    out = tmp_path / "c.json"
    assert main(["condition", "--poly", "X^3+X+3", "--prime", "30223",
                 "--descriptor", "full", "--alpha", "1,1,1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["weyl"][0]["value_re"] == 1.0
    assert data["inputs"]["descriptor"] == "full"


def test_prime_sweep_command(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["prime-sweep", "--poly", "X^2-2", "--limit", "60", "--a", "1",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "p,re,im"
    ps = [int(line.split(",")[0]) for line in lines[1:]]
    assert ps == [7, 17, 23, 31, 41, 47]  # split primes for X^2-2 below 60


def test_config_defaults_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"poly": "X^3-1", "prime": 7}))
    out = tmp_path / "r.json"
    assert main(["--config", str(cfg), "roots", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["q"] == 7
    assert main(["--config", str(cfg), "roots", "--prime", "13",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["q"] == 13
    assert main([f"--config={cfg}", "roots", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["q"] == 7


def test_domain_error_exit_code(capsys):
    assert main(["roots", "--poly", "X^2-2", "--prime", "8"]) == 1
    assert "NonPrimeModulus" in capsys.readouterr().err
    assert main(["sums", "--poly", "X^3-1", "--prime", "5", "--out", "/dev/null"]) == 1
    assert "NotSplit" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["index", "--poly", "X-3", "--coeff-cap", "0"],
        ["relations", "--poly", "X^2+1", "--coeff-cap", "0"],
        ["relations", "--poly", "X^2+1", "--kind", "value", "--v", "5"],
        ["relations", "--poly", "X^2+1", "--kind", "joint", "--exponents", "1,1"],
    ],
    ids=["index-cap-0", "relations-cap-0", "constant-v", "repeated-exponents"],
)
def test_out_of_range_relation_input_is_domain_error(argv, tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(argv + ["--cache-dir", str(cache)] if argv[0] == "relations" else argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("OutOfRangeParameter: ") and captured.out == ""
    assert not cache.exists()


def test_limit_st_sum_bad_count_is_domain_error(capsys):
    assert main(["limit", "--law", "st-sum:3", "--count", "-5"]) == 1
    assert "OutOfRangeParameter" in capsys.readouterr().err


def test_usage_error_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2
    assert main(["roots", "--poly", "X^2-2"]) == 2  # missing --prime
    assert main(["limit", "--law", "sigma"]) == 2  # sigma needs --poly
    assert main(["weylcheck", "--poly", "X^5-1", "--alpha", "1,1,1,1,1"]) == 2
    for command in ("klsums", "sums", "moments"):  # no command takes --threads
        with pytest.raises(SystemExit) as exc:
            main([command, "--poly", "X^2-2", "--prime", "7", "--threads", "2"])
        assert exc.value.code == 2


BAD_CONFIGS = {
    "list.json": [1, 2],
    "poly.json": {"poly": 5},
    "count.json": {"count": 2.5},
    "prime.json": {"prime": 31.0},
    "switch.json": {"no-cache": "false"},
}


@pytest.mark.parametrize(
    "argv, named",
    [
        (["relations", "--poly", "X^2+"], "--poly"),
        (["relations", "--poly", "2X^2+1"], "--poly"),
        (["relations", "--poly", "X^2"], "--poly"),
        (["relations", "--poly", "X^5-1", "--kind", "value", "--v", "X^-1+"], "--v"),
        (["roots", "--poly", "X2+1", "--prime", "7"], "--poly"),
        (["roots", "--poly", "X^3X+3", "--prime", "7"], "--poly"),
        (["relations", "--poly", "X^5-1", "--kind", "value", "--v", "X2"], "--v"),
        (["weylcheck", "--poly", "X^3+X+3", "--alpha", "1,a", "--primes", "11"], "--alpha"),
        (["weylcheck", "--poly", "X^3+X+3", "--alpha", "1,1,1", "--prime-range", "1:2"],
         "--prime-range"),
        (["relations", "--poly", "X^3-1", "--kind", "joint", "--exponents", "1,x"],
         "--exponents"),
        (["relations", "--poly", "X^5-1", "--kind", "value"], "--v"),
        (["relations", "--poly", "X^3-1", "--kind", "joint"], "--exponents"),
        (["roots", "--poly", "X^2-2", "--prime", "7", "--config"], "--config"),
        (["--config", "/nonexistent.json", "roots", "--poly", "X^2-2", "--prime", "7"],
         "--config"),
        (["--config", "list.json", "roots", "--poly", "X^2-2", "--prime", "7"], "--config"),
        (["--config", "poly.json", "roots", "--prime", "7"], "--poly '5'"),
        (["--config", "count.json", "limit", "--law", "st"],
         "--config count.json: argument --count"),
        (["--config", "prime.json", "roots", "--poly", "X^2-2"],
         "--config prime.json: argument --prime"),
        (["--config", "switch.json", "relations", "--poly", "X^2+1"],
         "--config switch.json: --no-cache"),
        (["figure", "/nonexistent.csv"], "/nonexistent.csv"),
        (["figure", "real.csv", "--bins", "0"], "--bins"),
        (["figure", "real.csv", "--range", "-1"], "--range"),
        (["weylcheck", "--poly", "X^3+X+3", "--alpha", "1,1,1",
          "--prime-range", "30000:31000:-1"], "--prime-range"),
        (["weylcheck", "--poly", "X^3+X+3", "--alpha", ";", "--primes", "11"], "--alpha"),
        (["condition", "--poly", "X^3+X+3", "--prime", "30223", "--descriptor", "full",
          "--alpha", " ; "], "--alpha"),

        (["prime-sweep", "--poly", "X^2-2", "--limit", "1"], "--limit 1"),
        (["prime-sweep", "--poly", "X^2-2", "--limit", "0"], "--limit 0"),
        (["prime-sweep", "--poly", "X^2-2", "--limit", "-5"], "--limit -5"),
    ],
    ids=["poly-dangling-sign", "poly-not-monic", "poly-not-separable", "v-dangling-sign",
         "poly-unsigned-term", "poly-unsigned-x-term", "v-unsigned-term",
         "alpha-not-int", "prime-range-two-fields", "exponents-not-int", "value-without-v",
         "joint-without-exponents", "config-last",
         "config-missing-file", "config-json-list", "config-poly-number", "config-count-float",
         "config-prime-float", "config-switch-string", "figure-missing-file", "figure-zero-bins",
         "figure-negative-range", "prime-range-negative-count", "weylcheck-alpha-no-vector",
         "condition-alpha-no-vector", "prime-sweep-limit-1", "prime-sweep-limit-0",
         "prime-sweep-negative-limit"],
)
def test_malformed_flag_text_is_usage_error(argv, named, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, config in BAD_CONFIGS.items():
        (tmp_path / name).write_text(json.dumps(config))
    (tmp_path / "real.csv").write_text("a,re,im\n0,0.5,0\n1,-0.25,0\n")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: ") and named in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("descriptor", ["interval:abc", "subgroup:x", "image:X^^2"])
def test_malformed_descriptor_is_domain_error(descriptor, capsys):
    argv = ["condition", "--poly", "X^3+X+3", "--prime", "30223", "--descriptor", descriptor,
            "--alpha", "1,1,1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("InvalidDescriptor: ") and descriptor in captured.err
    assert captured.out == ""


def test_readme_command_lines_parse():
    """Each `ultrashort ...` line of the README's command block parses and
    sets every flag its subcommand requires."""
    import shlex

    from ultrashort.cli import build_parser

    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read().replace("\\\n", " ")
    lines = [line for line in text.splitlines() if line.startswith("ultrashort ")]
    assert len(lines) == 15
    for line in lines:
        args = build_parser().parse_args(shlex.split(line, comments=True)[1:])
        for name in getattr(args, "_required", []):
            assert getattr(args, name) not in (None, ""), (line, name)


def test_cli_import_loads_only_numpy_and_not_the_certified_layer():
    """A fresh interpreter imports the CLI with numpy as its one third-party
    package: mpmath and the certified layer load only when a command needs
    a relation module."""
    src = os.path.dirname(os.path.dirname(ultrashort.__file__))
    code = (
        "import sys; before = set(sys.modules); import ultrashort.cli; "
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
        " - set(sys.stdlib_module_names) - {'ultrashort'})); "
        "print(sorted(m for m in sys.modules if m in "
        "('ultrashort.relations', 'ultrashort.balls', 'ultrashort.lattice')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.splitlines() == ["['numpy']", "[]"]


CERTIFIED_LAYER = ("mpmath", "ultrashort.relations", "ultrashort.balls", "ultrashort.lattice")


@pytest.mark.parametrize(
    "argv, loads_layer",
    [
        (["primes", "--poly", "X^3+X+3", "--lo", "30200", "--hi", "30250"], False),
        (["roots", "--poly", "X^2-2", "--prime", "7", "--power", "2"], False),
        (["sums", "--poly", "X^3+2X^2+3", "--prime", "30113", "--out", "fig_a.csv"], False),
        (["figure", "in.csv"], False),
        (["klsums", "--poly", "X^3-9X-1", "--prime", "59", "--out", "kl.csv"], False),
        (["mults", "--poly", "X^3-1", "--prime", "13"], False),
        (["limit", "--law", "st-sum:3", "--count", "1000", "--seed", "1"], False),
        (["prime-sweep", "--poly", "X^2-2", "--a", "1", "--limit", "300"], False),
        (["relations", "--poly", "X^3+X+3"], True),
        (["index", "--poly", "X^3+X^2+2X+1"], True),
        (["limit", "--law", "sigma", "--poly", "X^3+X+3", "--count", "1000"], True),
        (["moments", "--poly", "X^3+X+3", "--prime", "30223"], True),
        (["weylcheck", "--poly", "X^5-1", "--alpha", "1,1,1,1,1;1,0,0,0,0",
          "--primes", "11,31,41"], True),
        (["condition", "--poly", "X^3+X^2+2X+1", "--prime", "100189",
          "--descriptor", "interval:0.5", "--alpha", "1,1,1"], True),
    ],
    ids=["primes", "roots", "sums", "figure", "klsums", "mults", "limit-st-sum", "prime-sweep",
         "relations", "index", "limit-sigma", "moments", "weylcheck", "condition"],
)
def test_only_module_commands_load_the_certified_layer(argv, loads_layer, tmp_path):
    """Each README command, at small inputs, run by cli.main in a fresh
    interpreter: the commands that use no relation module leave mpmath,
    relations, balls and lattice unloaded; the others load all four."""
    (tmp_path / "in.csv").write_text("re,im\n0.5,0.25\n-1.0,2.0\n")
    code = (
        "import sys; from ultrashort.cli import main; code = main(sys.argv[1:]); "
        f"print([m in sys.modules for m in {CERTIFIED_LAYER!r}], file=sys.stderr); "
        "sys.exit(code)"
    )
    src = os.path.dirname(os.path.dirname(ultrashort.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == str([loads_layer] * len(CERTIFIED_LAYER))


GRID_CSV = ["sums", "--poly", "X^3+X+3", "--prime", "30223", "--out", "g.csv"]


@pytest.mark.parametrize(
    "steps, outputs, digest",
    [
        ([GRID_CSV], ["g.csv", "g.json"],
         "2a2cdca4397e82ab49cbadfb6cd8f049d4b3d365c2edf76bc98753e70d6a2b39"),
        ([GRID_CSV[:-2]], ["-"],
         "cea65a21d1cec14bb8679ba50d6071f49373c8e67586dc9aa35b777d4b28da31"),
        ([GRID_CSV, ["figure", "g.csv"]], ["g.svg"],
         "b50a5e86cb0a366d9ab00e802e883e80ee2ad0b6a41b5d711627d8a43eb436c4"),
        ([["limit", "--law", "st", "--count", "3000", "--seed", "4", "--out", "st.csv"],
          ["figure", "st.csv", "--bins", "30"]], ["st.csv", "st.svg"],
         "1209b85fd4156e36079912587429a0fc1f1069bc86db013abe1eb7c90010a633"),
        ([["limit", "--law", "usp:2", "--count", "3000", "--seed", "2", "--out", "usp.csv"]],
         ["usp.csv"],
         "8539280e1b98f394cb6bec7e27c81f080ffdd5864b4b122a9bcd88f2574fc19b"),
        ([["limit", "--law", "sigma", "--poly", "X^3+X+3", "--count", "20000", "--seed", "1",
           "--out", "sig.csv"]], ["sig.csv"],
         "a409af0bc677f850e4932e64719d46372f8def81665c6d2ff082f36888002ba9"),
        ([["limit", "--law", "su:3", "--count", "2000", "--seed", "3"]], ["-"],
         "847c9abd301be5dbe84d75f18322469cf9d497c9ae1d0eb19c302b4fe7ce0f90"),
        ([["limit", "--law", "inv:3", "--poly", "X^4-10X^2+1", "--count", "2000", "--seed", "3"]],
         ["-"], "0984479a99a9fcec0d5d44e4310d3afa1b436b4c05a64bda5c759d8b4f7212d0"),
        ([["klsums", "--poly", "X^3-9X-1", "--prime", "8089", "--mode", "translate",
           "--out", "kl.csv"]], ["kl.csv", "kl.json"],
         "49f552097edf82b8c14b1bc5bcf0de5c3e7190a78305421a1794391f83067a77"),
        ([["prime-sweep", "--poly", "X^2-2", "--limit", "3000"]], ["-"],
         "eb5f8d48a7aa3b2b63226158d62c39f4101339ab3b4365fc55ccf82e7daf6570"),
        ([["mults", "--poly", "X^3-1", "--prime", "13"]], ["-"],
         "80cb0d5995469d30f517e87279cc8bd5a2b265647f0797bbd624f6d58dc743b0"),
        ([["relations", "--poly", "X^3-1", "--kind", "multiplicative", "--no-cache"]], ["-"],
         "4b933f10b93039fbcbea0b5fc3f93bf1af26cd77f2b90813f3e9b64cbb2d94ac"),
        ([["condition", "--poly", "X^3+X^2+2X+1", "--prime", "100189",
           "--descriptor", "interval:0.5", "--alpha", "1,1,1"]], ["-"],
         "1321dd231459370a1c0c4dfc4797fe659e01cb2d90d19efc9951f2ff459b7424"),
        ([["weylcheck", "--poly", "X^5-1", "--alpha", "1,1,1,1,1;1,0,0,0,0",
           "--primes", "11,31,41"]], ["-"],
         "61f510ee4af009208216d08a9450a669c9d941fb61581c5d3ffa6b0e2b3b2edf"),
    ],
    ids=["sums-csv", "sums-stdout", "figure-scatter", "limit-st-and-histogram", "limit-usp",
         "limit-sigma", "limit-stdout", "limit-inv", "klsums-excluded", "prime-sweep-stdout",
         "mults-stdout", "relations-multiplicative-stdout", "condition-stdout",
         "weylcheck-stdout"],
)
def test_written_bytes_are_pinned(steps, outputs, digest, tmp_path, monkeypatch, capsys):
    """CSV, JSON, SVG and stdout bytes of the writers and readers, pinned by
    SHA-256 (outputs concatenated in order, "-" standing for stdout)."""
    monkeypatch.chdir(tmp_path)
    for argv in steps:
        assert main(argv) == 0
    stdout = capsys.readouterr().out.encode()
    blob = b"".join(stdout if name == "-" else (tmp_path / name).read_bytes() for name in outputs)
    assert hashlib.sha256(blob).hexdigest() == digest


# ---------------------------------------------------------------------------
# every artifact is written as a new file and renamed into place

WRITERS = {
    "roots": ["roots", "--poly", "X^3+X+3", "--prime", "31"],
    "sums": ["sums", "--poly", "X^3-1", "--prime", "7"],
    "limit": ["limit", "--law", "st", "--count", "100", "--seed", "1"],
    "prime-sweep": ["prime-sweep", "--poly", "X^2-2", "--limit", "300"],
    "figure": ["figure", "in.csv"],
}


def _writer_argv(name, tmp_path, out):
    argv = list(WRITERS[name])
    if name == "figure":
        (tmp_path / "in.csv").write_text("re,im\n0.5,0.25\n-1.0,2.0\n")
        argv[1] = str(tmp_path / "in.csv")
    return argv + ["--out", str(out)]


@pytest.mark.parametrize("name", list(WRITERS))
def test_out_in_a_missing_directory_is_usage_error(name, tmp_path, capsys):
    out = tmp_path / "no" / "such" / "x.out"
    assert main(_writer_argv(name, tmp_path, out)) == 2
    assert f"usage error: {out}: No such file or directory" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("name", list(WRITERS))
def test_a_failed_write_is_usage_error_and_keeps_the_old_file(name, tmp_path):
    """With the file size limit at 16 bytes (and SIGXFSZ ignored), writing
    the artifact fails with EFBIG: the command exits 2 naming the path, the
    old file keeps its bytes and no temp file is left."""
    out = tmp_path / "x.out"
    out.write_bytes(b"old bytes\n")
    code = (
        "import resource, signal, sys; signal.signal(signal.SIGXFSZ, signal.SIG_IGN); "
        "resource.setrlimit(resource.RLIMIT_FSIZE, (16, 16)); "
        "from ultrashort.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    src = os.path.dirname(os.path.dirname(ultrashort.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code, *_writer_argv(name, tmp_path, out)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 2, proc.stderr
    assert f"usage error: {out}: File too large" in proc.stderr
    assert out.read_bytes() == b"old bytes\n"
    assert not list(tmp_path.rglob("*.tmp"))


def test_rerun_gives_a_new_file_and_an_open_reader_keeps_the_old_one(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["sums", "--poly", "X^3-1", "--prime", "7", "--out", str(out)]) == 0
    old, old_ino = out.read_bytes(), out.stat().st_ino
    with open(out, "rb") as reader:
        assert main(["sums", "--poly", "X^3-1", "--prime", "13", "--out", str(out)]) == 0
        assert reader.read() == old
    new = out.read_bytes()
    assert new != old and new.count(b"\n") == 14
    assert out.stat().st_ino != old_ino


def test_interrupted_write_leaves_the_old_file(tmp_path, monkeypatch):
    out = tmp_path / "grid.csv"
    assert main(["sums", "--poly", "X^3-1", "--prime", "13", "--out", str(out)]) == 0
    old = out.read_bytes()
    write_columns = cli.write_columns

    def half_then_interrupt(fh, header, *cols):
        write_columns(fh, header, *(c[: len(c) // 2] for c in cols))
        fh.flush()
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "write_columns", half_then_interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["sums", "--poly", "X^3-1", "--prime", "7", "--out", str(out)])
    assert out.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.csv", "grid.json"]


def test_symlinked_out_stays_a_symlink(tmp_path):
    argv = ["limit", "--law", "st", "--count", "300", "--seed", "2", "--out"]
    assert main(argv + [str(tmp_path / "want.csv")]) == 0
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    link.symlink_to(target.name)
    assert main(argv + [str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_fifo_out_is_written_in_place(tmp_path):
    import threading

    argv = ["prime-sweep", "--poly", "X^2-2", "--limit", "3000", "--out"]
    assert main(argv + [str(tmp_path / "want.csv")]) == 0
    fifo = tmp_path / "fifo.csv"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(argv + [str(fifo)]) == 0
    reader.join(30)
    assert got == [(tmp_path / "want.csv").read_bytes()]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


def test_new_files_take_the_umask_and_rewrites_keep_the_mode(tmp_path):
    from ultrashort.cli import cache_put

    class Module:
        def to_json_dict(self):
            return {"d": 1}

    argv = ["roots", "--poly", "X^2-2", "--prime", "7", "--out"]
    umask = os.umask(0o027)
    try:
        assert main(argv + [str(tmp_path / "new.json")]) == 0
        cache_put(str(tmp_path / "cache"), "k", Module())
        kept = tmp_path / "kept.json"
        kept.write_text("old\n")
        kept.chmod(0o600)
        assert main(argv + [str(kept)]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE((tmp_path / "new.json").stat().st_mode) == 0o640
    assert stat.S_IMODE((tmp_path / "cache" / "k.json").stat().st_mode) == 0o640
    assert stat.S_IMODE(kept.stat().st_mode) == 0o600
    assert kept.read_bytes() == (tmp_path / "new.json").read_bytes()
