"""CLI driver: commands, cache, config precedence, figures, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import ultrashort
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


def test_relations_cache_key_depends_on_caps(tmp_path):
    cache = tmp_path / "cache"
    base = ["relations", "--poly", "X^3+X+3", "--cache-dir", str(cache)]
    assert main(base) == 0
    assert main(base + ["--coeff-cap", "32"]) == 0
    assert len(list(cache.glob("*.json"))) == 2


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


@pytest.mark.parametrize("law", ["st-sum:x", "su:x", "usp:", "inv:x", "su:2:3"])
def test_limit_non_integer_law_suffix_is_usage_error(law, capsys):
    assert main(["limit", "--law", law, "--poly", "X^4+1", "--count", "5"]) == 2
    assert law in capsys.readouterr().err


def test_limit_unknown_law_lists_every_law(capsys):
    assert main(["limit", "--law", "bogus"]) == 2
    assert "inv:R" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["inv:0"], ["inv:-1"], ["inv:2", "--count", "-5"],
                                  ["inv:2", "--count", "0"]])
def test_limit_involution_out_of_range_is_domain_error(args, capsys):
    assert main(["limit", "--poly", "X^4+1", "--law", *args]) == 1
    captured = capsys.readouterr()
    assert "OutOfRangeParameter" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "text,where",
    [("re,im\n", ""), ("", ""), ("re,im\n0.5,0.5\n1.0,x\n", "line 3"), ("re,im\n1.0\n", "line 2"),
     ("re,im\n\n  \n", ""), ("re,im\n1,2\n#3,4\n", "line 3"),
     (b"\xff\xfe,im\n1,2\n", "UTF-8"), (b"re,im\n\xff\xfe,1\n", "UTF-8")],
    ids=["header-only", "empty", "not-a-number", "short-row", "blank-rows-only", "comment-row",
         "non-utf8-header", "non-utf8-row"],
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
    the CSVs read back bit for bit."""
    import shlex

    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        lines = [line for line in fh if line.startswith(("ultrashort sums", "ultrashort limit"))]
    assert len(lines) == 3
    monkeypatch.chdir(tmp_path)
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
    with pytest.raises(SystemExit) as exc:
        main(["klsums", "--poly", "X^2-2", "--prime", "7", "--threads", "2"])
    assert exc.value.code == 2  # --threads only applies to sums and moments


@pytest.mark.parametrize(
    "argv, named",
    [
        (["relations", "--poly", "X^2+"], "--poly"),
        (["relations", "--poly", "2X^2+1"], "--poly"),
        (["relations", "--poly", "X^2"], "--poly"),
        (["relations", "--poly", "X^5-1", "--kind", "value", "--v", "X^-1+"], "--v"),
        (["weylcheck", "--poly", "X^3+X+3", "--alpha", "1,a", "--primes", "11"], "--alpha"),
        (["weylcheck", "--poly", "X^3+X+3", "--alpha", "1,1,1", "--prime-range", "1:2"],
         "--prime-range"),
        (["relations", "--poly", "X^3-1", "--kind", "joint", "--exponents", "1,x"],
         "--exponents"),
        (["roots", "--poly", "X^2-2", "--prime", "7", "--config"], "--config"),
        (["--config", "/nonexistent.json", "roots", "--poly", "X^2-2", "--prime", "7"],
         "--config"),
        (["--config", "list.json", "roots", "--poly", "X^2-2", "--prime", "7"], "--config"),
        (["figure", "/nonexistent.csv"], "/nonexistent.csv"),
        (["figure", "real.csv", "--bins", "0"], "--bins"),
        (["figure", "real.csv", "--range", "-1"], "--range"),
        (["weylcheck", "--poly", "X^3+X+3", "--alpha", "1,1,1",
          "--prime-range", "30000:31000:-1"], "--prime-range"),
    ],
    ids=["poly-dangling-sign", "poly-not-monic", "poly-not-separable", "v-dangling-sign",
         "alpha-not-int", "prime-range-two-fields", "exponents-not-int", "config-last",
         "config-missing-file", "config-json-list", "figure-missing-file", "figure-zero-bins",
         "figure-negative-range", "prime-range-negative-count"],
)
def test_malformed_flag_text_is_usage_error(argv, named, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list.json").write_text("[1, 2]")
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


def test_sums_zero_threads_is_domain_error(capsys):
    assert main(["sums", "--poly", "X^3+X+3", "--prime", "30223", "--threads", "0"]) == 1
    assert "OutOfRangeParameter" in capsys.readouterr().err


def test_threads_flag_same_output(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["sums", "--poly", "X^3+X+3", "--prime", "30223", "--out", str(a)])
    main(["sums", "--poly", "X^3+X+3", "--prime", "30223", "--threads", "4",
          "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_cli_import_loads_only_numpy_and_mpmath():
    """A fresh interpreter imports the CLI with no third-party package but
    the two runtime dependencies."""
    src = os.path.dirname(os.path.dirname(ultrashort.__file__))
    code = (
        "import sys; before = set(sys.modules); import ultrashort.cli; "
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
        " - set(sys.stdlib_module_names) - {'ultrashort'}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "['mpmath', 'numpy']"


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
         "42d1d0378847a3d42a8177951c45ce0287f2e922aa6c1f6d4e2c6212a38dfdba"),
        ([["limit", "--law", "usp:2", "--count", "3000", "--seed", "2", "--out", "usp.csv"]],
         ["usp.csv"],
         "8f0d73f765b75e734070d30adbccfe67dfa3a548b13f5dbf7354bd12eec6a718"),
        ([["limit", "--law", "sigma", "--poly", "X^3+X+3", "--count", "20000", "--seed", "1",
           "--out", "sig.csv"]], ["sig.csv"],
         "a409af0bc677f850e4932e64719d46372f8def81665c6d2ff082f36888002ba9"),
        ([["limit", "--law", "su:3", "--count", "2000", "--seed", "3"]], ["-"],
         "16e8031a8cd51c61629f24bd9363494e8c17e1f72af4d0540d2deaf6d5e52d53"),
        ([["klsums", "--poly", "X^3-9X-1", "--prime", "8089", "--mode", "translate",
           "--out", "kl.csv"]], ["kl.csv", "kl.json"],
         "a8499a63644705958180b33998b2f5288c1e23af84ce21523c519a1ba27819e1"),
        ([["prime-sweep", "--poly", "X^2-2", "--limit", "3000"]], ["-"],
         "eb5f8d48a7aa3b2b63226158d62c39f4101339ab3b4365fc55ccf82e7daf6570"),
    ],
    ids=["sums-csv", "sums-stdout", "figure-scatter", "limit-st-and-histogram", "limit-usp",
         "limit-sigma", "limit-stdout", "klsums-excluded", "prime-sweep-stdout"],
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
