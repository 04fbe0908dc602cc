import argparse
import contextlib
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from prymalg import cli, series
from prymalg.abelian_group import concrete_order
from prymalg.algebra import Variant
from prymalg.errors import InvalidParameterError
from prymalg.polynomial import at_order
from prymalg.series import putman_gap

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, expect_code=0, timeout=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "prymalg", *args],
        capture_output=True,
        env=env,
        timeout=timeout,
    )
    assert proc.returncode == expect_code, (proc.returncode, proc.stderr)
    return proc


def test_dims_example_level_prime_r2_z3():
    proc = run_cli(
        "dims", "--variant", "level-prime", "--r", "2",
        "--group", "Z3", "--degree", "2", "--format", "csv",
    )
    assert proc.stdout == (
        b"degree,dim_polynomial_in_m,dim_at_concrete_m,provenance\n"
        b"2,m,3,formula\n"
    )


def test_twisted_example_emits_big_integer_in_range():
    proc = run_cli(
        "twisted", "--r", "2", "--p", "0", "--level", "2", "--genus", "24",
        "--max-k", "4", "--format", "csv",
    )
    lines = proc.stdout.decode().splitlines()
    assert lines[0] == (
        "k,cohomological_degree,dim_polynomial_in_m,dim_at_concrete_m,"
        "in_stable_range,provenance"
    )
    row = next(l for l in lines if l.startswith("2,"))
    assert row == "2,0,m,281474976710656,true,formula"
    # k = 4 is outside the proven range at genus 24 and must be withheld
    assert not any(l.startswith("4,") for l in lines)
    assert b"--allow-extrapolated" in proc.stderr


def test_twisted_allow_extrapolated_prints_all_rows():
    proc = run_cli(
        "twisted", "--r", "2", "--p", "0", "--level", "2", "--genus", "24",
        "--max-k", "4", "--format", "csv", "--allow-extrapolated",
    )
    lines = proc.stdout.decode().splitlines()
    row = next(l for l in lines if l.startswith("4,"))
    assert row.endswith("false,extrapolated")
    assert "562949953421313" in row  # 2m + 1 at m = 2^48


def test_gap_example_r1_verdict():
    proc = run_cli(
        "gap", "--r", "1", "--k", "4", "--level", "5", "--genus", "100",
        "--format", "pretty",
    )
    text = proc.stdout.decode()
    assert "dims equal; consistent with isomorphism for r = 1" in text
    assert "false" in text  # differ column


def test_gap_prints_each_verdict(capsys):
    # the verdict is a stderr note in csv, a header line in pretty and a
    # row field in json
    cases = (
        (("--r", "2", "--k", "2", "--level", "2", "--genus", "24"),
         "dims differ; the comparison map is not an isomorphism"),
        (("--r", "1", "--k", "4", "--level", "5", "--genus", "100"),
         "dims equal; consistent with isomorphism for r = 1"),
        (("--r", "2", "--k", "0", "--level", "2", "--genus", "24"), "dims equal"),
    )
    for argv, verdict in cases:
        assert cli.main(["gap", *argv, "--format", "csv"]) == 0
        captured = capsys.readouterr()
        assert captured.err == verdict + "\n"
        assert "verdict" not in captured.out
        assert cli.main(["gap", *argv, "--format", "pretty"]) == 0
        captured = capsys.readouterr()
        assert "# verdict = %s\n" % verdict in captured.out and captured.err == ""
        assert cli.main(["gap", *argv, "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["rows"][0]["verdict"] == verdict
        assert captured.err == ""


# (r, p, k, level, genus): each verdict, at r <= 1 and r >= 2 and below
# degree 2*ceil(r/2), then the odd-k, negative-k and below-range refusals
_GAP_PIN_CELLS = (
    (2, 0, 2, 2, 24), (3, 0, 4, 2, 62), (2, 1, 4, 3, 200),
    (1, 0, 4, 5, 100), (0, 3, 2, 7, 24),
    (2, 0, 0, 2, 24), (5, 1, 4, 2, 62),
    (2, 0, 3, 2, 100), (2, 0, -2, 2, 24), (2, 0, 2, 2, 23),
)


def test_gap_output_matches_recorded_digest():
    # stdout, stderr and exit code of every cell in every format
    digest = hashlib.sha256()
    for cell in _GAP_PIN_CELLS:
        flags = ["--%s=%d" % pair for pair in zip(("r", "p", "k", "level", "genus"), cell)]
        for fmt in cli.FORMATS:
            digest.update(repr(_main_in_process(["gap", *flags, "--format", fmt])).encode())
    assert digest.hexdigest() == (
        "96e3c712f22574d86ae81df66b8c987b01704e5c6e47000022cfc103b5ed12fd"
    )


def test_gap_json_contains_exact_dims():
    proc = run_cli(
        "gap", "--r", "2", "--k", "2", "--level", "2", "--genus", "24",
        "--format", "json",
    )
    payload = json.loads(proc.stdout)
    row = payload["rows"][0]
    assert row["lhs_dim"] == 1
    assert row["rhs_dim"] == 2**48
    assert row["differ"] is True


def test_character_json_matches_interface():
    proc = run_cli(
        "character", "--r", "2", "--degree", "2", "--group", "Z3",
        "--format", "json",
    )
    payload = json.loads(proc.stdout)
    assert payload["r"] == 2 and payload["degree"] == 2 and payload["group"] == "Z3"
    assert {"cycle_type": [2], "trace": 1} in payload["values"]


def _character_pin_runs():
    """Both level variants at r 0-6 over degrees that are zero, small,
    large, past the degree cap and negative, and over groups from trivial
    to the paper's; then r = 8, the r = 9 refusal and a refused variant."""
    for variant in ("level-prime", "level-full"):
        for r in range(7):
            for degree in (0, 1, 2, 6, 12, 66, -2):
                for group in ("Z1", "Z3", "Z2xZ2", "H1(g=50,l=3)"):
                    yield ["character", "--variant", variant, "--r", str(r),
                           "--degree", str(degree), "--group", group]
    yield ["character", "--r", "8", "--degree", "20", "--group", "H1(g=50,l=3)"]
    yield ["character", "--r", "9", "--degree", "2", "--group", "Z2"]
    yield ["character", "--variant", "looijenga-full", "--r", "2", "--degree", "2",
           "--group", "Z2"]


def test_character_output_matches_recorded_digest():
    # argv, exit code, stdout and stderr of every run in every format
    digest = hashlib.sha256()
    runs = 0
    for argv in _character_pin_runs():
        for fmt in cli.FORMATS:
            argv_fmt = argv + ["--format", fmt]
            digest.update(repr((argv_fmt, *_main_in_process(argv_fmt))).encode())
            runs += 1
    assert runs == 1185
    assert digest.hexdigest() == (
        "bf205218c3203dd52c5f89254d24ce48c34a477d86895661eb9d46ae98efb803"
    )


# every way to name a deck group, or to fail to, on the command line
_DECK_FLAG_SETS = (
    (), ("--group", "Z3"), ("--group", "Z2xZ2"), ("--group", "H1(g=1,l=2)"),
    ("--symbolic",), ("--level", "2", "--genus", "1"),
    ("--level", "3", "--genus", "2", "--symbolic"), ("--genus", "1"), ("--level", "2"),
    ("--level", "1", "--genus", "1"), ("--group", "Z2", "--symbolic"),
    ("--group", "Z2", "--level", "2", "--genus", "1"),
)


def _deck_group_pin_runs():
    """Every variant of dims and strata over every deck-flag set at r 0-3;
    twisted over r 0-3, both modes and bound, lone-genus and unbound deck
    groups; gap over valid and refused degrees and pairs; and the degree
    bounds of character and oracle-check."""
    for variant in Variant:
        for flags in _DECK_FLAG_SETS:
            for r in range(4):
                yield ["dims", "--variant", variant.value, "--r", str(r),
                       "--max-degree", "4", *flags]
    for flags in _DECK_FLAG_SETS:
        if "--symbolic" not in flags:  # strata has no --symbolic
            for r in range(4):
                yield ["strata", "--r", str(r), *flags]
    pairs = ((), ("--genus", "3"), ("--level", "2", "--genus", "3"),
             ("--level", "3", "--genus", "40"))
    for r in range(4):
        for pair in pairs:
            for mode in ("level", "full-mcg"):
                for extra in ((), ("--allow-extrapolated",)):
                    yield ["twisted", "--r", str(r), "--p", "1", "--mode", mode,
                           "--max-k", "4", *pair, *extra]
    yield ["twisted", "--r", "1", "--level", "2", "--max-k", "2"]
    yield ["twisted", "--r", "1", "--closed", "--max-k", "2"]
    yield ["twisted", "--r", "1", "--p", "1", "--closed", "--max-k", "2"]
    for r in range(4):
        for k in (-2, 0, 2, 3, 4):
            for level, genus in ((2, 62), (3, 200), (1, 62), (2, -1), (2, 10)):
                yield ["gap", "--r", str(r), "--k", str(k), "--level", str(level),
                       "--genus", str(genus)]
    for variant in ("level-prime", "level-full"):
        for r in (0, 2, 9):
            for degree in (-2, 0, 64, 66, 1000):
                yield ["character", "--variant", variant, "--r", str(r),
                       "--degree", str(degree), "--group", "Z2"]
    for max_degree in (-2, 0, 64, 66, 1000):
        yield ["oracle-check", "--max-r", "0", "--max-degree", str(max_degree)]


def test_deck_group_output_matches_recorded_digest():
    # argv, exit code, stdout and stderr of every run, the formats taken
    # in turn
    digest = hashlib.sha256()
    runs = 0
    for runs, argv in enumerate(_deck_group_pin_runs(), start=1):
        argv_fmt = argv + ["--format", cli.FORMATS[runs % 3]]
        digest.update(repr((argv_fmt, *_main_in_process(argv_fmt))).encode())
    assert runs == 478
    assert digest.hexdigest() == (
        "7b1b5636a9a59f087a79aba1484fc2f9814dd4ef4796e5fce392c1c324c955cc"
    )


def test_commutant_fixture_and_generators_file(tmp_path):
    proc = run_cli("commutant", "--h", "2", "--fixture", "plane-swap", "--format", "json")
    assert json.loads(proc.stdout) == {"dimension": 6}
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps([[["0", "1"], ["-1", "0"]]]))
    proc = run_cli(
        "commutant", "--h", "1", "--generators-file", str(gens),
        "--format", "json", "--include-basis",
    )
    payload = json.loads(proc.stdout)
    assert payload["dimension"] == 1
    assert payload["basis"] == [[["0", "-1"], ["1", "0"]]]


def test_wrong_shaped_generators_file_is_refused_before_coercion(tmp_path, capsys):
    # one 1000 x 1000 zero matrix at h = 1: coercing its 10^6 entries first
    # took about 2 s; the shape alone decides
    gens = tmp_path / "big.json"
    gens.write_text(json.dumps([[[0] * 1000 for _ in range(1000)]]))
    start = time.perf_counter()
    code = cli.main(["commutant", "--h", "1", "--generators-file", str(gens)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: invalid-config: [commutant] generator #0 is not 2x2\n"
    assert elapsed < 0.5, elapsed


def test_strata_table():
    proc = run_cli("strata", "--r", "3", "--group", "Z2", "--format", "csv")
    assert proc.stdout.decode().splitlines()[1:] == [
        "0,1,1,formula",
        "1,3m,6,formula",
        "2,m^2,4,formula",
        "3,0,0,formula",
    ]


def _column(text, fmt, name):
    """One column of a dims or strata table, as text, in any format."""
    if fmt == "json":
        return [str(row[name]) for row in json.loads(text)["rows"]]
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    split = (lambda line: line.split(",")) if fmt == "csv" else str.split
    header = split(lines[0])
    return [split(line)[header.index(name)] for line in lines[1:]]


def test_deck_group_literal_and_level_genus_give_one_value():
    # |H1(g=G,l=L)| and a bound --level L --genus G reach the same m
    for command, column in (
        (("dims", "--variant", "level-prime", "--r", "3", "--max-degree", "6"),
         "dim_at_concrete_m"),
        (("dims", "--variant", "level-full", "--r", "2", "--degree", "4"),
         "dim_at_concrete_m"),
        (("strata", "--r", "4"), "count_at_concrete_m"),
    ):
        for genus in range(4):
            for level in (2, 3, 5):
                for fmt in ("csv", "json", "pretty"):
                    columns = []
                    for how in (
                        ("--group", "H1(g=%d,l=%d)" % (genus, level)),
                        ("--level", str(level), "--genus", str(genus)),
                    ):
                        out = io.StringIO()
                        with contextlib.redirect_stdout(out):
                            assert cli.main([*command, *how, "--format", fmt]) == 0
                        columns.append(_column(out.getvalue(), fmt, column))
                    assert columns[0] == columns[1], (command, genus, level, fmt)
                    assert columns[0] and all(v.isdigit() for v in columns[0])


def test_lone_genus_twisted_and_untwisted_group_tables_unchanged():
    # a lone --genus only sets the stable-range flags; m stays unbound
    proc = run_cli(
        "twisted", "--r", "1", "--mode", "full-mcg", "--genus", "3", "--max-k", "4",
        "--format", "csv", "--allow-extrapolated",
    )
    assert proc.stdout == (
        b"k,cohomological_degree,dim_polynomial_in_m,dim_at_concrete_m,"
        b"in_stable_range,provenance\n"
        b"0,-1,0,0,true,formula\n"
        b"1,0,0,0,true,formula\n"
        b"2,1,1,1,false,extrapolated\n"
        b"3,2,0,0,false,extrapolated\n"
        b"4,3,2,2,false,extrapolated\n"
    )
    proc = run_cli(
        "twisted", "--r", "2", "--p", "1", "--genus", "30", "--max-k", "4",
        "--format", "csv", "--allow-extrapolated",
    )
    assert proc.stdout.decode().splitlines()[3:] == [
        "2,0,m,,true,formula",
        "3,1,0,,false,extrapolated",
        "4,2,3m+1,,false,extrapolated",
    ]
    # an untwisted variant reads a well-formed --group and drops it
    proc = run_cli(
        "dims", "--variant", "looijenga-full", "--r", "2", "--group", "Z3",
        "--degree", "2", "--format", "pretty",
    )
    assert proc.stdout == (
        b"# command = dims\n# seed = 0\n# variant = looijenga-full\n# r = 2\n"
        b"# group = -\n"
        b"degree  dim_polynomial_in_m  dim_at_concrete_m  provenance\n"
        b"2       3                    3                  formula\n"
    )


def test_oracle_check_small_grid_passes():
    proc = run_cli(
        "oracle-check", "--max-r", "2", "--max-degree", "4",
        "--groups", "Z1,Z2", "--format", "csv",
    )
    lines = proc.stdout.decode().splitlines()
    assert all(line.split(",")[6] == "true" for line in lines[1:])


def test_oracle_check_groups_keep_h1_literals_whole(tmp_path):
    # a comma inside H1(...) does not split the list; H1(g=1,l=2) prints
    # as Z2xZ2, so both lists give the same table
    argv = ["oracle-check", "--max-r", "2", "--max-degree", "4", "--format", "csv"]
    expected = _main_in_process(argv + ["--groups", "Z2,Z2xZ2"])
    assert expected[0] == 0
    assert _main_in_process(argv + ["--groups", "Z2,H1(g=1,l=2)"]) == expected
    config = tmp_path / "run.cfg"
    config.write_text("groups=Z2,H1(g=1,l=2)\n")
    assert _main_in_process(argv + ["--config", str(config)]) == expected
    code, out, _ = _main_in_process(argv + ["--groups", "H1(g=1,l=2)"])
    assert code == 0 and ",Z2xZ2," in out


def test_oracle_check_lists_share_one_reader():
    # --groups and --variants skip blank items and refuse a list naming nothing
    argv = ["oracle-check", "--max-r", "1", "--max-degree", "2", "--format", "csv"]
    for flag, one in (("--groups", "Z2"), ("--variants", "level-prime")):
        expected = _main_in_process(argv + [flag, one])
        assert expected[0] == 0
        assert _main_in_process(argv + [flag, one + ","]) == expected
        assert _main_in_process(argv + [flag, " ," + one]) == expected
        for empty in ("", ",", " , "):
            code, out, err = _main_in_process(argv + [flag, empty])
            assert (code, out) == (2, "")
            assert err.startswith("error: invalid-config:") and "names no" in err


def test_invalid_config_exits_2_with_single_line_error(tmp_path):
    proc = run_cli("dims", "--variant", "bogus", "--r", "2", "--degree", "2", expect_code=2)
    err = proc.stderr.decode()
    assert err.startswith("error: invalid-config:")
    assert err.count("\n") == 1
    run_cli("dims", "--no-such-flag", expect_code=2)
    run_cli("twisted", "--r", "2", "--max-k", "4", "--closed", expect_code=2)
    run_cli("gap", "--r", "2", "--k", "3", "--level", "2", "--genus", "100", expect_code=2)
    not_a_matrix = tmp_path / "row.json"
    not_a_matrix.write_text("[5]")
    not_a_list = tmp_path / "scalar.json"
    not_a_list.write_text("5")
    booleans = tmp_path / "bool.json"
    booleans.write_text("[[[true, false], [false, true]]]")
    for argv in (
        ("strata", "--r", "-1"),
        ("commutant", "--h", "1", "--generators-file", str(not_a_matrix)),
        ("commutant", "--h", "1", "--generators-file", str(not_a_list)),
        ("commutant", "--h", "1", "--generators-file", str(booleans)),
        ("dims", "--variant", "level-prime", "--r", "2", "--group", "Z3",
         "--max-degree", "-1"),
        ("strata", "--r", "2", "--workers", "0"),
        ("strata", "--r", "3", "--level", "0", "--genus", "-2"),
        ("dims", "--variant", "level-prime", "--r", "2", "--level", "2",
         "--genus", "-1", "--degree", "2"),
        ("oracle-check", "--max-r", "-1"),
        ("oracle-check", "--max-degree", "-1"),
        ("oracle-check", "--groups", ","),
        ("oracle-check", "--groups", " "),
        ("oracle-check", "--variants", ""),
        ("oracle-check", "--variants", ","),
        ("strata", "--r", "2", "--output", str(tmp_path / "missing" / "x.txt")),
        ("strata", "--r", "2", "--output", str(tmp_path)),
        # a deck group is a literal, or a full --level/--genus pair, never both
        ("dims", "--variant", "looijenga-full", "--r", "2", "--group", "garbage",
         "--degree", "2"),
        ("strata", "--r", "2", "--level", "3"),
        ("dims", "--variant", "level-full", "--r", "2", "--symbolic", "--level", "3",
         "--degree", "2"),
        ("twisted", "--r", "1", "--level", "3", "--max-k", "2"),
        ("dims", "--variant", "level-full", "--r", "2", "--symbolic", "--genus", "3",
         "--degree", "2"),
        ("strata", "--r", "2", "--genus", "3"),
        ("strata", "--r", "2", "--group", "Z2", "--genus", "3"),
        ("dims", "--variant", "level-prime", "--r", "2", "--group", "Z2", "--level", "3",
         "--genus", "1", "--degree", "2"),
    ):
        proc = run_cli(*argv, expect_code=2)
        err = proc.stderr.decode()
        assert err.startswith("error: invalid-config:") and err.count("\n") == 1, err
        assert proc.stdout == b"", argv
    # a failed --output write leaves no file behind
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bool.json", "row.json", "scalar.json"]


def test_deck_group_errors_name_the_bad_flag():
    for argv, line in (
        (("twisted", "--r", "0", "--genus", "-1", "--max-k", "6"),
         "[twisted] genus must be >= 0"),
        (("twisted", "--r", "0", "--genus", "-1", "--max-k", "6", "--mode", "full-mcg"),
         "[twisted] genus must be >= 0"),
        (("dims", "--variant", "level-prime", "--r", "2", "--degree", "2"),
         "[dims] specify --group <literal>, --level with --genus, or --symbolic"),
    ):
        proc = run_cli(*argv, expect_code=2)
        assert proc.stderr.decode() == "error: invalid-config: %s\n" % line
        assert proc.stdout == b""


def test_cap_exceeded_exits_3():
    proc = run_cli("strata", "--r", "40", expect_code=3)
    assert proc.stderr.decode().startswith("error: cap-exceeded:")
    # the r=4, Z3, degree-10 slice is over the oracle's column cap; the grid
    # is refused before any cell is computed
    start = time.perf_counter()
    proc = run_cli(
        "oracle-check", "--max-r", "4", "--max-degree", "10", "--groups", "Z3",
        "--variants", "level-full", expect_code=3,
    )
    assert time.perf_counter() - start < 5.0
    err = proc.stderr.decode()
    assert err.startswith("error: cap-exceeded:") and err.count("\n") == 1, err
    assert proc.stdout == b""
    # so is a grid whose group is large, even though its low degrees fit
    start = time.perf_counter()
    proc = run_cli(
        "oracle-check", "--max-r", "3", "--max-degree", "4", "--groups", "Z1000",
        expect_code=3,
    )
    assert time.perf_counter() - start < 5.0
    assert proc.stdout == b""
    # characters stop at r = 8, and their degree at the basis degree cap;
    # commutants stop at h = 32, before any fixture matrix is built
    for argv in (
        ("character", "--r", "9", "--degree", "2", "--group", "Z2"),
        ("character", "--variant", "level-full", "--r", "6", "--degree", "70",
         "--group", "Z2"),
        ("commutant", "--h", "33"),
        ("commutant", "--h", "100000", "--fixture", "scalar"),
    ):
        start = time.perf_counter()
        proc = run_cli(*argv, expect_code=3)
        assert time.perf_counter() - start < 2.0
        err = proc.stderr.decode()
        assert err.startswith("error: cap-exceeded:") and err.count("\n") == 1, err
        assert proc.stdout == b""


def test_strata_past_counting_cap_exits_3(capsys):
    assert cli.main(["strata", "--r", "31"]) == cli.EXIT_CAP_EXCEEDED
    captured = capsys.readouterr()
    assert captured.err == "error: cap-exceeded: [strata] r=31 exceeds counting cap 30\n"
    assert captured.out == ""


def test_dims_past_max_degree_cap_exits_3_at_once():
    # one past the cap, so that a missing cap costs about a second, not
    # the gigabytes a far larger value would
    argv = ["dims", "--variant", "level-full", "--r", "2", "--group", "Z2",
            "--max-degree", str(cli.MAX_DIMS_DEGREE + 1), "--format", "csv"]
    start = time.perf_counter()
    assert _main_in_process(argv) == (
        cli.EXIT_CAP_EXCEEDED, "",
        "error: cap-exceeded: [dims] --max-degree 100001 exceeds cap 100000\n",
    )
    assert time.perf_counter() - start < 0.5
    argv[-3] = str(cli.MAX_DIMS_DEGREE)
    code, out, _ = _main_in_process(argv)
    assert code == 0 and out.count("\n") == cli.MAX_DIMS_DEGREE + 2


def test_huge_genus_exits_3_before_the_power_is_taken():
    # level^(2 genus) has 2 * 10^11 bits here, which used to run out of
    # memory and exit 5
    pair = ["--level", "2", "--genus", "100000000000"]
    for argv in (
        ["gap", "--r", "2", "--k", "2"],
        ["twisted", "--r", "1", "--max-k", "2"],
        ["dims", "--variant", "level-full", "--r", "2", "--degree", "2"],
        ["strata", "--r", "2"],
    ):
        start = time.perf_counter()
        code, out, err = _main_in_process(argv + pair)
        assert time.perf_counter() - start < 0.5, argv
        assert (code, out) == (cli.EXIT_CAP_EXCEEDED, ""), argv
        assert err.startswith("error: cap-exceeded:") and err.count("\n") == 1, err


def test_twisted_takes_the_deck_order_once(monkeypatch):
    # the level table's m = level^(2 genus) is computed by series alone
    calls = []

    def counted(group):
        calls.append(group)
        return concrete_order(group)

    monkeypatch.setattr(cli, "concrete_order", counted)
    monkeypatch.setattr(series, "concrete_order", counted)
    argv = ["twisted", "--r", "2", "--level", "2", "--genus", "24", "--max-k", "2",
            "--format", "csv"]
    code, out, _ = _main_in_process(argv)
    assert code == 0 and "2,0,m,281474976710656,true,formula" in out
    assert len(calls) == 1
    # full-mcg has no deck group, so a level there is refused by series
    assert _main_in_process(["twisted", "--r", "1", "--mode", "full-mcg", "--level", "2",
                             "--max-k", "2"]) == (
        2, "", "error: invalid-config: [twisted] full-mcg mode takes no level\n"
    )


# argv whose every printed count is constant in m, each with the stdout
# it printed when the order 3^(2 * 21170490), some 30 s of CPU, was taken
_CONSTANT_IN_M_RUNS = (
    ("twisted --r 1 --level 3 --genus 21170490 --max-k 2 --format csv",
     "k,cohomological_degree,dim_polynomial_in_m,dim_at_concrete_m,in_stable_range,"
     "provenance\n0,-1,0,0,true,formula\n1,0,0,0,true,formula\n2,1,1,1,true,formula\n"),
    ("gap --r 1 --k 2 --level 3 --genus 21170490 --format csv",
     "r,p,k,level,genus,lhs_dim,rhs_dim,differ,provenance\n"
     "1,0,2,3,21170490,1,1,false,formula\n"),
    ("dims --variant looijenga-full --r 2 --degree 2 --level 3 --genus 21170490"
     " --format csv",
     "degree,dim_polynomial_in_m,dim_at_concrete_m,provenance\n2,3,3,formula\n"),
    ("strata --r 1 --level 3 --genus 21170490 --format csv",
     "codim,count_polynomial_in_m,count_at_concrete_m,provenance\n"
     "0,1,1,formula\n1,0,0,formula\n"),
)


def test_order_is_taken_only_when_a_count_depends_on_m():
    for argv, stdout in _CONSTANT_IN_M_RUNS:
        start = time.perf_counter()
        code, out, _ = _main_in_process(argv.split())
        assert time.perf_counter() - start < 1, argv
        assert (code, out) == (0, stdout), argv


def test_dims_refuses_degree_with_max_degree():
    # one degree or a range of them, never both; a range past the cap is
    # refused as a contradiction, not printed as one row
    line = "error: invalid-config: [dims] --degree and --max-degree are mutually exclusive\n"
    argv = ["dims", "--variant", "level-full", "--r", "2", "--group", "Z2", "--format", "csv"]
    for max_degree in ("5", "1000000"):
        assert _main_in_process(argv + ["--degree", "2", "--max-degree", max_degree]) == (
            2, "", line
        )


def test_oracle_check_refuses_each_cell_as_it_is_listed():
    # a degree past the basis cap and an r past the counting cap are
    # refused at their first cell, before the rest of the grid is listed;
    # without those caps the first grid needs gigabytes and the second is
    # listed whole, so the runs are stopped after 10 s
    for argv, message in (
        (("--max-r", "1", "--max-degree", "120000"), "degree 65 exceeds cap 64"),
        (("--max-r", "100000000", "--max-degree", "0"), "r=31 exceeds dimension cap 30"),
    ):
        start = time.perf_counter()
        proc = run_cli(
            "oracle-check", *argv, "--groups", "Z1", "--variants", "looijenga-full",
            expect_code=3, timeout=10,
        )
        assert time.perf_counter() - start < 2.0
        assert proc.stderr.decode() == "error: cap-exceeded: [oracle-check] %s\n" % message
        assert proc.stdout == b""
    # the largest grid the caps leave at r <= 1 still runs
    proc = run_cli(
        "oracle-check", "--max-r", "1", "--max-degree", "64", "--groups", "Z1",
        "--format", "csv",
    )
    rows = proc.stdout.decode().splitlines()[1:]
    assert len(rows) == 5 * 2 * 65 and all(row.endswith(",true,oracle") for row in rows)


def test_group_rank_cap_exits_3_before_building():
    for literal in ("Z3^99999999", "H1(g=99999999,l=3)"):
        start = time.perf_counter()
        proc = run_cli(
            "character", "--r", "2", "--degree", "2", "--group", literal,
            expect_code=3,
        )
        assert time.perf_counter() - start < 2.0
        err = proc.stderr.decode()
        assert err.startswith("error: cap-exceeded:") and err.count("\n") == 1, err
        assert proc.stdout == b""


def test_character_over_paper_deck_group():
    proc = run_cli(
        "character", "--r", "3", "--degree", "4", "--group", "H1(g=50,l=3)",
        "--format", "json",
    )
    from prymalg import AlgebraSpec, Variant, graded_dimension, homology_group

    payload = json.loads(proc.stdout)
    spec = AlgebraSpec(Variant.LEVEL_PRIME, 3, homology_group(50, 3))
    assert payload["values"][0] == {
        "cycle_type": [1, 1, 1], "trace": graded_dimension(spec, 4)
    }
    assert payload["decomposition"]
    for entry in payload["decomposition"]:
        assert isinstance(entry["multiplicity"], int) and entry["multiplicity"] > 0


def test_integers_of_any_size_print_exactly(capsys):
    limit = sys.get_int_max_str_digits()
    code = cli.main(
        ["twisted", "--r", "3", "--p", "0", "--level", "2", "--genus", "5000",
         "--max-k", "6", "--format", "csv"]
    )
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    rows = capsys.readouterr().out.splitlines()[1:]
    cell = max((c for row in rows for c in row.split(",")), key=len)
    assert len(cell) > 4300
    sys.set_int_max_str_digits(0)
    try:
        assert str(int(cell)) == cell
    finally:
        sys.set_int_max_str_digits(limit)


def test_error_code_mapping_unit():
    from prymalg.errors import (
        CapExceededError,
        InvalidParameterError,
        OracleMismatchError,
    )

    for exc, code in (
        (InvalidParameterError, cli.EXIT_INVALID_CONFIG),
        (CapExceededError, cli.EXIT_CAP_EXCEEDED),
        (OracleMismatchError, cli.EXIT_ORACLE_MISMATCH),
    ):
        for klass, _, mapped in cli._ERROR_KINDS:
            if klass is exc:
                assert mapped == code
                break
        else:
            raise AssertionError("missing mapping for %r" % exc)


def test_internal_errors_exit_5(monkeypatch, capsys, tmp_path):
    from prymalg.errors import PrymAlgError

    def broken(cfg):
        raise RuntimeError("handler broke\nacross lines")

    def unmapped(cfg):
        raise PrymAlgError("no kind")

    out = tmp_path / "never.csv"
    monkeypatch.setitem(cli._COMMANDS, "strata", broken)
    code = cli.main(["strata", "--r", "2", "--output", str(out)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 5
    assert captured.err == (
        "error: internal: [strata] RuntimeError: handler broke across lines\n"
    )
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists() and list(tmp_path.iterdir()) == []
    monkeypatch.setitem(cli._COMMANDS, "strata", unmapped)
    assert cli.main(["strata", "--r", "2"]) == cli.EXIT_INTERNAL
    assert capsys.readouterr().err == "error: internal: [strata] PrymAlgError: no kind\n"


def test_config_file_flags_win(tmp_path, monkeypatch):
    config = tmp_path / "run.cfg"
    config.write_text("variant=level-prime\nr=2\ngroup=Z3\ndegree=2\nformat=csv\n")
    proc = run_cli("dims", "--config", str(config))
    assert proc.stdout.decode().splitlines()[1] == "2,m,3,formula"
    # a flag overrides the config value
    proc = run_cli("dims", "--config", str(config), "--group", "Z2")
    assert proc.stdout.decode().splitlines()[1] == "2,m,2,formula"
    # keys that name no flag of the subcommand are ignored
    argv = ["twisted", "--r", "1", "--level", "2", "--genus", "30", "--max-k", "2"]
    config.write_text("group=Z2\nsymbolic=maybe\ndegree=x\n")
    assert _main_in_process(argv + ["--config", str(config)]) == _main_in_process(argv)
    # a bad format from the file is refused before the handler runs
    config.write_text("format=xml\n")

    def never(cfg):
        raise AssertionError("handler ran")

    monkeypatch.setitem(cli._COMMANDS, "strata", never)
    assert _main_in_process(["strata", "--r", "2", "--config", str(config)]) == (
        2, "", "error: invalid-config: [strata] unknown format 'xml'\n"
    )
    # a bad value from the file names the flag as it is spelled on the command line
    argv = ["twisted", "--r", "1", "--level", "2", "--genus", "30", "--config", str(config)]
    config.write_text("max_k=abc\n")
    assert _main_in_process(argv) == (
        2, "", "error: invalid-config: [twisted] option --max-k expects an integer, got 'abc'\n"
    )
    config.write_text("max_k=2\nallow_extrapolated=maybe\n")
    assert _main_in_process(argv) == (
        2,
        "",
        "error: invalid-config: [twisted] option --allow-extrapolated expects a boolean,"
        " got 'maybe'\n",
    )


# kind -> (argv without the flag, flag, its bad text, the stderr line);
# None as the text leaves a required flag out
_BAD_OPTIONS = {
    "integer": (["twisted", "--r", "1", "--level", "2", "--genus", "30"], "max_k", "abc",
                "[twisted] option --max-k expects an integer, got 'abc'"),
    "switch": (["commutant", "--h", "1"], "include_basis", "maybe",
               "[commutant] option --include-basis expects a boolean, got 'maybe'"),
    "choice": (["strata", "--r", "2"], "format", "xml", "[strata] unknown format 'xml'"),
    "required": (["gap", "--r", "2", "--level", "2", "--genus", "24"], "k", None,
                 "[gap] missing required option --k"),
    "minimum": (["gap", "--r", "2", "--level", "2", "--genus", "24"], "k", "-2",
                "[gap] option --k must be >= 0, got -2"),
}


@pytest.mark.parametrize("kind", sorted(_BAD_OPTIONS))
def test_one_reader_words_a_bad_option_alike_from_either_source(kind, tmp_path):
    argv, flag, text, line = _BAD_OPTIONS[kind]
    config = tmp_path / "run.cfg"
    # the config file always holds a key, so that it is read
    config.write_text("seed=3\n" + ("" if text is None else "%s=%s\n" % (flag, text)))
    expected = (2, "", "error: invalid-config: %s\n" % line)
    assert _main_in_process(argv + ["--config", str(config)]) == expected
    if kind != "switch":  # a switch on the command line takes no text
        given = [] if text is None else ["--" + flag.replace("_", "-"), text]
        assert _main_in_process(argv + given) == expected


def test_bad_config_value_exits_2_before_the_handler_runs(tmp_path, monkeypatch):
    # "maybe" is no integer, switch or choice; "-5" is below every minimum
    def never(args):
        raise AssertionError("handler ran")

    config = tmp_path / "run.cfg"
    for command, (_, flags) in cli._SUBCOMMANDS.items():
        typed = [
            flag for flag in {**flags, **cli._COMMON_FLAGS}
            if flag in cli._INTEGERS or flag in cli._SWITCHES or flag in cli._CHOICES
        ]
        assert typed
        with monkeypatch.context() as patch:
            patch.setitem(cli._COMMANDS, command, never)
            for flag in typed:
                # the run's own flags, but for the one the config file sets
                argv = [command]
                for name, value in _PIPELINE_RUNS[command].items():
                    if name != flag.replace("_", "-"):
                        argv += ["--" + name] + ([] if value is True else [value])
                for text in ("maybe",) + (("-5",) if flag in cli._MINIMUMS else ()):
                    config.write_text("%s=%s\n" % (flag, text))
                    code, out, err = _main_in_process(argv + ["--config", str(config)])
                    assert (code, out) == (2, ""), (command, flag, text, err)
                    assert err.startswith("error: invalid-config: [%s] " % command), err
                    assert err.count("\n") == 1 and flag.replace("_", "-") in err, err
    # an option error comes before the cap that the handler would hit
    config.write_text("include_basis=maybe\n")
    assert _main_in_process(["commutant", "--h", "99", "--config", str(config)]) == (
        2, "",
        "error: invalid-config: [commutant] option --include-basis expects a boolean,"
        " got 'maybe'\n",
    )


def test_undecodable_input_files_exit_2(tmp_path):
    # bytes that are not UTF-8, and JSON nested past the parser's depth,
    # are refused with one line naming the file
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"\xff\xfer=2\n")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    for argv, name, path in (
        (["strata", "--r", "2", "--config", str(junk)], "config", junk),
        (["commutant", "--h", "1", "--generators-file", str(junk)], "generators file", junk),
        (["commutant", "--h", "1", "--generators-file", str(deep)], "generators file", deep),
    ):
        code, out, err = _main_in_process(argv)
        assert (code, out) == (2, ""), err
        assert err.startswith("error: invalid-config: [%s] cannot read %s %s: "
                              % (argv[0], name, path)), err
        assert err.count("\n") == 1, err
    # a leading byte-order mark is not part of the first key
    config = tmp_path / "bom.cfg"
    config.write_bytes("r=2\nformat=csv\n".encode("utf-8-sig"))
    assert _main_in_process(["strata", "--config", str(config)]) == (
        _main_in_process(["strata", "--r", "2", "--format", "csv"])
    )


def test_gap_refuses_negative_k_by_name():
    argv = ["gap", "--r", "2", "--k", "-2", "--level", "2", "--genus", "24"]
    assert _main_in_process(argv) == (
        2, "", "error: invalid-config: [gap] option --k must be >= 0, got -2\n"
    )
    with pytest.raises(InvalidParameterError, match="^k must be >= 0$"):
        putman_gap(2, 0, -2, 2, 24)


def test_gap_refuses_k_past_the_degree_cap_by_name():
    argv = ["gap", "--r", "2", "--k", "202", "--level", "2", "--genus", "90000"]
    assert _main_in_process(argv) == (
        2, "", "error: invalid-config: [gap] k must lie in [0, 200]\n"
    )


def test_gap_level_entry_without_m_exits_4(monkeypatch):
    # a level factor that lost its deck weights gives P_k the wrong m-degree
    real = series.graded_dimension
    monkeypatch.setattr(series, "graded_dimension", lambda spec, b: at_order(real(spec, b), 1))
    code, out, err = _main_in_process(
        ["gap", "--r", "2", "--k", "2", "--level", "2", "--genus", "24"]
    )
    assert (code, out) == (cli.EXIT_ORACLE_MISMATCH, "")
    assert err.startswith("error: oracle-mismatch: [gap] ") and err.count("\n") == 1, err


def test_output_file(tmp_path):
    out = tmp_path / "table.csv"
    run_cli(
        "dims", "--variant", "kawazumi-dprime", "--r", "2",
        "--max-degree", "6", "--format", "csv", "--output", str(out),
    )
    lines = out.read_text().splitlines()
    assert lines[0].startswith("degree,")
    assert lines[1:] == [
        "0,0,0,formula",
        "1,0,0,formula",
        "2,1,1,formula",
        "3,0,0,formula",
        "4,2,2,formula",
        "5,0,0,formula",
        "6,3,3,formula",
    ]
    # a new file gets the usual mode, 0o666 less the umask
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask
    # writing through a symlink replaces its target and keeps the mode
    link = tmp_path / "link.csv"
    link.symlink_to(out)
    out.chmod(0o640)
    run_cli("strata", "--r", "2", "--format", "csv", "--output", str(link))
    assert link.is_symlink() and out.read_text().startswith("codim,")
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "table.csv"]


# one run of each subcommand, as flag -> value (True for a switch)
_PIPELINE_RUNS = {
    "dims": {"variant": "level-prime", "r": "2", "group": "Z3", "max-degree": "4"},
    "twisted": {"r": "2", "level": "2", "genus": "24", "max-k": "4"},
    "gap": {"r": "2", "k": "2", "level": "2", "genus": "24"},
    "character": {"variant": "level-full", "r": "3", "degree": "4", "group": "Z2"},
    "commutant": {"h": "2", "fixture": "plane-swap", "include-basis": True},
    "oracle-check": {"max-r": "1", "max-degree": "2", "groups": "Z1,Z2"},
    "strata": {"r": "3", "level": "3", "genus": "2"},
}


def _main_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_config_file_and_output_match_flags_for_every_command(tmp_path):
    assert sorted(_PIPELINE_RUNS) == sorted(cli._COMMANDS)
    for command, values in _PIPELINE_RUNS.items():
        for fmt in ("csv", "json", "pretty"):
            settings = dict(values, format=fmt, seed="7")
            flags = [command]
            for flag, value in settings.items():
                flags += ["--" + flag] if value is True else ["--" + flag, value]
            config = tmp_path / "run.cfg"
            config.write_text(
                "".join("%s=%s\n" % (k, "true" if v is True else v) for k, v in settings.items())
            )
            code, out, err = _main_in_process(flags)
            assert code == 0 and out, (command, fmt, err)
            assert _main_in_process([command, "--config", str(config)]) == (code, out, err)
            target = tmp_path / "out.txt"
            assert _main_in_process(flags + ["--output", str(target)]) == (code, "", err)
            assert target.read_bytes() == out.encode(), (command, fmt)


# valid runs that together give every flag of every subcommand but
# --closed (refused whatever its value) and --output (it empties stdout)
# a value; --seed and --workers are added to each, and gens.json is
# written into the working directory
_GRID_RUNS = (
    ("dims", {"variant": "level-prime", "r": "2", "group": "Z3", "max-degree": "4"}),
    ("dims", {"variant": "level-full", "r": "3", "symbolic": True, "level": "2",
              "genus": "1", "degree": "4"}),
    ("dims", {"variant": "looijenga-full", "r": "2", "degree": "2"}),
    ("twisted", {"r": "2", "p": "1", "mode": "level", "level": "2", "genus": "24",
                 "max-k": "4", "allow-extrapolated": True}),
    ("twisted", {"r": "1", "mode": "full-mcg", "genus": "3", "max-k": "4"}),
    ("gap", {"r": "2", "p": "1", "k": "4", "level": "3", "genus": "200"}),
    ("character", {"variant": "level-full", "r": "3", "degree": "4", "group": "Z2"}),
    ("commutant", {"h": "2", "fixture": "plane-swap", "include-basis": True}),
    ("commutant", {"h": "1", "generators-file": "gens.json"}),
    ("oracle-check", {"max-r": "1", "max-degree": "2", "groups": "Z1,Z2",
                      "variants": "level-prime,level-full"}),
    ("strata", {"r": "3", "level": "3", "genus": "2"}),
    ("strata", {"r": "3", "group": "Z2"}),
)


def test_every_flag_from_either_source_matches_recorded_digest(tmp_path, monkeypatch):
    # exit code and stdout of each run in each format, with all flags on
    # the command line, then with each flag in turn moved into --config
    monkeypatch.chdir(tmp_path)
    Path("gens.json").write_text(json.dumps([[["0", "1"], ["-1", "0"]]]))
    assert sorted({command for command, _ in _GRID_RUNS}) == sorted(cli._COMMANDS)
    digest = hashlib.sha256()
    for command, values in _GRID_RUNS:
        for fmt in cli.FORMATS:
            settings = dict(values, format=fmt, seed="7", workers="2")
            for moved in (None, *settings):
                argv, lines = [command], []
                for flag, value in settings.items():
                    if flag == moved:
                        lines.append("%s=%s\n" % (flag, "true" if value is True else value))
                    else:
                        argv += ["--" + flag] if value is True else ["--" + flag, value]
                if moved:
                    Path("run.cfg").write_text("".join(lines))
                    argv += ["--config", "run.cfg"]
                code, out, err = _main_in_process(argv)
                assert code == 0 and out, (argv, err)
                digest.update(repr((code, out)).encode())
    assert digest.hexdigest() == (
        "a8a5bfa405f6a03d3faaf514b1262a9c5b32d2aeefb3bf80d87354b96ceeeaee"
    )


def test_byte_determinism_across_workers():
    args = (
        "twisted", "--r", "2", "--p", "1", "--max-k", "8", "--format", "json",
        "--allow-extrapolated", "--seed", "5",
    )
    first = run_cli(*args, "--workers", "1").stdout
    second = run_cli(*args, "--workers", "4").stdout
    third = run_cli(*args, "--workers", "1").stdout
    assert first == second == third


def test_oracle_mismatch_exits_4(monkeypatch, capsys):
    monkeypatch.setattr(cli, "oracle_graded_dimension", lambda *a, **k: 10**9)
    code = cli.main(
        ["oracle-check", "--max-r", "1", "--max-degree", "2",
         "--groups", "Z2", "--variants", "level-full", "--format", "csv"]
    )
    captured = capsys.readouterr()
    assert code == cli.EXIT_ORACLE_MISMATCH
    assert "error: oracle-mismatch:" in captured.err
    assert "false" in captured.out  # mismatching cells are still reported


def test_main_callable_in_process(capsys):
    code = cli.main(
        ["dims", "--variant", "level-full", "--r", "1", "--group", "Z2",
         "--degree", "4", "--format", "csv"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1] == "4,1,1,formula"


def _subcommand_flags():
    """Subcommand -> {flag: its argparse action}, from the parser."""
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {
            opt: action
            for action in sub._actions
            for opt in action.option_strings
            if opt not in ("-h", "--help")
        }
        for name, sub in subs.choices.items()
    }


def test_parser_declares_exactly_the_tabled_flags():
    common = {"--" + flag.replace("_", "-") for flag in cli._COMMON_FLAGS}
    declared = set()
    for command, (_, flags) in cli._SUBCOMMANDS.items():
        own = {"--" + flag.replace("_", "-") for flag in flags}
        assert set(_FLAGS[command]) == own | common, command
        declared |= set(flags) | set(cli._COMMON_FLAGS)
        for flag in {**flags, **cli._COMMON_FLAGS}:
            action = _FLAGS[command]["--" + flag.replace("_", "-")]
            # argparse only splits the flags; every value is read in _resolve
            assert action.type is None and action.choices is None, flag
            assert (action.nargs == 0) == (flag in cli._SWITCHES), flag
    kinds = (cli._INTEGERS, cli._SWITCHES, set(cli._CHOICES))
    for table in kinds + (set(cli._MINIMUMS),):
        assert set(table) <= declared, set(table) - declared
    assert sum(len(table) for table in kinds) == len(set().union(*kinds))
    assert set(cli._MINIMUMS) <= cli._INTEGERS
    # a flag has one spelling: no parser expands a prefix of it
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert not parser.allow_abbrev
    assert not any(sub.allow_abbrev for sub in subs.choices.values())


def test_abbreviated_flags_exit_2_as_config_keys_do(tmp_path):
    # the same keys in --config are not flags of dims either
    code, out, err = _main_in_process(
        ["dims", "--var", "level-prime", "--r", "2", "--gr", "Z3", "--max", "2",
         "--form", "csv"]
    )
    assert (code, out) == (2, "") and err.startswith("error: invalid-config:"), err
    assert "unrecognized arguments: --var" in err
    config = tmp_path / "run.cfg"
    config.write_text("var=level-prime\nr=2\ngr=Z3\nmax=2\nform=csv\n")
    assert _main_in_process(["dims", "--config", str(config)]) == (
        2, "", "error: invalid-config: [dims] missing required option --variant\n"
    )


def test_argparse_errors_name_the_subcommand():
    # the subcommand is named when argv opens with one, as for every other
    # error; --allow-extrapolated is a flag of twisted alone
    for argv, tag, message in (
        (["dims", "--var", "level-prime", "--r", "2"], "dims",
         "unrecognized arguments: --var level-prime"),
        (["dims", "--variant", "level-prime", "--r", "2", "--group", "Z3", "--degree",
          "2", "--allow-extrapolated"], "dims",
         "unrecognized arguments: --allow-extrapolated"),
        (["nosuch"], "prymalg", "argument command: invalid choice: 'nosuch'"),
        ([], "prymalg", "the following arguments are required: command"),
    ):
        code, out, err = _main_in_process(argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: invalid-config: [%s] %s" % (tag, message)), err
        assert err.count("\n") == 1, err


class _ReadLog(argparse.Namespace):
    """A Namespace that, once given a ``_reads`` set, adds to it the name
    of every attribute read."""

    def __getattribute__(self, name):
        reads = super().__getattribute__("__dict__").get("_reads")
        if reads is not None and not name.startswith("_"):
            reads.add(name)
        return super().__getattribute__(name)


def test_every_declared_flag_is_read(tmp_path, monkeypatch):
    # each flag is read by its handler or, after it, by _run and _render;
    # --config is read by _resolve, which reads every flag, so reads are
    # logged from the handler on.  --workers is exempt: it is checked but
    # has no effect, since every subcommand runs in order on one thread
    monkeypatch.chdir(tmp_path)
    Path("gens.json").write_text(json.dumps([[["0", "1"], ["-1", "0"]]]))
    build_parser = cli.build_parser

    def logging_parser():
        parser = build_parser()
        parse = parser.parse_args
        parser.parse_args = lambda argv: parse(argv, namespace=_ReadLog())
        return parser

    read = {command: {"config", "workers"} for command in cli._COMMANDS}
    for command, handler in cli._COMMANDS.items():
        def logged(args, handler=handler):
            args._reads = read[args.command]
            return handler(args)

        monkeypatch.setitem(cli._COMMANDS, command, logged)
    monkeypatch.setattr(cli, "build_parser", logging_parser)
    for command, values in _GRID_RUNS:
        argv = [command]
        for flag, value in values.items():
            argv += ["--" + flag] if value is True else ["--" + flag, value]
        code, out, err = _main_in_process(argv)
        assert code == 0 and out, (argv, err)
    for command, (_, flags) in cli._SUBCOMMANDS.items():
        assert set(flags) | set(cli._COMMON_FLAGS) <= read[command], command


_FLAGS = _subcommand_flags()
_JUNK = (
    "", "-", "--", "=", "x", "0x10", "1e3", "nan", "1/0", "-1/2", "true", "off",
    "Z0", "Z3^-1", "H1(g=0,l=1)", "\u00e9", "--r=3",
)
# values that some flag accepts, so that runs get past argument parsing
_WORDS = {
    "--variant": [v.value for v in Variant],
    "--variants": ["level-full", "level-prime,level-full", "level-prime,"],
    "--group": ["Z1", "Z3", "Z2xZ2", "Z2^3", "H1(g=1,l=2)"],
    "--groups": ["Z1", "Z1,Z2", "Z2xZ3,", ","],
    "--fixture": ["trivial", "scalar", "rotation", "plane-swap"],
    "--mode": ["level", "full-mcg"],
    "--format": ["csv", "json", "pretty"],
    # files the property writes into its working directory
    "--config": ["run.cfg"],
    "--generators-file": ["gens.json"],
}
# integer ranges that keep one run short and often valid; 0..10 elsewhere
_INTS = {
    "--genus": st.one_of(st.integers(0, 10), st.sampled_from((24, 100, 300))),
    "--h": st.integers(0, 8),
    "--k": st.integers(0, 5).map(lambda half: 2 * half),
    "--level": st.integers(2, 10),
    "--max-r": st.integers(0, 3),
    "--max-degree": st.integers(0, 8),
}
# the flags a subcommand needs before it computes anything
_REQUIRED = {
    "dims": ("--variant", "--r", "--max-degree"),
    "twisted": ("--r", "--max-k"),
    "gap": ("--r", "--k", "--level", "--genus"),
    "character": ("--r", "--degree", "--group"),
    "commutant": ("--h",),
    "oracle-check": (),
    "strata": ("--r",),
}
# deck-group flag mixes for dims, strata and twisted, each cut to the flags
# the subcommand has: valid ones first (Hypothesis favours early entries),
# then halves of a level/genus pair and contradictions
_DECK_MIXES = (
    ("--group",), ("--level", "--genus"), ("--symbolic",),
    ("--symbolic", "--level", "--genus"), (), ("--level",), ("--genus",),
    ("--symbolic", "--level"), ("--symbolic", "--genus"), ("--group", "--symbolic"),
    ("--group", "--genus"), ("--group", "--level", "--genus"),
)


def _typed(draw, flag):
    """A value of the flag's type; one integer in ten is negative."""
    if flag in _WORDS:
        return draw(st.sampled_from(_WORDS[flag]))
    if draw(st.integers(0, 9)) == 0:
        return str(draw(st.integers(-2, -1)))
    return str(draw(_INTS.get(flag, st.integers(0, 10))))


@st.composite
def _argv(draw):
    """A subcommand and some of its flags.  Nine draws in ten supply the
    flags the subcommand needs, with values of their type; dims, strata
    and twisted add a mix of deck-group flags.  Up to three more flags
    follow, whose values are sometimes junk tokens, and a stray junk
    token may land anywhere."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = _FLAGS[command]
    one_in_ten = st.sampled_from(range(10))
    required = _REQUIRED[command] if draw(one_in_ten) else ()
    deck, deck_flags = (), ()
    if command in ("dims", "strata", "twisted"):
        deck_flags = {flag for mix in _DECK_MIXES for flag in mix}
        deck = draw(st.sampled_from(list(dict.fromkeys(
            tuple(flag for flag in mix if flag in flags) for mix in _DECK_MIXES
        ))))
    argv = [command]
    for flag in required + deck:
        argv.append(flag)
        if flags[flag].nargs != 0:
            argv.append(_typed(draw, flag))
    others = sorted(set(flags) - set(required) - set(deck_flags))
    for flag in draw(st.lists(st.sampled_from(others), unique=True, max_size=3)):
        argv.append(flag)
        if flags[flag].nargs == 0 and draw(one_in_ten):
            continue
        junk = draw(one_in_ten) == 0
        argv.append(draw(st.sampled_from(_JUNK)) if junk else _typed(draw, flag))
    if draw(one_in_ten) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(_JUNK)))
    return argv


def _file_bytes(valid):
    """Bytes for an input file: its valid text or drawn bytes, behind no
    mark, a UTF-8 byte-order mark or a UTF-16 one."""
    marks = st.sampled_from((b"", b"\xef\xbb\xbf", b"\xff\xfe"))
    return st.tuples(marks, st.one_of(st.just(valid), st.binary(max_size=40))).map(b"".join)


@settings(max_examples=100, deadline=None)
@given(argv=_argv(), config=_file_bytes(b"format=csv\n"), gens=_file_bytes(b"[]"))
def test_random_argv_keeps_the_exit_contract(argv, config, gens):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)  # --output, --config and --generators-file name files here
        Path("run.cfg").write_bytes(config)
        Path("gens.json").write_bytes(gens)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3), (argv, config, gens, code, err.getvalue())
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv
