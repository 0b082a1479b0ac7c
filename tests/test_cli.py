import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crossperm import cli


def run_ok(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return out


# ---------------------------------------------------------------------------
# parsing helpers


def test_parse_perm_forms():
    assert cli.parse_perm(["4735126"]) == (4, 7, 3, 5, 1, 2, 6)
    assert cli.parse_perm(["4", "7", "3", "5", "1", "2", "6"]) == (4, 7, 3, 5, 1, 2, 6)
    assert cli.parse_perm(["10,2,1,3,4,5,6,7,8,9"]) == (10, 2, 1, 3, 4, 5, 6, 7, 8, 9)
    assert cli.parse_perm(["1"]) == (1,)
    # compact digits that int reads, ASCII or not
    assert cli.parse_perm(["١٢"]) == (1, 2)


def test_parse_perm_errors():
    with pytest.raises(cli.ParseError):
        cli.parse_perm(["4725126"])
    with pytest.raises(cli.ParseError):
        cli.parse_perm(["abc"])
    # str.isdigit holds for the superscript 2, but int rejects it
    with pytest.raises(cli.ParseError, match="^not a permutation word: '1²'$"):
        cli.parse_perm(["1²"])


def test_parse_patterns():
    assert cli.parse_patterns("321,231") == ((3, 2, 1), (2, 3, 1))
    assert cli.parse_patterns("-") == ()


def test_fmt_perm():
    assert cli.fmt_perm((4, 7, 3, 5, 1, 2, 6)) == "4735126"
    assert cli.fmt_perm((10, 2, 1, 3, 4, 5, 6, 7, 8, 9)) == "10 2 1 3 4 5 6 7 8 9"
    assert cli.fmt_perm(()) == "-"


# ---------------------------------------------------------------------------
# stats


def test_stats_text(capsys):
    out = run_ok(capsys, ["stats", "4735126"])
    assert "crs = 3" in out
    assert "nes = 3" in out
    assert "inv = 12" in out
    assert "crossings = (1,2) (5,6) (6,7)" in out
    assert "nestings = (2,4) (3,5) (3,6)" in out


def test_stats_json(capsys):
    out = run_ok(capsys, ["stats", "4735126", "--json"])
    payload = json.loads(out)
    assert payload["sigma"] == [4, 7, 3, 5, 1, 2, 6]
    assert payload["crs"] == 3
    assert payload["crossings"] == [[1, 2], [5, 6], [6, 7]]


def test_stats_rejects_garbage(capsys):
    assert cli.run(["stats", "4725126"]) == 2


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "crossperm", "stats", "21"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "sigma = 21" in done.stdout


# ---------------------------------------------------------------------------
# avoid and map


def test_avoid_count_and_list(capsys):
    out = run_ok(capsys, ["avoid", "4", "321"])
    assert out.strip() == "14"
    out = run_ok(capsys, ["avoid", "3", "321", "--list"])
    assert out.split() == ["5", "123", "132", "213", "231", "312"]


def test_avoid_empty_pattern_set(capsys):
    out = run_ok(capsys, ["avoid", "4", "-"])
    assert out.strip() == "24"


def test_map_theta_golden(capsys):
    out = run_ok(capsys, ["map", "theta", "24135867"])
    assert out.strip() == "78534621"


def test_map_theta_inverse_roundtrip(capsys):
    out = run_ok(capsys, ["map", "theta-inv", "78534621"])
    assert out.strip() == "24135867"


def test_map_symmetries(capsys):
    assert run_ok(capsys, ["map", "r", "312"]).strip() == "213"
    assert run_ok(capsys, ["map", "c", "312"]).strip() == "132"
    assert run_ok(capsys, ["map", "i", "312"]).strip() == "231"
    assert run_ok(capsys, ["map", "rc", "312"]).strip() == "231"


def test_map_fk_takes_trailing_index(capsys):
    assert run_ok(capsys, ["map", "fk", "213", "4"]).strip() == "3241"


def test_map_gk_infers_position(capsys):
    out1 = run_ok(capsys, ["map", "gk", "3241"]).strip()
    out2 = run_ok(capsys, ["map", "gk", out1]).strip()
    assert out2 == "3241"


def test_map_domain_error_exit_code(capsys):
    # theta requires a 321-avoiding input
    assert cli.run(["map", "theta", "321"]) == 3


@pytest.mark.parametrize("argv", [["avoid", "-1", "321"], ["dist", "-1", "321", "crs"]])
def test_negative_size_is_parse_error(capsys, argv):
    assert cli.run(argv) == 2
    assert "error: negative size: -1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["stats", "1²"], ["map", "theta", "2²1"]])
def test_non_ascii_digit_word_is_parse_error(capsys, argv):
    assert cli.run(argv) == 2
    assert "error: not a permutation word: " in capsys.readouterr().err


def test_map_unknown_kind_is_parse_error():
    with pytest.raises(SystemExit) as info:
        cli.run(["map", "frobnicate", "312"])
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# dist and series


def test_dist_text_golden(capsys):
    out = run_ok(capsys, ["dist", "5", "312,213", "crs"])
    assert out.strip() == "11 + 4*q + q^2"


def test_dist_json_shape(capsys):
    out = run_ok(capsys, ["dist", "4", "321", "crs", "--json"])
    payload = json.loads(out)
    assert payload["n"] == 4
    assert payload["patterns"] == [[3, 2, 1]]
    assert payload["statistic"] == "crs"
    assert payload["coefficients"] == [8, 4, 2]
    assert payload["count"] == 14
    assert "millis" not in payload


def test_dist_json_lists_a_repeated_pattern_once(capsys):
    out = run_ok(capsys, ["dist", "4", "321,321", "crs", "--json"])
    payload = json.loads(out)
    assert payload["patterns"] == [[3, 2, 1]]
    assert payload["coefficients"] == [8, 4, 2]


def test_dist_refined(capsys):
    out = run_ok(capsys, ["dist", "6", "-", "crs", "--refine", "tail", "--k", "2"])
    assert out.strip() == "5 + 10*q + 7*q^2 + 2*q^3"


def test_dist_j_without_both_is_domain_error(capsys):
    argv = ["dist", "5", "321", "crs", "--refine", "one-at", "--k", "2", "--j", "9"]
    assert cli.run(argv) == 3
    assert "error: j is only meaningful with refinement 'both'" in capsys.readouterr().err


def test_dist_timings_opt_in(capsys):
    out = run_ok(capsys, ["dist", "3", "321", "crs", "--timings"])
    assert "millis = " in out
    payload = json.loads(
        run_ok(capsys, ["dist", "3", "321", "crs", "--json", "--timings"])
    )
    assert "millis" in payload


def test_series_closed_form_source(capsys):
    out = run_ok(capsys, ["series", "321,231", "--order", "4"])
    lines = out.splitlines()
    assert lines[0] == "source = closed-form"
    assert lines[1] == "z^0: 1"
    assert lines[4] == "z^3: 3 + q"


def test_series_recurrence_source(capsys):
    out = run_ok(capsys, ["series", "213,132", "--order", "5"])
    assert out.splitlines()[0] == "source = recurrence"
    assert "z^4: 4 + 2*q + 2*q^2" in out


def test_series_enumeration_source(capsys):
    out = run_ok(capsys, ["series", "312", "--order", "4"])
    assert out.splitlines()[0] == "source = enumeration"
    assert "z^3: 5" in out


def test_series_json(capsys):
    payload = json.loads(
        run_ok(capsys, ["series", "321,231", "--order", "3", "--json"])
    )
    assert payload["source"] == "closed-form"
    assert payload["coefficients"] == [[1], [1], [2], [3, 1]]


@pytest.mark.parametrize("typed", ["321,231", "321,231,321"])
def test_series_json_lists_the_sorted_pattern_set(capsys, typed):
    payload = json.loads(run_ok(capsys, ["series", typed, "--order", "2", "--json"]))
    assert payload["patterns"] == [[2, 3, 1], [3, 2, 1]]


# ---------------------------------------------------------------------------
# table


def test_table_r_csv(capsys):
    out = run_ok(capsys, ["table", "r", "5"])
    rows = out.strip().splitlines()
    assert rows[0] == "1"
    assert rows[4].split(",")[0] == "7 + q"
    assert rows[5].split(",")[0] == "11 + 4*q + q^2"


def test_table_triangles(capsys):
    out = run_ok(capsys, ["table", "a076791", "6"])
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert rows[4] == ["5", "2", "1"]
    out = run_ok(capsys, ["table", "a299927", "6"])
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert rows[5] == ["5", "6", "4", "1"]


def test_table_pascal_corok(capsys):
    out = run_ok(capsys, ["table", "pascal-corok", "6"])
    rows = [line.split(",") for line in out.strip().splitlines()]
    # rows start at n = 2 and are binomial rows (1+q)^{n-2}
    assert rows[0] == ["1"]
    assert rows[3] == ["1", "3", "3", "1"]


# ---------------------------------------------------------------------------
# check


def test_check_text_and_exit_zero(capsys):
    out = run_ok(capsys, ["check", "crs-decomposition", "--nmax", "4"])
    assert "[pass] crs-decomposition (n=4)" in out
    assert "crs-decomposition: 1 passed, 0 failed" in out


def test_check_json_deterministic(capsys):
    first = run_ok(capsys, ["check", "generation", "--nmax", "4", "--json"])
    second = run_ok(capsys, ["check", "generation", "--nmax", "4", "--json"])
    assert first == second
    payload = json.loads(first)
    assert payload["suite"] == "generation"
    assert [c["status"] for c in payload["checks"]] == ["pass", "pass"]


def test_check_env_nmax(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_NMAX, "3")
    payload = json.loads(run_ok(capsys, ["check", "crs-decomposition", "--json"]))
    assert payload["n_max"] == 3
    assert payload["checks"][0]["n"] == 3


def test_check_unknown_suite_is_parse_error(capsys):
    assert cli.run(["check", "frobnicate"]) == 2


@pytest.mark.parametrize("suite", ["crs-decomposition", "cf-catalan", "gf-relations"])
def test_check_negative_cap_is_parse_error(capsys, monkeypatch, suite):
    assert cli.run(["check", suite, "--nmax", "-1"]) == 2
    assert "negative cap: -1" in capsys.readouterr().err
    monkeypatch.setenv(cli.ENV_NMAX, "-2")
    assert cli.run(["check", suite]) == 2
    assert "negative cap: -2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# diagram


def test_diagram_arcs(tmp_path, capsys):
    out_path = tmp_path / "arcs.svg"
    run_ok(capsys, ["diagram", "arcs", "4735126", "--out", str(out_path)])
    body = out_path.read_text()
    assert body.startswith("<svg xmlns=")
    assert 'version="1.1"' in body
    assert body.rstrip().endswith("</svg>")


def test_diagram_dyck_with_tunnels(tmp_path, capsys):
    out_path = tmp_path / "dyck.svg"
    run_ok(
        capsys,
        ["diagram", "dyck", "ududuuuddudduudd", "--tunnels", "--out", str(out_path)],
    )
    body = out_path.read_text()
    # one tunnel chord per matched pair, colored by kind
    assert body.count("#2b6cb0") == 4
    assert body.count("#c53030") == 1
    assert body.count("#2f855a") == 3


def test_diagram_emission_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    run_ok(capsys, ["diagram", "arcs", "312", "--out", str(a)])
    run_ok(capsys, ["diagram", "arcs", "312", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_diagram_bad_word(capsys):
    assert cli.run(["diagram", "dyck", "uddu", "--out", "/tmp/x.svg"]) == 3


def test_diagram_unwritable_out_exits_3(tmp_path, capsys):
    out_path = tmp_path / "missing" / "x.svg"
    assert cli.run(["diagram", "arcs", "21", "--out", str(out_path)]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not out_path.exists()
