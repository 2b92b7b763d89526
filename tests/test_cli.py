import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from zesolver.cli import main, write_rows
from zesolver.isochrone import PROFILE_HEADER, csv_rows

GOOD_CONFIG = """\
[mixture]
mu1 = 5
mu2 = 8
q1 = 2
q2 = 10
x1 = -1
x2 = 1

[output]
times = 0.01
samples = 400
format = csv

[fv]
cells = 300, 600
cfl = 0.45
x_min = -3
x_max = 7

[general]
breakpoints = -1, 1
r1_values = 5, 2, 5
r2_values = 8, 10, 8
domain = -21, 21
window = -2, 6
"""

BAD_CONFIG = GOOD_CONFIG.replace("q1 = 2", "q1 = 6")


@pytest.fixture()
def config(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(GOOD_CONFIG)
    return path


def test_timeline_text(config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["timeline", "--config", str(config), "--out", str(out)]) == 0
    text = (out / "timeline.txt").read_text()
    assert text.count("EVENT") == 6
    assert text.count("ZONE") == 11
    stdout = capsys.readouterr().out
    assert "T_fin" in stdout


def test_timeline_json_roundtrip(config, tmp_path):
    out = tmp_path / "out"
    assert main(
        ["timeline", "--config", str(config), "--out", str(out), "--format", "json"]
    ) == 0
    blob = json.loads((out / "timeline.json").read_text())
    by_label = {e["label"]: e for e in blob["events"]}
    assert by_label["T_int"]["T"] == pytest.approx(0.0125, abs=1e-14)
    assert by_label["T_3"]["T"] == pytest.approx(1 / 45, rel=1e-13)
    assert by_label["T_6"]["T"] == pytest.approx(0.032, rel=1e-13)
    assert by_label["T_9"]["T"] == pytest.approx(2 / 45, rel=1e-13)
    assert by_label["T_10"]["T"] == pytest.approx(0.08, rel=1e-13)
    assert by_label["T_fin"]["T"] == pytest.approx(2 / 15, rel=1e-13)
    assert len(blob["zones"]) == 11


def test_invalid_ordering_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(BAD_CONFIG)
    code = main(["timeline", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "0 < q1 < mu1 < mu2 < q2" in err


def test_missing_config_exits_2(tmp_path):
    assert main(["timeline", "--config", str(tmp_path / "nope.ini")]) == 2


def test_unsorted_times_exit_2(config, tmp_path):
    code = main(
        ["profile", "--config", str(config), "--out", str(tmp_path / "o"),
         "--times", "0.02,0.01"]
    )
    assert code == 2


@pytest.mark.parametrize("times", ["0.01,0.01", "0.0000001,0.0000002"])
@pytest.mark.parametrize("command", ["profile", "compare"])
def test_times_sharing_a_file_tag_exit_2(config, tmp_path, capsys, command, times):
    # Both times would write the same files and errors.json key.
    out = tmp_path / "o"
    code = main([command, "--config", str(config), "--out", str(out), "--times", times])
    assert code == 2
    assert "file tag" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("samples", ["1", "0", "-5"])
def test_profile_rejects_fewer_than_2_samples(config, tmp_path, capsys, samples):
    out = tmp_path / "o"
    code = main(["profile", "--config", str(config), "--out", str(out),
                 "--samples", samples])
    assert code == 2
    assert "samples" in capsys.readouterr().err
    assert not out.exists()


def test_only_profile_reads_the_samples_bound(tmp_path):
    path = tmp_path / "zero.ini"
    path.write_text(GOOD_CONFIG.replace("samples = 400", "samples = 0"))
    out = tmp_path / "o"
    assert main(["profile", "--config", str(path), "--out", str(out)]) == 2
    assert main(["timeline", "--config", str(path), "--out", str(out)]) == 0
    assert main(["general", "--config", str(path), "--out", str(out),
                 "--times", "0.018"]) == 0


def test_non_numeric_times_exit_2(config, tmp_path, capsys):
    code = main(
        ["profile", "--config", str(config), "--out", str(tmp_path / "o"),
         "--times", "0.01,abc"]
    )
    assert code == 2
    assert "abc" in capsys.readouterr().err


def test_non_numeric_mixture_value_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(GOOD_CONFIG.replace("mu2 = 8", "mu2 = eight"))
    code = main(["timeline", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "eight" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["mu1", "mu2", "q1", "q2", "x1", "x2"])
def test_missing_mixture_key_exits_2(tmp_path, capsys, key):
    lines = [ln for ln in GOOD_CONFIG.splitlines() if not ln.startswith(f"{key} = ")]
    path = tmp_path / "bad.ini"
    path.write_text("\n".join(lines) + "\n")
    code = main(["timeline", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"missing {key}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["9", "-5"])
def test_general_rejects_invalid_mixture(tmp_path, capsys, value):
    # general takes the u1/u2 mobilities from [mixture]; mu1 = 9 > mu2 and
    # mu1 = -5 break the ordering the other commands enforce.
    path = tmp_path / "bad.ini"
    path.write_text(GOOD_CONFIG.replace("mu1 = 5", f"mu1 = {value}"))
    code = main(
        ["general", "--config", str(path), "--out", str(tmp_path / "o"),
         "--times", "0.018"]
    )
    assert code == 2
    assert "0 < q1 < mu1 < mu2 < q2" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_non_numeric_cells_exit_2(config, tmp_path, capsys):
    code = main(
        ["compare", "--config", str(config), "--out", str(tmp_path / "o"),
         "--times", "0.005", "--cells", "10,x"]
    )
    assert code == 2
    assert "'10,x'" in capsys.readouterr().err


def test_empty_cells_exit_2(config, tmp_path):
    code = main(
        ["compare", "--config", str(config), "--out", str(tmp_path / "o"),
         "--times", "0.005", "--cells", ""]
    )
    assert code == 2


@pytest.mark.parametrize(
    "line, value",
    [("samples = 400", "abc"), ("cfl = 0.45", "zz"),
     ("x_min = -3", "abc"), ("x_max = 7", "abc")],
)
def test_non_numeric_config_scalar_exits_2(tmp_path, capsys, line, value):
    key = line.split(" = ")[0]
    path = tmp_path / "bad.ini"
    path.write_text(GOOD_CONFIG.replace(line, f"{key} = {value}"))
    code = main(
        ["compare", "--config", str(path), "--out", str(tmp_path / "o"),
         "--times", "0.005"]
    )
    assert code == 2
    assert repr(value) in capsys.readouterr().err


#: One non-finite value per key: (command, config edit or None, flags).
NON_FINITE = {
    "fv-x_min-nan": ("compare", ("x_min = -3", "x_min = nan"), []),
    "fv-x_max-inf": ("compare", ("x_max = 7", "x_max = inf"), []),
    "flag-times-nan": ("general", None, ["--times", "nan"]),
    "flag-times-inf": ("general", None, ["--times", "inf"]),
    "output-times-inf": ("profile", ("times = 0.01", "times = 0.01, inf"), []),
    "mixture-x1-minus-inf": ("timeline", ("x1 = -1", "x1 = -inf"), []),
    "mixture-q2-inf": ("timeline", ("q2 = 10", "q2 = inf"), []),
    "mixture-mu1-nan": ("general", ("mu1 = 5", "mu1 = nan"), ["--times", "0.018"]),
    "general-domain-minus-inf": (
        "general", ("domain = -21, 21", "domain = -inf, 21"), ["--times", "0.018"]),
    "general-window-inf": ("general", ("window = -2, 6", "window = -2, inf"), ["--times", "0.018"]),
    "general-r1_values-nan": (
        "general", ("r1_values = 5, 2, 5", "r1_values = 5, nan, 5"), ["--times", "0.018"]),
}


@pytest.mark.parametrize("command, edit, flags", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_value_exits_2(tmp_path, capsys, command, edit, flags):
    path = tmp_path / "bad.ini"
    path.write_text(GOOD_CONFIG if edit is None else GOOD_CONFIG.replace(*edit))
    code = main([command, "--config", str(path), "--out", str(tmp_path / "o"), *flags])
    assert code == 2
    assert "not finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_profile_outputs_and_determinism(config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(
            ["profile", "--config", str(config), "--out", str(out),
             "--times", "0.01,0.0125"]
        ) == 0
    name = "profile_t0.010000.csv"
    blob1 = (out1 / name).read_bytes()
    assert blob1 == (out2 / name).read_bytes()
    header = blob1.decode().splitlines()[0]
    assert header == "x,R1,R2,u1,u2,zone"
    svg = (out1 / "profile_t0.012500.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_general_solver_failure_exit_3(config, tmp_path, capsys):
    # No isochrone of the declared data domain reaches t = 10.
    code = main(
        ["general", "--config", str(config), "--out", str(tmp_path / "o"),
         "--times", "10"]
    )
    assert code == 3
    assert "NoRootInInterval" in capsys.readouterr().err


def test_general_window_without_samples_exits_3(tmp_path, capsys):
    # The isochrone ends (fold and domain edge) left of the window.
    path = tmp_path / "far.ini"
    path.write_text(GOOD_CONFIG.replace("window = -2, 6", "window = 100, 200"))
    code = main(["general", "--config", str(path), "--out", str(tmp_path / "o"),
                 "--times", "0.018"])
    assert code == 3
    assert "DomainError" in capsys.readouterr().err


def test_compare_mode(config, tmp_path):
    out = tmp_path / "cmp"
    assert main(
        ["compare", "--config", str(config), "--out", str(out), "--times", "0.005"]
    ) == 0
    blob = json.loads((out / "errors.json").read_text())
    runs = blob["0.005000"]
    assert runs[0]["cells"] == 300 and runs[1]["cells"] == 600
    assert runs[1]["l1_u1"] < runs[0]["l1_u1"]
    assert runs[1]["l1_u2"] < runs[0]["l1_u2"]
    assert runs[1]["shock1_dev_cells"] <= 3
    csv = (out / "compare_t0.005000.csv").read_text().splitlines()
    assert csv[0] == "x,u1_fv,u2_fv,u1_exact,u2_exact"
    assert len(csv) == 601
    fv_csv = (out / "fv_t0.005000.csv").read_text().splitlines()
    assert fv_csv[0] == "x,R1,R2,u1,u2,zone"
    assert fv_csv[1].endswith(",fv")


def test_general_mode_matches_profile(config, tmp_path):
    out = tmp_path / "g"
    assert main(
        ["general", "--config", str(config), "--out", str(out), "--times", "0.018"]
    ) == 0
    assert main(
        ["profile", "--config", str(config), "--out", str(out),
         "--times", "0.018", "--samples", "4096"]
    ) == 0
    gen = np.genfromtxt(out / "general_t0.018000.csv", delimiter=",", skip_header=1,
                        usecols=(0, 3, 4))
    ana = np.genfromtxt(out / "profile_t0.018000.csv", delimiter=",", skip_header=1,
                        usecols=(0, 3, 4))
    # Compare u1 inside the smooth Z5 region (between the weak boundaries).
    xq = np.linspace(1.8, 2.9, 200)
    g1 = np.interp(xq, gen[:, 0], gen[:, 1])
    a1 = np.interp(xq, ana[:, 0], ana[:, 1])
    assert np.max(np.abs(g1 - a1)) < 1e-5


def test_general_three_plateaus(tmp_path):
    cfg = GOOD_CONFIG.replace(
        "breakpoints = -1, 1", "breakpoints = -1, 0, 1"
    ).replace(
        "r1_values = 5, 2, 5", "r1_values = 5, 2, 3, 5"
    ).replace(
        "r2_values = 8, 10, 8", "r2_values = 8, 10, 9, 8"
    )
    path = tmp_path / "three.ini"
    path.write_text(cfg)
    out = tmp_path / "o3"
    assert main(
        ["general", "--config", str(path), "--out", str(out), "--times", "0.01"]
    ) == 0
    rows = (out / "general_t0.010000.csv").read_text().splitlines()
    assert rows[0] == "x,R1,R2,u1,u2,zone"
    assert len(rows) > 100


def test_general_without_mixture_writes_nan_u(tmp_path):
    # Without [mixture] there are no mobilities: u1 and u2 are written as nan.
    path = tmp_path / "general.ini"
    path.write_text(GOOD_CONFIG[GOOD_CONFIG.index("[general]"):])
    out = tmp_path / "o"
    assert main(
        ["general", "--config", str(path), "--out", str(out), "--times", "0.018"]
    ) == 0
    gen = np.genfromtxt(out / "general_t0.018000.csv", delimiter=",", skip_header=1,
                        usecols=(0, 1, 2, 3, 4))
    assert gen.shape[0] > 100
    assert np.all(np.isfinite(gen[:, :3])) and np.all(np.isnan(gen[:, 3:]))


def _readme_ini_block():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("```ini\n", 1)[1].split("```", 1)[0]


def test_readme_config_block_runs_as_pasted(tmp_path):
    # The README's block carries inline "; ..." comments after values.
    block = _readme_ini_block()
    assert "; positive, sorted" in block
    path = tmp_path / "readme.ini"
    path.write_text(block)
    assert main(["timeline", "--config", str(path), "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize(
    "line, replacement",
    [("r1_values = 5, 2, 5", "r1_values = 5, 2"),
     ("domain = -21, 21", "domain = -21"),
     ("domain = -21, 21", "domain = 21, -21"),
     ("window = -2, 6", "window = -2"),
     ("window = -2, 6", "window = 6, -2"),
     ("window = -2, 6", "window = 3, 3"),
     ("domain = -21, 21", "")],
)
def test_general_wrong_value_count_exits_2(tmp_path, capsys, line, replacement):
    path = tmp_path / "bad.ini"
    path.write_text(GOOD_CONFIG.replace(line, replacement))
    code = main(
        ["general", "--config", str(path), "--out", str(tmp_path / "o"),
         "--times", "0.018"]
    )
    assert code == 2
    assert "[general]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [["--cells", "2"], ["--cfl", "0"], ["--cfl", "1"], ["--cfl", "1.5"],
     ["--cfl", "-0.2"]],
    ids=lambda f: "".join(f),
)
def test_invalid_grid_exits_2(config, tmp_path, capsys, flags):
    code = main(
        ["compare", "--config", str(config), "--out", str(tmp_path / "o"),
         "--times", "0.005", *flags]
    )
    assert code == 2
    assert "[fv]" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "x_min, cells, code",
    [("0", "200", 2), ("-3", "200,4", 2), ("-1.02", "300", 2), ("-3", "5", 0)],
)
def test_grid_whose_first_cell_reaches_the_column_exits_2(tmp_path, capsys, x_min, cells, code):
    # The copy ghost cell keeps the first cell's average forever, so a first
    # cell inside [x1, x2] = [-1, 1] feeds the column's state in from the
    # left.  The 5-cell grid's first cell ends exactly at x1 and is kept.
    path = tmp_path / "grid.ini"
    path.write_text(GOOD_CONFIG.replace("x_min = -3", f"x_min = {x_min}"))
    out = tmp_path / "o"
    assert main(["compare", "--config", str(path), "--out", str(out),
                 "--times", "0.005", "--cells", cells]) == code
    if code == 2:
        assert "[fv]" in capsys.readouterr().err
        assert not out.exists()


def test_main_calls_do_not_share_flags(tmp_path):
    # The parser is built once per process: the flags of one call must not
    # reach the next, which reads samples and cells from its config.
    path = tmp_path / "small.ini"
    path.write_text(GOOD_CONFIG.replace("samples = 400", "samples = 64")
                    .replace("cells = 300, 600", "cells = 40"))
    own = {"profile": ["--samples", "32"], "compare": ["--cells", "20"]}
    for command, flags in own.items():
        first, second = tmp_path / f"{command}1", tmp_path / f"{command}2"
        assert main([command, "--config", str(path), "--out", str(first),
                     "--times", "0.005", *flags]) == 0
        assert main([command, "--config", str(path), "--out", str(second),
                     "--times", "0.005"]) == 0
    profile = (tmp_path / "profile2" / "profile_t0.005000.csv").read_text().splitlines()
    assert len(profile) == 1 + 64
    runs = json.loads((tmp_path / "compare2" / "errors.json").read_text())["0.005000"]
    assert [run["cells"] for run in runs] == [40]


@pytest.mark.parametrize(
    "command, flag",
    [("timeline", "--times"), ("timeline", "--samples"), ("profile", "--cells"),
     ("profile", "--format"), ("compare", "--samples"), ("compare", "--format"),
     ("general", "--samples"), ("general", "--cfl")],
)
def test_commands_reject_flags_they_do_not_read(config, tmp_path, capsys, command, flag):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(config), "--out", str(out), flag, "0"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_write_rows_writes_the_joined_rows(tmp_path):
    x = np.linspace(-1.0, 1.0, 7)
    columns = (x, x * x, 1.0 / 3.0 + x, np.full(7, np.nan), -x)
    rows = list(csv_rows(PROFILE_HEADER, columns, itertools.repeat("z")))
    path = tmp_path / "rows.csv"
    write_rows(csv_rows(PROFILE_HEADER, columns, itertools.repeat("z")), path)
    assert path.read_bytes() == "".join(row + "\n" for row in rows).encode()
