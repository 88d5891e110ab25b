
import pytest

from struveint.bounds import eval_bound, get_bound
from struveint.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tables_csv_table1(capsys):
    code, out, err = run(capsys, "tables", "--which", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("table,nu,beta,x,")
    assert len(lines) == 85  # header + 84 cells
    assert "max deviation" in err


def test_tables_csv_table2_reports_misprints(capsys):
    # two reference cells are misprinted (see test_harness); the exit-code
    # contract makes any table deviation nonzero
    code, out, err = run(capsys, "tables", "--which", "2", "--format", "csv")
    assert code == 1
    assert len(out.strip().splitlines()) == 85
    assert "2 beyond tolerance" in err


def test_tables_markdown(capsys):
    code, out, _ = run(capsys, "tables", "--which", "1", "--format", "md")
    assert code == 0
    assert out.startswith("Table 1")
    assert "| (1, 0.25) |" in out


def test_verify_restricted(capsys):
    code, out, err = run(
        capsys, "verify", "--bounds", "RB-3.1", "--grid", "/dev/null"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == (
        "bound_id,nu,beta,x,bound_value_log,reference_value_log,rel_margin,status"
    )
    assert all(line.split(",")[0] == "RB-3.1" for line in lines[1:])
    assert "0 violated" in err


def test_verify_with_grid_file(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("nu=1.0\nbeta=0.5\nx=5,10\nbounds=UB-2.5,LB-PRIOR\n")
    code, out, err = run(capsys, "verify", "--grid", str(grid))
    assert code == 0
    assert len(out.strip().splitlines()) == 5  # header + 2 bounds x 2 points


def test_eval_line(capsys):
    code, out, _ = run(
        capsys, "eval", "--fn", "F", "--nu", "1", "--beta", "0.25", "--x", "5"
    )
    assert code == 0
    fields = out.strip().split(",")
    assert fields[0] == "F" and len(fields) == 7
    mantissa, exponent = float(fields[4]), float(fields[5])
    assert 1.0 <= mantissa < 2.718281828459045
    assert exponent == round(exponent)


def test_eval_scaled_overflow_range(capsys):
    code, out, _ = run(
        capsys, "eval", "--fn", "L", "--nu", "0", "--x", "1000"
    )
    assert code == 0
    assert out.strip().split(",")[6] == "overflow"


def test_eval_requires_beta_for_f(capsys):
    code, _, err = run(capsys, "eval", "--fn", "F", "--nu", "1", "--x", "5")
    assert code == 2
    assert "beta" in err


@pytest.mark.parametrize("fn", ("L", "I", "K"))
def test_eval_refuses_beta_for_kernels(capsys, fn):
    # L, I and K have no beta; a given one is a usage error, not echoed
    code, out, err = run(capsys, "eval", "--fn", fn, "--nu", "1", "--beta", "0.5", "--x", "5")
    assert code == 2
    assert out == ""
    assert err == f"eval: {fn} takes no --beta\n"


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--which", "7"])
    assert exc.value.code == 2


def test_unknown_bound_exits_1(capsys):
    code, _, err = run(capsys, "verify", "--bounds", "LB-9.9")
    assert code == 1
    assert err.startswith("error: unknown bound id 'LB-9.9'")


def test_tightness(capsys):
    code, out, _ = run(
        capsys,
        "tightness", "--bound", "LB-2.3", "--nu", "1", "--beta", "0.5",
        "--xs", "50,100", "--truncation", "5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,bound_over_reference"
    assert len(lines) == 3


@pytest.mark.parametrize("xs", ("a", ",", "1,b", " 1, ,b "))
def test_tightness_bad_xs_is_a_usage_error(capsys, xs):
    with pytest.raises(SystemExit) as exc:
        main(["tightness", "--bound", "LB-2.3", "--nu", "1", "--beta", "0.5", "--xs", xs])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "argument --xs" in captured.err


def test_tightness_two_sided_prints_binding_side(capsys):
    # PRB-KL1 is 1/2 < x K_{nu+2} L_nu < C: where the lower side binds the
    # ratio is lower / reference, below 1, not 1 + margin
    xs = (0.01, 100.0, 1000.0)
    code, out, _ = run(capsys, "tightness", "--bound", "PRB-KL1", "--nu", "1",
                       "--xs", "0.01,100,1000")
    assert code == 0
    printed = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    reference = get_bound("PRB-KL1").reference
    expected = []
    for x in xs:
        ref = reference(1.0, None, x)
        low, high = (side.ratio_to(ref) for side in eval_bound("PRB-KL1", 1.0, None, x))
        expected.append(low if 1.0 - low <= high - 1.0 else high)
    assert printed == expected
    assert printed[1] < 1.0 and printed[2] < 1.0


def test_tightness_truncation_above_cap_is_an_error_line(capsys):
    code, out, err = run(capsys, "tightness", "--bound", "LB-2.3", "--nu", "1",
                         "--beta", "0.5", "--xs", "10", "--truncation", "5001")
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: truncation must be <= 5000, got 5001"]


def test_verify_subnormal_x_penalty_is_an_error_line(tmp_path, capsys):
    # (2nu-1)(1-beta)x underflows to 0: a typed error, not a traceback
    grid = tmp_path / "grid.txt"
    grid.write_text("nu=2\nbeta=0.9\nx=5e-324\n")
    code, _, err = run(capsys, "verify", "--grid", str(grid), "--bounds", "LB-2.2")
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: LB-2.2")
    assert "Traceback" not in err


def test_asymptotics(capsys):
    code, out, err = run(capsys, "asymptotics")
    assert code == 0
    assert out.splitlines()[0].startswith("check,point,")
    assert "0 failed" in err


def test_verify_determinism(capsys):
    args = ("verify", "--bounds", "PRB-KL0")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_repeated_bound_checks_each_row_once(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("nu=1.0\nbeta=0.5\nx=5,10\n")
    code, out, err = run(capsys, "verify", "--grid", str(grid), "--bounds", "UB-2.4,UB-2.4")
    assert code == 0
    assert len(out.strip().splitlines()) == 3  # header + 2 points
    assert "checked 2 (bound, point) pairs" in err


def test_verify_empty_bound_list_is_an_error(capsys):
    code, out, err = run(capsys, "verify", "--bounds", "")
    assert code == 1
    assert out == ""
    assert "grid bound list must be nonempty" in err


def test_comma_lists_strip_spaces_and_skip_blank_tokens(tmp_path, capsys):
    # --xs, --bounds and a grid file's lists share one reader
    code, out, _ = run(capsys, "tightness", "--bound", "RB-3.1", "--nu", "1", "--xs", " 1, ,2 ")
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()] == ["x", "1", "2"]
    grid = tmp_path / "grid.txt"
    grid.write_text("nu=1.0\nbeta=0.5\nx = 5, ,10\n")
    code, out, err = run(capsys, "verify", "--grid", str(grid), "--bounds", " IMON , ")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(row[0], row[1], row[3]) for row in rows] == [("IMON", "1", "5"), ("IMON", "1", "10")]
    assert "checked 2 (bound, point) pairs" in err


def test_comma_list_errors_keep_each_callers_exit(tmp_path, capsys):
    # a bad --xs token is a usage error (exit 2, test_tightness_bad_xs_is_a_usage_error);
    # a bad grid float and an all-blank --bounds are error lines (exit 1)
    grid = tmp_path / "grid.txt"
    grid.write_text("x = 5, a\n")
    code, out, err = run(capsys, "verify", "--grid", str(grid))
    assert (code, out) == (1, "")
    assert err == "error: could not convert string to float: 'a'\n"
    code, out, err = run(capsys, "verify", "--bounds", " , ")
    assert (code, out) == (1, "")
    assert err == "error: grid bound list must be nonempty\n"


def test_cli_snapshot_exit_codes(tmp_path, fingerprint):
    count, _, raises = fingerprint.digest(fingerprint.cli_stream(tmp_path))
    assert (count, raises) == (28, {})
    codes = {name: int((tmp_path / f"{name}.code").read_text()) for name, _ in fingerprint.RUNS}
    assert codes == {
        "verify": 0, "verify-ratios": 0, "verify-lb23-kl": 0, "verify-unknown": 1,
        # Table 2 holds two printed errata beyond tolerance
        "tables-csv": 1, "tables-md": 1, "tables-1": 0, "tables-2": 1,
        "asymptotics": 0,
        "eval-F": 0, "eval-F-1000": 0, "eval-G": 0, "eval-G-1000": 0,
        "eval-L": 0, "eval-L-1000": 0, "eval-I": 0, "eval-K": 0,
        "tightness-ub38": 0, "tightness-kl1": 0, "tightness-lb23-k5": 0,
        "tightness-lb23-k5001": 1, "tightness-lb23-inf": 1,
        "tightness-lb21-invalid": 1, "tightness-xs-a": 2,
        # a family parameter the bound does not have
        "tightness-ub24-truncation": 1, "tightness-lb21-x-star": 1,
        "tightness-imon-beta": 1, "eval-L-beta": 2,
    }
    for name, code in codes.items():
        assert (tmp_path / f"{name}.code").read_text() == f"{code}\n"
        assert (tmp_path / f"{name}.stdout").exists()
        assert (tmp_path / f"{name}.stderr").exists()
