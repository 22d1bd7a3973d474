import json
import os

import pytest

from ceformality.cli import main
from ceformality.problems import ProblemError, format_rational, \
    load_problem, parse_rational

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- problem files ---------------------------------------------------------


def test_rational_round_trip():
    assert parse_rational("-7/3") * 3 == -7
    assert format_rational(parse_rational("4/6")) == "2/3"
    with pytest.raises(ProblemError):
        parse_rational("1/0")


def test_load_all_valid_fixtures():
    for name in ("sl2.json", "heis3.json", "endu.json", "voronov5.json",
                 "linf_min.json", "quadcone.json", "sl2_identity_map.json"):
        problem = load_problem(fx(name))
        assert problem["kind"] in ("dgla", "linf", "voronov", "morphism",
                                   "mc")


def test_unknown_kind_rejected():
    from ceformality.problems import parse_problem
    with pytest.raises(ProblemError):
        parse_problem({"kind": "group"})


def test_unknown_label_rejected():
    from ceformality.problems import parse_problem
    with pytest.raises(ProblemError):
        parse_problem({
            "kind": "dgla", "space": {"0": ["x"]},
            "brackets": [{"inputs": ["x", "w"], "terms": [["x", "1"]]}]})


# -- exit codes --------------------------------------------------------------


def test_validate_ok_exits_zero(capsys):
    code, out, _ = run(capsys, "validate", fx("sl2.json"))
    assert code == 0
    assert "valid = True" in out


def test_validate_corrupt_exits_one(capsys):
    code, out, _ = run(capsys, "validate", fx("sl2_bad.json"))
    assert code == 1
    assert "valid = False" in out


def test_missing_file_exits_one(capsys):
    code, _, err = run(capsys, "validate", fx("no_such.json"))
    assert code == 1
    assert "invalid input" in err


def test_insufficient_bounds_exits_two(capsys):
    code, _, err = run(capsys, "formality", fx("sl2.json"), "--columns", "3")
    assert code == 2
    assert "insufficient bounds" in err


def test_usage_error_exits_64():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "x.json"])
    assert exc.value.code == 64


def test_not_formal_still_exits_zero(capsys):
    code, out, _ = run(capsys, "formality", fx("voronov5.json"))
    assert code == 0
    assert "verdict = NotFormal" in out
    assert "witness.r = 2" in out


# -- reports -----------------------------------------------------------------


def test_json_reports_are_byte_identical(capsys):
    _, out1, _ = run(capsys, "formality", fx("voronov5.json"),
                     "--format", "json")
    _, out2, _ = run(capsys, "formality", fx("voronov5.json"),
                     "--format", "json")
    assert out1 == out2
    doc = json.loads(out1)
    assert len(doc["run_hash"]) == 64


def test_hash_covers_results():
    import io
    from contextlib import redirect_stdout

    outs = []
    for flag in ("5", "4"):
        buf = io.StringIO()
        with redirect_stdout(buf):
            main(["formality", fx("voronov5.json"), "--weight", flag,
                  "--format", "json"])
        outs.append(json.loads(buf.getvalue()))
    assert outs[0]["run_hash"] != outs[1]["run_hash"]


def test_rationals_serialized_as_strings(capsys):
    def no_float(text):
        raise AssertionError(f"JSON float {text}")

    # sl2 sits in degree 0, so its décalage has negative degrees
    for argv in (("mc-lift", fx("quadcone.json")),
                 ("minimal-model", fx("sl2.json"))):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        doc = json.loads(out, parse_float=no_float)
        assert "Fraction" not in json.dumps(doc)
    assert doc["taylor"][0]["terms"][0][1] == "2"


def test_obstruction_command_reports_cell(capsys):
    code, out, _ = run(capsys, "obstructions", fx("voronov5.json"))
    assert code == 0
    assert "obstructions.first_nonzero = 2" in out
    assert "coordinates.0 = -6" in out


def test_derived_brackets_command(capsys):
    code, out, _ = run(capsys, "derived-brackets", fx("voronov5.json"))
    assert code == 0
    assert "relations_ok = True" in out
    assert "taylor.0.terms.0.1 = -6" in out


def test_transfer_command(capsys):
    code, out, _ = run(capsys, "transfer", fx("sl2_identity_map.json"))
    assert code == 0
    assert "transfer.all_injective = True" in out


def test_kaledin_command(capsys):
    code, out, _ = run(capsys, "kaledin", fx("voronov5.json"))
    assert code == 0
    assert "kaledin.identities.square_zero = True" in out
    assert "kaledin.class_is_zero = False" in out


def test_quadraticity_command(capsys):
    code, out, _ = run(capsys, "quadraticity", fx("quadcone.json"))
    assert code == 0
    assert "quadraticity.all_agree = True" in out


def test_ce_pages_command(capsys):
    code, out, _ = run(capsys, "ce-pages", fx("sl2.json"),
                       "--max-page", "2")
    assert code == 0
    assert "pages.E1" in out


def test_cohomology_command(capsys):
    code, out, _ = run(capsys, "cohomology", fx("endu.json"))
    assert code == 0
    assert "dimensions.0 = 2" in out


@pytest.mark.parametrize("name", ["sl2.json", "linf_min.json"])
@pytest.mark.parametrize("columns", ["0", "-1"])
def test_ce_pages_refuses_fewer_than_one_column(capsys, name, columns):
    code, _, err = run(capsys, "ce-pages", fx(name), "--columns", columns)
    assert code == 1
    assert "column bound must be at least 1" in err


# sl2_bad is left out: minimal-model and formality on it still raise
# (recorded under "raised" in its goldens) until problem files are
# validated before every structural command
@pytest.mark.parametrize("weight", range(5))
@pytest.mark.parametrize("name", sorted(
    set(os.listdir(FIXTURES)) - {"sl2_bad.json"}))
@pytest.mark.parametrize("command", [
    "minimal-model", "kaledin", "obstructions", "formality"])
def test_small_weights_exit_cleanly(capsys, command, name, weight):
    code, _, err = run(capsys, command, fx(name), "--weight", str(weight),
                       "--columns", "4")
    assert code in (0, 1, 2)
    if weight < 2 and command != "formality" and \
            name != "sl2_identity_map.json":
        assert f"weight bound {weight} is below 2" in err


def test_dgla_commands_build_no_bicomplex(capsys, monkeypatch):
    from ceformality import cecomplex
    calls = []
    init = cecomplex.CeBicomplex.__init__

    def counted(self, *a, **k):
        calls.append(a)
        init(self, *a, **k)

    monkeypatch.setattr(cecomplex.CeBicomplex, "__init__", counted)
    for argv in (("ce-pages", fx("quadcone.json"), "--columns", "4"),
                 ("euler", fx("endu.json"), "--columns", "4"),
                 ("euler", fx("sl2.json")),
                 ("transfer", fx("sl2_identity_map.json"))):
        code, _, _ = run(capsys, *argv)
        assert code == 0
    assert calls == []
