import json
import math
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


def fixture_data(name):
    with open(fx(name)) as fh:
        return json.load(fh)


def malformed_problems():
    """Each malformed problem file with the field its error must name."""
    no_space = fixture_data("sl2.json")
    del no_space["space"]
    no_input = fixture_data("endu.json")
    del no_input["differential"][0]["input"]
    no_subalgebra = fixture_data("voronov5.json")
    del no_subalgebra["subalgebra"]
    number_terms = fixture_data("endu.json")
    number_terms["differential"][0]["terms"] = 5
    unknown_derivation = fixture_data("voronov5.json")
    unknown_derivation["derivation"] = "zz"
    list_weight = fixture_data("linf_min.json")
    list_weight["weight"] = [2]
    list_order = fixture_data("quadcone.json")
    list_order["element"]["order"] = [1]
    return {
        "top_level_list": ([fixture_data("sl2.json")], "JSON object"),
        "no_space": (no_space, "space"),
        "no_differential_input": (no_input, "differential[0].input"),
        "voronov_no_subalgebra": (no_subalgebra, "subalgebra"),
        "space_list": ({"kind": "dgla", "space": ["x"]}, "space"),
        "number_terms": (number_terms, "differential[0].terms"),
        "voronov_unknown_derivation": (unknown_derivation, "derivation"),
        "linf_list_weight": (list_weight, "weight"),
        "mc_list_order": (list_order, "element.order"),
    }


MALFORMED = malformed_problems()


@pytest.mark.parametrize("command", ["validate", "formality", "ce-pages"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_problem_names_the_field(capsys, tmp_path, case, command):
    data, field = MALFORMED[case]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, command, str(path))
    assert code == 1
    assert "invalid input" in err and field in err


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


@pytest.mark.parametrize("weight", range(5))
@pytest.mark.parametrize("name", sorted(os.listdir(FIXTURES)))
@pytest.mark.parametrize("command", [
    "minimal-model", "kaledin", "obstructions", "formality"])
def test_small_weights_exit_cleanly(capsys, command, name, weight):
    code, _, err = run(capsys, command, fx(name), "--weight", str(weight),
                       "--columns", "4")
    assert code in (0, 1, 2)
    if weight < 2 and command != "formality" and \
            name != "sl2_identity_map.json":
        assert f"weight bound {weight} is below 2" in err


@pytest.mark.parametrize("weight", ["6", "7"])
@pytest.mark.parametrize("command", [
    "minimal-model", "kaledin", "formality", "obstructions"])
def test_weight_above_the_declared_bound_exits_two(capsys, command, weight):
    # linf_min declares weight 5: its q_n for n > 5 are unknown
    code, _, err = run(capsys, command, fx("linf_min.json"), "--weight",
                       weight, "--columns", "4", "--max-page", "2")
    assert code == 2
    assert f"weight bound {weight} exceeds the input's declared weight " \
        "bound 5" in err


def voronov(n):
    """The Voronov family member n: derived brackets of ad v_n on the
    abelian complement {u} of span(v_1, …, v_n), with [v_i, u] = −i v_{i−1}."""
    v = [f"v{i}" for i in range(n + 1)]
    return {
        "kind": "voronov",
        "field": "Q",
        "space": {"0": ["u"], "1": v},
        "differential": [],
        "brackets": [{"inputs": [v[i], "u"], "terms": [[v[i - 1], str(-i)]]}
                     for i in range(1, n + 1)],
        "subalgebra": v[1:],
        "derivation": v[n],
    }


@pytest.mark.parametrize("n", range(3, 13))
def test_voronov_family_witness(capsys, tmp_path, n):
    # the witness is on page n − 1; its coordinate depends on the canonical
    # representative, so it is pinned as read, not derived
    path = tmp_path / f"voronov{n}.json"
    path.write_text(json.dumps(voronov(n)))
    code, out, _ = run(capsys, "formality", str(path), "--weight", str(n),
                       "--columns", str(n + 1), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "NotFormal"
    assert report["witness"] == {
        "r": n - 1, "cell": [n, 1 - n],
        "coordinates": [str((-1) ** n * math.factorial(n) * (n - 2))]}


def end_u(k):
    """End(U_k) as a dg-Lie algebra: U_k has h1..hk and e in degree 0 and f
    in degree 1, with d_U e = f.  The basis vector "xy" is the matrix unit
    y ↦ x, of degree |x| − |y|; d = [d_U, −] and the bracket is the graded
    commutator.  End of a complex over a field is formal, with minimal model
    gl_k = End(H U_k) in degree 0."""
    units = [f"h{i}" for i in range(1, k + 1)] + ["e", "f"]
    deg = {u: int(u == "f") for u in units}
    basis = [(x, y) for x in units for y in units]

    def mul(a, b):
        # E_xy E_zw = δ_yz E_xw
        return {(a[0], b[1]): 1} if a[1] == b[0] else {}

    def bracket(a, b):
        # [φ, ψ] = φψ − (−1)^{|φ||ψ|} ψφ
        da, db = deg[a[0]] - deg[a[1]], deg[b[0]] - deg[b[1]]
        sign = -1 if da * db % 2 else 1
        out = dict(mul(a, b))
        for key, c in mul(b, a).items():
            out[key] = out.get(key, 0) - sign * c
        return [["".join(key), str(c)] for key, c in out.items() if c]

    d_u = ("f", "e")
    space = {}
    for x, y in basis:
        space.setdefault(str(deg[x] - deg[y]), []).append(x + y)
    brackets = []
    for i, a in enumerate(basis):
        for b in basis[i:]:
            terms = bracket(a, b)
            if terms:
                brackets.append({"inputs": ["".join(a), "".join(b)],
                                 "terms": terms})
    differential = [{"input": "".join(a), "terms": bracket(d_u, a)}
                    for a in basis if bracket(d_u, a)]
    return {"kind": "dgla", "field": "Q", "space": space,
            "differential": differential, "brackets": brackets}


@pytest.mark.parametrize("k, bounds, verdict", [
    (1, (), "HomotopyAbelianUpTo"),
    (2, ("--weight", "4", "--columns", "4"), "FormalUpTo"),
    (2, (), "FormalUpTo"),
    (3, (), "FormalUpTo")])
def test_end_u_family_verdicts(capsys, tmp_path, k, bounds, verdict):
    path = tmp_path / f"end_u{k}.json"
    path.write_text(json.dumps(end_u(k)))
    code, out, _ = run(capsys, "validate", str(path), "--format", "json")
    assert code == 0 and json.loads(out)["valid"]
    code, out, _ = run(capsys, "formality", str(path), *bounds,
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == verdict


def test_end_u3_validates_and_has_gl3_cohomology(capsys, tmp_path):
    # 25 basis vectors: the axioms run over 25³ ordered triples, which the
    # sparse bracket columns check in a fraction of a second
    path = tmp_path / "end_u3.json"
    path.write_text(json.dumps(end_u(3)))
    code, out, _ = run(capsys, "validate", str(path), "--format", "json")
    assert code == 0 and json.loads(out)["valid"] is True
    code, out, _ = run(capsys, "cohomology", str(path), "--format", "json")
    report = json.loads(out)
    assert code == 0 and report["contraction_ok"] is True
    assert report["dimensions"] == {"0": 9}


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


def test_ce_pages_builds_no_page_cell(capsys, monkeypatch):
    # ce-pages reads every dimension off the barcode's pairs: no cell's
    # cycles or boundaries are spanned
    from ceformality import specseq
    calls = []
    page_cell = specseq.page_cell

    def counting(*args):
        calls.append(args[1:])
        return page_cell(*args)

    monkeypatch.setattr(specseq, "page_cell", counting)
    for name in ("endu.json", "quadcone.json"):
        code, out, _ = run(capsys, "ce-pages", fx(name))
        assert code == 0 and "pages.E1" in out
    assert calls == []
    code, _, _ = run(capsys, "euler", fx("endu.json"))
    assert code == 0 and calls == [(2, 1, -1)]


def test_commands_build_no_dense_total_differential(capsys, monkeypatch):
    # every command reads the total complex through its sparse columns:
    # the dense differential is built only when a caller asks for it
    from ceformality import specseq
    built = []
    init = specseq.FilteredTotalComplex.__init__

    def recorded(self, *a, **k):
        built.append(self)
        init(self, *a, **k)

    monkeypatch.setattr(specseq.FilteredTotalComplex, "__init__", recorded)
    for command in ("ce-pages", "euler", "obstructions", "formality",
                    "kaledin"):
        code, _, _ = run(capsys, command, fx("endu.json"))
        assert code == 0, command
        assert built, command
        assert all(ftc._differential is None for ftc in built), command
        built.clear()


def test_barcode_fault_is_an_engine_fault(capsys, monkeypatch):
    # a rank disagreement inside the barcode's own check is an engine
    # fault: exit 70 and one line, never exit 1 "invalid input" and never
    # a traceback
    from ceformality import specseq
    monkeypatch.setattr(specseq, "sparse_rank", lambda columns: 0)
    code, out, err = run(capsys, "ce-pages", fx("quadcone.json"))
    assert (code, out) == (70, "")
    assert err.startswith("engine fault: AssertionError: barcode leaves ")
    assert "dim H" in err and err.count("\n") == 1


def test_page_cell_fault_is_an_engine_fault(capsys, monkeypatch):
    # an r-cycle that its cell's quotient cannot place is an engine fault
    # too: voronov5's d_2 class lands in a nonzero cell, whose coordinates
    # are read through the cycle space's echelon coordinates
    from ceformality import linalg
    monkeypatch.setattr(linalg.Subspace, "coordinates", lambda self, v: None)
    code, out, err = run(capsys, "obstructions", fx("voronov5.json"))
    assert (code, out) == (70, "")
    assert err == ("engine fault: AssertionError: vector outside the "
                   "subspace being quotiented\n")


def test_memory_error_is_an_engine_fault(capsys, monkeypatch):
    from ceformality import formality

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(formality, "minimal_model", exhausted)
    code, out, err = run(capsys, "formality", fx("endu.json"))
    assert (code, out, err) == (70, "", "engine fault: MemoryError: \n")


def test_broken_contraction_is_an_engine_fault(capsys, monkeypatch):
    # the transfer checks its contraction: with one entry of h changed,
    # i p − 1 = d h + h d or a side condition fails before any q_n is built
    from ceformality import dgla, formality
    from ceformality.graded import GradedMap

    def broken(d):
        con = dgla.cohomology(d)
        h = [row[:] for row in con.h.matrix]
        r, c = next((r, c) for r, row in enumerate(h)
                    for c, x in enumerate(row) if x)
        h[r][c] += 1
        con.h = GradedMap(con.h.source, con.h.target, con.h.degree, h)
        return con

    monkeypatch.setattr(formality, "cohomology", broken)
    code, out, err = run(capsys, "formality", fx("endu.json"))
    assert (code, out, err) == (
        70, "", "engine fault: AssertionError: contraction fails its "
        "identities\n")


def no_transfer(*args, **kwargs):
    raise AssertionError("the transfer ran on a minimal input")


@pytest.mark.parametrize("name", ["heis3.json", "linf_min.json",
                                  "quadcone.json", "sl2.json", "sl2_bad.json",
                                  "voronov5.json"])
def test_formality_reads_a_minimal_input_directly(monkeypatch, name):
    # a minimal input is its own minimal model: its golden report, or
    # sl2_bad's failed relations, come without the transfer
    from ceformality import formality
    from test_reports import golden_path, run_case, serialize
    monkeypatch.setattr(formality, "minimal_model", no_transfer)
    with open(golden_path("formality", name), encoding="utf-8") as fh:
        assert serialize(run_case("formality", name)) == fh.read()


def test_formality_checks_a_minimal_linf_input(capsys, monkeypatch,
                                               tmp_path):
    # linf_min with u in degree 2 and q₃(s, s, t) = u: q₃ ∘ q₂ does not
    # vanish on s⊙s⊙s⊙s, and nothing cancels it
    from ceformality import formality
    data = fixture_data("linf_min.json")
    data["space"]["2"] = ["u"]
    data["taylor"].append({"inputs": ["s", "s", "t"], "terms": [["u", "1"]]})
    path = tmp_path / "linf_bad.json"
    path.write_text(json.dumps(data))
    monkeypatch.setattr(formality, "minimal_model", no_transfer)
    code, out, err = run(capsys, "formality", str(path))
    assert (code, out) == (1, "")
    assert err == ("invalid input: structure fails its relations at "
                   "weight 4 (s⊙s⊙s⊙s)\n")


@pytest.mark.parametrize("command, message", [
    ("formality", "gauge reduction requires a minimal structure"),
    ("obstructions", "obstruction sequence requires a minimal structure"),
    ("kaledin", "requires a minimal structure")])
def test_wrong_minimality_choice_is_an_engine_fault(capsys, monkeypatch,
                                                    command, message):
    # the verdict commands hand the input itself to the gauge, the
    # obstruction sequence and the kaledin class when it is minimal, so a
    # non-minimal structure reaching them is an engine fault, not invalid
    # input
    from ceformality import cli, formality
    from ceformality.linf import linf_structure
    endu = linf_structure(load_problem(fx("endu.json"))["algebra"], 5)
    assert not endu.is_minimal()
    for module in (formality, cli):
        monkeypatch.setattr(module, "minimal_structure",
                            lambda v, weight: endu)
    code, out, err = run(capsys, command, fx("sl2.json"))
    assert (code, out, err) == (
        70, "", f"engine fault: AssertionError: {message}\n")
