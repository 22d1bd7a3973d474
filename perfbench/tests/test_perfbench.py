"""Tests of the benchmark's own parts: span arithmetic, the tracer's patching,
the input generator and the page-dimension oracle."""

import contextlib
import io
import json
import shutil
import sys
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO / "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
from generate import (  # noqa: E402
    SCALES, InputFactory, conjugate, load_fixture, problem_text, rescale,
    voronov)
from workloads import KNOWN_DEFECTS, WORKLOADS  # noqa: E402

BASES = ("sl2", "heis3", "endu", "linf_min", "quadcone", "sl2_identity_map")


@pytest.fixture
def work(request):
    """A working directory inside the benchmark's own ignored tree."""
    path = HERE / "_test_work" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _tree():
    # a.f [0,10] ─┬─ b.g [1,4] ── a.f [2,3]
    #             └─ c.h [5,9] ── c.h [6,7]
    names = ["a.f", "b.g", "c.h"]
    name = array("i", [0, 1, 0, 2, 2])
    parent = array("i", [-1, 0, 1, 0, 3])
    start = array("d", [0.0, 1.0, 2.0, 5.0, 6.0])
    end = array("d", [10.0, 4.0, 3.0, 9.0, 7.0])
    return names, name, parent, start, end


def test_self_time_subtracts_children():
    st = tracer.self_times(*_tree())
    assert st == {"a.f": 3.0 + 1.0, "b.g": 2.0, "c.h": 3.0 + 1.0}
    layers = tracer.layer_self_times(*_tree())
    assert layers == {"a": 4.0, "b": 2.0, "c": 4.0}
    assert sum(layers.values()) == 10.0   # self times partition the root


def test_inclusive_time_counts_outermost_spans_only():
    assert tracer.outermost_inclusive(*_tree(), "c.h") == 4.0
    assert tracer.outermost_inclusive(*_tree(), "a.f") == 10.0
    assert tracer.outermost_inclusive(*_tree(), "missing") == 0.0


def _validate(path):
    from ceformality import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(["validate", path, "--format", "json"])
    return rc, json.loads(out.getvalue())


def test_tracer_records_nested_spans_and_restores(work):
    from ceformality import cli, dgla, linalg
    originals = (cli.validate_dgla, dgla.validate_dgla, linalg.rref,
                 linalg.Subspace.__init__)
    path = InputFactory(0, work).write("sl2", load_fixture("sl2"))
    tr = tracer.Tracer()
    with tr:
        assert cli.validate_dgla is dgla.validate_dgla is not originals[0]
        with tr.span(tracer.OP_SPAN):
            assert _validate(path)[0] == 0
    assert (cli.validate_dgla, dgla.validate_dgla, linalg.rref,
            linalg.Subspace.__init__) == originals
    calls = tracer.call_counts(tr.names, tr.name)
    assert calls[tracer.OP_SPAN] == 1
    assert calls["cli.main"] == 1 and calls["dgla.validate_dgla"] == 1
    op_index = tr.names.index(tracer.OP_SPAN)
    assert all(p >= 0 for i, p in enumerate(tr.parent)
               if tr.name[i] != op_index)
    tr.write(work / "trace", {"seed": 0})
    saved = json.loads((work / "trace.json").read_text())
    assert saved["names"] == tr.names and saved["seed"] == 0
    assert saved["spans"]["end"] == tr.end.tolist()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_generated_file_validates(work, seed):
    factory = InputFactory(seed, work)
    for base in BASES:
        rc, report = _validate(factory.write(base, load_fixture(base)))
        assert rc == 0 and report["valid"], base
    for n in range(3, 7):
        rc, report = _validate(factory.write(f"voronov{n}", voronov(n)))
        assert rc == 0 and report["valid"], n
    rc, report = _validate(factory.write("sl2_bad", load_fixture("sl2_bad")))
    assert rc == 1 and not report["valid"]


def test_same_seed_same_inputs(work):
    def contents(seed, sub):
        factory = InputFactory(seed, work / sub)
        paths = [factory.write(b, load_fixture(b)) for b in BASES]
        paths.append(factory.write("voronov4", voronov(4)))
        return [Path(p).read_text() for p in paths]

    assert contents(7, "a") == contents(7, "b")
    assert contents(7, "a") != contents(8, "c")


@pytest.mark.parametrize("base", ["heis3", "linf_min"])
def test_no_two_inputs_in_a_run_are_equal(work, base):
    factory = InputFactory(5, work)
    paths = [factory.write(base, load_fixture(base)) for _ in range(60)]
    assert len({Path(p).read_text() for p in paths}) == 60


class _Pick:
    """A stand-in rng that makes every scale choice from a fixed list."""

    def __init__(self, picks):
        self.picks = iter(picks)

    def shuffle(self, items):
        pass

    def choice(self, items):
        return next(self.picks)


def test_linf_min_conjugates_cover_the_longest_run(work):
    # linf_min has one basis vector in each degree, so over SCALES it has
    # only as many conjugates as there are values of s²/t: far fewer than a
    # run can draw, which is why the factory widens a base's scale pool.
    base = load_fixture("linf_min")
    texts = {problem_text(conjugate(base, _Pick([a, b])))
             for a in SCALES for b in SCALES}
    assert len(texts) == 26
    # A small-ops round cannot take less than generating its inputs, about
    # 10 ms on the host where the benchmark was defined; allow a host twice
    # as fast, and count the linf_min ops of one round.
    seconds = json.loads((REPO / "BENCHMARK.json").read_text())["run_seconds"]
    rounds = int(seconds / 0.005)
    per_round = sum(t.base == "linf_min" for t in WORKLOADS["small-ops"]())
    factory = InputFactory(5, work)
    drawn = {factory.draw("linf_min", base)
             for _ in range(per_round * rounds)}
    assert len(drawn) == per_round * rounds


def test_scales_are_powers_of_two():
    # A float holds these exactly, so the engine's float defect (ROADMAP
    # item 1) cannot make a generated input fail.
    for x in SCALES:
        assert abs(x.numerator) & (abs(x.numerator) - 1) == 0
        assert x.denominator & (x.denominator - 1) == 0


def test_rescale_multiplies_every_basis_vector():
    base = load_fixture("endu")
    out = rescale(base, "1/3")
    assert out["space"] == base["space"]
    # With every vector multiplied by 1/3, d m = n keeps its coefficient and
    # [x, y] = a + b becomes [x, y] = (a + b)/3.
    assert out["differential"] == [{"input": "m", "terms": [["n", "1"]]}]
    xy = next(e for e in out["brackets"] if e["inputs"] == ["x", "y"])
    assert xy["terms"] == [["a", "1/3"], ["b", "1/3"]]


def test_known_defects_are_not_timed_ops():
    timed = {(t.command, t.base) for make in WORKLOADS.values()
             for t in make()}
    for t in KNOWN_DEFECTS:
        assert t.scale or (t.command, t.base) not in timed, t.label


def test_conjugate_moves_every_vector_field_with_the_basis():
    import random
    base = load_fixture("quadcone")
    out = conjugate(base, random.Random(3))
    assert sorted(out["space"]["1"]) == sorted(base["space"]["1"])
    assert len(out["samples"]) == len(base["samples"])
    vor = conjugate(voronov(4), random.Random(3))
    assert vor["derivation"] in vor["subalgebra"]
    assert len(vor["subalgebra"]) == 4


def test_voronov_three_is_the_shipped_fixture():
    shipped = REPO / "tests" / "fixtures" / "voronov5.json"
    if not shipped.exists():
        pytest.skip("shipped fixture not present")
    assert voronov(3) == json.loads(shipped.read_text())


def test_oracle_on_a_two_term_complex():
    # a (level 0, degree 0) → b (level 1, degree 1): E1 has both, d1 kills both
    matrix = [[Fraction(0), Fraction(0)], [Fraction(2), Fraction(0)]]
    pages = oracle.page_dimensions([0, 1], [0, 1], matrix, 2, [1, 2])
    assert pages == {1: {(0, 0): 1, (1, 0): 1}, 2: {}}


def test_oracle_reads_inexact_floats_as_the_meant_rationals():
    # d = [[1/3, 1], [1, 3]] has rank 1; 1/3 arrives as the float 0.333…
    third = 1 / 3
    matrix = [[Fraction(0)] * 4 for _ in range(4)]
    matrix[2][0], matrix[2][1] = third, Fraction(1)
    matrix[3][0], matrix[3][1] = Fraction(1), Fraction(3)
    pages = oracle.page_dimensions([0, 0, 1, 1], [0, 0, 1, 1], matrix, 2,
                                   [1, 2])
    assert pages == {1: {(0, 0): 2, (1, 0): 2}, 2: {(0, 0): 1, (1, 0): 1}}


def test_calibration_scales_an_op_by_the_samples_around_and_inside_it():
    cal = calibrate.Calibration()
    nominal = calibrate.NOMINAL
    # samples end at t = 1, 2, 3, 4; the op runs over [1.5, 3.5]
    cal.at = [1.0, 2.0, 3.0, 4.0]
    cal.kernel = [nominal, nominal / 2, nominal / 2, nominal]
    assert cal.spent(1.5, 3.5) == nominal
    assert cal.scale(1.5, 3.5) == pytest.approx((1 + 2 + 2 + 1) / 4)
    # a short op between two samples is scaled by those two only
    assert cal.spent(3.1, 3.2) == 0
    assert cal.scale(3.1, 3.2) == pytest.approx(1.5)


def test_calibration_samples_inside_running_code():
    import signal
    import time
    cal = calibrate.Calibration()
    cal.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3.5 * calibrate.TICK:
            pass
        t1 = time.perf_counter()
    finally:
        cal.stop()
    assert len(cal.at) >= 2
    assert 0 < cal.spent(t0, t1) < t1 - t0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_checks_resolve_voronov_answers_and_count_floats():
    assert checks.resolve(["n", "1-n", "n-1", "n+1", 4, None], 5) == \
        [5, -4, 4, 6, 4, None]
    assert checks.count_floats({"a": [1, "2", 2.0, {"b": -1.0}]}) == 2


def test_every_workload_has_known_answers_for_its_checked_commands():
    for make in WORKLOADS.values():
        for t in make():
            if t.command in ("formality", "obstructions", "euler"):
                key = "voronov" if t.n is not None else t.base
                assert key in checks.KNOWN[t.command], t.label
