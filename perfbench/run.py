"""Benchmark runner for ceformality.

Single process, single thread, closed loop with one client: it calls
``ceformality.cli.main(argv)`` in-process on generated problem files, one op
after another, and repeats the workload's op list (a round) until
``--seconds`` have passed.  Every report is checked outside the timed spans.

    python3 perfbench/run.py --workload pages --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics, taken from the
traced rounds and given per round, plus the tracing overhead.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"
SETUP_REPEATS = 5

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from calibrate import NOMINAL, Calibration  # noqa: E402
from generate import InputFactory, problem_text  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS, Op, make_round  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_engine():
    """Import the engine afresh (module bodies re-execute) and return cli."""
    for name in [m for m in sys.modules if m.split(".")[0] == "ceformality"]:
        del sys.modules[name]
    return importlib.import_module("ceformality.cli")


def run_op(op):
    """Run one CLI op in-process; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    cli = sys.modules["ceformality.cli"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(op.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error: the CLI would print this
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def setup(templates, seed, directory, cal):
    """Import, generate the first round's inputs and warm up; returns the
    set-up time in reference seconds (see calibrate.py)."""
    cal.sample()
    t0 = time.perf_counter()
    import_engine()
    factory = InputFactory(seed, directory)
    ops = make_round(templates, factory)
    run_op(make_round(templates[:1], factory)[0])
    t1 = time.perf_counter()
    cal.sample()
    return (t1 - t0) * cal.scale(t0, t1), factory, ops


def known_defects(directory):
    """Run each op of KNOWN_DEFECTS once on its fixed input; a list of
    (label, problems) for each, problems empty when the op passed."""
    directory.mkdir(parents=True, exist_ok=True)
    found = []
    for i, t in enumerate(KNOWN_DEFECTS):
        path = directory / f"{i}-{t.base}.json"
        path.write_text(problem_text(t.problem()))
        label = t.label + (f" (scaled by {t.scale})" if t.scale else "")
        found.append((label, checks.check_op(t, *run_op(Op(t, str(path))))))
    return found


def op_medians(samples):
    """Sorted median latency of each op of the list over the run's rounds."""
    by_op = {}
    for label, seconds in samples:
        by_op.setdefault(label, []).append(seconds)
    return sorted(statistics.median(v) for v in by_op.values())


def nearest_rank(values, p):
    """The p-quantile of sorted ``values`` by nearest rank (no interpolation,
    so it never mixes two ops of very different cost)."""
    return values[max(1, math.ceil(p * len(values))) - 1]


def oracle_pages(op):
    """Independent page dimensions for a ce-pages op, on the complex the CLI
    builds from the same arguments."""
    import oracle
    from ceformality import cli
    from ceformality.cecomplex import build_ce
    from ceformality.dgla import adjoint_module
    from ceformality.linf import ce_linf_self
    from ceformality.problems import load_problem

    args = cli.build_parser().parse_args(op.argv)
    problem = load_problem(args.input)
    alg = cli._algebra(problem, args.weight)
    if problem["kind"] in ("linf", "voronov"):
        ftc = ce_linf_self(alg, args.columns).total
    else:
        ftc = build_ce(alg, adjoint_module(alg), args.columns)
    top = min(args.max_page, ftc.length + 1)
    return oracle.page_dimensions(ftc.levels, ftc.space.degrees,
                                  ftc.differential.matrix, ftc.length,
                                  range(1, top + 1))


def layer_metrics(tr, traced_rounds, overhead, scale):
    """Per-layer metrics, per traced round, from the tracer's spans; times
    are multiplied by ``scale`` to give reference seconds."""
    spans = (tr.names, tr.name, tr.parent, tr.start, tr.end)
    selfs = tracing.layer_self_times(*spans)
    calls = tracing.call_counts(tr.names, tr.name)
    c = tr.counters
    k = traced_rounds

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = (selfs.get(layer, 0.0) * scale / k, "s")
    n = {
        "linalg.rref.calls": calls.get("linalg.rref", 0),
        "linalg.rref.entries": c["linalg.rref.entries"],
        "linalg.solve.calls": calls.get("linalg.solve", 0),
        "linalg.nullspace.calls": calls.get("linalg.nullspace", 0),
        "linalg.intersect.calls": calls.get("linalg.Subspace.intersect", 0),
        "linalg.quotient.calls": calls.get("linalg.Quotient.__init__", 0),
        "linalg.float_entries": c["linalg.float_entries"],
        "specseq.pages.built": calls.get("specseq.SpectralPage.__init__", 0),
        "specseq.cells.built": c["specseq.cells.built"],
        "specseq.cells.read": c["specseq.cells.read"],
        "specseq.cycle_space.calls": calls.get("specseq.cycle_space", 0),
        "cecomplex.bicomplex.calls":
            calls.get("cecomplex.CeBicomplex.__init__", 0),
        "cecomplex.total_dim": c["cecomplex.total_dim"],
        "linf.coder_lift_block.calls": calls.get("linf.coder_lift_block", 0),
        "linf.component_value.calls":
            calls.get("linf.LInfinityMorphism.component_value", 0),
        "linf.ce_complex.total_dim": c["linf.ce_complex.total_dim"],
        "graded.normalize.calls": calls.get("graded.PowerBasis.normalize", 0),
        "graded.power_basis.elements": c["graded.power_basis.elements"],
        "dgla.cohomology.calls": calls.get("dgla.cohomology", 0),
    }
    for name, total in n.items():
        m[name] = (total / k, "count")
    m["linalg.rref.max_cols"] = (c["linalg.rref.max_cols"], "count")
    m["linalg.intersect.noop_ratio"] = (ratio(
        c["linalg.intersect.noop"], n["linalg.intersect.calls"]), "ratio")
    m["linalg.quotient.rep_ratio"] = (ratio(
        c["linalg.quotient.reps"], c["linalg.quotient.candidates"]), "ratio")
    m["specseq.cells.read_ratio"] = (ratio(
        c["specseq.cells.read"], c["specseq.cells.built"]), "ratio")
    m["specseq.cycle_space.hit_ratio"] = (ratio(
        c["specseq.cycle_space.hits"], n["specseq.cycle_space.calls"]),
        "ratio")
    for stage in ("minimal_model", "gauge_reduce", "obstruction_sequence"):
        m[f"formality.{stage}_s"] = (tracing.outermost_inclusive(
            *spans, f"formality.{stage}") * scale / k, "s")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    bases = {
        "linalg.intersect.noop_ratio": n["linalg.intersect.calls"],
        "linalg.quotient.rep_ratio": c["linalg.quotient.candidates"],
        "specseq.cells.read_ratio": c["specseq.cells.built"],
        "specseq.cycle_space.hit_ratio": n["specseq.cycle_space.calls"],
    }
    return m, bases


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ceformality" / "cli.py").is_file():
        print(f"perfbench: engine sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    templates = WORKLOADS[args.workload]()
    shutil.rmtree(WORK, ignore_errors=True)

    cal = Calibration()
    setups = []
    for rep in range(SETUP_REPEATS):
        spent, factory, ops = setup(templates, args.seed,
                                    WORK / f"inputs-{rep}", cal)
        setups.append(spent)

    tr = tracing.Tracer() if args.trace else None
    tally = checks.Tally()
    # Per op, in run order: its round, its place in the op list, and its
    # timed span; arrays, so the loop's own memory stays small.
    op_round, op_index = array("i"), array("i")
    op_start, op_end = array("d"), array("d")
    argvs = []   # every op's argv, kept for the trace file only
    deadline = time.perf_counter() + args.seconds
    rnd = 0
    cal.start()
    while True:
        traced = bool(tr) and rnd % 2 == 1
        if rnd:
            ops = make_round(templates, factory)
        with tr if traced else contextlib.nullcontext():
            for index, op in enumerate(ops):
                if traced:
                    tr.op_id = tally.attempted
                    t = time.perf_counter()
                    with tr.span(tracing.OP_SPAN):
                        res = run_op(op)
                else:
                    t = time.perf_counter()
                    res = run_op(op)
                op_end.append(time.perf_counter())
                op_start.append(t)
                op_round.append(rnd)
                op_index.append(index)
                tally.add(op, *res)
                if tr:
                    argvs.append(op.argv)
        rnd += 1
        if rnd == 1:
            # Set-up and one pass over the op list: more rounds would sample
            # more conjugates, so a faster host would read a higher peak.
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        if time.perf_counter() >= deadline and (not tr or rnd >= 2):
            break
    cal.stop()
    cal.sample()

    # Op times in reference seconds, and per-round sums (raw and scaled).  Raw
    # sums keep the kernel samples taken inside ops: in traced rounds those
    # samples fall inside layer spans, evenly in time, so scaling the layers'
    # self times by scaled ÷ raw takes them out again.
    latencies = {False: [], True: []}
    walls = {False: {}, True: {}}
    raw = {False: {}, True: {}}
    for rnd_i, index, t0, t1 in zip(op_round, op_index, op_start, op_end):
        traced = bool(tr) and rnd_i % 2 == 1
        ref = (t1 - t0 - cal.spent(t0, t1)) * cal.scale(t0, t1)
        latencies[traced].append((templates[index].label, ref))
        walls[traced][rnd_i] = walls[traced].get(rnd_i, 0.0) + ref
        raw[traced][rnd_i] = raw[traced].get(rnd_i, 0.0) + t1 - t0

    t_check = time.perf_counter()
    tally.finish(oracle_pages)
    t_check = time.perf_counter() - t_check
    attempted, failed = tally.attempted, tally.failed
    print(f"workload {args.workload} seed {args.seed}: {rnd} rounds of "
          f"{len(templates)} ops, {attempted} ops attempted, {failed} failed, "
          f"ops_failed_ratio = {failed / attempted:.4f} (base {attempted}); "
          f"oracle checks took {t_check:.1f} s")
    for key, (count, detail) in sorted(tally.summary.items()):
        print(f"  failure  {key} ({count} ops): {detail}")
    defects = known_defects(WORK / "defects")
    print(f"  known defects (untimed, not in attempted or failed): "
          f"{sum(bool(p) for _, p in defects)} of {len(defects)} still fail")
    for label, problems in defects:
        print(f"    {label}: " + ("; ".join(f"{reason}: {detail}"
                                            for reason, detail in problems)
                                  or "passes"))

    run_wall = statistics.median(walls[False].values())
    print(f"  host: reference kernel median "
          f"{statistics.median(cal.kernel) * 1e3:.3f} ms over "
          f"{len(cal.kernel)} samples (nominal {NOMINAL * 1e3:g} ms); raw "
          f"round wall median {statistics.median(raw[False].values()):.4f} s")
    if tr is None:
        per_op = op_medians(latencies[False])
        metrics = {
            "run_wall_s": (run_wall, "s"),
            "op_p50_s": (nearest_rank(per_op, 0.5), "s"),
            "op_p90_s": (nearest_rank(per_op, 0.9), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
        print(f"  run_wall_s median of {len(walls[False])} rounds "
              f"{[round(w, 3) for w in walls[False].values()]}; op latency "
              f"quantiles over the {len(per_op)} ops of the list, each the "
              f"median of its {len(walls[False])} samples "
              f"({len(latencies[False])} op samples); times in reference "
              f"seconds")
    else:
        traced_wall = sum(walls[True].values())
        overhead = statistics.median(walls[True].values()) / run_wall
        metrics, bases = layer_metrics(tr, len(walls[True]), overhead,
                                       traced_wall / sum(raw[True].values()))
        for name, base in bases.items():
            print(f"  {name} base {base}")
        print(f"  per-layer values are per traced round; "
              f"{len(walls[True])} traced, {len(walls[False])} untraced rounds")
        prefix = WORK / f"trace-{args.workload}-seed{args.seed}"
        tr.write(prefix, {"ops": argvs,
                          "workload": args.workload, "seed": args.seed})
        print(f"  spans written to {prefix.relative_to(HERE.parent)}.json")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for rep in range(SETUP_REPEATS):
        shutil.rmtree(WORK / f"inputs-{rep}", ignore_errors=True)
    shutil.rmtree(WORK / "defects", ignore_errors=True)
    print(json.dumps({
        "correct": tally.correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
