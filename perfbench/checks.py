"""Untimed checks of every op's report.

An op fails if it exits with another code than expected, prints a traceback,
gives a wrong known answer, disagrees with the page-dimension oracle, or puts
a float anywhere in its JSON report.  Only a wrong answer (a known answer or
an oracle table that disagrees) makes the run incorrect; an op that crashes
or leaks a float gave no wrong answer and counts as failed only.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

KNOWN = json.loads((Path(__file__).resolve().parent
                    / "known_answers.json").read_text())

FLOAT = "JSON float"
WRONG = ("wrong answer", "oracle mismatch")
_N_EXPR = re.compile(r"^(1-)?n([+-]\d+)?$")


def resolve(value, n):
    """Known answers may be written in the Voronov index: n, n-1, n+1, 1-n."""
    if isinstance(value, str):
        m = _N_EXPR.match(value)
        if m:
            if m.group(1):
                return 1 - n
            return n + int(m.group(2) or 0)
    if isinstance(value, list):
        return [resolve(v, n) for v in value]
    if isinstance(value, dict):
        return {k: resolve(v, n) for k, v in value.items() if k != "why"}
    return value


def count_floats(obj):
    if isinstance(obj, float):
        return 1
    if isinstance(obj, dict):
        return sum(count_floats(v) for v in obj.values())
    if isinstance(obj, list):
        return sum(count_floats(v) for v in obj)
    return 0


def _known(command, template):
    table = KNOWN.get(command, {})
    key = "voronov" if template.n is not None else template.base
    if key not in table:
        return None
    return resolve(table[key], template.n)


def _answer_errors(template, report):
    """Differences between a parsed report and the hand-written answers."""
    cmd = template.command
    want = _known(cmd, template)
    if want is None:
        return []
    errs = []

    def expect(what, got, wanted):
        if got != wanted:
            errs.append(f"{what}: got {got!r}, expected {wanted!r}")

    if cmd == "formality":
        expect("verdict", report.get("verdict"), want["verdict"])
        witness = report.get("witness")
        if "witness_r" in want:
            expect("witness.r", witness and witness.get("r"), want["witness_r"])
            expect("witness.cell", witness and witness.get("cell"),
                   want["witness_cell"])
        else:
            expect("witness", witness, None)
    elif cmd == "obstructions":
        expect("first_nonzero", report["obstructions"].get("first_nonzero"),
               want["first_nonzero"])
    elif cmd == "euler":
        expect("is_zero", report["euler"].get("is_zero"), want["is_zero"])
    elif cmd == "validate":
        expect("valid", report.get("valid"), want)
    elif cmd in ("cohomology", "minimal-model"):
        expect("dimensions", report.get("dimensions"), want)
    elif cmd == "kaledin":
        kal = report["kaledin"]
        expect("class_is_zero", kal.get("class_is_zero"), want)
        expect("identities", kal.get("identities"),
               {"cocycle": True, "euler_relation": True, "square_zero": True})
    elif cmd == "derived-brackets":
        expect("relations_ok", report.get("relations_ok"), True)
        expect("arities", sorted({e["arity"] for e in report["taylor"]}),
               want["arities"])
    elif cmd == "mc-check":
        expect("is_solution", report["mc"].get("is_solution"),
               want["is_solution"])
    elif cmd == "mc-lift":
        expect("solvable", report["lift"].get("solvable"), want["solvable"])
    return errs


def check_op(template, rc, stdout, stderr):
    """List of (reason, detail) for one op; empty when the op passed."""
    problems = []
    if rc != template.expect_exit:
        problems.append(("exit code", f"{rc} (expected {template.expect_exit})"))
    if "Traceback (most recent call last)" in stderr:
        problems.append(("traceback", stderr.strip().splitlines()[-1]))
    if not stdout.strip():
        if rc == 0:
            problems.append(("no report", "empty stdout"))
        return problems
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return problems + [("bad JSON", str(exc))]
    floats = count_floats(report)
    if floats:
        problems.append((FLOAT, f"{floats} float values"))
    try:
        problems += [("wrong answer", e) for e in _answer_errors(template, report)]
    except (KeyError, TypeError, AttributeError) as exc:
        problems.append(("wrong answer", f"report lacks {exc!r}"))
    return problems


def check_pages(stdout, oracle_pages):
    """List of (reason, detail) for a ce-pages report against the oracle's
    page dimensions; empty when they agree."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return []   # check_op has reported it
    got = {int(k[1:]): v for k, v in report.get("pages", {}).items()}
    want = {r: {f"({p},{q})": d for (p, q), d in cells.items()}
            for r, cells in oracle_pages.items()}
    if got != want:
        return [("oracle mismatch", f"pages {got} != {want}")]
    return []


def is_wrong(problems):
    """True when the op gave a wrong answer."""
    return any(reason in WRONG for reason, _ in problems)


class Tally:
    """The failures of a run, counted as its ops finish.

    ``add`` checks an op's report right after the op has run, outside its
    timed span, and keeps only counts and the first detail of each kind of
    failure, so the runner's memory does not grow with its op count.  The
    report of a ce-pages op that exited 0 is saved next to its input and
    waits for ``finish``, which compares it with the page-dimension oracle
    once the timed loop is over.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.summary = {}    # "label: reason" -> (count, first detail)
        self.pending = []    # (op, saved report, already failed)

    def add(self, op, rc, stdout, stderr):
        self.attempted += 1
        problems = check_op(op.template, rc, stdout, stderr)
        if problems:
            self._fail(op.template.label, problems)
        if op.template.command == "ce-pages" and rc == 0:
            saved = Path(f"{op.path}.out")
            saved.write_text(stdout)
            self.pending.append((op, saved, bool(problems)))

    def finish(self, oracle_pages):
        """Check the saved ce-pages reports; ``oracle_pages(op)`` gives the
        oracle's page dimensions for an op."""
        for op, saved, counted in self.pending:
            problems = check_pages(saved.read_text(), oracle_pages(op))
            if problems:
                self._fail(op.template.label, problems, counted)
        self.pending = []

    def _fail(self, label, problems, counted=False):
        if not counted:
            self.failed += 1
        self.correct = self.correct and not is_wrong(problems)
        for reason, detail in problems:
            key = f"{label}: {reason}"
            count, first = self.summary.get(key, (0, detail))
            self.summary[key] = (count + 1, first)
