"""Golden reports: every command on every fixture, run in-process as
``--format json`` and compared byte for byte with ``tests/golden/``.

Each golden file holds the argv, exit code, stdout and stderr of one run.
Reports embed the input path, so each case runs with the repository root as
the working directory.  endu runs at the reduced bounds in ``REDUCED``, which
the golden argv records.  After an intended report change,
regenerate the files with ``PYTHONPATH=src python tests/test_reports.py``.
"""

import contextlib
import io
import json
import os

import pytest

from ceformality.cli import COMMANDS, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
FIXTURE_DIR = os.path.join("tests", "fixtures")
FIXTURES = sorted(os.listdir(os.path.join(ROOT, FIXTURE_DIR)))
REDUCED = {
    ("ce-pages", "endu.json"): ["--columns", "3"],
    ("euler", "endu.json"): ["--columns", "4"],
    ("obstructions", "endu.json"): ["--columns", "4", "--max-page", "2"],
    ("kaledin", "endu.json"): ["--weight", "4"],
}
CASES = [(c, f) for c in COMMANDS for f in FIXTURES]


def case_argv(command, fixture):
    return [command, os.path.join(FIXTURE_DIR, fixture),
            *REDUCED.get((command, fixture), []), "--format", "json"]


def run_case(command, fixture):
    """{"argv", "exit", "stdout", "stderr"} of one in-process run; an
    exception that escapes ``main`` is recorded under "raised"."""
    argv = case_argv(command, fixture)
    out, err = io.StringIO(), io.StringIO()
    result = {"argv": argv}
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result["exit"] = main(argv)
    except Exception as exc:  # an engine fault is part of the record
        result["exit"] = None
        result["raised"] = f"{type(exc).__name__}: {exc}"
    finally:
        os.chdir(cwd)
    result["stdout"] = out.getvalue()
    result["stderr"] = err.getvalue()
    return result


def golden_path(command, fixture):
    stem = os.path.splitext(fixture)[0]
    return os.path.join(GOLDEN, f"{command}__{stem}.json")


def serialize(result):
    return json.dumps(result, indent=1, sort_keys=True,
                      ensure_ascii=False) + "\n"


def _no_floats(text):
    raise AssertionError(f"JSON float {text} in a report")


@pytest.mark.parametrize("command,fixture", CASES)
def test_report_matches_golden(command, fixture):
    res = run_case(command, fixture)
    if res["stdout"]:
        json.loads(res["stdout"], parse_float=_no_floats)
    with open(golden_path(command, fixture), encoding="utf-8") as fh:
        assert serialize(res) == fh.read()


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for command, fixture in CASES:
        with open(golden_path(command, fixture), "w", encoding="utf-8") as fh:
            fh.write(serialize(run_case(command, fixture)))
