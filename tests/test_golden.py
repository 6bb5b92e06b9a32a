"""Golden outputs: every case in golden/cases.json is rerun in process
through cli.main, and its exit code, stdout and stderr must equal the
stored ones byte for byte, with the manifest timestamp masked.

The stored outputs are golden/<name>.out (stdout) and golden/<name>.err
(stderr); a missing file stands for empty output.  The mpmath-formatted
fields of `model` and `bound` depend on the library versions, which
cases.json records.  After an intended output change, regenerate with

    PYTHONPATH=src python tests/test_golden.py

and list each rewritten file, with what changed in it, in CHANGES.md.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from carmlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
CORPUS = json.loads((GOLDEN / "cases.json").read_text())
_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def run_case(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command, timestamp masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, _TIMESTAMP.sub('"timestamp": "*"', out.getvalue()), err.getvalue()


def stored(path: Path) -> str:
    return path.read_text() if path.exists() else ""


def library_versions() -> dict:
    import mpmath
    import numpy

    return {"numpy": numpy.__version__, "mpmath": mpmath.__version__}


@pytest.mark.parametrize("case", CORPUS["cases"], ids=lambda case: case["name"])
def test_output_matches_golden(case):
    code, out, err = run_case(case["argv"])
    made_with = {key: CORPUS[key] for key in ("numpy", "mpmath")}
    note = f"corpus made with {made_with}, running {library_versions()}"
    assert code == case["exit"], note
    assert out == stored(GOLDEN / f"{case['name']}.out"), note
    assert err == stored(GOLDEN / f"{case['name']}.err"), note


def regenerate() -> None:
    for case in CORPUS["cases"]:
        case["exit"], out, err = run_case(case["argv"])
        for suffix, text in ((".out", out), (".err", err)):
            path = GOLDEN / f"{case['name']}{suffix}"
            if text:
                path.write_text(text)
            else:
                path.unlink(missing_ok=True)
    CORPUS.update(library_versions())
    lines = [f"  {json.dumps(case)}" for case in CORPUS["cases"]]
    (GOLDEN / "cases.json").write_text(
        f'{{\n  "numpy": "{CORPUS["numpy"]}",\n  "mpmath": "{CORPUS["mpmath"]}",\n'
        f'  "cases": [\n  ' + ",\n  ".join(lines) + "\n  ]\n}\n")


if __name__ == "__main__":
    regenerate()
