"""Replay the golden corpus in tests/golden/ through quadchar.cli.main.

Every stored case must come back byte for byte: exit code, stdout, stderr and
each file the request writes.  tests/golden/generate.py writes the corpus and
holds the runner used here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_generate", GOLDEN / "generate.py")
generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate)

CASE_FILES = sorted(GOLDEN.glob("*.json"))


def test_corpus_matches_generator():
    assert [p.stem for p in CASE_FILES] == sorted(generate.CASES)


@pytest.mark.parametrize("path", CASE_FILES, ids=[p.stem for p in CASE_FILES])
def test_golden_case(path, tmp_path):
    case = json.loads(path.read_text(encoding="ascii"))
    got = generate.run_case(case["argv"], case["inputs"], str(tmp_path))
    want = {key: case[key] for key in ("rc", "stdout", "stderr", "files")}
    assert got == want
