"""Every pinned ``repro`` argv exits, prints and writes as it did when pinned.

``tests/data/cli_golden.json`` pins, for each argv of
``tests/data/gen_cli_golden.py``, the exit code and the SHA-256 of stdout,
stderr and every file the run wrote (JSON in canonical form, the temporary
directory spelled ``{tmp}``). The cases rerun here in one fresh
interpreter. Help texts and usage errors are formatted by argparse, whose
layout differs between Python versions, so their text is compared only
under the Python minor version the file was generated with; their exit
codes are compared everywhere.
"""

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys

import pytest

from repro.cli import build_parser

_GEN_PATH = os.path.join(os.path.dirname(__file__), "data", "gen_cli_golden.py")
_spec = importlib.util.spec_from_file_location("gen_cli_golden", _GEN_PATH)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


@pytest.fixture(scope="module")
def golden():
    with open(gen.GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def fresh():
    proc = subprocess.run(
        [sys.executable, _GEN_PATH, "--print"],
        capture_output=True,
        text=True,
        cwd=gen.REPO,
        env={**os.environ, "PYTHONPATH": os.path.join(gen.REPO, "src")},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _mismatches(pinned, current, fields, argparse_cases):
    """Every (case, field) that differs, over the cases whose ``argparse``
    flag equals ``argparse_cases`` (all cases when it is ``None``)."""
    bad = []
    for case in sorted(pinned):
        want, got = pinned[case], current[case]
        if argparse_cases is not None and want["argparse"] != argparse_cases:
            continue
        for field in fields:
            if want[field] != got[field]:
                detail = f"{want[field]} -> {got[field]}" if field == "exit" else "differs"
                bad.append(f"{case!r} {field}: {detail}")
    return bad


def _report(golden, bad):
    versions = (
        f"pinned under python {golden['python']}, numpy {golden['numpy']}; "
        f"here python {platform.python_version()}"
    )
    return f"{len(bad)} mismatch(es) ({versions}):\n" + "\n".join(bad)


class TestCliGolden:
    def test_cases_match_generator(self, golden, fresh):
        assert sorted(golden["cases"]) == sorted(gen.CASES) == sorted(fresh)

    def test_every_verb_is_pinned(self):
        (verbs,) = [
            a.choices for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        assert sorted(verbs) == sorted(gen.VERBS)
        ran = {case.split()[0] for case in gen.CASES if case and "--help" not in case}
        assert ran >= set(gen.VERBS)

    def test_every_exit_code_matches(self, golden, fresh):
        bad = _mismatches(golden["cases"], fresh, ("exit", "argparse"), None)
        assert not bad, _report(golden, bad)

    def test_every_output_matches(self, golden, fresh):
        bad = _mismatches(golden["cases"], fresh, ("stdout", "stderr", "files"), False)
        assert not bad, _report(golden, bad)

    def test_every_help_and_usage_text_matches(self, golden, fresh):
        pinned_minor = golden["python"].split(".")[:2]
        if platform.python_version_tuple()[:2] != tuple(pinned_minor):
            pytest.skip(f"argparse text pinned under python {golden['python']}")
        bad = _mismatches(golden["cases"], fresh, ("stdout", "stderr"), True)
        assert not bad, _report(golden, bad)


class TestCanonicalForm:
    def test_json_key_order_and_layout_are_not_pinned(self):
        assert gen.canonical('{"b": 1,\n "a": [2]}\ngate: ok\n') == '{"a": [2], "b": 1}\ngate: ok\n'

    def test_other_text_is_kept_as_is(self):
        assert gen.canonical("wrote 3 span(s)\n") == "wrote 3 span(s)\n"
        assert gen.canonical(" {}") == " {}"
