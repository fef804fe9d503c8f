"""Regenerate the CLI golden file: what every pinned ``repro`` argv prints and writes.

Run from the repo root, on a clean tree::

    PYTHONPATH=src python tests/data/gen_cli_golden.py

The script refuses to run when ``git status --porcelain`` reports any
change, so every pin comes from committed code; the hash of that ``src``
tree is recorded in the file. It writes ``cli_golden.json`` next to
itself: for every argv of ``CASES``, run through ``repro.cli.main`` in one
process from the repo root, the exit code and the SHA-256 of stdout, of
stderr and of every file the run wrote. Each case gets a fresh temporary
directory, spelled ``{tmp}`` in its argv and in every digested text. A
JSON document, alone or ahead of trailing lines, is digested in its
canonical form (``json.dumps(doc, sort_keys=True)``), so key order is not
pinned.

``tests/test_cli_golden.py`` reruns every case in a fresh interpreter
(``--print`` writes the digests to stdout instead of the file) and lists
each mismatch. Help texts and usage errors are formatted by ``argparse``,
whose layout differs between Python versions; their text is compared only
under the Python minor version the file was generated with.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List, Tuple

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_golden.json")
REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
#: Stands for the case's temporary directory in argvs and digested texts.
TMP = "{tmp}"
#: Help and usage text wrap at this width; fleets run in the calling process.
ENV = {"COLUMNS": "80", "REPRO_WORKERS": "1"}

_LINT_FIX = "tests/data/lint_fixtures"
_LINT_PROJECT = "tests/data/lint_project_fixtures"

VERBS = (
    "list", "run", "compare", "overhead", "trace", "metrics", "suite", "experiments",
    "fleet", "coordinate", "watch", "alerts", "campaign", "resilience", "guard",
    "latency", "verify", "lint",
)

#: Every pinned argv, as one space-separated string each. ``verify``,
#: ``suite``, ``experiments --quick`` and a real ``campaign run`` are heavy
#: and covered by monkeypatched tests instead.
CASES: Tuple[str, ...] = (
    # Help of the program, every verb and both campaign actions.
    "--help",
    *(f"{verb} --help" for verb in VERBS),
    "campaign run --help",
    "campaign status --help",
    # Usage errors: argparse exits 2.
    "",
    "frobnicate",
    "run",
    "run --workload bfs --governor quantum",
    "suite --figure 9",
    "fleet",
    "coordinate --job sort@0 --budget-frac x",
    "campaign",
    "campaign run",
    "verify --seed one",
    "experiments --trace-schema cray",
    "metrics --format csv",
    "alerts --chaos total",
    "guard --governor quantum",
    "latency --preset warp",
    "lint --format xml",
    # Refused inputs: a ReproError exits 2.
    "run --workload hpl",
    "trace",
    "trace --workload sort --job sort@0",
    "metrics",
    "watch --max-time 2",
    "watch --job sort@0 --series repro.ts.bogus",
    "alerts --max-time 2",
    "coordinate --job sort@0 --budget -5 --max-time 5 --json --gate",
    "fleet --job sort --job bfs --nodes 1 --mtbf 30 --restart-delay 2",
    f"campaign run --outdir {TMP}/campaign --steps bogus",
    # Runs.
    "list",
    "run --workload sort --seed 1",
    "run --workload bfs --governor ups --guard --seed 2",
    "compare --workload sort --method magus",
    "overhead --governor magus --duration 30",
    "overhead --governor ups --duration 10 --latency gpu_dvfs --json",
    f"trace --workload sort --max-time 20 --out {TMP}/trace.json --top 3",
    f"trace --job sort@0 --job bfs@1 --max-time 3 --out {TMP}/fleet-trace.json",
    "metrics --workload sort --max-time 20",
    f"metrics --workload sort --max-time 20 --latency gpu_dvfs --format json --out {TMP}/metrics.json",
    "metrics --job sort@0 --max-time 3 --format json",
    f"metrics --job sort@0 --job bfs@1 --max-time 3 --out {TMP}/metrics.prom",
    "experiments --trace-schema amd_mi210",
    "fleet --job sort@0 --job bfs@3",
    "fleet --job sort@0 --job bfs@3 --governor ups --budget 700 --json",
    "fleet --job sort@0 --job bfs@1 --nodes 3 --mtbf 20 --restart-delay 2 --lost-work 0.5",
    "coordinate --job sort@0 --max-time 5 --no-chaos",
    f"coordinate --job sort@0 --max-time 5 --budget-frac 0.9 --gate --out {TMP}/score.txt",
    f"coordinate --job sort@0 --job bfs@1 --seed 2 --max-time 6 --json --gate "
    f"--journal {TMP}/grants.jsonl --out {TMP}/score.json",
    "watch --list-series",
    "watch --job sort@0 --max-time 2",
    f"watch --job sort@0 --job bfs@1 --max-time 3 --series repro.ts.fleet.granted_w "
    f"--width 40 --html {TMP}/watch.html",
    "alerts --job sort@0 --max-time 5",
    f"alerts --job sort@0 --max-time 5 --json --gate --out {TMP}/alerts.json",
    f"alerts --job sort@0 --chaos uplink --max-time 10 --gate --html {TMP}/alerts.html",
    f"campaign status --outdir {TMP}/none",
    "resilience --workload sort --duration 5 --governor magus",
    f"resilience --workload sort --duration 5 --governor magus --json --out {TMP}/resilience.json",
    f"resilience --workload sort --duration 5 --governor ups --incidents --check-repro "
    f"--guard --out {TMP}/resilience.txt",
    "guard --duration 5 --governor magus",
    f"guard --duration 5 --governor magus --json --gate-stuck-freeze --out {TMP}/guard.json",
    f"latency --duration 10 --governor magus --out {TMP}/latency.txt",
    "lint --list-rules",
    f"lint {_LINT_PROJECT} --project --no-cache --no-baseline --format json "
    f"--package-root {_LINT_PROJECT} --call-graph-dump {TMP}/callgraph.json --out {TMP}/lint.json",
    f"lint {_LINT_FIX}/sim/rl001_bad.py --no-baseline --package-root {_LINT_FIX}",
    f"lint {_LINT_PROJECT}/cluster/graph.py --package-root {_LINT_PROJECT} "
    f"--baseline {TMP}/baseline.json --update-baseline",
)


def canonical(text: str) -> str:
    """``text`` with a leading JSON document in canonical form."""
    try:
        doc, end = json.JSONDecoder().raw_decode(text)
    except ValueError:
        return text
    return json.dumps(doc, sort_keys=True) + text[end:]


def sha256_text(text: str) -> str:
    """SHA-256 of ``text`` in canonical form."""
    return hashlib.sha256(canonical(text).encode()).hexdigest()


def run_case(case: str) -> Dict[str, object]:
    """Run one argv through ``repro.cli.main`` in a fresh temporary directory.

    Returns the exit code, stdout, stderr and every written file's text
    (``{tmp}`` standing for the directory), and whether argparse ended the
    run.
    """
    from repro import cli

    tmp = tempfile.mkdtemp(prefix="cli-golden-")
    try:
        argv = [arg.replace(TMP, tmp) for arg in case.split()]
        out, err = io.StringIO(), io.StringIO()
        argparse_exit = False
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code, argparse_exit = exc.code, True
        files = {}
        for root, _dirs, names in os.walk(tmp):
            for name in names:
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as fh:
                    files[os.path.relpath(path, tmp)] = fh.read().replace(tmp, TMP)
        return {
            "exit": code,
            "stdout": out.getvalue().replace(tmp, TMP),
            "stderr": err.getvalue().replace(tmp, TMP),
            "files": dict(sorted(files.items())),
            "argparse": argparse_exit,
        }
    finally:
        shutil.rmtree(tmp)


def digest_case(raw: Dict[str, object]) -> Dict[str, object]:
    """The pinned form of :func:`run_case`'s result: texts by their digest."""
    return {
        "exit": raw["exit"],
        "stdout": sha256_text(raw["stdout"]),
        "stderr": sha256_text(raw["stderr"]),
        "files": {name: sha256_text(text) for name, text in raw["files"].items()},
        "argparse": raw["argparse"],
    }


def compute() -> Dict[str, Dict[str, object]]:
    """Digests of every case, keyed by its argv string, run from the repo root."""
    os.environ.update(ENV)
    os.chdir(REPO)
    return {case: digest_case(run_case(case)) for case in CASES}


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], check=True, capture_output=True, text=True, cwd=REPO
    ).stdout.strip()


def main(argv: List[str]) -> int:
    if argv == ["--print"]:
        json.dump(compute(), sys.stdout, indent=1, sort_keys=True)
        return 0
    dirty = _git("status", "--porcelain")
    if dirty:
        print("refusing to generate on a dirty tree; commit or stash first:", file=sys.stderr)
        print(dirty, file=sys.stderr)
        return 1
    import numpy as np

    golden = {
        "src_tree": _git("rev-parse", "HEAD:src"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cases": compute(),
    }
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}: {len(golden['cases'])} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
