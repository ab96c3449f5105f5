"""The repository's entry points outside the package run against it: the
benchmark oracle, the scripts and the README's library quick start."""

import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_oracle_still_computes_from_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import compute_oracle

    with open(ROOT / "perfbench" / "oracle.json") as fh:
        assert compute_oracle() == json.load(fh)


def _run_script(*argv: str) -> str:
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_scripts_run():
    out = _run_script("complete_dag_table.py", "--up-to", "4", "--f-vectors")
    rows = [line.split() for line in out.splitlines()[1:]]
    # n, |E|, dim, vertices, lineality
    assert [row[:5] for row in rows] == [["3", "3", "1", "2", "2"],
                                         ["4", "6", "3", "9", "3"]]
    assert "(9, 14, 7)" in out.splitlines()[2]
    out = _run_script("census_report.py", "--nodes", "3")
    assert re.search(r"^generic structures: 4 ", out, re.M)
    assert re.search(r"^all structures: 4 ", out, re.M)
    head, verdict = _run_script("implication_demo.py").splitlines()[:2]
    assert head.startswith("1,4|3  =>  2,4|1,3") and verdict.strip() == "holds"


def test_census_report_reads_back_its_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("MAXOID_CACHE_DIR", str(tmp_path))

    def counts(out: str) -> list[str]:
        # the lines without their elapsed seconds
        return [re.sub(r"\s*\(\d+s\)$", "", line) for line in out.splitlines()]

    cold = counts(_run_script("census_report.py", "--nodes", "4"))
    assert len(list(tmp_path.iterdir())) == 10
    assert counts(_run_script("census_report.py", "--nodes", "4")) == cold
    assert cold == ["graphs: 18  isomorphism classes: 10", "generic structures: 40",
                    "all structures: 41"]


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "['1,3|2', '1,3|2,4', '1,4|2', '1,4|2,3']"
    assert len(lines) > 1
