"""Tests for :mod:`repro.lint` — the static invariant checker.

Four layers:

* **rule strength** — every known-bad tree under ``tests/lint_fixtures``
  must be flagged by *exactly* its intended rule (the static analogue
  of the corpus mutation harness: N/N fixtures killed);
* **shipped tree is clean** — ``lint src/`` reports zero findings, so
  every accepted exception in the tree is an explained inline
  suppression;
* **CLI contract** — exit-code matrix (0 clean / 1 findings / 2 usage
  error), text and JSON reporters, ``profibus-rt/lint/v2`` document
  shape;
* **mechanics** — suppression comments, baseline round-trip, parse
  failures, rule selection.

The interprocedural flow layer (REP010–REP013) has its own suite in
``test_lint_flow.py``; here it only participates through the combined
rule catalogue and the fixture kill matrix.
"""

import contextlib
import io
import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.lint import (
    ALL_RULES,
    FLOW_RULES,
    LintEngine,
    LintUsageError,
    render_json,
    render_text,
    run_lint,
)
from repro.schemas import FAMILIES, LINT_SCHEMA, SCHEMAS, schema_family

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
FIXTURES = REPO / "tests" / "lint_fixtures"

FIXTURE_CASES = sorted(p for p in FIXTURES.iterdir() if p.is_dir())


def _write(base: Path, rel: str, text: str) -> Path:
    path = base / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text))
    return path


# ---------------------------------------------------------- rule strength

def test_fixture_suite_covers_every_rule():
    intended = {case.name[:6].upper() for case in FIXTURE_CASES}
    assert intended == set(ALL_RULES) | set(FLOW_RULES), (
        "every rule needs at least one known-bad fixture it must kill"
    )


@pytest.mark.parametrize("case", FIXTURE_CASES, ids=lambda p: p.name)
def test_fixture_is_killed_by_exactly_its_intended_rule(case):
    intended = case.name[:6].upper()
    result = run_lint([case])
    rules_hit = {f.rule for f in result.findings}
    assert result.findings, f"{case.name}: known-bad tree produced no findings"
    assert rules_hit == {intended}, (
        f"{case.name}: expected only {intended}, got {sorted(rules_hit)}"
    )
    assert result.exit_code == 1


def test_fixture_kill_count_is_total():
    killed = [case.name for case in FIXTURE_CASES
              if run_lint([case]).findings]
    assert killed == [case.name for case in FIXTURE_CASES], (
        "every fixture must be killed — a surviving fixture means a "
        "rule lost its teeth"
    )


# ------------------------------------------------------ shipped tree clean

@pytest.fixture(scope="session")
def shipped_lint():
    """One lint of the whole shipped tree, shared by every test that
    only reads its result."""
    return run_lint([SRC])


@pytest.fixture(scope="session")
def shipped_cli_json():
    """One ``repro-cli lint src --format json`` run: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["lint", str(SRC), "--format", "json"])
    return code, out.getvalue()


def test_shipped_tree_is_lint_clean(shipped_lint):
    result = shipped_lint
    assert result.findings == [], (
        "committed tree must lint clean; fix the violation or record "
        "an inline '# lint: disable=REPxxx — <reason>':\n"
        + "\n".join(f"{f.path}:{f.line}: {f.rule} {f.message}"
                    for f in result.findings)
    )
    assert result.ok and result.exit_code == 0
    # the deliberate float seams are all explained inline
    assert result.suppressed > 0


def test_shipped_tree_lints_every_module(shipped_lint):
    n_modules = len(list(SRC.rglob("*.py")))
    assert shipped_lint.files == n_modules


# ----------------------------------------------------------- CLI contract

def test_cli_exit_zero_on_clean_tree(shipped_cli_json):
    code, out = shipped_cli_json
    assert code == 0
    assert "0 finding(s)" in render_text(json.loads(out))


def test_cli_exit_one_on_findings(capsys):
    case = FIXTURES / "rep001_float_division"
    assert cli_main(["lint", str(case)]) == 1
    out = capsys.readouterr().out
    assert "REP001" in out


def test_cli_exit_two_on_unknown_rule(capsys):
    assert cli_main(["lint", str(SRC), "--rules", "REP999"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule" in err


def test_cli_exit_two_on_missing_path(capsys):
    assert cli_main(["lint", str(REPO / "no-such-dir-anywhere")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_cli_exit_two_on_update_baseline_without_baseline(capsys,
                                                           monkeypatch):
    # the usage error must come before any linting work
    def no_linting(*args, **kwargs):
        raise AssertionError("linted before validating the arguments")

    monkeypatch.setattr(LintEngine, "lint_file", no_linting)
    assert cli_main(["lint", str(SRC), "--update-baseline"]) == 2
    assert "--baseline" in capsys.readouterr().err


def test_cli_rules_filter_blinds_other_rules(capsys):
    case = FIXTURES / "rep001_float_division"
    assert cli_main(["lint", str(case), "--rules", "REP003"]) == 0
    capsys.readouterr()


def test_cli_json_document_shape(capsys):
    case = FIXTURES / "rep006_frozen_mutation"
    assert cli_main(["lint", str(case), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    # lint: disable=REP003 — pins the frozen tag verbatim
    assert doc["schema"] == LINT_SCHEMA == "profibus-rt/lint/v2"
    assert doc["ok"] is False
    assert doc["files"] == 1
    assert doc["counts"]["findings"] == len(doc["findings"]) == 2
    assert {r["id"] for r in doc["rules"]} == \
        set(ALL_RULES) | set(FLOW_RULES)
    assert set(doc["graph"]) == {"modules", "functions", "edges",
                                 "unresolved"}
    for f in doc["findings"]:
        assert set(f) == {"rule", "path", "line", "col", "message"}
        assert f["rule"] == "REP006"
    # findings arrive sorted by (path, line, col, rule)
    keys = [(f["path"], f["line"], f["col"], f["rule"])
            for f in doc["findings"]]
    assert keys == sorted(keys)


def test_cli_json_clean_tree_is_ok_document(shipped_cli_json):
    code, out = shipped_cli_json
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["findings"] == []
    assert doc["counts"]["suppressed"] > 0


def test_render_text_and_json_agree_on_counts():
    result = run_lint([FIXTURES / "rep002_wallclock"])
    doc = result.to_doc()
    assert "2 finding(s)" in render_text(doc)
    assert json.loads(render_json(doc))["counts"]["findings"] == 2


# ------------------------------------------------------------ suppressions

KERNEL_VIOLATION = """\
    def bound(total, n):
        return total / n
"""


def test_same_line_suppression(tmp_path):
    _write(tmp_path, "repro/profibus/dm.py",
           "def bound(total, n):\n"
           "    return total / n  # lint: disable=REP001 — test seam\n")
    result = run_lint([tmp_path])
    assert result.findings == []
    assert result.suppressed == 1


def test_standalone_comment_suppresses_next_line(tmp_path):
    _write(tmp_path, "repro/profibus/dm.py",
           "def bound(total, n):\n"
           "    # lint: disable=REP001 — test seam\n"
           "    return total / n\n")
    result = run_lint([tmp_path])
    assert result.findings == []
    assert result.suppressed == 1


def test_file_level_suppression(tmp_path):
    _write(tmp_path, "repro/profibus/dm.py",
           "# lint: disable-file=REP001\n"
           "def bound(total, n):\n"
           "    return total / n\n"
           "EPS = 1e-9\n")
    result = run_lint([tmp_path])
    assert result.findings == []
    assert result.suppressed == 2


def test_wrong_rule_id_does_not_suppress(tmp_path):
    _write(tmp_path, "repro/profibus/dm.py",
           "def bound(total, n):\n"
           "    return total / n  # lint: disable=REP002 — wrong rule\n")
    result = run_lint([tmp_path])
    assert [f.rule for f in result.findings] == ["REP001"]


def test_comma_list_suppresses_both_rules(tmp_path):
    _write(tmp_path, "repro/profibus/dm.py",
           "import time\n"
           "def f(x):\n"
           "    return x / time.time()  # lint: disable=REP001,REP002 — t\n")
    result = run_lint([tmp_path])
    assert result.findings == []
    assert result.suppressed == 2


# ---------------------------------------------------------------- baseline

def test_baseline_round_trip(tmp_path, capsys):
    tree = tmp_path / "tree"
    _write(tree, "repro/profibus/dm.py", KERNEL_VIOLATION)
    baseline = tmp_path / "baseline.jsonl"

    # freeze: reports clean, writes the file
    assert cli_main(["lint", str(tree), "--baseline", str(baseline),
                     "--update-baseline"]) == 0
    capsys.readouterr()
    rows = [json.loads(line)
            for line in baseline.read_text().splitlines() if line.strip()]
    assert len(rows) == 1 and rows[0]["rule"] == "REP001"

    # replay: the baselined finding is subtracted
    assert cli_main(["lint", str(tree), "--baseline", str(baseline),
                     "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"]["baselined"] == 1
    assert doc["findings"] == []

    # a NEW violation still fails while the old one stays baselined
    _write(tree, "repro/profibus/edf.py",
           "def g(x):\n    return float(x)\n")
    assert cli_main(["lint", str(tree), "--baseline", str(baseline),
                     "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"]["baselined"] == 1
    assert [f["path"] for f in doc["findings"]] == [
        str(tree / "repro/profibus/edf.py")]


def test_baseline_survives_line_drift(tmp_path):
    tree = tmp_path / "tree"
    target = _write(tree, "repro/profibus/dm.py", KERNEL_VIOLATION)
    baseline = tmp_path / "baseline.jsonl"
    run_lint([tree], baseline=baseline, update_baseline=True)
    # shift the finding down three lines; the key is line-independent
    target.write_text("# one\n# two\n# three\n" + target.read_text())
    result = run_lint([tree], baseline=baseline)
    assert result.findings == [] and result.baselined == 1


def test_corrupt_baseline_is_usage_error(tmp_path, capsys):
    tree = tmp_path / "tree"
    _write(tree, "repro/profibus/dm.py", KERNEL_VIOLATION)
    baseline = tmp_path / "baseline.jsonl"
    baseline.write_text('{"rule": "REP001"\n')
    assert cli_main(["lint", str(tree), "--baseline", str(baseline)]) == 2
    assert "bad baseline row" in capsys.readouterr().err


def test_missing_baseline_file_is_ignored(tmp_path):
    tree = tmp_path / "tree"
    _write(tree, "repro/profibus/dm.py", KERNEL_VIOLATION)
    result = run_lint([tree], baseline=tmp_path / "nonexistent.jsonl")
    assert len(result.findings) == 1 and result.baselined == 0


def test_disable_file_with_baseline_entry_for_same_file(tmp_path, capsys):
    # A file can end up both inline-suppressed AND baselined (the
    # disable-file was added after the baseline froze): the inline
    # suppression wins, the baseline row simply never matches, and the
    # run is clean — no crash, no spurious finding, no double count.
    tree = tmp_path / "tree"
    target = _write(tree, "repro/profibus/dm.py", KERNEL_VIOLATION)
    baseline = tmp_path / "baseline.jsonl"
    run_lint([tree], baseline=baseline, update_baseline=True)
    assert baseline.read_text().strip()

    target.write_text("# lint: disable-file=REP001\n" + target.read_text())
    assert cli_main(["lint", str(tree), "--baseline", str(baseline),
                     "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["findings"] == []
    assert doc["counts"]["suppressed"] == 1
    assert doc["counts"]["baselined"] == 0


def test_baseline_row_with_dead_rule_id_is_inert(tmp_path, capsys):
    # A baseline written under an older rule catalogue may list a rule
    # id that no longer exists: the row loads, matches nothing, and the
    # live findings still gate the exit code.
    tree = tmp_path / "tree"
    _write(tree, "repro/profibus/dm.py", KERNEL_VIOLATION)
    baseline = tmp_path / "baseline.jsonl"
    baseline.write_text(json.dumps(
        {"rule": "REP999", "path": "repro/gone.py",
         "message": "retired finding"}) + "\n")
    assert cli_main(["lint", str(tree), "--baseline", str(baseline),
                     "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"]["baselined"] == 0
    assert [f["rule"] for f in doc["findings"]] == ["REP001"]

    # and on an otherwise-clean tree the dead row keeps exit code 0
    clean = tmp_path / "clean"
    _write(clean, "repro/profibus/dm.py", "def ok(a, b):\n    return a + b\n")
    assert cli_main(["lint", str(clean), "--baseline", str(baseline)]) == 0
    capsys.readouterr()


# --------------------------------------------------------------- mechanics

def test_syntax_error_becomes_rep000_finding(tmp_path):
    _write(tmp_path, "repro/broken.py", "def f(:\n")
    result = run_lint([tmp_path])
    assert [f.rule for f in result.findings] == ["REP000"]
    assert result.exit_code == 1


def test_unknown_rule_raises_usage_error(tmp_path):
    with pytest.raises(LintUsageError):
        run_lint([tmp_path], rule_ids=["NOPE42"])


def test_duplicate_path_lints_once(tmp_path):
    _write(tmp_path, "repro/profibus/dm.py", KERNEL_VIOLATION)
    result = run_lint([tmp_path, tmp_path])
    assert len(result.findings) == 1 and result.files == 1


def test_out_of_scope_module_is_not_kernel_checked(tmp_path):
    # floats are fine outside the kernel-critical modules
    _write(tmp_path, "repro/profibus/bandwidth.py",
           "def frac(a, b):\n    return a / b\n")
    assert run_lint([tmp_path]).findings == []


def test_seeded_rng_construction_is_allowed(tmp_path):
    _write(tmp_path, "repro/gen/taskset.py",
           "import random\n"
           "def make(seed):\n"
           "    return random.Random(seed).randint(1, 10)\n")
    assert run_lint([tmp_path]).findings == []


def test_registry_divergent_duplicate_is_flagged(tmp_path):
    _write(tmp_path, "repro/schemas.py",
           'A_SCHEMA = "profibus-rt/api/v1"\n'
           'B_SCHEMA = "profibus-rt/api/v2"\n')
    result = run_lint([tmp_path], rule_ids=["REP003"])
    assert any("divergent versions" in f.message for f in result.findings)


def test_registry_undocumented_entry_is_flagged(tmp_path):
    _write(tmp_path, "repro/schemas.py",
           'NEW_SCHEMA = "profibus-rt/brand-new/v1"\n')
    (tmp_path / "PERF.md").write_text("# perf\nnothing documented here\n")
    result = run_lint([tmp_path], rule_ids=["REP003"])
    assert any("undocumented" in f.message for f in result.findings)


def test_partial_of_local_def_is_flagged(tmp_path):
    _write(tmp_path, "repro/anywhere.py",
           "from functools import partial\n"
           "from repro.perf.batch import pooled_map\n"
           "def run(items):\n"
           "    def worker(x, k):\n"
           "        return x + k\n"
           "    return pooled_map(partial(worker, k=2), items)\n")
    result = run_lint([tmp_path])
    assert [f.rule for f in result.findings] == ["REP004"]


def test_module_level_partial_is_accepted(tmp_path):
    _write(tmp_path, "repro/anywhere.py",
           "from functools import partial\n"
           "from repro.perf.batch import pooled_map\n"
           "def worker(x, k):\n"
           "    return x + k\n"
           "def run(items):\n"
           "    return pooled_map(partial(worker, k=2), items)\n")
    assert run_lint([tmp_path]).findings == []


# ------------------------------------------------------- registry hygiene

def test_registry_has_one_version_per_family():
    families = [schema_family(v) for v in SCHEMAS.values()]
    assert len(families) == len(set(families))
    assert set(FAMILIES.values()) == set(SCHEMAS.values())


def test_registry_values_are_well_formed():
    for name, value in SCHEMAS.items():
        assert name.endswith("_SCHEMA")
        assert value.startswith("profibus-rt/")
        assert value.rsplit("/", 1)[1].startswith("v")


def test_registry_is_documented_in_perf_md():
    perf = (REPO / "PERF.md").read_text()
    missing = [v for v in SCHEMAS.values() if v not in perf]
    assert not missing, f"PERF.md never mentions {missing}"
