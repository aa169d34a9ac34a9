"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.workloads.company import FIGURE_4_3_DDL

FIG44_SPEC = ("INTERPOSE DEPT (DEPT-NAME) ON DIV-EMP "
              "AS DIV-DEPT, DEPT-EMP.\n")

REPORT_PROGRAM = """\
PROGRAM REPORT (network / COMPANY-NAME).
  FIND ANY DIV USING DIV-NAME='MACHINERY'.
  FIND FIRST EMP WITHIN DIV-EMP.
  PERFORM WHILE (DB-STATUS = '0000')
    GET EMP.
    IF (EMP.AGE > 45)
      DISPLAY EMP.EMP-NAME.
    END-IF
    FIND NEXT EMP WITHIN DIV-EMP.
  END-PERFORM
"""

VARIABLE_VERB_PROGRAM = """\
PROGRAM CONSOLE (network / COMPANY-NAME).
  ACCEPT V.
  CALL DML(V, EMP, EMP-NAME='X').
"""


@pytest.fixture
def artifacts(tmp_path):
    ddl = tmp_path / "company.ddl"
    ddl.write_text(FIGURE_4_3_DDL)
    spec = tmp_path / "fig44.spec"
    spec.write_text(FIG44_SPEC)
    program = tmp_path / "report.cob"
    program.write_text(REPORT_PROGRAM)
    return {"ddl": str(ddl), "spec": str(spec), "program": str(program),
            "dir": tmp_path}


def test_validate_ddl(artifacts, capsys):
    assert main(["validate-ddl", artifacts["ddl"]]) == 0
    out = capsys.readouterr().out
    assert "SCHEMA NAME IS COMPANY-NAME." in out
    assert "2 record type(s)" in out


def test_validate_ddl_syntax_error(tmp_path, capsys):
    bad = tmp_path / "bad.ddl"
    bad.write_text("SCHEMA NAME COMPANY.")
    assert main(["validate-ddl", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_changes(artifacts, capsys):
    assert main(["changes", "--ddl", artifacts["ddl"],
                 "--spec", artifacts["spec"]]) == 0
    out = capsys.readouterr().out
    assert "record DEPT interposed on set DIV-EMP" in out


def test_changes_with_target_ddl(artifacts, capsys):
    assert main(["changes", "--ddl", artifacts["ddl"],
                 "--spec", artifacts["spec"], "--target-ddl"]) == 0
    out = capsys.readouterr().out
    assert "SET NAME IS DEPT-EMP." in out


def test_changes_warns_on_information_loss(artifacts, tmp_path, capsys):
    spec = tmp_path / "drop.spec"
    spec.write_text("DROP FIELD EMP.AGE FORCE.\n")
    assert main(["changes", "--ddl", artifacts["ddl"],
                 "--spec", str(spec)]) == 0
    assert "information-reducing" in capsys.readouterr().out


def test_analyze(artifacts, capsys):
    assert main(["analyze", "--ddl", artifacts["ddl"],
                 "--program", artifacts["program"]]) == 0
    out = capsys.readouterr().out
    assert "SCAN EMP VIA DIV-EMP" in out
    assert "ACCESS EMP via DIV-EMP" in out


def test_analyze_blocked_by_verb_variability(artifacts, tmp_path, capsys):
    program = tmp_path / "console.cob"
    program.write_text(VARIABLE_VERB_PROGRAM)
    assert main(["analyze", "--ddl", artifacts["ddl"],
                 "--program", str(program)]) == 1
    out = capsys.readouterr().out
    assert "verb-variability" in out


def test_convert_network(artifacts, capsys):
    assert main(["convert", "--ddl", artifacts["ddl"],
                 "--spec", artifacts["spec"],
                 "--program", artifacts["program"]]) == 0
    captured = capsys.readouterr()
    assert "FIND FIRST DEPT WITHIN DIV-DEPT" in captured.out
    assert "converted-with-warnings" in captured.err


def test_convert_relational(artifacts, capsys):
    assert main(["convert", "--ddl", artifacts["ddl"],
                 "--spec", artifacts["spec"],
                 "--program", artifacts["program"],
                 "--target-model", "relational"]) == 0
    out = capsys.readouterr().out
    assert "QUERY [" in out
    assert "FOR EACH EMP" in out


def test_convert_failure_exit_code(artifacts, tmp_path, capsys):
    spec = tmp_path / "drop.spec"
    spec.write_text("DROP FIELD EMP.AGE FORCE.\n")
    assert main(["convert", "--ddl", artifacts["ddl"],
                 "--spec", str(spec),
                 "--program", artifacts["program"]]) == 1
    assert "needs-manual-conversion" in capsys.readouterr().err


def test_convert_output_is_reparseable_and_runs(artifacts, capsys):
    main(["convert", "--ddl", artifacts["ddl"],
          "--spec", artifacts["spec"],
          "--program", artifacts["program"]])
    converted_text = capsys.readouterr().out
    from repro.programs.interpreter import run_program
    from repro.programs.parser import parse_program
    from repro.restructure import restructure_database
    from repro.workloads import company

    converted = parse_program(converted_text)
    _ts, target_db = restructure_database(
        company.company_db(seed=1979), company.figure_44_operator())
    trace = run_program(converted, target_db, consistent=False)
    assert trace is not None


def test_suggest_renames(artifacts, tmp_path, capsys):
    renamed = FIGURE_4_3_DDL.replace("AGE", "YEARS")
    target = tmp_path / "new.ddl"
    target.write_text(renamed)
    assert main(["suggest-renames", "--ddl", artifacts["ddl"],
                 "--target-ddl", str(target)]) == 0
    out = capsys.readouterr().out
    assert "EMP.AGE -> EMP.YEARS?" in out


def test_suggest_renames_none(artifacts, capsys):
    assert main(["suggest-renames", "--ddl", artifacts["ddl"],
                 "--target-ddl", artifacts["ddl"]]) == 0
    assert "no rename hypotheses" in capsys.readouterr().out


def test_missing_file(capsys):
    assert main(["validate-ddl", "/nonexistent/x.ddl"]) == 2
    assert "error:" in capsys.readouterr().err


LOADER_PROGRAM = """\
PROGRAM LOADER (network / COMPANY-NAME).
  STORE DIV (DIV-NAME='MACHINERY', DIV-LOC='DETROIT').
  STORE EMP (EMP-NAME='SMITH', DEPT-NAME='SALES', AGE=51, DIV-NAME='MACHINERY').
  STORE EMP (EMP-NAME='ADAMS', DEPT-NAME='ENG', AGE=47, DIV-NAME='MACHINERY').
  STORE EMP (EMP-NAME='YOUNG', DEPT-NAME='SALES', AGE=30, DIV-NAME='MACHINERY').
"""


@pytest.fixture
def run_artifacts(artifacts):
    data = artifacts["dir"] / "load.cob"
    data.write_text(LOADER_PROGRAM)
    artifacts["data"] = str(data)
    return artifacts


def test_run_on_source(run_artifacts, capsys):
    assert main(["run", "--ddl", run_artifacts["ddl"],
                 "--data", run_artifacts["data"],
                 "--program", run_artifacts["program"]]) == 0
    out = capsys.readouterr().out
    assert "terminal -> SMITH" in out
    assert "terminal -> ADAMS" in out
    assert "YOUNG" not in out  # age 30 filtered


def test_run_converted_on_target(run_artifacts, capsys):
    assert main(["run", "--ddl", run_artifacts["ddl"],
                 "--data", run_artifacts["data"],
                 "--program", run_artifacts["program"],
                 "--spec", run_artifacts["spec"]]) == 0
    captured = capsys.readouterr()
    assert "terminal -> SMITH" in captured.out
    assert "converted-with-warnings" in captured.err


def test_run_converted_relational_target(run_artifacts, capsys):
    assert main(["run", "--ddl", run_artifacts["ddl"],
                 "--data", run_artifacts["data"],
                 "--program", run_artifacts["program"],
                 "--spec", run_artifacts["spec"],
                 "--target-model", "relational"]) == 0
    out = capsys.readouterr().out
    assert "terminal -> SMITH" in out


def test_check_equivalence(run_artifacts, capsys):
    assert main(["check", "--ddl", run_artifacts["ddl"],
                 "--spec", run_artifacts["spec"],
                 "--data", run_artifacts["data"],
                 "--program", run_artifacts["program"]]) == 0
    out = capsys.readouterr().out
    assert "equivalent" in out


def test_check_reports_divergence(run_artifacts, tmp_path, capsys):
    """An order-dependent program without a filter diverges (grouped
    order) and check exits nonzero with both traces printed."""
    ordered = tmp_path / "ordered.cob"
    ordered.write_text("""\
PROGRAM ORDERED (network / COMPANY-NAME).
  FIND ANY DIV USING DIV-NAME='MACHINERY'.
  FIND FIRST EMP WITHIN DIV-EMP.
  PERFORM WHILE (DB-STATUS = '0000')
    GET EMP.
    DISPLAY EMP.EMP-NAME.
    FIND NEXT EMP WITHIN DIV-EMP.
  END-PERFORM
""")
    # Data where grouped order visibly differs from global name order:
    # source gives ADAMS, BAKER, CLARK; grouped gives BAKER first.
    data = tmp_path / "ordered-load.cob"
    data.write_text("""\
PROGRAM LOADER (network / COMPANY-NAME).
  STORE DIV (DIV-NAME='MACHINERY', DIV-LOC='DETROIT').
  STORE EMP (EMP-NAME='ADAMS', DEPT-NAME='SALES', AGE=41, DIV-NAME='MACHINERY').
  STORE EMP (EMP-NAME='BAKER', DEPT-NAME='ENG', AGE=42, DIV-NAME='MACHINERY').
  STORE EMP (EMP-NAME='CLARK', DEPT-NAME='SALES', AGE=43, DIV-NAME='MACHINERY').
""")
    code = main(["check", "--ddl", run_artifacts["ddl"],
                 "--spec", run_artifacts["spec"],
                 "--data", str(data),
                 "--program", str(ordered)])
    captured = capsys.readouterr()
    assert code == 1
    assert "NOT equivalent" in captured.out
    assert "source trace:" in captured.err


HIRE_PROGRAM = """\
PROGRAM HIRE (network / COMPANY-NAME).
  FIND ANY DIV USING DIV-NAME='MACHINERY'.
  STORE EMP (EMP-NAME='ZZ-HIRE', DEPT-NAME='SALES', AGE=25, DIV-NAME='MACHINERY').
  DISPLAY 'HIRED'.
"""


@pytest.fixture
def batch_artifacts(run_artifacts):
    hire = run_artifacts["dir"] / "hire.cob"
    hire.write_text(HIRE_PROGRAM)
    run_artifacts["hire"] = str(hire)
    return run_artifacts


def test_convert_batch_checkpoint_and_out_dir(batch_artifacts, capsys):
    """A repeated --program batch journals every report and writes the
    converted programs to --out-dir."""
    import json

    checkpoint = batch_artifacts["dir"] / "batch.json"
    out_dir = batch_artifacts["dir"] / "out"
    assert main(["convert", "--ddl", batch_artifacts["ddl"],
                 "--spec", batch_artifacts["spec"],
                 "--program", batch_artifacts["program"],
                 "--program", batch_artifacts["hire"],
                 "--data", batch_artifacts["data"],
                 "--checkpoint", str(checkpoint),
                 "--out-dir", str(out_dir)]) == 0
    err = capsys.readouterr().err
    assert "program(s) processed" in err
    journal = json.loads(checkpoint.read_text())
    assert [e["program"] for e in journal["completed"]] == \
        ["REPORT", "HIRE"]
    assert (out_dir / "REPORT.cob").exists()
    assert (out_dir / "HIRE.cob").exists()
    assert "STORE" in (out_dir / "HIRE.cob").read_text()


def test_convert_batch_resume_completes_remainder(batch_artifacts, capsys):
    """Truncating the journal (a simulated kill) and re-running with
    --resume converts only the unfinished program and exits 0."""
    import json

    checkpoint = batch_artifacts["dir"] / "batch.json"
    args = ["convert", "--ddl", batch_artifacts["ddl"],
            "--spec", batch_artifacts["spec"],
            "--program", batch_artifacts["program"],
            "--program", batch_artifacts["hire"],
            "--data", batch_artifacts["data"],
            "--checkpoint", str(checkpoint)]
    assert main(args) == 0
    capsys.readouterr()

    journal = json.loads(checkpoint.read_text())
    journal["completed"] = journal["completed"][:1]
    checkpoint.write_text(json.dumps(journal))

    assert main(args + ["--resume"]) == 0
    err = capsys.readouterr().err
    assert "HIRE" in err
    journal = json.loads(checkpoint.read_text())
    assert [e["program"] for e in journal["completed"]] == \
        ["REPORT", "HIRE"]


def test_convert_refuses_the_retired_strategy_order_flag(artifacts, capsys):
    with pytest.raises(SystemExit) as exited:
        main(["convert", "--ddl", artifacts["ddl"],
              "--spec", artifacts["spec"],
              "--program", artifacts["program"],
              "--strategy-order", "fixed"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --strategy-order fixed" in \
        capsys.readouterr().err


def test_convert_batch_nonzero_when_any_program_fails(batch_artifacts,
                                                      tmp_path, capsys):
    """One unconvertible program fails its batch slot (exit 1) while
    the other still converts."""
    console = tmp_path / "console.cob"
    console.write_text(VARIABLE_VERB_PROGRAM)
    assert main(["convert", "--ddl", batch_artifacts["ddl"],
                 "--spec", batch_artifacts["spec"],
                 "--program", batch_artifacts["hire"],
                 "--program", str(console),
                 "--data", batch_artifacts["data"]]) == 1
    err = capsys.readouterr().err
    assert "HIRE" in err
    assert "needs-manual-conversion" in err


def test_validate_ddl_truncated_text_names_line(tmp_path, capsys):
    """An unexpected EOF is a diagnosed syntax error with a line
    number, not a traceback."""
    bad = tmp_path / "truncated.ddl"
    bad.write_text("SCHEMA NAME IS X")
    assert main(["validate-ddl", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 1: unexpected end of DDL text" in err
    assert "Traceback" not in err
