"""The census recorder, run in-process on the quickstart example: it sees
what the example enters and what only tests enter."""

from __future__ import annotations

import runpy

from tests.census import PACKAGE, ROOT, LineRecorder, report


def test_quickstart_reaches_commit_but_not_rollback(capsys):
    recorder = LineRecorder(ROOT / PACKAGE)
    with recorder:
        runpy.run_path(
            str(ROOT / "examples" / "quickstart.py"), run_name="__main__"
        )
    assert "OK" in capsys.readouterr().out
    unentered, unreached = report(
        ROOT / PACKAGE, recorder.entered, recorder.lines
    )
    assert "PrimaryDatabase.commit" not in unentered["db/primary.py"]
    assert "PrimaryDatabase.rollback" in unentered["db/primary.py"]
    assert "TransactionManager.rollback" in unentered["txn/manager.py"]
    # an entered function's branches the example never takes are listed
    assert any(rel == "db/primary.py" for rel, __ in unreached)
