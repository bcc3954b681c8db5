"""The console entry point."""

import json

from opident.cli import main
from test_suites import SELFTEST_RECORDS


def test_selftest_fast_prints_one_passing_record_per_line(capsys):
    assert main(["selftest", "--fast"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(records) == 19
    assert [(r["name"], r["n"]) for r in records] == SELFTEST_RECORDS
    assert all(r["seed"] == 42 for r in records)
    assert [r for r in records if not r["pass"]] == []
