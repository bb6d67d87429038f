"""Every row of the golden corpus ``tests/golden/lib.jsonl`` replays to the same bytes."""

import json

from conftest import golden

make_lib = golden("make_lib")


def test_library_outcomes_match_the_golden_corpus():
    committed = make_lib.CORPUS.read_text().splitlines(keepends=True)
    # The call list comes from the seeds, never from the recorded outcomes.
    assert [json.loads(line)["call"] for line in committed] == make_lib.calls()
    mismatched = [old for old, new in zip(committed, make_lib.rows()) if old != new]
    assert not mismatched, f"{len(mismatched)} rows differ, the first: {mismatched[0]}"
