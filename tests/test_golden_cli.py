"""Every row of the golden corpus ``tests/golden/cli.jsonl`` replays to the same bytes."""

import importlib.util
import json
import pathlib

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("make_cli", GOLDEN / "make_cli.py")
make_cli = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_cli)


def test_cli_bytes_match_the_golden_corpus():
    committed = make_cli.CORPUS.read_text().splitlines(keepends=True)
    # The argv list comes from the sources, never from the recorded outputs.
    assert [json.loads(line)["argv"] for line in committed] == make_cli.argvs()
    with make_cli.pinned_environment():
        replayed = [make_cli.dumps(make_cli.record(argv)) for argv in make_cli.argvs()]
    mismatched = [old for old, new in zip(committed, replayed) if old != new]
    assert not mismatched, f"{len(mismatched)} rows differ, the first: {mismatched[0]}"
