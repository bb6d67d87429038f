"""The README's examples run as written: its library block, and each ``$ lc ...``
command against the output printed under it."""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from lcfield.cli import main

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)


def lc_examples():
    """``(argv, stdout)`` for each ``$ lc ...`` line of the README's shell blocks; an
    example's output is the lines under it, up to a blank line."""
    examples = []
    for block in fenced_blocks("sh"):
        for chunk in block.split("\n\n"):
            command, *output = chunk.strip("\n").split("\n")
            if command.startswith("$ lc "):
                stdout = "".join(f"{line}\n" for line in output)
                examples.append((shlex.split(command[2:])[1:], stdout))
    return examples


def run_library_block():
    """Runs the README's python block; returns what it printed and what the ``# ...``
    comments on its ``print`` lines say it prints."""
    (block,) = fenced_blocks("python")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block, "README.md", "exec"), {})
    promised = "".join(f"{text}\n" for text in re.findall(r"^print\(.*\) +# (.*)$", block, re.M))
    return printed.getvalue(), promised


def test_library_block_runs():
    printed, promised = run_library_block()
    assert promised and printed == promised


EXAMPLES = lc_examples()


def test_every_subcommand_has_an_example():
    assert sorted(argv[0] for argv, _ in EXAMPLES) == [
        "conic", "diff", "eval", "seq", "shadow", "tlh", "zoom"
    ]


@pytest.mark.parametrize("argv, stdout", EXAMPLES, ids=[argv[0] for argv, _ in EXAMPLES])
def test_lc_example(capsys, monkeypatch, tmp_path, argv, stdout):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (stdout, "")
    if "--svg" in argv:
        assert "<svg" in (tmp_path / argv[argv.index("--svg") + 1]).read_text()
