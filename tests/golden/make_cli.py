"""Write the golden corpus of ``lc`` bytes, ``tests/golden/cli.jsonl``.

    PYTHONPATH=src python3 tests/golden/make_cli.py

The argvs come from three sources, never from any output:

- every invocation of the cli-session workload of ``perfbench/cases.py`` at
  seeds 1-5 (the module is loaded read-only, writing no bytecode);
- every ``$ lc ...`` line of ``README.md``;
- every literal argv that a ``parametrize`` of ``TestExitCodes`` in
  ``tests/test_cli.py`` lists.

Each ``conic`` and ``zoom`` argv of cli-session is also run with ``--svg``.  Every
``--svg`` path is put in a temporary directory, written ``{tmp}`` in the corpus, and the
written file is recorded by its sha256.  Each distinct argv is run once,
in-process, at ``COLUMNS=80``, with ``LC_DEPTH`` unset and CPython's default
limit of 4,300 digits on int-string conversion.  The corpus has one JSON row
per argv: argv, exit code, stdout, stderr and the SVG's sha256 (or null).

A change that means to alter a row regenerates the file in the same change.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import shlex
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]
CORPUS = HERE / "cli.jsonl"
SEEDS = range(1, 6)
TMP = "{tmp}"


def _cases():
    """``perfbench/cases.py`` as a module, loaded without writing ``__pycache__``."""
    spec = importlib.util.spec_from_file_location("_golden_cases", REPO / "perfbench" / "cases.py")
    module = importlib.util.module_from_spec(spec)
    before, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = before
    return module


def _session_argvs():
    """Each cli-session argv; a ``conic`` or ``zoom`` one is followed by itself with ``--svg``
    right after the subcommand, so that it comes before any ``--``."""
    cases = _cases()
    for seed in SEEDS:
        for session in cases.cli_session(seed)["sessions"]:
            for invocation in session:
                argv = invocation["argv"]
                yield argv
                if argv[0] in ("conic", "zoom"):
                    yield [argv[0], "--svg", f"{TMP}/plot.svg", *argv[1:]]


def _readme_argvs():
    for line in (REPO / "README.md").read_text().splitlines():
        if line.startswith("$ lc "):
            yield shlex.split(line[2:])[1:]


def _refused_argvs():
    """The literal argvs of ``TestExitCodes``' parametrizations; one built from a module
    constant, such as a 2,201-digit literal, is not literal and is left out."""
    tree = ast.parse((REPO / "tests" / "test_cli.py").read_text())
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "TestExitCodes"]
    for fn in cls.body:
        for dec in getattr(fn, "decorator_list", ()):
            if not isinstance(dec, ast.Call) or ast.unparse(dec.func) != "pytest.mark.parametrize":
                continue
            if ast.literal_eval(dec.args[0]).split(",")[0] != "argv":
                continue
            for node in dec.args[1].elts:
                try:
                    value = ast.literal_eval(node)
                except ValueError:
                    continue
                yield list(value[0] if isinstance(value, tuple) else value)


def argvs() -> list[list[str]]:
    """The distinct argvs of the three sources, in first-seen order."""
    seen: dict = {}
    for source in (_session_argvs(), _readme_argvs(), _refused_argvs()):
        for argv in source:
            if "--svg" in argv:
                i = argv.index("--svg") + 1
                argv = [*argv[:i], f"{TMP}/{pathlib.PurePath(argv[i]).name}", *argv[i + 1:]]
            seen.setdefault(tuple(argv))
    return [list(argv) for argv in seen]


@contextlib.contextmanager
def pinned_environment():
    """COLUMNS=80, LC_DEPTH unset and the default int-string digit limit, restored after."""
    saved = {name: os.environ.get(name) for name in ("COLUMNS", "LC_DEPTH")}
    limit = sys.get_int_max_str_digits()
    os.environ["COLUMNS"] = "80"
    os.environ.pop("LC_DEPTH", None)
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def record(argv: list[str]) -> dict:
    """The corpus row of one argv, run in-process in a fresh temporary directory."""
    from lcfield.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        real = [arg.replace(TMP, tmp) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(real)
        svg = None
        if "--svg" in real:
            path = pathlib.Path(real[real.index("--svg") + 1])
            if path.exists():
                svg = hashlib.sha256(path.read_bytes()).hexdigest()
        return {
            "argv": argv,
            "code": code,
            "stdout": out.getvalue().replace(tmp, TMP),
            "stderr": err.getvalue().replace(tmp, TMP),
            "svg_sha256": svg,
        }


def dumps(row: dict) -> str:
    return json.dumps(row, sort_keys=True) + "\n"


def main() -> None:
    with pinned_environment():
        rows = [record(argv) for argv in argvs()]
    CORPUS.write_text("".join(map(dumps, rows)))
    print(f"{len(rows)} rows written to {CORPUS.relative_to(REPO)}")


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))
    main()
