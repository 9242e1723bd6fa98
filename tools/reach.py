"""List every function in src/jkepler that no `jk` command calls.

    python3 tools/reach.py

Runs a fixed list of `jk` command lines through `jkepler.cli.main` in this
process under sys.setprofile, then prints each `def` of src/jkepler (module
functions, methods and nested functions) whose code never ran, one per line
as `file:line qualified.name`.  Output of the commands themselves is
discarded.  The list runs every suite, and one `verify --config F --format
json` with a temporary config file; it took 90 s on a 2-core VM.
"""
import ast
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "src" / "jkepler"
sys.path.insert(0, str(PKG.parent))

from jkepler import cli  # noqa: E402

ARGVS = ([["verify", "--suite", "all", "--algebra", a] for a in ("gamma:2", "gamma:3", "h:1:R", "h:3:R")]
         + [["verify", "--suite", s, "--algebra", "h:3:C"] for s in cli.SUITES]
         + [["spectrum", "--algebra", "gamma:3", "--nu", "1", "--levels", "8", "--degeneracies"],
            ["info", "--algebra", "h:3:O"],
            ["verify", "--suite", "cone", "--algebra", "h:2:R"],       # bad input: exit 2
            ["spectrum", "--algebra", "gamma:3", "--nu", "-1"]])       # bad input: exit 2


def defs(node, prefix=""):
    """(first line, qualified name) of every def under an AST node; the first
    line is that of the code object, so a decorator's line when there is one."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                yield min([child.lineno] + [d.lineno for d in child.decorator_list]), name
            yield from defs(child, name + ".")


def main() -> None:
    entered = set()
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps({"trials": 2, "nu": "1"}))
        argvs = ARGVS + [["verify", "--suite", "jordan", "--algebra", "gamma:3",
                          "--config", str(config), "--format", "json"]]
        sys.setprofile(lambda frame, event, arg: event == "call" and entered.add(
            (frame.f_code.co_filename, frame.f_code.co_firstlineno)))
        try:
            for argv in argvs:
                sink = io.TextIOWrapper(io.BytesIO())
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    cli.main(argv)
        finally:
            sys.setprofile(None)
    for path in sorted(PKG.glob("*.py")):
        for line, name in defs(ast.parse(path.read_text())):
            if (str(path), line) not in entered:
                print(f"{path.name}:{line} {name}")


if __name__ == "__main__":
    main()
