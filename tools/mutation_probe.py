"""Mutation probe: how many one-operator mutants of some functions do the
tests kill?

    python tools/mutation_probe.py src/gmacfb/verification.py _feasible_span \
        -- tests/test_acceptance.py -k "rate_scan or feasibility"

Each mutant flips one comparison (< and <=, > and >=, == and !=) or one
arithmetic operator (+ and -, * and /, in place or not) inside the named
functions, nested ones included. It is written into a copy of the
checkout in a temporary directory (under --workdir if given), never into
the checkout itself, and the pytest selection after `--` runs on it with
-x, the known-red tightness criterion deselected. A mutant is killed if
the run fails or times out. Prints one line per surviving site and the
kill count. Not part of the test suite: a run takes one pytest run per
site.
"""

from __future__ import annotations

import argparse
import ast
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
         ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
KNOWN_RED = "tests/test_acceptance.py::test_criterion_1_tightness_below_threshold"
# Seconds per pytest run; a mutant that runs longer (a loop that no longer
# ends) counts as killed.
TIMEOUT_S = 600.0


def sites(tree: ast.Module, names: set[str]) -> list[tuple[ast.AST, int]]:
    """(node, operator index) of every flippable operator in the named
    functions, in a fixed walk order."""
    found = []
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef) and func.name in names:
            for node in ast.walk(func):
                arithmetic = isinstance(node, (ast.BinOp, ast.AugAssign))
                ops = node.ops if isinstance(node, ast.Compare) else [node.op] if arithmetic else []
                found += [(node, i) for i, op in enumerate(ops) if type(op) in FLIPS]
    return found


def mutant(source: str, names: set[str], k: int) -> tuple[str, str]:
    """The source with site k flipped, and a label for the site."""
    tree = ast.parse(source)
    node, i = sites(tree, names)[k]
    label = f"line {node.lineno}: {ast.unparse(node)}"
    if isinstance(node, ast.Compare):
        node.ops[i] = FLIPS[type(node.ops[i])]()
    else:
        node.op = FLIPS[type(node.op)]()
    return ast.unparse(tree), label


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="path of the module, relative to the checkout")
    parser.add_argument("functions", nargs="+")
    parser.add_argument("--workdir", default=None, help="directory for the temporary copy")
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args, selection = parser.parse_args(argv[:split]), argv[split + 1:]
    names = set(args.functions)
    root = Path(__file__).resolve().parent.parent
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(root, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis"))
        target = tree / args.module
        source = target.read_text()

        def killed() -> bool:
            cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--deselect", KNOWN_RED,
                   *selection]
            try:
                return subprocess.run(cmd, cwd=tree, capture_output=True, timeout=TIMEOUT_S).returncode != 0
            except subprocess.TimeoutExpired:
                return True

        if killed():
            sys.exit("the selection fails on the unmutated code")
        total = len(sites(ast.parse(source), names))
        kills = 0
        for k in range(total):
            text, label = mutant(source, names, k)
            target.write_text(text)
            if killed():
                kills += 1
            else:
                print(f"survived: {label}")
        print(f"{kills} of {total} mutants killed in {', '.join(sorted(names))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
