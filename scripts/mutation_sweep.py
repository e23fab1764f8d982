#!/usr/bin/env python3
"""Statement-deletion mutation sweep: find the package code that no test pins.

For every statement of each named module of src/cohercause, the sweep
writes a mutant in which that statement is replaced by ``pass`` and runs a
pytest selection on it with ``-x`` and a time limit. Docstrings, ``pass``
and ``from __future__`` imports are not mutated. A mutant survives when
the selection passes. One mutant runs at a time, in a temporary copy of
src/, tests/, scripts/, README.md, pyproject.toml and output_digest.json
(the tests find src/ beside them), with bytecode caching off, so the
working tree is never touched. The unmutated copy must pass the selection
first.

The JSON report lists every mutant's site (module:line), the deleted
statement's first line and its outcome (killed, survived or timeout),
and repeats the survivors. It is rewritten after every mutant, and a
sweep given an existing report runs only the sites it does not record,
so a cut sweep resumes and separate sweeps of disjoint modules can share
one report in turn. Each survivor then needs a ``resolution``, written
into its entry by hand: a test that kills it, the code deleted, or a
reason to keep it.

The sweep is not part of the tier-1 suite. It runs the selection once per
mutant; with the default selection, the module's own test file first and
then the whole suite, a killed mutant usually stops within seconds and a
survivor takes a full suite run.

    python scripts/mutation_sweep.py --module coherence --module nulldist \\
        --report mutation_report.json
    python scripts/mutation_sweep.py --module simulate --only simulate:214 \\
        --tests tests/test_simulate.py --report one.json
"""
import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "cohercause")
COPIED = ("src", "tests", "scripts", "README.md", "pyproject.toml", "output_digest.json")
OUTCOMES = ("killed", "timeout", "survived")


def _docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str) and parent.body[0] is node
    )


def mutants(source: bytes):
    """(line, first source line, mutant source) for every deletable statement."""
    tree = ast.parse(source)
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    sites = []
    for parent in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(parent, field, None)
            for node in block if isinstance(block, list) else []:
                if isinstance(node, ast.Pass):
                    continue
                if _docstring(node, parent) or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"
                ):
                    continue
                # Byte offsets (col_offset counts UTF-8 bytes). A decorated
                # definition starts at its first decorator, at the def's indent.
                line = min(n.lineno for n in [node, *getattr(node, "decorator_list", [])])
                lo = starts[line - 1] + node.col_offset
                hi = starts[node.end_lineno - 1] + node.end_col_offset
                sites.append((line, lo, hi))
    for line, lo, hi in sorted(sites):
        text = source[lo:hi].decode().splitlines()[0]
        yield line, text, source[:lo] + b"pass" + source[hi:]


def run_selection(workdir: str, stages: list[list[str]], timeout: float) -> str:
    """Run each stage's pytest arguments in turn; the first failing stage kills."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.join(workdir, "src"))
    for stage in stages:
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *stage],
                cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return "timeout"
        if done.returncode in (4, 5):  # a usage error, or no test selected
            raise RuntimeError(f"pytest exited {done.returncode} on {stage}")
        if done.returncode != 0:  # failed tests (1), or an import error at collection (2)
            return "killed"
    return "survived"


def write_report(path: str, results: list[dict]) -> None:
    """The report, rewritten after every mutant, so that a cut sweep keeps its results."""
    summary = {}
    for r in results:
        counts = summary.setdefault(r["id"].split(":")[0], dict.fromkeys(OUTCOMES, 0))
        counts[r["outcome"]] += 1
    report = {
        "operator": "statement deletion (replaced by pass)",
        "summary": summary,
        "survivors": [r for r in results if r["outcome"] == "survived"],
        "mutants": results,
    }
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, ensure_ascii=False)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--module", action="append", required=True,
                        help="module of src/cohercause to mutate, e.g. coherence (repeatable)")
    parser.add_argument("--tests", nargs="+",
                        help="pytest selection (default: tests/test_<module>.py, then tests)")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="seconds one selection may run; a slower mutant counts as killed")
    parser.add_argument("--only", action="append",
                        help="run only the mutant at this module:line (repeatable)")
    parser.add_argument("--report", required=True,
                        help="JSON report; the sites it already records are not run again")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="mutation-") as workdir:
        for name in COPIED:
            src = os.path.join(ROOT, name)
            if os.path.isdir(src):
                shutil.copytree(src, os.path.join(workdir, name),
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, workdir)

        def stages(module: str) -> list[list[str]]:
            own = os.path.join("tests", f"test_{module}.py")
            if args.tests or not os.path.exists(os.path.join(workdir, own)):
                return [args.tests or ["tests"]]
            return [[own], ["tests", f"--ignore={own}"]]

        if run_selection(workdir, [args.tests or ["tests"]], args.timeout) != "survived":
            print("the unmutated code fails the selection; nothing to sweep", file=sys.stderr)
            return 1
        results = []
        if os.path.exists(args.report):
            with open(args.report) as fh:
                results = json.load(fh)["mutants"]
        done = {r["id"] for r in results}
        for module in args.module:
            path = os.path.join(workdir, PACKAGE, f"{module}.py")
            with open(path, "rb") as fh:
                original = fh.read()
            try:
                for line, text, mutant in mutants(original):
                    site = f"{module}:{line}"
                    if site in done or (args.only and site not in args.only):
                        continue
                    with open(path, "wb") as fh:
                        fh.write(mutant)
                    outcome = run_selection(workdir, stages(module), args.timeout)
                    results.append({"id": site, "statement": text, "outcome": outcome})
                    write_report(args.report, results)
                    print(f"{site:<18} {outcome:<8} {text}", flush=True)
            finally:
                with open(path, "wb") as fh:
                    fh.write(original)
    write_report(args.report, results)
    survived = sum(r["outcome"] == "survived" for r in results)
    print(f"{len(results)} mutants, {survived} survived -> {args.report}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
