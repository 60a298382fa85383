"""Command-by-command equivalence check between two source trees.

Runs a fixed set of smallcover commands in-process and prints one line per
command: ``<id> <exit code> <sha256 of stdout> <sha256 of stderr without
its timing lines>``.  Run it once against each tree and diff the outputs:

    PYTHONPATH=old/src python tests/equivalence.py > old.txt
    PYTHONPATH=src python tests/equivalence.py > new.txt
    diff old.txt new.txt

The commands are every catalog entry through ``catalog emit``, ``analyze``
in both formats and with two condition subsets, ``shelling`` and ``bier``;
``catalog list``; ``table1``; ``fuzz`` on the six fuzz-corpus complexes;
and generated documents (tests/test_report_pins.py's generator) through
``analyze``, ``shelling``, ``bier`` and ``shelling --order`` with a seeded
shuffle of the document's facets.  An exception that escapes cli.main is
printed as the exit code ``exception:<class>``.  ``--skip`` leaves out
commands by id, for a command that one tree cannot finish.  pytest does not
collect this file.
"""

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import smallcover
from smallcover.catalog import catalog
from smallcover.cli import main
from test_report_pins import generated_documents

FUZZ = ("cross3", "cross4", "gon6", "gon9", "rp3", "rp4")
FUZZ_SAMPLES = 40
CATALOG_COMMANDS = {
    "analyze": (),
    "analyze-json": ("--format", "json"),
    "analyze-c15": ("--conditions", "1,5"),
    "analyze-c246-json": ("--conditions", "2,4,6", "--format", "json"),
}
DOCUMENT_SEED = 2026


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(argv: list[str]) -> tuple[str, str, str]:
    """(exit code, stdout, stderr) of cli.main on argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(main(argv))
        except SystemExit as exc:  # argparse rejected the command line
            code = f"exit:{exc.code}"
        except Exception as exc:
            code = f"exception:{type(exc).__name__}"
            print(repr(exc), file=err)
    return code, out.getvalue(), err.getvalue()


def commands(tmp: Path, documents: int):
    """(id, argv) of every command, in a fixed order.  Files are written to
    tmp as they are needed."""
    yield "catalog-list", ["catalog", "list"]
    yield "table1", ["table1"]
    for name in FUZZ:
        yield f"fuzz-{name}", ["fuzz", "--complex", name, "--samples", str(FUZZ_SAMPLES)]
    for name in sorted(catalog()):
        _, text, _ = run(["catalog", "emit", name])
        yield f"emit-{name}", ["catalog", "emit", name]
        path = tmp / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        for key, extra in CATALOG_COMMANDS.items():
            yield f"{key}-{name}", ["analyze", str(path), *extra]
        yield f"shelling-{name}", ["shelling", str(path)]
        yield f"bier-{name}", ["bier", str(path)]
    rng = random.Random(DOCUMENT_SEED)
    for k, text in enumerate(generated_documents(documents)):
        path = tmp / f"gen{k}.json"
        path.write_text(text, encoding="utf-8")
        order = json.loads(text)["facets"]
        rng.shuffle(order)
        order_path = tmp / f"gen{k}-order.json"
        order_path.write_text(json.dumps(order), encoding="utf-8")
        yield f"gen{k}-analyze", ["analyze", str(path), "--format", "json"]
        yield f"gen{k}-shelling", ["shelling", str(path)]
        yield f"gen{k}-bier", ["bier", str(path)]
        yield f"gen{k}-order", ["shelling", str(path), "--order", str(order_path)]


def main_equivalence(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--documents", type=int, default=400)
    parser.add_argument("--skip", action="append", default=[], metavar="ID")
    args = parser.parse_args(argv)
    print(f"smallcover from {Path(smallcover.__file__).parent}", file=sys.stderr)
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for cid, cmd in commands(Path(tmp), args.documents):
            if cid in args.skip:
                continue
            code, out, err = run(cmd)
            # paths differ between runs, and timings between any two runs
            err = err.replace(tmp, "<tmp>")
            kept = "".join(
                line for line in err.splitlines(keepends=True)
                if not line.startswith("timing: ")
            )
            print(cid, code, digest(out.replace(tmp, "<tmp>")), digest(kept), flush=True)
            count += 1
    print(f"{count} commands", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main_equivalence())
