"""Byte pins of rendered analyze reports, Sq1 witness strings included.

The digests were recorded before the graded-ring basis code was refactored;
any change to a report's bytes (a different basis monomial in a rendered
witness, a reordered key, a changed number) changes a digest.

A second pin covers generated documents: random pure complexes with
shuffled declared labels and ghost vertices, most of them outside the
theory's hypotheses, through analyze, shelling and bier.  It pins exit codes
as well as stdout.
"""

import contextlib
import hashlib
import io
import json
import random
from itertools import combinations

import pytest

from smallcover.catalog import catalog
from smallcover.cli import main, sample_random_instance
from smallcover.instancefile import emit_instance

FORMATS = ("json", "table")

# Seeded draws per complex; together they render 27 Sq1 witnesses.
RANDOM_DRAWS = {"cross4": 12, "cross5mixed": 3, "rp2xrp2": 12}
RANDOM_SEED = 2026
RANDOM_WITNESSES = 27

PINNED = {
    ("catalog", "json"): (
        "41ad6cd24ad069bea442653ace2cd5f00adc9440e7a602b04f352a635b821af6"
    ),
    ("catalog", "table"): (
        "2c5d2c2fb9800fe70bebe03ea94600531c0374443f084625cdc0f0a5b4f922d9"
    ),
    ("random", "json"): (
        "30f0ebef08c0b11a0db266ee2c22f140dc901b7ce809dff282aebfdde713cf1f"
    ),
    ("random", "table"): (
        "266a7bed6b85fbfa22d32c4a7c6200077c7af812f26977d0eac2ae1c52f290a1"
    ),
}


def catalog_instances():
    """Every catalog instance with a matrix, except the benchmark's bier9."""
    for name, entry in sorted(catalog().items()):
        if entry.chi is not None and name != "bier9":
            yield name, entry.complex, entry.chi


def random_instances():
    for name, count in RANDOM_DRAWS.items():
        rng = random.Random(RANDOM_SEED)
        for k in range(count):
            chi, _ = sample_random_instance(name, rng)
            yield f"{name}-{RANDOM_SEED}-{k}", chi.complex, chi


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """(set, format) -> the analyze stdout of each instance, in order."""
    tmp = tmp_path_factory.mktemp("pins")
    out = {}
    for set_name, instances in (
        ("catalog", catalog_instances()),
        ("random", random_instances()),
    ):
        for name, K, chi in instances:
            path = tmp / f"{name}.json"
            path.write_text(emit_instance(name, K, chi), encoding="utf-8")
            for fmt in FORMATS:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    assert main(["analyze", str(path), "--format", fmt]) == 0
                out.setdefault((set_name, fmt), []).append(buf.getvalue())
    return out


def test_random_draws_render_sq1_witnesses(reports):
    rendered = [doc for doc in reports["random", "json"] if '"sq1": {' in doc]
    assert len(rendered) == RANDOM_WITNESSES


@pytest.mark.parametrize("key", sorted(PINNED), ids="-".join)
def test_report_bytes_are_pinned(reports, key):
    digest = hashlib.sha256("".join(reports[key]).encode("utf-8")).hexdigest()
    assert digest == PINNED[key], key


# Generated documents: seed, count, and the sha256 over every (command,
# exit code, stdout) triple in order.
GENERATED_SEED = 2026
GENERATED_COUNT = 300
GENERATED_PIN = "75f94f44a0240968b949c28ba8e90610a2e7d7f157b055cee374bd929db90914"
GENERATED_COMMANDS = (("analyze", "--format", "json"), ("shelling",), ("bier",))


def _independent(cols) -> bool:
    """Whether the GF(2) column ints are linearly independent."""
    basis: dict[int, int] = {}
    for v in cols:
        while v:
            top = v.bit_length()
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
        else:
            return False
    return True


def generated_documents(count: int, seed: int = GENERATED_SEED) -> list[str]:
    """Valid instance documents: 3 to 8 labels declared in shuffled order,
    1 to 12 distinct facets of one size from 2 to 4 (some labels may be in
    none), and a matrix drawn whole, column by column, until the columns on
    every facet are independent."""
    rng = random.Random(seed)
    docs: list[str] = []
    while len(docs) < count:
        labels = list(range(1, rng.randint(3, 8) + 1))
        n = rng.randint(2, min(4, len(labels)))
        pool = list(combinations(labels, n))
        facets = sorted(rng.sample(pool, rng.randint(1, min(12, len(pool)))))
        rng.shuffle(labels)
        for _ in range(100):
            cols = {v: rng.getrandbits(n) for v in labels}
            if all(_independent([cols[v] for v in f]) for f in facets):
                break
        else:
            continue
        docs.append(json.dumps({
            "name": f"gen{len(docs)}",
            "n": n,
            "vertices": labels,
            "facets": [list(f) for f in facets],
            "lambda": [[cols[v] >> i & 1 for v in labels] for i in range(n)],
        }))
    return docs


def run_generated(tmp_path, count: int = GENERATED_COUNT) -> list[tuple[str, int, str]]:
    """(command, exit code, stdout) of every generated document through
    every command of GENERATED_COMMANDS, document by document."""
    out = []
    for k, text in enumerate(generated_documents(count)):
        path = tmp_path / f"gen{k}.json"
        path.write_text(text, encoding="utf-8")
        for command in GENERATED_COMMANDS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = main([command[0], str(path), *command[1:]])
            out.append((" ".join(command), code, buf.getvalue()))
    return out


def triples_digest(triples) -> str:
    h = hashlib.sha256()
    for command, code, stdout in triples:
        h.update(f"{command}\0{code}\0{stdout}\0".encode("utf-8"))
    return h.hexdigest()


def test_generated_documents_are_pinned(tmp_path):
    triples = run_generated(tmp_path)
    assert len(triples) == GENERATED_COUNT * len(GENERATED_COMMANDS)
    assert triples_digest(triples) == GENERATED_PIN
