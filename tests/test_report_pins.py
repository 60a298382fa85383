"""Byte pins of rendered analyze reports, Sq1 witness strings included.

The digests were recorded before the graded-ring basis code was refactored;
any change to a report's bytes (a different basis monomial in a rendered
witness, a reordered key, a changed number) changes a digest.
"""

import contextlib
import hashlib
import io
import random

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
