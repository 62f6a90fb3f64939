"""Every report up to MAX_RANK, pinned.

The spec list comes from the untwisted types of `typespace.types(MAX_RANK)`:
each with twist prefix none, 2 or 3 and each token of `isogeny_tokens`, so
the sweep also runs the prefixes and tokens a type refuses.  `full_report`
runs on every such TYPE:ISOGENY:* spec.  A spec that builds is hashed with
its canonical JSON (sort_keys) and its CSV; one that raises, with its
exception type and text.  One SHA-256 per (family, twist prefix) says
where a change landed.  A change that alters a report or an error text on
purpose edits these digests, in the open.  The sweep and the report
digests of test_report_digests are also recomputed in a fresh interpreter
under two fixed hash seeds."""

from __future__ import annotations

import ast
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

from supercusp.correspond import full_report, reports_csv, reports_json
from supercusp.rootdata import MAX_RANK, isogeny_tokens
from test_report_digests import SPEC_DIGESTS
from typespace import types

SWEEP_DIGESTS = {
    ("A", ""):
        "892e7d5cdcd39bea63be5676265bc2d70c0f314710b62a026ed03b6605e0f4e5",
    ("A", "2"):
        "5821960bd38ab8840da577529f46c46a338e02cb4ff31bbe762cefd29ef91eac",
    ("A", "3"):
        "9ba05ccb7231069d6f7cf51238cbe06c645c7d87a0668ca77a6512e156fcc684",
    ("B", ""):
        "e4e7e6bad2b9de1d547afb2eb5ecb95e3e1c5b03e5301c3cde48bd383b39d688",
    ("B", "2"):
        "b252c5ff896bb260ae8f6d7a8a108cfc19908739ab9c51c8bd93fb5b9b25180e",
    ("B", "3"):
        "962fb6ae17f48f310e922c00e0a31825152391e1c6268fab8a504d011f0241bc",
    ("C", ""):
        "13679bc527d055f1e0ba3e5d86cfc714ff71af6530a9f6b4f16a2119ce488caa",
    ("C", "2"):
        "a0456122662af18afd8d2342c54b3d00d67771dafb421cefd78bfe91ee149e4b",
    ("C", "3"):
        "a1f3a59de3a66af8c3feeb56d086c44c517fcb99f43ba813aa92a4d72176455b",
    ("D", ""):
        "d9f6ab74282773ea28ed24cecb15252f1bb6ce2b8647f770ef74e5b442375f4b",
    ("D", "2"):
        "ab17c9c8c7c21b782db515a443b6c8ba63e3d244bdc95e27b83771509f13a196",
    ("D", "3"):
        "ec1862559737a3970d6100f890438d733ca4d17d6f20cb974661ae9c250922d8",
    ("E", ""):
        "31854c58163044af951daccbd6af9710c63ff3ba158e920ffa5732e5c129984a",
    ("E", "2"):
        "5509aba0ac87497159c3dc15c496c8d96a2dca9d13e3b9eef656e61902469906",
    ("E", "3"):
        "6fe7e9b8fd8970bdb21996389baf9f7e11b93218f3665853d56479314f598bc8",
    ("F", ""):
        "fb8a4234548f2b365bf2782224da5f6003025354496b380e636439360e080b3c",
    ("F", "2"):
        "09531804c79a638807d4c5710929d0b6c2ad1a60f158cda8a6469167bd2c6072",
    ("F", "3"):
        "dc10ea223a11d22dea9749eb71407ccf1ffe6113d0d5111be1c0d091eec1b6d7",
    ("G", ""):
        "dbc53ab6445e8f62d52defd69f787436d8ea97f6171332e5ed50a6427c32d3b5",
    ("G", "2"):
        "9484d04ff9a0e64ac6fd9116cc3c5df07c985a6835eb78b0c0cb4b45ea3312e1",
    ("G", "3"):
        "4046ac4193196ad54f99e865d7faae52d0046dc129ac1f61c2be7820c370c66a",
}


def sweep_specs():
    """(family, twist prefix, spec) for every spec of the sweep."""
    for fam, rank, _ in [key for key in types(MAX_RANK) if key[2] == 1]:
        for prefix in ("", "2", "3"):
            for iso in isogeny_tokens(fam, rank):
                yield fam, prefix, f"{prefix}{fam}{rank}:{iso}:*"


@lru_cache(maxsize=None)
def sweep():
    """(digest per (family, prefix), outcome counter, report lines)."""
    hashers, outcomes, lines = {}, Counter(), 0
    for fam, prefix, spec in sweep_specs():
        try:
            reports = full_report(spec)
        except ValueError as exc:
            outcomes[type(exc).__name__] += 1
            text = f"{type(exc).__name__}: {exc}"
        else:
            outcomes["report"] += 1
            lines += len(reports)
            text = json.dumps(reports_json(reports), sort_keys=True) \
                + "\n" + reports_csv(reports)
        hasher = hashers.setdefault((fam, prefix), hashlib.sha256())
        hasher.update(f"{spec}\n{text}\n".encode())
    return ({key: h.hexdigest() for key, h in hashers.items()}, outcomes,
            lines)


def test_sweep_size():
    # the spec list cannot shrink unseen: 343 reports, 326 refusals of a
    # bad twist or isogeny, and the 2D15 w1 finding
    _, outcomes, lines = sweep()
    assert sum(outcomes.values()) == 672
    assert outcomes == {"report": 343, "ValueError": 326,
                        "CorrespondenceError": 3}
    assert lines == 785


def test_sweep_digests():
    digests, _, _ = sweep()
    assert digests == SWEEP_DIGESTS


@pytest.mark.parametrize("seed", ["0", "4242"])
def test_the_same_under_fixed_hash_seeds(seed):
    # string hashes, and so the order of sets of strings, move with
    # PYTHONHASHSEED; the reports must not.  A fresh interpreter under a
    # fixed seed recomputes the sweep and every report digest.
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests),
            os.environ.get("PYTHONPATH", "")]
    code = ("from test_report_digests import SPEC_DIGESTS, digest\n"
            "from test_report_sweep import sweep\n"
            "digests, outcomes, lines = sweep()\n"
            "print(repr((digests, dict(outcomes), lines,"
            " {spec: digest(spec) for spec in SPEC_DIGESTS})))\n")
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONHASHSEED=seed,
                 PYTHONPATH=os.pathsep.join(filter(None, path))))
    assert run.returncode == 0, run.stderr
    digests, outcomes, lines, specs = ast.literal_eval(run.stdout)
    _, here, here_lines = sweep()
    assert digests == SWEEP_DIGESTS
    assert (outcomes, lines) == (dict(here), here_lines)
    assert specs == SPEC_DIGESTS
