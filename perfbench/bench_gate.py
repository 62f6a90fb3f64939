"""Correctness gate on one spec's canonical JSON report.

The gate reads only the serialized report, which is what a user receives,
so it checks the program's output rather than its internals.
"""

import hashlib
import json


def euler_phi(n):
    """Euler's totient, computed here so the gate does not trust the
    program's own copy."""
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def row_problems(rec):
    """Every counting identity or HII result that one report row breaks."""
    inv = rec["invariants"]
    phi = euler_phi(rec["n_s"])
    a, b, a1, b1 = inv["a"], inv["b"], inv["a_prime"], inv["b_prime"]
    out = []
    if a * b != a1 * b1:
        out.append(f"a*b = {a * b} != a'*b' = {a1 * b1}")
    if b1 != phi:
        out.append(f"b' = {b1} != phi(n_s) = {phi}")
    if b != inv["g"] * inv["g_prime"] * phi:
        out.append(f"b = {b} != g*g'*phi(n_s) = "
                   f"{inv['g'] * inv['g_prime'] * phi}")
    if rec["hii"] == "fails":
        out.append("HII fails")
    return out


def report_problems(doc, text):
    """Problems with one spec's report: broken rows, or JSON that does not
    round-trip to the same document and the same bytes."""
    out = []
    back = json.loads(text)
    if back != doc or json.dumps(back, sort_keys=True) != text:
        out.append("JSON does not round-trip")
    for i, rec in enumerate(back["rows"]):
        out.extend(f"row {i}: {p}" for p in row_problems(rec))
    return out


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def workload_digest(spec_digests):
    """One digest over every spec's digest, independent of spec order."""
    lines = "".join(f"{s} {d}\n" for s, d in sorted(spec_digests.items()))
    return digest(lines)
