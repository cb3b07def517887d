"""Canonical answer forms shared by the generator (expected) and the worker (observed).

An answer is compared through the SHA-256 of its canonical JSON, so the
worker sends back digests, not whole vertex sets or bound tables.
"""
from __future__ import annotations

import hashlib
import json


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(_CANONICAL.encode(obj).encode()).hexdigest()


def point_set(points) -> list:
    """A set of integer vectors as a sorted list; tuples serialize as JSON arrays
    without the copies lists would cost."""
    return sorted(tuple(p) for p in points)


def vertex_sweep(vertices) -> dict:
    return {"vertices": point_set(vertices)}


def hrep_member(hrep_doc, verdicts) -> dict:
    return {"hrep": hrep_doc, "member": list(verdicts)}


def newton_certify(cert_ok, hull, vertices) -> dict:
    return {"cert_ok": cert_ok, "hull": point_set(hull), "vertices": point_set(vertices)}


def verify_check(name, counterexample) -> dict:
    return {"check": name, "counterexample": counterexample}
