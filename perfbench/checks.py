"""Correctness checks on gsrel's outputs.  Each returns None when the output
is right, or a one-line reason why the operation failed."""
from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")
INFORMATIONAL = ("closure/", "gated/")


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def report_rows(data: bytes) -> list:
    return [json.loads(line) for line in data.splitlines()]


def family_counts(rows: list) -> dict:
    """family -> [rows, cases]; the family is the law id before the '/'."""
    out: dict = {}
    for row in rows:
        counts = out.setdefault(row["law"].split("/", 1)[0], [0, 0])
        counts[0] += 1
        counts[1] += row["checks_performed"]
    return out


def check_report(rc, data: bytes, pin: dict | None, first: bytes | None) -> str | None:
    """A taxonomy report fails on a nonzero exit code, a blocking row (a
    counterexample outside the informational closure/ and gated/ laws), a
    digest that differs from the pin, or, without a pin, bytes that differ
    from the first report of the run."""
    if rc != 0:
        return f"exit code {rc}"
    blocking = [
        r["law"]
        for r in report_rows(data)
        if r["status"] == "counterexample" and not r["law"].startswith(INFORMATIONAL)
    ]
    if blocking:
        return f"{len(blocking)} blocking rows, first {blocking[0]}"
    if pin is not None:
        digest = hashlib.sha256(data).hexdigest()
        if digest != pin["sha256"]:
            return f"report sha256 {digest} differs from the pin {pin['sha256']}"
        if "md5" in pin and hashlib.md5(data).hexdigest() != pin["md5"]:
            return "report md5 differs from the pin"
    elif first is not None and data != first:
        return "report bytes differ from the first report of this run"
    return None


def _parse(semiring: str):
    return int if semiring == "nat" else Fraction


def _index(sizes, labels) -> int:
    if len(labels) != len(sizes):
        raise ValueError(f"{len(labels)} labels for a word of {len(sizes)} sorts")
    i = 0
    for size, label in zip(sizes, labels):
        i = i * size + int(label)
    return i


def check_query(query: dict, rc, data: bytes | None) -> str | None:
    """An eval arrow must equal the reference; an eq verdict, exit code and
    witness must match the answer known from construction."""
    if rc is None or data is None:
        return "crashed"
    parse = _parse(query["semiring"])
    dom_sizes, cod_sizes = query["sizes"]
    try:
        doc = json.loads(data)
        if query["kind"] == "eval":
            if rc != 0:
                return f"exit code {rc}"
            arrow = doc["arrow"]
            if [s["size"] for s in arrow["dom"]] != dom_sizes or [
                s["size"] for s in arrow["cod"]
            ] != cod_sizes:
                return "arrow boundary differs from the reference"
            got = {
                (_index(dom_sizes, r), _index(cod_sizes, c)): parse(v)
                for r, c, v in arrow["entries"]
            }
            if got != query["expected"].nonzero():
                return "arrow differs from the reference"
            return None
        want_rc, want_status = (0, "exhaustive_pass") if query["equal"] else (1, "counterexample")
        if rc != want_rc or doc["status"] != want_status:
            return f"verdict {doc['status']} (exit {rc}), expected {want_status}"
        if not query["equal"]:
            left, right = query["expected"]
            w = doc["witness"]
            i, j = _index(dom_sizes, w["row"]), _index(cod_sizes, w["col"])
            if (left.data[i][j], right.data[i][j]) != (parse(w["left"]), parse(w["right"])):
                return "witness values differ from the reference"
    except (KeyError, TypeError, ValueError, IndexError) as e:
        return f"malformed output: {e!r}"
    return None
