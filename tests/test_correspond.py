"""Isogeny compatibility of the counting invariants, and the report formats.

The transfer lemma: a case row's invariants at any isogeny follow from the
adjoint row and the target's stabilizer data alone, so isogeny_transfer of
the adjoint row must equal the invariants computed directly at the target.
The CSV and JSON serializations must carry the same values."""

from __future__ import annotations

import csv
import io
import json

import pytest

from supercusp.correspond import (CSV_COLUMNS, compute_invariants,
                                  full_report, isogeny_transfer,
                                  matched_class, reports_csv, reports_json,
                                  transfer_data)
from supercusp.galois import kac_rows
from supercusp.padic import enumerate_inner_forms
from supercusp.rootdata import SimpleGroup, isogeny_tokens

from test_casetable import catalogue


def isogeny_pairs(top=8):
    """(adjoint group, group at another isogeny) for every catalogue type of
    rank at most top and every isogeny that the Frobenius keeps."""
    for fam, rank, tw in catalogue():
        if rank > top:
            continue
        adjoint = SimpleGroup(fam, rank, tw, "adjoint")
        for iso in isogeny_tokens(fam, rank):
            if iso == "adjoint":
                continue
            try:
                yield adjoint, SimpleGroup(fam, rank, tw, iso)
            except ValueError:
                continue


class TestIsogenyTransfer:
    def test_transfer_equals_direct_invariants(self):
        pairs = 0
        for adjoint, group in isogeny_pairs():
            for form in enumerate_inner_forms(adjoint):
                reached = []
                for host, cls, row, _ in kac_rows(adjoint, form):
                    base = transfer_data(adjoint, host, cls, row)
                    for pc in matched_class(group, form, host.associates):
                        direct = compute_invariants(group, pc, cls, row)
                        assert isogeny_transfer(base, group, pc) == direct, \
                            (group.spec_string(form.token), pc.support,
                             cls.class_id)
                        reached.append((pc.support, cls.class_id, row))
                        pairs += 1
                # the adjoint rows, folded onto this level, are exactly the
                # level's own rows
                own = [(h.support, c.class_id, r)
                       for h, c, r, _ in kac_rows(group, form)]
                assert sorted(reached, key=str) == sorted(own, key=str)
        assert pairs == 122


def _csv_value(rec, column):
    """The CSV text of one column, derived from the JSON record."""
    inv = rec["invariants"]
    if column in inv:
        return str(inv[column])
    value = rec[column]
    if column == "support":
        return " ".join(str(n) for n in value)
    if column == "fdeg":
        return json.dumps(value) if value else ""
    if value is None:
        return ""
    return str(value)


class TestSerialization:
    @pytest.mark.parametrize("spec", ["A2:adjoint:an", "G2:adjoint:*",
                                      "B3:sc:*", "2A5:adjoint:*",
                                      "D4:so:*", "E6:adjoint:*"])
    def test_csv_and_json_agree(self, spec):
        reports = full_report(spec)
        doc = reports_json(reports)
        assert json.loads(json.dumps(doc, sort_keys=True)) == doc
        text = reports_csv(reports)
        # strict parsing: every quote in a field must be doubled
        list(csv.reader(io.StringIO(text), strict=True))
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(doc["rows"])
        for got, rec in zip(rows, doc["rows"]):
            assert list(got) == list(CSV_COLUMNS)
            assert None not in got
            for column in CSV_COLUMNS:
                assert got[column] == _csv_value(rec, column), column

    def test_formal_degree_survives_csv(self):
        reports = full_report("A2:adjoint:an")
        assert reports[0].fdeg.value is not None
        (row,) = csv.DictReader(io.StringIO(reports_csv(reports)))
        assert json.loads(row["fdeg"]) == \
            reports_json(reports)["rows"][0]["fdeg"]
