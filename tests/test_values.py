"""The package's value types: the plain records are typing.NamedTuples, and
the types with arithmetic or normalisation share exact.Frozen.  One
contract holds for all fifteen, and the report path imports no module that
only code generation, introspection or CSV needs."""

from __future__ import annotations

import os
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction

import pytest

import supercusp
from supercusp.casetable import CaseEntry
from supercusp.correspond import PacketInvariants, PacketReport, full_report
from supercusp.exact import (Cyclo, CyclotomicProduct, FiniteAbelianGroup,
                             Frozen, Presentation, RatFunc,
                             group_from_presentation)
from supercusp.galois import (HIIResult, UnramifiedParam, WeightString,
                              hii_check)
from supercusp.padic import (ComponentOrbit, CuspidalClass, InnerForm,
                             ParahoricClass, enumerate_inner_forms)
from supercusp.rootdata import build_group

SRC = os.path.dirname(os.path.dirname(os.path.abspath(supercusp.__file__)))

HAND_WRITTEN = (CyclotomicProduct, FiniteAbelianGroup, RatFunc, Cyclo,
                WeightString, PacketInvariants)
RECORDS = (InnerForm, ComponentOrbit, ParahoricClass, CuspidalClass,
           UnramifiedParam, HIIResult, PacketReport, CaseEntry, Presentation)


def _run(*args):
    path = [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def samples():
    """One instance of each of the fifteen types, read off a real report
    where the type is on the report path."""
    report = next(r for r in full_report("A2:adjoint:*")
                  if r.param.gamma_abs_0 is not None)
    host = report.host
    return {
        CyclotomicProduct: report.fdeg,
        FiniteAbelianGroup: FiniteAbelianGroup((2, 6)),
        RatFunc: RatFunc((0, 2), (4, 2)),
        Cyclo: Cyclo.root_of_unity(6),
        WeightString: report.param.sl2_weights[-1],
        PacketInvariants: report.invariants,
        InnerForm: enumerate_inner_forms(build_group("A2", "adjoint"))[1],
        ComponentOrbit: next(co for r in full_report("C2:adjoint:*")
                             for co in r.host.orbits),
        ParahoricClass: host,
        CuspidalClass: report.cls,
        UnramifiedParam: report.param,
        HIIResult: hii_check(report.fdeg, report.param, 1, 3),
        PacketReport: report,
        CaseEntry: report.row,
        Presentation: group_from_presentation(2, [(2, 0), (0, 6)]),
    }


SAMPLES = samples()


def fields(x):
    return type(x)._fields if isinstance(x, tuple) else type(x).__slots__


def values(x):
    return tuple(getattr(x, name) for name in fields(x))


def rebuild(x, **changes):
    """A new value of x's type, built by its constructor from x's fields
    with the given changes."""
    return type(x)(**{**dict(zip(fields(x), values(x))), **changes})


def test_every_type_has_a_sample():
    assert set(SAMPLES) == set(HAND_WRITTEN) | set(RECORDS)
    assert all(type(x) is cls for cls, x in SAMPLES.items())
    assert all(issubclass(cls, Frozen) for cls in HAND_WRITTEN)
    assert all(issubclass(cls, tuple) for cls in RECORDS)


class TestContract:
    @pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
    def test_rebuilt_value_is_equal_with_equal_hash(self, cls):
        x = SAMPLES[cls]
        y = rebuild(x)
        assert y is not x
        assert y == x and not y != x
        assert hash(y) == hash(x)
        assert values(y) == values(x)

    # a change to each hand-written type that its constructor keeps; a
    # record takes a fresh object as its first field
    CHANGES = {
        CyclotomicProduct: lambda x: {"t_exp": x.t_exp + 1},
        FiniteAbelianGroup: lambda x: {"orders": (3,)},
        RatFunc: lambda x: {"num": (1, 1, 1)},
        Cyclo: lambda x: {"coeffs": (1, 2)},
        WeightString: lambda x: {"h": x.h + 2},
        PacketInvariants: lambda x: {"a": 2 * x.a, "b_prime": 2 * x.b_prime},
    }

    @pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
    def test_a_changed_field_breaks_equality(self, cls):
        x = SAMPLES[cls]
        change = self.CHANGES.get(cls, lambda x: {fields(x)[0]: object()})
        y = rebuild(x, **change(x))
        assert y != x and not y == x

    @pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        x = SAMPLES[cls]
        before = values(x)
        for name in fields(x):
            with pytest.raises(AttributeError):
                setattr(x, name, 0)
            with pytest.raises(AttributeError):
                delattr(x, name)
        with pytest.raises(AttributeError):
            x.extra = 0
        assert values(x) == before

    @pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
    def test_repr_names_each_field(self, cls):
        x = SAMPLES[cls]
        text = repr(x)
        assert text.startswith(f"{cls.__name__}(")
        for name, value in zip(fields(x), values(x)):
            assert f"{name}={value!r}" in text

    @pytest.mark.parametrize("cls", HAND_WRITTEN, ids=lambda c: c.__name__)
    def test_no_value_equals_a_tuple_or_a_twin_type(self, cls):
        x = SAMPLES[cls]
        twin = type("Twin", (Frozen,), {"__slots__": cls.__slots__})
        y = object.__new__(twin)
        for name, value in zip(cls.__slots__, values(x)):
            object.__setattr__(y, name, value)
        record = namedtuple("Record", cls.__slots__)(*values(x))
        for other in (values(x), record, y):
            assert x != other and other != x
        # so 2 * x can never repeat the fields
        assert not isinstance(x, tuple)

    def test_component_orbits_sort_as_field_tuples(self):
        orbits = [
            ComponentOrbit("A", 2, 1, 1, ((1, 2),)),
            ComponentOrbit("A", 1, 2, 1, ((0,),)),
            ComponentOrbit("A", 1, 1, 2, ((3,), (4,))),
            ComponentOrbit("A", 1, 1, 1, ((5,),)),
            ComponentOrbit("B", 1, 1, 1, ((0,),)),
        ]
        assert sorted(orbits) == sorted(orbits, key=tuple)
        assert [tuple(o) for o in sorted(orbits)] == sorted(map(tuple,
                                                                orbits))
        assert orbits[3] < orbits[2] < orbits[1] < orbits[0] < orbits[4]


class TestNormalisation:
    """Each normalising constructor normalises, also when it rebuilds a
    value with changed fields."""

    def test_cyclotomic_product(self):
        cp = CyclotomicProduct(2, 3, [(2, 1), (1, 1), (2, -1)])
        assert values(cp) == (Fraction(2), 3, ((1, 1),))
        assert values(rebuild(cp, phi=[(3, 1), (3, 1)])) == \
            (Fraction(2), 3, ((3, 2),))
        assert values(rebuild(cp, const=0)) == (Fraction(0), 0, ())
        assert rebuild(cp, phi=((1, 1), (1, 0))) == cp

    def test_weight_string(self):
        w = WeightString(4, -1, 0)
        assert values(w) == (4, 3, 0)
        assert values(rebuild(w, residue=6)) == (2, 1, 0)
        assert rebuild(w, order=8, residue=14) == w

    def test_finite_abelian_group(self):
        grp = FiniteAbelianGroup([2.0, 4])
        assert grp.orders == (2, 4) and type(grp.orders) is tuple
        assert rebuild(grp, orders=[3]).orders == (3,)

    def test_rat_func(self):
        f = RatFunc((2, 4), (2,))
        assert values(f) == ((1, 2), (1,))
        assert values(rebuild(f, num=(0, 0))) == ((0,), (1,))
        assert values(rebuild(f, den=(-3,))) == ((-1, -2), (3,))

    def test_cyclo(self):
        c = Cyclo(3, (Fraction(1, 2), 0))
        assert values(c) == (1, (Fraction(1, 2),))
        assert rebuild(c, conductor=4) == Cyclo.rational(Fraction(1, 2))


class TestValidation:
    CASES = {
        "PacketInvariants": "PacketInvariants(1, 2, 1, 1, 1, 1, (2,), (2,))",
        "PacketInvariants-g": "PacketInvariants(1, 1, 1, 1, 1, 1, (2,), ())",
        "FiniteAbelianGroup": "FiniteAbelianGroup((4, 2))",
        "FiniteAbelianGroup-1": "FiniteAbelianGroup((1, 4))",
        "WeightString-order": "WeightString(0, 1, 0)",
        "WeightString-h": "WeightString(1, 0, -1)",
    }

    def test_validations_raise_without_asserts(self):
        # python -O strips assert statements, and no validation may be one
        code = "\n".join([
            "from supercusp.correspond import PacketInvariants",
            "from supercusp.exact import FiniteAbelianGroup",
            "from supercusp.galois import WeightString",
            "assert False, 'asserts are on'",
            f"cases = {self.CASES!r}",
            "for name, expr in cases.items():",
            "    try:",
            "        eval(expr)",
            "    except ValueError:",
            "        print(name, 'raises')",
        ])
        proc = _run("-O", "-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[:-1] == \
            [f"{name} raises" for name in self.CASES]


def test_report_path_imports_no_code_generation_or_csv():
    code = "\n".join([
        "import sys",
        "before = set(sys.modules)",
        "import supercusp.correspond",
        "print(' '.join(sorted(set(sys.modules) - before)))",
    ])
    proc = _run("-c", code)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "supercusp.correspond" in loaded
    assert not loaded & {"dataclasses", "inspect", "csv"}
