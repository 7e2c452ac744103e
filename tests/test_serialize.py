import math

import numpy as np
import pytest

from ncorlicz import InputError, JumpFunction, PowerFunction, make_algebra
from ncorlicz.sampling import rand_core_element, rand_element, rand_functional, rand_isomorphism
from ncorlicz.serialize import (algebra_from_obj, algebra_to_obj, core_from_obj,
                                core_to_obj, dumps_report, element_from_obj,
                                element_to_obj, functional_from_obj, functional_to_obj,
                                isomorphism_from_obj, isomorphism_to_obj, loads,
                                orlicz_from_obj, orlicz_to_obj, tabulate)


def test_algebra_round_trip():
    alg = make_algebra([2, 1], [1.0, 2.0])
    assert algebra_from_obj(algebra_to_obj(alg)) == alg


def test_algebra_schema_errors():
    with pytest.raises(InputError):
        algebra_from_obj({"blocks": [{"dim": 0, "weight": 1.0}]})
    with pytest.raises(InputError):
        algebra_from_obj({"blocks": [{"dim": 2}]})
    with pytest.raises(InputError):
        algebra_from_obj({"blocks": [{"dim": 2, "weight": -1.0}]})


def test_element_round_trip(m2m3, rng):
    x = rand_element(rng, m2m3)
    y = element_from_obj(m2m3, element_to_obj(x))
    assert y.allclose(x, 0.0)


def test_functional_round_trip(m2m3, rng):
    phi = rand_functional(rng, m2m3)
    psi = functional_from_obj(m2m3, functional_to_obj(phi))
    assert psi.density_element().allclose(phi.density_element(), 0.0)


def test_element_schema_errors(m2):
    with pytest.raises(InputError):
        element_from_obj(m2, {"blocks": [[[[1, 0]]]]})  # wrong dimension
    with pytest.raises(InputError):
        element_from_obj(m2, {"blocks": [[[[1, 0], [0, 0]], [[0], [0, 0]]]]})


def test_nan_rejected_everywhere(m2):
    with pytest.raises(InputError):
        loads('{"blocks": [[[[NaN, 0], [0, 0]], [[0, 0], [0, 0]]]]}')
    with pytest.raises(InputError):
        loads('{"x": Infinity}')
    with pytest.raises(InputError, match="non-finite"):
        element_from_obj(m2, {"blocks": [[[[1e999, 0], [0, 0]], [[0, 0], [0, 0]]]]})


def test_malformed_json_reports_location():
    with pytest.raises(InputError, match="line"):
        loads('{"blocks": [')


def test_orlicz_round_trip():
    for obj in ({"family": "power", "p": 2.0}, {"family": "linf"}, {"family": "cosh1"},
                {"family": "exp1"}, {"family": "scaled-power", "p": 3.0},
                {"family": "table", "points": [[0.0, 0.0], [1.0, 1.0], [2.0, 4.0]]}):
        phi = orlicz_from_obj(obj)
        back = orlicz_from_obj(orlicz_to_obj(phi))
        for t in (0.0, 0.5, 1.0, 1.9):
            assert back(t) == phi(t)
    with pytest.raises(InputError):
        orlicz_from_obj({"family": "mystery"})


@pytest.mark.parametrize("obj, match", [
    ({"family": "scaled-power", "p": 0}, "p >= 1"),
    ({"family": "scaled-power", "p": 0.5}, "p >= 1"),
    ({"family": "table", "points": [1, 2]}, r"points\[0\]: expected a \[t, value\] pair"),
    ({"family": "table", "points": [[1]]}, r"points\[0\]: expected a \[t, value\] pair"),
    ({"family": "table", "points": [[0, 0], [1, 1, 1]]}, r"points\[1\]"),
    ({"family": "table", "points": [[0, 0], {"t": 1}]}, r"points\[1\]")],
    ids=["p0", "p-half", "flat-points", "short-point", "long-point", "dict-point"])
def test_malformed_orlicz_objects_are_input_errors(obj, match):
    with pytest.raises(InputError, match=match):
        orlicz_from_obj(obj)


def test_tabulate_linf_safe():
    tab = tabulate(JumpFunction(1.0))
    assert tab.finiteness_bound <= 1.0
    assert tab(0.5) == 0.0 and tab(1.5) == math.inf


def test_core_round_trip(m2m3, rng):
    core = rand_core_element(rng, m2m3, pieces=3)
    back = core_from_obj(m2m3, core_to_obj(core))
    assert len(back.pieces) == len(core.pieces)
    for (p, iv), (q, jv) in zip(back.pieces, core.pieces):
        assert p.allclose(q, 0.0)
        assert float(iv.a) == float(jv.a)
    obj = core_to_obj(core)
    # "inf" is the only non-numeric endpoint token
    for piece in obj["pieces"]:
        b = piece["interval"][1]
        assert isinstance(b, float) or b == "inf"


def test_core_infinite_left_rejected(m2):
    with pytest.raises(InputError):
        core_from_obj(m2, {"pieces": [{"interval": ["inf", 1.0],
                                       "element": {"blocks": [[[[0, 0], [0, 0]],
                                                               [[0, 0], [0, 0]]]]}}]})


def test_isomorphism_round_trip(rng):
    alg = make_algebra([2, 2], [1.0, 1.0])
    iso = rand_isomorphism(rng, alg)
    back = isomorphism_from_obj(alg, isomorphism_to_obj(iso))
    assert back.permutation == iso.permutation
    x = rand_element(rng, alg)
    assert back.apply(x).allclose(iso.apply(x), 1e-12)


def test_isomorphism_schema_errors():
    alg = make_algebra([2, 2], [1.0, 1.0])
    with pytest.raises(InputError):
        isomorphism_from_obj(alg, {"permutation": [0, 0], "unitaries": []})


EYE2 = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]


OVERLAPPING_CORE = {"pieces": [{"interval": [0, 2], "element": {"blocks": [EYE2, EYE2]}},
                               {"interval": [1, 3], "element": {"blocks": [EYE2, EYE2]}}]}
NON_UNITARY_ISO = {"permutation": [0, 1],
                   "unitaries": [EYE2, [[[2, 0], [0, 0]], [[0, 0], [1, 0]]]]}


@pytest.mark.parametrize("read, obj, cls, module, message", [
    (core_from_obj, OVERLAPPING_CORE, "CoreElement", "ncorlicz.core_model",
     r"^invalid core element: intervals \[0, 2\) and \[1, 3\) overlap$"),
    (isomorphism_from_obj, NON_UNITARY_ISO, "Isomorphism", "ncorlicz.functorial",
     r"^invalid isomorphism: matrix 1 is not unitary$")])
def test_only_validation_errors_become_input_errors(read, obj, cls, module, message,
                                                    monkeypatch):
    # A constructor's ValidationError is bad input; any other exception is a
    # fault in the library and must not be reported as an input error.
    alg = make_algebra([2, 2], [1.0, 1.0])
    with pytest.raises(InputError, match=message):
        read(alg, obj)

    def broken(self, *args):
        raise TypeError(f"a bug in {cls}")

    monkeypatch.setattr(f"{module}.{cls}.__init__", broken)
    with pytest.raises(TypeError, match=f"^a bug in {cls}$"):
        read(alg, obj)


@pytest.mark.parametrize("obj", [{"permutation": [0, 1], "unitaries": 3},
                                 {"permutation": [0, 1], "unitaries": [EYE2]},
                                 {"permutation": [0, "1"], "unitaries": [EYE2, EYE2]},
                                 {"permutation": [0, 1.0], "unitaries": [EYE2, EYE2]},
                                 {"permutation": [False, True], "unitaries": [EYE2, EYE2]}])
def test_isomorphism_malformed_fields_are_input_errors(obj):
    with pytest.raises(InputError):
        isomorphism_from_obj(make_algebra([2, 2], [1.0, 1.0]), obj)


@pytest.mark.parametrize("blocks", [5, "blocks", {"dim": 2, "weight": 1.0}, None])
def test_algebra_blocks_must_be_a_list(blocks):
    with pytest.raises(InputError, match="list"):
        algebra_from_obj({"blocks": blocks})


@pytest.mark.parametrize("pieces", [7, "pieces", None])
def test_core_pieces_must_be_a_list(m2, pieces):
    with pytest.raises(InputError, match="list"):
        core_from_obj(m2, {"pieces": pieces})


def test_dumps_report_determinism_and_digits():
    obj = {"norm": 5.0, "tiny": 1e-300, "third": 1.0 / 3.0, "n": 3, "ok": True,
           "items": [1.5, "x", None]}
    out = dumps_report(obj)
    assert out == dumps_report(obj)
    assert '"norm":5.0' in out
    assert "0.33333333333333331" in out  # 17 significant digits
    with pytest.raises(InputError):
        dumps_report({"bad": math.inf})
