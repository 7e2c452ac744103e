"""JSON and CSV codecs for every file format the CLI accepts or emits.

Readers reject NaN/Infinity everywhere; the only non-numeric token
allowed is the string "inf" as the right endpoint of a core interval.
The writer serializes floats with 17 significant digits and keeps
dictionary insertion order, so a report built deterministically prints
byte-identically.  The core, isomorphism and Orlicz-function codecs import
``core_model``, ``functorial`` and ``orliczfn`` when called, so a command
that reads none of them does not load them.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING

import numpy as np

from .algebra import AlgebraDescriptor, Element, Functional, make_algebra
from .errors import InputError, ValidationError

if TYPE_CHECKING:
    from .core_model import CoreElement
    from .functorial import Isomorphism
    from .orliczfn import OrliczFunction, TabulatedFunction


def _reject_constant(token):
    raise InputError(f"non-finite constant {token!r} is not accepted")


def loads(text: str):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}") from exc


def load_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return loads(text)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _finite_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{where}: expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise InputError(f"{where}: non-finite number")
    return value


# ---------------------------------------------------------------------------
# algebras


def algebra_from_obj(obj) -> AlgebraDescriptor:
    if not isinstance(obj, dict) or "blocks" not in obj:
        raise InputError('algebra file must look like {"blocks": [{"dim": ..., "weight": ...}]}')
    if not isinstance(obj["blocks"], list):
        raise InputError("algebra blocks must be a list")
    dims, weights = [], []
    for k, blk in enumerate(obj["blocks"]):
        if not isinstance(blk, dict) or "dim" not in blk or "weight" not in blk:
            raise InputError(f"blocks[{k}] must carry dim and weight")
        d = blk["dim"]
        if isinstance(d, bool) or not isinstance(d, int) or d < 1:
            raise InputError(f"blocks[{k}].dim must be a positive integer")
        dims.append(d)
        w = _finite_number(blk["weight"], f"blocks[{k}].weight")
        if w <= 0:
            raise InputError(f"blocks[{k}].weight must be positive")
        weights.append(w)
    return make_algebra(dims, weights)


def algebra_to_obj(algebra: AlgebraDescriptor) -> dict:
    return {"blocks": [{"dim": d, "weight": w}
                       for d, w in zip(algebra.block_dims, algebra.weights)]}


# ---------------------------------------------------------------------------
# elements and functionals (same block schema: row-major [re, im] entries)


def _matrix_from_obj(obj, dim: int, where: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != dim:
        raise InputError(f"{where}: expected {dim} rows")
    out = np.empty((dim, dim), dtype=np.complex128)
    for r, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != dim:
            raise InputError(f"{where}[{r}]: expected {dim} entries")
        for c, entry in enumerate(row):
            if not isinstance(entry, list) or len(entry) != 2:
                raise InputError(f"{where}[{r}][{c}]: expected [re, im]")
            out[r, c] = complex(_finite_number(entry[0], f"{where}[{r}][{c}].re"),
                                _finite_number(entry[1], f"{where}[{r}][{c}].im"))
    return out


def _blocks_from_obj(obj, algebra: AlgebraDescriptor, where: str) -> list[np.ndarray]:
    if not isinstance(obj, dict) or "blocks" not in obj:
        raise InputError(f'{where} must look like {{"blocks": [[[...]]]}}')
    blocks = obj["blocks"]
    if not isinstance(blocks, list) or len(blocks) != algebra.nblocks:
        raise InputError(f"{where}: expected {algebra.nblocks} blocks")
    return [_matrix_from_obj(b, d, f"{where}.blocks[{i}]")
            for i, (b, d) in enumerate(zip(blocks, algebra.block_dims))]


def element_from_obj(algebra: AlgebraDescriptor, obj) -> Element:
    return Element(algebra, _blocks_from_obj(obj, algebra, "element"))


def functional_from_obj(algebra: AlgebraDescriptor, obj) -> Functional:
    return Functional(algebra, _blocks_from_obj(obj, algebra, "functional"))


def _matrix_to_obj(m: np.ndarray) -> list:
    return [[[float(m[r, c].real), float(m[r, c].imag)] for c in range(m.shape[1])]
            for r in range(m.shape[0])]


def element_to_obj(x: Element) -> dict:
    return {"blocks": [_matrix_to_obj(b) for b in x.blocks]}


def functional_to_obj(phi: Functional) -> dict:
    return {"blocks": [_matrix_to_obj(b) for b in phi.densities]}


# ---------------------------------------------------------------------------
# Orlicz functions


def orlicz_from_obj(obj) -> OrliczFunction:
    from .orliczfn import (CoshMinusOne, ExpMinusOne, JumpFunction, PowerFunction,
                           TabulatedFunction, from_name)

    if isinstance(obj, str):
        return from_name(obj)
    if not isinstance(obj, dict) or "family" not in obj:
        raise InputError('Orlicz file must carry a "family"')
    fam = obj["family"]
    if fam == "power":
        return PowerFunction(_finite_number(obj.get("p", 2.0), "p"),
                             coef=_finite_number(obj.get("coef", 1.0), "coef"))
    if fam == "scaled-power":
        p = _finite_number(obj.get("p", 2.0), "p")
        if not p >= 1.0:
            raise InputError(f"p: scaled-power exponent must satisfy p >= 1, got {p!r}")
        return PowerFunction(p, coef=1.0 / p)
    if fam == "linf":
        return JumpFunction(1.0)
    if fam == "jump":
        return JumpFunction(_finite_number(obj.get("bound", 1.0), "bound"))
    if fam == "cosh1":
        return CoshMinusOne()
    if fam == "exp1":
        return ExpMinusOne()
    if fam == "table":
        pts = obj.get("points")
        if not isinstance(pts, list):
            raise InputError("table family needs points")
        for k, p in enumerate(pts):
            if not (isinstance(p, list) and len(p) == 2):
                raise InputError(f"points[{k}]: expected a [t, value] pair, got {p!r}")
        return TabulatedFunction([(_finite_number(p[0], f"points[{k}][0]"),
                                   _finite_number(p[1], f"points[{k}][1]"))
                                  for k, p in enumerate(pts)])
    raise InputError(f"unknown Orlicz family {fam!r}")


def orlicz_to_obj(phi: OrliczFunction) -> dict:
    from .orliczfn import (CoshMinusOne, ExpMinusOne, JumpFunction, PowerFunction,
                           TabulatedFunction)

    if isinstance(phi, PowerFunction):
        if phi.coef == 1.0:
            return {"family": "power", "p": phi.p}
        if phi.coef == 1.0 / phi.p:
            return {"family": "scaled-power", "p": phi.p}
        return {"family": "power", "p": phi.p, "coef": phi.coef}
    if isinstance(phi, JumpFunction):
        return {"family": "linf"} if phi.bound == 1.0 else {"family": "jump", "bound": phi.bound}
    if isinstance(phi, CoshMinusOne):
        return {"family": "cosh1"}
    if isinstance(phi, ExpMinusOne):
        return {"family": "exp1"}
    if isinstance(phi, TabulatedFunction):
        return {"family": "table",
                "points": [[float(t), float(v)] for t, v in zip(phi.ts, phi.vs)]}
    raise InputError(f"{phi.label()} has no JSON family; tabulate it first")


def tabulate(phi: OrliczFunction) -> TabulatedFunction:
    """Sample phi at 0 and on a 49-point log grid over [1e-3, 1e3] into a
    convex table (finite values only)."""
    from .orliczfn import TabulatedFunction

    ts = [0.0] + [float(t) for t in np.geomspace(1e-3, 1e3, 49)]
    rows = []
    for t in ts:
        v = phi(t)
        if v == math.inf:
            break
        rows.append((t, v))
    return TabulatedFunction(rows)


# ---------------------------------------------------------------------------
# core elements


def core_from_obj(algebra: AlgebraDescriptor, obj) -> CoreElement:
    from fractions import Fraction

    from .core_model import CoreElement, Interval

    if not isinstance(obj, dict) or "pieces" not in obj:
        raise InputError('core file must look like {"pieces": [...]}')
    if not isinstance(obj["pieces"], list):
        raise InputError("core pieces must be a list")
    pieces = []
    for k, piece in enumerate(obj["pieces"]):
        if not isinstance(piece, dict) or "interval" not in piece or "element" not in piece:
            raise InputError(f"pieces[{k}] needs interval and element")
        iv = piece["interval"]
        if not isinstance(iv, list) or len(iv) != 2:
            raise InputError(f"pieces[{k}].interval must be [a, b]")
        a = Fraction(_finite_number(iv[0], f"pieces[{k}].interval[0]"))
        if iv[1] == "inf":
            b = None
        else:
            b = Fraction(_finite_number(iv[1], f"pieces[{k}].interval[1]"))
        elem = element_from_obj(algebra, piece["element"])
        pieces.append((elem, Interval(a, b)))
    try:
        return CoreElement(algebra, pieces)
    except ValidationError as exc:
        raise InputError(f"invalid core element: {exc}") from exc


def core_to_obj(x: CoreElement) -> dict:
    pieces = []
    for elem, iv in x.pieces:
        b = "inf" if iv.b is None else float(iv.b)
        pieces.append({"interval": [float(iv.a), b], "element": element_to_obj(elem)})
    return {"pieces": pieces}


# ---------------------------------------------------------------------------
# isomorphisms


def isomorphism_from_obj(source: AlgebraDescriptor, obj) -> Isomorphism:
    from .functorial import Isomorphism

    if not isinstance(obj, dict) or "permutation" not in obj or "unitaries" not in obj:
        raise InputError('isomorphism file needs "permutation" and "unitaries"')
    perm = obj["permutation"]
    if not isinstance(perm, list) or not all(type(p) is int for p in perm) \
            or sorted(perm) != list(range(source.nblocks)):
        raise InputError(f"permutation must rearrange 0..{source.nblocks - 1}")
    tdims = [0] * source.nblocks
    tweights = [0.0] * source.nblocks
    for i, p in enumerate(perm):
        tdims[p] = source.block_dims[i]
        tweights[p] = source.weights[i]
    target = make_algebra(tdims, tweights)
    unitaries = obj["unitaries"]
    if not isinstance(unitaries, list) or len(unitaries) != source.nblocks:
        raise InputError(f"unitaries must be a list of {source.nblocks} matrices")
    us = [_matrix_from_obj(u, source.block_dims[i], f"unitaries[{i}]")
          for i, u in enumerate(unitaries)]
    try:
        return Isomorphism(source, target, perm, us)
    except ValidationError as exc:
        raise InputError(f"invalid isomorphism: {exc}") from exc


def isomorphism_to_obj(iso: Isomorphism) -> dict:
    return {"permutation": list(iso.permutation),
            "unitaries": [_matrix_to_obj(u) for u in iso.unitaries]}


# ---------------------------------------------------------------------------
# deterministic writer


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise InputError("reports cannot carry non-finite numbers")
    s = f"{x:.17g}"
    if all(ch not in s for ch in ".eE"):
        s += ".0"
    return s


def dumps_report(obj) -> str:
    """Serialize with 17-significant-digit floats and stable ordering."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps_report(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}:{dumps_report(v)}" for k, v in obj.items())
        return "{" + ",".join(items) + "}"
    raise InputError(f"cannot serialize {type(obj).__name__} in a report")
