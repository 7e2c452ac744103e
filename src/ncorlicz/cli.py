"""Command-line interface.

Subcommands: norm, core-norm, rearr, conjugate, cocycle, gns, suite.
Each accepts only the options it reads (``_READS``); any other option is a
usage error.  Reports go to stdout as JSON with 17-significant-digit
floats; a fixed seed reproduces the suite report byte-for-byte (timing is
written to stderr so it cannot break that).  Exit codes: 0 pass, 1
property failure, 2 input error, 3 numeric failure.

A subcommand imports the library modules that only it runs when it is
called, so a cold ``norm`` call loads neither the suite nor the core model
nor the modular theory, and a cold ``cocycle`` or ``gns`` call does not load
the Young functions: without cached bytecode every imported module is
compiled from source in every process.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from typing import TYPE_CHECKING

import numpy as np

from .algebra import Element, make_algebra
from .errors import ConvergenceError, InputError, ValidationError
from .serialize import (algebra_from_obj, core_from_obj, dumps_report, element_from_obj,
                        element_to_obj, functional_from_obj, isomorphism_from_obj,
                        load_file, orlicz_from_obj, orlicz_to_obj, tabulate)

if TYPE_CHECKING:
    from .orliczfn import OrliczFunction

_DIAG_RE = re.compile(r"^diag\(([^)]*)\)$")


# The argparse spec of every option.
_OPTIONS = {
    "algebra": dict(help="algebra JSON file"),
    "element": dict(help="element JSON file, or diag(a,b,...) shorthand"),
    "functional": dict(action="append", default=[],
                       help="functional JSON file (repeat for a pair)"),
    "phi": dict(help="Orlicz function JSON file or name (power2, linf, ...)"),
    "core": dict(help="core element JSON file"),
    "iso": dict(help="isomorphism JSON file"),
    "tol": dict(type=float, default=None),  # None: trace_orlicz.DEFAULT_TOL
    "seed": dict(type=int, default=0),
    "csv": dict(help="write step data as CSV to this path"),
    "samples": dict(type=int, default=100),
    "t": dict(type=float, default=0.0, help="cocycle parameter"),
}

# The options each subcommand reads; any other option is a usage error.
_READS = {
    "norm": ("algebra", "element", "phi", "tol"),
    "core-norm": ("algebra", "core", "phi", "tol"),
    "rearr": ("algebra", "element", "csv"),
    "conjugate": ("phi",),
    "cocycle": ("algebra", "functional", "t"),
    "gns": ("algebra", "functional"),
    "suite": ("seed", "samples", "iso", "algebra", "phi"),
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="ncorlicz",
        description="Orlicz-norm calculus over finite-dimensional trace algebras")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, options in _READS.items():
        # No abbreviations: ``norm --t`` would otherwise be read as ``--tol``.
        p = sub.add_parser(name, allow_abbrev=False)
        for opt in options:
            p.add_argument(f"--{opt}", **_OPTIONS[opt])
    return parser.parse_args(argv)


def _need(args, attr, what):
    value = getattr(args, attr)
    if not value:
        raise InputError(f"--{attr} is required for {what}")
    return value


def _load_algebra(args):
    return algebra_from_obj(load_file(_need(args, "algebra", args.command)))


def _load_phi(args) -> OrliczFunction:
    from .orliczfn import from_name

    spec = _need(args, "phi", args.command)
    if os.path.exists(spec):
        return orlicz_from_obj(load_file(spec))
    try:
        return from_name(spec)
    except ValidationError as exc:
        raise InputError(str(exc)) from exc


def _load_element(args) -> Element:
    spec = _need(args, "element", args.command)
    m = _DIAG_RE.match(spec.strip())
    if m:
        try:
            entries = [float(tok) for tok in m.group(1).split(",") if tok.strip()]
        except ValueError as exc:
            raise InputError(f"bad diag(...) shorthand: {exc}") from exc
        if not entries:
            raise InputError("diag(...) needs at least one entry")
        if args.algebra:
            alg = _load_algebra(args)
            if alg.nblocks != 1 or alg.block_dims[0] != len(entries):
                raise InputError("diag shorthand needs a single block of matching dimension")
        else:
            alg = make_algebra([len(entries)], [1.0])
        return Element(alg, [np.diag(entries).astype(complex)])
    alg = _load_algebra(args)
    return element_from_obj(alg, load_file(spec))


def _digest(parts) -> str:
    import hashlib

    h = hashlib.sha256()
    for p in parts:
        h.update(str(p).encode())
        h.update(b"\x1f")
    return h.hexdigest()


def _emit(obj) -> None:
    sys.stdout.write(dumps_report(obj) + "\n")


def _cmd_norm(args) -> int:
    from .trace_orlicz import DEFAULT_TOL, luxemburg_report

    x = _load_element(args)
    phi = _load_phi(args)
    rep = luxemburg_report(phi, x, DEFAULT_TOL if args.tol is None else args.tol)
    _emit(rep.to_json_obj())
    return 0


def _cmd_core_norm(args) -> int:
    from .core_model import core_luxemburg_report
    from .trace_orlicz import DEFAULT_TOL

    alg = _load_algebra(args)
    core = core_from_obj(alg, load_file(_need(args, "core", "core-norm")))
    phi = _load_phi(args)
    rep = core_luxemburg_report(phi, core, DEFAULT_TOL if args.tol is None else args.tol)
    _emit(rep.to_json_obj())
    return 0


def _cmd_rearr(args) -> int:
    from .trace_orlicz import rearrangement, rearrangement_csv

    x = _load_element(args)
    mu = rearrangement(x)
    obj = {"totalMass": mu.total_mass(),
           "steps": [{"start": a, "end": b, "value": v} for a, b, v in mu.boundaries()]}
    if args.csv:
        try:
            with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(rearrangement_csv(mu))
        except OSError as exc:
            raise InputError(f"cannot write {args.csv}: {exc}") from exc
    _emit(obj)
    return 0


def _cmd_conjugate(args) -> int:
    from .orliczfn import young_conjugate

    phi = _load_phi(args)
    conj = young_conjugate(phi)
    try:
        _emit(orlicz_to_obj(conj))
    except InputError:
        _emit(orlicz_to_obj(tabulate(conj)))
    return 0


def _cmd_cocycle(args) -> int:
    from .modular import connes_cocycle

    alg = _load_algebra(args)
    if len(args.functional) != 2:
        raise InputError("cocycle needs --functional twice: first phi, then omega")
    phi = functional_from_obj(alg, load_file(args.functional[0]))
    omega = functional_from_obj(alg, load_file(args.functional[1]))
    _emit(element_to_obj(connes_cocycle(phi, omega, args.t)))
    return 0


def _cmd_gns(args) -> int:
    from .modular import gns

    alg = _load_algebra(args)
    if len(args.functional) != 1:
        raise InputError("gns needs exactly one --functional")
    omega = functional_from_obj(alg, load_file(args.functional[0]))
    data = gns(omega)
    worst = 0.0
    for _, _, _, e in alg.matrix_units():
        lhs = omega(e)
        rhs = np.vdot(data.cyclic_vector, data.represent(e) @ data.cyclic_vector)
        worst = max(worst, abs(lhs - rhs))
    _emit({"dimension": data.dimension, "stateIdentityResidual": worst})
    return 0


def _cmd_suite(args) -> int:
    from .functorial import verify_isometry
    from .orliczfn import PowerFunction
    from .suite import run_suite
    from .trace_orlicz import DEFAULT_TOL

    extra = []
    if not args.iso and (args.algebra or args.phi):
        raise InputError("suite reads --algebra and --phi only with --iso")
    if args.iso:
        alg = _load_algebra(args)
        iso = isomorphism_from_obj(alg, load_file(args.iso))
        phi = _load_phi(args) if args.phi else PowerFunction(2.0)

        def file_case(rng, samples, _iso=iso, _phi=phi):
            rep = verify_isometry(_iso, _phi, max(3, samples // 10), rng)
            dev = max(rep.max_base_deviation, rep.max_core_deviation)
            return rep.passed, dev, rep.witness

        extra.append(("functorial.file_isometry", file_case))
    t0 = time.perf_counter()
    results = run_suite(args.seed, args.samples, extra)
    wall = time.perf_counter() - t0
    failures = [r.case_id for r in results if not r.passed]
    report = {
        "command": "suite",
        "seed": args.seed,
        "samples": args.samples,
        "tol": DEFAULT_TOL,  # every suite norm runs at the library's default tolerance
        "inputsDigest": _digest(["suite", args.seed, args.samples, DEFAULT_TOL,
                                 bool(args.iso)]),
        "model": "restricted step class over the weighted half-line",
        "cases": [r.to_obj() for r in results],
        "pass": not failures,
    }
    _emit(report)
    sys.stderr.write(f"suite: {len(results) - len(failures)}/{len(results)} cases "
                     f"in {wall:.2f}s\n")
    return 0 if not failures else 1


_COMMANDS = {
    "norm": _cmd_norm,
    "core-norm": _cmd_core_norm,
    "rearr": _cmd_rearr,
    "conjugate": _cmd_conjugate,
    "cocycle": _cmd_cocycle,
    "gns": _cmd_gns,
    "suite": _cmd_suite,
}


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except (InputError, ValidationError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except ConvergenceError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
