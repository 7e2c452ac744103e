"""The four benchmark workloads.

Each workload draws a fixed pool of inputs from ``SplitMix64(seed)`` when it
is built (the timed set-up), hands the library a fresh object built from pool
entry ``i % POOL`` for op ``i``, and checks every result against an oracle
outside the timed op.  ``check`` returns "ok" or "fail".
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from ncorlicz import algebra, cli, core_model, modular, orliczfn, sampling, serialize, \
    trace_orlicz

from proc import run_child

CHECK_RTOL = 1e-9
SUITE_ALGEBRA = ([2, 3], [1.0, 0.5])


def _relclose(got: float, want: float) -> bool:
    return abs(got - want) <= CHECK_RTOL * max(abs(want), abs(got))


class NormsRegistry:
    """Luxemburg norms of one element for all five registry Young functions.

    Every eighth pool entry is scaled to 1e60 or 1e-60 (alternately), so the
    root-find brackets norms far from 1.  ``d1_probe`` checks the same entries
    once more at 1e80 and 1e-80, where the Jacobi threshold over- or
    underflows (ROADMAP defect D1) and power1, power3 and linf norms come out
    wrong.  Those elements are not timed ops: a timed op must not fail.
    """

    name = "norms-registry"
    POOL = 256
    pass_ops = 64
    tail_pct = 90
    SCALE = 1e60
    D1_SCALE = 1e80
    D1_NORMS = frozenset({"power1", "power3", "linf"})

    def __init__(self, seed: int):
        self.alg = algebra.make_algebra(*SUITE_ALGEBRA)
        rng = sampling.SplitMix64(seed)
        self.pool, self.d1_pool = [], []
        for k in range(self.POOL):
            blocks = sampling.rand_element(rng, self.alg).blocks
            if k % 8 != 7:
                self.pool.append(blocks)
                continue
            up = k % 16 == 7
            self.pool.append([(self.SCALE if up else 1.0 / self.SCALE) * b for b in blocks])
            self.d1_pool.append([(self.D1_SCALE if up else 1.0 / self.D1_SCALE) * b
                                 for b in blocks])
        self.fns = orliczfn.registry()
        self.cosh = orliczfn.CoshMinusOne()

    def make_input(self, i: int):
        return algebra.Element(self.alg, self.pool[i % self.POOL])

    def op(self, x):
        norms = {name: trace_orlicz.luxemburg_report(phi, x).norm
                 for name, phi in self.fns.items()}
        trace_orlicz.rearrangement(x)
        trace_orlicz.fk_integral(self.cosh, x)
        return norms

    def _wrong(self, x, norms) -> tuple[set, bool]:
        """Norms that miss the LAPACK closed forms, and whether all are finite."""
        svs = [np.linalg.svd(b, compute_uv=False) for b in x.blocks]
        want = {"linf": max(float(s[0]) for s in svs)}
        for p in (1, 2, 3):
            total = sum(c * float(np.sum(s ** p)) for c, s in zip(self.alg.weights, svs))
            want[f"power{p}"] = total ** (1.0 / p)
        wrong = {name for name, w in want.items() if not _relclose(norms[name], w)}
        return wrong, all(math.isfinite(v) for v in norms.values())

    def check(self, x, norms) -> str:
        wrong, finite = self._wrong(x, norms)
        return "ok" if finite and not wrong else "fail"

    def d1_probe(self) -> tuple[int, int, int]:
        """Run and check every 1e80 / 1e-80 element once, untimed.

        Returns (elements, wrong with D1's signature, wrong otherwise).  D1's
        signature: every norm finite, power2 right, and only norms in D1_NORMS
        wrong.  An element that raises counts as wrong otherwise.
        """
        known = other = 0
        for blocks in self.d1_pool:
            x = algebra.Element(self.alg, blocks)
            try:
                wrong, finite = self._wrong(x, self.op(x))
            except Exception:
                other += 1
                continue
            if finite and wrong and wrong <= self.D1_NORMS:
                known += 1
            elif wrong or not finite:
                other += 1
        return len(self.d1_pool), known, other


class CoreSteps:
    """Writes and reads on 8-piece step elements of the core model.

    The interval layouts and shifts come from a fixed stream, the same for
    every seed, so each run refines the same cells; the seed draws the
    matrices and the isomorphisms.  With random layouts the cell count, and
    so the work per op, moved by several percent from seed to seed.
    """

    name = "core-steps"
    POOL = 48
    PIECES = 8
    LAYOUT_SEED = 0x1A7047
    pass_ops = 10
    tail_pct = 75

    def __init__(self, seed: int):
        self.alg = algebra.make_algebra([6, 2], [1.0, 0.5])
        rng = sampling.SplitMix64(seed)
        layout = sampling.SplitMix64(self.LAYOUT_SEED)
        self.pool = []
        for _ in range(self.POOL):
            x, y = self._element(rng, layout), self._element(rng, layout)
            shift = Fraction(layout.randint(17) - 8, 4)
            iso = sampling.rand_isomorphism(rng, self.alg)
            self.pool.append((x, y, shift, iso))
        self.fns = list(orliczfn.registry().values())

    def _element(self, rng, layout):
        """Pieces on [c_0, c_1), [c_2, c_3), ... for distinct cuts c_k in [-4, 6] (step 1/8)."""
        cuts = set()
        while len(cuts) < 2 * self.PIECES:
            cuts.add(Fraction(layout.randint(81) - 32, 8))
        cuts = sorted(cuts)
        return core_model.CoreElement(
            self.alg, [(sampling.rand_element(rng, self.alg),
                        core_model.Interval(cuts[2 * k], cuts[2 * k + 1]))
             for k in range(self.PIECES)])

    def _fresh(self, x):
        return core_model.CoreElement(
            self.alg, [(algebra.Element(self.alg, p.blocks), iv) for p, iv in x.pieces])

    def make_input(self, i: int):
        x, y, shift, iso = self.pool[i % self.POOL]
        return self._fresh(x), self._fresh(y), shift, iso, self.fns[i % len(self.fns)]

    def op(self, inp):
        x, y, shift, iso, phi = inp
        z = x * y + core_model.dual_action(shift, x)
        lifted = iso.lift(z)
        zz = z.adjoint() * z
        return (zz, core_model.core_luxemburg_norm(phi, z),
                core_model.core_luxemburg_norm(phi, lifted), core_model.canonical_trace(zz))

    def check(self, inp, res) -> str:
        shift = inp[2]
        zz, norm_z, norm_lift, tr = res
        shifted = core_model.canonical_trace(core_model.dual_action(shift, zz))
        ok = _relclose(norm_lift, norm_z) and _relclose(shifted, math.exp(-shift) * tr)
        return "ok" if ok else "fail"


class ModularPairs:
    """Relative modular operator, cocycles, GNS, Radon-Nikodym root and flow.

    phi alternates between faithful and rank-deficient; psi shares phi's
    eigenbasis and support, so supp(psi) <= supp(phi); omega is faithful.
    """

    name = "modular-pairs"
    POOL = 32
    pass_ops = 64
    tail_pct = 90

    def __init__(self, seed: int):
        self.alg = algebra.make_algebra(*SUITE_ALGEBRA)
        dims = self.alg.block_dims
        rng = sampling.SplitMix64(seed)
        self.pool = []
        for k in range(self.POOL):
            ranks = dims if k % 2 == 0 else tuple(d - 1 for d in dims)
            phi, psi, supports = [], [], []
            for d, r in zip(dims, ranks):
                u = sampling.rand_unitary_matrix(rng, d)
                keep = u[:, :r]
                phi.append((keep * [0.2 + rng.uniform() for _ in range(r)]) @ keep.conj().T)
                psi.append((keep * [0.2 + rng.uniform() for _ in range(r)]) @ keep.conj().T)
                supports.append(keep @ keep.conj().T)
            omega = sampling.rand_faithful_functional(rng, self.alg).densities
            x = sampling.rand_element(rng, self.alg).blocks
            ts = [4.0 * rng.uniform() - 2.0 for _ in range(3)]
            self.pool.append((phi, psi, omega, x, ts, supports, ranks))

    def make_input(self, i: int):
        phi, psi, omega, x, ts, supports, ranks = self.pool[i % self.POOL]
        fn = algebra.Functional
        return (fn(self.alg, phi), fn(self.alg, psi), fn(self.alg, omega),
                algebra.Element(self.alg, x), ts, supports, ranks)

    def op(self, inp):
        phi, psi, omega, x, ts = inp[:5]
        matrix = modular.relative_modular(phi, omega).matrix()
        cocycles = [modular.connes_cocycle(phi, omega, t) for t in ts]
        dim = modular.gns(phi).dimension
        root = modular.radon_nikodym_sqrt(psi, phi)
        flowed = modular.modular_flow(omega, ts[0], x)
        return matrix, cocycles, dim, root, flowed

    def check(self, inp, res) -> str:
        phi, psi, _, x, _, supports, ranks = inp
        _, cocycles, dim, root, _ = res
        unitary_err = max(np.linalg.norm(b @ b.conj().T - p)
                          for u in cocycles for b, p in zip(u.blocks, supports))
        weights = self.alg.weights
        lhs = sum(c * np.trace(r @ xb) for c, r, xb in zip(weights, psi.densities, x.blocks))
        rhs = sum(c * np.trace(r @ h.conj().T @ xb @ h)
                  for c, r, h, xb in zip(weights, phi.densities, root.blocks, x.blocks))
        scale = sum(c * np.linalg.norm(r) * np.linalg.norm(xb)
                    for c, r, xb in zip(weights, psi.densities, x.blocks))
        ok = (unitary_err <= CHECK_RTOL and abs(lhs - rhs) <= CHECK_RTOL * max(scale, 1.0)
              and dim == sum(d * r for d, r in zip(self.alg.block_dims, ranks)))
        return "ok" if ok else "fail"


class CliCold:
    """One fresh ``python -m ncorlicz.cli`` process per op on JSON input files."""

    name = "cli-cold"
    POOL = 5
    pass_ops = 10
    tail_pct = 67
    child_ops = True  # ops run in fresh interpreters: scale by reference.Startup
    COMMANDS = ("norm", "core-norm", "rearr", "cocycle", "gns")
    PHI_NAMES = ("power1", "power2", "power3", "cosh1", "linf")

    def __init__(self, seed: int):
        self.alg = algebra.make_algebra(*SUITE_ALGEBRA)
        rng = sampling.SplitMix64(seed)
        self.files = {"algebra.json": json.dumps(serialize.algebra_to_obj(self.alg))}
        self.ts = []
        for k in range(self.POOL):
            x = sampling.rand_element(rng, self.alg)
            core = sampling.rand_core_element(rng, self.alg, pieces=4)
            ranks = [d - (k % 2) for d in self.alg.block_dims]
            phi = sampling.rand_functional(rng, self.alg, ranks)
            omega = sampling.rand_faithful_functional(rng, self.alg)
            self.files[f"x{k}.json"] = json.dumps(serialize.element_to_obj(x))
            self.files[f"core{k}.json"] = json.dumps(serialize.core_to_obj(core))
            self.files[f"phi{k}.json"] = json.dumps(serialize.functional_to_obj(phi))
            self.files[f"omega{k}.json"] = json.dumps(serialize.functional_to_obj(omega))
            self.ts.append(round(4.0 * rng.uniform() - 2.0, 6))
        self.expected: dict[tuple, str] = {}
        self.src: Path | None = None
        self.workdir: Path | None = None
        self.tracer = None

    def prepare(self, src: Path, workdir: Path) -> None:
        """Write the input files and compute every expected output in-process."""
        self.src, self.workdir = src, workdir
        for name, text in self.files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        for i in range(self.POOL * len(self.COMMANDS)):
            argv = self._argv(i)
            self.expected[tuple(argv)] = _in_process(argv)

    def _argv(self, i: int) -> list[str]:
        cmd = self.COMMANDS[i % len(self.COMMANDS)]
        k = (i // len(self.COMMANDS)) % self.POOL
        d = self.workdir
        alg = ["--algebra", str(d / "algebra.json")]
        phi = ["--phi", self.PHI_NAMES[k]]
        if cmd == "norm":
            return [cmd, *alg, "--element", str(d / f"x{k}.json"), *phi]
        if cmd == "core-norm":
            return [cmd, *alg, "--core", str(d / f"core{k}.json"), *phi]
        if cmd == "rearr":
            return [cmd, *alg, "--element", str(d / f"x{k}.json")]
        if cmd == "cocycle":
            return [cmd, *alg, "--functional", str(d / f"phi{k}.json"),
                    "--functional", str(d / f"omega{k}.json"), "--t", repr(self.ts[k])]
        return [cmd, *alg, "--functional", str(d / f"phi{k}.json")]

    def make_input(self, i: int):
        return self._argv(i)

    def op(self, argv):
        if self.tracer is None or not self.tracer.active:
            return run_child([sys.executable, "-m", "ncorlicz.cli", *argv], self.src,
                             self.workdir)
        spans = self.workdir / "cli_child_spans.json"
        res = run_child([sys.executable, str(Path(__file__).with_name("cli_child.py")),
                         "layers", str(spans), *argv], self.src, self.workdir)
        data = json.loads(spans.read_text(encoding="utf-8"))
        self.tracer.merge(data["spans"], data["counts"])
        return res

    def check(self, argv, res) -> str:
        ok = res.returncode == 0 and res.stdout == self.expected[tuple(argv)]
        return "ok" if ok else "fail"


def _in_process(argv: list[str]) -> str:
    """stdout of ``cli.main(argv)`` run in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"in-process reference failed: ncorlicz {' '.join(argv)}")
    return buf.getvalue()


WORKLOADS = {w.name: w for w in (NormsRegistry, CoreSteps, ModularPairs, CliCold)}
