"""The invariant battery behind the CLI ``suite`` subcommand.

Every module-level invariant has a case here; cases draw their samples
from per-case SplitMix64 streams derived from the suite seed, so the
whole report is reproducible.  Case results carry the maximal observed
deviation so regressions show up as numbers, not just flips to red.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import trace_orlicz
from .algebra import (Element, Functional, absolute, eigen_spectrum, make_algebra,
                      operator_norm, polar_decompose, power_on_support,
                      spectral_calculus, support_projection, trace)
from .core_model import (Interval, canonical_trace, core_luxemburg_norm,
                         core_modular_value, dual_action, embed, weighted_trace)
from .functorial import (Isomorphism, compose, identity_isomorphism, norm_ratio_diagnostic,
                         verify_isometry)
from .modular import (connes_cocycle, gns, radon_nikodym_sqrt, relative_modular,
                      standard_form)
from .orliczfn import (INF, CoshDual, CoshMinusOne, ExpMinusOne, JumpFunction, PowerFunction,
                       TabulatedFunction, XLogX, check_delta2, check_n_function,
                       numeric_conjugate_value, registry, young_conjugate)
from .sampling import (SplitMix64, rand_core_element, rand_element, rand_functional,
                       rand_hermitian, rand_isomorphism, rand_positive,
                       rand_unitary_element)
from .trace_orlicz import (dual_pairing, fk_integral, luxemburg_norm, membership,
                           rearrangement)

ALGEBRA = make_algebra([2, 3], [1.0, 0.5])
SWAP_ALGEBRA = make_algebra([2, 2], [1.0, 1.0])


@dataclass
class CaseResult:
    case_id: str
    passed: bool
    max_deviation: float | None
    detail: str | None = None

    def to_obj(self) -> dict:
        obj = {"id": self.case_id, "pass": self.passed}
        if self.max_deviation is not None:
            obj["maxDeviation"] = float(self.max_deviation)
        if self.detail is not None:
            obj["detail"] = self.detail
        return obj


def _n(samples: int, lo: int, hi: int) -> int:
    return max(lo, min(hi, samples))


# --- algebra ----------------------------------------------------------------


def case_algebra_adjoint_involution(rng, samples):
    worst = 0.0
    for _ in range(_n(samples, 5, 50)):
        x = rand_element(rng, ALGEBRA)
        y = rand_element(rng, ALGEBRA)
        worst = max(worst, ((x * y).adjoint() - y.adjoint() * x.adjoint()).frobenius_norm())
        worst = max(worst, (x.adjoint().adjoint() - x).frobenius_norm())
    return worst <= 1e-12, worst


def case_algebra_trace_cyclic(rng, samples):
    worst = 0.0
    for _ in range(_n(samples, 20, 100)):
        x = rand_element(rng, ALGEBRA)
        y = rand_element(rng, ALGEBRA)
        dev = abs(trace(x * y) - trace(y * x))
        worst = max(worst, dev / max(x.frobenius_norm() * y.frobenius_norm(), 1e-300))
    return worst <= 1e-12, worst


def case_algebra_trace_faithful(rng, samples):
    worst = 0.0
    for _ in range(_n(samples, 10, 50)):
        x = rand_element(rng, ALGEBRA)
        lhs = trace(x.adjoint() * x).real
        rhs = sum(c * float(np.sum(np.abs(b) ** 2))
                  for c, b in zip(ALGEBRA.weights, x.blocks))
        worst = max(worst, abs(lhs - rhs) / max(rhs, 1e-300))
        if rhs > 0 and lhs <= 0:
            return False, lhs
    return worst <= 1e-12, worst


def case_algebra_positivity_closure(rng, samples):
    worst = 0.0
    for _ in range(_n(samples, 10, 50)):
        x = rand_element(rng, ALGEBRA)
        h = x.adjoint() * x
        scale = x.frobenius_norm() ** 2
        for block in eigen_spectrum(0.5 * (h + h.adjoint())).lines:
            worst = max(worst, max(-block.value, 0.0) / max(scale, 1e-300))
    return worst <= 1e-12, worst


def case_algebra_polar_uniqueness(rng, samples):
    worst = 0.0
    for _ in range(_n(samples, 10, 40)):
        x = rand_element(rng, ALGEBRA) + 3.0 * ALGEBRA.identity()  # keep kernels trivial
        v, a = polar_decompose(x)
        worst = max(worst, (v.adjoint() * v - ALGEBRA.identity()).frobenius_norm())
        ainv = power_on_support(a, -1.0)
        worst = max(worst, (v - x * ainv).frobenius_norm())
        worst = max(worst, (v * a - x).frobenius_norm() / max(x.frobenius_norm(), 1e-300))
    return worst <= 1e-9, worst


def case_algebra_spectral_reconstruction(rng, samples):
    worst = 0.0
    for _ in range(_n(samples, 10, 40)):
        x = rand_hermitian(rng, ALGEBRA)
        scale = max(x.frobenius_norm(), 1e-300)
        worst = max(worst, (eigen_spectrum(x).reconstruct() - x).frobenius_norm() / scale)
        worst = max(worst, (spectral_calculus(x, lambda t: t) - x).frobenius_norm() / scale)
        sq = spectral_calculus(x, lambda t: t * t)
        worst = max(worst, (sq - x * x).frobenius_norm() / max(scale ** 2, 1e-300))
    return worst <= 1e-10, worst


def case_algebra_extended_convention(rng, samples):
    linf = JumpFunction(1.0)
    zero = ALGEBRA.zero()
    ok = (fk_integral(linf, zero) == 0.0 and luxemburg_norm(linf, zero) == 0.0)
    flags = membership(linf, zero)
    ok = ok and flags.orlicz_class and flags.kunze_space and flags.mtkr_space
    # boundary case: operator norm exactly 1 stays in the Orlicz class
    x = Element(ALGEBRA, [np.diag([1.0, 0.5]), np.diag([0.25, 0.5, 1.0])])
    ok = ok and fk_integral(linf, x) == 0.0 and membership(linf, x).orlicz_class
    return ok, None


# --- orlicz functions -------------------------------------------------------


def case_orlicz_young_inequality(rng, samples):
    worst = 0.0
    grid = np.arange(0.0, 10.0001, 0.05)
    for phi in registry().values():
        conj = young_conjugate(phi)
        fx = phi.eval_array(grid)
        fy = conj.eval_array(grid)
        for i, x in enumerate(grid):
            if fx[i] == INF:
                continue
            mask = np.isfinite(fy)
            slack = fx[i] + fy[mask] - x * grid[mask]
            if slack.size:
                worst = max(worst, float(-np.min(slack)))
    return worst <= 1e-9, worst


def case_orlicz_biconjugation(rng, samples):
    worst = 0.0
    for phi in (PowerFunction(1.5), PowerFunction(2), PowerFunction(3), CoshMinusOne()):
        bi = young_conjugate(young_conjugate(phi))
        for t in np.geomspace(1e-2, 1e2, 17):
            ref = phi(float(t))
            worst = max(worst, abs(bi(float(t)) - ref) / max(ref, 1e-300))
        conj = young_conjugate(phi)
        for t in np.geomspace(0.1, 10.0, 7):
            ref = phi(float(t))
            num = numeric_conjugate_value(conj, t)
            worst = max(worst, abs(num - ref) / max(ref, 1e-300))
    return worst <= 1e-6, worst


def case_orlicz_closed_vs_numeric(rng, samples):
    worst = 0.0
    for phi in (PowerFunction(2), PowerFunction(3), PowerFunction(2, coef=0.5),
                CoshMinusOne(), ExpMinusOne()):
        conj = young_conjugate(phi)
        for y in np.geomspace(1e-3, 1e3, 25):
            ref = conj(float(y))
            if ref == INF:
                continue
            num = numeric_conjugate_value(phi, float(y))
            worst = max(worst, abs(num - ref) / max(abs(ref), 1e-300))
    return worst <= 1e-8, worst


def case_orlicz_conjugate_shape(rng, samples):
    worst = 0.0
    for phi in registry().values():
        conj = young_conjugate(phi)
        pts = np.linspace(0.0, 6.0, 61)
        vals = conj.eval_array(pts)
        finite = vals[np.isfinite(vals)]
        for a, b in zip(finite, finite[1:]):
            worst = max(worst, float(a - b))  # must be nondecreasing
        for i in range(1, len(pts) - 1):
            if np.isfinite(vals[i - 1]) and np.isfinite(vals[i + 1]) and np.isfinite(vals[i]):
                worst = max(worst, float(vals[i] - 0.5 * (vals[i - 1] + vals[i + 1])))
    return worst <= 1e-9, worst


def case_orlicz_delta2_verdicts(rng, samples):
    # A global failure with a witness w is checked at w: f(w) is finite and
    # f(2w) is +inf, or f(w) = 0 < f(2w).  cosh1 and exp1 fail by growth.
    table = TabulatedFunction([[0, 0], [1, 1], [2, 4]])
    for phi in (PowerFunction(1), PowerFunction(2), PowerFunction(3), CoshMinusOne(),
                ExpMinusOne(), JumpFunction(1.0), CoshDual(), XLogX(), table,
                table.conjugate()):
        rep = check_delta2(phi, "global")
        if rep.witness is None:
            continue
        f1, f2 = phi(rep.witness), phi(2.0 * rep.witness)
        if rep.holds or f1 == INF or not (f2 == INF or (f1 == 0.0 and f2 > 0.0)):
            return False, None, (f"{phi.label()}: holds {rep.holds}, witness {rep.witness!r} "
                                 f"gives f(w) = {f1!r}, f(2w) = {f2!r}")
    ok = (check_n_function(PowerFunction(2)) and not check_n_function(PowerFunction(1))
          and check_n_function(CoshMinusOne()) and check_n_function(CoshDual()))
    return ok, None


# --- trace_orlicz -----------------------------------------------------------


def case_to_pnorm_collapse(rng, samples):
    worst = 0.0
    for _ in range(_n(samples // 2, 10, 50)):
        x = rand_element(rng, ALGEBRA)
        for p in (1.0, 1.5, 2.0, 3.0):
            ref = fk_integral(PowerFunction(p), x) ** (1.0 / p)
            got = luxemburg_norm(PowerFunction(p), x)
            worst = max(worst, abs(got - ref) / max(ref, 1e-300))
    return worst <= 1e-9, worst


def case_to_linf_collapse(rng, samples):
    worst = 0.0
    for _ in range(_n(samples // 2, 10, 50)):
        x = rand_element(rng, ALGEBRA)
        ref = operator_norm(x)
        got = luxemburg_norm(JumpFunction(1.0), x)
        worst = max(worst, abs(got - ref) / max(ref, 1e-300))
    return worst <= 1e-9, worst


def case_to_norm_axioms(rng, samples):
    worst = 0.0
    fns = list(registry().values())
    for _ in range(_n(samples // 4, 5, 50)):
        x = rand_element(rng, ALGEBRA)
        y = rand_element(rng, ALGEBRA)
        alpha = 2.0 * rng.uniform() - 3.0
        for phi in fns:
            nx, ny, nxy = (luxemburg_norm(phi, z) for z in (x, y, x + y))
            worst = max(worst, nxy - nx - ny)
            worst = max(worst, abs(luxemburg_norm(phi, alpha * x) - abs(alpha) * nx))
            if nx <= 0.0:
                return False, nx, f"definiteness failed for {phi.label()}"
    for phi in fns:
        if luxemburg_norm(phi, ALGEBRA.zero()) != 0.0:
            return False, None, f"zero norm failed for {phi.label()}"
    return worst <= 1e-9, worst


def case_to_symmetry(rng, samples):
    worst = 0.0
    for _ in range(_n(samples // 4, 5, 30)):
        x = rand_element(rng, ALGEBRA)
        for phi in (PowerFunction(2), CoshMinusOne(), JumpFunction(1.0)):
            n0 = luxemburg_norm(phi, x)
            ref = max(n0, 1e-300)
            worst = max(worst, abs(luxemburg_norm(phi, x.adjoint()) - n0) / ref)
            worst = max(worst, abs(luxemburg_norm(phi, absolute(x)) - n0) / ref)
    return worst <= 1e-9, worst


def case_to_unitary_invariance(rng, samples):
    worst = 0.0
    for _ in range(_n(samples // 4, 5, 30)):
        x = rand_element(rng, ALGEBRA)
        u = rand_unitary_element(rng, ALGEBRA)
        ux = u * x * u.adjoint()
        if not rearrangement(x).matches(rearrangement(ux)):
            return False, None, "rearrangement changed under unitary conjugation"
        for phi in (PowerFunction(2), JumpFunction(1.0)):
            n0 = luxemburg_norm(phi, x)
            worst = max(worst, abs(luxemburg_norm(phi, ux) - n0) / max(n0, 1e-300))
    return worst <= 1e-10, worst


def case_to_fack_kosaki(rng, samples):
    worst = 0.0
    for _ in range(_n(samples, 20, 100)):
        x = rand_element(rng, ALGEBRA)
        for phi in (PowerFunction(2), CoshMinusOne()):
            steps = rearrangement(x)
            lhs = sum(phi(s.value) * s.length for s in steps.steps)
            rhs = fk_integral(phi, x)  # checks the steps against tau(x* x) too
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
    return worst <= 1e-10, worst


def case_to_holder_commutative(rng, samples):
    # Two-gauge bound with the sharp constant 2; the constant-1 ratio is
    # reported, not asserted (it fails already for x = y = identity).
    worst = 0.0
    ratio_max = 0.0
    for _ in range(_n(samples // 2, 10, 50)):
        dx = [np.diag([rng.uniform() * 3 for _ in range(d)]).astype(complex)
              for d in ALGEBRA.block_dims]
        dy = [np.diag([rng.uniform() * 3 for _ in range(d)]).astype(complex)
              for d in ALGEBRA.block_dims]
        x, y = Element(ALGEBRA, dx), Element(ALGEBRA, dy)
        for phi in (PowerFunction(2), PowerFunction(3)):
            lhs = abs(dual_pairing(x, y))
            nx = luxemburg_norm(phi, x)
            ny = luxemburg_norm(young_conjugate(phi), y)
            worst = max(worst, lhs - 2.0 * nx * ny)
            if nx * ny > 0:
                ratio_max = max(ratio_max, lhs / (nx * ny))
        dev = abs(dual_pairing(x, y) - dual_pairing(y, x))
        worst = max(worst, dev)
    return worst <= 1e-9, worst, f"max constant-1 ratio {ratio_max:.6f}"


def case_to_membership(rng, samples):
    linf = JumpFunction(1.0)
    x = Element(ALGEBRA, [np.diag([2.0, 0.3]), np.diag([0.1, 0.2, 0.4])])
    flags = membership(linf, x)
    ok = (not flags.orlicz_class) and flags.kunze_space and (not flags.mtkr_space)
    ok = ok and flags.kunze_witness is not None and \
        trace_orlicz.modular_value(linf, x, 1.0 / flags.kunze_witness) < INF
    for _ in range(_n(samples // 10, 3, 10)):
        y = rand_element(rng, ALGEBRA)
        f2 = membership(PowerFunction(2), y)
        ok = ok and f2.orlicz_class and f2.kunze_space and f2.mtkr_space
        g = trace_orlicz.e_space_gauge(PowerFunction(2), y)
        ok = ok and abs(g - luxemburg_norm(PowerFunction(2), y)) == 0.0
    return ok, None


# --- modular ----------------------------------------------------------------

M3 = make_algebra([3], [1.0])


def case_mod_gns_dimension(rng, samples):
    for _ in range(_n(samples // 5, 5, 30)):
        ranks = [rng.randint(d) + 1 for d in ALGEBRA.block_dims]
        omega = rand_functional(rng, ALGEBRA, ranks)
        want = sum(d * r for d, r in zip(ALGEBRA.block_dims, ranks))
        got = gns(omega).dimension
        if got != want:
            return False, abs(got - want), f"ranks {ranks}: dim {got} != {want}"
    return True, 0.0


def case_mod_gns_state_identity(rng, samples):
    worst = 0.0
    for _ in range(_n(samples // 10, 2, 8)):
        omega = rand_functional(rng, ALGEBRA)
        g = gns(omega)
        for _, _, _, e in ALGEBRA.matrix_units():
            lhs = omega(e)
            rhs = np.vdot(g.cyclic_vector, g.represent(e) @ g.cyclic_vector)
            worst = max(worst, abs(lhs - rhs))
    return worst <= 1e-10, worst


def case_mod_standard_form(rng, samples):
    sf = standard_form(ALGEBRA)
    worst = 0.0
    cones = [rand_positive(rng, ALGEBRA) for _ in range(_n(samples // 10, 4, 10))]
    for xi in cones:
        if not sf.in_cone(xi):
            return False, None, "positive sample rejected by the cone"
        if (sf.conjugation(sf.conjugation(xi)) - xi).frobenius_norm() > 1e-12:
            return False, None, "conjugation is not involutive"
        if (sf.conjugation(xi) - xi).frobenius_norm() > 1e-12:
            return False, None, "cone vector not fixed by conjugation"
        for zeta in cones:
            worst = max(worst, -sf.inner(xi, zeta).real)
    herm = rand_hermitian(rng, ALGEBRA)
    neg = herm - (operator_norm(herm) + 1.0) * ALGEBRA.identity()
    if sf.in_cone(neg):
        return False, None, "strictly negative element accepted by the cone"
    for _ in range(_n(samples // 10, 2, 6)):
        phi = rand_functional(rng, ALGEBRA)
        xi = sf.vector_representative(phi)
        for _, _, _, e in ALGEBRA.matrix_units():
            worst = max(worst, abs(phi(e) - sf.inner(xi, e * xi)))
    return worst <= 1e-10, worst


def case_mod_order_preservation(rng, samples):
    sf = standard_form(ALGEBRA)
    worst = 0.0
    for _ in range(_n(samples // 5, 5, 20)):
        u = rand_unitary_element(rng, ALGEBRA)
        lo = [np.diag([0.1 + rng.uniform() for _ in range(d)]).astype(complex)
              for d in ALGEBRA.block_dims]
        gap = [np.diag([rng.uniform() for _ in range(d)]).astype(complex)
               for d in ALGEBRA.block_dims]
        rho_lo = u * Element(ALGEBRA, lo) * u.adjoint()
        rho_hi = u * Element(ALGEBRA, [a + g for a, g in zip(lo, gap)]) * u.adjoint()
        phi = Functional(ALGEBRA, rho_lo.blocks)
        psi = Functional(ALGEBRA, rho_hi.blocks)
        diff = sf.vector_representative(psi) - sf.vector_representative(phi)
        for _ in range(4):
            zeta = rand_positive(rng, ALGEBRA)
            worst = max(worst, -sf.inner(diff, zeta).real)
    return worst <= 1e-10, worst


def case_mod_cocycle_unitarity(rng, samples):
    worst = 0.0
    for _ in range(_n(samples // 2, 10, 50)):
        phi = rand_functional(rng, M3)
        omega = rand_functional(rng, M3)
        t = 4.0 * rng.uniform() - 2.0
        u = connes_cocycle(phi, omega, t)
        worst = max(worst, (u.adjoint() * u - M3.identity()).frobenius_norm())
    return worst <= 1e-10, worst


def case_mod_cocycle_chain_rule(rng, samples):
    worst = 0.0
    for _ in range(_n(samples // 2, 10, 50)):
        f1, f2, f3 = (rand_functional(rng, M3) for _ in range(3))
        t = 4.0 * rng.uniform() - 2.0
        lhs = connes_cocycle(f1, f3, t)
        rhs = connes_cocycle(f1, f2, t) * connes_cocycle(f2, f3, t)
        worst = max(worst, (lhs - rhs).frobenius_norm())
    return worst <= 1e-10, worst


def case_mod_cocycle_psi_independence(rng, samples):
    sf = standard_form(M3)
    units = [e for _, _, _, e in M3.matrix_units()]
    worst = 0.0
    for _ in range(_n(samples // 10, 3, 10)):
        f1, f2, psi = (rand_functional(rng, M3) for _ in range(3))
        t = 4.0 * rng.uniform() - 2.0
        m = relative_modular(f1, psi).matrix(1j * t) @ relative_modular(f2, psi).matrix(-1j * t)
        u12 = connes_cocycle(f1, f2, t)
        lm = np.column_stack([np.array([sf.inner(v, u12 * w) for v in units]) for w in units])
        worst = max(worst, float(np.max(np.abs(m - lm))))
    return worst <= 1e-9, worst


def case_mod_boundary_condition(rng, samples):
    worst = 0.0
    for _ in range(_n(samples // 2, 10, 50)):
        psi = rand_functional(rng, M3)
        phi = rand_functional(rng, M3)
        h = radon_nikodym_sqrt(psi, phi)
        for _, _, _, e in M3.matrix_units():
            worst = max(worst, abs(psi(e) - phi(h.adjoint() * e * h)))
    return worst <= 1e-9, worst


def case_mod_flow_group_law(rng, samples):
    from .modular import modular_flow
    worst = 0.0
    for _ in range(_n(samples // 5, 5, 20)):
        phi = rand_functional(rng, M3)
        x = rand_element(rng, M3)
        s = 2.0 * rng.uniform() - 1.0
        t = 2.0 * rng.uniform() - 1.0
        lhs = modular_flow(phi, s, modular_flow(phi, t, x))
        rhs = modular_flow(phi, s + t, x)
        worst = max(worst, (lhs - rhs).frobenius_norm() / max(x.frobenius_norm(), 1e-300))
        worst = max(worst, (modular_flow(phi, 0.0, x) - x).frobenius_norm())
    return worst <= 1e-10, worst


def case_mod_relative_fixed_point(rng, samples):
    sf = standard_form(M3)
    worst = 0.0
    for _ in range(_n(samples // 5, 5, 20)):
        phi = rand_functional(rng, M3)
        xi = sf.vector_representative(phi)
        delta = relative_modular(phi, phi)
        worst = max(worst, (delta.apply(xi) - xi).frobenius_norm())
    return worst <= 1e-10, worst


# --- core model -------------------------------------------------------------


def case_core_scaling_law(rng, samples):
    worst = 0.0
    for _ in range(_n(samples // 5, 10, 20)):
        x = rand_core_element(rng, ALGEBRA, pieces=3, positive=True)
        t0 = canonical_trace(x)
        for s in (math.log(2.0), -math.log(2.0), 1.0, -1.0, 3.0):
            lhs = canonical_trace(dual_action(s, x))
            rhs = math.exp(-s) * t0
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    return worst <= 1e-14, worst


def case_core_traciality(rng, samples):
    worst = 0.0
    for _ in range(_n(samples // 5, 5, 20)):
        x = rand_core_element(rng, ALGEBRA, pieces=2)
        y = rand_core_element(rng, ALGEBRA, pieces=2)
        lhs, rhs = weighted_trace(x * y), weighted_trace(y * x)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
    return worst <= 1e-10, worst


def case_core_dual_action_modular(rng, samples):
    worst = 0.0
    phi = PowerFunction(2)
    for _ in range(_n(samples // 10, 3, 10)):
        x = rand_core_element(rng, ALGEBRA, pieces=2, positive=True)
        if x.is_zero():
            continue
        for s in (0.5, -1.25, math.log(2.0)):
            sh = dual_action(s, x)
            for lam in (0.5, 1.0, 3.0):
                lhs = core_modular_value(phi, sh, lam)
                rhs = math.exp(-s) * core_modular_value(phi, x, lam)
                worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    return worst <= 1e-12, worst


def case_core_embedding_isometry(rng, samples):
    worst = 0.0
    for _ in range(_n(samples // 4, 5, 50)):
        x = rand_element(rng, ALGEBRA)
        for phi in registry().values():
            nb = luxemburg_norm(phi, x)
            nc = core_luxemburg_norm(phi, embed(x))
            worst = max(worst, abs(nb - nc) / max(nb, nc, 1e-300))
    return worst <= 1e-10, worst


def case_core_group_law_exact(rng, samples):
    for _ in range(_n(samples // 10, 3, 10)):
        x = rand_core_element(rng, ALGEBRA, pieces=3)
        # Elements compare by identity: the same piece objects on equal intervals.
        if dual_action(-math.pi, dual_action(math.pi, x)).pieces != x.pieces:
            return False, None, "pieces changed under shift round-trip"
        if dual_action(0, x).pieces != x.pieces:
            return False, None, "identity shift changed the pieces"
    return True, 0.0


# --- functorial -------------------------------------------------------------


def case_fun_functor_laws(rng, samples):
    ide = identity_isomorphism(SWAP_ALGEBRA)
    worst = 0.0
    i1 = rand_isomorphism(rng, SWAP_ALGEBRA)
    i2 = rand_isomorphism(rng, SWAP_ALGEBRA)
    comp = compose(i2, i1)
    for _ in range(_n(samples // 5, 5, 20)):
        x = rand_element(rng, SWAP_ALGEBRA)
        worst = max(worst, (ide.apply(x) - x).frobenius_norm())
        worst = max(worst, (comp.apply(x) - i2.apply(i1.apply(x))).frobenius_norm())
        y = rand_element(rng, SWAP_ALGEBRA)
        worst = max(worst, (i1.apply(x * y) - i1.apply(x) * i1.apply(y)).frobenius_norm())
    return worst <= 1e-12, worst


def case_fun_norm_isometry(rng, samples):
    worst = 0.0
    for phi in (PowerFunction(2), CoshMinusOne(), JumpFunction(1.0)):
        iso = rand_isomorphism(rng, SWAP_ALGEBRA)
        rep = verify_isometry(iso, phi, _n(samples // 10, 3, 10), rng)
        if not rep.passed:
            return False, max(rep.max_base_deviation, rep.max_core_deviation), rep.witness
        worst = max(worst, rep.max_base_deviation, rep.max_core_deviation)
    return worst <= 1e-9, worst


def case_fun_rearrangement_invariance(rng, samples):
    for _ in range(_n(samples // 5, 5, 20)):
        iso = rand_isomorphism(rng, SWAP_ALGEBRA)
        x = rand_element(rng, SWAP_ALGEBRA)
        if not rearrangement(x).matches(rearrangement(iso.apply(x))):
            return False, None, "step data changed under a trace-preserving map"
    return True, 0.0


def case_fun_rescaling_diagnostic(rng, samples):
    rescale = make_algebra([2, 2], [1.0, 2.0])
    iso = Isomorphism(rescale, rescale, (1, 0),
                      [np.eye(2, dtype=complex), np.eye(2, dtype=complex)])
    lo, hi = norm_ratio_diagnostic(iso, PowerFunction(2), _n(samples // 10, 5, 10), rng)
    # reported, never asserted: weight rescaling changes norms
    return True, None, f"norm ratio range under weight swap: [{lo:.6f}, {hi:.6f}]"


CASES = [
    ("algebra.adjoint_involution", case_algebra_adjoint_involution),
    ("algebra.extended_convention", case_algebra_extended_convention),
    ("algebra.polar_uniqueness", case_algebra_polar_uniqueness),
    ("algebra.positivity_closure", case_algebra_positivity_closure),
    ("algebra.spectral_reconstruction", case_algebra_spectral_reconstruction),
    ("algebra.trace_cyclic", case_algebra_trace_cyclic),
    ("algebra.trace_faithful", case_algebra_trace_faithful),
    ("core.dual_action_modular", case_core_dual_action_modular),
    ("core.embedding_isometry", case_core_embedding_isometry),
    ("core.group_law_exact", case_core_group_law_exact),
    ("core.scaling_law", case_core_scaling_law),
    ("core.traciality", case_core_traciality),
    ("functorial.functor_laws", case_fun_functor_laws),
    ("functorial.norm_isometry", case_fun_norm_isometry),
    ("functorial.rearrangement_invariance", case_fun_rearrangement_invariance),
    ("functorial.rescaling_diagnostic", case_fun_rescaling_diagnostic),
    ("modular.boundary_condition", case_mod_boundary_condition),
    ("modular.cocycle_chain_rule", case_mod_cocycle_chain_rule),
    ("modular.cocycle_psi_independence", case_mod_cocycle_psi_independence),
    ("modular.cocycle_unitarity", case_mod_cocycle_unitarity),
    ("modular.flow_group_law", case_mod_flow_group_law),
    ("modular.gns_dimension", case_mod_gns_dimension),
    ("modular.gns_state_identity", case_mod_gns_state_identity),
    ("modular.order_preservation", case_mod_order_preservation),
    ("modular.relative_fixed_point", case_mod_relative_fixed_point),
    ("modular.standard_form", case_mod_standard_form),
    ("orlicz.biconjugation", case_orlicz_biconjugation),
    ("orlicz.closed_form_vs_numeric", case_orlicz_closed_vs_numeric),
    ("orlicz.conjugate_shape", case_orlicz_conjugate_shape),
    ("orlicz.delta2_verdicts", case_orlicz_delta2_verdicts),
    ("orlicz.young_inequality", case_orlicz_young_inequality),
    ("trace_orlicz.fack_kosaki", case_to_fack_kosaki),
    ("trace_orlicz.holder_commutative", case_to_holder_commutative),
    ("trace_orlicz.linf_collapse", case_to_linf_collapse),
    ("trace_orlicz.membership_flags", case_to_membership),
    ("trace_orlicz.norm_axioms", case_to_norm_axioms),
    ("trace_orlicz.pnorm_collapse", case_to_pnorm_collapse),
    ("trace_orlicz.symmetry", case_to_symmetry),
    ("trace_orlicz.unitary_invariance", case_to_unitary_invariance),
]


def run_suite(seed: int = 0, samples: int = 100, extra_cases=None) -> list[CaseResult]:
    """Run every case with per-case derived seeds; results sorted by case id."""
    master = SplitMix64(seed)
    cases = sorted(CASES + list(extra_cases or []), key=lambda c: c[0])
    seeds = {cid: master.next_u64() for cid, _ in cases}
    results = []
    for cid, fn in cases:
        out = fn(SplitMix64(seeds[cid]), samples)
        passed, dev = out[0], out[1]
        detail = out[2] if len(out) > 2 else None
        results.append(CaseResult(cid, bool(passed),
                                  float(dev) if dev is not None else None, detail))
    return results
