"""Eigenstructure of the walk step and of the phase-flipped walk.

Four layers: a dense eigensolver for small unitary/orthogonal
matrices (numpy's eig, its eigenvectors orthonormalized by QR), the
walk-spectrum and reflection-decomposition reports, the paper's
cotangent condition, which locates the eigenphases of U (1 - 2|w><w|)
between the poles at the eigenphases of U, and the algorithm's rotation
pair, read off one eigensolve of W^t1 P.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cost_model import walk_steps
from .reduced_sim import ReducedBasis, build_walk_matrix, coin1_matrix, \
    coin2_matrix, reduced_s

TWO_PI = 2.0 * math.pi


def _wrap_phase(theta: float) -> float:
    """Map to (-pi, pi]."""
    t = (theta + math.pi) % TWO_PI - math.pi
    return math.pi if t == -math.pi else t


@dataclass
class UnitaryEigen:
    """Eigenphases and orthonormal eigenvectors of a unitary matrix."""
    phases: np.ndarray                 # sorted ascending in (-pi, pi]
    vectors: np.ndarray                # columns, aligned with phases

    def eigenspace_weight(self, phase: float, target: np.ndarray) -> float:
        """|target|^2 in the eigenspace at e^{i phase}, eigenvalues within
        1e-8 of it: one eigenvector's |overlap|^2 if the phase is simple."""
        near = np.abs(np.exp(1j * self.phases) - np.exp(1j * phase)) <= 1e-8
        return float(np.sum(np.abs(self.vectors[:, near].conj().T @ target) ** 2))


def eigendecompose_unitary(u: np.ndarray) -> UnitaryEigen:
    """Dense eigendecomposition with orthonormal eigenvectors.

    numpy's eig, sorted by phase, then QR of the eigenvector matrix.  A
    unitary matrix is normal, so eig's eigenvectors of distinct
    eigenvalues are orthogonal to within rounding over their gap, and QR,
    removing from each column its parts along the earlier ones, moves an
    eigenvector only by that much; the vectors of a repeated eigenvalue
    become an orthonormal basis of its eigenspace.
    """
    u = np.asarray(u)
    defect = np.max(np.abs(u.conj().T @ u - np.eye(len(u))))
    if defect > 1e-10:
        raise ValueError(f"input is not unitary: max |U^H U - I| = {defect:.3e}")

    values, vectors = np.linalg.eig(u)
    phases = np.angle(values)
    order = np.argsort(phases, kind="stable")
    phases = phases[order]
    vectors = np.linalg.qr(vectors[:, order])[0]
    return UnitaryEigen(phases=phases, vectors=vectors)


# --- walk spectrum ------------------------------------------------------

@dataclass
class WalkSpectrumReport:
    n: int
    m: int
    l: int
    alpha: float
    beta: float
    phases: np.ndarray                  # all eigenphases, one per label, sorted
    theta: np.ndarray                   # positive branch, ascending, j = 1..min(l, n-m)
    closed_form: np.ndarray             # sqrt(j (alpha + beta - j alpha beta))
    asymptotic: np.ndarray              # 2 sqrt(j / m)
    closed_form_residual: float         # max | |sin(theta_j/2)| - closed_form_j |
    asymptotic_deviation: np.ndarray    # |theta_j - 2 sqrt(j/m)|
    extreme_pair_fidelity: float        # against (|A_{l-1,1}> +- i |A_{l,0}>)/sqrt 2
    closed_form_exact: bool = True


def walk_spectrum(n: int, m: int, l: int) -> WalkSpectrumReport:
    """Eigenphases of the walk step against the exact and asymptotic forms.

    The exact form |sin(theta_j / 2)| = sqrt(j (alpha + beta - j alpha beta))
    is anchored by the 3-cycle case (n=3, m=1, l=1, phases 0, +-2pi/3).
    At n - m <= l the last, j = n - m, is theta = pi, a simple eigenvalue -1.
    """
    basis = ReducedBasis(n, m, l)
    w = build_walk_matrix(basis)
    eigen = eigendecompose_unitary(w)
    # the phases are 0 and pairs +-theta_j, where a last theta_j = pi is one -1
    theta = np.sort(np.abs(eigen.phases))[1::2]
    alpha, beta = 1.0 / (n - m), 1.0 / (m + 1)
    js = np.arange(1, min(l, n - m) + 1)
    closed = np.sqrt(js * (alpha + beta - js * alpha * beta))
    asym = 2.0 * np.sqrt(js / m)
    residual = float(np.max(np.abs(np.abs(np.sin(theta / 2.0)) - closed)))

    # extreme pair: eigenspaces at +-theta_l vs (e_{l-1,1} -+ ... ) / sqrt 2
    tgt_plus = np.zeros(basis.dim, dtype=complex)
    tgt_plus[basis.index(l - 1, 1)] = 1.0 / math.sqrt(2.0)
    tgt_plus[basis.index(l, 0)] = 1j / math.sqrt(2.0)
    tgt_minus = tgt_plus.conj()
    weight, top = eigen.eigenspace_weight, theta[-1]
    straight = min(weight(top, tgt_plus), weight(-top, tgt_minus))
    swapped = min(weight(top, tgt_minus), weight(-top, tgt_plus))
    fidelity = max(straight, swapped)

    return WalkSpectrumReport(
        n=n, m=m, l=l, alpha=alpha, beta=beta,
        phases=eigen.phases, theta=theta, closed_form=closed, asymptotic=asym,
        closed_form_residual=residual,
        asymptotic_deviation=np.abs(theta - asym),
        extreme_pair_fidelity=fidelity,
        closed_form_exact=residual <= 1e-9,
    )


# --- reflection decomposition ------------------------------------------

@dataclass
class DeltaDecomposition:
    """Walk step split into the +-1 diagonal C plus two small corrections."""
    n: int
    m: int
    l: int
    norm_delta1: float
    norm_delta2: float
    scaled_norm_delta1: float   # ||Delta1|| * sqrt(n - m)
    scaled_norm_delta2: float   # ||Delta2|| * sqrt(m + 1)
    delta2c_eigs_real: np.ndarray   # eigenvalues of Delta2 C, sorted
    delta2c_eigs_imag: np.ndarray
    delta2c_expected: np.ndarray = field(repr=False)

    @property
    def delta2c_eigs(self) -> np.ndarray:
        return self.delta2c_eigs_real + 1j * self.delta2c_eigs_imag


def delta_decomposition(n: int, m: int, l: int) -> DeltaDecomposition:
    """Split C1 = C + Delta1, S C2 S = C + Delta2 with C = diag((-1)^p).

    Delta2 C has a 2x2 block [[-2 b j, -2 r], [2 r, -2 b j]] with
    r = sqrt(b j (1 - b j)) for each j whose labels (j, 0) and (j-1, 1)
    exist (they are nonempty together), so its eigenvalues are
    -2 beta j +- 2i r, and 0 if (0, 0) exists.
    """
    basis = ReducedBasis(n, m, l)
    c = np.diag([(-1.0) ** p for _, p in basis.labels])
    delta1 = coin1_matrix(basis) - c
    delta2 = coin2_matrix(basis) - c
    delta2c = delta2 @ c

    bj = 1.0 / (m + 1) * np.array([j for j in range(1, l + 1)
                                   if (j, 0) in basis.labels])  # beta j
    r = np.sqrt(bj * (1.0 - bj))
    zero = [0j] if (0, 0) in basis.labels else []
    # sorted by real, then imaginary part
    expected = np.sort(np.concatenate([zero, -2.0 * bj + 2j * r,
                                       -2.0 * bj - 2j * r]), kind="stable")
    eigs = np.sort(np.linalg.eigvals(delta2c), kind="stable")

    n1 = float(np.linalg.norm(delta1, 2))
    n2 = float(np.linalg.norm(delta2, 2))
    return DeltaDecomposition(
        n=n, m=m, l=l, norm_delta1=n1, norm_delta2=n2,
        scaled_norm_delta1=n1 * math.sqrt(n - m),
        scaled_norm_delta2=n2 * math.sqrt(m + 1),
        delta2c_eigs_real=eigs.real, delta2c_eigs_imag=eigs.imag,
        delta2c_expected=expected,
    )


# --- spectrum of U (1 - 2|w><w|) ---------------------------------------

class RootBracketError(RuntimeError):
    pass


@dataclass
class UPSpectrum:
    """Eigenphases of U P found from the cotangent condition."""
    thetas: np.ndarray                  # roots, sorted, one per active pole gap
    r_a: np.ndarray                     # |<w|theta_a>|^2 per root
    overlaps: np.ndarray                # [j, a] = <u_j|theta_a>
    passthrough: np.ndarray             # eigenphases of U orthogonal to w
    pole_phases: np.ndarray             # active poles, sorted
    pole_weights: np.ndarray            # |<w|u>|^2 summed over each pole

    @property
    def all_phases(self) -> np.ndarray:
        return np.sort(np.concatenate([self.thetas, self.passthrough]))


def circular_phase_gap(phases_a, phases_b) -> float:
    """Worst pairing distance between two equal-size phase multisets.

    Phases are points on the unit circle, so sorting alone can rotate
    one list against the other when a phase sits on the branch cut
    (U P of a real orthogonal U always has exact eigenvalues at both
    +1 and -1).  Both lists are sorted on the circle and the best
    cyclic alignment is taken; the return value is the largest
    chordal distance |e^{i a} - e^{i b}| over the matched pairs.
    """
    a = np.sort(np.mod(np.asarray(phases_a, dtype=float), TWO_PI))
    b = np.sort(np.mod(np.asarray(phases_b, dtype=float), TWO_PI))
    if a.shape != b.shape:
        raise ValueError(f"phase count mismatch: {a.size} vs {b.size}")
    ea, eb = np.exp(1j * a), np.exp(1j * b)
    return min((float(np.max(np.abs(np.roll(ea, shift) - eb)))
                for shift in range(a.size)), default=math.inf)


def _cot_sum(thetas, poles, weights):
    """The weighted cotangent sum at each of a vector of phases."""
    return np.sum(weights / np.tan((thetas[:, None] - poles) / 2.0), axis=1)


def up_eigenphases(eigen: UnitaryEigen, w: np.ndarray) -> UPSpectrum:
    """Eigenphases of U (1 - 2|w><w|) via the cotangent eigenvalue condition.

    Between consecutive eigenphases of U that overlap w, the weighted
    cotangent sum falls monotonically from +inf to -inf, so bisection
    brackets exactly one root per gap.  Eigenvectors of U orthogonal to
    w pass through with their phase unchanged.
    """
    bisect_tol = 1e-13
    w = np.asarray(w, dtype=complex)
    w = w / np.linalg.norm(w)
    amp = eigen.vectors.conj().T @ w          # <u_j|w>
    weight = np.abs(amp) ** 2

    # merge numerically equal phases into distinct poles
    poles, pole_weight, members = [], [], []
    for j, phase in enumerate(eigen.phases):
        if poles and abs(_wrap_phase(phase - poles[-1])) < 1e-10:
            pole_weight[-1] += weight[j]
            members[-1].append(j)
        else:
            poles.append(float(phase))
            pole_weight.append(float(weight[j]))
            members.append([j])
    # one eigenvalue at -1 can sit at both ends of the sorted phases
    if len(poles) > 1 and abs(_wrap_phase(poles[0] - poles[-1])) < 1e-10:
        poles.pop()
        pole_weight[0] += pole_weight.pop()
        members[0] += members.pop()
    poles = np.array(poles)
    pole_weight = np.array(pole_weight)

    active = pole_weight > 1e-12  # a lighter pole is inactive
    act_poles, act_weight = poles[active], pole_weight[active]

    # pass-through: inactive poles keep all members; active degenerate
    # poles keep multiplicity - 1 copies (the in-eigenspace directions
    # orthogonal to w are untouched by the flip)
    passthrough = [pole for pole, mem, act in zip(poles, members, active)
                   for _ in range(len(mem) - int(act))]

    # one root per gap between consecutive active poles, the last gap
    # wrapping round to the first pole; every gap is bisected at once
    lo = act_poles
    hi = np.append(act_poles[1:], act_poles[:1] + TWO_PI)
    a = lo + bisect_tol * np.maximum(1.0, np.abs(lo))
    b = hi - bisect_tol * np.maximum(1.0, np.abs(hi))
    fa, fb = (np.broadcast_to(_cot_sum(x, act_poles, act_weight), x.shape)
              for x in (a, b))
    for i in range(len(lo)):
        if hi[i] - lo[i] <= 4 * bisect_tol:
            raise RootBracketError(
                f"pole gap [{lo[i]}, {hi[i]}] too narrow to bracket a root")
        if not (fa[i] > 0 > fb[i]):
            raise RootBracketError(
                f"no sign change in gap [{lo[i]:.6g}, {hi[i]:.6g}]: "
                f"f = ({fa[i]:.3g}, {fb[i]:.3g})")
    wide = np.flatnonzero(b - a > bisect_tol)
    while wide.size:
        mid = 0.5 * (a[wide] + b[wide])
        up = _cot_sum(mid, act_poles, act_weight) > 0
        a[wide[up]], b[wide[~up]] = mid[up], mid[~up]
        wide = np.flatnonzero(b - a > bisect_tol)
    thetas = np.array(sorted(map(_wrap_phase, (0.5 * (a + b)).tolist())))

    cots = 1.0 / np.tan((thetas[:, None] - act_poles) / 2.0)
    r_a = 1.0 / (1.0 + np.sum(act_weight * cots ** 2, axis=1))
    cot = 1.0 / np.tan((thetas - eigen.phases[:, None]) / 2.0)
    overlaps = np.sqrt(r_a) * amp[:, None] * (1.0 + 1j * cot)

    return UPSpectrum(thetas=thetas, r_a=r_a, overlaps=overlaps,
                      passthrough=np.array(sorted(passthrough)),
                      pole_phases=act_poles, pole_weights=act_weight)


# --- the algorithm's rotation ------------------------------------------

@dataclass
class RotationReport:
    n: int
    m: int
    l: int
    t1: int
    theta_plus: float
    theta_minus: float
    w_s_overlap: float                  # <w|s> = sqrt(c_{l,0} / c)
    ratio_plus: float                   # |theta_+| / (2 <w|s>)
    ratio_minus: float
    eigvec_fidelity: float              # against (|w> +- i |s>)/sqrt 2, worst
    error_scale: float                  # 1/m + m/n


def algorithm_rotation(n: int, m: int, l: int) -> RotationReport:
    """Smallest eigenphase pair of U = W^t1 P and its rotation-plane vectors.

    The pair should sit at +-2<w|s>, with eigenvectors near
    (|w> +- i |s>)/sqrt 2.  U is W^t1 with its (l, 0) column negated, as in
    run_reduced.  The pair is the two eigenspaces (phases within 1e-12;
    1e-8 merges the pair at large n) of least |phase| that hold over 1e-9
    of |w>, with |w>'s projections as their vectors.  A float W^t1 not
    unitary to 1e-10 (l = 2: n >= 10^18) is refused.
    """
    basis = ReducedBasis(n, m, l)
    s_vec = reduced_s(basis)
    w_idx = basis.index(l, 0)
    ws = float(s_vec[w_idx])
    if ws == 0.0:
        raise ValueError(f"<w|s>^2 underflows a float at n={n}, m={m}, l={l}")
    t1 = walk_steps(m, l)
    u = np.linalg.matrix_power(build_walk_matrix(basis), t1)
    u[:, w_idx] *= -1.0
    try:
        eigen = eigendecompose_unitary(u)
    except ValueError as exc:  # its one refusal: u is not unitary
        raise ValueError(
            f"--n {n} is too large: the float W^t1 (t1={t1}) drifts past "
            f"the 1e-10 orthogonality check at this size ({exc})") from None

    phases = eigen.phases
    roots = []  # (phase, |w>'s unit projection) per eigenspace holding |w>
    for group in np.split(np.arange(len(phases)),
                          np.flatnonzero(np.diff(phases) > 1e-12) + 1):
        q = eigen.vectors[:, group]
        weight = float(np.sum(np.abs(q[w_idx]) ** 2))
        if weight > 1e-9:
            roots.append((float(phases[group[0]]),
                          q @ q[w_idx].conj() / math.sqrt(weight)))
    roots.sort(key=lambda root: abs(root[0]))
    if len(roots) < 2 or roots[0][0] * roots[1][0] >= 0:
        raise ValueError(f"W^t1 P has no rotation pair at n={n}, m={m}, l={l}: "
                         f"no two eigenspaces holding |w> straddle phase 0")
    (theta_plus, v_plus), (theta_minus, v_minus) = \
        roots[:2] if roots[0][0] > 0 else roots[1::-1]

    w_vec = np.eye(basis.dim)[w_idx]
    fidelity = min(float(abs(np.vdot(
        (w_vec + sign * 1j * s_vec) / math.sqrt(2.0), vec)) ** 2)
        for vec, sign in ((v_plus, 1.0), (v_minus, -1.0)))
    return RotationReport(
        n=n, m=m, l=l, t1=t1,
        theta_plus=theta_plus, theta_minus=theta_minus,
        w_s_overlap=ws,
        ratio_plus=abs(theta_plus) / (2.0 * ws),
        ratio_minus=abs(theta_minus) / (2.0 * ws),
        eigvec_fidelity=fidelity,
        error_scale=1.0 / m + m / n,
    )
