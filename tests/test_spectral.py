"""Spectral machinery: eigensolver, walk spectrum, cotangent condition."""
import math
import random

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from johnson_walk import (
    ReducedBasis, UnitaryEigen, algorithm_rotation, build_walk_matrix,
    choose_parameters, circular_phase_gap, delta_decomposition,
    eigendecompose_unitary, up_eigenphases, walk_spectrum,
)
from johnson_walk.cost_model import walk_size, walk_steps
from johnson_walk.reduced_sim import reduced_s
from johnson_walk.verify import gaussian, haar_orthogonal


def random_orthogonal(d, rng):
    u = scipy.stats.ortho_group.rvs(d, random_state=rng)
    if np.linalg.det(u) < 0:
        u[:, 0] *= -1
    return u


def _solver_cases() -> dict:
    """Unitaries for the reference comparison: random ones, and ones whose
    eigenvalues repeat exactly, at +-1 or in repeated rotation blocks."""
    rng = np.random.default_rng(21)
    q = random_orthogonal(8, rng)
    z = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    v = np.linalg.qr(z)[0]
    h = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))

    def rot(t):
        return [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]

    return {
        "identity": np.eye(5),
        "three-cycle": np.roll(np.eye(3), 1, axis=0),
        "exact +-1": q @ np.diag([1.0, -1, 1, -1, -1, 1, 1, -1]) @ q.T,
        "repeated rotation blocks": q @ scipy.linalg.block_diag(
            rot(0.7), rot(0.7), rot(2.1), [[1.0]], [[-1.0]]) @ q.T,
        "complex repeated": (v * np.exp(1j * np.array(
            [0.4, 0.4, 0.4, -2.0, math.pi, math.pi]))) @ v.conj().T,
        "orthogonal 3": random_orthogonal(3, rng),
        "orthogonal 11": random_orthogonal(11, rng),
        "unitary 5": scipy.linalg.expm(1j * (h + h.conj().T)),
    }


SOLVER_CASES = _solver_cases()


def reconstruction_residual(eig, u):
    """max |V diag(e^{i phases}) V^H - U|: how well eig rebuilds u."""
    recon = (eig.vectors * np.exp(1j * eig.phases)) @ eig.vectors.conj().T
    return float(np.max(np.abs(recon - u)))


def _projector(values, vectors, at):
    near = np.abs(values - at) <= 1e-8
    return vectors[:, near] @ vectors[:, near].conj().T


@pytest.mark.parametrize("name", SOLVER_CASES)
def test_eigendecompose_matches_schur_reference(name):
    """Phases and eigenspace projectors against scipy's complex Schur form,
    which is diagonal for a normal matrix."""
    u = SOLVER_CASES[name]
    t, z = scipy.linalg.schur(u.astype(complex), output="complex")
    ref = np.diag(t)
    eig = eigendecompose_unitary(u)
    assert circular_phase_gap(eig.phases, np.angle(ref)) <= 1e-12
    ours = np.exp(1j * eig.phases)
    for at in ref:
        dev = _projector(ours, eig.vectors, at) - _projector(ref, z, at)
        assert np.max(np.abs(dev)) <= 1e-10
    gram = eig.vectors.conj().T @ eig.vectors
    assert np.max(np.abs(gram - np.eye(len(u)))) <= 1e-10
    assert reconstruction_residual(eig, u) <= 1e-12


@pytest.mark.parametrize("l", [2, 3, 4])
def test_eigenvectors_orthonormal_at_n_1e8(l):
    """W and W^t1 at n = 10^8, where the walk's phases are ~1e-3 apart."""
    n = 10 ** 8
    m = choose_parameters(n, l).m
    w = build_walk_matrix(ReducedBasis(n, m, l))
    for u in (w, np.linalg.matrix_power(w, walk_steps(m, l))):
        v = eigendecompose_unitary(u).vectors
        assert np.linalg.norm(v.conj().T @ v - np.eye(len(u)), 2) <= 1e-10


def test_eigendecompose_identity():
    eig = eigendecompose_unitary(np.eye(4))
    assert np.allclose(eig.phases, 0.0)
    assert reconstruction_residual(eig, np.eye(4)) <= 1e-12


def test_eigendecompose_three_cycle():
    cycle = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    eig = eigendecompose_unitary(cycle)
    expect = np.array([-2.0 * math.pi / 3.0, 0.0, 2.0 * math.pi / 3.0])
    assert np.max(np.abs(np.sort(eig.phases) - expect)) < 1e-12


def test_eigendecompose_rejects_nonunitary():
    with pytest.raises(ValueError):
        eigendecompose_unitary(np.ones((3, 3)))


def test_eigendecompose_reflection_products():
    """Random products of reflections, d=8: residual and overlap sums."""
    rng = np.random.default_rng(1)
    for _ in range(10):
        u = np.eye(8)
        for _ in range(4):
            v = rng.normal(size=8)
            v /= np.linalg.norm(v)
            u = u @ (np.eye(8) - 2.0 * np.outer(v, v))
        w = rng.normal(size=8)
        w /= np.linalg.norm(w)
        eig = eigendecompose_unitary(u)
        assert reconstruction_residual(eig, u) <= 1e-9
        overlaps_w = np.abs(eig.vectors.conj().T @ w) ** 2
        assert abs(np.sum(overlaps_w) - 1.0) <= 1e-10


def test_eigendecompose_complex_unitary():
    rng = np.random.default_rng(2)
    d = 6
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    u = scipy.linalg.expm(1j * (h + h.conj().T))
    eig = eigendecompose_unitary(u)
    assert reconstruction_residual(eig, u) <= 1e-9


def test_walk_phases_come_in_pairs():
    """+- phase pairing with equal w-overlaps, the flip axis being (l,0)."""
    for n, m, l in [(9, 4, 2), (200, 34, 2), (1000, 178, 3)]:
        basis = ReducedBasis(n, m, l)
        w_vec = np.zeros(basis.dim)
        w_vec[basis.index(l, 0)] = 1.0
        eig = eigendecompose_unitary(build_walk_matrix(basis))
        overlaps_w = np.abs(eig.vectors.conj().T @ w_vec) ** 2
        nonzero = np.sort(eig.phases[np.abs(eig.phases) > 1e-12])
        assert np.max(np.abs(nonzero + nonzero[::-1])) <= 1e-10
        for theta in nonzero[nonzero > 0]:
            i_plus = int(np.argmin(np.abs(eig.phases - theta)))
            i_minus = int(np.argmin(np.abs(eig.phases + theta)))
            assert abs(overlaps_w[i_plus] - overlaps_w[i_minus]) <= 1e-10


def test_walk_spectrum_three_cycle():
    rep = walk_spectrum(3, 1, 1)
    assert abs(rep.theta[0] - 2.0 * math.pi / 3.0) < 1e-12
    assert abs(math.sin(rep.theta[0] / 2.0) - math.sqrt(3.0) / 2.0) < 1e-12
    assert abs(rep.closed_form[0] - math.sqrt(0.5 + 0.5 - 0.25)) < 1e-15
    assert rep.closed_form_exact


def test_walk_spectrum_closed_form_grid():
    for n in (50, 200, 1000):
        for l in (1, 2, 3):
            m = choose_parameters(n, l).m
            rep = walk_spectrum(n, m, l)
            assert rep.closed_form_residual <= 1e-9, (n, l)
            assert rep.closed_form_exact


def test_walk_spectrum_asymptotic_bound():
    for n in (50, 200, 1000):
        for l in (1, 2, 3):
            m = choose_parameters(n, l).m
            rep = walk_spectrum(n, m, l)
            bound = 5.0 * (1.0 / m + 1.0 / math.sqrt(n))
            assert rep.asymptotic_deviation[-1] <= bound, (n, l)


def test_extreme_pair_fidelity_bound():
    for n in (50, 200, 1000):
        for l in (1, 2, 3):
            m = choose_parameters(n, l).m
            rep = walk_spectrum(n, m, l)
            assert rep.extreme_pair_fidelity >= 1.0 - 25.0 * m / n, (n, l)


def test_delta_norms_scale():
    """||Delta1|| sqrt(n-m) and ||Delta2|| sqrt(m+1) sit at 2 sqrt(l)."""
    for n, m, l in [(200, 34, 2), (1000, 100, 2), (1000, 178, 3),
                    (10 ** 4, 464, 2)]:
        rep = delta_decomposition(n, m, l)
        assert 1.0 <= rep.scaled_norm_delta1 <= 2.0 * math.sqrt(l) + 1e-9
        assert abs(rep.scaled_norm_delta1 - 2.0 * math.sqrt(l)) < 0.1
        assert 1.0 <= rep.scaled_norm_delta2 <= 2.0 * math.sqrt(l) + 1e-9


def test_delta2c_eigenvalues():
    """l conjugate pairs -2 beta j +- 2i sqrt(beta j (1 - beta j)), plus 0."""
    for n, m, l in [(100, 40, 1), (200, 53, 3), (1000, 100, 2)]:
        rep = delta_decomposition(n, m, l)
        dev = np.max(np.abs(np.sort_complex(rep.delta2c_eigs)
                            - np.sort_complex(rep.delta2c_expected)))
        assert dev <= 1e-10
        beta = 1.0 / (m + 1)
        for j in range(1, l + 1):
            target = -2.0 * beta * j + 2j * math.sqrt(beta * j * (1 - beta * j))
            assert np.min(np.abs(rep.delta2c_eigs - target)) <= 1e-10


def test_up_pure_reflection():
    """U = identity: UP = 1 - 2|w><w| has the single flipped phase pi."""
    w = np.array([1.0, 0.0, 0.0, 0.0])
    eig = eigendecompose_unitary(np.eye(4))
    sp = up_eigenphases(eig, w)
    assert len(sp.thetas) == 1
    assert abs(abs(sp.thetas[0]) - math.pi) <= 1e-9
    assert abs(sp.r_a[0] - 1.0) <= 1e-12
    assert len(sp.passthrough) == 3
    assert np.allclose(sp.passthrough, 0.0)


def test_up_random_matches_direct():
    rng = np.random.default_rng(4)
    for _ in range(10):
        d = int(rng.integers(3, 17))
        u = random_orthogonal(d, rng)
        w = rng.normal(size=d)
        w /= np.linalg.norm(w)
        eig = eigendecompose_unitary(u)
        sp = up_eigenphases(eig, w)
        up = u @ (np.eye(d) - 2.0 * np.outer(w, w))
        direct = np.angle(np.linalg.eigvals(up))
        assert len(sp.all_phases) == d
        assert circular_phase_gap(sp.all_phases, direct) <= 1e-9


def test_up_merges_the_pole_at_both_ends():
    """A doubled eigenvalue -1 whose phases sit at both ends of the sorted
    list, -pi + 1e-13 and pi - 1e-13, is one pole: one root for it, and
    one copy that passes through at +-pi.  Left as two poles, the gap
    that wraps round between them is too narrow to bracket."""
    rng = random.Random(11)
    phases = np.array([-math.pi + 1e-13, -1.9, -0.4, 0.7, 2.3,
                       math.pi - 1e-13])
    vectors = haar_orthogonal(len(phases), rng)
    w = gaussian(rng, len(phases))
    w /= np.linalg.norm(w)
    sp = up_eigenphases(UnitaryEigen(phases=phases, vectors=vectors), w)
    at_pi = np.abs(np.exp(1j * sp.pole_phases) + 1.0) <= 1e-12
    assert len(sp.pole_phases) == 5 and np.count_nonzero(at_pi) == 1
    assert len(sp.passthrough) == 1
    assert abs(np.exp(1j * sp.passthrough[0]) + 1.0) <= 1e-12
    u = (vectors * np.exp(1j * phases)) @ vectors.T
    direct = np.angle(np.linalg.eigvals(u @ (np.eye(6) - 2.0 * np.outer(w, w))))
    assert len(sp.all_phases) == 6
    assert circular_phase_gap(sp.all_phases, direct) <= 1e-9


def test_up_cot_residual_and_r_sum():
    rng = np.random.default_rng(6)
    u = random_orthogonal(10, rng)
    w = rng.normal(size=10)
    w /= np.linalg.norm(w)
    eig = eigendecompose_unitary(u)
    sp = up_eigenphases(eig, w)
    # each root satisfies the cotangent condition
    for theta in sp.thetas:
        resid = float(np.sum(sp.pole_weights
                             / np.tan((theta - sp.pole_phases) / 2.0)))
        assert abs(resid) <= 1e-8
    # the flip axis decomposes entirely over the roots
    assert abs(np.sum(sp.r_a) - 1.0) <= 1e-9


def test_up_r_a_matches_direct_overlaps():
    rng = np.random.default_rng(8)
    for _ in range(5):
        d = int(rng.integers(4, 13))
        u = random_orthogonal(d, rng)
        w = rng.normal(size=d)
        w /= np.linalg.norm(w)
        eig = eigendecompose_unitary(u)
        sp = up_eigenphases(eig, w)
        up = u @ (np.eye(d) - 2.0 * np.outer(w, w))
        vals, vecs = np.linalg.eig(up)
        for theta, r in zip(sp.thetas, sp.r_a):
            i = int(np.argmin(np.abs(vals - np.exp(1j * theta))))
            direct_r = abs(np.vdot(w.astype(complex), vecs[:, i])) ** 2
            assert abs(r - direct_r) <= 1e-9


def test_up_overlap_formula_consistency():
    """<u_j|theta_a> from the (1 + i cot) formula reproduces unit vectors."""
    rng = np.random.default_rng(9)
    u = random_orthogonal(8, rng)
    w = rng.normal(size=8)
    w /= np.linalg.norm(w)
    eig = eigendecompose_unitary(u)
    sp = up_eigenphases(eig, w)
    up = u @ (np.eye(8) - 2.0 * np.outer(w, w))
    for a in range(len(sp.thetas)):
        vec = eig.vectors @ sp.overlaps[:, a]
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-8
        # and it is an eigenvector of UP with the root's phase
        assert np.max(np.abs(up @ vec - np.exp(1j * sp.thetas[a]) * vec)) <= 1e-7


def test_lemma2_smallest_pair():
    """Smallest |theta| pair of W^t1 P sits at +-2<w|s> within 5%."""
    for n, m, l in [(10 ** 4, 464, 2), (10 ** 5, 316, 1)]:
        rep = algorithm_rotation(n, m, l)
        assert 0.95 <= rep.ratio_plus <= 1.05
        assert 0.95 <= rep.ratio_minus <= 1.05
        assert abs(rep.theta_plus + rep.theta_minus) <= 1e-12


def test_rotation_eigenvector_fidelity():
    for n, m, l in [(10 ** 4, 464, 2), (10 ** 5, 316, 1)]:
        rep = algorithm_rotation(n, m, l)
        assert rep.eigvec_fidelity >= 1.0 - 10.0 * rep.error_scale


ROTATION_GRID = [(n, l) for n in (9, 10, 12, 16, 20, 50, 100) + tuple(
    10 ** k for k in range(3, 9)) for l in (1, 2, 3, 4)]


def rotation_inputs(n, m, l):
    """W^t1, |w> and |s> in the reduced basis, t1 = walk_steps(m, l)."""
    basis = ReducedBasis(n, m, l)
    u = np.linalg.matrix_power(build_walk_matrix(basis), walk_steps(m, l))
    w = np.zeros(basis.dim)
    w[basis.index(l, 0)] = 1.0
    return u, w, reduced_s(basis)


def direct_rotation_fidelity(u, w, s, theta_plus, theta_minus):
    """The theta+- fidelity from a dense eig of U P built here, U = W^t1:
    eigenvalues within 1e-8 of e^{i theta} are one eigenspace, its vectors
    orthonormalized by QR.  No code is shared with spectral."""
    values, vectors = np.linalg.eig(u @ (np.eye(len(w))
                                         - 2.0 * np.outer(w, w)))

    def weight(theta, target):
        near = np.abs(values - np.exp(1j * theta)) <= 1e-8
        q = np.linalg.qr(vectors[:, near])[0]
        return float(np.sum(np.abs(q.conj().T @ target) ** 2))

    return min(weight(theta_plus, (w + 1j * s) / math.sqrt(2.0)),
               weight(theta_minus, (w - 1j * s) / math.sqrt(2.0)))


def rootfinder_rotation(u, w, s):
    """theta+- and their fidelity by the paper's cotangent condition: the
    two roots of least |theta| that up_eigenphases finds between the poles
    of W^t1, each root's vector sum_j <u_j|theta> |u_j>."""
    eigen = eigendecompose_unitary(u)
    sp = up_eigenphases(eigen, w)
    order = np.argsort(np.abs(sp.thetas))[:2]
    plus, minus = order if sp.thetas[order[0]] > 0 else order[::-1]
    fidelity = min(float(abs(np.vdot(
        (w + sign * 1j * s) / math.sqrt(2.0),
        eigen.vectors @ sp.overlaps[:, root])) ** 2)
        for root, sign in ((plus, 1.0), (minus, -1.0)))
    return sp.thetas[plus], sp.thetas[minus], fidelity


@pytest.mark.parametrize("n, l", ROTATION_GRID)
def test_rotation_fidelity_matches_direct_diagonalization(n, l):
    """algorithm_rotation takes its pair from one eigensolve of W^t1 P; a
    dense diagonalization of U P built here gives the same fidelity, and
    the paper's cotangent root finder the same theta+- and fidelity, to
    1e-12.  spectrum accepts every point, n=9, l=4 (n - m < l) included."""
    m = walk_size(n, l)
    rep = algorithm_rotation(n, m, l)
    walk_spectrum(n, m, l)
    delta_decomposition(n, m, l)
    u, w, s = rotation_inputs(n, m, l)
    direct = direct_rotation_fidelity(u, w, s, rep.theta_plus,
                                      rep.theta_minus)
    assert abs(rep.eigvec_fidelity - direct) <= 1e-12
    theta_plus, theta_minus, fidelity = rootfinder_rotation(u, w, s)
    assert abs(rep.theta_plus - theta_plus) <= 1e-12
    assert abs(rep.theta_minus - theta_minus) <= 1e-12
    assert abs(rep.eigvec_fidelity - fidelity) <= 1e-12


def test_rotation_t1_fixture():
    # m=4, l=2: (pi/2) sqrt(2) = 2.221 -> 2
    rep = algorithm_rotation(9, 4, 2)
    assert rep.t1 == 2
    c20, c = math.comb(7, 2) * 5, math.comb(9, 4) * 5
    assert abs(rep.w_s_overlap - math.sqrt(c20 / c)) < 1e-15


def test_root_count_conservation():
    rng = np.random.default_rng(12)
    for _ in range(5):
        d = int(rng.integers(3, 13))
        u = random_orthogonal(d, rng)
        w = rng.normal(size=d)
        w /= np.linalg.norm(w)
        eig = eigendecompose_unitary(u)
        sp = up_eigenphases(eig, w)
        assert len(sp.thetas) + len(sp.passthrough) == d


def scalar_bisection(poles, weights, tol=1e-13):
    """Reference for up_eigenphases' root finder: one scalar bisection per
    gap between consecutive poles, the last gap wrapping round to the
    first pole, each root mapped to (-pi, pi].  It takes only the active
    poles and weights from spectral, and none of its code."""
    roots = []
    for i, lo in enumerate(poles):
        hi = poles[i + 1] if i + 1 < len(poles) else poles[0] + 2 * math.pi
        a = lo + tol * max(1.0, abs(lo))
        b = hi - tol * max(1.0, abs(hi))
        while b - a > tol:
            mid = 0.5 * (a + b)
            if float(np.sum(weights / np.tan((mid - poles) / 2.0))) > 0:
                a = mid
            else:
                b = mid
        t = (float(0.5 * (a + b)) + math.pi) % (2 * math.pi) - math.pi
        roots.append(math.pi if t == -math.pi else t)
    return np.array(sorted(roots))


@pytest.mark.parametrize("case", ["check_up_rootfinder", "rotation n=9",
                                  "rotation n=10^4"])
def test_vector_bisection_matches_scalar_reference(case, monkeypatch):
    """Every gap bisected at once gives bit for bit the roots of one scalar
    bisection per gap, on the draws verify makes and on the rotation's
    W^t1 and |w>."""
    from johnson_walk import verify

    found = []

    def recorded(eigen, w):
        found.append(up_eigenphases(eigen, w))
        return found[-1]

    if case == "check_up_rootfinder":
        monkeypatch.setattr(verify, "up_eigenphases", recorded)
        assert verify.check_up_rootfinder().passed
    else:
        n = 9 if case == "rotation n=9" else 10 ** 4
        u, w, _ = rotation_inputs(n, walk_size(n, 2), 2)
        recorded(eigendecompose_unitary(u), w)
    assert len(found) == (10 if case == "check_up_rootfinder" else 1)
    for sp in found:
        reference = scalar_bisection(sp.pole_phases, sp.pole_weights)
        assert sp.thetas.dtype == reference.dtype
        assert np.array_equal(sp.thetas, reference)
