import math
import tracemalloc

import numpy as np
import pytest

from analog_oracle import (
    evolve_dense,
    gaussian_inverse_scalar,
    hubbard_stratonovich_check,
    project_dense,
    ring_inverse_scalar,
)
from lculab import analog
from lculab.analog import (
    AncillaState,
    ConvergenceError,
    QumodeGrid,
    analog_gsp,
    analog_qls_gaussian,
    analog_qls_ring,
    evolve_bilinear,
    gaussian_ground,
    harmonic_first_excited,
    line_grid,
    project_ancilla,
    ring_flat,
    ring_grid,
)
from lculab.applications import GspProblem, QlsProblem
from lculab.core_algebra import (
    DenseOperator,
    StateVector,
    basis_state,
    ham_to_dense,
    parse_pauli_text,
)
from lculab.harness import parse_config, run

Z = np.array([[1, 0], [0, -1]], dtype=complex)


class TestGrids:
    def test_line_weights_integrate(self):
        g = line_grid(5.0, 1001)
        # trapezoid rule integrates a Gaussian essentially exactly here
        val = float(np.sum(g.weights * np.exp(-g.points ** 2 / 2)))
        # limited only by the tail truncated at |z| > 5
        assert val == pytest.approx(math.sqrt(2 * math.pi), abs=1e-5)

    def test_ring_weights_sum_to_one(self):
        g = ring_grid(64)
        assert float(np.sum(g.weights)) == pytest.approx(1.0)
        assert np.all((0 < g.points) & (g.points < 1))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            QumodeGrid(points=np.array([0.0]), weights=np.array([-1.0]),
                       kind="line")


class TestAncillaStates:
    def test_gaussian_ground_unit_norm(self):
        a = gaussian_ground(line_grid(10.0, 2001))
        assert float(np.sum(a.grid.weights * np.abs(a.amplitudes) ** 2)) \
            == pytest.approx(1.0)

    def test_first_excited_orthogonal_to_ground(self):
        g = line_grid(10.0, 2001)
        a0, a1 = gaussian_ground(g), harmonic_first_excited(g)
        ov = float(np.sum(g.weights * np.conj(a0.amplitudes)
                          * a1.amplitudes).real)
        assert abs(ov) <= 1e-12

    def test_ring_flat_amplitude(self):
        a = ring_flat(ring_grid(128))
        assert np.allclose(a.amplitudes, 1.0)

    def test_bad_norm_rejected(self):
        g = line_grid(5.0, 101)
        with pytest.raises(ValueError):
            AncillaState("x", g, np.ones(101))


class TestEvolveProject:
    def test_zero_time_is_identity(self):
        h = DenseOperator(Z, hermitian=True)
        g = line_grid(8.0, 513)
        anc = gaussian_ground(g)
        hyb = evolve_bilinear(h, basis_state(1, 0), [anc], 0.0)
        comp, prob = project_ancilla(hyb, [gaussian_ground(g)])
        assert prob == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(comp.amplitudes, [1.0, 0.0], atol=1e-10)

    def test_single_ancilla_gaussian_filter(self):
        # <g| e^{-i H z T} |g> = e^{-(lambda T)^2 / 2} on each eigenvector
        h = DenseOperator(0.5 * Z, hermitian=True)
        bigT = 2.0
        g = line_grid(12.0, 4097)
        hyb = evolve_bilinear(h, StateVector(np.array([0.6, 0.8])), [
            gaussian_ground(g)], bigT)
        comp, _ = project_ancilla(hyb, [gaussian_ground(g)])
        damp = math.exp(-(0.5 * bigT) ** 2 / 2)
        assert np.allclose(comp.amplitudes, [0.6 * damp, 0.8 * damp],
                           atol=1e-8)

    def test_quadrature_norm_preserved(self):
        # the state-level oracle that the spectral engine is checked against
        h = DenseOperator(Z, hermitian=True)
        g = line_grid(10.0, 1025)
        hyb = evolve_dense(h, basis_state(1, 0), [gaussian_ground(g)], 3.7)
        assert hyb.quadrature_norm() == pytest.approx(1.0, abs=1e-10)

    def test_requires_hermitian(self):
        m = DenseOperator(np.array([[0, 1], [0, 0]], dtype=complex))
        with pytest.raises(ValueError):
            evolve_bilinear(m, basis_state(1, 0),
                            [gaussian_ground(line_grid(5.0, 65))], 1.0)

    def test_grid_mismatch_rejected(self):
        h = DenseOperator(Z, hermitian=True)
        g = line_grid(8.0, 257)
        hyb = evolve_bilinear(h, basis_state(1, 0), [gaussian_ground(g)], 1.0)
        with pytest.raises(ValueError):
            project_ancilla(hyb, [gaussian_ground(line_grid(8.0, 129))])


def _random_ancilla(rng, grid):
    raw = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    return AncillaState("random", grid, raw / math.sqrt(
        float(np.sum(grid.weights * np.abs(raw) ** 2))))


def _random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return DenseOperator((m + m.conj().T) / 4, hermitian=True)


class TestEngineVsOracle:
    """The spectral engine against the dense (dim, n) / (dim, n, n) oracle,
    with random ancilla and target states so that every phase, conjugate
    and weight shows."""

    GRIDS = {"line": lambda n: line_grid(6.0, n), "ring": ring_grid}

    @pytest.mark.parametrize("bigT", [0.0, 1.3, 7.0])
    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("kinds,ns", [
        (("line",), (129,)),
        (("ring",), (64,)),
        (("line", "line"), (65, 33)),
        (("line", "ring"), (129, 64)),
        (("ring", "ring"), (32, 48)),
    ])
    def test_engine_matches_dense_oracle(self, kinds, ns, dim, bigT):
        rng = np.random.default_rng([dim, int(10 * bigT), *ns])
        h = _random_hermitian(rng, dim)
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi0 = StateVector(psi / np.linalg.norm(psi))
        grids = [self.GRIDS[k](n) for k, n in zip(kinds, ns)]
        ancs = [_random_ancilla(rng, g) for g in grids]
        tgts = [_random_ancilla(rng, g) for g in grids]
        comp, prob = project_ancilla(evolve_bilinear(h, psi0, ancs, bigT), tgts)
        ref, ref_prob = project_dense(evolve_dense(h, psi0, ancs, bigT), tgts)
        assert np.max(np.abs(comp.amplitudes - ref)) <= 1e-12
        assert prob == pytest.approx(ref_prob, abs=1e-12)

    def test_three_ancillas_rejected(self):
        g = line_grid(5.0, 33)
        with pytest.raises(ValueError):
            evolve_bilinear(DenseOperator(Z, hermitian=True), basis_state(1, 0),
                            [gaussian_ground(g)] * 3, 1.0)


def _direct_overlap(freqs, gy, gz, a, b):
    """The double sum sum_jk a_j b_k e^{-i w y_j z_k}, one n x m table per w."""
    yz = np.outer(gy.points, gz.points)
    return np.array([a @ np.exp(-1j * w * yz) @ b for w in freqs])


def _uniform_grid(rng, n):
    centre, half = rng.uniform(-2.0, 2.0), rng.uniform(0.5, 3.0)
    pts = np.linspace(centre - half, centre + half, n)
    return QumodeGrid(points=pts, weights=np.full(n, 2 * half / n), kind="line")


class TestBilinearOverlap:
    """The two-ancilla overlap (one FFT correlation per eigenvalue) against
    the direct double sum.  Errors are relative to sum_jk |a_j b_k|, the
    scale of the sum, since a single overlap can vanish (ground against
    first excited state at lambda = 0)."""

    FREQS = np.array([-30.0, -7.3, -0.4, 0.0, 1.1, 12.9, 25.3, 30.0])

    @pytest.mark.parametrize("n,m", [(33, 48), (64, 17), (101, 100), (2, 1)])
    def test_random_uniform_grids(self, n, m):
        rng = np.random.default_rng([n, m])
        gy, gz = _uniform_grid(rng, n), _uniform_grid(rng, m)
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        b = rng.normal(size=m) + 1j * rng.normal(size=m)
        got = analog._bilinear_overlap(self.FREQS, gy, gz, a, b)
        ref = _direct_overlap(self.FREQS, gy, gz, a, b)
        scale = np.sum(np.abs(a)) * np.sum(np.abs(b))
        assert np.max(np.abs(got - ref)) <= 1e-12 * scale

    @pytest.mark.parametrize("n", [512, 1024])
    @pytest.mark.parametrize("ring", [True, False], ids=["line+ring", "line+line"])
    def test_runner_grids(self, n, ring):
        # the check grid (z_max, 512) and the reported grid (1.25 z_max, 1024)
        # of the two-ancilla runners at eps = 0.1, with their ancilla states
        z_max = (8.0 + math.sqrt(2 * math.log(10.0))) * (1.25 if n == 1024 else 1.0)
        gy = line_grid(z_max, n)
        if ring:
            gz = ring_grid(n)
            a = gy.weights * gaussian_ground(gy).amplitudes \
                * harmonic_first_excited(gy).amplitudes
            b = gz.weights * ring_flat(gz).amplitudes
        else:
            gz = gy
            a = b = gy.weights * gaussian_ground(gy).amplitudes ** 2
        got = analog._bilinear_overlap(self.FREQS, gy, gz, a, b)
        ref = _direct_overlap(self.FREQS, gy, gz, a, b)
        scale = np.sum(np.abs(a)) * np.sum(np.abs(b))
        assert np.max(np.abs(got - ref)) <= 1e-12 * scale

    def test_non_uniform_grid_rejected(self):
        g = line_grid(5.0, 65)
        pts = g.points.copy()
        pts[10] += 1e-6
        bent = QumodeGrid(points=pts, weights=g.weights, kind="line")
        anc = gaussian_ground(bent)
        hyb = evolve_bilinear(DenseOperator(Z, hermitian=True), basis_state(1, 0),
                              [anc, ring_flat(ring_grid(16))], 1.0)
        with pytest.raises(ValueError, match="uniform"):
            project_ancilla(hyb, [anc, ring_flat(ring_grid(16))])

    def test_no_dense_table(self):
        # a 1024 x 1024 complex table per eigenvalue would take 16 MB
        rng = np.random.default_rng(11)
        gy, gz = line_grid(12.7, 1024), ring_grid(1024)
        ancs = [harmonic_first_excited(gy), ring_flat(gz)]
        hyb = evolve_bilinear(_random_hermitian(rng, 4), basis_state(2, 0), ancs, 9.0)
        tgts = [gaussian_ground(gy), ring_flat(gz)]
        tracemalloc.start()
        try:
            project_ancilla(hyb, tgts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


class TestScalarOracles:
    @pytest.mark.parametrize("y", [0.0, 0.7, 2.3, 5.0])
    def test_hubbard_stratonovich(self, y):
        assert hubbard_stratonovich_check(y) \
            == pytest.approx(math.exp(-y * y / 2), abs=1e-8)

    def test_ring_inverse_scalar(self):
        # closed form of the quadrature target: (1 - e^{-(xT)^2/2}) / x
        bigT = 5.0 * math.sqrt(2 * math.log(5.0 / 0.05))
        xs = np.array([0.3, 0.5, 0.8, 1.0])
        vals = ring_inverse_scalar(xs, bigT)
        target = (1.0 - np.exp(-(xs * bigT) ** 2 / 2)) / xs
        assert np.max(np.abs(np.real(vals) - target)) <= 1e-3
        assert np.max(np.abs(np.imag(vals))) <= 1e-8

    def test_gaussian_inverse_scalar(self):
        bigT = 40.0
        for x in (0.3, 0.6, 1.0):
            target = 1.0 / math.sqrt(x * x + 1.0 / bigT ** 2)
            assert gaussian_inverse_scalar(x, bigT) \
                == pytest.approx(target, rel=1e-6)


@pytest.fixture(scope="module")
def gsp_problem():
    h = parse_pauli_text("0.5*II-0.5*ZZ+0.1*XI")
    evals, evecs = np.linalg.eigh(ham_to_dense(h).entries)
    psi0 = basis_state(2, 0)
    overlaps = np.abs(evecs[:, :2].conj().T @ psi0.amplitudes)
    ground = evecs[:, int(np.argmax(overlaps))]
    problem = GspProblem(hamiltonian=h, gap_lower_bound=0.9,
                         overlap_lower_bound=0.7,
                         ground_energy_estimate=float(evals[0]),
                         energy_precision=0.01, initial_state=psi0)
    return problem, ground


class TestAnalogGsp:
    def test_filtered_state_near_ground(self, gsp_problem):
        problem, ground = gsp_problem
        out = analog_gsp(problem, 0.05)
        fid = abs(np.vdot(out["state"].amplitudes, ground))
        assert fid >= 1 - 0.05

    def test_success_prob_at_least_overlap_sq(self, gsp_problem):
        problem, _ = gsp_problem
        out = analog_gsp(problem, 0.05)
        assert out["success_prob"] >= problem.overlap_lower_bound ** 2 - 0.05
        assert out["bigT"] == pytest.approx(math.sqrt(2 * out["t"]))


    def test_degenerate_ground_space_fidelity(self):
        # 1.0*ZI has the two-fold ground space |1>(x)C^2, and |1>|+> lies in
        # it: the fidelity is the weight in that space, not the overlap with
        # one eigenvector of it
        h = parse_pauli_text("1.0*ZI")
        psi0 = StateVector(np.array([0, 0, 1, 1]) / math.sqrt(2))
        problem = GspProblem(hamiltonian=h, gap_lower_bound=1.5,
                             overlap_lower_bound=0.5,
                             ground_energy_estimate=-1.0,
                             energy_precision=0.01, initial_state=psi0)
        out = analog_gsp(problem, 0.1)
        assert out["success_prob"] >= 0.99
        assert out["fidelity_vs_ground"] == pytest.approx(1.0, abs=1e-12)


class TestAnalogQls:
    def test_ring_inverse_component(self):
        h = parse_pauli_text("0.6*ZZ+0.4*XX")
        p = QlsProblem(h, 5.0, basis_state(2, 0))
        out = analog_qls_ring(p, 0.05)
        bigT = out["bigT"]
        hd = ham_to_dense(h).entries
        oracle = np.linalg.solve(hd, p.b_state.amplitudes) / bigT
        assert np.linalg.norm(out["projected_component"].amplitudes
                              - oracle) <= 0.05 / bigT * 5
        assert out["error_vs_oracle"] <= 0.05

    def test_gaussian_inverse_positive_spectrum(self):
        # 0.625*I + 0.375*Z has spectrum {1, 0.25}: kappa = 4
        h = parse_pauli_text("0.625*II+0.375*ZI")
        psi = StateVector(np.full(4, 0.5))
        p = QlsProblem(h, 4.0, psi)
        out = analog_qls_gaussian(p, 0.1)
        assert out["grid_error_vs_smoothed"] <= 0.1 / out["bigT"]

    def test_gaussian_rejects_indefinite(self):
        h = parse_pauli_text("0.6*ZZ+0.4*XX")
        p = QlsProblem(h, 5.0, basis_state(2, 0))
        with pytest.raises(ValueError):
            analog_qls_gaussian(p, 0.1)

    def test_gaussian_large_kappa_not_converged(self):
        # kappa = 10 pushes T past what the fixed grid can resolve
        h = parse_pauli_text("0.55*II+0.45*ZI")
        psi = StateVector(np.full(4, 0.5))
        p = QlsProblem(h, 10.0, psi)
        with pytest.raises(ConvergenceError):
            analog_qls_gaussian(p, 0.01)


class TestRefinement:
    """Each runner makes a check run on (z_max, n) and reports the run on
    (1.25 z_max, 2n), and its report names the grid of that last run."""

    @pytest.mark.parametrize("sub,params", [
        ("analog-gsp", {"hamiltonian": "0.4*Z+0.2*X", "gap": "0.8",
                        "eta": "0.5", "e0": "-0.46", "eg": "0.02",
                        "state": "basis:0"}),
        ("analog-qls", {"hamiltonian": "0.6*Z+0.4*X", "kappa": "2",
                        "ancilla": "ring"}),
        ("analog-qls", {"hamiltonian": "0.6*I+0.2*Z", "kappa": "3",
                        "ancilla": "gaussian"}),
    ], ids=["gsp", "qls_ring", "qls_gaussian"])
    def test_report_names_the_last_grid(self, monkeypatch, sub, params):
        grids = []
        evolve = analog.evolve_bilinear

        def spy(h, psi0, ancillas, bigT):
            grids.append((ancillas[0].grid.n, float(ancillas[0].grid.points[-1])))
            return evolve(h, psi0, ancillas, bigT)

        monkeypatch.setattr(analog, "evolve_bilinear", spy)
        grid = run(parse_config(sub, params)).results["grid"]
        (n, z_max), (n2, z_max2) = grids
        assert (n2, z_max2) == (2 * n, pytest.approx(1.25 * z_max))
        assert (grid["n"], grid["z_max"]) == (n2, pytest.approx(z_max2, abs=1e-12))
