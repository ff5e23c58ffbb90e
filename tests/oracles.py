"""Independent reference implementations used as test oracles.

Everything here recomputes expected values by a different route than the
package: explicit index loops and Kronecker chains instead of index-built
exchange terms, Pade approximation instead of spectral exponentials,
Newton iteration instead of SVD polar factors, closed-form three-level
rotations instead of generic propagators, and grid scans instead of
closed-form phase minima. Where the package takes work in blocks to bound
its memory, the reference takes it in one shot.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.linalg

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
EYE2 = np.eye(2, dtype=complex)


def kron_bruteforce(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ar, ac = a.shape
    br, bc = b.shape
    out = np.zeros((ar * br, ac * bc), dtype=complex)
    for i in range(ar):
        for j in range(ac):
            for k in range(br):
                for m in range(bc):
                    out[i * br + k, j * bc + m] = a[i, j] * b[k, m]
    return out


def embed_bruteforce(op: np.ndarray, k: int, n: int) -> np.ndarray:
    """op on qubit k (1-based, qubit 1 = MSB) of an n-qubit register."""
    out = np.eye(1, dtype=complex)
    for slot in range(1, n + 1):
        out = kron_bruteforce(out, op if slot == k else EYE2)
    return out


def pauli_kron(axis: str, k: int, n: int) -> np.ndarray:
    """Pauli on qubit k (1-based, qubit 1 = MSB) of n qubits as a chain of
    ``np.kron`` products: fast enough for the package's 9-qubit registers,
    where ``embed_bruteforce`` is not."""
    out = np.ones((1, 1), dtype=complex)
    for slot in range(1, n + 1):
        out = np.kron(out, PAULI[axis] if slot == k else EYE2)
    return out


def r_op_bruteforce(axis: str, k: int, l: int, n: int) -> np.ndarray:
    sx_k = embed_bruteforce(PAULI["x"], k, n)
    sy_k = embed_bruteforce(PAULI["y"], k, n)
    sx_l = embed_bruteforce(PAULI["x"], l, n)
    sy_l = embed_bruteforce(PAULI["y"], l, n)
    if axis == "x":
        return 0.5 * (sx_k @ sx_l + sy_k @ sy_l)
    return 0.5 * (sx_k @ sy_l - sy_k @ sx_l)


def r_op_kron(axis: str, k: int, l: int, n: int) -> np.ndarray:
    """R^axis_kl from ``pauli_kron`` products, as ``r_op_bruteforce`` forms it."""
    sx_k, sy_k = pauli_kron("x", k, n), pauli_kron("y", k, n)
    sx_l, sy_l = pauli_kron("x", l, n), pauli_kron("y", l, n)
    if axis == "x":
        return 0.5 * (sx_k @ sx_l + sy_k @ sy_l)
    return 0.5 * (sx_k @ sy_l - sy_k @ sx_l)


def recipe_hamiltonian_kron(recipe, n_blocks: int) -> np.ndarray:
    """Gate Hamiltonian of ``recipe`` on 3 * n_blocks qubits, assembled from
    Kronecker chains: every exchange term is a sum of ``pauli_kron``
    products, a four-body term is the matrix product of two such terms, and
    each coupling times its term is summed onto zeros in the order
    ``model.recipe_hamiltonian`` lists them. The sums agree byte for byte."""
    n = 3 * n_blocks
    j = recipe.strength
    c, s = math.cos(recipe.phase / 2.0), math.sin(recipe.phase / 2.0)
    q1, q2, q3 = (3 * recipe.blocks[0] - 2 + i for i in range(3))
    if recipe.kind == "XZ":
        terms = [
            (j * c, r_op_kron("x", q1, q2, n)),
            (-j * s, r_op_kron("y", q1, q2, n)),
            (-j * c, r_op_kron("x", q1, q3, n)),
            (-j * s, r_op_kron("y", q1, q3, n)),
        ]
    elif recipe.kind == "ZX":
        terms = [(j * s, r_op_kron("y", q1, q2, n)), (-j * c, r_op_kron("x", q1, q3, n))]
    else:
        n1, n2, n3 = (3 * recipe.blocks[1] - 2 + i for i in range(3))
        control = r_op_kron("x", q1, q3, n)
        terms = [
            (j, control @ r_op_kron("x", n1, n2, n)),
            (-j, control @ r_op_kron("x", n1, n3, n)),
        ]
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for value, term in terms:
        h += value * term
    return h


def bitstring_state(bits: str) -> np.ndarray:
    v = np.zeros(2 ** len(bits), dtype=complex)
    v[int(bits, 2)] = 1.0
    return v


# Bits of |a>, |0>_L and |1>_L on one block's three qubits.
BLOCK_BITS = {"a": "100", "0": "010", "1": "001"}


def product_states(blocks, n_blocks: int, states: str, idle: str = "0"):
    """(vectors, labels) of every assignment of ``states`` to ``blocks``, the
    first block most significant, the other blocks in ``idle``: a column
    stack of ``bitstring_state`` over the joined bitstrings."""
    columns, labels = [], []
    for assignment in itertools.product(states, repeat=len(blocks)):
        pattern = [BLOCK_BITS[idle]] * n_blocks
        for block, state in zip(blocks, assignment):
            pattern[block - 1] = BLOCK_BITS[state]
        columns.append(bitstring_state("".join(pattern)))
        labels.append("".join(assignment))
    return np.column_stack(columns), tuple(labels)


def expm_oracle(h: np.ndarray, t: float) -> np.ndarray:
    """Propagator via Pade approximation (independent of eigendecomposition)."""
    return scipy.linalg.expm(-1j * t * np.asarray(h, dtype=complex))


def projector_chain(h: np.ndarray, vectors: np.ndarray, tau: float, steps: int) -> np.ndarray:
    """Raw discrete parallel-transport chain <b(0)| P(t_N) ... P(t_1) |b(0)>.

    The explicit overlap-chain (Wilson-loop) product of Fukui, Hatsugai &
    Suzuki, JPSJ 74, 1674 (2005), on the non-adiabatic path of Sjoqvist et
    al., NJP 14, 103035 (2012). Every link V_{j+1}^dag V_j is formed from
    the frames V_j = U(t_j) V_0, t_j = j tau / steps, and multiplied in path
    order, with no use of the links being equal. Each frame is the product of
    two Pade propagators, U(a k dt) U(b dt) V_0 with j = a k + b, so frame
    errors stay at roundoff instead of growing along the path as they would
    under repeated stepping.
    """
    dt = tau / steps
    k = int(np.ceil(np.sqrt(steps + 1)))
    fine = np.stack([expm_oracle(h, b * dt) @ vectors for b in range(k)])
    coarse = np.stack([expm_oracle(h, a * k * dt) for a in range(steps // k + 1)])
    frames = (coarse[:, None] @ fine[None]).reshape(-1, *fine.shape[1:])[: steps + 1]
    links = frames[1:].conj().swapaxes(1, 2) @ frames[:-1]
    chain = frames[0].conj().T @ frames[-1]
    for link in links[::-1]:
        chain = chain @ link
    return chain


def transport_defect_stacked(spectrum, basis, tau: float) -> float:
    """``holonomy.transport_defect`` with all TRANSPORT_SAMPLES times at once:
    four (times, d, k) complex stacks built in one shot, the same per-slice
    products and one ``max``, so the package's blocked maximum must equal
    it bit for bit."""
    from hqcdfs.holonomy import TRANSPORT_SAMPLES

    coeffs = spectrum.vectors.conj().T @ basis.vectors
    times = np.arange(TRANSPORT_SAMPLES) * (tau / (TRANSPORT_SAMPLES - 1))
    phases = np.exp(-1j * np.outer(times, spectrum.values))
    frames = spectrum.vectors @ (phases[..., None] * coeffs)
    couplings = frames.conj().swapaxes(1, 2) @ (spectrum.h @ frames)
    return float(np.abs(couplings).max())


def collective_kick(theta: float, n: int) -> np.ndarray:
    """exp(-i theta sum_k sz_k) from brute-force embedded Paulis and Pade."""
    total = sum(embed_bruteforce(PAULI["z"], k, n) for k in range(1, n + 1))
    return expm_oracle(total, theta)


def polar_newton(m: np.ndarray, iterations: int = 100, tol: float = 1e-14) -> np.ndarray:
    """Unitary polar factor by Newton iteration X <- (X + X^-dag)/2."""
    x = np.asarray(m, dtype=complex)
    eye = np.eye(x.shape[0])
    for _ in range(iterations):
        x_next = 0.5 * (x + np.linalg.inv(x.conj().T))
        if np.linalg.norm(x_next - x) < tol:
            return x_next
        x = x_next
    return x


def three_level_rotation(phi: float, coupling: float, t: float) -> np.ndarray:
    """Closed-form propagator of the arrow Hamiltonian on (|a>, |0>_L, |1>_L).

    The generator couples |a> to the single superposition
    w = (e^{-i phi/2}|0>_L - e^{i phi/2}|1>_L)/sqrt(2) with Rabi angular
    frequency sqrt(2) * coupling and leaves the orthogonal logical vector
    untouched.
    """
    a = np.array([1, 0, 0], dtype=complex)
    w = np.array([0, np.exp(-1j * phi / 2), -np.exp(1j * phi / 2)], dtype=complex) / np.sqrt(2)
    angle = np.sqrt(2.0) * coupling * t
    proj = np.outer(a, a.conj()) + np.outer(w, w.conj())
    cross = np.outer(a, w.conj()) + np.outer(w, a.conj())
    return np.eye(3, dtype=complex) + (np.cos(angle) - 1.0) * proj - 1j * np.sin(angle) * cross


def phase_min_scan(u: np.ndarray, v: np.ndarray, grid: int = 20001) -> float:
    """min over a fine phase grid of ||u - e^{i phi} v||_F."""
    phases = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, grid))
    diffs = u[None, :, :] - phases[:, None, None] * v[None, :, :]
    return float(np.sqrt((np.abs(diffs) ** 2).sum(axis=(1, 2)).min()))


def qubit_permutation_matrix(mapping: dict[int, int], n: int) -> np.ndarray:
    """Permutation operator sending qubit k's state to qubit mapping[k].

    mapping must be a bijection on 1..n; qubit 1 is the most significant
    bit of the basis index.
    """
    assert sorted(mapping) == list(range(1, n + 1))
    assert sorted(mapping.values()) == list(range(1, n + 1))
    dim = 2 ** n
    p = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        bits = format(i, f"0{n}b")
        out = ["0"] * n
        for k in range(1, n + 1):
            out[mapping[k] - 1] = bits[k - 1]
        p[int("".join(out), 2), i] = 1.0
    return p


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    slope, _ = np.polyfit(lx, ly, 1)
    return float(slope)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(x)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_unitaries(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Stack of Haar-ish unitaries, shape (count, dim, dim)."""
    x = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    q, r = np.linalg.qr(x)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (x + x.conj().T)


def no_go_draws(trials: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Couplings (trials x 2) and evolution times (trials x 4) of the
    randomized two-qubit no-go check, drawn with one ``Generator`` call per
    value in trial order: the stream ``gates.no_go_certificate`` reads in
    bulk from raw PCG64 output.
    """
    rng = np.random.default_rng(seed)
    couplings = np.zeros((trials, 2))
    times = np.empty((trials, 4))
    for i in range(trials):
        if rng.random() >= 0.25:
            for axis in range(2):
                if rng.random() >= 0.2:
                    couplings[i, axis] = rng.uniform(0.1, 2.0) * rng.choice([-1, 1])
        times[i] = rng.uniform(0.25, 3.0, size=4)
    return couplings, times


def no_go_trials(trials: int, seed: int) -> dict:
    """The randomized two-qubit no-go check, one 4x4 problem per trial.

    Takes the draws of ``no_go_draws`` but builds each Hamiltonian from the
    brute-force exchange terms, and diagonalizes and checks each trial on
    its own, one time at a time. Returns the ``NoGoReport`` fields that the
    trials determine.
    """
    from hqcdfs.gates import NO_GO_TOL, two_qubit_dfs
    from hqcdfs.operators import Spectrum
    from hqcdfs.subspace import invariance_defect, restrict

    dfs = two_qubit_dfs()
    eye = np.eye(2)
    trivial = nontrivial = counterexamples = 0
    max_invariance = max_trivial_transport = 0.0
    min_nontrivial_transport = np.inf
    r_x, r_y = r_op_bruteforce("x", 1, 2, 2), r_op_bruteforce("y", 1, 2, 2)
    for (jx, jy), trial_times in zip(*no_go_draws(trials, seed)):
        h = jx * r_x + jy * r_y
        h_norm = float(np.abs(restrict(h, dfs)).max())
        spectrum = Spectrum(h)
        transport = identity_dist = 0.0
        for t in trial_times:
            u = spectrum.propagator(t)
            max_invariance = max(max_invariance, invariance_defect(u, dfs))
            frame = u @ dfs.vectors
            transport = max(transport, float(np.abs(frame.conj().T @ h @ frame).max()))
            identity_dist = max(identity_dist, float(np.linalg.norm(restrict(u, dfs) - eye)))
        flags = (transport <= NO_GO_TOL, h_norm <= NO_GO_TOL, identity_dist <= NO_GO_TOL)
        if len(set(flags)) != 1:
            counterexamples += 1
        if h_norm <= NO_GO_TOL:
            trivial += 1
            max_trivial_transport = max(max_trivial_transport, transport)
        else:
            nontrivial += 1
            min_nontrivial_transport = min(min_nontrivial_transport, transport)
    return {
        "trivial_count": trivial,
        "nontrivial_count": nontrivial,
        "counterexamples": counterexamples,
        "max_dfs_invariance_defect": max_invariance,
        "max_trivial_transport_defect": max_trivial_transport,
        "min_nontrivial_transport_defect": min_nontrivial_transport if nontrivial else 0.0,
    }


def _sample_angles(ensemble):
    """Each sample's kick angles, drawn one sample at a time from one
    ``default_rng(seed)``: sample i reads the i-th run of kick_count draws."""
    rng = np.random.default_rng(ensemble.seed)
    distribution, count = ensemble.distribution, ensemble.kick_count
    params = distribution.params
    for _ in range(ensemble.samples):
        if distribution.type == "uniform":
            yield rng.uniform(0.0, 2.0 * np.pi, count)
        elif distribution.type == "gaussian":
            yield rng.normal(params["mean"], params["stddev"], count)
        else:
            yield np.full(count, params["theta"])


def noisy_fidelities(recipe, ensemble, generator=None) -> list[float]:
    """Per-sample logical process fidelities, one sample and one kick at a time.

    The full d x d propagator of the recipe's register is built kick by kick
    from the package's segment propagator and kicks exp(-i theta G), then
    restricted to the logical basis of ``product_states`` and traced against
    the target. ``generator`` is the diagonal of G; the default is the
    brute-force collective sum_k sz_k.
    """
    from hqcdfs.gates import target_for
    from hqcdfs.model import recipe_hamiltonian
    from hqcdfs.operators import Spectrum

    n_blocks = max(recipe.blocks)
    n = 3 * n_blocks
    segments = ensemble.kick_count + 1
    h = recipe_hamiltonian(recipe)
    u_segment = Spectrum(h).propagator(recipe.duration / segments)
    if generator is None:
        generator = np.diagonal(sum(embed_bruteforce(PAULI["z"], k, n) for k in range(1, n + 1))).real
    vectors, _ = product_states(recipe.blocks, n_blocks, "01")
    target = target_for(recipe)
    fidelities = []
    for angles in _sample_angles(ensemble):
        u = u_segment
        for theta in angles:
            u = u_segment @ (np.exp(-1j * theta * generator)[:, None] * u)
        restricted = vectors.conj().T @ u @ vectors
        fidelities.append(float(np.abs(np.trace(target.conj().T @ restricted)) / target.shape[0]))
    return fidelities


def bare_fidelity(theta_gate: float, ensemble) -> float:
    """Mean |<+|psi>|^2 of one unencoded qubit, one sample and one kick at a time."""
    segments = ensemble.kick_count + 1
    half = theta_gate / (2.0 * segments)
    u_segment = np.array(
        [[np.cos(half), -1j * np.sin(half)], [-1j * np.sin(half), np.cos(half)]]
    )
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    total = 0.0
    for angles in _sample_angles(ensemble):
        psi = u_segment @ plus
        for theta in angles:
            psi = u_segment @ (np.exp(-1j * theta * np.array([1.0, -1.0])) * psi)
        total += float(np.abs(np.vdot(plus, psi)) ** 2)
    return total / ensemble.samples


def round_all(values) -> list[float]:
    """Every float of a sequence rounded to 12 significant digits, one value
    at a time through its "%.12g" text: what a report holds for a float
    array that ``serialize.encode_json`` rounds in bulk."""
    return [float("%.12g" % v) for v in np.asarray(values, dtype=np.float64).tolist()]
