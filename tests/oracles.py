"""Independent reference implementations used as test oracles.

Everything here recomputes expected values by a different route than the
package: explicit index loops and Kronecker chains instead of index-built
exchange terms, Pade approximation instead of spectral exponentials,
Newton iteration instead of SVD polar factors, closed-form three-level
rotations instead of generic propagators, and grid scans instead of
closed-form phase minima. Where the package reads a closed form on the
encoded span, the reference samples evolved frames and builds projectors.
"""

from __future__ import annotations

import itertools
import math
import random
import types

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
    """The vectors of every assignment of ``states`` to ``blocks``, the
    first block most significant, the other blocks in ``idle``: a column
    stack of ``bitstring_state`` over the joined bitstrings."""
    columns = []
    for assignment in itertools.product(states, repeat=len(blocks)):
        pattern = [BLOCK_BITS[idle]] * n_blocks
        for block, state in zip(blocks, assignment):
            pattern[block - 1] = BLOCK_BITS[state]
        columns.append(bitstring_state("".join(pattern)))
    return np.column_stack(columns)


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


# Times in [0, tau] at which the transport defect is sampled.
TRANSPORT_SAMPLES = 101


def transport_defect_stacked(spectrum, basis, tau: float) -> float:
    """The transport defect sampled: max over TRANSPORT_SAMPLES times t in
    [0, tau] and k, l of |<phi_k(t)| h |phi_l(t)>|, from four (times, d, k)
    complex stacks of spectral frames built in one shot. It equals
    the closed form of ``holonomy.evolve_span`` to roundoff only if h
    commutes with its own propagator."""
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


def phase_aligned_eigen(u: np.ndarray, v: np.ndarray, iterations: int = 20) -> float:
    """min over phi of ||u - e^{i phi} v||_F for unitaries u and v, from the
    eigenphases theta_k of v^dag u: the distance is
    sqrt(sum_k 4 sin^2((theta_k - phi) / 2)), least where
    sum_k sin(theta_k - phi) = 0, which Newton's method solves from the
    mean eigenphase. Exact to roundoff, unlike ``phase_min_scan``, for
    eigenphases that lie close together."""
    eigenvalues = np.linalg.eigvals(np.asarray(v).conj().T @ np.asarray(u))
    theta = np.angle(eigenvalues / eigenvalues[0])
    phi = theta.mean()
    for _ in range(iterations):
        phi += np.sin(theta - phi).sum() / np.cos(theta - phi).sum()
    return float(np.sqrt((4.0 * np.sin((theta - phi) / 2.0) ** 2).sum()))


def phase_min_golden(u: np.ndarray, v: np.ndarray, grid: int = 2001, iterations: int = 100) -> float:
    """min over phi of ||u - e^{i phi} v||_F for any u and v of one shape,
    unitary or not: the best phase of a uniform grid, refined by
    golden-section search on the entrywise norm within one grid step of it."""

    def norm(phi):
        return float(np.linalg.norm(u - np.exp(1j * phi) * v))

    phases = np.linspace(0.0, 2.0 * np.pi, grid)
    best = min(phases, key=norm)
    lo, hi = best - phases[1], best + phases[1]
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(iterations):
        a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        lo, hi = (lo, b) if norm(a) < norm(b) else (a, hi)
    return min(norm(best), norm((lo + hi) / 2.0))


def target_oracle(recipe) -> np.ndarray:
    """The logical gate ``recipe`` aims at, from Pauli matrices:
    cos(phi) X + sin(phi) Y for XZ, cos(phi) Z - sin(phi) Y for ZX, and for
    CNOT |0><0| (x) I + |1><1| (x) X, its first block controlling."""
    c, s = math.cos(recipe.phase), math.sin(recipe.phase)
    if recipe.kind == "XZ":
        return c * PAULI["x"] + s * PAULI["y"]
    if recipe.kind == "ZX":
        return c * PAULI["z"] - s * PAULI["y"]
    return np.kron(np.diag([1.0, 0.0]), EYE2) + np.kron(np.diag([0.0, 1.0]), PAULI["x"])


def _pairs(m: np.ndarray) -> list:
    return [[[z.real, z.imag] for z in row] for row in m.tolist()]


def _recipe_oracles(recipe):
    """(h, logical vectors, U(tau), restricted U(tau)) of ``recipe`` on the
    register of its blocks: ``recipe_hamiltonian_kron``, ``product_states``
    and ``expm_oracle``."""
    n_blocks = max(recipe.blocks)
    h = recipe_hamiltonian_kron(recipe, n_blocks)
    vectors = product_states(recipe.blocks, n_blocks, "01")
    u = expm_oracle(h, recipe.duration)
    return h, vectors, u, vectors.conj().T @ u @ vectors


# Registers above this dimension step their transport frames from one Pade
# propagator: 101 separate ``expm_oracle`` calls on the 512-dim register
# take about 15 s, one call and 100 products about 0.1 s.
STEPPED_FRAMES_DIM = 64


def transport_frames(h, vectors, tau: float) -> list[np.ndarray]:
    """The frames exp(-i h t) V at TRANSPORT_SAMPLES times evenly spaced in
    [0, tau]: each its own ``expm_oracle`` call, or on a register above
    STEPPED_FRAMES_DIM the previous frame times one ``expm_oracle`` step."""
    times = np.linspace(0.0, tau, TRANSPORT_SAMPLES)
    if len(h) <= STEPPED_FRAMES_DIM:
        return [expm_oracle(h, t) @ vectors for t in times]
    step = expm_oracle(h, tau / (TRANSPORT_SAMPLES - 1))
    frames = [np.asarray(vectors, dtype=complex)]
    for _ in times[1:]:
        frames.append(step @ frames[-1])
    return frames


def _condition_defects(h, vectors, u, tau: float) -> tuple[float, float]:
    """Cyclicity defect of span(vectors) from U(tau) = ``u``, and transport
    defect over the frames of ``transport_frames``."""
    p0 = vectors @ vectors.conj().T
    frames = transport_frames(h, vectors, tau)
    return (
        float(np.linalg.norm(u @ p0 @ u.conj().T - p0)),
        max(float(np.abs(f.conj().T @ h @ f).max()) for f in frames),
    )


def report_from_oracles(command: str, recipe, steps: int | None = None, ensemble=None, grid=None):
    """The document ``hqcdfs gate``, ``holonomy``, ``noise`` or ``sweep``
    prints for ``recipe`` at tolerance scale 1, built from the oracles and
    from no ``Spectrum``. Floats are left unrounded.

    ``gate`` and ``holonomy`` run at ``steps`` chain steps.
    ``recipe_hamiltonian_kron`` and ``product_states`` give the Hamiltonian
    and the bases, ``expm_oracle`` gives U(tau) for the cyclicity defect,
    ``transport_frames`` the frames of the transport defect,
    ``projector_chain`` the raw chain and its defect, and ``polar_newton``
    the holonomy matrix, aligned by ``phase_aligned_eigen``. ``gate`` adds
    the restrictions of U(tau) to the logical and the ancilla-completed
    bases, ``target_oracle`` and its ancilla-completed form, the invariance
    defect of the protected space from its projector, and the distance by
    ``phase_min_golden``.

    ``noise`` takes the ``ensemble`` input document. Its fidelity is
    |Tr(target^dag restricted)| / L of the restricted U(tau), repeated
    ``samples`` times: every kick is one global phase on the logical
    sector (``noisy_fidelities`` kicks sample by sample).

    ``sweep`` takes ``grid`` = (param, start, stop, points) and gives the
    CSV rows: the header's names, then per point of ``np.linspace`` the
    parameter, distance and the two condition defects, each point's recipe
    with that phase, or with its duration scaled by 1 + the detuning.

    A detuned recipe gets no reconstruction and no checks."""
    from hqcdfs import __version__
    from hqcdfs.cli import TOLERANCES

    if command not in ("gate", "holonomy", "noise", "sweep"):
        raise ValueError(f"no oracle report for {command!r}")
    echo = {
        "kind": recipe.kind,
        "phase": recipe.phase,
        "strength": recipe.strength,
        "duration": recipe.duration,
        "blocks": list(recipe.blocks),
        "detuned": recipe.detuned,
    }
    if command == "sweep":
        param, start, stop, points = grid
        rows = [["parameter", "distance", "cyclicity_defect", "transport_defect"]]
        for value in np.linspace(start, stop, points).tolist():
            point = types.SimpleNamespace(**echo)
            if param == "phase":
                point.phase = value
            else:
                point.duration *= 1.0 + value
            h, vectors, u, restricted = _recipe_oracles(point)
            distance = phase_min_golden(restricted, target_oracle(point))
            rows.append([value, distance, *_condition_defects(h, vectors, u, point.duration)])
        return rows

    h, vectors, u, restricted = _recipe_oracles(recipe)
    target = target_oracle(recipe)
    inputs = {"recipe": echo, "steps": steps}
    if command == "noise":
        fidelity = float(np.abs(np.trace(target.conj().T @ restricted))) / len(target)
        report = {
            "mean_fidelity": fidelity,
            "min_fidelity": fidelity,
            "per_sample": [fidelity] * ensemble["samples"],
        }
        checked = {"fidelity_deficit": 1.0 - fidelity, "excess_fidelity": fidelity - 1.0}
        fields = ("kick_count", "distribution", "samples", "seed")
        inputs = {"recipe": echo, "ensemble": {k: ensemble[k] for k in fields}}
    else:
        tau = recipe.duration
        cyclicity, transport = _condition_defects(h, vectors, u, tau)
        holonomy = {
            "cyclicity_defect": cyclicity,
            "transport_defect": transport,
            "reconstruction_distance": None,
            "chain_defect": None,
            "holonomy_matrix": None,
            "steps": steps,
            "tau": tau,
        }
        if not recipe.detuned:
            raw = projector_chain(h, vectors, tau, steps)
            matrix = polar_newton(raw)
            holonomy["reconstruction_distance"] = phase_aligned_eigen(matrix, restricted)
            holonomy["chain_defect"] = float(np.linalg.norm(raw - restricted))
            holonomy["holonomy_matrix"] = _pairs(matrix)
        report = holonomy
        names = ("cyclicity_defect", "transport_defect", "reconstruction_distance")
        checked = {n: holonomy[n] for n in names}
    if command == "gate":
        n_blocks = max(recipe.blocks)
        protected = product_states(recipe.blocks, n_blocks, "a01")
        ancilla = product_states(recipe.blocks, n_blocks, "a")
        completed = np.column_stack([ancilla, vectors])
        dfs_restricted = completed.conj().T @ u @ completed
        dfs_target = scipy.linalg.block_diag([[-1.0]], target)
        p = protected @ protected.conj().T
        report = {
            "recipe": echo,
            "n_blocks": n_blocks,
            "spectator": "0L",
            "distance": phase_min_golden(restricted, target),
            "invariance_defect": float(np.linalg.norm((np.eye(len(p)) - p) @ u @ p)),
            "dfs_error": float(np.abs(dfs_restricted - dfs_target).max()),
            "restricted": _pairs(restricted),
            "target": _pairs(target),
            "dfs_restricted": _pairs(dfs_restricted),
            "dfs_target": _pairs(dfs_target),
            "propagator": _pairs(u),
            "holonomy": holonomy,
        }
        checked = {n: report[n] for n in ("distance", "dfs_error", "invariance_defect")} | checked
    violations = [
        {"check": name, "value": value, "tolerance": TOLERANCES[name]}
        for name, value in checked.items()
        if not recipe.detuned and not value <= TOLERANCES[name]
    ]
    return {
        "tool": {"name": "hqcdfs", "version": __version__},
        "command": command,
        "tolerance_scale": 1.0,
        "input": inputs,
        "report": report,
        "violations": violations,
    }


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
    randomized two-qubit no-go check, one ``random.Random(seed).random()``
    call per value in trial order, each written into its array slot as it
    is drawn: the stream ``gates.no_go_certificate`` reads chunk by chunk.
    """
    rng = random.Random(seed)
    couplings = np.zeros((trials, 2))
    times = np.empty((trials, 4))
    for i in range(trials):
        if rng.random() >= 0.25:
            for axis in range(2):
                if rng.random() >= 0.2:
                    magnitude = 0.1 + 1.9 * rng.random()
                    couplings[i, axis] = magnitude * (-1.0 if rng.random() < 0.5 else 1.0)
        for k in range(4):
            times[i, k] = 0.25 + 2.75 * rng.random()
    return couplings, times


def two_qubit_dfs():
    """The protected two-state space of two collectively dephasing qubits,
    |01> and |10>, as a ``BasisSet`` of identity columns, where the package
    selects basis states 1 and 2 by index."""
    from hqcdfs.subspace import BasisSet

    return BasisSet(np.eye(4)[:, 1:3])


def no_go_trials(trials: int, seed: int) -> dict:
    """The randomized two-qubit no-go check, one 4x4 problem per trial.

    Takes the draws of ``no_go_draws`` but builds each Hamiltonian from the
    brute-force exchange terms, and diagonalizes and checks each trial on
    its own, one time at a time, its invariance defect ||(I - P) U P||_F
    from the formed projector P. Returns the ``NoGoReport`` fields that the
    trials determine.
    """
    from hqcdfs.gates import NO_GO_TOL
    from hqcdfs.operators import Spectrum
    from hqcdfs.subspace import restrict

    dfs = two_qubit_dfs()
    p = dfs.vectors @ dfs.vectors.conj().T
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
            u = spectrum.frames(t)
            max_invariance = max(max_invariance, float(np.linalg.norm((np.eye(4) - p) @ u @ p)))
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
    params = distribution["params"]
    for _ in range(ensemble.samples):
        if distribution["type"] == "uniform":
            yield rng.uniform(0.0, 2.0 * np.pi, count)
        elif distribution["type"] == "gaussian":
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
    from hqcdfs.model import recipe_hamiltonian, target_for
    from hqcdfs.operators import Spectrum

    n_blocks = max(recipe.blocks)
    n = 3 * n_blocks
    segments = ensemble.kick_count + 1
    h = recipe_hamiltonian(recipe)
    u_segment = Spectrum(h).frames(recipe.duration / segments)
    if generator is None:
        generator = np.diagonal(sum(embed_bruteforce(PAULI["z"], k, n) for k in range(1, n + 1))).real
    vectors = product_states(recipe.blocks, n_blocks, "01")
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
