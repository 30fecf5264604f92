"""Dual semantics: state-vector circuit runs vs density-matrix chain runs.

The circuit side walks the DAG directly, applying each gate to its wires by
tensor contraction; it reads nothing the normalizer made, so it serves as
an independent oracle for the compiled chain. It reads the placement the
circuit recorded when it was built (``Circuit.gates``), and one walk
carries a whole block of input kets, one per column, so all final states
and all Born probabilities of a battery come from a single pass over the
DAG; ``simulate_circuit`` and ``outcome_probability`` are that walk on a
block of one. On the chain side, ``run_qmc`` propagates one density
matrix through the superoperators. ``check_equivalence`` carries the same
block of input kets through the chain's step matrices and compares the two semantics along every clause
that the translation promises to preserve; a NaN deviation counts as a
failure. Every chain map is one matrix, so the density of a propagated ket
is its outer product and no density is formed. A map with an index form
(see :mod:`qmcforge.qmc`) is applied to the block as a gather,
``out[rows] = values[:, None] * v[cols]``. The measurement branches are
read the same way, only on the rows their forms can reach, and when every
branch has a form and all forms are of one length (every projector block
``build_qmc`` or reparse builds) their forms are concatenated and all 2^h
branches are read in one gather and reduced per branch. A map without a
form, or any ket that is no longer finite, takes the dense matmul, so NaN
and inf deviations spread and are reported as before.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit
from .config import DEFAULT_TOL, check_tolerance
from .errors import BadInitialState, BitLengthMismatch, DimensionMismatch
from .normalize import SnfCircuit
from .qmc import Qmc, Superoperator

__all__ = ["EvalReport", "OutcomeRecord", "EquivalenceReport",
           "simulate_circuit", "outcome_probability", "run_qmc",
           "check_equivalence", "random_kets"]


def _as_ket(psi, k: int) -> np.ndarray:
    v = np.asarray(psi, dtype=np.complex128).reshape(-1)
    if v.shape != (2 ** k,):
        raise DimensionMismatch(f"ket has {v.shape[0]} amplitudes, register needs {2 ** k}")
    return v


def _apply_gate(state: np.ndarray, u: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    d = len(axes)
    g = u.reshape((2,) * (2 * d))
    state = np.tensordot(g, state, axes=(tuple(range(d, 2 * d)), axes))
    return np.moveaxis(state, tuple(range(d)), axes)


def _walk(k: int, gates, lead: tuple[int, ...],
          kets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run ``Circuit.gates`` on a block of kets, one per column (2^k x N).

    Returns the final states (2^k x N), the wires of ``lead`` moved in that
    order to the most significant bits and the rest after them ascending,
    and the Born probabilities (2^h x N, h = len(lead)): row i is the
    outcome whose h bits, read as a binary number, are the lead wires.
    """
    if kets.shape[0] != 2 ** k:
        raise DimensionMismatch(
            f"ket has {kets.shape[0]} amplitudes, register needs {2 ** k}")
    count = kets.shape[1]
    state = kets.reshape((2,) * k + (count,))
    for node, wires in gates:
        state = _apply_gate(state, node.matrix, tuple(p - 1 for p in wires))
    h = len(lead)
    state = np.moveaxis(state, tuple(w - 1 for w in lead), tuple(range(h))).reshape(kets.shape)
    born = (np.abs(state) ** 2).reshape(2 ** h, 2 ** (k - h), count).sum(axis=1)
    return state, born


def simulate_circuit(c: Circuit, psi) -> np.ndarray:
    """Run the circuit on a ket, returning the register state just before
    the measure/terminate sinks (wire 1 is the most significant bit).
    """
    final, _ = _walk(c.k, c.gates, (), _as_ket(psi, c.k)[:, None])
    return final[:, 0]


def _normalize_bits(bits, h: int) -> tuple[int, ...]:
    values = tuple(int(b) for b in bits)
    if len(values) != h or any(b not in (0, 1) for b in values):
        raise BitLengthMismatch(f"expected {h} outcome bits, got {bits!r}")
    return values


def outcome_probability(c: Circuit, psi, bits) -> float:
    """Born-rule probability of reading ``bits`` off the measured wires.

    Bit j belongs to the j-th measured wire in ascending wire order.
    """
    _, born = _walk(c.k, c.gates, c.measured, _as_ket(psi, c.k)[:, None])
    values = _normalize_bits(bits, born.shape[0].bit_length() - 1)
    return float(born[int("".join(map(str, values)) or "0", 2), 0])


@dataclass(frozen=True)
class OutcomeRecord:
    """One measurement branch: its outcome bits, the unnormalized
    post-measurement density matrix, and the probability (its trace)."""

    index: int
    bits: str
    probability: float
    density: np.ndarray


@dataclass(frozen=True)
class EvalReport:
    """Everything a chain run produces."""

    outcomes: tuple[OutcomeRecord, ...]
    accumulated: np.ndarray
    densities: tuple[np.ndarray, ...]

    @property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(o.probability for o in self.outcomes)


# a non-finite step's NaNs are returned as probabilities, not warned about
@np.errstate(invalid="ignore", over="ignore")
def run_qmc(q: Qmc, rho0: np.ndarray,
            tol: float = DEFAULT_TOL.pipeline) -> EvalReport:
    """Propagate a density matrix through the chain.

    Returns per-outcome terminal records, the accumulated product of the
    internal unitaries (last step leftmost), and the density after every
    internal state. ``tol`` must be finite and >= 0.
    """
    check_tolerance(tol, "tol")
    dim = 2 ** q.k
    rho = np.asarray(rho0, dtype=np.complex128)
    if rho.shape != (dim, dim):
        raise DimensionMismatch(f"density {rho.shape}, register needs {dim}x{dim}")
    # written as "not <= tol" so that a NaN entry fails the check
    if not (np.max(np.abs(rho - rho.conj().T)) <= tol and abs(np.trace(rho) - 1.0) <= tol):
        raise BadInitialState("initial state is not a unit-trace Hermitian matrix")

    densities = [rho]
    accumulated = np.eye(dim, dtype=np.complex128)
    for so in q.steps:
        rho = so.apply(rho)
        densities.append(rho)
        accumulated = so.matrix @ accumulated

    outcomes = []
    for i, so in enumerate(q.branches):
        post = so.apply(rho)
        bits = format(i, f"0{q.h}b") if q.h else ""
        outcomes.append(OutcomeRecord(index=i, bits=bits,
                                      probability=float(np.trace(post).real) + 0.0,
                                      density=post))
    return EvalReport(outcomes=tuple(outcomes), accumulated=accumulated,
                      densities=tuple(densities))


# a non-finite column's distance is returned as NaN, not warned about
@np.errstate(invalid="ignore", over="ignore")
def _phase_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column by column, min over theta of the 2-norm distance between a
    column of a and e^{i theta} times the same column of b.

    The minimizing phase aligns b with a; subtracting the aligned vectors
    directly stays accurate when the two states agree to machine precision,
    where the closed-form norm expression loses half its digits.
    """
    overlap = np.einsum("ij,ij->j", b.conj(), a)
    size = np.abs(overlap)
    phase = np.divide(overlap, size, out=np.ones_like(overlap), where=size > 1e-300)
    return np.linalg.norm(a - phase * b, axis=0)


def random_kets(k: int, count: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Haar-ish random unit kets: normalized complex Gaussians."""
    dim = 2 ** k
    out = []
    for _ in range(count):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        out.append(v / np.linalg.norm(v))
    return out


@dataclass(frozen=True)
class EquivalenceReport:
    """Worst-case deviations per clause over all checked inputs.

    ``state``   final state-vector vs chain product (global phase ignored);
    ``chain``   rank-1 preservation along the internal chain: with one
                matrix per map it holds exactly, so the deviation is NaN
                once a propagated ket has a non-finite entry and 0.0
                otherwise;
    ``prob``    Born-rule vs terminal-trace probabilities;
    ``support`` post-measurement mass outside the outcome's block.

    ``worst_at`` maps each of those clause names to the (input index,
    outcome bits) of its worst deviation, a NaN first; the bits are None
    for ``state`` and ``chain``, and the entry is None when no input was
    checked.
    """

    passed: bool
    state: float
    chain: float
    prob: float
    support: float
    failures: tuple[str, ...]
    worst_at: dict[str, tuple[int, str | None] | None] = field(default_factory=dict, hash=False)


def _product_rows(so: Superoperator, v: np.ndarray,
                  finite: bool) -> tuple[np.ndarray | None, np.ndarray]:
    """M v for a block of kets, as (rows, P): the rows of M v that can be
    nonzero and their values. With an index form and every ket of ``v``
    finite that is a gather, ``P = values[:, None] * v[cols]`` at the form's
    rows, all other rows zero. Otherwise ``(None, M v)`` by the dense matmul,
    whose 0 * NaN spreads a non-finite entry as the clauses expect."""
    form = so.monomial if finite else None
    if form is None:
        return None, so.matrix @ v
    rows, cols, values = form
    return rows, values[:, None] * v[cols]


def _chain_run(q: Qmc, taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Carry the input block through the chain's steps as kets.

    Returns the final kets V = M_n ... M_1 taus (d x N) and, for every input
    j, the index of the first step t whose ket (column j of V_t) has a
    non-finite entry, or n if there is none (see check_equivalence). A
    form that covers every row has the rows 0..d-1 in order, so its gather
    is the next block as it stands; only a form missing rows is scattered
    into a zero block.
    """
    v = taus
    n = len(q.steps)
    first = np.full(taus.shape[1], n)
    for t, so in enumerate(q.steps):
        rows, mv = _product_rows(so, v, (first == n).all())
        if rows is None or rows.size == len(v):
            v = mv
        else:
            v = np.zeros_like(v)
            v[rows] = mv
        first[(first == n) & ~np.isfinite(v).all(axis=0)] = t
    return v, first


def _branch_deviations(branches: tuple[Superoperator, ...], kets: np.ndarray,
                       born: np.ndarray, finite: bool) -> tuple[np.ndarray, np.ndarray]:
    """The probability and support deviations of every branch and input,
    (2^h x N) each, from W_b = M_b V: |born_b - squared column norms of
    W_b|, and the largest |w_i| outside the outcome's block times the
    largest |w_j|.

    When every ket is finite and every branch has an index form, all of one
    length or empty, the forms are concatenated and read in one gather,
    ``|values[:, None] * kets[cols]|``, and reduced per branch over a
    (branches, rows, N) view. Its sums add the same rows in the same order
    as one branch's read does, so the bits do not depend on the path; forms
    of several lengths would need segment sums, whose order differs.
    Otherwise each branch is read on its own by :func:`_product_rows`.
    """
    dim, count = kets.shape
    block = dim // len(branches)
    sums, support = np.zeros((len(branches), count)), np.zeros((len(branches), count))
    forms = [so.monomial for so in branches] if finite else None
    if forms and all(form is not None for form in forms) and \
            len({form[0].size for form in forms} - {0}) <= 1:
        # an empty form is a zero matrix: its sums and maxima stay 0
        full = [b for b, form in enumerate(forms) if form[0].size]
        if full:
            rows, cols, values = (np.concatenate([forms[b][i] for b in full]) for i in range(3))
            w = np.abs(values[:, None] * kets[cols])
            shape = (len(full), rows.size // len(full), count)
            sums[full] = (w ** 2).reshape(shape).sum(axis=1)
            if block < dim:
                inside = rows // block == np.repeat(full, shape[1])
                outside = np.where(inside[:, None], 0.0, w).reshape(shape).max(axis=1)
                support[full] = outside * w.reshape(shape).max(axis=1)
        return np.abs(born - sums), support
    everywhere = np.arange(dim)
    for b, so in enumerate(branches):
        # |W_b| on the rows it can be nonzero on; a zero row adds nothing
        # to a column's sum or maximum
        rows, w = _product_rows(so, kets, finite)
        rows, w = everywhere if rows is None else rows, np.abs(w)
        sums[b] = np.sum(w ** 2, axis=0)
        if block < dim:
            outside = w[rows // block != b].max(axis=0, initial=0.0)
            support[b] = outside * w.max(axis=0, initial=0.0)
    return np.abs(born - sums), support


def _worst(devs: np.ndarray) -> tuple[float, int | None]:
    """The worst of a flat array of deviations and its index: the first NaN
    if there is one, else the first maximum; 0.0 and None when empty."""
    if not devs.size:
        return 0.0, None
    at = int(np.argmax(devs))
    return float(devs[at]), at


# a non-finite entry's NaNs are reported by the clauses, not warned about
@np.errstate(invalid="ignore", over="ignore")
def check_equivalence(c: Circuit, s: SnfCircuit | None, q: Qmc, inputs=None,
                      tol: float = DEFAULT_TOL.pipeline,
                      support_tol: float = DEFAULT_TOL.algebraic) -> EquivalenceReport:
    """Compare circuit semantics against the compiled chain, clause by clause.

    Args:
        c: source circuit (the independent oracle side).
        s: the compiler's strong normal form, whose ``wire_map`` is checked
            against the oracle's own wire order; None when there is no
            compiler claim (a reparsed model).
        q: the chain under test; may come from reparse_model.
        inputs: kets to try; defaults to every computational basis state.

    Only rank-1 inputs make the clause-1 comparison meaningful, so inputs
    are kets, not densities, and each must have unit norm within ``tol``.
    The inputs form one block, a column per ket. The oracle walks the DAG
    once over the block and yields every final state and every Born
    probability. The chain side carries the block through the model's step
    matrices as kets, V_t = M_t V_{t-1}. The state clause compares the
    final kets with the measured-first DAG finals. Every map is one matrix M, so
    the density M rho M† of rho = v v† is (M v)(M v)† exactly: the chain
    clause checks at every step that each ket is still finite, and the
    branch densities are w w† with w = M_b v. So the probability clause
    reads the squared column norms of W_b = M_b V and the support clause
    the largest |w_i| outside the outcome's block times the largest |w_j|,
    for all branches in one gather when their index forms allow it (see
    :func:`_branch_deviations`). A deviation fails unless it is at most its
    tolerance, so a NaN fails and shows as the worst. ``tol`` and
    ``support_tol`` must be finite and >= 0.
    """
    check_tolerance(tol, "tol")
    check_tolerance(support_tol, "support_tol")
    k, measured = c.k, c.measured
    h, dim = len(measured), 2 ** k
    if q.h != h:
        raise BitLengthMismatch(f"chain has {2 ** q.h} outcomes, circuit has {2 ** h}")
    if q.k != k:
        raise DimensionMismatch(f"chain acts on {q.k} wires, circuit has {k}")
    if inputs is None:
        inputs = np.eye(dim, dtype=np.complex128)
    taus = np.array([_as_ket(psi, k) for psi in inputs],
                    dtype=np.complex128).reshape(-1, dim).T
    # written as "not <= tol" so that a NaN amplitude fails the check
    mass = np.sum(taus.real ** 2 + taus.imag ** 2, axis=0)
    bad = np.flatnonzero(~(np.abs(mass - 1.0) <= tol))
    if bad.size:
        raise BadInitialState(f"input {bad[0]} is not a unit ket "
                              f"(squared norm {mass[bad[0]]:.6g})")

    finals, born = _walk(k, c.gates, measured, taus)
    kets, first = _chain_run(q, taus)

    # clause: product form agrees with the DAG walk, measured wires first
    state = _phase_distances(finals, kets)

    # clause: the chain preserves rank-1 states step by step, so it fails
    # exactly where a propagated ket stops being finite
    steps = len(q.steps)
    chain = np.where(first < steps, np.nan, 0.0)

    # clause: Born probabilities match terminal traces; mass stays in block
    prob, support = _branch_deviations(q.branches, kets, born, (first == steps).all())

    def bits(b: int) -> str:
        return format(b, f"0{q.h}b") if q.h else ""

    state_bad = ~(state <= tol)
    prob_bad = ~(prob <= tol)
    support_bad = ~(support <= support_tol)
    failures: list[str] = []
    # the finals hold wire w at position wire_map[w-1]
    order = measured + tuple(w for w in range(1, k + 1) if w not in measured)
    wire_map = tuple(order.index(w) + 1 for w in range(1, k + 1))
    if s is not None and s.wire_map != wire_map:
        failures.append(f"state clause: wire map {s.wire_map} is not the "
                        f"measured-first order {wire_map}")
    for idx in np.flatnonzero(state_bad | (first < steps) | prob_bad.any(axis=0)
                              | support_bad.any(axis=0)):
        if state_bad[idx]:
            failures.append(f"state clause: input {idx} deviates by {state[idx]:.3e}")
        if first[idx] < steps:
            failures.append(f"chain clause: input {idx} step {first[idx] + 1} "
                            f"deviates by {chain[idx]:.3e}")
        for b in np.flatnonzero(prob_bad[:, idx] | support_bad[:, idx]):
            if prob_bad[b, idx]:
                failures.append(f"probability clause: input {idx} outcome "
                                f"{bits(b) or '-'} deviates by {prob[b, idx]:.3e}")
            if support_bad[b, idx]:
                failures.append(f"support clause: input {idx} outcome {bits(b) or '-'} "
                                f"leaks {support[b, idx]:.3e} outside its block")

    worst: dict[str, float] = {}
    worst_at: dict[str, tuple[int, str | None] | None] = {}
    for name, devs in (("state", state), ("chain", chain)):
        worst[name], at = _worst(devs)
        worst_at[name] = None if at is None else (at, None)
    for name, devs in (("prob", prob), ("support", support)):
        # input-major, as the inputs are checked
        worst[name], at = _worst(devs.T.reshape(-1))
        worst_at[name] = None if at is None else (at // len(q.branches),
                                                  bits(at % len(q.branches)))
    return EquivalenceReport(passed=not failures, failures=tuple(failures),
                             worst_at=worst_at, **worst)
