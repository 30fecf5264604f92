"""Dual semantics: state-vector circuit runs vs density-matrix chain runs.

The circuit side walks the DAG directly, applying each gate to its wires by
one matmul over the gate's axes (moved to the front and flattened, then
moved back); it reads nothing the normalizer made, so it serves as
an independent oracle for the compiled chain. It reads the placement the
circuit recorded when it was built (``Circuit.gates``), and one walk
carries a whole block of input kets, one per column, so all final states
and all Born probabilities of a battery come from a single pass over the
DAG; ``simulate_circuit`` and ``outcome_probability`` are that walk on a
block of one.

The chain side carries a block of kets through the step maps
(:func:`_chain_run`): each distinct map's index form (see
:mod:`qmcforge.qmc`) is read once and applied as a gather, a run of
permutation steps is folded into one index, and a map without a form, or
any step once a ket is not finite, takes the dense matmul, so NaN and inf
spread. Every chain map is one matrix, so the density of a propagated ket
is its outer product. ``check_equivalence`` compares the two semantics
along every clause that the translation promises to preserve, a NaN
deviation counting as a failure, and forms no density; it reads all 2^h
branches in one gather when their forms allow it. ``run_qmc`` carries the
identity through the walk to get the chain's product A and forms one
density, A rho0 A†.
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


def _stacked(inputs, dim: int) -> np.ndarray | None:
    """A list of kets of ``dim`` amplitudes each as one block, a column per
    ket, by one ``np.array`` call; None for any other input, or when that
    call fails, so the per-ket path reads it and raises its own errors."""
    if not isinstance(inputs, list):
        return None
    try:
        block = np.array(inputs, dtype=np.complex128)
    except (TypeError, ValueError):
        return None
    return block.T if block.ndim == 2 and block.shape[1] == dim else None


def _apply_gate(state: np.ndarray, u: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """``u`` on the wires ``axes`` of a (2,) * k + (N,) block: those axes
    moved to the front and flattened to 2^d rows, one matmul, and the axes
    moved back (a view, which the next gate's reshape copies)."""
    order = (*axes, *(a for a in range(state.ndim) if a not in axes))
    moved = state.transpose(order)
    out = (u @ moved.reshape(len(u), -1)).reshape(moved.shape)
    return out.transpose(sorted(range(len(order)), key=order.__getitem__))


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
    """One measurement branch: its bits, its probability, its map M_b and
    ``final``, the density before the branches that all records of a run
    share. ``density``, M_b final M_b† unnormalized, is formed on each read."""

    index: int
    bits: str
    probability: float
    branch: Superoperator = field(repr=False)
    final: np.ndarray = field(repr=False)

    @property
    def density(self) -> np.ndarray:
        return _branch_density(self.branch, self.final)


@dataclass(frozen=True)
class EvalReport:
    """A chain run: one record per branch and the product of the steps."""

    outcomes: tuple[OutcomeRecord, ...]
    accumulated: np.ndarray

    @property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(o.probability for o in self.outcomes)


# a non-finite density's NaNs are returned, not warned about
@np.errstate(invalid="ignore", over="ignore")
def _branch_density(so: Superoperator, rho: np.ndarray) -> np.ndarray:
    """M rho M†: a gather into a zero matrix when M has an index form and
    rho is finite, else the dense product (M formed, not kept)."""
    form = so.monomial if np.isfinite(rho).all() else None
    if form is None:
        m = so.matrix
        return m @ rho @ m.conj().T
    rows, cols, values = form
    out = np.zeros_like(rho)
    out[np.ix_(rows, rows)] = values[:, None] * rho[np.ix_(cols, cols)] * values.conj()
    return out


# a non-finite step's NaNs are returned as probabilities, not warned about
@np.errstate(invalid="ignore", over="ignore")
def run_qmc(q: Qmc, rho0: np.ndarray,
            tol: float = DEFAULT_TOL.pipeline) -> EvalReport:
    """Run a density matrix through the chain: rho0 ends as A rho0 A†, A the
    product of the steps (last leftmost), the identity carried through
    :func:`_chain_run`. A branch's probability is read from its index form,
    sum |values|^2 rho[cols, cols]; without a form, or for a non-finite
    density, it is the dense trace, so NaN stays NaN. ``tol`` must be
    finite and >= 0."""
    check_tolerance(tol, "tol")
    dim = 2 ** q.k
    rho = np.asarray(rho0, dtype=np.complex128)
    if rho.shape != (dim, dim):
        raise DimensionMismatch(f"density {rho.shape}, register needs {dim}x{dim}")
    # written as "not <= tol" so that a NaN entry fails the check
    if not (np.max(np.abs(rho - rho.conj().T)) <= tol and abs(np.trace(rho) - 1.0) <= tol):
        raise BadInitialState("initial state is not a unit-trace Hermitian matrix")

    accumulated, _ = _chain_run(q, np.eye(dim, dtype=np.complex128))
    rho = accumulated @ rho @ accumulated.conj().T
    rho.setflags(write=False)  # shared by every outcome record
    finite = np.isfinite(rho).all()
    outcomes = []
    for i, so in enumerate(q.branches):
        form = so.monomial if finite else None
        p = np.trace(_branch_density(so, rho)).real if form is None else \
            (form[2].conj() * form[2]).real @ rho.diagonal().real[form[1]]
        outcomes.append(OutcomeRecord(i, format(i, f"0{q.h}b") if q.h else "",
                                      float(p) + 0.0, so, rho))
    return EvalReport(outcomes=tuple(outcomes), accumulated=accumulated)


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
    """Haar-ish random unit kets: normalized complex Gaussians.

    One draw holds every ket's real and then imaginary parts, in the order
    a ket-by-ket loop draws them. Each norm is summed as ``np.linalg.norm``
    sums one complex ket's: the dot of its real view with itself plus that
    of its imaginary view, so each ket equals the loop's to the bit."""
    re, im = rng.standard_normal((count, 2, 2 ** k)).transpose(1, 0, 2)
    kets = re + 1j * im
    norms = np.sqrt(np.vecdot(kets.real, kets.real) + np.vecdot(kets.imag, kets.imag))
    return list(kets / norms[:, None])


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
                  form) -> tuple[np.ndarray | None, np.ndarray]:
    """M v for a block of kets, as (rows, P): the rows of M v that can be
    nonzero and their values. ``form`` is the map's index form as the
    caller read it (``so.monomial``), or None; the callers pass None once a
    ket of ``v`` is not finite. With a form that is a gather,
    ``P = values[:, None] * v[cols]`` at the form's rows, all other rows
    zero. With None it is ``(None, M v)`` by the dense matmul, whose
    0 * NaN spreads a non-finite entry as the clauses expect."""
    if form is None:
        return None, so.matrix @ v
    rows, cols, values = form
    return rows, values[:, None] * v[cols]


def _chain_run(q: Qmc, taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Carry the input block through the chain's steps as kets.

    Returns the final kets V = M_n ... M_1 taus (d x N) and, for every input
    j, the index of the first step t whose ket (column j of V_t) has a
    non-finite entry, or n if there is none (see check_equivalence).

    Each distinct map's index form is read once per call. While every ket
    is finite, a step whose form covers every row with every value exactly
    1 is a permutation, V_t = V_{t-1}[cols]. A run of them is folded into
    one integer index, ``pending = pending[cols]``, and applied to the block
    once, before the next other step or at the end. A permutation maps
    finite kets to finite kets, so it needs no finiteness scan and the
    first non-finite step is the one a step-by-step run finds. Every other
    step goes through :func:`_product_rows`. A form that covers every row
    has the rows 0..d-1 in order, so its gather is the next block as it
    stands; only a form missing rows is scattered into a zero block. Once a
    ket is not finite, every step takes the dense matmul, so NaN spreads
    through 0 * NaN as the chain clause expects.
    """
    v = taus
    n, dim = len(q.steps), len(taus)
    first = np.full(taus.shape[1], n)
    finite, pending = True, None
    read: dict[int, tuple] = {}
    for t, so in enumerate(q.steps):
        form = None
        if finite:
            if id(so) not in read:
                form = so.monomial
                read[id(so)] = form, (form is not None and form[0].size == dim
                                      and bool((form[2] == 1).all()))
            form, permutation = read[id(so)]
            if permutation:
                pending = form[1] if pending is None else pending[form[1]]
                continue
            if pending is not None:
                v, pending = v[pending], None
        rows, mv = _product_rows(so, v, form)
        if rows is None or rows.size == dim:
            v = mv
        else:
            v = np.zeros_like(v)
            v[rows] = mv
        bad = ~np.isfinite(v).all(axis=0)
        if bad.any():
            first[(first == n) & bad] = t
            finite = False
    return (v if pending is None else v[pending]), first


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
        rows, w = _product_rows(so, kets, forms[b] if finite else None)
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
    The inputs form one block, a column per ket, walked once through the
    DAG and once through the chain (:func:`_chain_run`). The state clause
    compares the final kets with the measured-first DAG finals. Every map
    is one matrix M, so the density of rho = v v† after M is (M v)(M v)†:
    the chain clause checks at every step that each ket is still finite,
    the probability clause reads the squared column norms of W_b = M_b V
    and the support clause the largest |w_i| outside the outcome's block
    times the largest |w_j| (:func:`_branch_deviations`). A deviation fails
    unless it is at most its tolerance, so a NaN fails and shows as the
    worst. ``tol`` and ``support_tol`` must be finite and >= 0.
    """
    check_tolerance(tol, "tol")
    check_tolerance(support_tol, "support_tol")
    k, measured = c.k, c.measured
    h, dim = len(measured), 2 ** k
    if q.h != h:
        raise BitLengthMismatch(f"chain has {2 ** q.h} outcomes, circuit has {2 ** h}")
    if q.k != k:
        raise DimensionMismatch(f"chain acts on {q.k} wires, circuit has {k}")
    # the basis block is symmetric, so it is its own column-per-ket block
    taus = np.eye(dim, dtype=np.complex128) if inputs is None else _stacked(inputs, dim)
    if taus is None:
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
