"""Chain construction: superoperators, branching, and row stochasticity."""

import copy
import dataclasses
import pickle
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import matrix_chain, nan_step_chain, projector, random_circuit
from qmcforge.config import DEFAULT_TOL
from qmcforge.emit import emit_qpmc, reparse_model
from qmcforge.errors import DimensionMismatch, QmcForgeError, ReparseError
from qmcforge.gates import gate_matrix
from qmcforge.normalize import SnfCircuit, translate
from qmcforge.parser import parse_circuit
from qmcforge.qmc import (Qmc, Superoperator, _diagonal_mass, _identity_form, _monomial_form,
                          build_qmc, verify_row_stochasticity)

H = gate_matrix("H")


def _single_h_chain():
    return build_qmc(SnfCircuit(k=1, unitaries=(Superoperator(H),), h=1, wire_map=(1,)))


def _one_step_chain(step):
    """The one-wire, one-step chain of ``step`` with no measurement, whose
    fan-out row (the identity) always passes."""
    return matrix_chain(1, 0, [step], [np.eye(2)])


def test_superoperator_validates_kraus_family():
    Superoperator(H)  # unitary: fine
    half = np.diag([1.0, 0.5]).astype(np.complex128)
    Superoperator(half)  # trace-nonincreasing: fine
    # a trace-increasing matrix is one matrix as well; the row check reports it
    grow = np.diag([1.0, 1.5]).astype(np.complex128)
    bad = verify_row_stochasticity(_one_step_chain(grow))
    assert [(v.state, v.deviation) for v in bad] == [("s1", 1.25)]
    # a ragged list of operators and an empty one are no matrix at all
    with pytest.raises(DimensionMismatch):
        Superoperator((H, np.eye(4, dtype=np.complex128)))
    with pytest.raises(DimensionMismatch):
        Superoperator(())


@pytest.mark.parametrize("value", [
    np.zeros((0, 0), dtype=np.complex128),
    np.ones(2, dtype=np.complex128),
    np.ones((2, 4), dtype=np.complex128),
    np.stack([np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * H]),
    (H,),
    1.0,
], ids=["empty", "1-d", "non-square", "kraus-stack", "old-style-tuple", "scalar"])
def test_superoperator_rejects_non_matrix_input(value):
    with pytest.raises(DimensionMismatch, match="non-empty square matrix"):
        Superoperator(value)


def test_superoperator_stores_one_complex_matrix():
    so = Superoperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert so.matrix.dtype == np.complex128
    assert so.kraus == (so.matrix,) and so.kraus[0] is so.matrix
    assert so.dim == 2
    # complex128 input is kept as is, not copied
    m = np.diag([1.0, 0.5]).astype(np.complex128)
    so = Superoperator(m)
    assert so.matrix is m
    assert np.array_equal(so.gram(), np.diag([1.0, 0.25]))


def test_superoperator_rejects_non_finite_kraus():
    # a 2x2 NaN step was once accepted (eigvalsh gave NaN, NaN > 1 is False);
    # a 4x4 one escaped as a raw numpy LinAlgError
    two = np.array([[np.nan, 0], [0, 1]], dtype=np.complex128)
    four = np.eye(4, dtype=np.complex128)
    four[2, 1] = np.nan
    for bad in (two, four, np.diag([1, np.inf]).astype(np.complex128),
                np.diag([1, complex(0, -np.inf)])):
        with pytest.raises(DimensionMismatch, match="finite"):
            Superoperator(bad)
        k = bad.shape[0].bit_length() - 1
        with pytest.raises(QmcForgeError):
            matrix_chain(k, 0, [bad], [np.eye(2 ** k, dtype=np.complex128)])
        with pytest.raises(QmcForgeError):
            matrix_chain(k, 0, [], [bad])
    # finite entries whose gram overflows make a chain; the row check reports
    # the overflow as an infinite deviation, without a numpy warning
    big = np.diag([1e200, 1]).astype(np.complex128)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bad = verify_row_stochasticity(_one_step_chain(big))
    assert [(v.state, v.deviation) for v in bad] == [("s1", np.inf)]


def test_row_check_flags_slight_trace_increase():
    # a map just above trace-preserving is a violation of its row
    for m in (1.0000001 * np.eye(2, dtype=np.complex128), 1.0000001 * H):
        bad = verify_row_stochasticity(_one_step_chain(m))
        assert [v.state for v in bad] == ["s1"]
        assert bad[0].deviation == pytest.approx(1.0000001 ** 2 - 1)
    # a rank-1 projector off the axes has row sums above 1; with its
    # complement it resolves the identity, so the fan-out row passes
    v = np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)], dtype=np.complex128)
    rank1 = np.outer(v, v.conj())
    assert np.abs(rank1).sum(axis=1).max() > 1.2
    q = matrix_chain(1, 1, [H], [rank1, np.eye(2) - rank1])
    assert verify_row_stochasticity(q) == []


@st.composite
def _map_matrix(draw):
    """One matrix of dimension 1, 2 or 4, scaled so that the largest
    eigenvalue of its gram lands below, at or above 1."""
    dim = draw(st.sampled_from([1, 2, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["dense", "unitary", "permutation", "projector"]))
    if kind == "dense":
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    elif kind == "unitary":
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = np.linalg.qr(z)[0]
    elif kind == "permutation":
        m = np.eye(dim, dtype=np.complex128)[rng.permutation(dim)]
    else:
        m = np.diag(rng.integers(0, 2, dim)).astype(np.complex128)
    top = np.linalg.eigvalsh(m.conj().T @ m).max()
    target = draw(st.sampled_from([0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.5]))
    scale = np.sqrt(target / top) if top > 0 else 1.0
    if kind != "dense" and draw(st.booleans()):
        scale = 1.0  # keep the exact 0/1 entries of a structured step
    return m * scale


# --- the row check is the one physicality check -------------------------------

def _row_reference(m):
    """max |M^dagger M - I| of one matrix, formed plainly."""
    with np.errstate(all="ignore"):
        return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


def _per_step_reference(q):
    """The violations of ``q`` with one gram per step position, unshared."""
    rows = [(f"s{i}", _row_reference(so.matrix)) for i, so in enumerate(q.steps, start=1)]
    with np.errstate(all="ignore"):
        fan = sum(so.matrix.conj().T @ so.matrix for so in q.branches)
        rows.append((f"s{q.n + 1}", float(np.max(np.abs(fan - np.eye(2 ** q.k))))))
    return [(state, dev) for state, dev in rows if not dev <= DEFAULT_TOL.qmc_rows]


def _assert_same_violations(found, expected):
    assert [v.state for v in found] == [state for state, _ in expected]
    # NaN deviations compare equal here
    np.testing.assert_array_equal([v.deviation for v in found], [d for _, d in expected])


@settings(max_examples=150, deadline=None)
@given(m=_map_matrix(), h=st.booleans())
def test_reparse_refuses_exactly_the_rows_the_reference_refuses(m, h):
    # the draw is the middle step of an emitted model between two identities
    k = m.shape[0].bit_length() - 1
    h = int(h and k > 0)
    eye = np.eye(2 ** k, dtype=np.complex128)
    model = emit_qpmc(matrix_chain(
        k, h, [eye, m, eye], [projector(h, k, i) for i in range(2 ** h)]))
    if _row_reference(m) > DEFAULT_TOL.qmc_rows:
        with pytest.raises(ReparseError, match=r"^model matrices rejected: state s2: "):
            reparse_model(model)
    else:
        q = reparse_model(model)
        assert np.array_equal(q.steps[1].matrix, m)
        assert verify_row_stochasticity(q) == []


_EDITS = [np.nan, np.inf, -np.inf, 0.0, 2.0, 1.0 + 1e-9, 1.0 + 1e-11, 1e200, 1j]


@st.composite
def _shared_step_chain(draw):
    """A reparsed chain whose steps reuse two or three model constants at
    several positions, with one map replaced at every position holding it
    by one dense copy, one entry of which is written in place afterwards,
    as nan_step_chain writes its value."""
    k = draw(st.integers(1, 2))
    dim = 2 ** k
    pool = [np.eye(dim)[::-1], np.kron(H, np.eye(dim // 2)), np.diag(np.exp(0.5j * np.arange(dim)))]
    steps = draw(st.lists(st.sampled_from(pool[:draw(st.integers(2, 3))]),
                          min_size=1, max_size=6))
    h = draw(st.integers(0, k))
    q = reparse_model(emit_qpmc(matrix_chain(
        k, h, steps, [projector(h, k, i) for i in range(2 ** h)])))
    target = draw(st.sampled_from(q.steps + q.branches))
    at = (draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1)))
    # an index-built map's matrix is read-only: the edit goes into a copy
    # built as an array, which every position sharing the target holds
    m = target.matrix.copy()
    edited = Superoperator(m)
    m[at] = draw(st.sampled_from(_EDITS))

    def edit(maps):
        return tuple(edited if so is target else so for so in maps)

    return dataclasses.replace(q, steps=edit(q.steps), branches=edit(q.branches))


@settings(max_examples=100, deadline=None)
@given(q=_shared_step_chain())
def test_row_check_per_map_equals_per_step_reference(q):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = verify_row_stochasticity(q)
    _assert_same_violations(found, _per_step_reference(q))


_MAGNITUDES = [0.0, 1.0, 1.0 - 1e-9, 1.0 + 1e-9, 1.0 + 1e-11, 0.5, 1.5]


@st.composite
def _sparse_row(draw):
    """One row of a chain on k <= 3 wires: a monomial step (random phases
    and magnitudes, some columns zero) or a set of diagonal branches over a
    random split of the diagonal, then maybe one entry added off that
    pattern or one ``_EDITS`` value written in place. Returns the chain,
    whose row s1 it is, the row's maps and the change made ("none",
    "off-pattern" or the edit value)."""
    k = draw(st.integers(0, 3))
    dim = 2 ** k
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = np.ones(dim)
    if draw(st.booleans()):
        values = rng.choice(_MAGNITUDES, dim) * rng.uniform(0.9, 1.1, dim) ** draw(st.booleans())
    if draw(st.booleans()):
        values = values * np.exp(2j * np.pi * rng.random(dim))
    if draw(st.booleans()):
        step = np.zeros((dim, dim), dtype=np.complex128)
        step[rng.permutation(dim), np.arange(dim)] = values
        q = matrix_chain(k, 0, [step], [np.eye(dim)])
        maps = q.steps
    else:
        h = draw(st.integers(0, k))
        owner = rng.integers(0, 2 ** h, dim)
        branches = [np.diag(np.where(owner == b, values, 0)) for b in range(2 ** h)]
        q = matrix_chain(k, h, [], branches)
        maps = q.branches
    change = draw(st.sampled_from(["none", "off-pattern", "edit"]))
    target = maps[draw(st.integers(0, len(maps) - 1))].matrix
    if change == "off-pattern" and dim > 1:
        # a second nonzero in a row or a column that holds one already
        if not target.any():
            target[0, 0] = 1.0
        nonzero = np.argwhere(target != 0)
        i, j = nonzero[draw(st.integers(0, len(nonzero) - 1))]
        shift = draw(st.integers(1, dim - 1))
        at = (i, (j + shift) % dim) if draw(st.booleans()) else ((i + shift) % dim, j)
        target[at] = 0.25 + 0.5j
    elif change == "edit":
        change = draw(st.sampled_from(_EDITS))
        target[draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))] = change
    else:
        change = "none"
    return q, maps, change


@settings(max_examples=300, deadline=None)
@given(row=_sparse_row())
def test_diagonal_mass_screen_agrees_with_the_gram(row):
    q, maps, change = row
    with np.errstate(over="ignore"):
        mass = _diagonal_mass(maps)
    with np.errstate(all="ignore"):
        total = sum(so.matrix.conj().T @ so.matrix for so in maps)
        reference = float(np.max(np.abs(total - np.eye(2 ** q.k))))
    if change == "off-pattern" or not isinstance(change, str) and not np.isfinite(change):
        assert mass is None
    if mass is not None:
        deviation = float(np.max(np.abs(mass - 1)))
        scale = max(1.0, float(np.max(mass)))
        assert deviation == reference or \
            abs(deviation - reference) <= 8 * np.finfo(float).eps * scale
    # the row check's verdict and reported deviation, screened or not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = verify_row_stochasticity(q)
    if abs(reference - DEFAULT_TOL.qmc_rows) > 1e-14:
        expected = _per_step_reference(q)
        assert [v.state for v in found] == [s for s, _ in expected]
        for v, (_, dev) in zip(found, expected):
            assert v.deviation == dev or np.isnan(v.deviation) and np.isnan(dev) or \
                abs(v.deviation - dev) <= 8 * np.finfo(float).eps * max(1.0, dev)


def test_chain_shape_single_gate():
    q = _single_h_chain()
    assert q.k == 1 and q.h == 1 and q.n == 1
    assert q.internal_states() == ["s1", "s2"]
    assert q.terminal_states() == ["t0", "t1"]
    assert set(q.transitions) == {("s1", "s2"), ("s2", "t0"), ("s2", "t1"),
                                  ("t0", "t0"), ("t1", "t1")}


def test_chain_labeling_and_ap():
    q = _single_h_chain()
    assert q.labeling["s1"] == frozenset({"step=1"})
    assert q.labeling["t0"] == frozenset({"terminal", "outcome=0"})
    assert q.labeling["t1"] == frozenset({"terminal", "outcome=1"})


def test_chain_without_measurements():
    s = SnfCircuit(k=2, unitaries=(Superoperator(np.kron(H, H)),), h=0, wire_map=(1, 2))
    q = build_qmc(s)
    assert q.h == 0
    assert q.terminal_states() == ["t0"]
    assert q.labeling["t0"] == frozenset({"terminal"})
    so = q.transitions[("s2", "t0")]
    assert np.array_equal(so.matrix, np.eye(4))


def test_terminal_states_self_loop():
    q = _single_h_chain()
    for t in q.terminal_states():
        so = q.transitions[(t, t)]
        assert np.array_equal(so.matrix, np.eye(2))


def test_row_stochasticity_clean_chain():
    q = _single_h_chain()
    assert verify_row_stochasticity(q) == []


def test_row_stochasticity_flags_leaky_chain():
    q = _single_h_chain()
    # zero out one branch: state s2 no longer resolves the identity
    zero = Superoperator(np.zeros((2, 2), dtype=np.complex128))
    leaky = dataclasses.replace(q, branches=(q.branches[0], zero))
    bad = verify_row_stochasticity(leaky)
    assert [v.state for v in bad] == ["s2"]
    assert bad[0].deviation > 0.4


def test_row_stochasticity_flags_nan():
    # a NaN deviation is a violation, not a pass
    bad = verify_row_stochasticity(nan_step_chain(_single_h_chain()))
    assert [v.state for v in bad] == ["s1"]
    assert np.isnan(bad[0].deviation)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_row_stochasticity_reports_a_non_finite_step_without_warning(value):
    # inf * 0 in the gram once raised RuntimeWarning under -W error
    chain = nan_step_chain(_single_h_chain(), value, at=(0, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bad = verify_row_stochasticity(chain)
    assert [v.state for v in bad] == ["s1"]
    assert np.isnan(bad[0].deviation)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
def test_row_stochasticity_refuses_bad_tolerance(tol):
    with pytest.raises(QmcForgeError, match="^tol wants a finite number >= 0"):
        verify_row_stochasticity(_single_h_chain(), tol=tol)


def test_row_stochasticity_random_circuits():
    rng = np.random.default_rng(9)
    for _ in range(20):
        c = random_circuit(rng)
        s, _ = translate(c)
        q = build_qmc(s)
        assert verify_row_stochasticity(q) == []


def test_chains_with_multi_kraus_maps_fail_closed():
    # the model text writes one matrix per map; a stack of two Kraus
    # operators is rejected by Superoperator, so no chain can hold one
    half = np.sqrt(0.5) * np.eye(2, dtype=np.complex128)
    stack = np.stack([half, half @ H])
    with pytest.raises(DimensionMismatch, match=r"got shape \(2, 2, 2\)"):
        Superoperator(stack)
    with pytest.raises(DimensionMismatch, match="square matrix"):
        matrix_chain(1, 0, [stack], [np.eye(2)])
    with pytest.raises(DimensionMismatch, match="square matrix"):
        matrix_chain(1, 1, [H], [stack[0], stack])


def test_chain_checks_shape_and_branch_count():
    q = _single_h_chain()
    with pytest.raises(DimensionMismatch, match=r"need 2\^1 branch matrices, got 1"):
        dataclasses.replace(q, branches=q.branches[:1])
    wide = Superoperator(np.eye(4, dtype=np.complex128))
    with pytest.raises(DimensionMismatch, match=r"step 1 has shape \(4, 4\), register needs 2"):
        dataclasses.replace(q, steps=(wide,))
    with pytest.raises(DimensionMismatch, match="branch 0 has shape"):
        dataclasses.replace(q, branches=(wide, q.branches[1]))


def test_chain_checks_measured_wire_count():
    # h > k once built a chain with 4 outcomes on a 1-wire register, which
    # the emitter printed and the reparser then rejected
    zero = np.zeros((2, 2), dtype=np.complex128)
    with pytest.raises(DimensionMismatch, match=r"need 0 <= h <= k, got h=2 k=1"):
        matrix_chain(1, 2, [], [zero] * 4)
    with pytest.raises(DimensionMismatch, match=r"need 0 <= h <= k, got h=-1 k=1"):
        matrix_chain(1, -1, [], [])
    with pytest.raises(DimensionMismatch, match="need 0 <= h <= k"):
        dataclasses.replace(_single_h_chain(), h=2)


def test_chain_fields_are_the_two_tuples():
    assert [f.name for f in dataclasses.fields(Qmc)] == ["k", "h", "steps", "branches"]
    q = _single_h_chain()
    with pytest.raises(dataclasses.FrozenInstanceError):
        q.steps = ()
    # every terminal self-loops through the same identity superoperator
    q = build_qmc(SnfCircuit(k=2, unitaries=(Superoperator(np.eye(4)),), h=2, wire_map=(1, 2)))
    loops = {id(q.transitions[(t, t)]) for t in q.terminal_states()}
    assert len(loops) == 1


def _reference_chain(k, h, steps, branches):
    """States, transitions and labeling built as a string-keyed dict from the
    raw matrices, the way the chain used to store them."""
    internal = [f"s{i}" for i in range(1, len(steps) + 2)]
    terminal = [f"t{i}" for i in range(2 ** h)]
    transitions = {}
    for i, u in enumerate(steps):
        transitions[(internal[i], internal[i + 1])] = u
    for i, m in enumerate(branches):
        transitions[(internal[-1], terminal[i])] = m
        transitions[(terminal[i], terminal[i])] = np.eye(2 ** k)
    labeling = {name: frozenset({f"step={i}"}) for i, name in enumerate(internal, start=1)}
    for i, name in enumerate(terminal):
        props = {"terminal"}
        if h:
            props.add(f"outcome={format(i, f'0{h}b')}")
        labeling[name] = frozenset(props)
    return tuple(internal + terminal), transitions, labeling


@st.composite
def _random_chain(draw):
    """Matrices of a random chain: k <= 3, n <= 5 random unitary steps and
    the measurement projectors of 0 <= h <= k wires."""
    k = draw(st.integers(1, 3))
    h = draw(st.integers(0, k))
    n = draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = 2 ** k
    steps = [np.linalg.qr(rng.standard_normal((dim, dim))
                          + 1j * rng.standard_normal((dim, dim)))[0] for _ in range(n)]
    branches = [projector(h, k, i) for i in range(2 ** h)]
    return k, h, steps, branches


@settings(max_examples=60, deadline=None)
@given(chain=_random_chain())
def test_derived_views_match_the_string_keyed_reference(chain):
    k, h, steps, branches = chain
    q = matrix_chain(k, h, steps, branches)
    states, transitions, labeling = _reference_chain(k, h, steps, branches)
    assert q.n == len(steps)
    assert q.states == states
    assert list(q.transitions) == list(transitions)
    for key, mat in transitions.items():
        assert np.array_equal(q.transitions[key].matrix, mat)
    assert dict(q.labeling) == labeling
    assert q.internal_states() + q.terminal_states() == list(states)
    with pytest.raises(TypeError):
        q.transitions[("s1", "s1")] = q.branches[0]
    with pytest.raises(TypeError):
        q.labeling["s1"] = frozenset()


# --- the index form ------------------------------------------------------------

def test_an_index_built_map_reads_a_read_only_array_it_does_not_keep():
    so = Superoperator.from_index(4, [2, 0, 3], [1, 3, 0], [1j, -1.0, 0.0])
    # stored canonically: the zero value dropped, entries in row order
    form = so.monomial
    rows, cols, values = form
    assert rows.tolist() == [0, 2] and cols.tolist() == [3, 1]
    assert values.tolist() == [-1.0, 1j]
    assert not (rows.flags.writeable or cols.flags.writeable or values.flags.writeable)
    assert so.dim == 4
    expected = np.zeros((4, 4), dtype=np.complex128)
    expected[0, 3], expected[2, 1] = -1.0, 1j
    m = so.matrix
    assert m.dtype == np.complex128 and np.array_equal(m, expected)
    # read-only, shared while a reader holds it, never kept by the map; the
    # map stays index-built
    assert so.matrix is m and so.kraus[0] is m
    assert so.monomial is form and so._dense is None
    assert not m.flags.writeable
    with pytest.raises(ValueError):
        m[1, 0] = 0.5
    held = weakref.ref(m)
    del m
    assert held() is None
    assert so.monomial is form and np.array_equal(so.matrix, expected)
    assert not so.matrix.flags.writeable


@pytest.mark.parametrize("so", [
    Superoperator.from_index(4, [2, 0, 3], [1, 3, 0], [1j, -1.0, 1.0]),
    Superoperator(np.diag([1.0, 1j])),
], ids=["index-built", "dense"])
def test_a_read_map_pickles_and_copies_to_the_same_kind(so):
    # a read leaves a weak reference to the formed array behind, which
    # must not stop the map from being pickled or copied
    m = so.matrix
    for again in (pickle.loads(pickle.dumps(so)), copy.deepcopy(so), copy.copy(so)):
        assert (again._dense is None) == (so._dense is None)
        assert np.array_equal(again.matrix, m)


def test_indexed_puts_a_form_in_row_order_and_marks_it_read_only():
    # rows out of order are sorted, carrying their columns and values along
    rows, cols, values = np.array([3, 0, 2]), np.array([0, 2, 1]), np.array([1j, -1, 2.0])
    form = Superoperator._indexed(4, rows, cols, values).monomial
    assert [a.tolist() for a in form] == [[0, 2, 3], [2, 1, 0], [-1, 2.0, 1j]]
    # rows in order are kept as given, and every array becomes read-only
    rows, cols, values = np.arange(3), np.array([2, 0, 1]), np.ones(3, dtype=np.complex128)
    kept = Superoperator._indexed(3, rows, cols, values).monomial
    assert all(a is b for a, b in zip(kept, (rows, cols, values)))
    assert not any(a.flags.writeable for a in (*form, *kept))


@pytest.mark.parametrize("args, match", [
    ((2, [0], [0], [np.nan]), "non-finite"),
    ((2, [0], [0], [complex(1, np.inf)]), "non-finite"),
    ((2, [0, 0], [0, 1], [1, 1]), "distinct rows"),
    ((2, [0, 1], [1, 1], [1, 1]), "distinct rows"),
    ((2, [2], [0], [1]), "distinct rows"),
    ((2, [-1], [0], [1]), "distinct rows"),
    ((2, [0.0], [0], [1]), "integer rows"),
    ((2, [0, 1], [0], [1, 1]), "one length"),
    ((2, [[0]], [[0]], [[1]]), "1-D"),
    ((0, [], [], []), "dimension"),
    ((2.0, [0], [0], [1]), "dimension"),
    ((2, [0], [0], ["one"]), "numeric"),
    ((2, [[0], [0, 1]], [0], [1]), "numeric"),
], ids=["nan", "inf-part", "row-twice", "column-twice", "past-the-end", "negative",
        "float-rows", "ragged", "2-d", "zero-dim", "float-dim", "text-value", "ragged-rows"])
def test_from_index_rejects_forms_that_are_not_monomial(args, match):
    with pytest.raises(DimensionMismatch, match=match):
        Superoperator.from_index(*args)


def test_build_qmc_forms_no_dense_projector(monkeypatch):
    s = SnfCircuit(k=3, unitaries=(Superoperator(np.eye(8, dtype=np.complex128)),), h=2,
                    wire_map=(1, 2, 3))

    def no_kron(*args):
        raise AssertionError("build_qmc formed a Kronecker product")

    monkeypatch.setattr(np, "kron", no_kron)
    q = build_qmc(s)
    monkeypatch.undo()
    for i, so in enumerate(q.branches):
        rows, cols, values = so.monomial
        assert rows.tolist() == cols.tolist() == [2 * i, 2 * i + 1]
        assert values.tolist() == [1, 1]
        assert not (rows.flags.writeable or cols.flags.writeable or values.flags.writeable)
        assert np.array_equal(so.matrix, projector(2, 3, i))


def test_build_qmc_builds_one_map_per_distinct_step_array():
    s, _ = translate(random_circuit(np.random.default_rng(3), max_wires=4),
                     strategy="naive-adjacent", emit_swaps_as_gates=True)
    s = SnfCircuit(k=s.k, unitaries=s.unitaries * 2, h=s.h, wire_map=s.wire_map)
    q = build_qmc(s)
    assert len({id(so) for so in q.steps}) == len({id(m) for m in s.unitaries})
    for so, m in zip(q.steps, s.unitaries):
        assert so is m


def test_write_into_a_reparsed_index_built_branch_is_caught():
    q = reparse_model(emit_qpmc(_single_h_chain()))
    branch = q.branches[1]
    form = branch.monomial
    assert form is not None and verify_row_stochasticity(q) == []
    with pytest.raises(ValueError):
        branch.matrix[0, 1] = 0.5
    assert branch.monomial is form and branch._dense is None
    assert verify_row_stochasticity(q) == []


def test_write_into_a_branch_built_from_an_array_is_caught():
    q = reparse_model(emit_qpmc(_single_h_chain()))
    branch = Superoperator(q.branches[1].matrix.copy())
    q = dataclasses.replace(q, branches=(q.branches[0], branch))
    # built from an array, so read densely: the row check forms its gram
    assert branch.monomial is None and verify_row_stochasticity(q) == []
    branch.matrix[0, 1] = 0.5
    assert [(v.state, v.deviation) for v in verify_row_stochasticity(q)] == [("s2", 0.25)]


@st.composite
def _index_row(draw):
    """The maps of one row on k <= 4 wires: a permutation times phases or
    0/1 values, or the diagonal projectors of a random split of the
    diagonal, each index-built; the same maps built dense; and those
    rebuilt index-built from the forms a scan of their arrays finds
    (``_monomial_form``)."""
    k = draw(st.integers(0, 4))
    dim = 2 ** k
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = np.ones(dim, dtype=np.complex128)
    if draw(st.booleans()):
        values = np.exp(2j * np.pi * rng.random(dim)) * rng.choice([0.5, 1.0, 1.0 + 1e-9], dim)
    if draw(st.booleans()):
        forms = [(rng.permutation(dim), np.arange(dim), values)]
    else:
        owner = rng.integers(0, 2 ** draw(st.integers(0, k)), dim)
        forms = [(np.flatnonzero(owner == b), np.flatnonzero(owner == b), values[owner == b])
                 for b in range(owner.max() + 1)]
    maps = [Superoperator.from_index(dim, *form) for form in forms]
    dense = []
    for rows, cols, vals in forms:
        m = np.zeros((dim, dim), dtype=np.complex128)
        m[rows, cols] = vals
        dense.append(Superoperator(m))
    scanned = [Superoperator.from_index(so.dim, *_monomial_form(so.matrix)) for so in dense]
    return maps, dense, scanned


@settings(max_examples=150, deadline=None)
@given(row=_index_row())
def test_diagonal_mass_of_index_forms_equals_the_gram(row):
    maps, dense, scanned = row
    mass = _diagonal_mass(maps)
    assert np.array_equal(mass, _diagonal_mass(scanned))
    # maps built from arrays are read densely: the row check forms grams
    assert _diagonal_mass(dense) is None
    gram = sum(so.matrix.conj().T @ so.matrix for so in dense)
    assert np.allclose(np.diag(mass), gram, rtol=0, atol=8 * np.finfo(float).eps)
    # reading the index form materialized nothing
    assert all(so.monomial is so.monomial for so in maps)


def _diagonal_mass_by_map(maps) -> np.ndarray:
    """The reference for _diagonal_mass: one accumulation per map."""
    mass = np.zeros(maps[0].dim)
    for so in maps:
        _, cols, values = so.monomial
        mass[cols] += (values.conj() * values).real
    return mass


@settings(max_examples=150, deadline=None)
@given(row=_index_row())
def test_diagonal_mass_equals_a_per_map_loop_bit_for_bit(row):
    for maps in (row[0], row[2]):
        assert _diagonal_mass(maps).tobytes() == _diagonal_mass_by_map(maps).tobytes()


@settings(max_examples=150, deadline=None)
@given(row=_index_row())
def test_row_check_of_one_map_keeps_the_bits_of_its_diagonal_mass(row):
    # a form that covers every row holds each column once, so the row check
    # reads its values alone; one that misses rows goes through the bincount
    for so in row[0]:
        k = so.dim.bit_length() - 1
        q = Qmc(k, 0, (so,), (Superoperator(np.eye(so.dim)),))
        expected = float(np.max(np.abs(_diagonal_mass((so,)) - 1)))
        found = [v.deviation for v in verify_row_stochasticity(q, tol=0.0) if v.state == "s1"]
        assert found == ([expected] if expected > 0 else [])


def test_row_check_of_an_index_built_chain_forms_no_identity():
    # k=10: the identity alone would take 16 MiB
    k, h = 10, 2
    d, block = 2 ** k, 2 ** (k - h)
    rng = np.random.default_rng(0)
    steps = (Superoperator.from_index(d, rng.permutation(d), np.arange(d), np.ones(d)),
             Superoperator.from_index(d, rng.permutation(d), np.arange(d),
                                      np.exp(2j * np.pi * rng.random(d))))
    spans = np.arange(d).reshape(-1, block)
    q = Qmc(k, h, steps, tuple(Superoperator.from_index(d, span, span, np.ones(block))
                               for span in spans))
    tracemalloc.start()
    try:
        found = verify_row_stochasticity(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == []
    assert peak < 2 ** 20


def test_build_and_reparse_log_their_maps(caplog):
    c = parse_circuit("qubits 2\ngate H 1\ngate CNOT 1 2\nmeasure 1\nmeasure 2\n")
    with caplog.at_level("DEBUG", logger="qmcforge"):
        s, _ = translate(c)
        q = build_qmc(s)
        reparse_model(emit_qpmc(q))
    lines = [r.getMessage() for r in caplog.records
             if r.name in ("qmcforge.normalize", "qmcforge.qmc")]
    assert lines == [
        "translate: k=2, h=2, 2 step(s), 2 distinct map(s): 1 index-built, 1 dense; "
        "0 binary swap(s) under composed",
        "build_qmc: k=2, h=2, 2 step(s), 6 distinct map(s): 5 index-built, 1 dense",
        "reparse_model: k=2, h=2, 2 step(s), 6 distinct map(s): 5 index-built, 1 dense",
    ]


def test_transitions_share_an_index_built_identity_loop():
    # k=10: a dense identity loop would take 16 MiB
    k = 10
    q = build_qmc(SnfCircuit(k, (), 2, tuple(range(1, k + 1))))
    tracemalloc.start()
    try:
        loops = {id(so): so for (source, target), so in q.transitions.items()
                 if source == target}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    (loop,) = loops.values()
    rows, cols, values = loop.monomial
    assert loop._dense is None
    assert np.array_equal(rows, np.arange(2 ** k)) and np.array_equal(cols, rows)
    assert np.array_equal(values, np.ones(2 ** k))


@pytest.mark.parametrize("k, h", [(0, 0), (1, 1), (3, 0), (3, 2), (4, 4)])
def test_projectors_and_self_loop_are_views_of_one_identity_form(k, h):
    d = 2 ** k
    index, ones = _identity_form(d)
    again = _identity_form(d)
    assert again[0] is index and again[1] is ones
    assert not (index.flags.writeable or ones.flags.writeable)
    assert index.tolist() == list(range(d)) and ones.tolist() == [1] * d
    q = build_qmc(SnfCircuit(k, (), h, tuple(range(1, k + 1))))
    loops = {id(so): so for (source, target), so in q.transitions.items() if source == target}
    for so in (*q.branches, *loops.values()):
        rows, cols, values = so.monomial
        assert all(np.shares_memory(a, b) for a, b in zip((rows, cols, values),
                                                          (index, index, ones)))
