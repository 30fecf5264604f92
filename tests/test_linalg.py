"""Matrix utilities: tensor products, swaps, and permutation synthesis."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import basis_state, permutation_matrix, swap_matrix
from qmcforge import linalg
from qmcforge.errors import NonSquare, NotAPermutation
from qmcforge.normalize import _routing_steps


def test_tensor_matches_kron():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.allclose(linalg.tensor(a, b, c), np.kron(np.kron(a, b), c))


def test_tensor_wire_one_most_significant():
    # X on the first of two wires must act on the high-order bit:
    # |00> -> |10>, i.e. index 0 -> index 2.
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    op = linalg.tensor(x, np.eye(2))
    assert np.allclose(op @ basis_state(2, 0), basis_state(2, 2))


def test_dagger_inverts_unitary():
    rng = np.random.default_rng(1)
    u = np.linalg.qr(rng.standard_normal((4, 4))
                     + 1j * rng.standard_normal((4, 4)))[0]
    assert np.allclose(linalg.dagger(u) @ u, np.eye(4), atol=1e-12)


def test_unitary_hermitian_density_predicates():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert linalg.is_unitary(h)
    assert not linalg.is_unitary(np.array([[1, 1], [0, 1]]))


def test_require_square_rejects_rectangles():
    with pytest.raises(NonSquare):
        linalg.require_square(np.zeros((2, 3)))


def test_binary_swap_two_wires():
    # Swapping wires 1 and 2 of a 2-wire register is the textbook SWAP:
    # |01> and |10> trade places.
    assert linalg._permute_indices(2, (2, 1)).tolist() == [0, 2, 1, 3]


def test_binary_swap_action_on_kets():
    # |b1 b2 b3> with wires 1,3 swapped: |100> -> |001>, and back.
    idx = linalg._permute_indices(3, (3, 2, 1))
    assert idx[0b100] == 0b001
    assert idx[idx].tolist() == list(range(8))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 7).flatmap(lambda k: st.permutations(range(1, k + 1))))
def test_permute_indices_moves_each_wire_bit(perm):
    # one shift per wire and basis index: wire w's bit lands at perm[w-1]
    k = len(perm)
    idx = linalg._permute_indices(k, perm)
    assert idx.dtype == np.int64 and idx.shape == (2 ** k,)
    expected = [sum(((j >> (k - w)) & 1) << (k - perm[w - 1]) for w in range(1, k + 1))
                for j in range(2 ** k)]
    assert idx.tolist() == expected


def _strategy_matrix(perm, strategy):
    # the routing a strategy emits, multiplied out, and its binary-swap bill
    k = len(perm)
    swaps = linalg.swap_decomposition(perm, strategy)
    acc = np.eye(2 ** k, dtype=np.complex128)
    for step in _routing_steps(tuple(perm), swaps, k):
        acc = step.matrix @ acc
    return acc, len(swaps)


@pytest.mark.parametrize("strategy", ["composed", "direct", "naive-adjacent"])
def test_generalized_swap_action(strategy):
    # perm sends wire i to position perm[i-1]; check on every basis ket.
    perm = (3, 1, 2)  # wire1->pos3, wire2->pos1, wire3->pos2
    p, _ = _strategy_matrix(perm, strategy)
    for idx in range(8):
        bits = [(idx >> (3 - w)) & 1 for w in (1, 2, 3)]
        out = [0, 0, 0]
        for wire, bit in zip((1, 2, 3), bits):
            out[perm[wire - 1] - 1] = bit
        target = (out[0] << 2) | (out[1] << 1) | out[2]
        assert np.array_equal(p @ basis_state(3, idx), basis_state(3, target))


def test_generalized_swap_strategies_agree():
    rng = np.random.default_rng(7)
    for k in range(2, 7):
        perm = tuple(int(x) + 1 for x in rng.permutation(k))
        mats = {}
        for strategy in ("composed", "direct", "naive-adjacent"):
            m, count = _strategy_matrix(perm, strategy)
            mats[strategy] = m
            if strategy == "direct":
                assert count == 0
            elif strategy == "composed":
                assert count <= k - 1
            else:
                assert count <= k * (k - 1) // 2
        assert np.array_equal(mats["direct"], permutation_matrix(k, perm))
        assert np.array_equal(mats["composed"], mats["direct"])
        assert np.array_equal(mats["naive-adjacent"], mats["direct"])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda k: st.permutations(range(1, k + 1))),
       st.sampled_from(["composed", "naive-adjacent"]))
def test_swap_decomposition_rebuilds_matrix(perm, strategy):
    # the product of the decomposition's binary swaps realizes the one-pass
    # permutation matrix; its length is the bill
    k = len(perm)
    steps = linalg.swap_decomposition(perm, strategy)
    if strategy == "naive-adjacent":
        assert all(abs(i - j) == 1 for i, j in steps)
    acc = np.eye(2 ** k, dtype=np.complex128)
    for i, j in steps:
        acc = swap_matrix(k, i, j) @ acc
    assert np.array_equal(acc, permutation_matrix(k, perm))


def test_identity_permutation_is_free():
    for strategy in ("composed", "direct", "naive-adjacent"):
        assert linalg.swap_decomposition((1, 2, 3), strategy) == []
    assert linalg._permute_indices(3, (1, 2, 3)).tolist() == list(range(8))


def test_swap_decomposition_rejects_bad_input():
    with pytest.raises(NotAPermutation, match=r"^\(1, 1, 2\) is not a permutation of 1\.\.3$"):
        linalg.swap_decomposition((1, 1, 2), "composed")
    with pytest.raises(NotAPermutation, match=r"^unknown swap strategy 'sorted'$"):
        linalg.swap_decomposition((1, 2, 3), "sorted")


def _swap_decomposition_reference(perm, strategy):
    """The earlier swap_decomposition of the two sorting strategies: it
    tracks the wire at each position and each wire's position, and repeats
    full bubble passes until one swaps nothing."""
    k = len(perm)
    arrangement = list(range(1, k + 1))
    position = {w: w for w in arrangement}
    swaps = []

    def do_swap(p, q):
        wp, wq = arrangement[p - 1], arrangement[q - 1]
        arrangement[p - 1], arrangement[q - 1] = wq, wp
        position[wp], position[wq] = q, p
        swaps.append((p, q))

    if strategy == "composed":
        inverse = {perm[w - 1]: w for w in range(1, k + 1)}
        for p in range(1, k + 1):
            q = position[inverse[p]]
            if q != p:
                do_swap(p, q)
    else:
        changed = True
        while changed:
            changed = False
            for p in range(1, k):
                if perm[arrangement[p - 1] - 1] > perm[arrangement[p] - 1]:
                    do_swap(p, p + 1)
                    changed = True
    return swaps


@pytest.mark.parametrize("strategy", ["composed", "naive-adjacent"])
def test_swap_decomposition_equals_the_reference_on_every_permutation(strategy):
    for k in range(8):
        for perm in itertools.permutations(range(1, k + 1)):
            assert linalg.swap_decomposition(perm, strategy) == \
                _swap_decomposition_reference(perm, strategy), perm

