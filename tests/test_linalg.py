"""Matrix utilities: tensor products, swaps, and permutation synthesis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmcforge import linalg
from qmcforge.errors import NonSquare, NotAPermutation
from qmcforge.normalize import _routing_steps


def test_basis_ket():
    v = linalg.basis_ket(2, 4)
    assert v.shape == (4,)
    assert v[2] == 1.0 and np.count_nonzero(v) == 1


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
    v = linalg.basis_ket(0, 4)
    assert np.allclose(op @ v, linalg.basis_ket(2, 4))


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
    # Swapping wires 1 and 2 of a 2-wire register is the textbook SWAP.
    expected = np.array([[1, 0, 0, 0],
                         [0, 0, 1, 0],
                         [0, 1, 0, 0],
                         [0, 0, 0, 1]], dtype=np.complex128)
    assert np.array_equal(linalg.binary_swap(2, 1, 2), expected)


def test_binary_swap_action_on_kets():
    # |b1 b2 b3> with wires 1,3 swapped: |100> -> |001>.
    p = linalg.binary_swap(3, 1, 3)
    assert np.array_equal(p @ linalg.basis_ket(0b100, 8),
                          linalg.basis_ket(0b001, 8))
    assert np.array_equal(p @ p, np.eye(8))


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
        assert np.array_equal(p @ linalg.basis_ket(idx, 8),
                              linalg.basis_ket(target, 8))


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
        assert np.array_equal(mats["direct"], linalg._permutation_matrix(k, perm))
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
        acc = linalg.binary_swap(k, i, j) @ acc
    assert np.array_equal(acc, linalg._permutation_matrix(k, perm))


def test_identity_permutation_is_free():
    for strategy in ("composed", "direct", "naive-adjacent"):
        assert linalg.swap_decomposition((1, 2, 3), strategy) == []
    assert np.array_equal(linalg._permutation_matrix(3, (1, 2, 3)), np.eye(8))


def test_swap_decomposition_rejects_bad_input():
    with pytest.raises(NotAPermutation):
        linalg.swap_decomposition((1, 1, 2), "composed")
    with pytest.raises(NotAPermutation):
        linalg.swap_decomposition((1, 2, 3), "sorted")
