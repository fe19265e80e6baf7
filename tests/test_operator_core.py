"""The operator core in ``isa`` on three qubits, against index-arithmetic references.

Every other test runs on one or two qubits; these check that ``embed``,
``basis_bit``, the cZ unitary and the backends' ``prob_one`` follow the
qubit-0-is-LSB layout for any register size, without building the reference
from a Kronecker product.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoproc.isa import CZ, basis_bit, embed, slot, slot_unitary
from qcoproc.simulator import DensityMatrix, StateVector

N = 3
DIM = 1 << N

_parts = st.floats(-2.0, 2.0, allow_nan=False)
_complex = st.builds(complex, _parts, _parts)
_matrix2 = st.lists(_complex, min_size=4, max_size=4).map(
    lambda v: np.array(v, dtype=complex).reshape(2, 2))
_ops = st.dictionaries(st.integers(0, N - 1), _matrix2, max_size=N)
_amplitudes = st.lists(_complex, min_size=DIM, max_size=DIM).map(
    lambda v: np.array(v, dtype=complex)).filter(lambda a: np.linalg.norm(a) > 1e-3)


def _bit(index: int, qubit: int) -> int:
    return (index >> qubit) & 1


def embed_ref(ops: dict) -> np.ndarray:
    """Entry (i, j) is the product over qubits of that qubit's 2x2 entry at its
    bits of i and j, with identity on qubits outside ``ops``."""
    out = np.zeros((DIM, DIM), dtype=complex)
    for i in range(DIM):
        for j in range(DIM):
            value = 1.0 + 0j
            for q in range(N):
                bi, bj = _bit(i, q), _bit(j, q)
                value *= ops[q][bi, bj] if q in ops else float(bi == bj)
            out[i, j] = value
    return out


@settings(max_examples=60, deadline=None)
@given(_ops)
def test_embed_matches_index_reference(ops):
    np.testing.assert_allclose(embed(ops, N), embed_ref(ops), rtol=1e-12, atol=1e-12)


@given(st.permutations(range(N)))
def test_cz_is_minus_one_where_both_bits_are_set(order):
    qa, qb = order[0], order[1]
    U = slot_unitary(slot(CZ(qa, qb)), N)
    expected = [-1.0 if _bit(i, qa) and _bit(i, qb) else 1.0 for i in range(DIM)]
    assert np.array_equal(U, np.diag(expected).astype(complex))


def test_basis_bit_matches_shifted_index():
    for q in range(N):
        assert basis_bit(q, N).tolist() == [_bit(i, q) for i in range(DIM)]


@settings(max_examples=60, deadline=None)
@given(_amplitudes, _amplitudes, st.floats(0.0, 1.0))
def test_prob_one_is_summed_basis_probability(a, b, weight):
    psi, phi = a / np.linalg.norm(a), b / np.linalg.norm(b)
    rho = weight * np.outer(psi, psi.conj()) + (1 - weight) * np.outer(phi, phi.conj())
    state, mixed = StateVector(N, psi), DensityMatrix(N, rho)
    for q in range(N):
        ones = [i for i in range(DIM) if _bit(i, q)]
        assert abs(state.prob_one(q) - sum(abs(psi[i]) ** 2 for i in ones)) < 1e-12
        assert abs(mixed.prob_one(q) - sum(rho[i, i].real for i in ones)) < 1e-12
