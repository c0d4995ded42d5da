"""Shared test references."""

import numpy as np
import pytest

from blobcell import blob as B
from blobcell import hecke as H
from blobcell.exactfield import invert_matrix, matmul


def _nonzero_classes(algebra) -> set:
    """Every residue class of H whose idempotent is nonzero in the
    carrier, found the long way: compute each class idempotent and reduce
    it by the quotient map."""
    p, index = algebra.p, algebra.reg.nf.index
    out = set()
    for iseq, tabs in H.class_partition(algebra.params).items():
        v = np.zeros(algebra.reg.dim, dtype=np.int64)
        for key, c in H.class_idempotent_vector(algebra.params,
                                                tabs).items():
            v[index[key]] = c
        if matmul((algebra.quotient_map, v), p).any():
            out.add(iseq)
    return out


def _family_swap(algebra, images):
    """The independent reference for the anti-involution of B: the swap
    m_{S,T} -> m_{T,S} on the zero-weighting family, M[:, swapped] M^-1."""
    fam = B.CellularBasis(algebra, images)
    return matmul((fam.matrix[:, fam.swapped],
                   invert_matrix(fam.matrix, algebra.p)), algebra.p)


@pytest.fixture(scope="session")
def nonzero_classes():
    return _nonzero_classes


@pytest.fixture(scope="session")
def family_swap():
    return _family_swap
