"""The kernel module's entry points.  The kernels themselves are checked
against the naive oracles in tests/oracles.py through the structures,
mappings, approximations and claim tables that call them."""

from roughmap import kernels


def test_select_routes_by_size():
    # one module for every size; select() is the seam the per-layer
    # benchmark trace wraps
    for args in ((10,), (65,), (10, 65), (6, 4)):
        assert kernels.select(*args) is kernels
    assert kernels.BACKEND == "python"


def test_flag_constants_agree():
    flags = (kernels.REFLEXIVE, kernels.SYMMETRIC, kernels.TRANSITIVE, kernels.EQUIVALENCE)
    assert flags == (1, 2, 4, 7)


def test_elements_lists_a_mask_bit_by_bit():
    for mask in range(1 << 12):
        assert list(kernels.elements(mask)) == [i for i in range(12) if mask >> i & 1]
