import pytest

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__


@pytest.fixture(scope="session")
def pinned():
    """pinned(x86_v4, baseline): the digest of this host's numpy dispatch.

    numpy's float64 ``power`` differs from libm ``pow`` in the last bit on
    some terms under its AVX-512 (``X86_V4``) loops, so a digest of values
    that pass through a power has one form per dispatch class. The baseline
    digest is the one numpy gives with
    ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``, as on an
    x86 host without AVX-512.
    """
    x86_v4 = bool(__cpu_features__.get("X86_V4", False))
    return lambda avx512, baseline: avx512 if x86_v4 else baseline
