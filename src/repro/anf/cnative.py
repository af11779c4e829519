"""The import guard of the optional compiled kernel extension.

:mod:`repro.anf._ckernel._impl` holds the C primitives behind
:mod:`repro.anf.sortkernel`'s slab kernels.  They read the read-only
``uint64`` row vectors of :class:`~repro.anf.termmatrix.TermMatrix`
through the buffer protocol and write their results into fresh
``bytearray`` buffers, which sortkernel wraps as zero-copy read-only
``np.frombuffer`` views.

The extension build is optional (``setup.py`` marks it ``optional=True``),
so importing this module never fails: :data:`_C` is the extension module
when it is built and ``None`` otherwise, and every sortkernel kernel then
runs its numpy body.  Build it in a source checkout with
``python setup.py build_ext --inplace``.
"""

try:  # pragma: no cover - which arm runs depends on the build
    from ._ckernel import _impl as _C
except ImportError:  # pragma: no cover
    _C = None


def available() -> bool:
    """True when the compiled extension imported (C primitives in use)."""
    return _C is not None
