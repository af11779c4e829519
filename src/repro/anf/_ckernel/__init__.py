"""Build tree for the optional C kernel extension (``repro.anf._ckernel._impl``).

The compiled module lands next to this file as ``_impl``; it is built by
``setup.py``'s optional ``ext_modules`` entry (``pip install -e .`` or
``python setup.py build_ext --inplace``).  Nothing imports this package
directly except :mod:`repro.anf.cnative`'s import guard; when the extension
is missing, :mod:`repro.anf.sortkernel` runs its numpy bodies — so a failed
or skipped build never breaks an install, it only forfeits the C speedup.
"""
