"""Builds the optional compiled kernel extension, a plain C module.

The package works without it (pure-Python kernels are selected at import
time when the extension is missing), so the extension is optional: a
missing or failing C compiler leaves a working pure-Python install.
"""

from setuptools import Extension, setup

setup(ext_modules=[
    Extension("ordstat._ckernels", ["src/ordstat/_ckernels.c"], optional=True),
])
