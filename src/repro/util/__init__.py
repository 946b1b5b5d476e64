"""Shared low-level utilities, one module each: ``tokens`` (tokenization
and metering), ``rngs`` (seed derivation, numpy streams), ``timing`` (the
injected clocks), ``text``.

Import the module you need: the package re-exports nothing, so taking a
clock does not load numpy.
"""
