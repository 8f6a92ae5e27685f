"""The base of the errors that report bad input rather than a bug.

A malformed fixture, a representation or group outside the supported
family, a function or manifold the Morse layer cannot handle: each raises a
subclass of InputError, which is a ValueError.  The CLI prints any of them
as one `error:` line and exits 2, and it needs only this module to catch
them, not the layers that raise them.
"""

__all__ = ["InputError"]


class InputError(ValueError):
    """Input the library cannot handle; the CLI reports it and exits 2."""
