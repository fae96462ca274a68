"""Multiclass queueing network simulator with antipattern transforms,
an execution graph solver and an experiment harness."""

__version__ = "0.1.0"

# SHA-256 of stream keys, the extension's cache tag, config digests and
# manifest digests: CPython's built-in module, so no run loads OpenSSL's
# libcrypto through hashlib (_sha2 from 3.12 on, _sha256 before)
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
