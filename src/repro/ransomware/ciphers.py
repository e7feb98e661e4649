"""Per-sample encryption engines.

Each sample owns a :class:`CipherEngine` with deterministic key material
derived from its seed.  Engines map family lore onto the from-scratch
primitives in :mod:`repro.crypto`:

* ``aes`` — AES-CTR up to a 16 KiB cutoff; beyond it the keystream is
  produced by ChaCha20 instead.  Both produce uniformly distributed
  ciphertext, which is all the indicators ever see; DESIGN.md records the
  substitution.  The cutoff saves no AES time (the block kernel runs any
  size); it stays only so that every file's ciphertext, and the
  calibrated outcomes pinned on it, are unchanged.
* ``chacha`` — ChaCha20 (NumPy-fast, default bulk engine).
* ``rc4`` — RC4 (a sequential per-byte loop), with the same cutoff and
  substitution.
* ``tea`` — TEA in ECB over 8-byte blocks (Xorist's cipher): repeated
  plaintext blocks repeat in ciphertext, so text encrypts to visibly
  lower entropy than a real stream cipher.
* ``xor`` — repeating-key XOR (Xorist's other mode, and several
  script-kiddie families).

Engines may wrap their session key with the family's embedded RSA public
key (GPcode/CryptoWall ritual); the wrapped key is what lands in notes.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from ..crypto import (aes_ctr_xor, chacha20_xor, generate_keypair, rc4_crypt,
                      tea_encrypt_blocks, wrap_key, xor_crypt)

__all__ = ["CipherEngine", "ATTACKER_RSA"]

#: the attacker's embedded public key (fixed across the campaign, like a
#: family's hardcoded key block)
ATTACKER_RSA = generate_keypair(bits=512, seed=0xBADC0DE)

#: above this, "aes"/"rc4" engines switch to the ChaCha20 keystream; for
#: "aes" it only keeps campaign ciphertext, and the outcomes pinned on it,
#: unchanged
_PURE_PYTHON_CUTOFF = 16 * 1024


class CipherEngine:
    """Deterministic per-sample encryption."""

    KINDS = ("aes", "chacha", "rc4", "tea", "xor")

    def __init__(self, kind: str, seed: int, wrap_with_rsa: bool = False) -> None:
        if kind not in self.KINDS:
            raise ValueError(f"unknown cipher kind {kind!r}")
        self.kind = kind
        rng = random.Random(seed ^ 0x5EC3E7)
        self.key32 = rng.randbytes(32)
        self.key16 = self.key32[:16]
        self.nonce = rng.randbytes(12)
        self.xor_key = rng.randbytes(rng.choice([8, 16, 32]))
        self.wrapped_key: Optional[bytes] = None
        if wrap_with_rsa:
            self.wrapped_key = wrap_key(self.key32[:48 // 2],
                                        ATTACKER_RSA.public)
        self._counter = 0

    def encrypt(self, data: bytes) -> bytes:
        """Encrypt one file's bytes (per-file keystream offset)."""
        self._counter += 1
        if self.kind == "xor":
            return xor_crypt(self.xor_key, data)
        if self.kind == "tea":
            return tea_encrypt_blocks(self.key16, data)
        if self.kind == "rc4" and len(data) <= _PURE_PYTHON_CUTOFF:
            return rc4_crypt(self.key16 + self._counter.to_bytes(4, "big"),
                             data)
        if self.kind == "aes" and len(data) <= _PURE_PYTHON_CUTOFF:
            nonce = (int.from_bytes(self.nonce, "big") ^ self._counter)
            return aes_ctr_xor(self.key16, nonce.to_bytes(12, "big"), data)
        # bulk path: vectorised stream cipher, per-file counter block
        return chacha20_xor(self.key32, self.nonce, data,
                            initial_counter=self._counter << 16)

    def key_blob(self) -> bytes:
        """What the malware would exfiltrate / embed in its note."""
        if self.wrapped_key is not None:
            return self.wrapped_key
        return self.key32

    def describe(self) -> Tuple[str, int]:
        return self.kind, len(self.key32) * 8
