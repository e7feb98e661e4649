"""AES-128/192/256 from scratch (FIPS-197).

Many ransomware families "implement their own versions of these
algorithms" (paper §III), which is exactly why CryptoDrop cannot rely on
hooking crypto libraries.  This is a clean-room AES with CBC and CTR
modes.  One NumPy block kernel per direction runs every round over an
``(n, 16)`` uint8 state, one row per block in FIPS-197's column-major
layout: SubBytes is an S-box lookup, ShiftRows a fixed gather, MixColumns
GF(2^8) multiply tables, AddRoundKey an XOR against the key schedule's
``(rounds + 1, 16)`` array.  CTR and CBC decryption therefore cost a few
dozen array operations per round however many blocks they cover; CBC
encryption chains block to block and runs the kernel one row at a time.

Test vectors from FIPS-197 Appendix C and RFC 3686 are enforced in the
test suite, and ``tests/reference.py`` keeps a scalar per-byte AES as the
oracle the kernel is checked against.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .padding import pad, unpad

__all__ = ["AES", "aes_cbc_encrypt", "aes_cbc_decrypt", "aes_ctr_xor"]


def _build_sbox() -> tuple:
    """Generate the S-box from first principles (GF(2^8) inverse + affine)."""
    # exp/log tables over GF(2^8) with generator 3
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply by 3 = x * 2 ^ x
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)
        x &= 0xFF
    for i in range(255, 512):
        exp[i] = exp[i - 255]

    def inverse(a: int) -> int:
        return 0 if a == 0 else exp[255 - log[a]]

    sbox = [0] * 256
    for value in range(256):
        inv = inverse(value)
        result = 0
        for shift in (0, 1, 2, 3, 4):
            result ^= ((inv << shift) | (inv >> (8 - shift))) & 0xFF
        sbox[value] = result ^ 0x63
    inv_sbox = [0] * 256
    for i, s in enumerate(sbox):
        inv_sbox[s] = i
    return tuple(sbox), tuple(inv_sbox), tuple(exp), tuple(log)


_SBOX, _INV_SBOX, _EXP, _LOG = _build_sbox()
_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36,
         0x6C, 0xD8, 0xAB, 0x4D)


def _gmul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[(_LOG[a] + _LOG[b]) % 255]


_SUB = np.array(_SBOX, dtype=np.uint8)
_INV_SUB = np.array(_INV_SBOX, dtype=np.uint8)
#: ``_MUL[m][a]`` is the GF(2^8) product ``a · m``
_MUL = {m: np.array([_gmul(a, m) for a in range(256)], dtype=np.uint8)
        for m in (2, 3, 9, 11, 13, 14)}
# state byte 4c + r is row r of column c
_SHIFT_ROWS = np.array([0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11])
_INV_SHIFT_ROWS = np.array([0, 13, 10, 7, 4, 1, 14, 11, 8, 5, 2, 15, 12, 9,
                            6, 3])
#: ``state[:, _ROW_PLUS[k - 1]]`` puts row r + k of each column at row r
_ROW_PLUS = [np.array([4 * c + (r + k) % 4 for c in range(4)
                       for r in range(4)]) for k in (1, 2, 3)]

#: blocks per CTR pass (64 KiB of keystream), which bounds the kernel's
#: temporaries however long the input
_PASS_BLOCKS = 4096


def _encrypt(state: np.ndarray, round_keys: np.ndarray) -> np.ndarray:
    """The cipher (FIPS-197 §5.1) over every row of an ``(n, 16)`` state."""
    rounds = len(round_keys) - 1
    state = state ^ round_keys[0]
    for rnd in range(1, rounds):
        # ShiftRows then SubBytes: a bytewise S-box commutes with a gather
        state = _SUB[state[:, _SHIFT_ROWS]]
        # MixColumns: row r becomes 2·a[r] ^ 3·a[r+1] ^ a[r+2] ^ a[r+3]
        plus1, plus2, plus3 = (state[:, rows] for rows in _ROW_PLUS)
        mixed = _MUL[2][state]
        mixed ^= _MUL[3][plus1]
        mixed ^= plus2
        mixed ^= plus3
        mixed ^= round_keys[rnd]
        state = mixed
    state = _SUB[state[:, _SHIFT_ROWS]]
    state ^= round_keys[rounds]
    return state


def _decrypt(state: np.ndarray, round_keys: np.ndarray) -> np.ndarray:
    """The inverse cipher (FIPS-197 §5.3) over an ``(n, 16)`` state."""
    rounds = len(round_keys) - 1
    state = state ^ round_keys[rounds]
    for rnd in range(rounds - 1, 0, -1):
        state = _INV_SUB[state[:, _INV_SHIFT_ROWS]]
        state ^= round_keys[rnd]
        # row r becomes 14·a[r] ^ 11·a[r+1] ^ 13·a[r+2] ^ 9·a[r+3]
        plus1, plus2, plus3 = (state[:, rows] for rows in _ROW_PLUS)
        mixed = _MUL[14][state]
        mixed ^= _MUL[11][plus1]
        mixed ^= _MUL[13][plus2]
        mixed ^= _MUL[9][plus3]
        state = mixed
    state = _INV_SUB[state[:, _INV_SHIFT_ROWS]]
    state ^= round_keys[0]
    return state


class AES:
    """One AES key schedule; encrypt/decrypt single 16-byte blocks."""

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise ValueError("AES key must be 16, 24, or 32 bytes")
        self.key = bytes(key)
        self._round_keys = np.array(self._expand(self.key), dtype=np.uint8)
        self.rounds = len(self._round_keys) - 1

    @staticmethod
    def _expand(key: bytes) -> List[List[int]]:
        nk = len(key) // 4
        rounds = {4: 10, 6: 12, 8: 14}[nk]
        words = [list(key[4 * i:4 * i + 4]) for i in range(nk)]
        for i in range(nk, 4 * (rounds + 1)):
            temp = list(words[i - 1])
            if i % nk == 0:
                temp = temp[1:] + temp[:1]
                temp = [_SBOX[b] for b in temp]
                temp[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = [_SBOX[b] for b in temp]
            words.append([a ^ b for a, b in zip(words[i - nk], temp)])
        round_keys = []
        for r in range(rounds + 1):
            rk = []
            for c in range(4):
                rk.extend(words[4 * r + c])
            round_keys.append(rk)
        return round_keys

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError("block must be 16 bytes")
        state = np.frombuffer(block, dtype=np.uint8).reshape(1, 16)
        return _encrypt(state, self._round_keys).tobytes()

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError("block must be 16 bytes")
        state = np.frombuffer(block, dtype=np.uint8).reshape(1, 16)
        return _decrypt(state, self._round_keys).tobytes()


def aes_cbc_encrypt(key: bytes, iv: bytes, plaintext: bytes) -> bytes:
    """CBC with PKCS#7 padding."""
    if len(iv) != 16:
        raise ValueError("IV must be 16 bytes")
    cipher = AES(key)
    blocks = np.frombuffer(pad(plaintext), dtype=np.uint8).reshape(-1, 16)
    out = np.empty_like(blocks)
    previous = np.frombuffer(iv, dtype=np.uint8)
    for i, block in enumerate(blocks):
        # each block chains on the one before, so one row at a time
        previous = _encrypt((block ^ previous)[None], cipher._round_keys)[0]
        out[i] = previous
    return out.tobytes()


def aes_cbc_decrypt(key: bytes, iv: bytes, ciphertext: bytes) -> bytes:
    """Inverse of :func:`aes_cbc_encrypt`; strips the PKCS#7 padding."""
    if len(iv) != 16:
        raise ValueError("IV must be 16 bytes")
    if len(ciphertext) % 16:
        raise ValueError("ciphertext is not block aligned")
    cipher = AES(key)
    blocks = np.frombuffer(ciphertext, dtype=np.uint8).reshape(-1, 16)
    chained = np.concatenate(
        (np.frombuffer(iv, dtype=np.uint8)[None], blocks))[:-1]
    plain = _decrypt(blocks, cipher._round_keys)
    plain ^= chained
    return unpad(plain.tobytes())


def aes_ctr_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """CTR keystream XOR (encrypt == decrypt). ``nonce`` is 12 bytes.

    Counter block ``i`` is ``nonce ‖ be32(i)``, ``i`` from 0; the
    keystream is built and applied :data:`_PASS_BLOCKS` blocks at a time.
    """
    if len(nonce) != 12:
        raise ValueError("nonce must be 12 bytes")
    cipher = AES(key)
    buf = np.frombuffer(data, dtype=np.uint8)
    out = np.empty_like(buf)
    nonce_row = np.frombuffer(nonce, dtype=np.uint8)
    step = 16 * _PASS_BLOCKS
    for start in range(0, len(buf), step):
        chunk = buf[start:start + step]
        first = start // 16
        n_blocks = -(-len(chunk) // 16)
        counters = np.empty((n_blocks, 16), dtype=np.uint8)
        counters[:, :12] = nonce_row
        index = np.arange(first, first + n_blocks, dtype=">u4")
        counters[:, 12:] = index.view(np.uint8).reshape(n_blocks, 4)
        keystream = _encrypt(counters, cipher._round_keys).reshape(-1)
        np.bitwise_xor(chunk, keystream[:len(chunk)],
                       out=out[start:start + len(chunk)])
    return out.tobytes()
