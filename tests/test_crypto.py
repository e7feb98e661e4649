"""From-scratch cryptography: standard vectors + properties."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import (AES, PaddingError, aes_cbc_decrypt,
                          aes_cbc_encrypt, aes_ctr_xor, chacha20_block,
                          chacha20_xor, generate_keypair,
                          is_probable_prime, pad, rc4_crypt,
                          tea_decrypt_blocks, tea_encrypt_blocks, unpad,
                          unwrap_key, wrap_key, xor_crypt)
from repro.crypto.aes import _PASS_BLOCKS
from tests.reference import (ScalarAES, scalar_aes_cbc_decrypt,
                             scalar_aes_cbc_encrypt, scalar_aes_ctr_xor)


class TestAesVectors:
    """FIPS-197 Appendix C known-answer tests."""

    PLAIN = bytes.fromhex("00112233445566778899aabbccddeeff")

    def test_aes128_c1(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        assert AES(key).encrypt_block(self.PLAIN).hex() == \
            "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_aes192_c2(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
        assert AES(key).encrypt_block(self.PLAIN).hex() == \
            "dda97ca4864cdfe06eaf70a0ec0d7191"

    def test_aes256_c3(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f"
                            "101112131415161718191a1b1c1d1e1f")
        assert AES(key).encrypt_block(self.PLAIN).hex() == \
            "8ea2b7ca516745bfeafc49904b496089"

    def test_decrypt_inverts(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        cipher = AES(key)
        assert cipher.decrypt_block(cipher.encrypt_block(self.PLAIN)) == \
            self.PLAIN

    def test_bad_key_length_rejected(self):
        with pytest.raises(ValueError):
            AES(b"short")

    def test_bad_block_length_rejected(self):
        with pytest.raises(ValueError):
            AES(b"k" * 16).encrypt_block(b"tiny")


class TestAesModes:
    def test_cbc_roundtrip(self):
        msg = b"all your files are belong to us" * 20
        ct = aes_cbc_encrypt(b"k" * 16, b"i" * 16, msg)
        assert aes_cbc_decrypt(b"k" * 16, b"i" * 16, ct) == msg

    def test_cbc_iv_matters(self):
        msg = b"x" * 64
        assert aes_cbc_encrypt(b"k" * 16, b"1" * 16, msg) != \
            aes_cbc_encrypt(b"k" * 16, b"2" * 16, msg)

    def test_cbc_wrong_key_fails_padding(self):
        ct = aes_cbc_encrypt(b"k" * 16, b"i" * 16, b"secret")
        with pytest.raises(PaddingError):
            aes_cbc_decrypt(b"X" * 16, b"i" * 16, ct)

    def test_ctr_is_involution(self):
        msg = b"stream mode" * 30
        once = aes_ctr_xor(b"k" * 16, b"n" * 12, msg)
        assert aes_ctr_xor(b"k" * 16, b"n" * 12, once) == msg

    def test_ctr_handles_partial_block(self):
        msg = b"seventeen bytes!!"
        assert len(aes_ctr_xor(b"k" * 16, b"n" * 12, msg)) == len(msg)

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_buffer_inputs_give_bytes(self, kind):
        key, nonce, iv = b"k" * 16, b"n" * 12, b"i" * 16
        msg = b"any buffer will do" * 3
        ctr = aes_ctr_xor(key, nonce, kind(msg))
        cbc = aes_cbc_encrypt(key, iv, kind(msg))
        block = AES(key).encrypt_block(kind(msg[:16]))
        for out in (ctr, cbc, block, AES(key).decrypt_block(kind(block)),
                    aes_cbc_decrypt(key, iv, kind(cbc))):
            assert type(out) is bytes
        assert ctr == aes_ctr_xor(key, nonce, msg)
        assert aes_cbc_decrypt(key, iv, cbc) == msg

    def test_bad_lengths_rejected(self):
        key, nonce, iv = b"k" * 16, b"n" * 12, b"i" * 16
        cases = [
            lambda: aes_ctr_xor(b"k" * 15, nonce, b"x"),
            lambda: aes_ctr_xor(key, b"n" * 16, b"x"),
            lambda: aes_cbc_encrypt(b"k" * 33, iv, b"x"),
            lambda: aes_cbc_encrypt(key, b"i" * 12, b"x"),
            lambda: aes_cbc_decrypt(key, b"i" * 8, bytes(16)),
            lambda: aes_cbc_decrypt(key, iv, bytes(17)),
            lambda: AES(key).decrypt_block(bytes(15)),
        ]
        for call in cases:
            with pytest.raises(ValueError):
                call()

    def test_cbc_bad_or_empty_padding(self):
        key, iv = b"k" * 16, b"i" * 16
        with pytest.raises(PaddingError):
            aes_cbc_decrypt(key, iv, b"")
        forged = aes_cbc_encrypt(key, iv, b"x" * 16)[:16]  # no pad block
        with pytest.raises(PaddingError):
            aes_cbc_decrypt(key, iv, forged)


class TestAesCtrVectors:
    """RFC 3686 §6 known-answer tests: #1-#3 (AES-128, #3 ending in a
    partial block), #4 (AES-192) and #8 (AES-256).

    RFC 3686 counts blocks from 1 and :func:`aes_ctr_xor` from 0, so each
    vector is run with one zero block in front and the first 16 output
    bytes dropped.
    """

    VECTORS = [
        # (key, nonce ‖ IV, plaintext, ciphertext)
        ("ae6852f8121067cc4bf7a5765577f39e",
         "00000030" "0000000000000000",
         "53696e676c6520626c6f636b206d7367",
         "e4095d4fb7a7b3792d6175a3261311b8"),
        ("7e24067817fae0d743d6ce1f32539163",
         "006cb6db" "c0543b59da48d90b",
         "000102030405060708090a0b0c0d0e0f"
         "101112131415161718191a1b1c1d1e1f",
         "5104a106168a72d9790d41ee8edad388"
         "eb2e1efc46da57c8fce630df9141be28"),
        ("7691be035e5020a8ac6e618529f9a0dc",
         "00e0017b" "27777f3f4a1786f0",
         "000102030405060708090a0b0c0d0e0f"
         "101112131415161718191a1b1c1d1e1f20212223",
         "c1cf48a89f2ffdd9cf4652e9efdb72d7"
         "4540a42bde6d7836d59a5ceaaef3105325b2072f"),
        ("16af5b145fc9f579c175f93e3bfb0eed863d06ccfdb78515",
         "00000048" "36733c147d6d93cb",
         "53696e676c6520626c6f636b206d7367",
         "4b55384fe259c9c84e7935a003cbe928"),
        ("f6d66d6bd52d59bb0796365879eff886"
         "c66dd51a5b6a99744b50590c87a23884",
         "00faac24" "c1585ef15a43d875",
         "000102030405060708090a0b0c0d0e0f"
         "101112131415161718191a1b1c1d1e1f",
         "f05e231b3894612c49ee000b804eb2a9"
         "b8306b508f839d6a5530831d9344af1c"),
    ]

    @pytest.mark.parametrize("key,nonce,plain,cipher", VECTORS,
                             ids=["#1", "#2", "#3", "#4", "#8"])
    def test_rfc3686(self, key, nonce, plain, cipher):
        key, nonce = bytes.fromhex(key), bytes.fromhex(nonce)
        out = aes_ctr_xor(key, nonce, bytes(16) + bytes.fromhex(plain))
        assert out[16:].hex() == cipher


class TestAesAgainstScalarReference:
    """The block kernel is byte-identical to the per-byte scalar AES in
    ``tests/reference.py``, for every key size."""

    CTR_LENGTHS = [0, 1, 15, 16, 17, 4095, 4096, 4097,
                   16 * _PASS_BLOCKS + 17]  # the last crosses a CTR pass

    @pytest.fixture(params=[16, 24, 32], ids=["aes128", "aes192", "aes256"])
    def material(self, request):
        rng = random.Random(request.param)
        return (rng.randbytes(request.param), rng.randbytes(12),
                rng.randbytes(16), rng)

    def test_blocks(self, material):
        key, _, _, rng = material
        fast, scalar = AES(key), ScalarAES(key)
        for _ in range(16):
            block = rng.randbytes(16)
            assert fast.encrypt_block(block) == scalar.encrypt_block(block)
            assert fast.decrypt_block(block) == scalar.decrypt_block(block)

    def test_ctr(self, material):
        key, nonce, _, rng = material
        for length in self.CTR_LENGTHS:
            data = rng.randbytes(length)
            assert aes_ctr_xor(key, nonce, data) == \
                scalar_aes_ctr_xor(key, nonce, data), length

    def test_cbc(self, material):
        key, _, iv, rng = material
        for length in (0, 1, 15, 16, 17, 100, 1000):
            data = rng.randbytes(length)
            ct = aes_cbc_encrypt(key, iv, data)
            assert ct == scalar_aes_cbc_encrypt(key, iv, data), length
            assert aes_cbc_decrypt(key, iv, ct) == \
                scalar_aes_cbc_decrypt(key, iv, ct) == data


class TestPadding:
    def test_pad_unpad_roundtrip(self):
        for n in range(0, 33):
            data = bytes(range(n % 256))[:n]
            assert unpad(pad(data)) == data

    def test_pad_always_adds(self):
        assert len(pad(b"x" * 16)) == 32

    def test_unpad_rejects_garbage(self):
        with pytest.raises(PaddingError):
            unpad(b"\x00" * 16)

    def test_unpad_rejects_unaligned(self):
        with pytest.raises(PaddingError):
            unpad(b"abc")


class TestChaCha20:
    def test_rfc8439_block_vector(self):
        key = bytes(range(32))
        nonce = bytes.fromhex("000000090000004a00000000")
        block = chacha20_block(key, nonce, 1)
        assert block[:16].hex() == "10f1e7e4d13b5915500fdd1fa32071c4"

    def test_rfc8439_encryption_vector(self):
        key = bytes(range(32))
        nonce = bytes.fromhex("000000000000004a00000000")
        plain = (b"Ladies and Gentlemen of the class of '99: If I could "
                 b"offer you only one tip for the future, sunscreen would "
                 b"be it.")
        cipher = chacha20_xor(key, nonce, plain, 1)
        assert cipher[:16].hex() == "6e2e359a2568f98041ba0728dd0d6981"
        assert chacha20_xor(key, nonce, cipher, 1) == plain

    def test_counter_offsets_differ(self):
        key, nonce = bytes(32), bytes(12)
        assert chacha20_xor(key, nonce, b"A" * 64, 1) != \
            chacha20_xor(key, nonce, b"A" * 64, 2)

    def test_key_length_enforced(self):
        with pytest.raises(ValueError):
            chacha20_xor(b"short", bytes(12), b"x")

    @given(st.binary(max_size=5000))
    @settings(max_examples=20, deadline=None)
    def test_involution(self, data):
        key, nonce = b"K" * 32, b"N" * 12
        assert chacha20_xor(key, nonce, chacha20_xor(key, nonce, data)) == data


class TestLesserCiphers:
    def test_rc4_known_vector(self):
        # classic test vector: RC4("Key", "Plaintext")
        assert rc4_crypt(b"Key", b"Plaintext").hex() == "bbf316e8d940af0ad3"

    def test_rc4_involution(self):
        msg = b"stream" * 100
        assert rc4_crypt(b"k", rc4_crypt(b"k", msg)) == msg

    def test_xor_involution(self):
        msg = b"docs" * 250
        assert xor_crypt(b"key!", xor_crypt(b"key!", msg)) == msg

    def test_xor_empty_key_rejected(self):
        with pytest.raises(ValueError):
            xor_crypt(b"", b"data")

    def test_tea_roundtrip(self):
        key = b"0123456789abcdef"
        msg = b"eight by" * 64
        assert tea_decrypt_blocks(key, tea_encrypt_blocks(key, msg)) == msg

    def test_tea_pads_to_block(self):
        out = tea_encrypt_blocks(b"0123456789abcdef", b"12345")
        assert len(out) == 8

    def test_tea_repeated_blocks_repeat(self):
        """ECB structure: the property that keeps Xorist's ciphertext
        entropy below a real stream cipher's."""
        key = b"0123456789abcdef"
        out = tea_encrypt_blocks(key, b"SAMEBLK!" * 10)
        assert out[:8] == out[8:16]

    def test_tea_key_length_enforced(self):
        with pytest.raises(ValueError):
            tea_encrypt_blocks(b"short", b"x" * 8)


class TestRsa:
    def test_known_primes(self):
        for p in (2, 3, 5, 104729, (1 << 61) - 1):
            assert is_probable_prime(p)

    def test_known_composites(self):
        for n in (1, 4, 561, 104729 * 104729, 1 << 64):
            assert not is_probable_prime(n)

    def test_carmichael_numbers_rejected(self):
        for n in (561, 1105, 1729, 41041):
            assert not is_probable_prime(n)

    def test_keygen_deterministic(self):
        assert generate_keypair(256, seed=7).n == \
            generate_keypair(256, seed=7).n

    def test_wrap_unwrap_roundtrip(self):
        keypair = generate_keypair(512, seed=11)
        session_key = b"S" * 24
        wrapped = wrap_key(session_key, keypair.public)
        assert unwrap_key(wrapped, keypair, 24) == session_key

    def test_wrapped_key_unreadable_without_private(self):
        keypair = generate_keypair(512, seed=12)
        wrapped = wrap_key(b"K" * 16, keypair.public)
        assert b"K" * 16 not in wrapped

    def test_encrypt_out_of_range_rejected(self):
        from repro.crypto import rsa_encrypt_int
        keypair = generate_keypair(128, seed=13)
        with pytest.raises(ValueError):
            rsa_encrypt_int(keypair.n + 1, keypair.public)


class TestCipherEngine:
    def test_every_kind_produces_output(self):
        from repro.ransomware import CipherEngine
        for kind in CipherEngine.KINDS:
            engine = CipherEngine(kind, seed=5)
            out = engine.encrypt(b"victim document content" * 40)
            assert out and out != b"victim document content" * 40

    def test_per_file_streams_differ(self):
        from repro.ransomware import CipherEngine
        engine = CipherEngine("chacha", seed=6)
        assert engine.encrypt(b"A" * 100) != engine.encrypt(b"A" * 100)

    def test_rsa_wrapped_key_blob(self):
        from repro.ransomware import CipherEngine, ATTACKER_RSA
        engine = CipherEngine("rc4", seed=7, wrap_with_rsa=True)
        blob = engine.key_blob()
        assert len(blob) == (ATTACKER_RSA.n.bit_length() + 7) // 8

    def test_unknown_kind_rejected(self):
        from repro.ransomware import CipherEngine
        with pytest.raises(ValueError):
            CipherEngine("rot13", seed=1)

    #: sha256 of the first file a fresh ``CipherEngine(kind, seed=1337)``
    #: encrypts, one payload each side of the 16 KiB cutoff above which
    #: ``aes`` and ``rc4`` switch to ChaCha20 (so the two agree at 16385 B)
    CIPHERTEXT = [
        ("aes", 16383,
         "7d1e7865dc485ce78138365d821bd0bc66f0083e6174cc542f99e7fc0313780e"),
        ("aes", 16384,
         "bd28725f87fad2fef42f33f7fed4ad73fcdd8c26cdd8b20609a03818707f7512"),
        ("aes", 16385,
         "93b0b0f9f4db473d1947053d3e61eb5e6d22dea976a57e9d74cb0b4615029406"),
        ("rc4", 16384,
         "1905e8cfa80d75278fc090630924a797ae1ec40031cee6452b7bd16a445f144d"),
        ("rc4", 16385,
         "93b0b0f9f4db473d1947053d3e61eb5e6d22dea976a57e9d74cb0b4615029406"),
        ("chacha", 16384,
         "591ff038b43cf18e77d526dd7ad7bf1fed7092dae84966b512b03c4168827a96"),
        ("tea", 16384,
         "d363aeed3af355040c040897bd7f57f95fd8d7e8d39daead6fd5b81b66f32202"),
        ("xor", 16384,
         "614cacea2bf55c686eceeb9ec3180185f410b71e139fd3c3ac1ab993b57f24c6"),
    ]

    @pytest.mark.parametrize("kind,size,sha256", CIPHERTEXT,
                             ids=[f"{k}-{n}" for k, n, _ in CIPHERTEXT])
    def test_ciphertext_pinned(self, kind, size, sha256):
        """The bytes the family simulators write are fixed: the calibrated
        golden outcomes rest on them."""
        from repro.ransomware import CipherEngine
        text = b"".join(b"line %05d of the quarterly report, figures "
                        b"attached\n" % i for i in range(size // 40 + 1))
        out = CipherEngine(kind, seed=1337).encrypt(text[:size])
        assert hashlib.sha256(out).hexdigest() == sha256

