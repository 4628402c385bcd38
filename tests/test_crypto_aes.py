"""AES block cipher tests against FIPS 197 / SP 800-38A vectors."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import AES
from repro.errors import CryptoError


class TestAesVectors:
    def test_fips197_aes128(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert AES(key).encrypt_block(plaintext) == expected

    def test_fips197_aes192(self):
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f1011121314151617"
        )
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("dda97ca4864cdfe06eaf70a0ec0d7191")
        assert AES(key).encrypt_block(plaintext) == expected

    def test_fips197_aes256(self):
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f"
            "101112131415161718191a1b1c1d1e1f"
        )
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
        assert AES(key).encrypt_block(plaintext) == expected

    def test_sp80038a_ecb_aes128(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        cipher = AES(key)
        vectors = [
            ("6bc1bee22e409f96e93d7e117393172a",
             "3ad77bb40d7a3660a89ecaf32466ef97"),
            ("ae2d8a571e03ac9c9eb76fac45af8e51",
             "f5d3d58503b9699de785895a96fdbaaf"),
            ("30c81c46a35ce411e5fbc1191a0a52ef",
             "43b1cd7f598ece23881b00e3ed030688"),
            ("f69f2445df4f9b17ad2b417be66c3710",
             "7b0c785e27e8ad3f8223207104725dd4"),
        ]
        for pt_hex, ct_hex in vectors:
            assert cipher.encrypt_block(bytes.fromhex(pt_hex)) == \
                bytes.fromhex(ct_hex)


class TestAesInterface:
    def test_rejects_bad_key_length(self):
        with pytest.raises(CryptoError):
            AES(b"short")

    def test_rejects_bad_block_length(self):
        cipher = AES(bytes(16))
        with pytest.raises(CryptoError):
            cipher.encrypt_block(b"tooshort")

    def test_ctr_keystream_length_and_prefix(self):
        cipher = AES(bytes(16))
        counter = bytes(12) + (1).to_bytes(4, "big")
        ks40 = cipher.ctr_keystream(counter, 40)
        ks64 = cipher.ctr_keystream(counter, 64)
        assert len(ks40) == 40
        assert ks64[:40] == ks40

    def test_ctr_counter_wraps_32_bits(self):
        cipher = AES(bytes(16))
        counter = bytes(12) + (0xFFFFFFFF).to_bytes(4, "big")
        # Second block must use counter 0 (inc32 wrap), not carry into
        # the 96-bit prefix.
        ks = cipher.ctr_keystream(counter, 32)
        block2 = cipher.encrypt_block(bytes(12) + bytes(4))
        assert ks[16:] == block2


class TestAesProperties:
    @given(block=st.binary(min_size=16, max_size=16))
    def test_encryption_is_permutation(self, block):
        cipher = AES(bytes(range(16)))
        out = cipher.encrypt_block(block)
        assert len(out) == 16
        # A cipher must not be the identity map on random blocks
        # (holds for AES with overwhelming probability).
        assert out != block
