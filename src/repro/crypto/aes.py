"""Pure-Python AES block cipher (FIPS 197) with T-table acceleration.

The QUIC Initial packets our pipeline must decrypt (RFC 9001 §5.2) are
protected with AES-128-GCM and AES-128-based header protection, and the
offline environment has no crypto library — so the cipher is implemented
from scratch here.

Only the forward cipher is implemented: GCM (CTR mode) and QUIC header
protection (ECB of a 16-byte sample) never run AES backwards.

The S-box is derived programmatically from the GF(2^8) inverse plus the
affine transform rather than transcribed, eliminating one class of
typo bugs; FIPS-197 and NIST SP 800-38A vectors pin down correctness.
"""

from __future__ import annotations

from repro.errors import CryptoError

_POLY = 0x11B  # AES irreducible polynomial x^8 + x^4 + x^3 + x + 1


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) modulo the AES polynomial."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        if a & 0x100:
            a ^= _POLY
        b >>= 1
    return out


def _build_sbox() -> list[int]:
    # Multiplicative inverses via exp/log tables over generator 3.
    exp = [0] * 256
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = _gf_mul(x, 3)
    exp[255] = exp[0]

    def inverse(v: int) -> int:
        if v == 0:
            return 0
        return exp[255 - log[v]]

    sbox = [0] * 256
    for v in range(256):
        y = inverse(v)
        # Affine transform: y ^ rot(y,1) ^ rot(y,2) ^ rot(y,3) ^ rot(y,4) ^ 0x63
        r = y
        for shift in (1, 2, 3, 4):
            r ^= ((y << shift) | (y >> (8 - shift))) & 0xFF
        sbox[v] = r ^ 0x63
    return sbox


_SBOX = _build_sbox()


def _build_enc_tables() -> list[list[int]]:
    """T-tables: T0[x] packs MixColumns(S[x] at row 0) as one 32-bit word."""
    t0 = [0] * 256
    for x in range(256):
        s = _SBOX[x]
        s2 = _gf_mul(s, 2)
        s3 = _gf_mul(s, 3)
        t0[x] = (s2 << 24) | (s << 16) | (s << 8) | s3
    tables = [t0]
    for i in range(1, 4):
        prev = tables[-1]
        tables.append([((w >> 8) | ((w & 0xFF) << 24)) for w in prev])
    return tables


_TE = _build_enc_tables()
_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36,
         0x6C, 0xD8, 0xAB, 0x4D]


class AES:
    """AES block cipher supporting 128/192/256-bit keys.

    >>> AES(bytes(16)).encrypt_block(bytes(16)).hex()
    '66e94bd4ef8a2c3b884cfa59ca342b2e'
    """

    block_size = 16

    def __init__(self, key: bytes):
        if len(key) not in (16, 24, 32):
            raise CryptoError(f"invalid AES key length {len(key)}")
        self._rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(key)

    @staticmethod
    def _expand_key(key: bytes) -> list[int]:
        nk = len(key) // 4
        rounds = {4: 10, 6: 12, 8: 14}[nk]
        words = [int.from_bytes(key[4 * i:4 * i + 4], "big")
                 for i in range(nk)]
        for i in range(nk, 4 * (rounds + 1)):
            temp = words[i - 1]
            if i % nk == 0:
                temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF  # RotWord
                temp = (
                    (_SBOX[(temp >> 24) & 0xFF] << 24)
                    | (_SBOX[(temp >> 16) & 0xFF] << 16)
                    | (_SBOX[(temp >> 8) & 0xFF] << 8)
                    | _SBOX[temp & 0xFF]
                )
                temp ^= _RCON[i // nk - 1] << 24
            elif nk > 6 and i % nk == 4:
                temp = (
                    (_SBOX[(temp >> 24) & 0xFF] << 24)
                    | (_SBOX[(temp >> 16) & 0xFF] << 16)
                    | (_SBOX[(temp >> 8) & 0xFF] << 8)
                    | _SBOX[temp & 0xFF]
                )
            words.append(words[i - nk] ^ temp)
        return words

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise CryptoError("AES block must be 16 bytes")
        rk = self._round_keys
        t0, t1, t2, t3 = _TE
        s0 = int.from_bytes(block[0:4], "big") ^ rk[0]
        s1 = int.from_bytes(block[4:8], "big") ^ rk[1]
        s2 = int.from_bytes(block[8:12], "big") ^ rk[2]
        s3 = int.from_bytes(block[12:16], "big") ^ rk[3]
        k = 4
        for _ in range(self._rounds - 1):
            u0 = (t0[(s0 >> 24) & 0xFF] ^ t1[(s1 >> 16) & 0xFF]
                  ^ t2[(s2 >> 8) & 0xFF] ^ t3[s3 & 0xFF] ^ rk[k])
            u1 = (t0[(s1 >> 24) & 0xFF] ^ t1[(s2 >> 16) & 0xFF]
                  ^ t2[(s3 >> 8) & 0xFF] ^ t3[s0 & 0xFF] ^ rk[k + 1])
            u2 = (t0[(s2 >> 24) & 0xFF] ^ t1[(s3 >> 16) & 0xFF]
                  ^ t2[(s0 >> 8) & 0xFF] ^ t3[s1 & 0xFF] ^ rk[k + 2])
            u3 = (t0[(s3 >> 24) & 0xFF] ^ t1[(s0 >> 16) & 0xFF]
                  ^ t2[(s1 >> 8) & 0xFF] ^ t3[s2 & 0xFF] ^ rk[k + 3])
            s0, s1, s2, s3 = u0, u1, u2, u3
            k += 4
        sb = _SBOX
        o0 = ((sb[(s0 >> 24) & 0xFF] << 24) | (sb[(s1 >> 16) & 0xFF] << 16)
              | (sb[(s2 >> 8) & 0xFF] << 8) | sb[s3 & 0xFF]) ^ rk[k]
        o1 = ((sb[(s1 >> 24) & 0xFF] << 24) | (sb[(s2 >> 16) & 0xFF] << 16)
              | (sb[(s3 >> 8) & 0xFF] << 8) | sb[s0 & 0xFF]) ^ rk[k + 1]
        o2 = ((sb[(s2 >> 24) & 0xFF] << 24) | (sb[(s3 >> 16) & 0xFF] << 16)
              | (sb[(s0 >> 8) & 0xFF] << 8) | sb[s1 & 0xFF]) ^ rk[k + 2]
        o3 = ((sb[(s3 >> 24) & 0xFF] << 24) | (sb[(s0 >> 16) & 0xFF] << 16)
              | (sb[(s1 >> 8) & 0xFF] << 8) | sb[s2 & 0xFF]) ^ rk[k + 3]
        return (o0.to_bytes(4, "big") + o1.to_bytes(4, "big")
                + o2.to_bytes(4, "big") + o3.to_bytes(4, "big"))

    def ctr_keystream(self, initial_counter_block: bytes, length: int) -> bytes:
        """Keystream for CTR mode starting at ``initial_counter_block``.

        The low 32 bits of the counter block increment per block, as GCM
        requires (SP 800-38D inc32).
        """
        if len(initial_counter_block) != 16:
            raise CryptoError("counter block must be 16 bytes")
        prefix = initial_counter_block[:12]
        counter = int.from_bytes(initial_counter_block[12:], "big")
        blocks = []
        for _ in range((length + 15) // 16):
            blocks.append(
                self.encrypt_block(prefix + counter.to_bytes(4, "big"))
            )
            counter = (counter + 1) & 0xFFFFFFFF
        return b"".join(blocks)[:length]
