"""Deterministic pseudo-random generator with a pinned algorithm.

The generator is xoshiro256** seeded through SplitMix64, both implemented
here in plain integer arithmetic so the draw sequence is identical on every
platform and never depends on numpy's (version-dependent) bit generators.
Reproducibility of rotation-candidate sampling and synthetic fixtures rests
on this.

Layout of one state: four 64-bit words filled from SplitMix64(seed).
Raw draws are 64-bit; uniforms take the top 53 bits, Gaussians come from
Box-Muller pairs (cosine first, the sine kept as the next draw).

Block draws (`u64_block`, `uniform_block`, `gauss_block`) return exactly
what the same number of scalar calls returns and leave the same state
behind, pending Gaussian included. Small blocks run a tight scalar loop.
From `_LANE_MIN` draws on, n draws are cut into L = n // K + 1 lanes of
K = 2^k consecutive draws (k from n, about sqrt(n / 8) draws per lane):
lane l starts at offset l*K of the *same* stream and all lanes step
together in numpy uint64, which wraps mod 2^64 like the masked integer
code. The xoshiro256 state update is linear over GF(2), so advancing by
2^e steps is a 256 x 256 bit matrix, built from the update itself by
repeated squaring (Blackman & Vigna, "Scrambled Linear Pseudorandom Number
Generators", jump-ahead). Lane start states come from doubling: lanes
[0, 2^j) jumped by 2^j * K give lanes [2^j, 2^(j+1)), one float32 matrix
product per doubling (entries are bit counts <= 256, so exact). The
matrices are built lazily on first use and kept bit-packed, 8 KB each.

Box-Muller keeps `math.log`/`math.cos`/`math.sin`, mapped over the array
elements (no list of Python floats is built). The transcendental functions
are not correctly rounded, so only libm's reproduce the scalar draws: on an
x86-64 VM with numpy 2.4, `np.log` differed from `math.log` on 3,428 of
10^6 uniforms, and `np.cos`/`np.sin` agreed there with no guarantee
elsewhere. The other steps (the 53-bit scaling, 1 - u, -2 log u, sqrt and
the products) are correctly rounded IEEE operations, the same in numpy.
"""

from __future__ import annotations

import functools
import math
import zlib

import numpy as np

_MASK64 = (1 << 64) - 1
_DOUBLE_SCALE = 1.0 / (1 << 53)
_TWO_PI = 2.0 * math.pi
# Raw draws below which the scalar loop beats the lanes' fixed cost (the
# jump products and one numpy pass per lane step); measured on a 2-vCPU
# x86-64 VM with OpenBLAS, where the two cost the same near 768 draws.
_LANE_MIN = 768


def _splitmix64(state: int) -> tuple[int, int]:
    """One SplitMix64 step: returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, (z ^ (z >> 31)) & _MASK64


def _scalar_draws(state: list[int], n: int) -> tuple[list[int], list[int]]:
    """n raw draws and the state after them, one Python step per draw."""
    s0, s1, s2, s3 = state
    out = [0] * n
    for i in range(n):
        x = (s1 * 5) & _MASK64
        out[i] = ((((x << 7) | (x >> 57)) & _MASK64) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
    return out, [s0, s1, s2, s3]


def _state_bits(state: list[int]) -> np.ndarray:
    """(256,) uint8 bits of a state; bit 64*w + b is bit b of word w."""
    return np.unpackbits(np.array(state, dtype="<u8").view(np.uint8), bitorder="little")


def _gf2(counts: np.ndarray) -> np.ndarray:
    """Parities of a float32 product of 0/1 matrices, as uint8."""
    return (counts.astype(np.uint16) & 1).astype(np.uint8)


@functools.cache
def _jump(e: int) -> np.ndarray:
    """The 2^e-step state update as a bit-packed (256, 32) uint8 matrix:
    row i marks the input bits whose XOR is output bit i."""
    if e == 0:
        cols = []
        for j in range(256):
            unit = [0, 0, 0, 0]
            unit[j >> 6] = 1 << (j & 63)
            cols.append(_state_bits(_scalar_draws(unit, 1)[1]))
        matrix = np.stack(cols, axis=1)
    else:
        half = _unpack(_jump(e - 1))
        matrix = _gf2(half @ half)
    packed = np.packbits(matrix, axis=1, bitorder="little")
    packed.flags.writeable = False
    return packed


def _unpack(packed: np.ndarray) -> np.ndarray:
    """A bit-packed jump matrix as a float32 0/1 matrix."""
    return np.unpackbits(packed, axis=1, bitorder="little").astype(np.float32)


def _state_words(bits: np.ndarray) -> np.ndarray:
    """Columns of a (256, L) 0/1 matrix as a (4, L) uint64 array of words."""
    packed = np.packbits(bits, axis=0, bitorder="little")
    return np.ascontiguousarray(packed.T).view("<u8").T.copy()


def _lane_length(n: int) -> int:
    """Draws per lane, a power of two near sqrt(n / 8): longer lanes cost
    numpy passes, more lanes cost jump products."""
    return 1 << max(1, (n.bit_length() - 3) // 2)


def _lane_draws(state: list[int], n: int) -> tuple[np.ndarray, list[int]]:
    """n raw draws and the state after them, from lanes stepped in numpy."""
    length = _lane_length(n)
    lanes = n // length + 1
    bits = np.empty((256, lanes), dtype=np.uint8)  # column l: start state of lane l
    bits[:, 0] = _state_bits(state)
    have, e = 1, length.bit_length() - 1
    while have < lanes:
        take = min(have, lanes - have)
        bits[:, have : have + take] = _gf2(_unpack(_jump(e)) @ bits[:, :take].astype(np.float32))
        have += take
        e += 1
    s0, s1, s2, s3 = _state_words(bits)
    out = np.empty((lanes, length), dtype=np.uint64)  # row l: the draws of lane l
    t = np.empty(lanes, dtype=np.uint64)
    u = np.empty(lanes, dtype=np.uint64)
    stop = n % length  # the last lane is cut after `stop` draws
    after = None
    for i in range(length):
        if i == stop:
            after = [int(s0[-1]), int(s1[-1]), int(s2[-1]), int(s3[-1])]
        np.multiply(s1, 5, out=t)
        np.left_shift(t, 7, out=u)
        np.right_shift(t, 57, out=t)
        np.bitwise_or(u, t, out=t)
        np.multiply(t, 9, out=out[:, i])
        np.left_shift(s1, 17, out=t)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.left_shift(s3, 45, out=t)
        np.right_shift(s3, 19, out=s3)
        s3 |= t
    return out.reshape(-1)[:n], after


class Prng:
    """xoshiro256** stream over a 64-bit seed.

    Identical seed gives an identical draw sequence; `spawn` derives an
    independent child stream from a text label with a fixed mixing formula.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        s = self.seed
        # Four distinct SplitMix64 states through its bijective output mix:
        # at most one word is 0, so the state is never all-zero.
        state = []
        for _ in range(4):
            s, out = _splitmix64(s)
            state.append(out)
        self._s = state
        self._gauss_spare: float | None = None

    def next_u64(self) -> int:
        (result,), self._s = _scalar_draws(self._s, 1)
        return result

    def uniform(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * _DOUBLE_SCALE

    def gauss(self) -> float:
        """Standard normal via Box-Muller; draws two uniforms per pair."""
        if self._gauss_spare is not None:
            z = self._gauss_spare
            self._gauss_spare = None
            return z
        # u1 in (0, 1] to keep log() finite.
        u1 = 1.0 - self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._gauss_spare = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def u64_block(self, n: int) -> np.ndarray:
        """The next n `next_u64()` draws as a uint64 array."""
        if n < 0:
            raise ValueError("block size must be >= 0")
        if n < _LANE_MIN:
            draws, self._s = _scalar_draws(self._s, n)
            return np.array(draws, dtype=np.uint64)
        draws, self._s = _lane_draws(self._s, n)
        return draws

    def uniform_block(self, n: int) -> np.ndarray:
        """The next n `uniform()` draws as a float64 array."""
        return (self.u64_block(n) >> 11).astype(np.float64) * _DOUBLE_SCALE

    def gauss_block(self, n: int) -> np.ndarray:
        """The next n `gauss()` draws as a float64 array."""
        if n < 0:
            raise ValueError("block size must be >= 0")
        out = np.empty(n, dtype=np.float64)
        head = 0
        if n and self._gauss_spare is not None:
            out[0] = self._gauss_spare
            self._gauss_spare = None
            head = 1
        pairs = (n - head + 1) // 2
        u = self.uniform_block(2 * pairs)
        r = np.sqrt(-2.0 * np.fromiter(map(math.log, 1.0 - u[0::2]), np.float64, pairs))
        theta = _TWO_PI * u[1::2]
        z = np.empty(2 * pairs, dtype=np.float64)
        np.multiply(r, np.fromiter(map(math.cos, theta), np.float64, pairs), out=z[0::2])
        np.multiply(r, np.fromiter(map(math.sin, theta), np.float64, pairs), out=z[1::2])
        out[head:] = z[: n - head]
        if (n - head) % 2:
            self._gauss_spare = float(z[-1])
        return out

    def below(self, n: int) -> int:
        """Unbiased integer in [0, n) by rejection on the top bits."""
        if not 1 <= n <= _MASK64 + 1:  # past 2^64 the rejection zone is empty
            raise ValueError(f"below() needs 1 <= n <= 2^64, got {n}")
        # Rejection zone keeps the draw exactly uniform.
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def choice_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), order of first selection."""
        if k > n:
            raise ValueError("cannot choose more indices than available")
        chosen: list[int] = []
        seen = set()
        while len(chosen) < k:
            i = self.below(n)
            if i not in seen:
                seen.add(i)
                chosen.append(i)
        return chosen

    def uniform_matrix(self, rows: int, cols: int, low: float, high: float) -> np.ndarray:
        """float32 (rows, cols) of `low + (high - low) * uniform()`, row-major."""
        span = high - low
        return (low + span * self.uniform_block(rows * cols)).astype(np.float32).reshape(rows, cols)

    def gauss_matrix(self, rows: int, cols: int) -> np.ndarray:
        """float32 (rows, cols) of `gauss()` draws, row-major."""
        return self.gauss_block(rows * cols).astype(np.float32).reshape(rows, cols)

    def spawn(self, label: str) -> "Prng":
        """Child stream keyed by label; stable across runs and platforms."""
        tag = zlib.crc32(label.encode("utf-8")) & 0xFFFFFFFF
        _, mixed = _splitmix64((self.seed ^ (tag * 0x9E3779B97F4A7C15)) & _MASK64)
        return Prng(mixed)
