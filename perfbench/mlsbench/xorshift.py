"""The generator MLS documents, restated for expected outputs.

Seeds are scrambled by one splitmix64 step (a zero result is replaced
by the splitmix increment), the state advances by xorshift64* with
shifts 12, 25, 27 and multiplier 2685821657736338717, and each draw is
the top 53 bits of the output word over 2**53.
"""

_M = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _scramble(seed: int) -> int:
    z = (seed + _GAMMA) & _M
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M
    z ^= z >> 31
    return z or _GAMMA


def draws(seed: int, count: int) -> list:
    state = _scramble(seed & _M)
    out = []
    for _ in range(count):
        state ^= state >> 12
        state = (state ^ (state << 25)) & _M
        state ^= state >> 27
        word = (state * 2685821657736338717) & _M
        out.append((word >> 11) / float(1 << 53))
    return out
