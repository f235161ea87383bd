"""Compressor-based complexity at finite precision.

A compressor is a total injective map on bit strings with decidable
domain and image; its complexity value on an input is simply the length
of the output.  The prefix-free transform repackages a compressor's
image behind self-delimiting headers, giving Kraft-summable codes whose
lengths exceed the compressed lengths by an explicit logarithmic term.
Precision complexity measures a point of the unit cube by compressing
canonical encodings of nearby dyadic grid points.  Complexities count
the dictionary compressor's code lengths without building the codes,
resuming each input from the prefix it shares with the input before.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .ball_calculus import PreconditionError
from .fractal_spaces import DigitMatrix

_BITS = frozenset("01")


def _check_bits(s: str) -> str:
    if not _BITS.issuperset(s):
        raise ValueError("bit strings may contain only '0' and '1'")
    return s


# --- compressors -----------------------------------------------------------


@dataclass(frozen=True)
class Compressor:
    """A total injective bit-string map with decidable domain and image.

    encode must be injective on the domain; image_test decides whether a
    string is an exact encoder output.  code_length_floor gives a cheap
    lower bound on the code length for any input of a given length, used
    only to skip hopeless searches.
    """

    name: str
    encode_fn: Callable[[str], str]
    decode_fn: Callable[[str], str | None]
    floor_fn: Callable[[int], int] = lambda n: 0 if n == 0 else 1

    def encode(self, s: str) -> str:
        return self.encode_fn(_check_bits(s))

    def decode(self, code: str) -> str | None:
        return self.decode_fn(_check_bits(code))

    def image_test(self, code: str) -> bool:
        s = self.decode(code)
        return s is not None and self.encode(s) == code

    def code_length_floor(self, n: int) -> int:
        return self.floor_fn(n)


def compress_len(M: Compressor, s: str) -> int:
    """len(M.encode(s)), read off M's one length function (``_length_fn``)."""
    return _length_fn(M)(s)


def identity_compressor() -> Compressor:
    return Compressor("identity", lambda s: s, lambda c: c, lambda n: n)


# run-length format: first bit of the input, then one block code per run.
# A run of length L stores L-1 in 7-bit chunks, most significant first,
# each chunk prefixed by a continuation bit (1 = more chunks follow).


def _rl_blocks(value: int) -> str:
    chunks = []
    while True:
        chunks.append(value & 0x7F)
        value >>= 7
        if value == 0:
            break
    chunks.reverse()
    return "".join(
        ("1" if i + 1 < len(chunks) else "0") + format(c, "07b")
        for i, c in enumerate(chunks)
    )


def _rl_encode(s: str) -> str:
    if not s:
        return ""
    out = [s[0]]
    run = 1
    for prev, cur in zip(s, s[1:]):
        if cur == prev:
            run += 1
        else:
            out.append(_rl_blocks(run - 1))
            run = 1
    out.append(_rl_blocks(run - 1))
    return "".join(out)


def _rl_decode(code: str) -> str | None:
    if code == "":
        return ""
    if len(code) % 8 != 1:
        return None
    bit = code[0]
    pos = 1
    out = []
    while pos < len(code):
        value = 0
        nchunks = 0
        while True:
            if pos + 8 > len(code):
                return None
            cont, chunk = code[pos], code[pos + 1 : pos + 8]
            value = (value << 7) | int(chunk, 2)
            nchunks += 1
            # canonical chunking: a multi-chunk code may not start with zero
            if nchunks == 1 and cont == "1" and chunk == "0000000":
                return None
            pos += 8
            if cont == "0":
                break
        out.append(bit * (value + 1))
        bit = "1" if bit == "0" else "0"
    return "".join(out)


def runlength_compressor() -> Compressor:
    return Compressor("runlength", _rl_encode, _rl_decode, lambda n: 0 if n == 0 else 9)


# dictionary format: a token stream with no header.  Tokens are either
# '0'+bit (literal) or '1'+gamma(offset)+gamma(length-2) (copy `length`
# bits from `offset` back, overlap allowed, length >= 3).  The encoder is
# greedy: longest match among the most recent indexed positions, ties to
# the smallest offset, and a match is only taken when its token is
# shorter than spelling the bits as literals.

_DICT_MINLEN = 3
_DICT_CHAIN = 64


def _gamma(n: int) -> str:
    if n < 1:
        raise ValueError("gamma codes positive integers")
    b = bin(n)[2:]
    return "0" * (len(b) - 1) + b


def _gamma_read(code: str, pos: int) -> tuple[int, int] | None:
    z = 0
    while pos + z < len(code) and code[pos + z] == "0":
        z += 1
    if pos + 2 * z + 1 > len(code):
        return None
    return int(code[pos + z : pos + 2 * z + 1], 2), pos + 2 * z + 1


class _DictScan:
    """The greedy dictionary encoder's token scan, resumable across inputs.

    Token i starts at starts[i] and copies offs[i] back (0 for a literal);
    totals[i + 1] is the code length of tokens 0..i.  reaches[i] is the
    largest input index any of tokens 0..i read to decide itself: the last
    index of its 3-gram, the stopping compare of each match scan, or n
    where a scan or the gram ran into the end of the input.  A token whose
    reach lies below the common prefix of two inputs decides the same way
    on both, so `length` keeps those tokens and rescans only the rest.
    """

    def __init__(self, s: str = "") -> None:
        self.s = s
        self.index: dict[str, list[int]] = {}
        self.starts: list[int] = []
        self.offs: list[int] = []
        self.totals = [0]
        self.reaches: list[int] = []

    def run(self, pos: int) -> None:
        """Tokenize self.s from pos on; index holds the 3-grams before pos."""
        s = self.s
        n = len(s)
        index = self.index
        starts, offs, totals, reaches = self.starts, self.offs, self.totals, self.reaches
        total = totals[-1]
        reach = reaches[-1] if reaches else -1
        while pos < n:
            best_len = 0
            best_off = 0
            if pos + _DICT_MINLEN > n:
                reach = n
            else:
                reach = max(reach, pos + _DICT_MINLEN - 1)
                gram = s[pos : pos + _DICT_MINLEN]
                for start in reversed(index.get(gram, ())[-_DICT_CHAIN:]):
                    length = _DICT_MINLEN
                    while pos + length < n and s[start + length] == s[pos + length]:
                        length += 1
                    # the compare that stopped the scan, or n at the end
                    if pos + length > reach:
                        reach = pos + length
                    if length > best_len:
                        best_len = length
                        best_off = pos - start
            step, off, cost = 1, 0, 2
            if best_len >= _DICT_MINLEN:
                # 1 + |gamma(off)| + |gamma(len - 2)|, |gamma(k)| = 2 * bits(k) - 1
                bits = best_off.bit_length() + (best_len - _DICT_MINLEN + 1).bit_length()
                match_cost = 2 * bits - 1
                if match_cost < 2 * best_len:
                    step, off, cost = best_len, best_off, match_cost
            for p in range(pos, min(pos + step, n - _DICT_MINLEN + 1)):
                index.setdefault(s[p : p + _DICT_MINLEN], []).append(p)
            starts.append(pos)
            offs.append(off)
            total += cost
            totals.append(total)
            reaches.append(reach)
            pos += step

    def length(self, s: str) -> int:
        """Code length of s, rescanning only past the prefix shared with the last input."""
        prev = self.s
        # d = the length of the common prefix of prev and s, by bisection
        d, hi = 0, min(len(prev), len(s))
        while d < hi:
            mid = (d + hi + 1) // 2
            if prev[:mid] == s[:mid]:
                d = mid
            else:
                hi = mid - 1
        keep = bisect_left(self.reaches, d)
        pos = self.starts[keep] if keep < len(self.starts) else len(prev)
        del self.starts[keep:], self.offs[keep:], self.reaches[keep:], self.totals[keep + 1 :]
        # grams below min(pos, d - 2) lie inside the shared prefix; re-read the rest
        lo = min(pos, max(d - _DICT_MINLEN + 1, 0))
        for grams in self.index.values():
            del grams[bisect_left(grams, lo) :]
        for p in range(lo, min(pos, len(s) - _DICT_MINLEN + 1)):
            self.index.setdefault(s[p : p + _DICT_MINLEN], []).append(p)
        self.s = s
        self.run(pos)
        return self.totals[-1]


def _dict_encode(s: str) -> str:
    scan = _DictScan(s)
    scan.run(0)
    ends = scan.starts[1:] + [len(s)]
    return "".join(
        "1" + _gamma(off) + _gamma(end - start - _DICT_MINLEN + 1) if off else "0" + s[start]
        for start, end, off in zip(scan.starts, ends, scan.offs)
    )


def _dict_decode(code: str) -> str | None:
    out: list[str] = []
    pos = 0
    while pos < len(code):
        tag = code[pos]
        pos += 1
        if tag == "0":
            if pos >= len(code):
                return None
            out.append(code[pos])
            pos += 1
            continue
        got = _gamma_read(code, pos)
        if got is None:
            return None
        off, pos = got
        got = _gamma_read(code, pos)
        if got is None:
            return None
        lenval, pos = got
        length = lenval + _DICT_MINLEN - 1
        if off < 1 or off > len(out):
            return None
        start = len(out) - off
        for t in range(length):
            out.append(out[start + t])
    return "".join(out)


def dictionary_compressor() -> Compressor:
    return Compressor("dictionary", _dict_encode, _dict_decode, lambda n: 0 if n == 0 else 2)


def _length_fn(M: Compressor) -> Callable[[str], int]:
    """The one length definition per compressor: a function giving len(M.encode(s)).

    ``compress_len``, ``PrefixFreeMachine.code_length``,
    ``precision_complexity`` and ``co_compressible_check`` all read it.
    The dictionary lengths are counted without building codes, and
    resume from the prefix each input shares with the one before, so
    inputs in sorted order are cheap; the other compressors build the
    code and take its length.
    """
    if M.encode_fn is _dict_encode:
        scan = _DictScan()
        return lambda s: scan.length(_check_bits(s))
    return lambda s: len(M.encode(s))


BUILTIN_COMPRESSORS = {
    "identity": identity_compressor,
    "runlength": runlength_compressor,
    "dictionary": dictionary_compressor,
}


# --- prefix-free transform -------------------------------------------------


def bplus(n: int) -> str:
    """Binary of n with a 0 slotted after each bit; length 2*|binary(n)|."""
    if n < 1:
        raise PreconditionError("bplus needs n >= 1")
    return "".join(b + "0" for b in bin(n)[2:])


def _header(payload_len: int) -> str:
    return (bplus(payload_len) if payload_len else "") + "11"


def header_overhead(payload_len: int) -> int:
    """Exact header cost: twice the bit length of payload_len, plus 2."""
    return 2 * payload_len.bit_length() + 2


@dataclass(frozen=True)
class PrefixFreeMachine:
    """Self-delimiting repackaging of a compressor.

    Codes are header(|p|) + p for p in the compressor's image, where the
    header doubles the bits of |p| with 0s and closes with '11'; such a
    code decodes to the unique input the compressor maps to p.  Code
    lengths therefore equal the compressed length plus the header cost.
    """

    base: Compressor

    def code(self, payload: str) -> str:
        if not self.base.image_test(payload):
            raise PreconditionError("payload is not in the compressor's image")
        return _header(len(payload)) + payload

    def code_for_input(self, s: str) -> str:
        payload = self.base.encode(s)
        return _header(len(payload)) + payload

    def code_length(self, s: str) -> int:
        c = compress_len(self.base, s)
        return c + header_overhead(c)

    def decode(self, code: str) -> str | None:
        _check_bits(code)
        pos = 0
        nbits = []
        while True:
            if pos + 2 > len(code):
                return None
            pair = code[pos : pos + 2]
            pos += 2
            if pair == "11":
                break
            if pair[1] != "0":
                return None
            nbits.append(pair[0])
        if nbits and nbits[0] != "1":
            return None
        n = int("".join(nbits), 2) if nbits else 0
        payload = code[pos:]
        if len(payload) != n:
            return None
        if not self.base.image_test(payload):
            return None
        return self.base.decode(payload)

    def kraft_sum(self, max_payload_len: int) -> Fraction:
        """Exact partial Kraft sum over codes with payload length <= bound."""
        total = Fraction(0)
        for length in range(max_payload_len + 1):
            got = 0
            for i in range(2**length):
                p = format(i, f"0{length}b") if length else ""
                if self.base.image_test(p):
                    got += 1
            total += Fraction(got, 2 ** (length + header_overhead(length)))
        return total


def prefixfree_transform(M: Compressor) -> PrefixFreeMachine:
    return PrefixFreeMachine(M)


# --- precision complexity --------------------------------------------------


# Most grid candidates `precision_candidates` builds.  An exact coordinate
# away from the grid has a window of 4 numerators, so 6 such coordinates
# (4^6 = 4096 candidates) pass and 7 exit 2.
_CANDIDATE_CAP = 2**12


def _strict_int_range(lo: Fraction, hi: Fraction) -> range:
    """Integers k with lo < k < hi."""
    first = lo.numerator // lo.denominator + 1
    last = -((-hi.numerator) // hi.denominator) - 1
    return range(first, last + 1)


def grid_point_encoding(ks: Sequence[int], r: int) -> str:
    """Frozen candidate encoding: [4-bit dim][unary r, then 0][r+2-bit numerators].

    The numerators are taken at denominator 2^(r+1).
    """
    dim = len(ks)
    if not 1 <= dim <= 15:
        raise PreconditionError("dimension must lie in 1..15")
    if r < 0:
        raise PreconditionError("precision must be nonnegative")
    top = 2 ** (r + 1)
    if any(not 0 <= k <= top for k in ks):
        raise PreconditionError("numerator out of range for the grid")
    return format(dim, "04b") + "1" * r + "0" + "".join(format(k, f"0{r + 2}b") for k in ks)


def _coordinate_intervals(x, r: int) -> list[tuple[Fraction, Fraction]]:
    """Per-coordinate exact value intervals; width 0 for exact input."""
    if isinstance(x, DigitMatrix):
        width = x.cell_width()
        if width > Fraction(1, 2 ** (r + 2)):
            raise PreconditionError("stream too short to decide candidate membership")
        return [(v, v + width) for v in x.values()]
    vals = [Fraction(c) for c in x]
    if any(not 0 <= v <= 1 for v in vals):
        raise PreconditionError("point outside the unit cube")
    return [(v, v) for v in vals]


def precision_candidates(x, r: int) -> list[tuple[int, ...]]:
    """Grid numerator tuples certified within 2^-r of x at mesh 2^-(r+1).

    For stream input only candidates certified against the whole value
    interval are returned; if none survives the stream is too short.
    The tuples come in lexicographic order, and more than _CANDIDATE_CAP
    of them raise before any is built.
    """
    out: list[tuple[int, ...]] = [()]
    for ks in _candidate_axes(x, r):
        out = [prev + (k,) for prev in out for k in ks]
    return out


def _candidate_axes(x, r: int) -> list[list[int]]:
    """Per coordinate, the certified grid numerators in ascending order."""
    if r < 0:
        raise PreconditionError("precision must be nonnegative")
    intervals = _coordinate_intervals(x, r)
    top = 2 ** (r + 1)
    per_coord: list[list[int]] = []
    for lo, hi in intervals:
        # |k/top - v| < 2^-r for every v in [lo, hi] pins k to one window
        ks = [k for k in _strict_int_range(hi * top - 2, lo * top + 2) if 0 <= k <= top]
        if not ks:
            raise PreconditionError("stream too short to decide candidate membership")
        per_coord.append(ks)
    count = math.prod(len(ks) for ks in per_coord)
    if count > _CANDIDATE_CAP:
        raise PreconditionError(f"{count} grid candidates exceed the cap of {_CANDIDATE_CAP}")
    return per_coord


def _candidate_codes(x, r: int) -> list[str]:
    """grid_point_encoding of each of precision_candidates(x, r), in order.

    Every code shares one header, and each coordinate's blocks are
    formatted once, so a code is a concatenation of ready strings.
    """
    axes = _candidate_axes(x, r)
    # the first candidate's code validates the dimension and holds the header
    codes = [grid_point_encoding([ks[0] for ks in axes], r)[: 5 + r]]
    for ks in axes:
        blocks = [format(k, f"0{r + 2}b") for k in ks]
        codes = [code + block for code in codes for block in blocks]
    return codes


def precision_complexity(x, r: int, M: Compressor) -> int:
    """Min compressed length over canonical encodings of certified candidates."""
    return min(map(_length_fn(M), _candidate_codes(x, r)))


def precision_complexities(x, M: Compressor, r_range: Sequence[int]) -> dict[int, int]:
    """C_{M,r}(x) once for each distinct r of the range, in ascending r."""
    rs = sorted(set(int(r) for r in r_range))
    if not rs or rs[0] < 1:
        raise PreconditionError("precision range must contain positive integers")
    return {r: precision_complexity(x, r, M) for r in rs}


def schnorr_dims(x, M: Compressor, r_range: Sequence[int]) -> tuple[float, float]:
    """Min and max of C_{M,r}(x)/r over the given precision range."""
    ratios = [Fraction(c, r) for r, c in precision_complexities(x, M, r_range).items()]
    return float(min(ratios)), float(max(ratios))


# --- computably-often compressibility --------------------------------------


def co_compressible_check(
    prefix: str,
    M: Compressor,
    g: Callable[[int], int],
    s: Fraction,
    k_max: int,
) -> list[bool]:
    """For each k <= k_max: does some n in [g(k), g(k+1)) give (C+k)/n < s?

    Scans each window in ascending n with an exact rational comparison,
    skipping n where even the compressor's length floor cannot win.
    """
    _check_bits(prefix)
    s = Fraction(s)
    if k_max < 0:
        raise PreconditionError("k_max must be nonnegative")
    marks = [g(k) for k in range(k_max + 2)]
    if any(b <= a for a, b in zip(marks, marks[1:])) or marks[0] < 1:
        raise PreconditionError("g must be strictly increasing and positive")
    if len(prefix) < marks[-1]:
        raise PreconditionError("prefix shorter than g(k_max + 1)")
    length = _length_fn(M)
    out = []
    for k in range(k_max + 1):
        hit = False
        for n in range(marks[k], marks[k + 1]):
            # need C < s*n - k; the floor lets us skip hopeless lengths
            bound = s * n - k
            if bound <= M.code_length_floor(n):
                continue
            if length(prefix[:n]) < bound:
                hit = True
                break
        out.append(hit)
    return out
