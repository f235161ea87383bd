"""Compressor-based complexity at finite precision.

A compressor is a total injective map on bit strings with decidable
domain and image; its complexity value on an input is simply the length
of the output.  The prefix-free transform repackages a compressor's
image behind self-delimiting headers, giving Kraft-summable codes whose
lengths exceed the compressed lengths by an explicit logarithmic term.
Precision complexity measures a point of the unit cube by compressing
canonical encodings of nearby dyadic grid points.  Complexities count
the run-length and dictionary compressors' code lengths without
building the codes.  The dictionary scan works on int bitboards of the
input, one per bit value, so the earlier starts of a 3-gram and the
starts whose match survives each further bit are single ints; it
resumes each input from the prefix it shares with the input before.
Every op on a board is O(n) bits, so a scan is quadratic in the input
length: faster than a per-gram position list up to 2^15 bits, slower
on random input from 2^16 on (complexities here code at most a few
hundred bits).
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from ._rat import PreconditionError, int_arg, rat, rat_point
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
    return _length_fn(M, "compress_len")(s)


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


# A run of L bits takes one 8-bit block per started 7 bits of L - 1, so
# only runs of L >= 129 (L - 1 >= 2^7) take more than one block.  Each
# pattern matches only at a run's first bit, so a scan is linear.
_LONG_RUNS = re.compile(r"(?<!0)0{129,}|(?<!1)1{129,}")


def _rl_length(s: str) -> int:
    """len(_rl_encode(s)) = 1 + 8 * (runs + extra blocks), counted, not built."""
    if not s:
        return 0
    runs = 1 + s.count("01") + s.count("10")
    extra = sum(-(-(m.end() - m.start() - 1).bit_length() // 7) - 1 for m in _LONG_RUNS.finditer(s))
    return 1 + 8 * (runs + extra)


def runlength_compressor() -> Compressor:
    return Compressor("runlength", _rl_encode, _rl_decode, lambda n: 0 if n == 0 else 9)


# dictionary format: a token stream with no header.  Tokens are either
# '0'+bit (literal) or '1'+gamma(offset)+gamma(length-2) (copy `length`
# bits from `offset` back, overlap allowed, length >= 3).  The encoder is
# greedy: longest match among the _DICT_CHAIN latest earlier starts of
# the same 3-gram, ties to the smallest offset, and a match is only taken
# when its token is shorter than spelling the bits as literals.

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
    """The greedy dictionary encoder's token scan on bitboards, resumable across inputs.

    The input is held as one int per bit value, boards["0"] and
    boards["1"], with bit p set when s[p] holds that value.  At pos, the
    starts before pos that share s[pos:pos + 3] are one int: the boards
    of the gram's bits ANDed at shifts 0, 1 and 2, masked below pos, and
    cut to its _DICT_CHAIN highest bits.  Each further matched bit costs
    one AND with that bit's board and one shift.  Once a single start is
    left (known from the count, and checked every eighth matched bit),
    one XOR of the "1" board against itself shifted by the offset finds
    where its match stops, so a long match costs a few ops, not one per
    bit.  The longest match is the last nonzero int,
    and its highest bit is the smallest offset, as a scan of the starts
    from the latest back would pick.  No per-gram index is kept, so a
    resumed input needs only its new boards.

    Token i starts at starts[i] and copies offs[i] back (0 for a literal);
    totals[i + 1] is the code length of tokens 0..i.  reaches[i] is the
    largest input index any of tokens 0..i read to decide itself: the last
    index of its 3-gram, the compare that stopped its longest match, or n
    where a match or the gram ran into the end of the input.  A token
    whose reach lies below the common prefix of two inputs decides the
    same way on both, so `length` keeps those tokens and rescans only the
    rest.
    """

    def __init__(self, s: str = "") -> None:
        self._read(s)
        self.starts: list[int] = []
        self.offs: list[int] = []
        self.totals = [0]
        self.reaches: list[int] = []

    def _read(self, s: str) -> None:
        self.s = s
        ones = int(s[::-1], 2) if s else 0
        self.boards = {"0": ones ^ ((1 << len(s)) - 1), "1": ones}

    def run(self, pos: int) -> None:
        """Tokenize self.s from pos on, after the tokens kept before pos."""
        s = self.s
        n = len(s)
        boards = self.boards
        ones = boards["1"]
        grams: dict[str, int] = {}
        starts, offs, totals, reaches = self.starts, self.offs, self.totals, self.reaches
        total = totals[-1]
        reach = reaches[-1] if reaches else -1
        while pos < n:
            step, off, cost = 1, 0, 2
            end = n - pos
            if end < _DICT_MINLEN:
                reach = n
            else:
                gram = s[pos : pos + _DICT_MINLEN]
                cand = grams.get(gram)
                if cand is None:
                    cand = grams[gram] = boards[gram[0]] & (boards[gram[1]] >> 1) & (boards[gram[2]] >> 2)
                cand &= (1 << pos) - 1
                if not cand:
                    if pos + _DICT_MINLEN - 1 > reach:
                        reach = pos + _DICT_MINLEN - 1
                else:
                    count = cand.bit_count()
                    if count > _DICT_CHAIN:
                        cand = _highest_bits(cand, _DICT_CHAIN)
                    length = _DICT_MINLEN
                    single = count == 1
                    # bit p + length of up marks a start p whose match runs to length
                    up = cand << length
                    while not single and length < end:
                        more = up & boards[s[pos + length]]
                        if not more:
                            break
                        up = more << 1
                        length += 1
                        if not length & 7:
                            single = not up & (up - 1)
                    start = up.bit_length() - 1 - length
                    if single and length < end:
                        # one start left: its match stops at the first bit where s
                        # differs from itself shifted by the offset, or at n
                        diff = (ones >> (start + length)) ^ (ones >> (pos + length))
                        length = min(length + (diff & -diff).bit_length() - 1, end) if diff else end
                    if pos + length > reach:
                        reach = pos + length
                    # 1 + |gamma(off)| + |gamma(len - 2)|, |gamma(k)| = 2 * bits(k) - 1
                    match_cost = 2 * ((pos - start).bit_length() + (length - _DICT_MINLEN + 1).bit_length()) - 1
                    if match_cost < 2 * length:
                        step, off, cost = length, pos - start, match_cost
            starts.append(pos)
            offs.append(off)
            total += cost
            totals.append(total)
            reaches.append(reach)
            pos += step

    def length(self, s: str) -> int:
        """Code length of s, rescanning only past the prefix shared with the last input."""
        prev, before = len(self.s), self.boards["1"]
        d = min(prev, len(s))
        self._read(s)
        # the common prefix of the last input and s ends at their first differing bit
        diff = before ^ self.boards["1"]
        if diff:
            d = min(d, (diff & -diff).bit_length() - 1)
        keep = bisect_left(self.reaches, d)
        pos = self.starts[keep] if keep < len(self.starts) else prev
        del self.starts[keep:], self.offs[keep:], self.reaches[keep:], self.totals[keep + 1 :]
        self.run(pos)
        return self.totals[-1]


def _highest_bits(board: int, k: int) -> int:
    """board with only its k highest set bits kept; board has more than k.

    The cut is found by bisection on bit_count, inside a window below the
    top bit doubled until it holds k bits, so each count reads only the
    bits near the top.
    """
    top = board.bit_length()
    # (board >> lo) holds at least k set bits and (board >> hi) fewer
    lo, hi, width = top - 2 * k, top, 2 * k
    while lo > 0 and (board >> lo).bit_count() < k:
        hi, width = lo, 2 * width
        lo = top - width
    lo = max(lo, 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (board >> mid).bit_count() >= k:
            lo = mid
        else:
            hi = mid
    return board >> lo << lo


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


def _length_fn(M: Compressor, name: str) -> Callable[[str], int]:
    """The one length definition per compressor: a function giving len(M.encode(s)).

    ``compress_len``, ``PrefixFreeMachine.code_length``,
    ``precision_complexity`` and ``co_compressible_check`` all read it.
    The built-in run-length and dictionary lengths are counted without
    building codes.  A run-length code is 0 bits for the empty input,
    else 1 + the sum over runs of L bits of 8 * max(1, ceil(bitlen(L - 1) / 7)).
    Dictionary lengths come from the bitboard token scan, resuming from
    the prefix each input shares with the one before, so inputs in
    sorted order are cheap.  Other compressors build the code and take
    its length.  An M other than a Compressor is refused with
    PreconditionError naming the caller, name.
    """
    if not isinstance(M, Compressor):
        raise PreconditionError(f"{name} needs a Compressor, not {type(M).__name__}")
    if M.encode_fn is _dict_encode:
        scan = _DictScan()
        return lambda s: scan.length(_check_bits(s))
    if M.encode_fn is _rl_encode:
        return lambda s: _rl_length(_check_bits(s))
    return lambda s: len(M.encode(s))


BUILTIN_COMPRESSORS = {
    "identity": identity_compressor,
    "runlength": runlength_compressor,
    "dictionary": dictionary_compressor,
}


# --- prefix-free transform -------------------------------------------------


def bplus(n: int) -> str:
    """Binary of n with a 0 slotted after each bit; length 2*|binary(n)|."""
    if int_arg(n, "n") < 1:
        raise PreconditionError("bplus needs n >= 1")
    return "".join(b + "0" for b in bin(n)[2:])


def _header(payload_len: int) -> str:
    return (bplus(payload_len) if payload_len else "") + "11"


def header_overhead(payload_len: int) -> int:
    """Exact header cost: twice the bit length of payload_len, plus 2."""
    return 2 * int_arg(payload_len, "payload_len").bit_length() + 2


@dataclass(frozen=True)
class PrefixFreeMachine:
    """Self-delimiting repackaging of a compressor.

    Codes are header(|p|) + p for p in the compressor's image, where the
    header doubles the bits of |p| with 0s and closes with '11'; such a
    code decodes to the unique input the compressor maps to p.  Code
    lengths therefore equal the compressed length plus the header cost.
    """

    base: Compressor

    def __post_init__(self):
        if not isinstance(self.base, Compressor):
            raise PreconditionError(f"PrefixFreeMachine needs a Compressor, not {type(self.base).__name__}")

    def code(self, payload: str) -> str:
        if not self.base.image_test(payload):
            raise PreconditionError("payload is not in the compressor's image")
        return _header(len(payload)) + payload

    def code_for_input(self, s: str) -> str:
        payload = self.base.encode(s)
        return _header(len(payload)) + payload

    def code_length(self, s: str) -> int:
        c = _length_fn(self.base, "PrefixFreeMachine.code_length")(s)
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
    if int_arg(r, "r") < 0:
        raise PreconditionError("precision must be nonnegative")
    top = 2 ** (r + 1)
    if any(not 0 <= int_arg(k, "a numerator") <= top for k in ks):
        raise PreconditionError("numerator out of range for the grid")
    return format(dim, "04b") + "1" * r + "0" + "".join(format(k, f"0{r + 2}b") for k in ks)


def _coordinate_intervals(x, r: int) -> list[tuple[Fraction, Fraction]]:
    """Per-coordinate exact value intervals; width 0 for exact input."""
    if isinstance(x, DigitMatrix):
        width = x.cell_width()
        if width > Fraction(1, 2 ** (r + 2)):
            raise PreconditionError("stream too short to decide candidate membership")
        return [(v, v + width) for v in x.values()]
    vals = rat_point(x)
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
    if int_arg(r, "r") < 0:
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
    return min(map(_length_fn(M, "precision_complexity"), _candidate_codes(x, r)))


def precision_complexities(x, M: Compressor, r_range: Sequence[int]) -> dict[int, int]:
    """C_{M,r}(x) once for each distinct r of the range, in ascending r."""
    rs = sorted(set(int_arg(r, "a precision") for r in r_range))
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
    s = rat(s)
    if int_arg(k_max, "k_max") < 0:
        raise PreconditionError("k_max must be nonnegative")
    marks = [g(k) for k in range(k_max + 2)]
    if any(b <= a for a, b in zip(marks, marks[1:])) or marks[0] < 1:
        raise PreconditionError("g must be strictly increasing and positive")
    if len(prefix) < marks[-1]:
        raise PreconditionError("prefix shorter than g(k_max + 1)")
    length = _length_fn(M, "co_compressible_check")
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
