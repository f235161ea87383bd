"""Tests for compressors, the prefix-free transform and precision complexity."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from effdim import (
    BUILTIN_COMPRESSORS,
    BoundSeq,
    Compressor,
    DigitMatrix,
    PreconditionError,
    bplus,
    co_compressible_check,
    compress_len,
    dictionary_compressor,
    grid_point_encoding,
    header_overhead,
    identity_compressor,
    precision_candidates,
    precision_complexity,
    prefixfree_transform,
    runlength_compressor,
    schnorr_dims,
)
from effdim.algorithmic_dim import (
    _CANDIDATE_CAP,
    _DICT_CHAIN,
    _DICT_MINLEN,
    _candidate_codes,
    _dict_encode,
    _gamma,
    _header,
    _length_fn,
)

bits = st.text(alphabet="01", max_size=120)


class TestCompressors:
    def test_builtin_registry(self):
        assert set(BUILTIN_COMPRESSORS) == {"identity", "runlength", "dictionary"}
        for name, factory in BUILTIN_COMPRESSORS.items():
            assert factory().name == name

    def test_identity_is_the_identity(self):
        M = identity_compressor()
        assert M.encode("0110") == "0110"
        assert M.decode("0110") == "0110"
        assert M.code_length_floor(7) == 7

    def test_runlength_frozen_codes(self):
        M = runlength_compressor()
        # First bit, then each run length minus one in 7-bit blocks with a
        # leading continuation bit.
        assert M.encode("") == ""
        assert M.encode("00000") == "0" + "0" + "0000100"
        assert M.encode("0011") == "0" + "00000001" + "00000001"
        # A run of 200 stores 199 = 1:0111000111 in two blocks.
        assert M.encode("0" * 200) == "0" + "10000001" + "01000111"
        assert compress_len(M, "0" * 127) == 9
        assert compress_len(M, "0" * 200) == 17

    def test_runlength_rejects_malformed_codes(self):
        M = runlength_compressor()
        assert M.decode("00") is None  # length not 1 mod 8
        # Multi-block code starting with an all-zero block is not canonical.
        assert M.decode("0" + "10000000" + "00000001") is None

    def test_non_bits_rejected(self):
        with pytest.raises(ValueError, match="only '0' and '1'"):
            identity_compressor().encode("012")

    @given(bits)
    def test_runlength_round_trip(self, s):
        M = runlength_compressor()
        assert M.decode(M.encode(s)) == s
        assert M.image_test(M.encode(s))

    @given(bits)
    def test_dictionary_round_trip(self, s):
        M = dictionary_compressor()
        assert M.decode(M.encode(s)) == s

    @given(st.integers(min_value=0, max_value=12), st.sampled_from(["0", "1", "01", "001"]))
    def test_dictionary_compresses_repetition(self, reps, unit):
        M = dictionary_compressor()
        s = unit * reps
        assert M.decode(M.encode(s)) == s

    def test_dictionary_frozen_small_code(self):
        M = dictionary_compressor()
        # "0"*10: one literal bit, then a single overlapped copy token
        # (offset 1, gamma(7) for the 9 remaining bits).
        assert M.encode("0" * 10) == "00" + "1" + "1" + "00111"
        assert compress_len(M, "0" * 10) == 9

    @given(bits)
    def test_floors_bound_real_code_lengths(self, s):
        for factory in BUILTIN_COMPRESSORS.values():
            M = factory()
            assert compress_len(M, s) >= M.code_length_floor(len(s))


def _dict_encode_reference(s: str, chain: int = _DICT_CHAIN) -> str:
    """Verbatim copy of the greedy dictionary encoder before it counted lengths.

    Its one change is the chain argument, so a test can lift the cap.
    """
    out = []
    index: dict[str, list[int]] = {}
    n = len(s)
    pos = 0
    while pos < n:
        best_len = 0
        best_off = 0
        gram = s[pos : pos + _DICT_MINLEN]
        if len(gram) == _DICT_MINLEN:
            for start in reversed(index.get(gram, ())[-chain:]):
                length = _DICT_MINLEN
                while pos + length < n and s[start + length] == s[pos + length]:
                    length += 1
                if length > best_len:
                    best_len = length
                    best_off = pos - start
        take_match = False
        if best_len >= _DICT_MINLEN:
            cost = 1 + len(_gamma(best_off)) + len(_gamma(best_len - _DICT_MINLEN + 1))
            take_match = cost < 2 * best_len
        if take_match:
            out.append("1" + _gamma(best_off) + _gamma(best_len - _DICT_MINLEN + 1))
            step = best_len
        else:
            out.append("0" + s[pos])
            step = 1
        for p in range(pos, pos + step):
            g = s[p : p + _DICT_MINLEN]
            if len(g) == _DICT_MINLEN:
                index.setdefault(g, []).append(p)
        pos += step
    return "".join(out)


@st.composite
def related_bit_lists(draw):
    """Bit strings each cut from the one before at a random point and regrown."""
    out = [draw(bits)]
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        prev = out[-1]
        cut = draw(st.integers(min_value=0, max_value=len(prev)))
        tail = draw(st.text(alphabet=draw(st.sampled_from(["01", "0", "1"])), max_size=40))
        out.append(prev[:cut] + tail)
    return out


@st.composite
def run_structured_bits(draw):
    """Up to ~900 bits of short units each repeated up to 70 times.

    Long repeats give long matches and more than _DICT_CHAIN earlier starts
    of one 3-gram, which the 120-bit ``bits`` strategy never reaches.
    """
    pieces = draw(
        st.lists(
            st.tuples(st.text(alphabet="01", min_size=1, max_size=8), st.integers(min_value=1, max_value=70)),
            max_size=12,
        )
    )
    return "".join(unit * reps for unit, reps in pieces)[:900]


@st.composite
def sorted_candidate_encodings(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    x = tuple(
        draw(st.fractions(min_value=0, max_value=1, max_denominator=100)) for _ in range(dim)
    )
    r = draw(st.integers(min_value=1, max_value=24))
    return [grid_point_encoding(ks, r) for ks in precision_candidates(x, r)]


class TestResumableLengths:
    """The length-only encoders against the codes they count."""

    @given(st.lists(bits, max_size=8))
    @example([""])
    @example(["", "0110100"])
    @example(["0110100", "", "0110100"])
    @example(["0", "01", "1", "10", "11"])
    @example(["0110110", "0110110", "0110110"])
    @example(["01101101", "0110"])
    @example(["0110", "01101101"])
    @example(["0000000000", "1000000000"])
    @example(["0110110110", "0110110111"])
    @example(["1111111110", "1111111111", "111111111"])
    # the match at 3 stops on the mismatch at 6, so the second input resumes
    # at 6 and must re-read the gram at 5, its only offset-1 candidate; in
    # the second list that gram is the last of the middle input, which the
    # third input keeps
    @example(["0010011", "001001111"])
    @example(["0010011", "00100111", "001001111"])
    def test_dictionary_lengths_on_arbitrary_lists(self, strings):
        length = _length_fn(dictionary_compressor(), "compress_len")
        got = [length(s) for s in strings]
        assert got == [len(_dict_encode_reference(s)) for s in strings]

    @given(related_bit_lists())
    def test_dictionary_lengths_on_shared_prefixes(self, strings):
        length = _length_fn(dictionary_compressor(), "compress_len")
        got = [length(s) for s in strings]
        assert got == [len(_dict_encode_reference(s)) for s in strings]

    @given(sorted_candidate_encodings())
    def test_dictionary_lengths_on_sorted_candidates(self, strings):
        assert strings == sorted(strings)
        length = _length_fn(dictionary_compressor(), "compress_len")
        got = [length(s) for s in strings]
        assert got == [len(_dict_encode_reference(s)) for s in strings]

    @given(bits)
    @example("")
    @example("01")
    @example("0" * 200)
    def test_dictionary_codes_match_the_reference(self, s):
        assert _dict_encode(s) == _dict_encode_reference(s)

    # h + "0110" * reps + "1" + h puts reps + 2 earlier starts of "011" before
    # the last h, the oldest of them h's own; only a chain that reaches it
    # copies all of h.  Each case names a chain that gives another length:
    # 63 at 64 starts, 65 at 65 starts and no cap at 68, so the three pin the
    # cap at exactly 64
    @pytest.mark.parametrize(
        "reps, bits, other_chain, other_bits", [(62, 70, 63, 69), (63, 69, 65, 70), (66, 71, None, 72)]
    )
    def test_chain_cap(self, reps, bits, other_chain, other_bits):
        h = "0110100111"
        s = h + "0110" * reps + "1" + h
        assert len(_dict_encode_reference(s, chain=other_chain or len(s))) == other_bits
        assert len(_dict_encode(s)) == len(_dict_encode_reference(s)) == bits
        assert _dict_encode(s) == _dict_encode_reference(s)
        length = _length_fn(dictionary_compressor(), "compress_len")
        inputs = (s[:-3], s, s[:-1] + "0", s)
        assert [length(t) for t in inputs] == [len(_dict_encode_reference(t)) for t in inputs]

    @given(run_structured_bits())
    def test_dictionary_codes_on_run_structured_input(self, s):
        assert _dict_encode(s) == _dict_encode_reference(s)

    @given(st.lists(run_structured_bits(), min_size=1, max_size=4), st.data())
    def test_dictionary_lengths_on_run_structured_input(self, strings, data):
        # each string after the first shares a random prefix with the one before
        for i in range(1, len(strings)):
            cut = data.draw(st.integers(min_value=0, max_value=len(strings[i - 1])))
            strings[i] = strings[i - 1][:cut] + strings[i]
        length = _length_fn(dictionary_compressor(), "compress_len")
        got = [length(s) for s in strings]
        assert got == [len(_dict_encode_reference(s)) for s in strings]

    def test_every_string_is_checked(self):
        for factory in BUILTIN_COMPRESSORS.values():
            length = _length_fn(factory(), "compress_len")
            assert length("0110") == len(factory().encode("0110"))
            with pytest.raises(ValueError, match="only '0' and '1'"):
                length("0112")
            with pytest.raises(ValueError, match="only '0' and '1'"):
                compress_len(factory(), "0112")

    @given(bits)
    @example("")
    # single runs whose L - 1 sits on either side of the 7-bit chunk
    # boundaries 2^7 and 2^14
    @example("0" * 128)
    @example("1" * 129)
    @example("0" * 16384)
    @example("1" * 16385)
    def test_compress_len_is_the_code_length(self, s):
        for factory in BUILTIN_COMPRESSORS.values():
            M = factory()
            assert compress_len(M, s) == len(M.encode(s))

    def test_dictionary_lengths_build_no_code(self, monkeypatch):
        M = dictionary_compressor()
        lengths = [compress_len(M, s) for s in ("", "0" * 10, "0110100")]

        def refuse(self, s):
            raise AssertionError("a code was built")

        monkeypatch.setattr(Compressor, "encode", refuse)
        assert [compress_len(M, s) for s in ("", "0" * 10, "0110100")] == lengths
        assert prefixfree_transform(M).code_length("0" * 10) == 9 + header_overhead(9)

    def test_runlength_lengths_build_no_code(self, monkeypatch):
        M = runlength_compressor()
        inputs = ("", "0", "0011", "0" * 128, "1" * 129, "01" * 40 + "1" * 16385)
        lengths = [compress_len(M, s) for s in inputs]
        assert lengths == [len(M.encode(s)) for s in inputs]
        third = precision_complexity((Fraction(1, 3),), 8, M)

        def refuse(self, s):
            raise AssertionError("a code was built")

        monkeypatch.setattr(Compressor, "encode", refuse)
        assert [compress_len(M, s) for s in inputs] == lengths
        assert prefixfree_transform(M).code_length("0" * 200) == 17 + header_overhead(17)
        assert precision_complexity((Fraction(1, 3),), 8, M) == third


class TestPrefixFreeTransform:
    def test_bplus_frozen(self):
        assert bplus(1) == "10"
        assert bplus(2) == "1000"
        assert bplus(3) == "1010"
        assert bplus(5) == "100010"
        with pytest.raises(PreconditionError):
            bplus(0)

    def test_header_overhead_table(self):
        assert header_overhead(0) == 2
        assert header_overhead(1) == 4
        assert header_overhead(2) == header_overhead(3) == 6
        assert all(header_overhead(n) == 8 for n in range(4, 8))
        # past 2^53 a float log2 rounds n + 1 down to a power of two
        for n in (2**53 - 1, 2**53, 2**53 + 1, 2**60 - 1, 2**60):
            assert header_overhead(n) == len(_header(n)) == 2 * n.bit_length() + 2

    def test_identity_code_frozen(self):
        PM = prefixfree_transform(identity_compressor())
        assert PM.code_for_input("011") == "101011" + "011"
        assert PM.code_length("011") == 9
        assert PM.decode("101011011") == "011"

    @given(bits)
    def test_code_of_an_image_payload(self, s):
        # a payload in the image codes to the input's code, which decodes to the input
        for factory in BUILTIN_COMPRESSORS.values():
            M = factory()
            PM = prefixfree_transform(M)
            assert PM.code(M.encode(s)) == PM.code_for_input(s)
            assert PM.decode(PM.code(M.encode(s))) == s

    def test_code_rejects_non_image_payloads(self):
        PM = prefixfree_transform(runlength_compressor())
        with pytest.raises(PreconditionError, match="not in the compressor's image"):
            PM.code("0")

    def test_decode_failure_modes(self):
        PM = prefixfree_transform(identity_compressor())
        assert PM.decode("10") is None  # truncated before the terminator
        assert PM.decode("0111") is None  # malformed doubled bit
        assert PM.decode("001011") is None  # length bits with leading zero
        assert PM.decode("1011" + "00") is None  # payload length mismatch

    @given(bits)
    def test_round_trip_through_all_machines(self, s):
        for factory in BUILTIN_COMPRESSORS.values():
            PM = prefixfree_transform(factory())
            code = PM.code_for_input(s)
            assert PM.decode(code) == s
            assert len(code) == PM.code_length(s)

    def test_code_set_is_prefix_free(self):
        # Oracle: in lexicographic order a prefix precedes its extensions
        # immediately, so checking adjacent pairs decides the whole set.
        PM = prefixfree_transform(identity_compressor())
        codes = sorted(
            PM.code_for_input(format(i, f"0{n}b") if n else "")
            for n in range(7)
            for i in range(2**n)
        )
        for a, b in zip(codes, codes[1:]):
            assert not b.startswith(a)

    def test_kraft_sum_exact_identity_value(self):
        PM = prefixfree_transform(identity_compressor())
        # Payload lengths contribute 2^-overhead each: 1/4 + 1/16 + 2/64
        # + 4/256 for lengths 0..4, and so on.
        assert PM.kraft_sum(0) == Fraction(1, 4)
        assert PM.kraft_sum(1) == Fraction(5, 16)
        assert PM.kraft_sum(3) == Fraction(11, 32)
        assert PM.kraft_sum(7) == Fraction(23, 64)

    def test_kraft_sum_stays_below_one(self):
        for factory in BUILTIN_COMPRESSORS.values():
            PM = prefixfree_transform(factory())
            assert PM.kraft_sum(9) <= 1


class TestPrecisionComplexity:
    def test_encoding_layout(self):
        assert grid_point_encoding((3,), 2) == "0001" + "110" + "0011"
        assert len(grid_point_encoding((1, 2), 3)) == 4 + 4 + 2 * 5

    def test_encoding_validation(self):
        with pytest.raises(PreconditionError):
            grid_point_encoding((), 2)
        with pytest.raises(PreconditionError):
            grid_point_encoding((1,) * 16, 2)
        with pytest.raises(PreconditionError):
            grid_point_encoding((1,), -1)
        with pytest.raises(PreconditionError):
            grid_point_encoding((9,), 1)  # 9 > 2^(r+1)

    def test_candidates_for_exact_points(self):
        assert precision_candidates((Fraction(1, 2),), 2) == [(3,), (4,), (5,)]
        assert precision_candidates((Fraction(0),), 2) == [(0,), (1,)]
        assert precision_candidates((Fraction(0), Fraction(1)), 1) == [
            (0, 3),
            (0, 4),
            (1, 3),
            (1, 4),
        ]

    def test_candidates_from_a_digit_stream(self):
        M = DigitMatrix(((0, 2),), BoundSeq.constant(3))
        assert precision_candidates(M, 1) == [(0,), (1,), (2,)]

    def test_negative_precision_raises(self):
        with pytest.raises(PreconditionError, match="precision must be nonnegative"):
            precision_candidates((Fraction(1, 3),), -4)

    def test_stream_too_short_raises(self):
        M = DigitMatrix(((0,),), BoundSeq.constant(3))
        with pytest.raises(PreconditionError, match="stream too short"):
            precision_candidates(M, 1)

    def test_identity_complexity_is_the_encoding_length(self):
        x = (Fraction(1, 2),)
        for r in (1, 2, 5):
            assert precision_complexity(x, r, identity_compressor()) == 2 * r + 7

    def test_half_at_precision_two(self):
        assert precision_complexity((Fraction(1, 2),), 2, identity_compressor()) == 11

    @given(
        x=st.lists(st.fractions(min_value=0, max_value=1, max_denominator=100), min_size=1, max_size=3),
        r=st.integers(min_value=0, max_value=12),
    )
    @example(x=[Fraction(0), Fraction(1)], r=0)
    def test_candidate_codes_are_the_frozen_encodings(self, x, r):
        expected = [grid_point_encoding(ks, r) for ks in precision_candidates(x, r)]
        assert _candidate_codes(x, r) == expected

    def test_candidate_codes_of_a_stream_and_their_errors(self):
        M = DigitMatrix(((0, 2), (1, 1)), BoundSeq.constant(3))
        assert _candidate_codes(M, 1) == [
            grid_point_encoding(ks, 1) for ks in precision_candidates(M, 1)
        ]
        # the dimension is checked by grid_point_encoding, after the candidates
        # (sixteen coordinates already pass the candidate cap)
        with pytest.raises(PreconditionError, match="dimension must lie in 1..15"):
            precision_complexity((), 1, identity_compressor())
        with pytest.raises(PreconditionError, match="65536 grid candidates exceed"):
            precision_complexity((Fraction(0),) * 16, 1, identity_compressor())
        with pytest.raises(PreconditionError, match="precision must be nonnegative"):
            precision_complexity((Fraction(1, 2),) * 16, -1, identity_compressor())

    @given(
        v=st.fractions(min_value=0, max_value=1, max_denominator=64),
        r=st.integers(min_value=1, max_value=6),
    )
    def test_candidates_really_approximate(self, v, r):
        top = 2 ** (r + 1)
        for ks in precision_candidates((v,), r):
            assert abs(Fraction(ks[0], top) - v) < Fraction(1, 2**r)
        # and every sufficiently close numerator is present
        for k in range(top + 1):
            if abs(Fraction(k, top) - v) < Fraction(1, 2 ** (r + 1)):
                assert (k,) in precision_candidates((v,), r)

    def test_candidate_cap(self):
        # 1/3 lies off every dyadic grid: a window of 4 numerators per axis
        assert _CANDIDATE_CAP == 4**6
        assert len(precision_candidates((Fraction(1, 3),) * 6, 2)) == 4**6
        with pytest.raises(PreconditionError, match="16384 grid candidates exceed the cap of 4096"):
            precision_candidates((Fraction(1, 3),) * 7, 2)

    def test_floats_are_refused(self):
        M = dictionary_compressor()
        with pytest.raises(ValueError, match="not a rational"):
            precision_complexity((0.1,), 8, M)
        with pytest.raises(ValueError, match="not a rational"):
            precision_candidates((Fraction(1, 2), 0.5), 4)
        # ints, Fractions, 'p/q' strings and digit streams read as before
        assert precision_complexity((1,), 8, M) == precision_complexity((Fraction(1),), 8, M)
        assert precision_complexity(("1/10",), 8, M) == precision_complexity((Fraction(1, 10),), 8, M)
        stream = DigitMatrix(((0, 2, 1, 0, 2, 2, 1, 0, 1, 2, 0, 1),), BoundSeq.constant(3))
        assert precision_complexity(stream, 8, M) == min(
            compress_len(M, grid_point_encoding(ks, 8)) for ks in precision_candidates(stream, 8)
        )

    def test_schnorr_dims_identity_envelope(self):
        lo, hi = schnorr_dims((Fraction(1, 2),), identity_compressor(), range(1, 11))
        assert hi == 9.0  # (2*1+7)/1
        assert lo == 2.7  # (2*10+7)/10
        with pytest.raises(PreconditionError):
            schnorr_dims((Fraction(1, 2),), identity_compressor(), [])
        with pytest.raises(PreconditionError):
            schnorr_dims((Fraction(1, 2),), identity_compressor(), [0, 1])


class TestCoCompressible:
    def test_all_zero_stream_window_arithmetic(self):
        # Run-length codes for 0^n cost 9 bits through n = 128 and 17
        # after; with s = 1/10 the first winning window is k = 2, where
        # n > 110 beats 9 + 2.
        flags = co_compressible_check(
            "0" * 512,
            runlength_compressor(),
            lambda k: 2 ** (k + 4),
            Fraction(1, 10),
            4,
        )
        assert flags == [False, False, True, True, True]

    def test_s_zero_never_wins(self):
        flags = co_compressible_check(
            "0" * 64, runlength_compressor(), lambda k: 2 ** (k + 4), Fraction(0), 1
        )
        assert flags == [False, False]

    def test_monotone_in_s(self):
        grid = [Fraction(n, 20) for n in range(0, 41, 5)]
        prev = None
        for s in grid:
            flags = co_compressible_check(
                "0" * 64, runlength_compressor(), lambda k: 2 ** (k + 4), s, 1
            )
            if prev is not None:
                assert all(a <= b for a, b in zip(prev, flags))
            prev = flags

    def test_against_naive_window_scan(self):
        # Oracle: direct double loop with no floor-based skipping.
        prefix = "01" * 32
        M = dictionary_compressor()
        s = Fraction(1, 2)
        g = lambda k: 2 ** (k + 2)
        want = []
        for k in range(4):
            want.append(
                any(
                    Fraction(compress_len(M, prefix[:n]) + k, n) < s
                    for n in range(g(k), g(k + 1))
                )
            )
        assert co_compressible_check(prefix, M, g, s, 3) == want

    def test_a_hit_ends_its_window(self):
        # a compressor outside the built-ins is measured through its encoder,
        # once per prefix the scan reaches
        calls = []
        M = Compressor("counted", lambda s: calls.append(len(s)) or s, lambda c: c)
        flags = co_compressible_check("0" * 16, M, lambda k: 4 * (k + 1), Fraction(2), 2)
        assert flags == [True, True, True]
        assert calls == [4, 8, 12]

    def test_s_must_be_rational(self):
        M = runlength_compressor()
        g = lambda k: 2 ** (k + 4)
        with pytest.raises(ValueError, match="not a rational"):
            co_compressible_check("0" * 64, M, g, 0.5, 1)
        assert co_compressible_check("0" * 64, M, g, "1/2", 1) == co_compressible_check(
            "0" * 64, M, g, Fraction(1, 2), 1
        )
        assert co_compressible_check("0" * 64, M, g, 1, 1) == [True, True]

    def test_input_validation(self):
        M = runlength_compressor()
        with pytest.raises(PreconditionError, match="k_max"):
            co_compressible_check("0" * 8, M, lambda k: k + 1, Fraction(1, 2), -1)
        with pytest.raises(PreconditionError, match="strictly increasing"):
            co_compressible_check("0" * 8, M, lambda k: 5, Fraction(1, 2), 1)
        with pytest.raises(PreconditionError, match="prefix shorter"):
            co_compressible_check("0" * 8, M, lambda k: 2 ** (k + 4), Fraction(1, 2), 1)
