"""Differential tests of the string-column kernels against pure-Python
references of their documented semantics: ``StringAccumulator``'s text
stats (folded once per distinct value), the word hash
``hash_string_array_words`` (its values are part of the state format) and
the numeric probe's head-sample reject."""

import pickle
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from data_profiler_ray.functions.text import hash_string_array_words
from data_profiler_ray.state.column import (_NUMBER_HINT, StringAccumulator,
                                            _value_counts)

_M = 1 << 64

# ASCII whitespace and classes, their neighbours (\x1c-\x1f, NBSP, NEL),
# multi-byte UTF-8 and a NUL
_ALPHABET = list("aZ5_!~ \t\n\v\f\r") + ["\x1c", "\x1f", "\xa0", "\x85",
                                         "é", "€", "漢", "😀", "\x00"]
_value = st.one_of(st.none(),
                   st.text(_ALPHABET, max_size=12),
                   st.text(_ALPHABET, min_size=65, max_size=90))


def _reference(values: list) -> dict:
    """The text stats of every non-null value, row by row: char classes
    are ASCII characters; words are the non-empty runs between the bytes
    9-13 and 32 of a value's UTF-8 encoding, measured in bytes."""
    rows = [v for v in values if v is not None]
    data = "".join(rows)
    words, per_value = [], []
    for v in rows:
        runs = [w for w in re.split(rb"[\t\n\v\f\r ]", v.encode()) if w]
        words += [len(w) for w in runs]
        per_value.append(len(runs))
    return {
        "total_chars": len(data),
        "n_digit": sum("0" <= c <= "9" for c in data),
        "n_upper": sum("A" <= c <= "Z" for c in data),
        "n_space": sum(c in "\t\n\v\f\r " for c in data),
        "n_punct": sum(33 <= ord(c) < 127 and not c.isalnum() and c != "_"
                       for c in data),
        "char_len": [len(v) for v in rows],
        "word_len": words,
        "words_per_value": per_value,
    }


def _check_dist(mom, kll, want: list) -> None:
    assert mom.n == len(want)
    if not want:
        return
    x = np.asarray(want, dtype=np.float64)
    assert (mom.vmin, mom.vmax, mom.vsum) == (x.min(), x.max(), x.sum())
    assert mom.mean == pytest.approx(x.mean())
    if len(want) > 1:
        assert mom.variance == pytest.approx(x.var(ddof=1), abs=1e-9)
    if kll is not None:
        q = [0.1, 0.25, 0.5, 0.75, 0.9]
        assert kll.quantile(q) == pytest.approx(np.quantile(x, q))


def _text_state(acc: StringAccumulator) -> bytes:
    """The pickled text-stat fields of ``acc``."""
    return pickle.dumps([getattr(acc, f) for f in _TEXT_FIELDS])


_TEXT_FIELDS = ("total_chars", "n_digit", "n_upper", "n_space", "n_punct",
                "char_len", "char_len_kll", "word_len", "word_len_kll",
                "words_per_value")


@st.composite
def _batches(draw):
    """Values with heavy repeats, cut into 1-3 batches of one sliced
    array, fed one by one or as one ChunkedArray."""
    pool = draw(st.lists(_value, min_size=1, max_size=6))
    values = draw(st.lists(st.one_of(_value, st.sampled_from(pool)),
                           max_size=60))
    values += [pool[0]] * draw(st.sampled_from([0, 1, 300]))
    pad = draw(st.integers(0, 3))
    arr = pa.array(["pad"] * pad + values + ["pad"] * pad,
                   pa.string()).slice(pad, len(values))
    cuts = sorted(draw(st.lists(st.integers(0, len(values)), max_size=2)))
    pieces = [arr.slice(a, b - a) for a, b in zip([0] + cuts,
                                                  cuts + [len(values)])]
    chunked = draw(st.booleans())
    return values, ([pa.chunked_array(pieces, pa.string())] if chunked
                    else pieces)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_batches())
def test_text_stats_match_row_by_row_reference(case):
    """The text stats folded once per distinct value, weighted by its
    count, equal the row-by-row reference, over any batching."""
    values, batches = case
    acc = StringAccumulator("t")
    for b in batches:
        acc.update(b)
    want = _reference(values)
    for f in _TEXT_FIELDS[:5]:
        assert getattr(acc, f) == want[f], f
    _check_dist(acc.char_len, acc.char_len_kll, want["char_len"])
    _check_dist(acc.word_len, acc.word_len_kll, want["word_len"])
    _check_dist(acc.words_per_value, None, want["words_per_value"])


def _n_chars(values: pa.Array) -> np.ndarray:
    """Each value's length in chars, as ``StringAccumulator.update`` hands
    it to ``_text``."""
    return pc.utf8_length(values).to_numpy(zero_copy_only=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(_value, max_size=40), st.integers(1, 50))
def test_text_fold_per_distinct_value_equals_fold_per_row(values, repeat):
    """``_text`` over a batch's distinct values with their counts leaves
    the same state, to the byte, as over every row with count 1."""
    valid = pa.array(values * repeat, pa.string()).drop_null()
    if not len(valid):
        return
    by_value, by_row = StringAccumulator("t"), StringAccumulator("t")
    keys, counts = _value_counts(valid)
    by_value._text(keys, counts, _n_chars(keys))
    by_row._text(valid, np.ones(len(valid), np.int64), _n_chars(valid))
    assert _text_state(by_value) == _text_state(by_row)


def test_values_of_a_mebibyte_fold_row_by_row():
    """A batch holding a value of 1 MiB or more folds its text stats row
    by row: a word or length past the bincount range then reaches the
    moments and the KLL in row order, as before values were counted."""
    values = ["b c", "a" * (1 << 20), "b c", None, "d"]
    acc = StringAccumulator("t")
    acc.update(pa.array(values))
    valid = pa.array(values).drop_null()
    by_row = StringAccumulator("t")
    by_row._text(valid, np.ones(len(valid), np.int64), _n_chars(valid))
    assert _text_state(acc) == _text_state(by_row)
    assert acc.word_len_kll.levels[0].tolist() == [1, 1, 1 << 20, 1, 1, 1]
    want = _reference(values)
    _check_dist(acc.word_len, acc.word_len_kll, want["word_len"])
    _check_dist(acc.char_len, acc.char_len_kll, want["char_len"])


def _word_hash(b: bytes) -> int:
    """The word hash of one value: the 8-byte little-endian words (the
    last zero-padded) as a polynomial in the FNV prime, the byte length
    mixed in, then the splitmix64 finalizer; 0 for an empty value."""
    if not b:
        return 0
    h = 0
    for i in range(0, len(b), 8):
        h = (h * 1099511628211 + int.from_bytes(b[i:i + 8], "little")) % _M
    h = (h * 0x100000001B3 + len(b)) % _M
    h ^= h >> 33
    h = h * 0xFF51AFD7ED558CCD % _M
    h ^= h >> 33
    h = h * 0xC4CEB9FE1A85EC53 % _M
    return h ^ (h >> 33)


_HASH_VALUES = (["abcdefghijklmnopq"[:n] for n in range(18)]
                + ["é" * n for n in range(9)] + ["漢字 😀\x00", None])


@pytest.mark.parametrize("layout", ["plain", "sliced", "chunked", "rows"])
def test_word_hash_matches_reference(layout):
    """Every length 0-17, multi-byte values, a NUL and a null (hashing to
    0), whole, sliced out of a longer array, in two chunks or picked by
    row number from between other values."""
    arr, rows = pa.array(_HASH_VALUES, pa.string()), None
    if layout == "sliced":
        arr = pa.array(["pad value"] + _HASH_VALUES + ["tail"]).slice(
            1, len(_HASH_VALUES))
    elif layout == "chunked":
        arr = pa.chunked_array([arr.slice(0, 7), arr.slice(7)])
    elif layout == "rows":
        arr = pa.array(["pad"] + [x for v in _HASH_VALUES
                                  for x in (v, "pad value")]).slice(1)
        rows = np.arange(0, 2 * len(_HASH_VALUES), 2)
    want = [_word_hash((v or "").encode()) for v in _HASH_VALUES]
    assert hash_string_array_words(arr, rows).tolist() == want


def test_word_hash_pinned_values():
    """The state format's long-value keys and HLL hashes hold these
    values: a change here needs a new ``STATE_FORMAT``."""
    got = hash_string_array_words(pa.array(
        ["", "a", "abcdefgh", "abcdefghi", "héllo wörld"])).tolist()
    assert got == [0, 0x30324D5581FE3C93, 0xC513ABC755245D19,
                   0x68FD4BB01E7BABAB, 0x923B4A70FB9F71E0]


_NUMERIC_LIKE = st.sampled_from(
    ["١٢", "１２", "Infinity", "iNf", "-INF", "nan", ".", "0x10", "+", "e5",
     "1e5", " 1 ", "1_000", "∞", "²", "True", "", " ", "1,000", "½", "⑤"])


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), _NUMERIC_LIKE,
                 st.from_regex(r"\A\s*[-+]?\d*\.?\d*(e[-+]?\d+)?\s*\Z")))
def test_numeric_reject_never_rejects_a_number(s):
    """The numeric probe's head reject (no ASCII digit, no "inf") only
    rejects strings that pandas coerces to NaN."""
    if not pc.match_substring_regex(pa.array([s]), _NUMBER_HINT)[0].as_py():
        assert pd.to_numeric(pd.Series([s]), errors="coerce").isna().all()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(_NUMERIC_LIKE, st.integers().map(str),
                          st.floats(allow_nan=False).map(str)),
                min_size=1, max_size=20))
def test_numeric_probe_equals_pandas_verdict(values):
    """The numeric flag is pandas' verdict over the whole batch."""
    acc = StringAccumulator("c")
    acc.update(pa.array(values))
    want = not pd.to_numeric(pd.Series(values), errors="coerce").isna().any()
    assert acc.all_numeric is want
