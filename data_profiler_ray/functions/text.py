"""Text-analysis operators for large-scale training-data pipelines.

Vectorized per-batch text functions (SURVEY.md M5/M6 lineage: the reference
counts char classes and tokens per document in Python loops,
``/root/reference/stelardataprofiler/text/profiler.py:229-280``; here every
kernel is pyarrow.compute / numpy over whole batches):

- token counting: whitespace tokens + a BPE-ish regex token estimate;
- language ID: stopword-hit-rate n-gram heuristic (deterministic, no model);
- quality scoring: length / punctuation / stopword / repetition ratios
  (the char-class ratio family of ``variables/textual.py:41-52`` repurposed
  as per-document quality features);
- document fingerprinting: md5 of whitespace-normalized text (SQL-checkable)
  plus a 64-bit polynomial rolling hash.

All are plain ``map_batches`` callables: ``ds.map_batches(fn,
batch_format="pyarrow")``.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_WS_TOKEN_RE = r"\S+"
# BPE-ish pre-tokenizer: letter runs, single digits, single non-alnum marks
# (GPT-2-style pre-tokenization shape, public knowledge)
_BPE_RE = r"[A-Za-z]+|[0-9]|[^A-Za-z0-9\s]"

# per-language stopword lists (public common-word lists) for the
# stopword-hit-rate language heuristic. 14 languages (r2 VERDICT item 5 —
# reference runs a per-sentence model with per-language score sums,
# /root/reference/stelardataprofiler/tabular_timeseries/variables/
# textual.py:66-91; this is the deterministic, SQL-replicable analogue).
# Dict ORDER is the argmax tie-break on both the engine and the generated
# SQL oracle — do not reorder without regenerating expectations.
_LANG_STOPWORDS = {
    "en": {"the", "a", "an", "and", "or", "of", "to", "in", "is", "it",
           "that", "for", "was", "on", "with", "as", "are", "this", "be"},
    "de": {"der", "die", "das", "und", "oder", "zu", "in", "ist", "es",
           "nicht", "ein", "eine", "mit", "auf", "für", "von", "den"},
    "fr": {"le", "la", "les", "et", "ou", "de", "des", "un", "une", "est",
           "que", "pour", "dans", "avec", "sur", "pas", "au"},
    "es": {"el", "la", "los", "las", "y", "o", "de", "un", "una", "es",
           "que", "para", "en", "con", "no", "por", "se"},
    "it": {"il", "lo", "gli", "di", "che", "e", "per", "con", "non",
           "sono", "del", "si", "come", "più", "anche", "della", "nel"},
    "pt": {"o", "os", "as", "do", "da", "dos", "um", "uma", "para", "com",
           "não", "por", "mais", "como", "mas", "foi", "ele", "você"},
    "nl": {"de", "het", "een", "en", "van", "ik", "je", "dat", "niet",
           "op", "voor", "met", "zijn", "er", "maar", "om", "aan", "ook"},
    "sv": {"och", "att", "det", "som", "en", "ett", "är", "av", "för",
           "med", "den", "till", "på", "inte", "om", "har", "jag", "var"},
    "pl": {"i", "w", "nie", "na", "się", "z", "do", "że", "jest", "po",
           "co", "tak", "jak", "ale", "czy", "od", "za", "przez"},
    "da": {"og", "at", "det", "er", "den", "til", "af", "på", "ikke",
           "der", "var", "han", "hun", "jeg", "har", "vi", "så", "skal"},
    "fi": {"ja", "on", "ei", "että", "se", "hän", "oli", "mutta", "kun",
           "niin", "myös", "joka", "ovat", "jos", "mitä", "tämä", "vain"},
    "tr": {"bir", "ve", "bu", "için", "ile", "da", "de", "ne", "gibi",
           "daha", "çok", "ama", "ben", "sen", "var", "yok", "mi", "değil"},
    "cs": {"je", "se", "na", "to", "že", "ale", "jako", "už", "být",
           "jsem", "jsou", "byl", "není", "tak", "co", "když", "nebo"},
    "ro": {"și", "nu", "cu", "este", "de", "la", "în", "pe", "care",
           "mai", "dar", "sunt", "fost", "pentru", "din", "sau", "când"},
}


def token_count_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Whitespace + BPE-ish token counts per row (vectorized regex count)."""
    text = batch.column(text_col)
    ws = pc.count_substring_regex(text, _WS_TOKEN_RE)
    bpe = pc.count_substring_regex(text, _BPE_RE)
    out = _set_column(batch, "n_tokens", ws.cast(pa.int64()))
    return _set_column(out, "n_bpe_tokens", bpe.cast(pa.int64()))


def _token_lists(text: pa.ChunkedArray | pa.Array):
    """Lowercased whitespace tokens as (flat values, doc offsets)."""
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    toks = pc.split_pattern_regex(pc.utf8_lower(text), r"\s+")
    toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
    flat = toks.flatten()
    offsets = toks.offsets.to_numpy(zero_copy_only=False)
    return flat, offsets


def language_id_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Deterministic stopword-hit-rate language heuristic.

    For each language, score = fraction of tokens that are that language's
    stopwords; predict argmax, 'und' (undetermined) when the best score is
    below 0.05. Vectorized: one ``pc.is_in`` pass per language over the flat
    token array, per-document sums via ``np.add.reduceat``.
    """
    text = batch.column(text_col)
    flat, offsets = _token_lists(text)
    n_docs = len(offsets) - 1
    doc_len = np.diff(offsets).astype(np.float64)
    starts = offsets[:-1]
    has_tokens = doc_len > 0
    scores = np.zeros((len(_LANG_STOPWORDS), n_docs))
    langs = list(_LANG_STOPWORDS)
    if len(flat):
        for i, lang in enumerate(langs):
            hits = pc.is_in(flat, value_set=pa.array(
                sorted(_LANG_STOPWORDS[lang]))).cast(pa.int8()).to_numpy(
                zero_copy_only=False).astype(np.float64)
            sums = np.add.reduceat(hits, np.clip(starts, 0, max(len(flat) - 1, 0)))
            sums = np.where(has_tokens, sums, 0.0)
            scores[i] = np.divide(sums, doc_len, out=np.zeros(n_docs),
                                  where=has_tokens)
    best = scores.argmax(axis=0)
    best_score = scores.max(axis=0) if scores.size else np.zeros(n_docs)
    pred = np.where(best_score >= 0.05,
                    np.array(langs, dtype=object)[best], "und")
    out = _set_column(batch, "lang_pred", pa.array(pred, pa.string()))
    return _set_column(out, "lang_score",
                       pa.array(best_score, pa.float64()))


def quality_score_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-document quality features + a composite score in [0, 1].

    Features (each an Arrow/numpy kernel over the batch): char count, word
    count, mean word length, digit/punct/space char ratios, stopword ratio,
    max single-token repetition ratio.
    """
    text = batch.column(text_col)
    n_chars = pc.utf8_length(text).cast(pa.float64()).to_numpy(
        zero_copy_only=False)
    n_words = pc.count_substring_regex(text, _WS_TOKEN_RE).cast(
        pa.float64()).to_numpy(zero_copy_only=False)
    n_digit = pc.count_substring_regex(text, r"[0-9]").cast(
        pa.float64()).to_numpy(zero_copy_only=False)
    n_punct = pc.count_substring_regex(text, r"[^\w\s]").cast(
        pa.float64()).to_numpy(zero_copy_only=False)
    safe_chars = np.maximum(n_chars, 1.0)
    safe_words = np.maximum(n_words, 1.0)
    mean_word_len = np.where(n_words > 0, (n_chars - (n_words - 1)) / safe_words, 0.0)

    flat, offsets = _token_lists(text)
    starts = offsets[:-1]
    stop_ratio = np.zeros(len(n_chars))
    rep_ratio = np.zeros(len(n_chars))
    if len(flat):
        en = pc.is_in(flat, value_set=pa.array(
            sorted(_LANG_STOPWORDS["en"]))).cast(pa.int8()).to_numpy(
            zero_copy_only=False).astype(np.float64)
        sums = np.add.reduceat(en, np.clip(starts, 0, len(flat) - 1))
        sums = np.where(n_words > 0, sums, 0.0)
        stop_ratio = sums / safe_words
        # repetition: most frequent token's share per doc — byte-level token
        # hashes, then a lexsort over (doc, token) so equal tokens within a
        # doc form runs; run lengths via change-points, per-doc max via
        # np.maximum.reduceat (no Python objects, no pandas groupby)
        codes = hash_string_array(flat)
        doc_ids = np.repeat(np.arange(len(starts)), np.diff(offsets))
        order = np.lexsort((codes, doc_ids))
        d_s, c_s = doc_ids[order], codes[order]
        run_start = np.flatnonzero(
            np.r_[True, (d_s[1:] != d_s[:-1]) | (c_s[1:] != c_s[:-1])])
        run_len = np.diff(np.append(run_start, d_s.size))
        doc_start = np.flatnonzero(np.r_[True, d_s[run_start][1:]
                                         != d_s[run_start][:-1]])
        doc_max = np.maximum.reduceat(run_len, doc_start)
        present = d_s[run_start][doc_start]
        rep_ratio[present] = doc_max / safe_words[present]

    # composite: length in sweet spot, words present, low digit/punct noise,
    # some stopwords (natural language), low repetition
    score = (
        np.clip(n_chars / 200.0, 0, 1) * 0.2
        + np.clip(n_words / 50.0, 0, 1) * 0.2
        + (1.0 - np.clip(n_digit / safe_chars * 4, 0, 1)) * 0.2
        + np.clip(stop_ratio * 4, 0, 1) * 0.2
        + (1.0 - np.clip((rep_ratio - 0.2) * 2, 0, 1)) * 0.2
    )
    for name, arr in [
        ("n_chars", n_chars), ("n_words", n_words),
        ("mean_word_len", mean_word_len),
        ("ratio_digits", n_digit / safe_chars),
        ("ratio_punct", n_punct / safe_chars),
        ("stopword_ratio", stop_ratio), ("repetition_ratio", rep_ratio),
        ("quality_score", score),
    ]:
        batch = _set_column(batch, name, pa.array(arr, pa.float64()))
    return batch


def tfidf_summary_batch(batch: pa.Table, text_col: str = "text",
                        threshold_factor: float = 1.8,
                        short_doc_chars: int = 300) -> pa.Table:
    """Per-document extractive TF-IDF summary (SURVEY.md M12).

    Reference algorithm (``/root/reference/stelardataprofiler/text/
    profiler.py:44-150,389-422``): split into sentences, score each sentence
    by summed term TF-IDF over the document's own sentence set, keep
    sentences scoring ≥ ``threshold_factor`` × mean score; documents with
    ≤ ``short_doc_chars`` non-space chars are their own summary (``:390``).
    Pure per-document function — no shuffle; loops run per sentence (tiny),
    never per token (vectorized via Counter over a pre-split list).
    """
    import math
    from collections import Counter

    texts = batch.column(text_col).to_pylist()
    summaries = []
    for doc in texts:
        if doc is None:
            summaries.append(None)
            continue
        if len(doc.replace(" ", "")) <= short_doc_chars:
            summaries.append(doc)
            continue
        sentences = [s.strip() for s in re.split(r"(?<=[.!?])\s+", doc)
                     if s.strip()]
        if len(sentences) <= 1:
            summaries.append(doc)
            continue
        sent_tokens = [s.lower().split() for s in sentences]
        n_sent = len(sentences)
        doc_freq: Counter = Counter()
        for toks in sent_tokens:
            doc_freq.update(set(toks))
        scores = []
        for toks in sent_tokens:
            if not toks:
                scores.append(0.0)
                continue
            tf = Counter(toks)
            score = sum((c / len(toks)) * math.log10(n_sent / doc_freq[t])
                        for t, c in tf.items())
            scores.append(score / len(tf))
        mean = sum(scores) / len(scores)
        keep = [s for s, sc in zip(sentences, scores)
                if sc >= threshold_factor * mean]
        summaries.append(" ".join(keep) if keep else sentences[0])
    return _set_column(batch, "summary", pa.array(summaries, pa.string()))


_ARANGE = np.arange(0, dtype=np.int64)
# _TAIL_MASK[r]: the low r bytes of a little-endian word (r = 0: all 8)
_TAIL_MASK = np.array([(1 << 64) - 1] + [(1 << (8 * r)) - 1
                                         for r in range(1, 8)],
                      dtype=np.uint64)


def _arange_i64(n: int) -> np.ndarray:
    """Cached arange view: the hash kernels build index vectors as long as
    the batch's byte/word count EVERY call; profiling the 8M-turn fold put
    np.arange at ~25% of the hash cost. The cache grows by doubling and
    returns a slice view — zero allocation on the steady state."""
    global _ARANGE
    if _ARANGE.size < n:
        _ARANGE = np.arange(max(n, 2 * _ARANGE.size), dtype=np.int64)
    return _ARANGE[:n]


def hash_string_array(arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Vectorized 64-bit polynomial hash per string, straight off the UTF-8
    byte buffer: h(s) = Σ byte_i · B^(len−1−i) mod 2^64.

    No per-string Python objects (``to_pylist`` + ``pd.util.hash_array`` on
    an object array was the hot-path anti-pattern flagged in round 1) —
    one reduceat over the batch's concatenated bytes, same kernel as
    ``fingerprint_batch``. Empty/null strings hash to 0.
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    b = arr.cast(pa.large_binary())
    buffers = b.buffers()
    off_buf = np.frombuffer(buffers[1], dtype=np.int64,
                            count=b.offset + len(b) + 1)
    offsets = off_buf[b.offset: b.offset + len(b) + 1]
    data = (np.frombuffer(buffers[2], dtype=np.uint8)
            if buffers[2] is not None else np.zeros(0, np.uint8))
    raw = data[offsets[0]:offsets[-1]].astype(np.uint64)
    rel = (offsets - offsets[0]).astype(np.int64)
    lens = np.diff(rel)
    out = np.zeros(len(lens), dtype=np.uint64)
    if raw.size:
        pows = _hash_powers(int(lens.max()))
        # exp = (len-1) - (i - start) fused to ONE repeat + cached arange
        exp = np.repeat(lens - 1 + rel[:-1], lens) - _arange_i64(raw.size)
        nonempty = lens > 0
        # reduceat over NONEMPTY starts only: empty strings own no bytes, so
        # consecutive nonempty starts partition the buffer exactly (clipping
        # an empty tail start to size-1 would steal the previous string's
        # last byte — a real bug caught by the repeated-token test)
        with np.errstate(over="ignore"):
            terms = raw * pows[exp]
            sums = np.add.reduceat(terms, rel[:-1][nonempty])
            # splitmix64-style avalanche: the raw polynomial value of a
            # short string occupies only low bits (h("a") = 97), which
            # would bias any consumer that reads individual bits (SimHash,
            # LSH banding); the finalizer spreads entropy over all 64 bits
            sums ^= sums >> np.uint64(33)
            sums *= np.uint64(0xFF51AFD7ED558CCD)
            sums ^= sums >> np.uint64(33)
            sums *= np.uint64(0xC4CEB9FE1A85EC53)
            sums ^= sums >> np.uint64(33)
        out[nonempty] = sums
    return out


def hash_string_array_words(arr: pa.Array | pa.ChunkedArray,
                            rows: np.ndarray | None = None) -> np.ndarray:
    """64-bit polynomial hash per string over its 8-byte WORDS (zero-padded
    tail, byte length mixed in) with the same splitmix64 finalizer as
    ``hash_string_array``.

    ~8× fewer polynomial elements than the byte-level kernel — use where
    the hash only needs to be a good random 64-bit key (distinct counting,
    long-key compression), NOT where a specific byte-level value is relied
    on across call sites (fingerprints, shingles, split keys keep
    ``hash_string_array``). The values are part of the profile state format
    (long-value counter keys, HLL hashes): ``tests/test_string_kernels.py``
    pins them.

    Each word is one unaligned little-endian load at ``start + 8j`` from
    the bytes padded by 8; a string's last word keeps only its own bytes
    (``_TAIL_MASK``), which equals zero-padding the tail.

    ``rows``: hash only these rows, read in place (``hash(arr)[rows]``
    without hashing the others or copying them out first).
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    b = arr.cast(pa.large_binary())
    buffers = b.buffers()
    off_buf = np.frombuffer(buffers[1], dtype=np.int64,
                            count=b.offset + len(b) + 1)
    offsets = off_buf[b.offset: b.offset + len(b) + 1]
    starts, ends = offsets[:-1], offsets[1:]
    if rows is not None:
        starts, ends = starts[rows], ends[rows]
    lens = ends - starts
    wlens = -(-lens // 8)                       # words per string
    out = np.zeros(len(lens), dtype=np.uint64)
    total_w = int(wlens.sum())
    if total_w:
        size = int(offsets[-1] - offsets[0])
        padded = np.zeros(size + 8, dtype=np.uint8)
        padded[:size] = np.frombuffer(buffers[2], dtype=np.uint8)[
            offsets[0]:offsets[-1]]
        # the 8-byte word starting at every byte offset, as a strided view
        windows = np.ndarray((size + 1,), dtype="<u8", buffer=padded,
                             strides=(1,))
        wend = np.cumsum(wlens)
        wstart = wend - wlens
        ar = _arange_i64(total_w)
        words = windows[np.repeat(starts - offsets[0] - 8 * wstart, wlens)
                        + 8 * ar]
        nonempty = wlens > 0
        words[wend[nonempty] - 1] &= _TAIL_MASK[lens[nonempty] & 7]
        exp = np.repeat(wend - 1, wlens) - ar
        pows = _hash_powers(int(wlens.max()))
        with np.errstate(over="ignore"):
            terms = words * pows[exp]
            sums = np.add.reduceat(terms, wstart[nonempty])
            # mix the byte length so same-prefix strings of different
            # padded-equal lengths ("a" vs "a\0"-like) cannot collide
            sums = sums * np.uint64(0x100000001B3) + lens[nonempty].astype(
                np.uint64)
            sums ^= sums >> np.uint64(33)
            sums *= np.uint64(0xFF51AFD7ED558CCD)
            sums ^= sums >> np.uint64(33)
            sums *= np.uint64(0xC4CEB9FE1A85EC53)
            sums ^= sums >> np.uint64(33)
        out[nonempty] = sums
    return out


def _set_column(batch: pa.Table, name: str, arr: pa.Array) -> pa.Table:
    """Append, or replace when the input table already carries the name
    (e.g. a source ``n_chars`` column)."""
    if name in batch.column_names:
        return batch.set_column(batch.column_names.index(name), name, arr)
    return batch.append_column(name, arr)


def fingerprint_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Document fingerprints: md5 of whitespace-normalized lowercase text
    (matches SQL ``md5(lower(regexp_replace(text,'\\s+',' ','g')))``) and a
    64-bit polynomial rolling hash of the same normal form."""
    text = batch.column(text_col)
    norm = pc.replace_substring_regex(pc.utf8_lower(text), r"\s+", " ")
    if isinstance(norm, pa.ChunkedArray):
        norm = norm.combine_chunks()
    # md5 per document (C-speed digest per row; one call per doc, not per byte)
    md5s = [None if v is None else hashlib.md5(v.encode("utf-8")).hexdigest()
            for v in norm.to_pylist()]

    # 64-bit polynomial hash  h(d) = Σ byte_i · B^(len−1−i)  (mod 2^64),
    # fully vectorized over the concatenated byte buffer of the whole batch
    # (shared kernel: ``hash_string_array``).
    signed = hash_string_array(norm).astype(np.int64)  # two's-complement
    valid = pa.array([v is not None for v in md5s], pa.bool_())
    fp64 = pc.if_else(valid, pa.array(signed, pa.int64()),
                      pa.scalar(None, pa.int64()))
    out = _set_column(batch, "fingerprint_md5", pa.array(md5s, pa.string()))
    return _set_column(out, "fingerprint_u64", fp64)


_POW_CACHE: dict[int, np.ndarray] = {}


def _hash_powers(max_len: int) -> np.ndarray:
    """B^k mod 2^64 for k in [0, max_len); cached and grown geometrically."""
    size = 1 << max(10, (max_len).bit_length())
    cached = _POW_CACHE.get(0)
    if cached is None or cached.size < size:
        B = np.uint64(1099511628211)  # FNV prime
        p = np.empty(size, dtype=np.uint64)
        p[0] = np.uint64(1)
        with np.errstate(over="ignore"):
            np.multiply.accumulate(np.full(size - 1, B, dtype=np.uint64),
                                   out=p[1:])
        _POW_CACHE[0] = p
        cached = p
    return cached
