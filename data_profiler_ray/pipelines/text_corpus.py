"""Corpus-level text profile (SURVEY.md A18 / §3.3).

The reference's multi-text flow (``/root/reference/stelardataprofiler/text/
profiler.py:538-1111``) loops files in one process, updating corpus
accumulators (languages Counter :897-901, distinct-word set :776, term-freq
Counter :1014, sentiment buckets :979-990, char ratio sums :803-805). Here
the same rollup is the canonical Ray partial+final pattern: one
``map_batches`` pass emits a small pickled accumulator per batch, merged on
the driver (partials are KB-sized regardless of corpus size).

Model-dependent reference stages map to deterministic equivalents:
spaCy/ftlangdetect language-ID → the stopword-hit heuristic
(functions/text.py); VADER sentiment → the real VADER compound
(functions/text_nlp.py:vader_compound — graded lexicon subset + published
rule set; same 4-bucket histogram as ``text/profiler.py:979-990``);
NER → the gazetteer+shape NerTagger (``ner=True``); LDA → the distributed
variational-Bayes model in functions/lda.py (``n_topics=...``).
"""

from __future__ import annotations

import pickle
import re
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..functions.text import _LANG_STOPWORDS
from ..state.hll import HLLSketch
from ..state.topk import TopKCounter

_SENT_SPLIT = r"[.!?]+"


class _CorpusState:
    def __init__(self):
        self.n_texts = 0
        self.n_words = 0
        self.n_sentences = 0
        self.n_chars = 0
        self.n_upper = 0
        self.n_digit = 0
        self.n_punct = 0
        self.terms = TopKCounter(cap=65_536)
        self.words_hll = HLLSketch()
        self.languages: Counter = Counter()
        self.sent_sum = 0.0
        self.sent_buckets = np.zeros(4, dtype=np.int64)  # (-1,-.5,0,.5,1)
        self.entity_labels: Counter = Counter()
        self.entity_terms = TopKCounter(cap=65_536)

    def merge(self, o: "_CorpusState") -> None:
        self.n_texts += o.n_texts
        self.n_words += o.n_words
        self.n_sentences += o.n_sentences
        self.n_chars += o.n_chars
        self.n_upper += o.n_upper
        self.n_digit += o.n_digit
        self.n_punct += o.n_punct
        self.terms.merge(o.terms)
        self.words_hll.merge(o.words_hll)
        self.languages.update(o.languages)
        self.sent_sum += o.sent_sum
        self.sent_buckets += o.sent_buckets
        self.entity_labels.update(o.entity_labels)
        self.entity_terms.merge(o.entity_terms)


class _CorpusPartial:
    """map_batches callable emitting one pickled _CorpusState per batch.

    ``lang_method``: 'trigram' (default, VERDICT r4 item 3) classifies each
    text with the Cavnar–Trenkle scorer in per-sentence score-sum mode —
    the reference's per-sentence detection feeding per-language score sums
    (text/profiler.py:283-313) — and covers languages the stopword sets
    don't (hu/no/id). 'stopword' keeps the vectorized hit-rate heuristic
    (the SQL-oracled variant, functions/text.py)."""

    def __init__(self, text_col: str = "text", ner: bool = False,
                 lang_method: str = "trigram"):
        self.text_col = text_col
        self.lang_method = lang_method
        self.lang_sets = {k: pa.array(sorted(v))
                          for k, v in _LANG_STOPWORDS.items()}
        # stateful scorers built once per actor (ST1 pattern)
        self.trigram = None
        if lang_method == "trigram":
            from ..functions.langid_trigram import TrigramLangID
            self.trigram = TrigramLangID(text_col=text_col,
                                         per_sentence=True)
        self.tagger = None
        if ner:
            from ..functions.text_nlp import NerTagger
            self.tagger = NerTagger(text_col=text_col)

    def __call__(self, batch: pa.Table) -> pa.Table:
        st = _CorpusState()
        text = batch.column(self.text_col).drop_null()
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        st.n_texts = len(text)
        if len(text):
            st.n_chars = int(pc.sum(pc.utf8_length(text)).as_py() or 0)
            st.n_upper = int(pc.sum(
                pc.count_substring_regex(text, r"[A-Z]")).as_py() or 0)
            st.n_digit = int(pc.sum(
                pc.count_substring_regex(text, r"[0-9]")).as_py() or 0)
            st.n_punct = int(pc.sum(
                pc.count_substring_regex(text, r"[^\w\s]")).as_py() or 0)
            st.n_sentences = int(pc.sum(pc.count_substring_regex(
                text, _SENT_SPLIT)).as_py() or 0)

            toks = pc.split_pattern_regex(pc.utf8_lower(text), r"\s+")
            if isinstance(toks, pa.ChunkedArray):
                toks = toks.combine_chunks()
            flat = toks.flatten()
            offsets = toks.offsets.to_numpy(zero_copy_only=False)
            vc = flat.value_counts()
            vals = vc.field("values")
            counts = vc.field("counts").to_numpy(zero_copy_only=False)
            st.n_words = int(counts.sum())
            st.terms.update_counts(vals, counts)
            st.words_hll.update(vals.to_numpy(zero_copy_only=False))

            if self.trigram is not None:
                # language per text: per-sentence trigram score sums
                for doc in text.to_pylist():
                    st.languages[self.trigram.classify_document(doc)[0]] += 1
            else:
                # language per text (stopword-hit heuristic, per-doc argmax)
                doc_len = np.diff(offsets).astype(np.float64)
                has = doc_len > 0
                starts = np.clip(offsets[:-1], 0, max(len(flat) - 1, 0))
                langs = list(self.lang_sets)
                scores = np.zeros((len(langs), len(doc_len)))
                for i, lang in enumerate(langs):
                    hits = pc.is_in(
                        flat, value_set=self.lang_sets[lang]).cast(
                        pa.int8()).to_numpy(
                        zero_copy_only=False).astype(np.float64)
                    s = np.add.reduceat(hits, starts)
                    scores[i] = np.divide(np.where(has, s, 0.0), doc_len,
                                          out=np.zeros_like(doc_len),
                                          where=has)
                best = scores.argmax(axis=0)
                best_score = scores.max(axis=0)
                pred = np.where(best_score >= 0.05,
                                np.array(langs, dtype=object)[best],
                                "unknown")
                st.languages.update(Counter(pred.tolist()))

            # sentiment per text: the REAL VADER compound (graded lexicon
            # + published rule set, functions/text_nlp.py:vader_compound) —
            # the reference's sentiment buckets are over this same score
            # (text/profiler.py:979-990)
            from ..functions.text_nlp import vader_compound
            score = vader_compound(text)
            st.sent_sum = float(score.sum())
            edges = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
            idx = np.clip(np.searchsorted(edges, score, side="left") - 1, 0, 3)
            st.sent_buckets += np.bincount(idx, minlength=4).astype(np.int64)

            # NER rollup (reference corpus entity counts,
            # text/profiler.py:449-465): label distribution + entity terms
            if self.tagger is not None:
                ent_counts: Counter = Counter()
                for doc in text.to_pylist():
                    for e in self.tagger._doc_entities(doc):
                        st.entity_labels[e["label"]] += 1
                        ent_counts[f'{e["label"]}:{e["text"]}'] += 1
                st.entity_terms.update_counts(
                    pa.array(list(ent_counts), pa.string()),
                    np.fromiter(ent_counts.values(), dtype=np.int64,
                                count=len(ent_counts)))
        payload = pickle.dumps(st, protocol=pickle.HIGHEST_PROTOCOL)
        return pa.table({"state": pa.array([payload], pa.large_binary())})


def profile_text_corpus(ds: "ray.data.Dataset", text_col: str = "text",
                        top_k_terms: int = 25,
                        n_topics: int | None = None,
                        lda_passes: int = 3,
                        ner: bool = False,
                        lang_method: str = "trigram") -> dict:
    """Corpus rollup → reference-shaped dict (text/profiler.py:662-696).

    ``n_topics``: fit the REAL distributed variational-Bayes LDA
    (functions/lda.py) over the corpus and add a ``topics`` entry
    (reference emits LDA topic top-10 tokens, text/profiler.py:424-440).
    ``ner``: run the gazetteer+shape NerTagger per document inside the
    same partial pass and add an ``entities`` section (label distribution
    + top typed entities; reference NER rollup text/profiler.py:449-465)."""
    import datetime
    t0 = datetime.datetime.now()
    partials = ds.select_columns([text_col]).map_batches(
        _CorpusPartial, fn_constructor_kwargs=dict(text_col=text_col,
                                                   ner=ner,
                                                   lang_method=lang_method),
        batch_format="pyarrow", concurrency=(1, 8))
    st = _CorpusState()
    for b in partials.iter_batches(batch_format="pyarrow"):
        for blob in b.column("state").to_pylist():
            st.merge(pickle.loads(blob))
    topics = None
    if n_topics:
        from ..functions.lda import bucket_examples, lda_fit, lda_top_buckets
        model = lda_fit(ds, text_col=text_col, n_topics=n_topics,
                        n_passes=lda_passes)
        ex = bucket_examples(ds, text_col=text_col,
                             vocab_size=model["vocab_size"])
        topics = [{"topic": k,
                   "top_words": [ex.get(int(b), f"bucket_{int(b)}")
                                 for b in row]}
                  for k, row in enumerate(lda_top_buckets(model, 10))]
    t1 = datetime.datetime.now()
    total_lang = sum(st.languages.values()) or 1
    nc = st.n_chars or 1
    return {
        "analysis": {"title": "text corpus", "date_start": t0.isoformat(),
                     "date_end": t1.isoformat(), "duration": str(t1 - t0)},
        "corpus": {
            "profiler_type": "TextCorpus",
            "num_texts": st.n_texts,
            "num_words": st.n_words,
            "num_sentences": st.n_sentences,
            "num_characters": st.n_chars,
            "num_distinct_words": (st.terms.n_distinct()
                                   if not st.terms.overflowed
                                   else st.words_hll.estimate()),
            "ratio_uppercase": st.n_upper / nc,
            "ratio_digits": st.n_digit / nc,
            "ratio_special_characters": st.n_punct / nc,
            "term_frequency": [{"term": t, "count": int(c)}
                               for t, c in st.terms.top_k(top_k_terms)],
            "languages": {k: v / total_lang
                          for k, v in sorted(st.languages.items())},
            "sentiment": {
                "mean": st.sent_sum / st.n_texts if st.n_texts else 0.0,
                "buckets": {"(-1,-0.5)": int(st.sent_buckets[0]),
                            "(-0.5,0)": int(st.sent_buckets[1]),
                            "(0,0.5)": int(st.sent_buckets[2]),
                            "(0.5,1)": int(st.sent_buckets[3])},
            },
            **({"topics": topics} if topics is not None else {}),
            **({"entities": {
                "label_distribution": dict(sorted(st.entity_labels.items())),
                "top_entities": [
                    {"label": t.split(":", 1)[0],
                     "text": t.split(":", 1)[1], "count": int(c)}
                    for t, c in st.entity_terms.top_k(top_k_terms)],
            }} if ner else {}),
        },
    }
