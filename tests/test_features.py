import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refdoc.corpus import RefactoringType as RT
from refdoc.errors import EmptyCorpus, SingleClass
from refdoc.features import (
    FISHER_EPS,
    build_vocabulary,
    count_ngrams,
    extract_ngrams,
    fisher_scores,
    vectorize,
    vectors_to_csr,
)
from refdoc.synthetic import generate_corpus
from refdoc.textprep import preprocess


def two_doc_vocab():
    docs = [["extract", "method"], ["rename", "method"]]
    labels = [RT.EXTRACT_METHOD, RT.RENAME_METHOD]
    return docs, labels, build_vocabulary(docs, labels, n_max=1, k_select=10)


def brute_force_fisher(docs, labels, vocab):
    """Straightforward loop evaluation of the Fisher formula."""
    classes = sorted(set(labels), key=lambda t: t.value)
    n_docs = len(docs)
    values = []
    for tokens in docs:
        counts = count_ngrams(tokens, vocab.n_max)
        values.append({vocab.index[g]: c * vocab.idf[vocab.index[g]]
                       for g, c in counts.items() if g in vocab.index})
    scores = []
    for j in range(len(vocab.ngrams)):
        mu_all = 0.0
        for i in range(n_docs):
            mu_all += values[i].get(j, 0.0)
        mu_all /= n_docs
        num = 0.0
        den = 0.0
        for cls in classes:
            rows = [i for i, lab in enumerate(labels) if lab == cls]
            n_k = len(rows)
            mu_k = 0.0
            for i in rows:
                mu_k += values[i].get(j, 0.0)
            mu_k /= n_k
            ss = 0.0
            for i in rows:
                d = values[i].get(j, 0.0) - mu_k
                ss += d * d
            diff = mu_k - mu_all
            num += n_k * (diff * diff)
            den += n_k * (ss / n_k)
        scores.append(num / (den + FISHER_EPS))
    return np.array(scores)


def brute_force_vectorize(tokens, vocab):
    """Positional row: column p holds feature selected[p]."""
    column = {int(f): p for p, f in enumerate(vocab.selected)}
    weights = {}
    for n in range(1, vocab.n_max + 1):
        for i in range(len(tokens) - n + 1):
            gram = tuple(tokens[i:i + n])
            fid = vocab.index.get(gram)
            if fid in column:
                col = column[fid]
                weights[col] = weights.get(col, 0.0) + float(vocab.idf[fid])
    norm = math.sqrt(sum(w * w for w in weights.values()))
    if norm == 0.0:
        return {}
    return {col: w / norm for col, w in weights.items()}


def test_idf_matches_smoothing_formula():
    _, _, vocab = two_doc_vocab()
    assert vocab.idf[vocab.index[("method",)]] == pytest.approx(1.0, abs=1e-12)
    assert vocab.idf[vocab.index[("extract",)]] == \
        pytest.approx(math.log(3 / 2) + 1, abs=1e-12)


def test_idf_floor_for_ubiquitous_feature():
    _, _, vocab = two_doc_vocab()
    assert vocab.idf[vocab.index[("method",)]] == 1.0
    assert np.all(vocab.idf >= 1.0)


def test_k_select_clamps_to_vocabulary_size():
    _, _, vocab = two_doc_vocab()
    assert set(int(f) for f in vocab.selected) == set(range(len(vocab.ngrams)))


def test_vectorize_weights_and_normalization():
    docs, _, vocab = two_doc_vocab()
    vec = vectorize(["extract", "method"], vocab)
    pre = {vocab.columns[("extract",)]: math.log(3 / 2) + 1,
           vocab.columns[("method",)]: 1.0}
    norm = math.sqrt(sum(w * w for w in pre.values()))
    assert vec.keys() == pre.keys()
    for col, w in pre.items():
        assert vec[col] == pytest.approx(w / norm, abs=1e-12)


def test_vectorize_out_of_vocabulary_is_empty():
    _, _, vocab = two_doc_vocab()
    assert vectorize(["unheard", "words"], vocab) == {}


def test_vectorize_counts_duplicates():
    docs = [["move", "move"], ["rename", "name"]]
    labels = [RT.MOVE_METHOD, RT.RENAME_METHOD]
    vocab = build_vocabulary(docs, labels, n_max=1, k_select=10)
    col = vocab.columns[("move",)]
    vec = vectorize(["move", "move"], vocab)
    assert vec == {col: pytest.approx(1.0)}  # single nonzero, normalized
    # pre-normalization TF is 2: compare against a one-occurrence doc
    half = vectorize(["move", "oov"], vocab)
    assert half == {col: pytest.approx(1.0)}


def test_fisher_constant_feature_scores_zero():
    _, _, vocab = two_doc_vocab()
    assert vocab.fisher[vocab.index[("method",)]] == 0.0


def test_fisher_separating_feature_hits_epsilon_guard():
    _, _, vocab = two_doc_vocab()
    score = vocab.fisher[vocab.index[("extract",)]]
    assert np.isfinite(score)
    assert score > 1e9  # zero within-class variance forces a huge score


def test_fisher_matches_brute_force_on_toy_corpus():
    docs = [["extract", "method", "extract"], ["extract", "code"],
            ["rename", "method"], ["rename", "rename", "name"]]
    labels = [RT.EXTRACT_METHOD, RT.EXTRACT_METHOD,
              RT.RENAME_METHOD, RT.RENAME_METHOD]
    vocab = build_vocabulary(docs, labels, n_max=2, k_select=100)
    expected = brute_force_fisher(docs, labels, vocab)
    assert np.max(np.abs(vocab.fisher - expected)) <= 1e-9


def test_empty_corpus_rejected():
    with pytest.raises(EmptyCorpus):
        build_vocabulary([], [], n_max=1, k_select=5)


def test_single_class_rejected():
    with pytest.raises(SingleClass):
        build_vocabulary([["a"], ["b"]], [RT.MOVE_METHOD, RT.MOVE_METHOD],
                         n_max=1, k_select=5)


def test_n_max_out_of_range_rejected():
    docs = [["a"], ["b"]]
    labels = [RT.MOVE_METHOD, RT.RENAME_METHOD]
    for bad in (0, 4):
        with pytest.raises(ValueError):
            build_vocabulary(docs, labels, n_max=bad, k_select=5)


def test_idf_monotone_in_document_frequency():
    docs = [["shared", "rare"], ["shared", "common"], ["shared", "common"],
            ["shared", "other"]]
    labels = [RT.MOVE_METHOD, RT.RENAME_METHOD, RT.RENAME_METHOD,
              RT.MOVE_METHOD]
    vocab = build_vocabulary(docs, labels, n_max=1, k_select=50)
    for a in range(len(vocab.ngrams)):
        for b in range(len(vocab.ngrams)):
            if vocab.doc_freq[a] < vocab.doc_freq[b]:
                assert vocab.idf[a] > vocab.idf[b]


def test_selection_is_prefix_stable():
    docs = [["extract", "method", "code"], ["extract", "helper"],
            ["rename", "method"], ["rename", "name", "typo"],
            ["move", "method", "around"], ["move", "code"]]
    labels = [RT.EXTRACT_METHOD, RT.EXTRACT_METHOD, RT.RENAME_METHOD,
              RT.RENAME_METHOD, RT.MOVE_METHOD, RT.MOVE_METHOD]
    big = build_vocabulary(docs, labels, n_max=2, k_select=50)
    for k in (1, 3, 5, 8):
        small = build_vocabulary(docs, labels, n_max=2, k_select=k)
        assert list(small.selected) == list(big.selected[:k])


def test_selected_ordering_fisher_desc_then_lexicographic():
    docs = [["alpha", "beta"], ["alpha", "gamma"]]
    labels = [RT.EXTRACT_METHOD, RT.RENAME_METHOD]
    vocab = build_vocabulary(docs, labels, n_max=1, k_select=10)
    ranked = [(vocab.fisher[f], vocab.ngrams[f]) for f in vocab.selected]
    for (fa, ga), (fb, gb) in zip(ranked, ranked[1:]):
        assert fa > fb or (fa == fb and ga < gb)


@given(st.lists(st.sampled_from("abcde"), min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_unigram_vectorization_is_order_invariant(tokens):
    docs = [["a", "b", "c"], ["c", "d", "e"]]
    labels = [RT.EXTRACT_METHOD, RT.RENAME_METHOD]
    vocab = build_vocabulary(docs, labels, n_max=1, k_select=20)
    forward = vectorize(list(tokens), vocab)
    backward = vectorize(list(reversed(tokens)), vocab)
    assert forward.keys() == backward.keys()
    for fid in forward:
        assert forward[fid] == pytest.approx(backward[fid], abs=1e-12)


@given(st.sampled_from("abcde"))
@settings(max_examples=20, deadline=None)
def test_bigram_vectorization_on_single_token_docs(token):
    docs = [["a", "b", "c"], ["c", "d", "e"]]
    labels = [RT.EXTRACT_METHOD, RT.RENAME_METHOD]
    vocab = build_vocabulary(docs, labels, n_max=2, k_select=50)
    forward = vectorize([token], vocab)
    backward = vectorize(list(reversed([token])), vocab)
    assert forward == backward


@given(st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=10),
                min_size=2, max_size=8))
@settings(max_examples=50, deadline=None)
def test_nonempty_vectors_have_unit_norm(docs):
    labels = [RT.EXTRACT_METHOD if i % 2 else RT.RENAME_METHOD
              for i in range(len(docs))]
    vocab = build_vocabulary(docs, labels, n_max=2, k_select=1000)
    for doc in docs:
        vec = vectorize(doc, vocab)
        if vec:
            norm = math.sqrt(sum(w * w for w in vec.values()))
            assert abs(norm - 1.0) <= 1e-9


def test_vectors_to_csr_positions():
    docs, labels, vocab = two_doc_vocab()
    vecs = [vectorize(d, vocab) for d in docs]
    X = vectors_to_csr(vecs, vocab.n_selected)
    assert X.shape == (2, vocab.n_selected)
    dense = np.asarray(X.todense())
    for i, vec in enumerate(vecs):
        assert np.count_nonzero(dense[i]) == len(vec)
        for col, w in vec.items():
            assert dense[i, col] == w


def test_build_vocabulary_counts_each_document_once(monkeypatch):
    from refdoc import features
    calls = {"count_ngrams": [], "extract_ngrams": []}

    def recorded(name, fn):
        def wrapper(tokens, n_max):
            calls[name].append(list(tokens))
            return fn(tokens, n_max)
        return wrapper

    # count_ngrams calls extract_ngrams, so each records every n-gram pass
    for name, fn in (("count_ngrams", count_ngrams),
                     ("extract_ngrams", extract_ngrams)):
        monkeypatch.setattr(features, name, recorded(name, fn))
    docs = [["extract", "method", "code"], ["extract", "helper"],
            ["rename", "method"], ["rename", "name", "typo"]]
    labels = [RT.EXTRACT_METHOD, RT.EXTRACT_METHOD, RT.RENAME_METHOD,
              RT.RENAME_METHOD]
    build_vocabulary(docs, labels, n_max=2, k_select=5)
    assert calls == {"count_ngrams": docs, "extract_ngrams": docs}


@given(st.lists(st.sampled_from("abcdef"), min_size=0, max_size=12))
@settings(max_examples=100, deadline=None)
def test_vectorize_keys_are_ascending_columns(tokens):
    docs = [["a", "b", "c"], ["c", "d", "e"], ["a", "f"], ["e", "f", "b"]]
    labels = [RT.EXTRACT_METHOD, RT.RENAME_METHOD, RT.EXTRACT_METHOD,
              RT.RENAME_METHOD]
    vocab = build_vocabulary(docs, labels, n_max=2, k_select=6)
    assert vocab.n_selected < len(vocab.ngrams)  # some n-grams unselected
    vec = vectorize(tokens, vocab)
    assert list(vec) == sorted(vec)
    assert all(0 <= col < vocab.n_selected for col in vec)
    expected = brute_force_vectorize(tokens, vocab)
    assert vec.keys() == expected.keys()
    for col, w in expected.items():
        assert vec[col] == pytest.approx(w, abs=1e-12)


def test_extract_ngrams_orders_unigrams_then_bigrams():
    assert extract_ngrams(["a", "b", "c"], 2) == \
        [("a",), ("b",), ("c",), ("a", "b"), ("b", "c")]


def reference_fisher_scores(counts, labels, idf):
    """The row-by-row Fisher loop that the block reductions replaced,
    kept verbatim (bar the checks) as the bit-exact reference."""
    n_docs, n_feat = counts.shape
    classes = sorted(set(labels), key=lambda t: t.value)
    block_width = 4096

    tfidf = counts.multiply(idf[np.newaxis, :]).tocsc()
    class_rows = {c: [i for i, lab in enumerate(labels) if lab == c]
                  for c in classes}

    scores = np.empty(n_feat, dtype=np.float64)
    for start in range(0, n_feat, block_width):
        stop = min(start + block_width, n_feat)
        block = np.asarray(tfidf[:, start:stop].todense())
        width = stop - start

        mu_all = np.zeros(width)
        for i in range(n_docs):            # dataset order, sequential
            mu_all += block[i]
        mu_all /= n_docs

        num = np.zeros(width)
        den = np.zeros(width)
        for c in classes:                  # canonical class order
            rows = class_rows[c]
            n_k = len(rows)
            mu_k = np.zeros(width)
            for i in rows:
                mu_k += block[i]
            mu_k /= n_k
            ss = np.zeros(width)
            for i in rows:
                d = block[i] - mu_k
                ss += d * d
            diff = mu_k - mu_all
            num += n_k * (diff * diff)
            den += n_k * (ss / n_k)
        scores[start:stop] = num / (den + FISHER_EPS)
    return scores


def count_matrix(docs, vocab):
    """docs x n-grams count matrix in the vocabulary's feature ids."""
    rows = []
    for tokens in docs:
        counts = count_ngrams(tokens, vocab.n_max)
        rows.append(dict(sorted((vocab.index[g], c) for g, c in counts.items())))
    return vectors_to_csr(rows, len(vocab.ngrams))


@pytest.mark.parametrize("seed", range(6))
def test_fisher_scores_bit_equal_to_row_by_row_loop(seed):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(60)]
    classes = list(RT)[:int(rng.integers(2, 7))]
    docs = [[str(w) for w in rng.choice(words, size=int(rng.integers(1, 9)))]
            for _ in range(int(rng.integers(150, 300)))]
    labels = [classes[i % len(classes)] if i < len(classes)
              else classes[int(rng.integers(len(classes)))]
              for i in range(len(docs))]   # every class, rows interleaved
    vocab = build_vocabulary(docs, labels, n_max=2, k_select=10 ** 6)
    assert len(vocab.ngrams) > 2 * 256   # three blocks or more
    expected = reference_fisher_scores(count_matrix(docs, vocab), labels,
                                       vocab.idf)
    assert np.array_equal(vocab.fisher, expected)


def test_fisher_scores_traced_peak_on_the_paper_sized_corpus():
    dataset = generate_corpus(per_class=834)
    docs = [preprocess(r.message) for r in dataset]
    labels = [r.label for r in dataset]
    vocab = build_vocabulary(docs, labels, n_max=2, k_select=5000)
    counts = count_matrix(docs, vocab)
    tracemalloc.start()
    try:
        fisher_scores(counts, labels, vocab.idf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"


def reference_ranking(ngrams, fisher, k_select):
    """The Python-sort ranking that the stable argsort replaced, verbatim."""
    order = sorted(range(len(ngrams)), key=lambda j: (-fisher[j], ngrams[j]))
    return np.array(order[:min(k_select, len(ngrams))], dtype=np.int64)


@pytest.mark.parametrize("seed", range(4))
def test_selection_equals_the_python_sort_ranking(seed):
    # every document appears several times, so many n-grams tie exactly
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(25)]
    base = [[str(w) for w in rng.choice(words, size=int(rng.integers(1, 6)))]
            for _ in range(30)]
    docs = [d for d in base for _ in range(int(rng.integers(2, 5)))]
    classes = list(RT)[:3]
    labels = [classes[i % 3] for i in range(len(docs))]
    for k_select in (10, 10 ** 6):
        vocab = build_vocabulary(docs, labels, n_max=2, k_select=k_select)
        _, tie_counts = np.unique(vocab.fisher, return_counts=True)
        assert tie_counts.max() > 1
        assert np.array_equal(vocab.selected, reference_ranking(
            vocab.ngrams, vocab.fisher, k_select))
