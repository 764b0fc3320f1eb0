"""Entity linking: mention → canonical entity id via a broadcast alias table.

The alias table (small side) is `ray.put` once on the driver and resolved
once per worker process in `EntityLinker.__init__` — never shuffled, never
re-shipped per batch (J4 pattern; the reference's coref-table lookup
eval_utils.py:265-281).

Candidate scoring is deterministic:
  score = exact-alias hit (1.0) | canonical-form hit (0.8) | token-Jaccard
  against alias (≥ min_score); ties broken by (score desc, entity_id asc).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..functions.strings import canonicalize, jaccard
from ..state.broadcast import resolve
from ..state.process_local import ProcessLocal


def build_alias_table(entities: dict[str, list[str]]) -> dict:
    """entity_id → aliases list, compiled to lookup maps: exact alias → id,
    canonical alias → id (first-id-wins determinism), and a token→candidates
    inverted index so fuzzy scoring only touches entities sharing ≥1 token
    with the mention (blocking — O(candidates), not O(lexicon))."""
    exact: dict[str, str] = {}
    canon: dict[str, str] = {}
    token_index: dict[str, list[tuple[str, str]]] = {}
    for eid in sorted(entities):
        for alias in entities[eid]:
            a = alias.lower()
            exact.setdefault(a, eid)
            canon.setdefault(canonicalize(alias), eid)
            for tok in set(a.split()):
                token_index.setdefault(tok, []).append((eid, a))
    return {
        "exact": exact,
        "canon": canon,
        "token_index": token_index,
        "entities": {k: list(v) for k, v in entities.items()},
    }


class EntityLinker(ProcessLocal):
    """Task-pool stage over mention rows: adds (entity_id, link_score)."""

    def __init__(self, alias_table_ref, mention_col: str = "mention",
                 min_score: float = 0.5):
        table = resolve(alias_table_ref)
        self.exact = table["exact"]
        self.canon = table["canon"]
        self.entities = table["entities"]
        self.token_index = table.get("token_index")
        self.mention_col = mention_col
        self.min_score = min_score

    def link_one(self, mention: str) -> tuple[str | None, float]:
        m = mention.lower()
        eid = self.exact.get(m)
        if eid is not None:
            return eid, 1.0
        c = canonicalize(mention)
        eid = self.canon.get(c)
        if eid is not None:
            return eid, 0.8
        # fuzzy fallback: blocked candidate set (entities sharing ≥1 token)
        if self.token_index is not None:
            candidates: set[tuple[str, str]] = set()
            for tok in set(m.split()):
                candidates.update(self.token_index.get(tok, ()))
            pairs = sorted(candidates)  # sorted → deterministic tie-break
        else:
            pairs = [(eid, alias) for eid in sorted(self.entities)
                     for alias in self.entities[eid]]
        best_id, best_score = None, 0.0
        for eid, alias in pairs:
            s = jaccard(mention, alias)
            if s > best_score:
                best_id, best_score = eid, s
        if best_score >= self.min_score:
            return best_id, round(best_score, 6)
        return None, 0.0

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        ids, scores = [], []
        cache: dict[str, tuple[str | None, float]] = {}
        for mention in batch[self.mention_col]:
            hit = cache.get(mention)
            if hit is None:
                hit = self.link_one(mention)
                cache[mention] = hit
            ids.append(hit[0])
            scores.append(hit[1])
        out = batch.copy()
        out["entity_id"] = ids
        out["link_score"] = scores
        return out


# ------------------------------------------------------- alias merging
#
# Canonical-entity merging beyond the rule canonicalizer (P12 /
# make_kb.py:90-95): observed surface forms and their rule-canonical forms
# whose character-k-gram similarity is high are clustered into one entity,
# and the edge table is re-keyed onto the cluster representative. This is
# the "canonicalization through groupby-aggregate shuffles keyed on
# normalized surface forms" step of the north rule, with string-similarity
# alias resolution composed on top of the rule normalizer.


def _char_kgram_set(name: str, k: int) -> "np.ndarray":
    """Unique char-k-gram hash values of a name; names shorter than k fall
    back to one whole-name hash so every name has a non-empty set."""
    import numpy as np

    from .dedup import _token_hash, char_window_hashes

    h = char_window_hashes(name, k)
    if len(h) == 0:
        return np.array([_token_hash(name)], dtype=np.uint64)
    return np.unique(h)


class CharNameMinHasher:
    """Name → n_perm minhash values over the char-k-gram set (the
    name-similarity twin of `dedup.MinHasher`; same seed family)."""

    def __init__(self, n_perm: int = 64, k: int = 3, seed: int = 11):
        from .dedup import _perm_params

        self.seeds = _perm_params(n_perm, seed)
        self.k = k

    def signature(self, name: str) -> "np.ndarray":
        return self.set_signature(_char_kgram_set(name, self.k))

    def set_signature(self, kgrams: "np.ndarray") -> "np.ndarray":
        from .dedup import _splitmix64

        vals = _splitmix64(kgrams[:, None] ^ self.seeds[None, :]).min(axis=0)
        return (vals >> np.uint64(2)).astype(np.int64)


def _kgram_jaccard(sa: "np.ndarray", sb: "np.ndarray") -> float:
    """Exact Jaccard of two `_char_kgram_set` arrays."""
    inter = len(np.intersect1d(sa, sb, assume_unique=True))
    union = len(sa) + len(sb) - inter
    return inter / union if union else 0.0


def exact_name_jaccard(a: str, b: str, k: int = 3) -> float:
    """Exact char-k-gram Jaccard between two names (the verify metric)."""
    return _kgram_jaccard(_char_kgram_set(a, k), _char_kgram_set(b, k))


def alias_pairs(names: "ray.data.Dataset", threshold: float = 0.5,
                k: int = 3, n_perm: int = 64, n_bands: int = 16,
                name_col: str = "name",
                n_buckets: int = 64) -> "ray.data.Dataset":
    """(id_a < id_b, jaccard) name pairs with exact char-k-gram Jaccard ≥
    threshold, candidate-generated by char-minhash LSH banding: one
    `joins.candidate_pairs` shuffle of (band key, name, k-gram set) rows —
    the `minhash_lsh_pairs` shape over the NAME vocabulary, which is orders
    of magnitude smaller than the corpus but can still exceed driver memory
    at web scale."""
    from ..joins import candidate_pairs
    from .dedup import _band_keys

    hasher = CharNameMinHasher(n_perm=n_perm, k=k)

    def band_rows(df: "pd.DataFrame") -> "pd.DataFrame":
        names = df[name_col].to_numpy(object)
        sets = [_char_kgram_set(n, k) for n in names]
        sigs = np.array([hasher.set_signature(x) for x in sets],
                        dtype=np.int64).reshape(len(sets), n_perm)
        payload = np.empty(len(sets), dtype=object)
        payload[:] = sets
        return pd.DataFrame({"key": _band_keys(sigs, n_bands).ravel(),
                             "id": np.repeat(names, n_bands),
                             "payload": np.repeat(payload, n_bands)})

    def jaccard(a: "np.ndarray", b: "np.ndarray") -> "np.ndarray":
        return np.array([[_kgram_jaccard(x, y) for y in b] for x in a]
                        ).reshape(len(a), len(b))

    return candidate_pairs(names.map_batches(band_rows, batch_format="pandas"),
                           n_buckets, jaccard, lambda jac: jac >= threshold,
                           "jaccard")


def alias_merge_edges(triples: "ray.data.Dataset", threshold: float = 0.5,
                      k: int = 3, n_buckets: int = 32,
                      cc_broadcast_max_nodes: int = 5_000_000
                      ) -> "ray.data.Dataset":
    """Merged canonical edge table (subj_canon, pred, obj_canon, weight):

    1. node vocabulary = distinct {subj, obj, subj_norm, obj_norm} values
       (ONE pass over the triple table, grouped-distinct);
    2. `alias_pairs` over the vocabulary (char-minhash LSH + exact verify);
    3. connected components over the pair graph — component id = the
       lexicographically smallest member (deterministic representative);
    4. re-key the raw-surface edge table through the (name → component)
       mapping with two bucketed LEFT `hash_join`s (unclustered names keep
       themselves — no driver-side dict at any vocabulary size);
    5. partial+final grouped count of the re-keyed edges.
    """
    import pyarrow as pa

    from ..aggregates import grouped_count
    from ..joins import hash_join
    from .graph import connected_components

    tri = triples.select_columns(
        ["subj", "pred", "obj", "subj_norm", "obj_norm"]).materialize()

    def explode_names(t: pa.Table) -> pa.Table:
        cols = [t.column(c).combine_chunks().cast(pa.string())
                for c in ("subj", "obj", "subj_norm", "obj_norm")]
        chunks = []
        for c in cols:
            chunks.extend(c.chunks if isinstance(c, pa.ChunkedArray) else [c])
        return pa.table({"name": pa.concat_arrays(chunks)})

    names = grouped_count(
        tri.map_batches(explode_names, batch_format="pyarrow"),
        ["name"], out_name="_n").select_columns(["name"])

    # `cc_broadcast_max_nodes` caps the admission-guarded broadcast CC: a
    # name vocabulary above it takes the bucketed-shuffle fixpoint instead
    # (the 100-TB path, pinned equal by tests/test_linking.py)
    pairs = alias_pairs(names, threshold=threshold, k=k)
    mapping = connected_components(
        pairs, src="id_a", dst="id_b", mode="auto",
        broadcast_max_nodes=cc_broadcast_max_nodes).materialize()

    st = {"subj": pa.string(), "pred": pa.string(), "obj": pa.string()}

    def rekey(col: str, out: str):
        def post(df: "pd.DataFrame") -> "pd.DataFrame":
            df[out] = df["component"].fillna(df[col])
            return df.drop(columns=[col, "component"])

        return post

    m_s = mapping.map_batches(
        lambda t: t.rename_columns(["subj", "component"]),
        batch_format="pyarrow")
    j1 = hash_join(tri.select_columns(["subj", "pred", "obj"]), m_s,
                   on="subj", how="left", n_buckets=n_buckets,
                   left_types=st,
                   right_types={"subj": pa.string(), "component": pa.string()},
                   bucket_post=rekey("subj", "subj_canon"))
    m_o = mapping.map_batches(
        lambda t: t.rename_columns(["obj", "component"]),
        batch_format="pyarrow")
    j2 = hash_join(j1, m_o, on="obj", how="left", n_buckets=n_buckets,
                   left_types={"subj_canon": pa.string(), "pred": pa.string(),
                               "obj": pa.string()},
                   right_types={"obj": pa.string(), "component": pa.string()},
                   bucket_post=rekey("obj", "obj_canon"))
    return grouped_count(j2, ["subj_canon", "pred", "obj_canon"],
                         out_name="weight")


def _edit1(a: str, b: str) -> bool:
    """Exact edit-distance ≤ 1 check (a != b assumed): one substitution, or
    one insertion/deletion — two-pointer, O(len)."""
    la, lb = len(a), len(b)
    if la == lb:
        seen = False
        for x, y in zip(a, b):
            if x != y:
                if seen:
                    return False
                seen = True
        return True
    if la > lb:
        a, b, la, lb = b, a, lb, la
    if lb - la != 1:
        return False
    i = j = 0
    gap = False
    while i < la:
        if a[i] == b[j]:
            i += 1
            j += 1
        elif gap:
            return False
        else:
            gap = True
            j += 1
    return True


def edit1_name_pairs(names: "ray.data.Dataset", name_col: str = "name",
                     min_len: int = 2, n_buckets: int = 64,
                     max_key_df: int = 10_000) -> "ray.data.Dataset":
    """(id_a < id_b) name pairs at edit distance EXACTLY ≤ 1 — typo-level
    fuzzy entity matching, the precision complement to `alias_pairs`'
    trigram-Jaccard recall (FastSS deletion-neighborhood blocking, Bocek et
    al. 2007). Two strings with ed ≤ 1 necessarily share a key in
    {name} ∪ del1(name) (delete-one-character variants), so blocking on
    those keys is LOSSLESS for names ≥ `min_len`; candidates are verified
    with the exact two-pointer check.

    Scale shape: the deletion-variant table is (len+1) rows per name — a
    bounded flat-map over the NAME VOCABULARY (vocabulary-scale, like
    `alias_pairs`) — and its (variant, name) rows go through
    `joins.candidate_pairs` with the names themselves as the payload.
    `max_key_df` caps degenerate keys (e.g. the empty-ish variants of very
    short names; dropped groups are an explicit contract knob like
    substring_dup_pairs' max_df — with min_len=2 no real key approaches
    it)."""
    from ..joins import candidate_pairs

    def variants(df: "pd.DataFrame") -> "pd.DataFrame":
        keys, owners = [], []
        for n in df[name_col]:
            if not isinstance(n, str) or len(n) < min_len:
                continue
            keys.append(n)
            owners.append(n)
            for i in range(len(n)):
                keys.append(n[:i] + n[i + 1:])
                owners.append(n)
        return pd.DataFrame({"key": pd.array(keys, dtype="string"),
                             "id": pd.array(owners, dtype="string")})

    def within_edit1(a: "np.ndarray", b: "np.ndarray") -> "np.ndarray":
        # `b` is the key's whole (distinct) name set: a key shared by more
        # than `max_key_df` names pairs none of them
        if len(b) > max_key_df:
            return np.zeros((len(a), len(b)), dtype=bool)
        return np.array([[_edit1(x, y) for y in b] for x in a],
                        dtype=bool).reshape(len(a), len(b))

    return candidate_pairs(names.map_batches(variants, batch_format="pandas"),
                           n_buckets, within_edit1, lambda ok: ok, None)


def alias_type_conflicts(triples: "ray.data.Dataset",
                         types: "ray.data.Dataset",
                         threshold: float = 0.5, k: int = 3,
                         min_members: int = 2, min_types: int = 2,
                         n_buckets: int = 32,
                         cc_broadcast_max_nodes: int = 5_000_000
                         ) -> "ray.data.Dataset":
    """(component, n_members, n_types, types) — sameAs/type-consistency QA
    over the alias clustering: components of the `alias_merge_edges` name
    graph with ≥ `min_members` members and ≥ `min_types` DISTINCT entity
    types from the `types` table ((entity, etype); untyped members still
    count toward n_members). With the default min_types=2 this reports
    type-CONFLICTED clusters — the standard signal of an over-eager merge
    (two real-world entities collapsed by surface similarity); with
    min_types=0 it is the full per-cluster type profile (conflicts visible
    via the n_types column). The QA companion the reference's KB consumers
    would run after the make_kb.py:90-103 canonicalization.

    Scale shape: same vocabulary/LSH/CC passes as `alias_merge_edges`
    (admission-guarded broadcast CC with the bucketed-shuffle fallback
    above the node cap); the full (name -> component) map is ONE bucketed
    left join of the vocabulary against the CC mapping (singletons keep
    themselves), types attach with ONE more bucketed left join, and the
    per-component reduce runs on coarse hash(component) buckets — never
    one Ray group per component."""
    import pyarrow as pa

    from ..aggregates import grouped_count
    from ..joins import bucket_groups, hash_join
    from .graph import connected_components

    s_t = pa.string()

    tri = triples.select_columns(
        ["subj", "obj", "subj_norm", "obj_norm"]).materialize()

    def explode_names(t: pa.Table) -> pa.Table:
        cols = [t.column(c).combine_chunks().cast(pa.string())
                for c in ("subj", "obj", "subj_norm", "obj_norm")]
        chunks = []
        for c in cols:
            chunks.extend(c.chunks if isinstance(c, pa.ChunkedArray) else [c])
        return pa.table({"name": pa.concat_arrays(chunks)})

    names = grouped_count(
        tri.map_batches(explode_names, batch_format="pyarrow"),
        ["name"], out_name="_n").select_columns(["name"])

    pairs = alias_pairs(names, threshold=threshold, k=k)
    mapping = connected_components(
        pairs, src="id_a", dst="id_b", mode="auto",
        broadcast_max_nodes=cc_broadcast_max_nodes).materialize()

    def fill_self(m: "pd.DataFrame") -> "pd.DataFrame":
        m = m.copy()
        m["component"] = m["component"].fillna(m["name"])
        return m[["name", "component"]]

    full_map = hash_join(
        names, mapping.map_batches(
            lambda t: t.rename_columns(
                ["name", "component"]),
            batch_format="pyarrow"),
        on="name", how="left", n_buckets=n_buckets,
        left_types={"name": s_t},
        right_types={"name": s_t, "component": s_t},
        bucket_post=fill_self)

    t_side = types.map_batches(
        lambda t: t.select(
            ["entity", "etype"]).rename_columns(["name", "etype"]),
        batch_format="pyarrow")

    mem = hash_join(full_map, t_side, on="name", how="left",
                    n_buckets=n_buckets,
                    left_types={"name": s_t, "component": s_t},
                    right_types={"name": s_t, "etype": s_t})

    def comp_reduce(df: "pd.DataFrame") -> "pd.DataFrame":
        rows = []
        for comp, g in df.groupby("component", sort=False):
            if len(g) < min_members:
                continue
            tys = sorted(set(g["etype"].dropna()))
            if len(tys) < min_types:
                continue
            rows.append((comp, len(g), len(tys), "|".join(tys)))
        if not rows:
            return pd.DataFrame({"component": pd.Series(dtype="string"),
                                 "n_members": pd.Series(dtype="int64"),
                                 "n_types": pd.Series(dtype="int64"),
                                 "types": pd.Series(dtype="string")})
        out = pd.DataFrame(rows, columns=["component", "n_members",
                                          "n_types", "types"])
        out["n_members"] = out["n_members"].astype("int64")
        out["n_types"] = out["n_types"].astype("int64")
        return out

    return bucket_groups(mem, "component", n_buckets, comp_reduce)


def alias_blocking_recall(triples: "ray.data.Dataset",
                          threshold: float = 0.5, k: int = 3,
                          coarse_bands: int = 16,
                          fine_bands: int = 64) -> "pd.DataFrame":
    """One-row (n_names, n_fine_pairs, n_coarse_pairs, recall_ppm) —
    blocking-quality audit for the alias-merge LSH: the production banding
    (`coarse_bands`, band width n_perm/coarse) vs the exhaustive-recall
    banding (`fine_bands` = n_perm, band width 1, whose collision
    probability at threshold 0.5 is 1-(1-j)^64 ≈ 1). A width-4 band match
    implies its four width-1 bands match, so coarse pairs ⊆ fine pairs and
    recall_ppm = coarse·1e6 // fine is a true recall. The audit every ER
    pipeline runs before trusting a banding config at corpus scale — and
    it never goes all-pairs: both sides are the banded `alias_pairs`
    pipeline itself (the exact truth lives only in the test oracle's
    all-pairs walk at tiny scale)."""
    import pyarrow as pa

    from ..aggregates import grouped_count

    tri = triples.select_columns(
        ["subj", "obj", "subj_norm", "obj_norm"]).materialize()

    def explode_names(t: pa.Table) -> pa.Table:
        cols = [t.column(c).combine_chunks().cast(pa.string())
                for c in ("subj", "obj", "subj_norm", "obj_norm")]
        chunks = []
        for c in cols:
            chunks.extend(c.chunks if isinstance(c, pa.ChunkedArray)
                          else [c])
        return pa.table({"name": pa.concat_arrays(chunks)})

    names = grouped_count(
        tri.map_batches(explode_names, batch_format="pyarrow"),
        ["name"], out_name="_n").select_columns(["name"]).materialize()

    n_names = names.count()
    n_coarse = alias_pairs(names, threshold=threshold, k=k,
                           n_bands=coarse_bands).count()
    n_fine = alias_pairs(names, threshold=threshold, k=k,
                         n_bands=fine_bands).count()
    return pd.DataFrame({
        "n_names": [int(n_names)],
        "n_fine_pairs": [int(n_fine)],
        "n_coarse_pairs": [int(n_coarse)],
        "recall_ppm": [int(n_coarse) * 1_000_000 // max(int(n_fine), 1)]})
