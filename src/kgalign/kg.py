"""Knowledge-graph data model, DBP15K-format IO, and a synthetic generator.

Directory layout (UTF-8, tab-separated):

    ent_ids_1 / ent_ids_2   <int id>\t<entity name>
    triples_1 / triples_2   <head id>\t<relation id>\t<tail id>
    ref_ent_ids             <id in KG1>\t<id in KG2>
    ent_emb_1 / ent_emb_2   <int id>\t<v1> <v2> ... (space-separated floats)

File ids are remapped to dense 0..n-1 indices per graph (sorted file-id
order), so the two graphs keep independent id spaces joined only by the
reference pairs.
"""

import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


class DataError(ValueError):
    """Raised for malformed, inconsistent, or missing dataset content."""


@dataclass
class KnowledgeGraph:
    num_entities: int
    num_relations: int
    triples: np.ndarray  # (m, 3) int64 rows of (head, relation, tail)
    entity_names: list = None

    def __post_init__(self):
        self.triples = np.ascontiguousarray(self.triples, dtype=np.int64).reshape(-1, 3)
        if self.triples.shape[0] == 0:
            raise DataError("graph has no triples")
        heads, rels, tails = self.triples.T
        if heads.min() < 0 or tails.min() < 0 or max(heads.max(), tails.max()) >= self.num_entities:
            raise DataError(f"entity id outside [0, {self.num_entities})")
        if rels.min() < 0 or rels.max() >= self.num_relations:
            raise DataError(f"relation id outside [0, {self.num_relations})")
        if len(np.unique(self.triples, axis=0)) != len(self.triples):
            raise DataError("duplicate triples")
        present = np.zeros(self.num_entities, dtype=bool)
        present[heads] = True
        present[tails] = True
        if not present.all():
            isolated = np.flatnonzero(~present)
            raise DataError(
                f"{isolated.size} isolated entities (no triple mentions them): "
                f"{isolated[:20].tolist()}{'...' if isolated.size > 20 else ''}"
            )
        if self.entity_names is not None and len(self.entity_names) != self.num_entities:
            raise DataError("entity_names length does not match num_entities")

    @property
    def heads(self):
        return self.triples[:, 0]

    @property
    def rels(self):
        return self.triples[:, 1]

    @property
    def tails(self):
        return self.triples[:, 2]


def build_normalized_adjacency(g: KnowledgeGraph) -> sp.csr_matrix:
    """Symmetric degree-normalized adjacency of the undirected graph.

    Edges connected by multiple relations collapse to weight 1, and the
    diagonal is 1 for every entity.
    """
    n = g.num_entities
    rows = np.concatenate([g.heads, g.tails, np.arange(n)])
    cols = np.concatenate([g.tails, g.heads, np.arange(n)])
    data = np.ones(rows.size)
    adj = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    adj.data[:] = 1.0  # collapse duplicates accumulated by the COO sum
    degrees = np.asarray(adj.sum(axis=1)).reshape(-1)
    inv_sqrt = sp.diags(1.0 / np.sqrt(degrees))
    return (inv_sqrt @ adj @ inv_sqrt).tocsr()


def neighbor_edges(triples):
    """Directed edge arrays (src, dst) over undirected neighbors, no self-loops.

    Multi-relation edges collapse to one neighbor entry; edges are sorted by
    (src, dst) so downstream grouping is deterministic.
    """
    heads, tails = triples[:, 0], triples[:, 2]
    keep = heads != tails
    lo = np.minimum(heads[keep], tails[keep])
    hi = np.maximum(heads[keep], tails[keep])
    # an edge (a, b) is the key a * width + b, which sorts by (a, b)
    width = int(hi.max()) + 1 if hi.size else 1
    undirected = np.unique(lo * width + hi)
    lo, hi = np.divmod(undirected, width)
    directed = np.sort(np.concatenate([undirected, hi * width + lo]))
    return np.divmod(directed, width)


class GraphStructure:
    """A graph plus the constants every forward pass reads, built once."""

    def __init__(self, base: KnowledgeGraph):
        self.base = base
        self.num_entities = base.num_entities
        self.adjacency_norm = build_normalized_adjacency(base)
        self.neighbor_src, self.neighbor_dst = neighbor_edges(base.triples)


@dataclass
class AlignmentTask:
    g1: GraphStructure
    g2: GraphStructure
    seeds_train: np.ndarray  # (k, 2) pairs of (id in g1, id in g2)
    seeds_test: np.ndarray
    init_emb1: np.ndarray
    init_emb2: np.ndarray

    def __post_init__(self):
        self.seeds_train = np.ascontiguousarray(self.seeds_train, dtype=np.int64).reshape(-1, 2)
        self.seeds_test = np.ascontiguousarray(self.seeds_test, dtype=np.int64).reshape(-1, 2)
        self.init_emb1 = np.ascontiguousarray(self.init_emb1, dtype=np.float64)
        self.init_emb2 = np.ascontiguousarray(self.init_emb2, dtype=np.float64)
        both = np.concatenate([self.seeds_train, self.seeds_test], axis=0)
        for side, n in ((0, self.g1.num_entities), (1, self.g2.num_entities)):
            ids = both[:, side]
            if ids.size and (ids.min() < 0 or ids.max() >= n):
                raise DataError(f"seed id outside graph {side + 1}")
            if len(np.unique(ids)) != len(ids):
                raise DataError("an entity appears in more than one seed pair")
        if self.init_emb1.shape[0] != self.g1.num_entities:
            raise DataError("init_emb1 row count does not match graph 1")
        if self.init_emb2.shape[0] != self.g2.num_entities:
            raise DataError("init_emb2 row count does not match graph 2")
        if self.init_emb1.shape[1] != self.init_emb2.shape[1]:
            raise DataError("embedding widths differ between graphs")

    @property
    def emb_dim(self):
        return self.init_emb1.shape[1]


def split_seed_pairs(pairs, train_ratio, seed):
    """Deterministic train/test split, invariant to the input pair order.

    Pairs are put in canonical sorted order and then shuffled with the given
    seed, so a round-trip through the on-disk format keeps the same split.
    """
    pairs = np.ascontiguousarray(pairs, dtype=np.int64).reshape(-1, 2)
    if not 0.0 < train_ratio < 1.0:
        raise DataError(f"train_ratio must be in (0, 1), got {train_ratio}")
    if pairs.shape[0] < 2:
        raise DataError("need at least two seed pairs to split")
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    canon = pairs[order]
    perm = np.random.default_rng(seed).permutation(len(canon))
    shuffled = canon[perm]
    n_train = int(round(train_ratio * len(canon)))
    n_train = min(max(n_train, 1), len(canon) - 1)
    return shuffled[:n_train].copy(), shuffled[n_train:].copy()


# ------------------------------------------------------------------ file IO

_CORE_FILES = ("ent_ids_1", "ent_ids_2", "triples_1", "triples_2", "ref_ent_ids")
_EMB_FILES = ("ent_emb_1", "ent_emb_2")


def _read_tsv(path, n_fields, kind):
    if not os.path.exists(path):
        raise DataError(f"missing {kind} file: {path}")
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != n_fields:
                raise DataError(f"{path}:{lineno}: expected {n_fields} fields, got {len(parts)}")
            rows.append((lineno, parts))
    if not rows:
        raise DataError(f"{path}: file is empty")
    return rows


def _read_entities(path):
    ids, names = [], {}
    for lineno, (raw_id, name) in _read_tsv(path, 2, "entity"):
        try:
            eid = int(raw_id)
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad entity id {raw_id!r}") from None
        if eid in names:
            raise DataError(f"{path}:{lineno}: duplicate entity id {eid}")
        ids.append(eid)
        names[eid] = name
    ids.sort()
    id_map = {eid: i for i, eid in enumerate(ids)}
    return id_map, [names[eid] for eid in ids]


def _read_triples(path, id_map):
    triples, raw_rels = [], []
    for lineno, parts in _read_tsv(path, 3, "triple"):
        try:
            h, r, t = (int(p) for p in parts)
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-integer triple {parts}") from None
        for e in (h, t):
            if e not in id_map:
                raise DataError(f"{path}:{lineno}: unknown entity id {e}")
        triples.append((id_map[h], r, id_map[t]))
        raw_rels.append(r)
    rel_ids = sorted(set(raw_rels))
    rel_map = {r: i for i, r in enumerate(rel_ids)}
    arr = np.array([(h, rel_map[r], t) for h, r, t in triples], dtype=np.int64)
    return arr, len(rel_ids)


def _read_embeddings(path, id_map):
    dim = None
    out = None
    line_of = np.zeros(len(id_map), dtype=np.int64)  # 0 until the row is read
    for lineno, (raw_id, values) in _read_tsv(path, 2, "embedding"):
        try:
            eid = int(raw_id)
            vec = np.array([float(v) for v in values.split()], dtype=np.float64)
        except ValueError:
            raise DataError(f"{path}:{lineno}: malformed embedding row") from None
        if eid not in id_map:
            raise DataError(f"{path}:{lineno}: unknown entity id {eid}")
        if dim is None:
            dim = vec.size
            out = np.empty((len(id_map), dim))
        if vec.size != dim:
            raise DataError(f"{path}:{lineno}: embedding width {vec.size} != {dim}")
        idx = id_map[eid]
        if line_of[idx]:
            raise DataError(f"{path}:{lineno}: duplicate embedding for entity id {eid}")
        out[idx] = vec
        line_of[idx] = lineno
    if not line_of.all():
        raise DataError(f"{path}: embeddings missing for {int((line_of == 0).sum())} entities")
    # float() accepts nan and inf; one pass over the matrix finds them
    bad = ~np.isfinite(out).all(axis=1)
    if bad.any():
        raise DataError(f"{path}:{line_of[bad].min()}: non-finite embedding value")
    return out


def load_dbp15k(directory, train_ratio=0.30, seed=0) -> AlignmentTask:
    """Load an alignment task from a DBP15K-layout directory."""
    paths = {name: os.path.join(directory, name) for name in _CORE_FILES + _EMB_FILES}
    map1, names1 = _read_entities(paths["ent_ids_1"])
    map2, names2 = _read_entities(paths["ent_ids_2"])
    triples1, nrel1 = _read_triples(paths["triples_1"], map1)
    triples2, nrel2 = _read_triples(paths["triples_2"], map2)

    refs = []
    ref_path = paths["ref_ent_ids"]
    for lineno, (raw1, raw2) in _read_tsv(ref_path, 2, "reference"):
        try:
            e1, e2 = int(raw1), int(raw2)
        except ValueError:
            raise DataError(f"{ref_path}:{lineno}: non-integer pair") from None
        if e1 not in map1 or e2 not in map2:
            raise DataError(f"{ref_path}:{lineno}: unknown entity in pair ({e1}, {e2})")
        refs.append((map1[e1], map2[e2]))
    train, test = split_seed_pairs(np.array(refs, dtype=np.int64), train_ratio, seed)

    emb1 = _read_embeddings(paths["ent_emb_1"], map1)
    emb2 = _read_embeddings(paths["ent_emb_2"], map2)

    kg1 = KnowledgeGraph(len(map1), nrel1, triples1, entity_names=names1)
    kg2 = KnowledgeGraph(len(map2), nrel2, triples2, entity_names=names2)
    return AlignmentTask(GraphStructure(kg1), GraphStructure(kg2), train, test, emb1, emb2)


def read_graph_stats(directory):
    """Per-side (entities, relations, triples) counts plus the link count.

    Only needs the five core files, so it works on stock DBP15K folders that
    lack embedding files.
    """
    paths = {name: os.path.join(directory, name) for name in _CORE_FILES}
    stats = {}
    for side in (1, 2):
        id_map, _ = _read_entities(paths[f"ent_ids_{side}"])
        triples, nrel = _read_triples(paths[f"triples_{side}"], id_map)
        stats[side] = (len(id_map), nrel, len(triples))
    links = len(_read_tsv(paths["ref_ent_ids"], 2, "reference"))
    return stats[1], stats[2], links


def save_dbp15k(task: AlignmentTask, directory):
    """Write a task back out in the DBP15K layout (lossless round-trip)."""
    os.makedirs(directory, exist_ok=True)

    def names_for(graph):
        if graph.base.entity_names is not None:
            return graph.base.entity_names
        return [f"entity_{i}" for i in range(graph.num_entities)]

    for side, graph, emb in ((1, task.g1, task.init_emb1), (2, task.g2, task.init_emb2)):
        with open(os.path.join(directory, f"ent_ids_{side}"), "w", encoding="utf-8") as fh:
            for i, name in enumerate(names_for(graph)):
                fh.write(f"{i}\t{name}\n")
        with open(os.path.join(directory, f"triples_{side}"), "w", encoding="utf-8") as fh:
            for h, r, t in graph.base.triples.tolist():
                fh.write(f"{h}\t{r}\t{t}\n")
        with open(os.path.join(directory, f"ent_emb_{side}"), "w", encoding="utf-8") as fh:
            for i in range(emb.shape[0]):
                row = " ".join(f"{v:.17g}" for v in emb[i])
                fh.write(f"{i}\t{row}\n")
    with open(os.path.join(directory, "ref_ent_ids"), "w", encoding="utf-8") as fh:
        for e1, e2 in np.concatenate([task.seeds_train, task.seeds_test]).tolist():
            fh.write(f"{e1}\t{e2}\n")


# ------------------------------------------------------------ synthetic data


def generate_synthetic_pair(
    n_entities,
    n_relations,
    avg_degree,
    drop_triple_prob=0.15,
    emb_noise_sigma=0.3,
    emb_dim=32,
    train_ratio=0.30,
    rng_seed=7,
) -> AlignmentTask:
    """Build a desk-scale alignment task from one random graph and a noisy copy.

    Graph 2 is an entity-permuted copy of graph 1 with triples independently
    dropped (skipping drops that would isolate an entity or empty a relation)
    and Gaussian noise added to the permuted initial embeddings. Seeds are the
    full permutation, split per ``train_ratio``. Deterministic per ``rng_seed``.
    """
    if n_entities < 10:
        raise DataError("n_entities must be at least 10")
    if n_relations < 2:
        raise DataError("n_relations must be at least 2")
    if avg_degree < 1:
        raise DataError("avg_degree must be at least 1")
    if not 0.0 <= drop_triple_prob < 1.0:
        raise DataError("drop_triple_prob must be in [0, 1); 1.0 would isolate entities")
    if emb_noise_sigma < 0:
        raise DataError("emb_noise_sigma must be non-negative")
    rng = np.random.default_rng(rng_seed)

    n_triples = max(n_entities - 1, int(round(n_entities * avg_degree / 2)), n_relations)
    if n_triples > n_entities * (n_entities - 1):
        raise DataError("avg_degree/n_relations ask for more triples than distinct pairs")
    order = rng.permutation(n_entities)
    pairs = []
    used = set()
    # chain over a random order so every entity occurs in at least one triple
    for i in range(1, n_entities):
        a = int(order[i])
        b = int(order[rng.integers(i)])
        h, t = (a, b) if rng.random() < 0.5 else (b, a)
        pairs.append((h, t))
        used.add((h, t))
    while len(pairs) < n_triples:
        h, t = (int(x) for x in rng.integers(0, n_entities, size=2))
        if h == t or (h, t) in used:
            continue
        pairs.append((h, t))
        used.add((h, t))
    rels = np.concatenate(
        [np.arange(n_relations), rng.integers(0, n_relations, size=len(pairs) - n_relations)]
    )
    rng.shuffle(rels)
    triples1 = np.column_stack(
        [np.array([p[0] for p in pairs]), rels, np.array([p[1] for p in pairs])]
    ).astype(np.int64)

    perm = rng.permutation(n_entities)
    mapped = triples1.copy()
    mapped[:, 0] = perm[triples1[:, 0]]
    mapped[:, 2] = perm[triples1[:, 2]]

    drop = rng.random(len(mapped)) < drop_triple_prob
    ent_count = np.zeros(n_entities, dtype=np.int64)
    np.add.at(ent_count, mapped[:, 0], 1)
    np.add.at(ent_count, mapped[:, 2], 1)
    rel_count = np.bincount(mapped[:, 1], minlength=n_relations)
    keep = np.ones(len(mapped), dtype=bool)
    for i in np.flatnonzero(drop):
        h, r, t = mapped[i]
        if ent_count[h] > 1 and ent_count[t] > 1 and rel_count[r] > 1:
            keep[i] = False
            ent_count[h] -= 1
            ent_count[t] -= 1
            rel_count[r] -= 1
    triples2 = mapped[keep]

    emb1 = rng.normal(0.0, 1.0, size=(n_entities, emb_dim))
    emb2 = np.empty_like(emb1)
    emb2[perm] = emb1 + rng.normal(0.0, emb_noise_sigma, size=emb1.shape)

    seeds = np.column_stack([np.arange(n_entities), perm]).astype(np.int64)
    train, test = split_seed_pairs(seeds, train_ratio, rng_seed)

    kg1 = KnowledgeGraph(
        n_entities, n_relations, triples1,
        entity_names=[f"g1_entity_{i}" for i in range(n_entities)],
    )
    kg2 = KnowledgeGraph(
        n_entities, n_relations, triples2,
        entity_names=[f"g2_entity_{i}" for i in range(n_entities)],
    )
    return AlignmentTask(GraphStructure(kg1), GraphStructure(kg2), train, test, emb1, emb2)
