"""Knowledge-graph data model, DBP15K-format IO, and a synthetic generator.

Directory layout (UTF-8, tab-separated):

    ent_ids_1 / ent_ids_2   <int id>\t<entity name>
    triples_1 / triples_2   <head id>\t<relation id>\t<tail id>
    ref_ent_ids             <id in KG1>\t<id in KG2>
    ent_emb_1 / ent_emb_2   <int id>\t<v1> <v2> ... (space-separated floats)

Entity file ids are remapped to dense 0..n-1 indices per graph in sorted
order and kept as ``KnowledgeGraph.entity_ids``, which ``save_dbp15k``
writes back; the two graphs keep independent id spaces joined only by the
reference pairs. Relation ids become 0..r-1 in sorted file-id order.
"""

import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import kernels


class DataError(ValueError):
    """Raised for malformed, inconsistent, or missing dataset content."""


@dataclass
class KnowledgeGraph:
    num_entities: int
    num_relations: int
    triples: np.ndarray  # (m, 3) int64 rows of (head, relation, tail)
    entity_names: list = None
    entity_ids: np.ndarray = None  # the dataset's id of each entity, increasing; default: its index

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
        ids = self.entity_ids
        ids = np.arange(self.num_entities) if ids is None else np.asarray(ids)
        if ids.dtype.kind != "i" or ids.shape != (self.num_entities,) or (np.diff(ids) <= 0).any():
            raise DataError(f"entity_ids must be {self.num_entities} strictly increasing integers")
        self.entity_ids = ids.astype(np.int64)


def build_normalized_adjacency(g: KnowledgeGraph) -> sp.csr_matrix:
    """Symmetric degree-normalized adjacency of the undirected graph.

    Edges connected by multiple relations collapse to weight 1, and the
    diagonal is 1 for every entity. Each row lists its columns in
    increasing order.
    """
    n = g.num_entities
    heads, tails = g.triples[:, 0], g.triples[:, 2]
    rows = np.concatenate([heads, tails, np.arange(n)])
    cols = np.concatenate([tails, heads, np.arange(n)])
    data = np.ones(rows.size)
    adj = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    adj.data[:] = 1.0  # collapse duplicates accumulated by the COO sum
    degrees = np.asarray(adj.sum(axis=1)).reshape(-1)
    inv_sqrt = sp.diags(1.0 / np.sqrt(degrees))
    return (inv_sqrt @ adj @ inv_sqrt).tocsr()


class GraphStructure:
    """A graph plus the constants every forward pass reads, built once: the
    normalized adjacency, the ``kernels.Segments`` of the triple columns and
    of the neighbor edges, and the triple count per relation, which must not
    be zero. The neighbor edges (src, dst) are the adjacency's off-diagonal
    entries: each pair of distinct linked entities once per direction, in
    (src, dst) order."""

    def __init__(self, base: KnowledgeGraph):
        self.base = base
        n = self.num_entities = base.num_entities
        heads, rels, tails = base.triples.T
        self.relation_counts = np.bincount(rels, minlength=base.num_relations)
        if not self.relation_counts.all():
            raise DataError(f"relation {int(np.argmin(self.relation_counts))} has no triples")
        self.heads = kernels.Segments(heads, n)
        self.rels = kernels.Segments(rels, base.num_relations)
        self.tails = kernels.Segments(tails, n)
        self.adjacency_norm = build_normalized_adjacency(base)
        entries = self.adjacency_norm.tocoo()
        off_diagonal = entries.row != entries.col
        self.neighbor_src = kernels.Segments(entries.row[off_diagonal], n)
        self.neighbor_dst = kernels.Segments(entries.col[off_diagonal], n)


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

    def dataset_ids(self, pairs):
        """(graph 1, graph 2) entity ``pairs`` in the dataset's entity ids."""
        return np.stack([self.g1.base.entity_ids[pairs[:, 0]],
                         self.g2.base.entity_ids[pairs[:, 1]]], axis=1)


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


def read_text_lines(path):
    """Lines of a UTF-8 text file; one that is not UTF-8 raises ``DataError``
    naming it, found by a second read so that valid files are read once."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            raw_lines = fh.read().splitlines()  # splits where text mode does
        lineno = next(i for i, raw in enumerate(raw_lines, start=1)
                      if raw.decode("utf-8", "replace").encode("utf-8") != raw)
        raise DataError(f"{path}:{lineno}: not valid UTF-8") from None


def _read_tsv(path, n_fields, kind):
    if not os.path.exists(path):
        raise DataError(f"missing {kind} file: {path}")
    rows = []
    for lineno, line in enumerate(read_text_lines(path), start=1):
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
            eid = int(np.int64(raw_id))  # a dataset id must fit entity_ids
        except (ValueError, OverflowError):
            raise DataError(f"{path}:{lineno}: bad entity id {raw_id!r}") from None
        if eid in names:
            raise DataError(f"{path}:{lineno}: duplicate entity id {eid}")
        ids.append(eid)
        names[eid] = name
    ids.sort()
    id_map = {eid: i for i, eid in enumerate(ids)}
    return id_map, [names[eid] for eid in ids]


def _index(path, lineno, id_map, text):
    """Dense index of the entity whose dataset id is ``text``."""
    try:
        return id_map[int(text)]
    except ValueError:
        raise DataError(f"{path}:{lineno}: bad entity id {text!r}") from None
    except KeyError:
        raise DataError(f"{path}:{lineno}: unknown entity id {text}") from None


def _read_triples(path, id_map):
    """Triples with dense entity and relation indices, the relation count and
    each triple's line number."""
    triples, linenos = [], []
    for lineno, (h, r, t) in _read_tsv(path, 3, "triple"):
        try:
            rel = np.int64(r)
        except (ValueError, OverflowError):
            raise DataError(f"{path}:{lineno}: bad relation id {r!r}") from None
        triples.append((_index(path, lineno, id_map, h), rel, _index(path, lineno, id_map, t)))
        linenos.append(lineno)
    triples = np.array(triples, dtype=np.int64)
    rel_ids, triples[:, 1] = np.unique(triples[:, 1], return_inverse=True)
    return triples, len(rel_ids), linenos


def _read_embeddings(path, id_map, dim=None):
    out = None
    line_of = np.zeros(len(id_map), dtype=np.int64)  # 0 until the row is read
    for lineno, (raw_id, values) in _read_tsv(path, 2, "embedding"):
        idx = _index(path, lineno, id_map, raw_id)
        try:
            vec = np.array([float(v) for v in values.split()], dtype=np.float64)
        except ValueError:
            raise DataError(f"{path}:{lineno}: malformed embedding row") from None
        if not vec.size:
            raise DataError(f"{path}:{lineno}: empty embedding row")
        if out is None:
            dim = vec.size if dim is None else dim
            out = np.empty((len(id_map), dim))
        if vec.size != dim:
            raise DataError(f"{path}:{lineno}: embedding width {vec.size} != {dim}")
        if line_of[idx]:
            raise DataError(f"{path}:{lineno}: duplicate embedding for entity id {int(raw_id)}")
        out[idx] = vec
        line_of[idx] = lineno
    if not line_of.all():
        raise DataError(f"{path}: embeddings missing for {int((line_of == 0).sum())} entities")
    # float() accepts nan and inf; one pass over the matrix finds them
    bad = ~np.isfinite(out).all(axis=1)
    if bad.any():
        raise DataError(f"{path}:{line_of[bad].min()}: non-finite embedding value")
    return out


def _located(exc, path, linenos, *keys):
    """``exc`` prefixed with ``path`` and, if a record's entry in any of ``keys``
    repeats an earlier record's, the line (from ``linenos``) of the first such record."""
    repeats = [np.setdiff1d(np.arange(len(k)), np.unique(k, axis=0, return_index=True)[1])
               for k in keys]
    row = min((int(r[0]) for r in repeats if r.size), default=None)
    if row is None:
        return DataError(f"{path}: {exc}")
    return DataError(f"{path}:{linenos[row]}: {exc}")


def _read_graph(paths, side):
    """One side's entity id map and validated graph."""
    id_map, names = _read_entities(paths[f"ent_ids_{side}"])
    path = paths[f"triples_{side}"]
    triples, n_rel, linenos = _read_triples(path, id_map)
    try:
        graph = KnowledgeGraph(len(id_map), n_rel, triples, entity_names=names,
                               entity_ids=np.fromiter(id_map, dtype=np.int64))
    except DataError as exc:
        raise _located(exc, path, linenos, triples) from None
    return id_map, GraphStructure(graph)


def load_dbp15k(directory, train_ratio=0.30, seed=0) -> AlignmentTask:
    """Load an alignment task from a DBP15K-layout directory."""
    paths = {name: os.path.join(directory, name) for name in _CORE_FILES + _EMB_FILES}
    map1, g1 = _read_graph(paths, 1)
    map2, g2 = _read_graph(paths, 2)

    ref_path = paths["ref_ent_ids"]
    rows = _read_tsv(ref_path, 2, "reference")
    refs = np.array([(_index(ref_path, lineno, map1, e1), _index(ref_path, lineno, map2, e2))
                     for lineno, (e1, e2) in rows], dtype=np.int64)
    train, test = split_seed_pairs(refs, train_ratio, seed)

    emb1 = _read_embeddings(paths["ent_emb_1"], map1)
    emb2 = _read_embeddings(paths["ent_emb_2"], map2, dim=emb1.shape[1])
    try:
        return AlignmentTask(g1, g2, train, test, emb1, emb2)
    except DataError as exc:
        # the readers checked all else, so an entity is in two seed pairs
        raise _located(exc, ref_path, [n for n, _ in rows], refs[:, 0], refs[:, 1]) from None


def save_dbp15k(task: AlignmentTask, directory):
    """Write a task back out in the DBP15K layout, in its dataset entity ids
    (lossless round-trip)."""
    os.makedirs(directory, exist_ok=True)

    def write(name, rows):
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.writelines("\t".join(map(str, row)) + "\n" for row in rows)

    for side, graph, emb in ((1, task.g1.base, task.init_emb1), (2, task.g2.base, task.init_emb2)):
        ids = graph.entity_ids.tolist()
        names = graph.entity_names or [f"entity_{i}" for i in range(graph.num_entities)]
        write(f"ent_ids_{side}", zip(ids, names))
        write(f"triples_{side}", ((ids[h], r, ids[t]) for h, r, t in graph.triples.tolist()))
        write(f"ent_emb_{side}", ((i, " ".join(f"{v:.17g}" for v in row))
                                  for i, row in zip(ids, emb.tolist())))
    pairs = np.concatenate([task.seeds_train, task.seeds_test])
    write("ref_ent_ids", task.dataset_ids(pairs).tolist())


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
    if not 1 <= avg_degree < np.inf:
        raise DataError("avg_degree must be at least 1 and finite")
    if not 0.0 <= drop_triple_prob < 1.0:
        raise DataError("drop_triple_prob must be in [0, 1); 1.0 would isolate entities")
    if not 0 <= emb_noise_sigma < np.inf:
        raise DataError("emb_noise_sigma must be non-negative and finite")
    if emb_dim < 1:
        raise DataError("emb_dim must be at least 1")
    if rng_seed < 0:
        raise DataError("rng_seed must be non-negative")
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
