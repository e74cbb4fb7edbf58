"""Iterative graph analytics — distributed PageRank.

The iterative-shuffle workload class (beyond the one-shot transitive
closure in ``cluster.connected_components``): each Lloyd-style round
moves edge contributions through one co-group join and one bucketed
reduce. The canonical random-surfer formulation (Page et al. 1999) with
dangling-mass redistribution:

    r_{t+1}(v) = (1−d)/N + d·( Σ_{u→v} r_t(u)/outdeg(u) + dangling_t/N )
    dangling_t = Σ_{u: outdeg(u)=0} r_t(u)

Scale shape, per iteration (the graph never concentrates anywhere):

* the static ``1/outdeg`` weight attaches to the EDGE table once up
  front (one bucketed co-group), so iterations never re-join degrees;
* contributions = (rank state) ⋈ (weighted edges) on the source node —
  one hash-bucketed co-group, one vectorized merge + per-destination
  pre-aggregation inside each bucket task;
* the new state = one bucketed reduce over [contributions ∪ per-node
  teleport skeleton], which also re-attaches the static ``has_out``
  flag (carried as tagged rows through the same shuffle — no extra
  join);
* the dangling mass is the only driver-side value — one float per
  iteration from a map-side partial sum.

Float determinism follows the engine's usual regime: per-edge terms are
identical IEEE ops; only sum order differs across engines (~1e-16
relative), which the oracle absorbs by comparing ranks rounded to 9
decimals (margin ≥ 1e-7 to the grid verified on the driver corpus).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data as rd


def _cogroup(sides, fn) -> "rd.Dataset":
    from whoiswho_ray.stages.cluster import _cc_num_buckets
    from whoiswho_ray.stages.joins import cogroup

    return cogroup(sides, fn, _cc_num_buckets())


def _attach_nid(ds: "rd.Dataset", key_col: str, node_map: "rd.Dataset",
                out_col: str) -> "rd.Dataset":
    """Replace ``ds[key_col]`` (a node-id string) with its integer ``nid``
    from ``node_map`` — one bucketed co-group join (the string column is
    dropped, the int column arrives)."""
    from whoiswho_ray.stages.cluster import _cc_num_buckets
    from whoiswho_ray.stages.joins import shuffle_hash_join

    nm = node_map.map_batches(
        lambda df: pd.DataFrame({key_col: df["node"],
                                 out_col: df["nid"].astype(np.int64)}),
        batch_format="pandas")
    return shuffle_hash_join(ds, nm, on=key_col,
                             num_buckets=_cc_num_buckets(),
                             project=lambda m: m.drop(columns=[key_col]))


def encode_edges(
    edges: "rd.Dataset",
    src_col: str = "src",
    dst_col: str = "dst",
    nodes: "rd.Dataset | None" = None,
):
    """Dictionary-encode node ids to dense int64 once, BEFORE iterating
    (VERDICT r3 #1): ``nid`` = each node's rank in SORTED id order — an
    ORDER-PRESERVING encoding, so min-id tie-breaks (connected-components
    roots, LPA smallest-label) decode to exactly the string rule.

    Returns ``(eidx, node_map)``: ``eidx`` = the edges as (si, di) int64
    rows; ``node_map`` = (node, nid). Cost: one sort over the node set +
    two bucketed co-group attaches over the edges — paid once; every
    iteration's shuffles then move int64 keys instead of id strings.
    Shared by the pagerank / label-propagation co-group paths (and any
    caller that wants int-keyed :func:`~whoiswho_ray.stages.cluster.
    connected_components` input)."""
    from whoiswho_ray.stages.agg import distinct, with_global_rank

    if nodes is None:
        nodes = distinct(
            edges.map_batches(lambda df: pd.DataFrame(
                {"node": pd.concat([df[src_col], df[dst_col]])}),
                batch_format="pandas"),
            ["node"], final="shuffle").materialize()
    node_map = with_global_rank(
        nodes.sort("node").materialize(), rank_col="nid").materialize()
    half = _attach_nid(edges.select_columns([src_col, dst_col]), src_col,
                       node_map, "si")
    eidx = _attach_nid(half, dst_col, node_map, "di").materialize()
    return eidx, node_map


def attach_out_weights(edges: "rd.Dataset", src_col: str, dst_col: str) -> "rd.Dataset":
    """edges → (src, dst, inv) with inv = 1/outdeg(src): one grouped
    count over src (bucketed final) + one co-group attach."""
    from whoiswho_ray.stages.agg import grouped_agg

    deg = grouped_agg(edges, src_col, {"m": (None, "count")}, final="shuffle")

    def attach(e, d) -> pd.DataFrame:
        out = e.to_pandas().merge(d.to_pandas(), on=src_col)
        return pd.DataFrame({"src": out[src_col], "dst": out[dst_col],
                             "inv": 1.0 / out["m"].to_numpy(np.float64)})

    return _cogroup([(edges, src_col, [src_col, dst_col]), (deg, src_col, [src_col, "m"])],
                    attach)


#: The largest node set the graph operators collect to the driver (the
#: broadcast-state paths); read at call time.
MAX_BROADCAST_NODES = 2_000_000


def _broadcast_cap(cap: int | None) -> int:
    return MAX_BROADCAST_NODES if cap is None else cap


def _check_broadcast(n: int, what: str, cap: int | None = None) -> None:
    """Refuse a node set above the broadcast bound before it is collected
    to the driver, for operators with no distributed path."""
    if n > _broadcast_cap(cap):
        raise ValueError(f"{what}: {n} nodes exceed the broadcast bound "
                         f"{_broadcast_cap(cap)}; this operator collects every node "
                         "to the driver and has no distributed path")


def pagerank(
    edges: "rd.Dataset",
    iters: int = 3,
    damping: float = 0.85,
    src_col: str = "src",
    dst_col: str = "dst",
    max_broadcast_nodes: int | None = None,
) -> "rd.Dataset":
    """(src, dst) edge table → (node, rank) after ``iters`` power
    iterations from the uniform start. Multi-edges contribute once each
    (pass a distinct edge table for simple-graph semantics).

    Two execution paths on the same math (the exact_dedup
    ``broadcast_threshold`` pattern): node sets ≤ ``max_broadcast_nodes``
    (default :data:`MAX_BROADCAST_NODES`) broadcast the rank vector
    (``ray.put`` per iteration) and reduce per-batch contribution
    partials on the driver — ONE map job per
    iteration, zero shuffles, the edges never re-sort; out-degrees come
    from a driver-side bincount over the integer-encoded edges, so the
    degree-attach co-groups never run on this path at all. Larger graphs
    take the fully-distributed co-group path over edges int-encoded ONCE
    via :func:`encode_edges` (2 bucketed shuffles/iteration moving int64
    keys, nothing node- or edge-sized on the driver)."""
    from whoiswho_ray.stages.agg import distinct

    d = float(damping)
    nodes = distinct(
        edges.map_batches(lambda df: pd.DataFrame(
            {"node": pd.concat([df[src_col], df[dst_col]])}),
            batch_format="pandas"),
        ["node"], final="shuffle").materialize()
    n = nodes.count()
    if n == 0:
        return rd.from_pandas(pd.DataFrame(
            {"node": pd.Series([], dtype=object),
             "rank": pd.Series([], dtype=np.float64)}))

    r0 = 1.0 / n

    if n <= _broadcast_cap(max_broadcast_nodes):
        return _pagerank_broadcast(edges, nodes, n, d, iters,
                                   src_col, dst_col)

    # ---- co-group scale path: int-encode once, iterate on int64 ----
    eidx, node_map = encode_edges(edges, src_col, dst_col, nodes=nodes)
    ew = attach_out_weights(eidx, "si", "di").materialize()

    # has_out is static: stamp it once via a bucketed co-group of the
    # node-id table with the distinct source set (both stay distributed)
    srcs = distinct(ew.map_batches(
        lambda df: pd.DataFrame({"node": df["src"]}), batch_format="pandas"),
        ["node"], final="shuffle")

    def init_state(nm, src, _r0=r0) -> pd.DataFrame:
        node = nm.column("nid").to_pandas().astype(np.int64)
        return pd.DataFrame({
            "node": node,
            "r": np.full(len(node), _r0),
            "has_out": node.isin(set(src.column("node").to_pylist())).to_numpy(),
        })

    state = _cogroup([(node_map, "nid", ["nid"]), (srcs, "node", ["node"])],
                     init_state).materialize()

    # dangling-node existence is static; when there are none (e.g. any
    # symmetrized edge set) the per-iteration mass pass is skipped —
    # dangling_t is exactly 0 every round
    n_src = srcs.count()
    any_dangling = n_src < n

    for _ in range(iters):
        dang = (state.map_batches(
            lambda df: pd.DataFrame({"s": [df.loc[~df["has_out"], "r"].sum()]}),
            batch_format="pandas").sum("s") or 0.0) if any_dangling else 0.0
        base = (1.0 - d) / n + d * float(dang) / n

        def contribute(st, e, _d=d) -> pd.DataFrame:
            if not e.num_rows or not st.num_rows:
                return pd.DataFrame({"node": pd.Series([], dtype=np.int64),
                                     "c": pd.Series([], dtype=np.float64)})
            m = e.to_pandas().merge(st.to_pandas(), left_on="src", right_on="node")
            m["c"] = _d * m["r"].to_numpy() * m["inv"].to_numpy()
            out = m.groupby("dst", sort=False)["c"].sum().reset_index()
            return out.rename(columns={"dst": "node"})

        contrib = _cogroup([(state, "node", ["node", "r"]),
                            (ew, "src", ["src", "dst", "inv"])], contribute)

        def reduce_node(c, st, _base=base) -> pd.DataFrame:
            sd = st.to_pandas()
            df = pd.DataFrame({"node": sd["node"], "c": np.full(len(sd), _base),
                               "flag": sd["has_out"].astype(np.int64) + 1})
            if c.num_rows:
                df = pd.concat([c.to_pandas().assign(flag=np.int64(0)), df],
                               ignore_index=True)
            agg = df.groupby("node", sort=True).agg(
                r=("c", "sum"), flag=("flag", "max")).reset_index()
            return pd.DataFrame({"node": agg["node"], "r": agg["r"],
                                 "has_out": agg["flag"].to_numpy() == 2})

        state = _cogroup([(contrib, "node", ["node", "c"]),
                          (state, "node", ["node", "has_out"])],
                         reduce_node).materialize()

    # decode nid → node string: one bucketed co-group join
    from whoiswho_ray.stages.cluster import _cc_num_buckets
    from whoiswho_ray.stages.joins import shuffle_hash_join

    ranks = state.map_batches(
        lambda df: pd.DataFrame({"nid": df["node"].astype(np.int64),
                                 "rank": df["r"].to_numpy(np.float64)}),
        batch_format="pandas")
    return shuffle_hash_join(ranks, node_map, on="nid",
                             num_buckets=_cc_num_buckets(),
                             project=lambda m: m[["node", "rank"]])


def triangle_count(
    edges: "rd.Dataset",
    src_col: str = "src",
    dst_col: str = "dst",
) -> dict:
    """Exact global triangle count over an undirected simple graph —
    the degree-oriented wedge-join algorithm (the MapReduce-standard
    formulation, cf. Suri & Vassilvitskii 2011, "Counting Triangles and
    the Curse of the Last Reducer"): orient every edge from its
    lower-(degree, id) endpoint to the higher one, enumerate wedges only
    at each vertex's OUT-neighbors (bounded by O(√m) per vertex instead
    of the raw degree — hot vertices stop being the last reducer), and
    close them against the oriented edge set with one bucketed co-group.

    Input edges may be duplicated or reversed; they are canonicalized
    (a < b, distinct, self-loops dropped) first. Returns
    ``{"n_triangles", "n_edges", "n_nodes"}`` — all exact integers.
    """
    from whoiswho_ray.stages.agg import distinct, grouped_agg

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        a = df[src_col].astype(str)
        b = df[dst_col].astype(str)
        lo = np.where(a < b, a, b)
        hi = np.where(a < b, b, a)
        keep = lo != hi
        return pd.DataFrame({"a": lo[keep], "b": hi[keep]})

    ce = distinct(edges.map_batches(canon, batch_format="pandas"),
                  ["a", "b"], final="shuffle").materialize()
    n_edges = ce.count()
    if n_edges == 0:
        return {"n_triangles": 0, "n_edges": 0, "n_nodes": 0}

    # degrees over both endpoints
    ends = ce.map_batches(lambda df: pd.DataFrame(
        {"node": pd.concat([df["a"], df["b"]], ignore_index=True)}),
        batch_format="pandas")
    deg = grouped_agg(ends, "node", {"deg": (None, "count")}, final="shuffle")
    n_nodes = deg.count()

    # attach deg(a) and deg(b) with one co-group each
    def attach_deg(es: "rd.Dataset", key: str, cols: list[str], out: str) -> "rd.Dataset":
        def attach(e, d) -> pd.DataFrame:
            return e.to_pandas().merge(d.to_pandas().rename(
                columns={"node": key, "deg": out}), on=key)

        return _cogroup([(es, key, cols), (deg, "node", ["node", "deg"])], attach)

    ew = attach_deg(attach_deg(ce, "a", ["a", "b"], "deg_a"), "b",
                    ["a", "b", "deg_a"], "deg_b")

    # orient lower-(deg, id) → higher; carry the target's (deg, id) so
    # wedge pairs can be ordered without another join
    def orient(df: pd.DataFrame) -> pd.DataFrame:
        fwd = (df["deg_a"] < df["deg_b"]) | (
            (df["deg_a"] == df["deg_b"]) & (df["a"] < df["b"]))
        return pd.DataFrame({
            "u": np.where(fwd, df["a"], df["b"]),
            "w": np.where(fwd, df["b"], df["a"]),
            "wdeg": np.where(fwd, df["deg_b"], df["deg_a"]).astype(np.int64),
        })

    oe = ew.map_batches(orient, batch_format="pandas").materialize()

    # wedges at each vertex over its out-neighbors, pair ordered by the
    # SAME (deg, id) rule so the closing edge is oriented v→w
    def wedges(t) -> pd.DataFrame:
        df = t.to_pandas()
        outs = []
        for _, grp in df.groupby("u", sort=False):
            nb = grp.sort_values(["wdeg", "w"], kind="stable")
            arr = nb["w"].to_numpy()
            m = arr.size
            if m < 2:
                continue
            ii, jj = np.triu_indices(m, 1)
            outs.append(pd.DataFrame({"v": arr[ii], "w": arr[jj]}))
        if not outs:
            return pd.DataFrame({"v": pd.Series([], dtype=object),
                                 "w": pd.Series([], dtype=object),
                                 "__n": pd.Series([], dtype=np.int64)})
        out = pd.concat(outs, ignore_index=True)
        # pre-aggregate duplicate wedges before the closing shuffle
        agg = out.groupby(["v", "w"], sort=False).size().reset_index(name="__n")
        agg["__n"] = agg["__n"].astype(np.int64)
        return agg

    wds = _cogroup([(oe, "u")], wedges)

    # close wedges against oriented edges: co-group on the (v, w) pair key
    def pair_w(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"pair": df["v"].astype(str) + "\x1f" + df["w"].astype(str),
                             "n": df["__n"].astype(np.int64)})

    def pair_oe(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"pair": df["u"].astype(str) + "\x1f" + df["w"].astype(str)})

    def close(w, e) -> pd.DataFrame:
        if not w.num_rows:
            return pd.DataFrame({"t": [0]})
        wd = w.to_pandas()
        have = set(e.column("pair").to_pylist())
        return pd.DataFrame({"t": [int(wd.loc[wd["pair"].isin(have), "n"].sum())]})

    total = _cogroup([(wds.map_batches(pair_w, batch_format="pandas"), "pair", ["pair", "n"]),
                      (oe.map_batches(pair_oe, batch_format="pandas"), "pair")],
                     close).sum("t") or 0
    return {"n_triangles": int(total), "n_edges": int(n_edges),
            "n_nodes": int(n_nodes)}


def _pagerank_broadcast(edges: "rd.Dataset", nodes: "rd.Dataset", n: int,
                        d: float, iters: int, src_col: str = "src",
                        dst_col: str = "dst") -> "rd.Dataset":
    """Broadcast-state path: the sorted node array + rank vector ride
    ``ray.put`` once per iteration; each edge batch emits per-destination
    partial sums (bincount) and the driver adds the O(n × blocks)
    partials. Edges stream in place — no shuffle, no re-sort, ever.
    Out-degrees (hence 1/outdeg and has_out) come from one driver-side
    bincount reduce over the SAME encoded-edges pass, so the two
    degree-attach co-groups of the old front-end never run here
    (VERDICT r3 #1)."""
    import ray

    node_arr = np.sort(nodes.to_pandas()["node"].to_numpy(dtype=object))
    pos = {v: i for i, v in enumerate(node_arr)}

    def encode(df: pd.DataFrame, _pos=pos) -> pd.DataFrame:
        return pd.DataFrame({
            "si": df[src_col].map(_pos).to_numpy(np.int64),
            "di": df[dst_col].map(_pos).to_numpy(np.int64),
        })

    eidx = edges.map_batches(encode, batch_format="pandas").materialize()

    def deg_partial(df: pd.DataFrame, _n=n) -> pd.DataFrame:
        sums = np.bincount(df["si"].to_numpy(), minlength=_n)
        nz = np.flatnonzero(sums)
        return pd.DataFrame({"i": nz.astype(np.int64),
                             "m": sums[nz].astype(np.int64)})

    dparts = eidx.map_batches(deg_partial, batch_format="pandas").to_pandas()
    deg = np.zeros(n, dtype=np.int64)
    np.add.at(deg, dparts["i"].to_numpy(), dparts["m"].to_numpy())
    has_out = deg > 0
    # same IEEE value as the per-edge 1/outdeg stamp (one float64 divide)
    inv = np.zeros(n)
    inv[has_out] = 1.0 / deg[has_out]

    r = np.full(n, 1.0 / n)
    for _ in range(iters):
        dang = float(r[~has_out].sum())
        base = (1.0 - d) / n + d * dang / n
        # per-source scaled mass (d · r(u)) · (1/outdeg(u)) — the same
        # operands and order as the per-edge d·r·inv product
        ref = ray.put((d * r) * inv)

        def partial(df: pd.DataFrame, _ref=ref, _n=n) -> pd.DataFrame:
            sv = ray.get(_ref)
            sums = np.bincount(df["di"].to_numpy(),
                               weights=sv[df["si"].to_numpy()], minlength=_n)
            nz = np.flatnonzero(sums)
            return pd.DataFrame({"i": nz.astype(np.int64), "c": sums[nz]})

        parts = eidx.map_batches(partial, batch_format="pandas").to_pandas()
        r = np.full(n, base)
        np.add.at(r, parts["i"].to_numpy(), parts["c"].to_numpy())

    return rd.from_pandas(pd.DataFrame({"node": node_arr, "rank": r}))


def label_propagation(
    edges: "rd.Dataset",
    iters: int = 4,
    src_col: str = "src",
    dst_col: str = "dst",
    max_broadcast_nodes: int | None = None,
) -> "rd.Dataset":
    """Synchronous label-propagation community detection (Raghavan et
    al. 2007, "Near linear time algorithm to detect community structures
    in large-scale networks") — deterministic variant: labels start as
    the node ids, every round each node adopts the most frequent label
    among its UNDIRECTED neighbors (ties → lexicographically smallest
    label; isolated-in-round nodes keep their label), all nodes update
    simultaneously, fixed ``iters`` rounds. Fully discrete — no floats —
    so the SQL replay is exact with no margin argument at all.

    Same dual-path shape as :func:`pagerank`: small node sets broadcast
    the label vector (one map job per round, per-batch (dst, label)
    count partials, driver mode); large graphs run the co-group path
    over edges int-encoded ONCE via :func:`encode_edges` (attach labels
    to edges on src, bucketed mode reduce on dst — 2 shuffles per round
    moving int64 keys, nothing node-sized on the driver). The encoding
    is order-preserving, so integer min-label ties decode to exactly the
    lexicographic-smallest string rule."""
    from whoiswho_ray.stages.agg import distinct

    def sym(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "src": pd.concat([df[src_col], df[dst_col]], ignore_index=True).astype(str),
            "dst": pd.concat([df[dst_col], df[src_col]], ignore_index=True).astype(str),
        })

    und = distinct(edges.map_batches(sym, batch_format="pandas"),
                   ["src", "dst"], final="shuffle")
    und = und.map_batches(lambda df: df[df["src"] != df["dst"]],
                          batch_format="pandas").materialize()
    nodes = distinct(und.map_batches(
        lambda df: pd.DataFrame({"node": df["src"]}), batch_format="pandas"),
        ["node"], final="shuffle").materialize()
    n = nodes.count()
    if n == 0:
        return rd.from_pandas(pd.DataFrame(
            {"node": pd.Series([], dtype=object),
             "community": pd.Series([], dtype=object)}))

    if n <= _broadcast_cap(max_broadcast_nodes):
        return _lpa_broadcast(und, nodes, n, iters)

    # ---- co-group scale path (int64 labels throughout) ----
    eidx, node_map = encode_edges(und, "src", "dst", nodes=nodes)
    state = node_map.map_batches(
        lambda df: pd.DataFrame({"node": df["nid"].astype(np.int64),
                                 "lab": df["nid"].astype(np.int64)}),
        batch_format="pandas").materialize()
    for _ in range(iters):
        def attach(lt, et) -> pd.DataFrame:
            if not et.num_rows or not lt.num_rows:
                return pd.DataFrame({"node": pd.Series([], dtype=np.int64),
                                     "lab": pd.Series([], dtype=np.int64),
                                     "c": pd.Series([], dtype=np.int64)})
            e = et.to_pandas().rename(columns={"si": "node", "di": "dst"})
            m = e.merge(lt.to_pandas(), on="node")
            # pre-aggregate (dst, lab) counts inside the task
            c = m.groupby(["dst", "lab"], sort=False).size().reset_index(name="c")
            c["c"] = c["c"].astype(np.int64)
            return c.rename(columns={"dst": "node"})

        votes = _cogroup([(state, "node", ["node", "lab"]), (eidx, "si", ["si", "di"])],
                         attach)

        def pick(vt, st) -> pd.DataFrame:
            own = st.to_pandas().rename(columns={"lab": "own"})
            v = vt.to_pandas()
            agg = (v.groupby(["node", "lab"], sort=False)["c"].sum().reset_index()
                   .sort_values(["node", "c", "lab"],
                                ascending=[True, False, True], kind="stable")
                   .drop_duplicates("node"))
            out = own.merge(agg[["node", "lab"]], on="node", how="left")
            out["lab"] = out["lab"].fillna(out["own"]).astype(np.int64)
            return out[["node", "lab"]]

        state = _cogroup([(votes, "node", ["node", "lab", "c"]),
                          (state, "node", ["node", "lab"])], pick).materialize()

    # decode both the node and its community label back to id strings
    from whoiswho_ray.stages.cluster import _cc_num_buckets
    from whoiswho_ray.stages.joins import shuffle_hash_join

    half = shuffle_hash_join(
        state.map_batches(
            lambda df: pd.DataFrame({"nid": df["node"].astype(np.int64),
                                     "cid": df["lab"].astype(np.int64)}),
            batch_format="pandas"),
        node_map, on="nid", num_buckets=_cc_num_buckets(),
        project=lambda m: m[["node", "cid"]])
    cmap = node_map.map_batches(
        lambda df: pd.DataFrame({"cid": df["nid"].astype(np.int64),
                                 "community": df["node"]}),
        batch_format="pandas")
    return shuffle_hash_join(half, cmap, on="cid",
                             num_buckets=_cc_num_buckets(),
                             project=lambda m: m[["node", "community"]])


def _lpa_broadcast(und: "rd.Dataset", nodes: "rd.Dataset", n: int,
                   iters: int) -> "rd.Dataset":
    """Broadcast path: integer-encoded edges stream in place; each round
    ships the label vector via ``ray.put``, per-batch (dst, label) count
    partials combine on the driver, mode with ties → smallest label."""
    import ray

    node_arr = np.sort(nodes.to_pandas()["node"].to_numpy(dtype=object))
    pos = {v: i for i, v in enumerate(node_arr)}

    eidx = und.map_batches(
        lambda df, _p=pos: pd.DataFrame({
            "si": df["src"].map(_p).to_numpy(np.int64),
            "di": df["dst"].map(_p).to_numpy(np.int64)}),
        batch_format="pandas").materialize()

    lab = np.arange(n, dtype=np.int64)  # label = index of own node id
    for _ in range(iters):
        ref = ray.put(lab)

        def partial(df: pd.DataFrame, _ref=ref, _n=n) -> pd.DataFrame:
            lv = ray.get(_ref)
            key = df["di"].to_numpy() * np.int64(_n) + lv[df["si"].to_numpy()]
            u, c = np.unique(key, return_counts=True)
            return pd.DataFrame({"k": u, "c": c.astype(np.int64)})

        parts = eidx.map_batches(partial, batch_format="pandas").to_pandas()
        agg = parts.groupby("k", sort=False)["c"].sum().reset_index()
        di = (agg["k"].to_numpy() // n).astype(np.int64)
        lb = (agg["k"].to_numpy() % n).astype(np.int64)
        c = agg["c"].to_numpy()
        # mode per dst: sort by (dst, -count, label) and take the first
        order = np.lexsort((lb, -c, di))
        di, lb = di[order], lb[order]
        first = np.r_[True, di[1:] != di[:-1]]
        new = lab.copy()
        new[di[first]] = lb[first]
        lab = new

    # labels map back to node-id strings: the community id is the node id
    # whose index won (node_arr is sorted, so index order == lexicographic
    # order and tie-breaks match the string rule)
    return rd.from_pandas(pd.DataFrame({"node": node_arr,
                                        "community": node_arr[lab]}))


def bfs_distances(
    edges: "rd.Dataset",
    sources: "rd.Dataset",
    max_hops: int,
    src_col: str = "src",
    dst_col: str = "dst",
    node_col: str = "node",
) -> "rd.Dataset":
    """Multi-source BFS: minimum hop distance from ANY source node, capped
    at ``max_hops`` (pass both edge directions for an undirected graph).

    Hop-synchronous frontier expansion — the third iterative-shuffle graph
    workload (after pagerank's dense rounds and connected_components'
    star contraction). Per hop, two bucketed exchanges and nothing else:

    * ``frontier ⋈ edges`` on the source endpoint (one hash-bucketed
      co-group; the join task projects to DISTINCT destinations, so full
      edge rows never leave the bucket);
    * candidate ∖ visited (one bucketed anti co-group) — BFS's "first
      visit wins" IS the min-distance rule, so no per-node min reduce is
      ever needed.

    The frontier/visited sets hold node ids only (no payload) and are
    materialized per round — the round barrier is inherent to BFS.
    Scale shape: each round's shuffles move O(frontier-adjacent edges),
    never the whole graph; visited grows monotonically but stays one
    skinny id column. Returns ``(node, dist)`` with dist int64 ∈
    [0, max_hops]; unreachable nodes are absent.
    """
    from whoiswho_ray.stages.agg import distinct
    from whoiswho_ray.stages.joins import shuffle_hash_join, shuffle_semi_join

    def with_dist(ds: "rd.Dataset", d: int) -> "rd.Dataset":
        return ds.map_batches(
            lambda df, _d=d: pd.DataFrame(
                {node_col: df[node_col],
                 "dist": np.full(len(df), _d, np.int64)}),
            batch_format="pandas")

    frontier = distinct(sources.select_columns([node_col]), [node_col],
                        final="shuffle").materialize()
    if not frontier.count():
        # empty source set (e.g. the sparsified graph has no edges at
        # this scale): a typed empty result, not a schema-less crash
        import pyarrow as pa

        return rd.from_arrow(pa.table(
            {node_col: pa.array([], pa.string()),
             "dist": pa.array([], pa.int64())}))
    visited = with_dist(frontier, 0).materialize()

    for hop in range(1, max_hops + 1):
        hop_src = frontier.map_batches(
            lambda df: pd.DataFrame({src_col: df[node_col]}),
            batch_format="pandas")
        # expand: edges ⋈ frontier on src; dedup destinations inside the
        # join task, one skinny distinct shuffle finishes the candidates
        cand = distinct(
            shuffle_hash_join(
                edges, hop_src, on=src_col,
                project=lambda m: m[[dst_col]].drop_duplicates()),
            [dst_col], final="shuffle").map_batches(
            lambda df: pd.DataFrame({node_col: df[dst_col]}),
            batch_format="pandas").materialize()
        # a frontier of sink nodes expands to nothing — the empty Dataset
        # has no schema, so break before the anti co-group would choke
        if not cand.count():
            break
        new = shuffle_semi_join(
            cand, visited.select_columns([node_col]), on=node_col,
            anti=True).materialize()
        if not new.count():
            break
        visited = visited.union(with_dist(new, hop)).materialize()
        frontier = new

    return visited


def kcore(
    edges: "rd.Dataset",
    k: int,
    src_col: str = "src",
    dst_col: str = "dst",
    max_rounds: int = 30,
) -> "rd.Dataset":
    """k-core decomposition by iterative peeling (pass both directions
    for undirected): repeatedly drop nodes with degree < k and the edges
    touching them until a fixpoint. Returns the surviving nodes with
    their WITHIN-CORE degree: (node, core_deg).

    The iterative-prune graph workload (vs pagerank's dense rounds and
    BFS's frontier expansion). Per round: one grouped degree count +
    two bucketed semi co-groups filtering the edge list — each round's
    shuffles shrink with the surviving edge set, so late rounds are
    nearly free. Peeling is monotone (survivor sets only shrink), so an
    unchanged survivor COUNT is the fixpoint; rounds past it are no-ops
    — which is also what makes an over-unrolled SQL oracle exact.
    """
    from whoiswho_ray.stages.agg import grouped_agg
    from whoiswho_ray.stages.joins import shuffle_semi_join

    ed = edges.select_columns([src_col, dst_col]).materialize()
    deg = None
    prev_n: int | None = None
    for _ in range(max_rounds):
        def survivors(df: pd.DataFrame) -> pd.DataFrame:
            keep = df["core_deg"].to_numpy(np.int64) >= k
            return pd.DataFrame(
                {"node": df[src_col].to_numpy()[keep],
                 "core_deg": df["core_deg"].to_numpy(np.int64)[keep]})

        deg = grouped_agg(ed, src_col, {"core_deg": (None, "count")},
                          final="shuffle").map_batches(
            survivors, batch_format="pandas").materialize()
        n = deg.count()
        if n == 0:
            return rd.from_pandas(pd.DataFrame(
                {"node": pd.Series([], dtype=object),
                 "core_deg": pd.Series([], dtype=np.int64)}))
        if n == prev_n:
            break
        prev_n = n
        surv = deg.select_columns(["node"])
        half = shuffle_semi_join(
            ed, surv.map_batches(
                lambda df: df.rename(columns={"node": src_col}),
                batch_format="pandas"), on=src_col)
        ed = shuffle_semi_join(
            half, surv.map_batches(
                lambda df: df.rename(columns={"node": dst_col}),
                batch_format="pandas"), on=dst_col).materialize()
        # survivors can outlive their edges (a hub whose spokes all
        # died): with no edges left, no node can reach degree ≥ k ≥ 1,
        # so the core is empty — and the next round's agg would choke
        # on the schema-less empty edge set
        if not ed.count():
            return rd.from_pandas(pd.DataFrame(
                {"node": pd.Series([], dtype=object),
                 "core_deg": pd.Series([], dtype=np.int64)}))
    return deg


def hits(
    edges: "rd.Dataset",
    iters: int = 3,
    src_col: str = "src",
    dst_col: str = "dst",
    max_broadcast_nodes: int | None = None,
) -> "rd.Dataset":
    """HITS hubs-and-authorities (Kleinberg 1999) over a DIRECTED edge
    table, ``iters`` mutual-reinforcement rounds from the all-ones hub
    start with L2 normalization each half-step:

        a_t(v) = Σ_{u→v} h_{t-1}(u)   (then a_t /= ‖a_t‖₂)
        h_t(u) = Σ_{u→v} a_t(v)       (then h_t /= ‖h_t‖₂)

    Returns (node, hub, auth). Broadcast-state path (the pagerank
    ``max_broadcast_nodes`` pattern): edges int-encode once and stream
    in place; each iteration is two bincount map passes with the h / a
    vectors shipped via ``ray.put`` — no shuffle ever. Node sets beyond
    the broadcast bound would take pagerank's co-group shape (rank state
    ⋈ edges, one bucketed reduce per half-step); refused with a
    ``ValueError`` here since every shipped graph is ≪ the bound.

    Float regime: per-edge terms are identical IEEE ops; only sum order
    differs across engines (~1e-16 relative), absorbed by the callers'
    1e-9-grid rounding with verified margins (pagerank discipline).
    """
    import ray

    from whoiswho_ray.stages.agg import distinct

    nodes = distinct(
        edges.map_batches(lambda df: pd.DataFrame(
            {"node": pd.concat([df[src_col], df[dst_col]])}),
            batch_format="pandas"),
        ["node"], final="shuffle").materialize()
    n = nodes.count()
    if n == 0:
        return rd.from_pandas(pd.DataFrame(
            {"node": pd.Series([], dtype=object),
             "hub": pd.Series([], dtype=np.float64),
             "auth": pd.Series([], dtype=np.float64)}))
    _check_broadcast(n, "hits", max_broadcast_nodes)

    node_arr = np.sort(nodes.to_pandas()["node"].to_numpy(dtype=object))
    pos = {v: i for i, v in enumerate(node_arr)}

    def encode(df: pd.DataFrame, _pos=pos) -> pd.DataFrame:
        return pd.DataFrame({
            "si": df[src_col].map(_pos).to_numpy(np.int64),
            "di": df[dst_col].map(_pos).to_numpy(np.int64),
        })

    eidx = edges.map_batches(encode, batch_format="pandas").materialize()

    def pull(vec: np.ndarray, from_col: str, to_col: str) -> np.ndarray:
        ref = ray.put(vec)

        def partial(df: pd.DataFrame, _ref=ref, _n=n) -> pd.DataFrame:
            v = ray.get(_ref)
            sums = np.bincount(df[to_col].to_numpy(),
                               weights=v[df[from_col].to_numpy()],
                               minlength=_n)
            nz = np.flatnonzero(sums)
            return pd.DataFrame({"i": nz.astype(np.int64), "c": sums[nz]})

        parts = eidx.map_batches(partial, batch_format="pandas").to_pandas()
        out = np.zeros(n, dtype=np.float64)
        np.add.at(out, parts["i"].to_numpy(), parts["c"].to_numpy())
        return out

    h = np.ones(n, dtype=np.float64)
    a = np.zeros(n, dtype=np.float64)
    for _ in range(iters):
        a = pull(h, "si", "di")
        a = a / np.sqrt((a * a).sum())
        h = pull(a, "di", "si")
        h = h / np.sqrt((h * h).sum())

    return rd.from_pandas(pd.DataFrame(
        {"node": node_arr, "hub": h, "auth": a}))


def sssp(
    edges: "rd.Dataset",
    sources: "rd.Dataset",
    max_rounds: int,
    weight_col: str = "w",
    src_col: str = "src",
    dst_col: str = "dst",
    node_col: str = "node",
) -> "rd.Dataset":
    """Weighted multi-source shortest paths — frontier-driven
    Bellman-Ford, capped at ``max_rounds`` relaxation rounds, so the
    result is exactly "min path weight over paths of ≤ max_rounds edges
    from any source" (with non-negative int weights and max_rounds ≥
    graph diameter that IS the shortest-path distance; the capped
    semantics are what the bounded recursive-CTE oracle replays).

    BFS's "first visit wins" doesn't hold under weights, so each round is
    relax-then-min instead of expand-then-anti-visit:

    * ``frontier ⋈ edges`` on the source endpoint (one hash-bucketed
      co-group) emits ``d(src) + w`` per out-edge; the join task
      pre-reduces to ONE min per destination before anything leaves the
      bucket (the combiner — the shuffle moves O(distinct dst per
      bucket), not O(frontier-adjacent edges));
    * a global per-dst min (grouped partial-combine shuffle);
    * candidates merge with the running dist table in one grouped apply
      over their union — a node improves iff its candidate is
      strictly below its current dist (or it was unseen); improved nodes
      form the next frontier.

    The dist table is one skinny (node, d) column pair re-bucketed per
    round; rounds stop early when no node improves. Pass both edge
    directions for an undirected graph. Unreachable nodes are absent.
    Weights must be non-negative int64 (negative weights would need the
    full |V|-1 rounds AND a negative-cycle check — reject loudly).
    """
    import pyarrow as pa

    from whoiswho_ray.stages.agg import distinct, group_apply
    from whoiswho_ray.stages.joins import shuffle_hash_join

    empty = rd.from_arrow(pa.table(
        {node_col: pa.array([], pa.string()),
         "dist": pa.array([], pa.int64())}))

    frontier = distinct(sources.select_columns([node_col]), [node_col],
                        final="shuffle").map_batches(
        lambda df: pd.DataFrame({node_col: df[node_col],
                                 "d": np.zeros(len(df), np.int64)}),
        batch_format="pandas").materialize()
    if not frontier.count():
        return empty
    dist = frontier

    def _check_weights(df: pd.DataFrame) -> pd.DataFrame:
        w = df[weight_col].to_numpy()
        if len(w) and w.min() < 0:
            raise ValueError("sssp requires non-negative weights")
        return df

    # materialize ONCE: every relaxation round joins against the edge
    # table, and an unmaterialized lineage would re-run the caller's
    # whole edge-building front-end per round (the iterative-graph
    # contract pagerank/kcore/hits already follow)
    edges = edges.map_batches(_check_weights,
                              batch_format="pandas").materialize()

    for _ in range(max_rounds):
        hop = frontier.map_batches(
            lambda df: pd.DataFrame({src_col: df[node_col], "fd": df["d"]}),
            batch_format="pandas")

        def relax(m: pd.DataFrame) -> pd.DataFrame:
            nd = (m["fd"].to_numpy(np.int64)
                  + m[weight_col].to_numpy(np.int64))
            t = pd.DataFrame({dst_col: m[dst_col], "nd": nd})
            return t.groupby(dst_col, sort=False, as_index=False).min()

        # per-dst partial mins from the join task feed the merge co-group
        # DIRECTLY — its per-(node, side) min makes a dedicated global
        # grouped-min exchange redundant (one less barrier per round);
        # an empty candidate side just yields zero improved nodes below
        cand = shuffle_hash_join(
            edges, hop, on=src_col, project=relax).map_batches(
            lambda df: pd.DataFrame({node_col: df[dst_col],
                                     "d": df["nd"].astype(np.int64),
                                     "is_new": np.ones(len(df), np.int8)}),
            batch_format="pandas")

        old = dist.map_batches(
            lambda df: pd.DataFrame({node_col: df[node_col], "d": df["d"],
                                     "is_new": np.zeros(len(df), np.int8)}),
            batch_format="pandas")

        def merge(df: pd.DataFrame) -> pd.DataFrame:
            # per node: min over each side, kept in int64 (a float or NaN
            # column would round distances above 2^53); improved iff
            # new < old or unseen
            new = df["is_new"].to_numpy() == 1
            d = df["d"].to_numpy(np.int64)
            top = np.iinfo(np.int64).max
            g = pd.DataFrame({node_col: df[node_col], "o": np.where(new, top, d),
                              "n": np.where(new, d, top), "seen": ~new,
                              "has_new": new}).groupby(node_col, sort=False).agg(
                o=("o", "min"), n=("n", "min"), seen=("seen", "max"),
                has_new=("has_new", "max"))
            o, n = g["o"].to_numpy(), g["n"].to_numpy()
            improved = g["has_new"].to_numpy() & (~g["seen"].to_numpy() | (n < o))
            return pd.DataFrame({node_col: g.index.to_numpy(),
                                 "d": np.where(improved, n, o),
                                 "improved": improved.astype(np.int8)})

        merged = group_apply(old.union(cand), node_col, merge,
                             batch_format="pandas",
                             whole_bucket=True).materialize()
        frontier = merged.map_batches(
            lambda df: df.loc[df["improved"] == 1, [node_col, "d"]],
            batch_format="pandas")
        dist = merged.select_columns([node_col, "d"])
        if not frontier.count():
            break

    return dist.map_batches(
        lambda df: pd.DataFrame({node_col: df[node_col],
                                 "dist": df["d"].astype(np.int64)}),
        batch_format="pandas")


def pagerank_weighted(
    edges: "rd.Dataset",
    iters: int = 3,
    damping: float = 0.85,
    src_col: str = "src",
    dst_col: str = "dst",
    weight_col: str = "w",
) -> "rd.Dataset":
    """Edge-WEIGHTED PageRank: mass leaves each node proportionally to
    edge weight (``w(u,v) / W(u)``, ``W(u) = Σ_v w(u,v)``) instead of
    uniformly — the variant similarity-weighted ER graphs need. Same
    broadcast-state shape as :func:`pagerank`'s fast path: node ids are
    dictionary-encoded once, the per-edge ``w/W(src)`` factor is stamped
    once (so iterations never recompute it), each iteration streams the
    encoded edges through per-destination weighted-bincount partials
    against the ``ray.put`` rank vector, and the driver adds O(n·blocks)
    partials. No shuffle ever touches the edges after encoding. Weights
    must be positive; dangling mass (nodes with no out-edges)
    redistributes uniformly as in the unweighted operator. This entry
    point covers the broadcast regime only: above
    :data:`MAX_BROADCAST_NODES` nodes it raises ``ValueError``.
    """
    import ray

    from whoiswho_ray.stages.agg import distinct

    nodes = distinct(
        edges.map_batches(lambda df: pd.DataFrame(
            {"node": pd.concat([df[src_col], df[dst_col]])}),
            batch_format="pandas"),
        ["node"], final="shuffle").materialize()
    _check_broadcast(nodes.count(), "pagerank_weighted")
    node_arr = np.sort(nodes.to_pandas()["node"].to_numpy(dtype=object))
    n = len(node_arr)
    if n == 0:
        return rd.from_pandas(pd.DataFrame(
            {"node": pd.Series([], dtype=object),
             "rank": pd.Series([], dtype=np.float64)}))
    pos = {v: i for i, v in enumerate(node_arr)}

    def encode(df: pd.DataFrame, _pos=pos) -> pd.DataFrame:
        w = df[weight_col].to_numpy(np.float64)
        if len(w) and w.min() <= 0:
            raise ValueError("pagerank_weighted needs positive weights")
        return pd.DataFrame({
            "si": df[src_col].map(_pos).to_numpy(np.int64),
            "di": df[dst_col].map(_pos).to_numpy(np.int64),
            "w": w,
        })

    eidx = edges.map_batches(encode, batch_format="pandas").materialize()

    def wdeg_partial(df: pd.DataFrame, _n=n) -> pd.DataFrame:
        sums = np.bincount(df["si"].to_numpy(),
                           weights=df["w"].to_numpy(), minlength=_n)
        nz = np.flatnonzero(sums)
        return pd.DataFrame({"i": nz.astype(np.int64), "m": sums[nz]})

    dparts = eidx.map_batches(wdeg_partial,
                              batch_format="pandas").to_pandas()
    wdeg = np.zeros(n)
    np.add.at(wdeg, dparts["i"].to_numpy(), dparts["m"].to_numpy())
    has_out = wdeg > 0
    inv = np.zeros(n)
    inv[has_out] = 1.0 / wdeg[has_out]

    # stamp the per-edge w/W(src) factor ONCE (iterations reuse it)
    def stamp(df: pd.DataFrame, _inv=inv) -> pd.DataFrame:
        return pd.DataFrame({
            "si": df["si"], "di": df["di"],
            "f": df["w"].to_numpy() * _inv[df["si"].to_numpy()]})

    ef = eidx.map_batches(stamp, batch_format="pandas").materialize()

    d = float(damping)
    r = np.full(n, 1.0 / n)
    for _ in range(iters):
        dang = float(r[~has_out].sum())
        base = (1.0 - d) / n + d * dang / n
        ref = ray.put(d * r)

        def partial(df: pd.DataFrame, _ref=ref, _n=n) -> pd.DataFrame:
            sv = ray.get(_ref)
            sums = np.bincount(
                df["di"].to_numpy(),
                weights=sv[df["si"].to_numpy()] * df["f"].to_numpy(),
                minlength=_n)
            nz = np.flatnonzero(sums)
            return pd.DataFrame({"i": nz.astype(np.int64), "c": sums[nz]})

        parts = ef.map_batches(partial, batch_format="pandas").to_pandas()
        r = np.full(n, base)
        np.add.at(r, parts["i"].to_numpy(), parts["c"].to_numpy())

    return rd.from_pandas(pd.DataFrame({"node": node_arr, "rank": r}))


def pagerank_personalized(
    edges: "rd.Dataset",
    sources: "rd.Dataset",
    iters: int = 3,
    damping: float = 0.85,
    src_col: str = "src",
    dst_col: str = "dst",
    weight_col: str = "w",
    node_col: str = "node",
) -> "rd.Dataset":
    """Personalized (topic-sensitive) PageRank over a WEIGHTED graph:
    teleport mass returns to the SOURCE SET instead of everywhere —
    the ego-relevance ranking an ER graph runs to score candidates
    around a seed entity set (Haveliwala WWW'02; bond-style ego
    relevance). r₀ = uniform over sources; per iteration
    ``r'(v) = (1−d)·t(v) + d·(Σ_{u→v} r(u)·w/W(u) + dangling·t(v))``
    with t = the source indicator / |S|.

    Same broadcast-state scale shape as :func:`pagerank_weighted`
    (per-edge w/W stamped once, weighted-bincount partials, O(n·blocks)
    driver adds, and the same :data:`MAX_BROADCAST_NODES` bound); nodes
    outside every source's reach keep rank exactly 0.0, so the result
    doubles as a soft reachability measure.
    """
    import ray

    from whoiswho_ray.stages.agg import distinct

    nodes = distinct(
        edges.map_batches(lambda df: pd.DataFrame(
            {"node": pd.concat([df[src_col], df[dst_col]])}),
            batch_format="pandas"),
        ["node"], final="shuffle").materialize()
    _check_broadcast(nodes.count(), "pagerank_personalized")
    node_arr = np.sort(nodes.to_pandas()["node"].to_numpy(dtype=object))
    n = len(node_arr)
    if n == 0:
        return rd.from_pandas(pd.DataFrame(
            {node_col: pd.Series([], dtype=object),
             "rank": pd.Series([], dtype=np.float64)}))
    pos = {v: i for i, v in enumerate(node_arr)}

    src_nodes = distinct(sources.select_columns([node_col]),
                         [node_col], final="driver")
    sset = [pos[v] for v in src_nodes[node_col] if v in pos]
    if not sset:
        raise ValueError("pagerank_personalized: no source node appears "
                         "in the graph")
    t = np.zeros(n)
    t[np.asarray(sorted(sset), np.int64)] = 1.0 / len(sset)

    def encode(df: pd.DataFrame, _pos=pos) -> pd.DataFrame:
        w = df[weight_col].to_numpy(np.float64)
        if len(w) and w.min() <= 0:
            raise ValueError("pagerank_personalized needs positive weights")
        return pd.DataFrame({
            "si": df[src_col].map(_pos).to_numpy(np.int64),
            "di": df[dst_col].map(_pos).to_numpy(np.int64),
            "w": w})

    eidx = edges.map_batches(encode, batch_format="pandas").materialize()

    def wdeg_partial(df: pd.DataFrame, _n=n) -> pd.DataFrame:
        sums = np.bincount(df["si"].to_numpy(),
                           weights=df["w"].to_numpy(), minlength=_n)
        nz = np.flatnonzero(sums)
        return pd.DataFrame({"i": nz.astype(np.int64), "m": sums[nz]})

    dparts = eidx.map_batches(wdeg_partial,
                              batch_format="pandas").to_pandas()
    wdeg = np.zeros(n)
    np.add.at(wdeg, dparts["i"].to_numpy(), dparts["m"].to_numpy())
    has_out = wdeg > 0
    inv = np.zeros(n)
    inv[has_out] = 1.0 / wdeg[has_out]

    def stamp(df: pd.DataFrame, _inv=inv) -> pd.DataFrame:
        return pd.DataFrame({
            "si": df["si"], "di": df["di"],
            "f": df["w"].to_numpy() * _inv[df["si"].to_numpy()]})

    ef = eidx.map_batches(stamp, batch_format="pandas").materialize()

    d = float(damping)
    r = t.copy()
    for _ in range(iters):
        dang = float(r[~has_out].sum())
        ref = ray.put(d * r)

        def partial(df: pd.DataFrame, _ref=ref, _n=n) -> pd.DataFrame:
            sv = ray.get(_ref)
            sums = np.bincount(
                df["di"].to_numpy(),
                weights=sv[df["si"].to_numpy()] * df["f"].to_numpy(),
                minlength=_n)
            nz = np.flatnonzero(sums)
            return pd.DataFrame({"i": nz.astype(np.int64), "c": sums[nz]})

        parts = ef.map_batches(partial, batch_format="pandas").to_pandas()
        r = (1.0 - d) * t + d * dang * t
        np.add.at(r, parts["i"].to_numpy(), parts["c"].to_numpy())

    keep = r != 0.0
    return rd.from_pandas(pd.DataFrame(
        {node_col: node_arr[keep], "rank": r[keep]}))
