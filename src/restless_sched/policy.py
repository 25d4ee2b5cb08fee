"""Policies, the myopic rule, and exact evaluation of finite-horizon
values over the observation tree.

The myopic rule works the project with the largest immediate reward
R'x, ties (within ``ARGMAX_TOL``) going to the lowest index.  Rewards
are strictly increasing, so this is also the MLR-greatest project
wherever the profile is MLR-ordered, in either regime.  The same tie
rule, whose one body is ``_greatest_array_index``, picks the DP's
actions.

A policy is a name plus one batch-shaped decision ``decide(t,
beliefs[n, N, X]) -> actions[n]`` with 0-based actions; the simulator
calls it on the distinct histories of a slot and ``policy_value`` on
one tree level, and both reject a decision of another shape or an
action outside 0..N-1 (``check_decisions``).  Immediate rewards are
``filtering.row_dot(beliefs, R)`` everywhere: the myopic rule decides on
the same product that the DP values nodes with.  ``row_max``, which the
tie rule and the DP use, takes the maximum column by column, avoiding
numpy's slow reduction over a short last axis; ``filtering.row_sum``
sums one the same way, left to right from +0.0, where numpy would sum 8
or more terms pairwise.

The tree is grown one level at a time and summed backwards, each level
by ``backup`` on (..., Y) blocks of its children.
``TreeEvaluator.sweep`` follows one decision per node from many root
profiles at once, each root up to its own horizon, on built levels of
profiles (``TreeEvaluator.expand``) that merge nothing, so each root is
valued as if swept alone; it gives ``policy_value`` and the auxiliary
value function W^u_t (take action u at slot t, act myopically
afterwards).

The DP in ``dp`` works every action of every node, and its levels are
factored: projects evolve independently, so a level is ``ids`` (n, N),
row indices into a per-depth ``table`` (M, X) of one-project beliefs.
``TreeEvaluator.next_level`` and ``TreeEvaluator.leaf_pass`` propagate
and filter each table row once into the next depth's table
(``_next_table``) and key the children by integer gathers
(``_child_keys``); ``leaf_pass`` values the deepest level a chunk at a
time without building it, backs it up and counts it.  Both key the
children observation-major, and ``leaf_pass`` values them so, each
array (Y, N, parents) with whole parents last: numpy runs an operation
that broadcasts over a short last axis a few elements at a time.  A
leaf's largest reward is the larger of its worked project's and the
largest passive reward of its parent's other projects; only leaves
whose runner-up lies within ``ARGMAX_TOL`` of it go through the tie
rule.  ``leaf_pass`` works in one scratch per thread
(``_leaf_scratch``, a ``threading.local``) that outlives the
certificate, up to ``_LEAF_KEEP_BYTES`` (64 MiB: a deep T=7 pass keeps
about 11 MB, a T=8 one takes 81 MB and frees it), so that a repeated
certificate maps no fresh pages for its leaves; no array it returns
aliases the scratch.  A deep T=6 certificate filters 2,093 table rows
where built levels filtered 58,824 project rows.  Every level takes
A'x and T(x, m) from ``filtering.row_dot`` and ``filtering.filter_rows``,
whose bits depend on neither the level's shape nor its layout, so a
factored level's rows have the bits of a built one's, and keeps all Y
children of a worked node: a dead (zero-likelihood) one is its first
live sibling (``filter_rows``) at likelihood 0.0.

The rows of each next table of the DP are grouped by rounded key in
``_group_rows``, which gives each row a canonical id: one 64-bit
fingerprint per row (its key bits times ``fingerprint_multipliers``,
summed modulo 2**64), one sort, a bit-for-bit check of the rows that
share one, and, if two different rows do, ``_exact_merge``, ``np.unique``
over the rows.  The DP keys a child by its N table rows' canonical ids
packed into one exact integer, or, where that integer would pass 2**64,
by the rank of its id row (``_exact_merge``).  ``next_level`` merges
the children with one in-place sort of uint64 words, each key shifted
above its child's position in expansion order (``_merge_children``),
and ``leaf_pass`` counts them with one in-place sort of the keys;
neither needs a tie check.  Every value still comes from the unrounded
table rows, so a factored level merges bit for bit as a built one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import DimensionMismatchError
from .filtering import BeliefProfile, filter_rows, row_dot, row_sum
from .types import ModelInstance, belief_key, check_integer, check_seed, key_bits

#: Two values within this are treated as tied.
ARGMAX_TOL = 1e-12


@dataclass(frozen=True)
class PolicyRule:
    """A deterministic decision rule: (slot, beliefs of shape (n, N, X))
    -> 0-based actions of shape (n,).

    ``decide`` must act on each row on its own: the action of row i may
    depend on the slot and on ``beliefs[i]``, not on the other rows or
    on n.  The simulator and ``TreeEvaluator.sweep`` call it once per
    distinct history or tree node, not once per trajectory or path.
    """

    name: str
    decide: Callable[[int, np.ndarray], np.ndarray]


def check_decisions(policy: PolicyRule, u, beliefs: np.ndarray) -> np.ndarray:
    """The batch decision ``u`` on ``beliefs`` (n, N, X) as an array: a
    ``ValueError`` unless it has shape (n,) and an integer dtype, and an
    ``IndexError`` if it names a project outside 0..N-1 (numpy would
    wrap a negative index to another project)."""
    u = np.asarray(u)
    n, n_projects = beliefs.shape[:2]
    if u.shape != (n,):
        raise ValueError(
            f"policy {policy.name!r} returned decisions of shape {u.shape} for {n} profiles; "
            f"expected ({n},)"
        )
    if not np.issubdtype(u.dtype, np.integer):
        raise ValueError(
            f"policy {policy.name!r} returned decisions of dtype {u.dtype}; expected integers"
        )
    bad = (u < 0) | (u >= n_projects)
    if bad.any():
        raise IndexError(f"policy {policy.name!r} chose project {u[bad][0] + 1} of {n_projects}")
    return u


def horizon_for_tolerance(beta: float, r_max: float, tol: float) -> int:
    """Smallest T with beta^(T+1) * r_max / (1 - beta) below tol."""
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    if not np.isfinite(r_max):
        raise ValueError(f"r_max must be finite, got {r_max}")
    # Every comparison with NaN is false, so a NaN tol fails this one.
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    T = 0
    tail = beta * r_max / (1.0 - beta) if beta > 0 else 0.0
    while tail >= tol:
        T += 1
        tail *= beta
    return T


def row_max(values: np.ndarray) -> np.ndarray:
    """The largest entry along the last axis, taken column by column.

    Exactly ``values.max(axis=-1)``, but each step is one elementwise
    ``np.maximum`` over a whole column: numpy reduces a short last axis
    one row at a time.
    """
    out = np.maximum(values[..., 0], values[..., -1])
    for k in range(1, values.shape[-1] - 1):
        np.maximum(out, values[..., k], out=out)
    return out


def _greatest_array_index(values: np.ndarray) -> np.ndarray:
    """Lowest index whose value lies within ARGMAX_TOL of the largest,
    one decision per row: the last axis of ``values`` indexes the
    candidates."""
    near = values >= row_max(values)[..., None] - ARGMAX_TOL
    return near.argmax(axis=-1)


def backup(rewards, d, next_values, beta):
    """Values of one level, shaped like ``rewards``: immediate reward plus
    beta times the likelihood-weighted values of the children, ``d`` and
    ``next_values`` shaped like ``rewards`` with a trailing axis of Y
    observations, summed in observation order by ``row_sum``."""
    return rewards + beta * row_sum(d * next_values)


#: Odd base whose powers weight the key columns in a node fingerprint.
_BASE = np.uint64(0x9E3779B97F4A7C15)


def fingerprint_multipliers(n_columns: int) -> np.ndarray:
    """The odd multipliers ``_BASE ** (j + 1)`` of key columns j.  A
    row's fingerprint is its ``key_bits`` times these, summed modulo
    2**64, so rows that differ in one column never share one."""
    return np.cumprod(np.full(n_columns, _BASE))


#: Leaves that ``TreeEvaluator.leaf_pass`` values at a time, in whole
#: parents, so that its arrays stay in the heap and cache.
_LEAF_CHUNK = 8192

#: The largest scratch, in bytes, that ``_leaf_scratch`` keeps between
#: calls: a deep T=7 leaf pass takes about 11 MB, a T=8 one 81 MB.
_LEAF_KEEP_BYTES = 64 << 20

#: Per thread, the leaf pass's kept scratch (``_leaf_scratch``).
_LEAF_SCRATCH = threading.local()


def _leaf_scratch(nbytes: int) -> np.ndarray:
    """``nbytes`` bytes of working memory for ``TreeEvaluator.leaf_pass``
    in this thread, as a uint8 array.

    Up to ``_LEAF_KEEP_BYTES`` the bytes come from one buffer per thread
    that outlives the call and grows to the largest request, so a
    repeated pass touches no fresh pages; a larger request gets a fresh
    array, freed with the call.  The contents are garbage, and the next
    request in the thread may overwrite them.
    """
    if nbytes > _LEAF_KEEP_BYTES:
        return np.empty(nbytes, dtype=np.uint8)
    kept = getattr(_LEAF_SCRATCH, "buffer", None)
    if kept is None or len(kept) < nbytes:
        # The old buffer goes first, so the two are never held at once.
        _LEAF_SCRATCH.buffer = kept = None
        kept = _LEAF_SCRATCH.buffer = np.empty(nbytes, dtype=np.uint8)
    return kept[:nbytes]


def _top_two_others(rewards: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """From ``rewards`` (N, n), N projects' rewards in n profiles: per
    project and profile, the largest and the second largest reward of
    the other projects (-inf where there are fewer), each (N, n), the
    two halves of ``out`` (2, N, n)."""
    rows, (first, second) = list(rewards), out
    for a, (top, runner) in enumerate(zip(first, second)):
        rest = rows[:a] + rows[a + 1:]
        if len(rest) < 2:
            top[...] = rest[0] if rest else -np.inf
            runner.fill(-np.inf)
            continue
        np.maximum(rest[0], rest[-1], out=top)
        np.minimum(rest[0], rest[-1], out=runner)
        for r in rest[1:-1]:
            np.maximum(runner, np.minimum(top, r), out=runner)
            np.maximum(top, r, out=top)
    return first, second


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group n rows by their integer ``keys`` (n,): (order, head), an
    order of the rows in which equal keys are adjacent, and per position
    of that order, whether a new key starts there."""
    order = np.argsort(keys)
    keys = keys[order]
    head = np.empty(len(order), dtype=bool)
    head[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    return order, head


def _group_rows(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """Group the rows of ``rows`` (n, k) by rounded key, rounding them
    in place with ``key_bits``: (canonical ids, K), per row a uint64 id
    in [0, K), equal exactly where the rows' keys are.

    Each row's fingerprint is its key bits times
    ``fingerprint_multipliers``, summed modulo 2**64.  The rows are
    sorted by fingerprint, and every pair of neighbours that share one
    is compared bit for bit.  If two different rows share a fingerprint,
    the rows are grouped by ``_exact_merge`` of all their key bits
    instead.
    """
    bits = key_bits(rows)
    order, head = _runs(bits @ fingerprint_multipliers(bits.shape[1]))
    tie = (~head[1:]).nonzero()[0]
    tied = order.take(tie)
    if not np.array_equal(bits.take(tied, axis=0), bits.take(order.take(tie + 1), axis=0)):
        order, head = _runs(_exact_merge(bits))
    canon = np.empty(len(order), dtype=np.uint64)
    canon[order] = head.cumsum() - 1
    return canon, int(np.count_nonzero(head))


def _exact_merge(bits: np.ndarray) -> np.ndarray:
    """``np.unique`` over the rows of ``bits`` (n, k), 64-bit key bits
    already rounded or canonical ids: for every row, the position of its
    row among the distinct rows in sorted order of their bytes."""
    keys = bits.view(np.dtype((np.void, bits.itemsize * bits.shape[1]))).ravel()
    return np.unique(keys, return_inverse=True)[1]


def _merge_children(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge the children whose exact integer ``keys`` (Y, N, n) are laid
    out by observation, then action, then parent, keeping each key's
    first child in expansion order: by parent, then action, then
    observation.

    Each key is shifted above its child's expansion position, which
    takes b = ceil(log2(n*N*Y)) bits, into one uint64 word, and the
    words are sorted in place: equal keys form runs, and each run's head
    holds its key's first child.  Keys that fit in 64 bits but not
    beside their positions are ranked exactly first (``np.unique``).
    uint64 ``keys`` are packed and sorted in place.

    Returns (first, inverse): the positions of the kept children in
    ascending order, and per child, (n, N, Y) by (parent, action,
    observation), the position of its key among the kept children.
    """
    Y, N, n = keys.shape
    size = keys.size
    width = (size - 1).bit_length()
    if int(keys.max()) >> (64 - width):
        keys = np.unique(keys, return_inverse=True)[1].reshape(keys.shape)
    # Every operand is uint64: numpy promotes uint64 with intp to
    # float64, which numpy 1.24 cannot shift.
    shift = np.uint64(width)
    words = keys.astype(np.uint64, copy=False)
    words <<= shift
    # Each child's position in expansion order, laid out as the keys.
    words |= np.arange(size, dtype=np.uint64).reshape(n, N, Y).T
    words = words.ravel()
    words.sort()
    # One scratch array as long as the children holds the sorted keys,
    # then per position the number of kept children before it, then per
    # sorted child the number of heads after the first up to it (the
    # run of its key), then per child its key's rank.
    scratch = words >> shift
    head = np.empty(size, dtype=bool)
    head[0] = True
    np.not_equal(scratch[1:], scratch[:-1], out=head[1:])
    words &= np.uint64((1 << width) - 1)
    position = words.view(np.int64)
    scratch = scratch.view(np.int64)
    scratch[0] = 0
    # Per key, in key order, its first child, and that child's place
    # among the kept children.
    heads = position[head]
    kept = np.zeros(size, dtype=bool)
    kept[heads] = True
    np.add.accumulate(kept[:-1], dtype=np.int64, out=scratch[1:])
    rank = scratch.take(heads)
    np.add.accumulate(head[1:], dtype=np.int64, out=scratch[1:])
    scratch[position] = rank.take(scratch)
    return kept.nonzero()[0], scratch.reshape(n, N, Y)


def _child_ids(ids: np.ndarray, c: np.ndarray, M: int, Y: int) -> np.ndarray:
    """The next table's ids (k, N) of the children at flat indices ``c``
    (parent, action, observation) of ``ids`` (n, N) into M rows: their
    parent's row of ``ids``, the worked project's id i replaced by
    M + m*M + i, its row filtered on the child's observation m."""
    N = ids.shape[1]
    # Floor division by a scalar is vectorised, the remainder is not.
    pair = c // Y
    parent = pair // N
    kids = ids.take(parent, axis=0)
    # Per child, the flat index of its worked project in ``kids``.
    worked = np.arange(0, kids.size, N) - parent * N
    worked += pair
    kids.put(worked, ids.take(pair) + (c - pair * Y + 1) * M)
    return kids


class TreeEvaluator:
    """Exact expectation over the Y-ary observation tree of one instance.

    Holds the matrices of one instance and horizon, the level kernel
    (``expand``) that ``sweep`` runs on, and the DP's factored levels
    (``next_level`` and ``leaf_pass``).  All internal indices are
    0-based; beliefs are tuples of read-only arrays, built levels are
    arrays of shape (n, N, X), and factored ones are ids (n, N) into a
    table (M, X).
    """

    def __init__(self, inst: ModelInstance, horizon: int):
        self.inst = inst
        self.T = int(horizon)
        self.A = inst.A.rows
        self.B = inst.B.rows
        self.R = inst.R.values
        self.beta = inst.beta
        self.N = inst.n_projects
        self.Y = inst.n_obs

    def expand(self, level: np.ndarray, actions: np.ndarray):
        """Children of every profile in ``level`` (n, N, X) when each works
        its 0-based project in ``actions`` (n,).

        Returns (children, likelihood): one entry per child, ordered by
        parent, then 0-based observation.  A zero-likelihood child is its
        first live sibling (``filter_rows``) at likelihood 0.0.
        """
        rows = np.arange(len(level))
        propagated = row_dot(level, self.A)
        d, live, filtered = filter_rows(propagated[rows, actions][None], self.B)
        children = np.empty((len(level), self.Y) + level.shape[1:])
        children[...] = propagated[:, None]
        children[rows, :, actions] = filtered[:, :, 0].T
        return children.reshape((-1,) + level.shape[1:]), np.where(live, d, 0.0).ravel()

    def _next_table(self, table: np.ndarray):
        """The next depth's table below ``table`` (M, X), with a canonical
        id per row.

        Each table row is propagated and filtered on every observation
        once, into the next depth's table: the M propagated rows, then
        row M + m*M + i holding row i's filter on 0-based observation m.
        A child keeps its parent's ids, the propagated rows, except the
        worked project's, which becomes that filtered row's.  The rows
        are grouped by rounded key once (``_group_rows``), giving
        each a canonical id in [0, K).  A dead filter's row is its first
        live sibling's (``filter_rows``), so it shares that row's id, and
        its likelihood is 0.0.

        Returns (next table (M + Y*M, X), likelihood (M, Y), canonical
        ids, K).
        """
        M, X = table.shape
        propagated = row_dot(table, self.A)
        d, live, filtered = filter_rows(propagated[None], self.B)
        table = np.concatenate((propagated, filtered.reshape(X, -1).T))
        canon, K = _group_rows(table.copy())
        return table, np.where(live, d, 0.0).reshape(M, -1), canon, K

    def _child_keys(
        self, canon: np.ndarray, K: int, columns: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """One exact key per child of the n nodes whose ids are
        ``columns`` (N, n), one row per project, from the canonical ids
        of ``_next_table``.  The keys are ordered by observation, then
        action, then parent: each (observation, action) pair's keys are
        one run over whole parents.  Children have equal keys exactly
        when their canonical ids are equal position by position, so a
        key is the uint64 sum_j canon[id_j] * K**j (unsigned as the
        fingerprints, so that both take one numpy sort), written into
        ``out`` (Y, N, n) if given, or, if K**N exceeds 2**64, the rank
        of the child's row of N canonical ids among the distinct rows
        (``_exact_merge``), a fresh array.

        A child's key is its parent's plus the worked project's change
        of term.  Every operand of the (Y, N, n) keys is a whole
        (N, n) block, one K**action per action or one parent key per
        node: numpy runs an operation that broadcasts over a short last
        axis a few elements at a time.
        """
        (N, n), Y = columns.shape, self.Y
        M = len(canon) // (Y + 1)
        if K ** N > 2 ** 64:
            kids = _child_ids(columns.T, np.arange(columns.size * Y), M, Y)
            return _exact_merge(canon.take(kids)).reshape(n, N, Y).T.ravel()
        radix = K ** np.arange(N, dtype=np.uint64)
        # Per node, its key; per observation and table row, a filtered
        # row's canonical id less the propagated row's.  Both may wrap
        # modulo 2**64, a child's key does not.
        parent, term = canon.take(columns[0]), np.empty(n, dtype=np.uint64)
        for j in range(1, N):
            canon.take(columns[j], out=term, mode="wrap")
            term *= radix[j]
            parent += term
        change = canon[M:].reshape(Y, M) - canon[:M]
        # mode="wrap" writes straight into ``out``; "raise" would buffer.
        keys = change.take(columns, axis=1, out=out, mode="wrap")
        keys *= radix[:, None]
        keys += parent
        return keys.ravel()

    def next_level(self, table: np.ndarray, ids: np.ndarray):
        """The DP's next level below the nodes ``ids`` (n, N) of
        ``table`` (M, X): the children under every action, merged by
        rounded key, keeping each key's first child in ``expand``'s
        order.

        The children's keys (``_child_keys``) are merged by one in-place
        sort of packed (key, position) words (``_merge_children``),
        which are freed before the kept children's ids are decoded from
        their positions (``_child_ids``).

        Returns (table, ids, likelihood, inverse): the kept children as
        ids into the next depth's table, cut to the rows they use, in
        order; and per child, each (n, N, Y) by (parent, action,
        observation), its likelihood and the position of its key among
        the kept children.
        """
        (n, N), M = ids.shape, len(table)
        table, d, canon, K = self._next_table(table)
        keys = self._child_keys(canon, K, np.ascontiguousarray(ids.T))
        first, inverse = _merge_children(keys.reshape(self.Y, N, n))
        del keys
        kids = _child_ids(ids, first, M, self.Y)
        # Keep the table rows the kept children use, in order.
        used = np.zeros(len(table), dtype=bool)
        used[kids] = True
        renumber = used.cumsum() - 1
        table = table.take(used.nonzero()[0], axis=0)
        return table, renumber.take(kids), d.take(ids, axis=0), inverse

    def leaf_pass(
        self,
        table: np.ndarray,
        ids: np.ndarray,
        rewards: np.ndarray,
        on_count: Callable[[int], None] | None = None,
    ):
        """The children of the nodes ``ids`` (n, N) of ``table`` (M, X),
        whose immediate rewards are ``rewards`` (n, N), under every
        action, valued, backed up and counted as leaves without building
        them.

        Returns (optimal, myopic, count): per node and action, (n, N) in
        C order, its reward plus beta times its children's
        likelihood-weighted largest immediate rewards, or the tie rule's
        picks, bit for bit as
        ``backup`` of built leaves; and the number of distinct rounded
        keys among the children, the nodes a merge would keep.  Where no
        leaf ties, ``myopic`` is ``optimal`` itself.  Both are fresh
        arrays.  ``on_count``, if given, is called with the count as
        soon as it is known, before any value is computed, and may raise
        to refuse the request (``dp`` checks its node budget so); it
        must not start another leaf pass in the same thread.

        Every buffer whose size scales with the n*N node actions, but
        the returned values, lives in one per-thread scratch
        (``_leaf_scratch``) that outlives the call, so that a repeated
        pass maps no fresh pages:
        the ids by column, whose place one chunk's buffers take once
        they are spent; the keys, whose place the passive rewards by
        column and the others' top two rewards take once they are
        counted, the values then taking the passive rewards' place; and
        the tie flags.  A scratch above ``_LEAF_KEEP_BYTES`` is freed
        with the call.  Nothing returned aliases it.

        The count sorts the keys of ``_child_keys`` in place, the one
        array as long as the children, and compares neighbours
        ``_LEAF_CHUNK`` at a time.  The values take as many children at
        a time, in whole parents, each array shaped (Y, N, parents) like
        the keys, so that every operation runs over whole parents.  A
        leaf's rewards are its worked project's and the passive ones of
        its parent, all from one ``row_dot`` over the table.  Its largest
        is the larger of the worked reward and the largest passive
        reward of the other projects, which ``np.maximum`` takes
        exactly; the tie rule picks that reward too
        unless the runner-up, the smaller of those two or the others'
        second largest (``_top_two_others``), lies within ARGMAX_TOL of
        it.  Only the actions with such a leaf go through the tie rule,
        ``_greatest_array_index`` over each leaf's N rewards, and
        ``backup`` of the picks.  Each action's Y observations are
        summed by ``row_sum`` in observation order, as ``backup`` sums
        them.  A dead leaf is its first live sibling at likelihood 0.0.
        """
        (n, N), Y = ids.shape, self.Y
        table, d, canon, K = self._next_table(table)
        rows = row_dot(table, self.R).reshape(Y + 1, -1)
        # Per observation and table row, the worked project's reward and
        # the likelihood, gathered together; the table is not needed
        # past its rewards.
        passive, worked = rows[0], np.concatenate((rows[1:], d.T)).reshape(2, Y, -1)
        del table, d
        block, step = N * n, max(1, _LEAF_CHUNK // (N * Y))
        # The kept scratch, in three slots: 8-byte words for the ids by
        # column, then one chunk's buffers; words for the keys, then the
        # passive rewards by column (then the values) and the others' top
        # two rewards; a byte per node and action for the tie flags.
        lead = max(block, 4 * Y * N * min(step, n))
        held = _leaf_scratch(8 * (lead + max(Y, 3) * block) + block)
        columns = held[:8 * block].view(np.intp).reshape(N, n)
        work, near = held[8 * lead:-block], held[-block:].view(bool).reshape(N, n)
        np.copyto(columns, ids.T)
        keys = work[:8 * Y * block].view(np.uint64).reshape(Y, N, n)
        keys = self._child_keys(canon, K, columns, out=keys)
        del canon
        keys.sort()
        count = 1
        for start in range(0, len(keys), _LEAF_CHUNK):
            run = keys[start:start + _LEAF_CHUNK + 1]
            count += int(np.count_nonzero(run[1:] != run[:-1]))
        del keys, run
        if on_count is not None:
            on_count(count)
        values = work[:24 * block].view(np.float64).reshape(3, N, n)
        optimal = passive.take(columns, out=values[0], mode="wrap")
        first, second = _top_two_others(optimal, out=values[1:])
        chunk = held[:8 * lead].view(np.float64)
        for start in range(0, n, step):
            part = np.s_[:, start:start + step]
            cols, top = ids[start:start + step].T, first[part]
            buf = chunk[:4 * Y * cols.size].reshape(4, Y, *cols.shape)
            reward, d_part, best, bar = buf
            worked.take(cols, axis=2, out=buf[:2], mode="wrap")
            np.maximum(reward, top, out=best)
            np.subtract(best, ARGMAX_TOL, out=bar)
            # The runner-up: the smaller of the worked reward and the
            # others' largest, or the others' second largest.
            np.minimum(reward, top, out=reward)
            np.maximum(reward, second[part], out=reward)
            np.logical_or.reduce(reward >= bar, axis=0, out=near[part])
            best *= d_part
            row_sum(best.transpose(1, 2, 0), out=optimal[part])
        # The same terms as rewards + beta * sums, in C order, so that
        # the DP picks each node's myopic value with one flat ``take``.
        # Copied first, the transpose takes no ufunc buffer beside the
        # scratch.
        optimal = optimal.T.copy()
        optimal *= self.beta
        optimal += rewards
        # Only where the best leaf reward has a runner-up within
        # ARGMAX_TOL can the tie rule pick another project's reward.
        if not near.any():
            return optimal, optimal, count
        myopic = optimal.copy()
        action, parent = near.nonzero()
        for start in range(0, len(parent), step * N):
            p, a = parent[start:start + step * N], action[start:start + step * N]
            reward, d_part = worked.take(ids[p, a], axis=2).transpose(0, 2, 1)
            # Per pair and observation, each project's immediate reward.
            leaf = np.empty((len(p), Y, N))
            leaf[...] = passive.take(ids[p])[:, None]
            leaf[np.arange(len(p)), :, a] = reward
            pick = np.take_along_axis(leaf, _greatest_array_index(leaf)[..., None], -1)[..., 0]
            myopic[p, a] = backup(rewards[p, a], d_part, pick, self.beta)
        return optimal, myopic, count

    # Not called by the package; the per-layer tracer in perfbench wraps
    # ``TreeEvaluator.profile_key`` by name.
    def profile_key(self, t: int, beliefs: tuple) -> tuple:
        return (t, b"".join(belief_key(x) for x in beliefs))

    # Not called by the package; the per-layer tracer in perfbench wraps
    # ``TreeEvaluator.branches`` by name.
    def branches(self, beliefs: tuple, u: int):
        """(0-based observation, likelihood, stepped beliefs) per possible
        observation after working project u (0-based)."""
        children, d = self.expand(np.array((beliefs,)), np.array([u]))
        return [(m, float(p), tuple(c)) for m, (p, c) in enumerate(zip(d, children)) if p > 0]

    def sweep(
        self,
        t: int,
        roots: np.ndarray,
        policy: PolicyRule,
        first: np.ndarray | None = None,
        horizons: np.ndarray | None = None,
    ) -> np.ndarray:
        """Value from slot t of every profile in ``roots`` (n, N, X).

        ``policy`` decides at every node, except that ``first`` (n,), if
        given, is the 0-based project each root works at slot t.  Root i
        is valued up to slot ``horizons[i]`` (each at least t), or up to
        the evaluator's T if ``horizons`` is not given: a node at its
        horizon is a leaf.  Each level holds the Y children of every
        node of the level above that is below its horizon, in parent
        order, under the node's chosen action; nothing is merged, so
        every root is valued bit for bit as in a sweep of that root
        alone, and a sweep expands Y**d nodes per root at depth d.  One
        backward sweep then sums each node's likelihood-weighted child
        values in observation order.

        The package's own sweeps are shallow: the bound suite caps its
        lookahead at ``bounds.MAX_LOOKAHEAD`` (4).  A deep sweep of an
        instance whose histories round to a few profiles, such as a
        regime-2 instance with a flat B, costs Y**T nodes where a merge
        by rounded key kept a handful: on ``generate --regime 2 --seed
        1`` (X = Y = N = 3), ``policy_value`` at T = 13 takes 0.45-0.72
        s and 315-372 MB max RSS, where the merging sweep took 2-3 ms.

        A sweep builds its levels instead of factoring them as the DP
        does: it works one action per node on levels of a few hundred
        nodes, so the table bookkeeping costs more than it saves.  A
        prototype id-table sweep took 318-340 us per sweep against 241
        us on the certify-pipeline bound suites (+30 %, about +8 % of a
        pipeline operation).
        """
        level, u, levels = roots, first, []
        horizon = np.full(len(roots), self.T) if horizons is None else np.asarray(horizons)
        for depth in range(t, int(horizon.max(initial=t)) + 1):
            if u is None:
                u = check_decisions(policy, policy.decide(depth, level), level)
            values = row_dot(level[np.arange(len(level)), u], self.R)
            grow = np.flatnonzero(horizon > depth)
            if not len(grow):
                break
            level, d = self.expand(level[grow], u[grow])
            levels.append((values, grow, d.reshape(-1, self.Y)))
            horizon, u = horizon[grow].repeat(self.Y), None
        # A node at its horizon keeps its reward; the others are backed up.
        for rewards, grow, d in reversed(levels):
            rewards[grow] = backup(rewards[grow], d, values.reshape(-1, self.Y), self.beta)
            values = rewards
        return values

    def avf(self, t: int, beliefs: tuple, u: int) -> float:
        """W^u_t: take u (0-based) now, act myopically afterwards."""
        roots = np.array((beliefs,))
        return float(self.sweep(t, roots, myopic_policy(self.inst), np.array([u]))[0])

    def policy_value(self, t: int, beliefs: tuple, policy: PolicyRule) -> float:
        """Value of ``policy`` from slot t of one profile."""
        return float(self.sweep(t, np.array((beliefs,)), policy)[0])


def check_profile(inst: ModelInstance, profile: BeliefProfile, t: int, T: int) -> None:
    """Reject a slot or horizon that is not an integer (``TypeError``), a
    negative horizon or slot, a slot past the horizon, and a profile
    whose number of projects or belief dimension differs from the
    instance's."""
    check_integer("t", t)
    check_integer("T", T)
    if T < 0:
        raise ValueError(f"horizon T must be >= 0, got {T}")
    if not 0 <= t <= T:
        raise ValueError(f"slot t={t} outside 0..T={T}")
    dims = {x.dim for x in profile.beliefs}
    if profile.n_projects != inst.n_projects or dims != {inst.n_states}:
        raise DimensionMismatchError(
            f"profile of {profile.n_projects} beliefs with dims {sorted(dims)} does not fit "
            f"an instance of N={inst.n_projects} projects and X={inst.n_states} states"
        )


def _check_first_action(profile: BeliefProfile, first_action: int) -> None:
    check_integer("first_action", first_action)
    if not 1 <= first_action <= profile.n_projects:
        raise IndexError(f"project {first_action} out of range 1..{profile.n_projects}")


def avf_evaluate(
    inst: ModelInstance, profile: BeliefProfile, t: int, T: int, first_action: int
) -> float:
    """Auxiliary value W^u_t for 1-based first action u on a profile."""
    check_profile(inst, profile, t, T)
    _check_first_action(profile, first_action)
    return TreeEvaluator(inst, T).avf(t, profile.arrays(), first_action - 1)


def policy_value(
    inst: ModelInstance, profile: BeliefProfile, t: int, T: int, policy: PolicyRule
) -> float:
    """Exact expected discounted reward of a policy from slot t to T."""
    check_profile(inst, profile, t, T)
    return TreeEvaluator(inst, T).policy_value(t, profile.arrays(), policy)


def myopic_policy(inst: ModelInstance) -> PolicyRule:
    """The rule that works the project with the largest immediate reward."""
    r = inst.R.values

    def decide(t: int, beliefs: np.ndarray) -> np.ndarray:
        del t
        return _greatest_array_index(row_dot(beliefs, r))

    return PolicyRule("myopic", decide)


def _constant(project: int, beliefs: np.ndarray) -> np.ndarray:
    """The same 0-based project for every row of a batch."""
    return np.full(beliefs.shape[0], project, dtype=np.int64)


def stay_policy(project: int) -> PolicyRule:
    """Always work one fixed project (1-based).  A project that is not
    an integer raises ``TypeError`` and one below 1 ``ValueError``; one
    above N is only known at a decision, which raises ``IndexError``
    (``check_decisions``)."""
    check_integer("project", project)
    if project < 1:
        raise ValueError(f"project must be >= 1, got {project}")
    return PolicyRule(f"stay-{project}", lambda t, beliefs: _constant(project - 1, beliefs))


def round_robin_policy(n_projects: int) -> PolicyRule:
    """Cycle through projects in index order.  A count that is not an
    integer raises ``TypeError``, and fewer than one project
    ``ValueError``."""
    check_integer("n_projects", n_projects)
    if n_projects < 1:
        raise ValueError(f"n_projects must be >= 1, got {n_projects}")
    return PolicyRule(
        "round-robin", lambda t, beliefs: _constant(t % n_projects, beliefs)
    )


def seeded_random_policy(n_projects: int, seed: int) -> PolicyRule:
    """Belief-blind pseudo-random choice, deterministic in (seed, slot).
    A count or seed that is not an integer raises ``TypeError``, and
    fewer than one project or a negative seed ``ValueError``."""
    check_integer("n_projects", n_projects)
    check_seed(seed)
    if n_projects < 1:
        raise ValueError(f"n_projects must be >= 1, got {n_projects}")

    def decide(t: int, beliefs: np.ndarray) -> np.ndarray:
        pick = int(np.random.default_rng((seed, t)).integers(n_projects))
        return _constant(pick, beliefs)

    return PolicyRule(f"random-{seed}", decide)
