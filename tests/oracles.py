"""Independent brute-force oracles.

These deliberately avoid the library's own composite machinery: subset
enumeration, raw summation loops and least-squares solves act as the second
route against which the implementation is judged.
"""

import csv
import io
from collections import deque
from fractions import Fraction
from itertools import chain, combinations
from types import SimpleNamespace
from math import lcm

import numpy as np

import finprob as fp
from finprob.errors import NotAChainError, NotLipschitzError, NotMonotoneError, TooLargeError
from finprob.experiments import _fmt
from finprob.idempotents import _same_block
from finprob.numerics import block_sums
from finprob.partitions import Partition
from finprob.sampling import random_joint_table


def to_float(k):
    """The float image of a kernel: float spaces of its weights and its rows as floats."""
    f = fp.float_mode()
    spaces = [fp.make_space([float(w) for w in s.weights], f) for s in (k.domain, k.codomain)]
    return fp.Kernel([[float(v) for v in row] for row in k.rows], *spaces)


def subsets(universe):
    items = list(universe)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def kernel_mass(k, x, outcomes):
    """k(B|x) as a raw sum over the subset."""
    return sum(k.rows[x][y] for y in outcomes)


def bayes_defect_exhaustive(k, kinv):
    """Worst defect of the inverse's defining equation over all subset pairs:
    sum_{x in A} k(B|x) p(x)  vs  sum_{y in B} kinv(A|y) q(y)."""
    p = k.domain.weights
    q = k.codomain.weights
    worst = 0
    for a in subsets(range(k.domain.size)):
        for b in subsets(range(k.codomain.size)):
            lhs = sum(kernel_mass(k, x, b) * p[x] for x in a)
            rhs = sum(kernel_mass(kinv, y, a) * q[y] for y in b)
            d = abs(lhs - rhs)
            if d > worst:
                worst = d
    return worst


def _int_scale(mat):
    """Integer numerators over one common denominator."""
    denom = 1
    for row in mat:
        for v in row:
            denom = lcm(denom, v.denominator)
    arr = np.empty((len(mat), len(mat[0])), dtype=object)
    for i, row in enumerate(mat):
        for j, v in enumerate(row):
            arr[i, j] = v.numerator * (denom // v.denominator)
    return arr, denom


def _subset_sums_cols(t):
    n, m = t.shape
    out = np.empty((n, 1 << m), dtype=object)
    out[:, 0] = 0
    for mask in range(1, 1 << m):
        low = mask & -mask
        out[:, mask] = out[:, mask ^ low] + t[:, low.bit_length() - 1]
    return out


def _subset_sums_rows(s):
    n, width = s.shape
    out = np.empty((1 << n, width), dtype=object)
    out[0, :] = 0
    for mask in range(1, 1 << n):
        low = mask & -mask
        out[mask, :] = out[mask ^ low, :] + s[low.bit_length() - 1, :]
    return out


def bayes_all_pairs_exact(k, kinv) -> bool:
    """Defining equation of the inverse over ALL subset pairs at once, by
    integer subset-lattice DP; exact, and fast enough for sizes up to 10."""
    p, q = k.domain.weights, k.codomain.weights
    nd, nc = k.domain.size, k.codomain.size
    t = [[p[x] * k.rows[x][y] for y in range(nc)] for x in range(nd)]
    tp = [[q[y] * kinv.rows[y][x] for x in range(nd)] for y in range(nc)]
    a, ma = _int_scale(t)
    b, mb = _int_scale(tp)
    left = _subset_sums_rows(_subset_sums_cols(a))   # [Amask, Bmask]
    right = _subset_sums_rows(_subset_sums_cols(b))  # [Bmask, Amask]
    return bool((left * mb == right.T * ma).all())


def bayes_defect_sampled(k, kinv, rng, pairs=100):
    """Defect of the defining equation on randomly drawn subset pairs."""
    p = k.domain.weights
    q = k.codomain.weights
    worst = 0.0
    for _ in range(pairs):
        a = [x for x in range(k.domain.size) if rng.integers(0, 2)]
        b = [y for y in range(k.codomain.size) if rng.integers(0, 2)]
        lhs = sum(kernel_mass(k, x, b) * p[x] for x in a)
        rhs = sum(kernel_mass(kinv, y, a) * q[y] for y in b)
        worst = max(worst, abs(lhs - rhs))
    return worst


def setwise_distance(k, h, outcomes):
    """Per-set integral distance for one codomain subset."""
    p = k.domain.weights
    return sum(
        p[x] * abs(kernel_mass(k, x, outcomes) - kernel_mass(h, x, outcomes))
        for x in range(k.domain.size)
    )


def verify_cond_exp_defining(f, g, partition):
    """g is a version of the conditional expectation of f: g constant on the
    supported part of each block and integrating like f over each block."""
    space = f.space
    mode = space.mode
    for block in partition.blocks:
        live = [x for x in block if not space.is_null(x)]
        for x in live[1:]:
            if not mode.close(g.values[x], g.values[live[0]]):
                return False
        lhs = sum(space.weights[x] * g.values[x] for x in block)
        rhs = sum(space.weights[x] * f.values[x] for x in block)
        if not mode.close(lhs, rhs):
            return False
    return True


def cond_exp_kernel_by_definition(weights, blocks):
    """Rows of the conditioning kernel: row x is w(y) / (mass of x's block)
    on that block and 0 elsewhere when w(x) > 0, and the weights when
    w(x) = 0. Each mass is summed in sequence, in block order."""
    zero = 0 * weights[0]
    rows = [list(weights) for _ in weights]
    for block in blocks:
        mass = zero
        for y in block:
            mass += weights[y]
        for x in block:
            if weights[x] > 0:
                rows[x] = [weights[y] / mass if y in block else zero for y in range(len(weights))]
    return rows


def invariant_sets_direct(e):
    """All subset masks that are a.s. invariant under the kernel."""
    space = e.space
    n = space.size
    mode = space.mode
    masks = []
    for mask in range(1 << n):
        members = [y for y in range(n) if mask >> y & 1]
        ok = all(
            mode.close(
                kernel_mass(e.kernel, x, members),
                mode.one() if mask >> x & 1 else mode.zero(),
            )
            for x in space.support
        )
        if ok:
            masks.append(mask)
    return masks


def invariant_partition_bruteforce(e, max_size=16):
    """Enumerate all outcome subsets, test invariance directly
    (e(B|x) = 1_B(x) at every supported x), and return the atoms of the
    resulting sigma-algebra."""
    n = e.space.size
    if n > max_size:
        raise TooLargeError(f"subset enumeration over {n} outcomes refused")
    invariant_masks = invariant_sets_direct(e)
    atoms = {}
    full = (1 << n) - 1
    for x in range(n):
        atom = full
        for mask in invariant_masks:
            if mask >> x & 1:
                atom &= mask
        atoms.setdefault(atom, []).append(x)
    return Partition(atoms.values(), n)


def closest_point_sampled(basis, x, rng, samples=400, radius=4.0):
    """Smallest sampled distance from x to the subspace spanned by the basis."""
    x = np.asarray(x, dtype=np.float64)
    if basis.shape[1] == 0:
        return float(np.linalg.norm(x))
    best = float(np.linalg.norm(x))
    center = basis.T @ x
    for _ in range(samples):
        coeffs = center + rng.normal(scale=radius, size=basis.shape[1])
        cand = float(np.linalg.norm(x - basis @ coeffs))
        best = min(best, cand)
    return best


def chain_inf_by_svd(chain, tol=1e-8):
    """Intersection of subspaces as the joint fixed space of their
    projectors: the null space of the stacked complements I - P_s, read off
    an SVD. It does not use the chain's order."""
    d = chain[0].ambient_dim
    stacked = np.vstack([np.eye(d) - s.basis @ s.basis.T for s in chain])
    _, svals, vt = np.linalg.svd(stacked)
    svals = np.concatenate([svals, np.zeros(d - len(svals))])
    return fp.Subspace(vt.T[:, svals <= tol], d)


def levi_residuals_by_loop(chain, probes, limit_space):
    """residuals[probe][step] = ||P_step x - P_limit x||, one matrix-vector
    product and one norm per (probe, step), with the projectors built
    directly as sums of u u^T over each basis."""

    def projector(s):
        return s.basis @ s.basis.T

    limit = projector(limit_space)
    projectors = [projector(s) for s in chain]
    table = []
    for x in probes:
        x = np.asarray(x, dtype=np.float64)
        table.append(tuple(float(np.linalg.norm(p @ x - limit @ x)) for p in projectors))
    return tuple(table)


# --- exact random variables, by definition over Fractions -----------------
# Each takes plain lists (weights, values) and partition blocks, so none of
# the library's integer-numerator arithmetic is involved.


def weighted_total(weights, values):
    """sum_x w(x) v(x), one Fraction addition per outcome."""
    total = 0
    for w, v in zip(weights, values):
        total += w * v
    return total


def cond_expectation_by_definition(weights, values, blocks):
    """Weighted block averages; blocks of zero mass get the global mean."""
    out = [None] * len(values)
    for block in blocks:
        mass = sum(weights[x] for x in block)
        if mass > 0:
            avg = weighted_total([weights[x] for x in block], [values[x] for x in block]) / mass
        else:
            avg = weighted_total(weights, values)
        for x in block:
            out[x] = avg
    return out


def ln_total_by_definition(weights, values, n):
    """sum over the support of w |v|^n, or the ess-sup of |v| for n = inf."""
    live = [abs(v) for w, v in zip(weights, values) if w > 0]
    if n == float("inf"):
        return max(live)
    return weighted_total([w for w in weights if w > 0], [m**n for m in live])


def as_equal_by_definition(weights, a, b):
    return all(x == y for w, x, y in zip(weights, a, b) if w > 0)


def as_measurable_by_definition(weights, values, blocks):
    for block in blocks:
        live = [values[x] for x in block if weights[x] > 0]
        if any(v != live[0] for v in live[1:]):
            return False
    return True


def completion_by_definition(weights, blocks):
    """Blocks of the null-set completion, as a set of frozensets."""
    out = set()
    for block in blocks:
        kept = frozenset(x for x in block if weights[x] > 0)
        if kept:
            out.add(kept)
        out.update(frozenset([x]) for x in block if weights[x] == 0)
    return out


# --- the partition lattice, on sets of blocks --------------------------------


def join_by_intersections(p_blocks, q_blocks):
    """Blocks of the common refinement: the nonempty pairwise intersections."""
    return {frozenset(a) & frozenset(b) for a in p_blocks for b in q_blocks} - {frozenset()}


def meet_by_closing(p_blocks, q_blocks):
    """Blocks of the finest common coarsening: blocks of either partition
    that overlap are merged until no two overlap."""
    blocks = [frozenset(b) for b in chain(p_blocks, q_blocks)]
    merged = True
    while merged:
        merged = False
        for a, b in combinations(blocks, 2):
            if a & b:
                blocks.remove(a)
                blocks.remove(b)
                blocks.append(a | b)
                merged = True
                break
    return set(blocks)


def refines_by_containment(p_blocks, q_blocks):
    """True when every block of p lies inside some block of q."""
    return all(any(set(a) <= set(b) for b in q_blocks) for a in p_blocks)


def coarsening_chain_by_blocks(rng, n, length):
    """Canonical block tuples of `random_coarsening_chain` from the discrete
    partition, by its definition on blocks: each step draws one permutation
    of the block indices and merges the first two blocks it names."""
    blocks = [(x,) for x in range(n)]
    out = [tuple(blocks)]
    while len(out) < length and len(blocks) > 1:
        i, j = rng.permutation(len(blocks))[:2]
        rest = [b for k, b in enumerate(blocks) if k not in (i, j)]
        blocks = sorted(rest + [tuple(sorted(blocks[i] + blocks[j]))])
        out.append(tuple(blocks))
    return out


# --- kernel operations, entry by entry -------------------------------------
# Each works on the rows of library kernels with one scalar operation per
# entry, in the order a hand computation would take.


def bayes_inverse_by_definition(k):
    """Rows of the Bayesian inverse: rows[x][y] p(x) / q(y), and p at every
    q-null outcome y."""
    p, q = k.domain.weights, k.codomain.weights
    return [
        list(p) if q[y] == 0 else [k.rows[x][y] * p[x] / q[y] for x in range(len(p))]
        for y in range(len(q))
    ]


def canonicalize_by_definition(k):
    """Rows of k with every null domain row replaced by the codomain weights."""
    p, q = k.domain.weights, k.codomain.weights
    return [list(q) if p[x] == 0 else list(k.rows[x]) for x in range(len(p))]


def coupling_roundtrip_by_definition(k):
    """Rows of k after the joint table p(x) rows[x][y] is conditioned on its
    first marginal again (null rows become q)."""
    p, q = k.domain.weights, k.codomain.weights
    table = [[p[x] * v for v in k.rows[x]] for x in range(len(p))]
    return [list(q) if p[x] == 0 else [v / p[x] for v in table[x]] for x in range(len(p))]


def one_sided_distance_by_definition(k, h):
    """sum over supported x of p(x) sum_y |k(y|x) - h(y|x)|."""
    total = 0
    for x, w in enumerate(k.domain.weights):
        if w > 0:
            total += w * sum(abs(a - b) for a, b in zip(k.rows[x], h.rows[x]))
    return total


def operator_distances_by_definition(seq, limit, n, root):
    """Per step, the largest L^n norm of (k - limit) pulled back against one
    indicator at a time: every nonempty subset for codomains of at most 10
    outcomes, the singletons beyond. `root(total, n)` takes the n-th root."""
    size = limit.codomain.size
    if size <= 10:
        sets = [[y for y in range(size) if mask >> y & 1] for mask in range(1, 1 << size)]
    else:
        sets = [[y] for y in range(size)]
    p = limit.domain.weights
    live = [x for x in range(len(p)) if p[x] > 0]
    out = []
    for k in seq:
        worst = 0
        for chosen in sets:
            pulled = [abs(sum(k.rows[x][y] - limit.rows[x][y] for y in chosen)) for x in live]
            if n == float("inf"):
                d = max(pulled)
            else:
                total = 0
                for x, v in zip(live, pulled):
                    total += p[x] * v**n
                d = root(total, n)
            if d > worst:
                worst = d
        out.append(worst)
    return out


def invariant_blocks_union_find(e):
    """Blocks of the connected components of e(y|x) > threshold over the
    supported outcomes (union-find), plus every null outcome alone."""
    space = e.space
    mode = space.mode
    threshold = 0 if mode.exact else mode.tolerance
    parent = list(range(space.size))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x in space.support:
        for y in space.support:
            if e.kernel.rows[x][y] > threshold:
                parent[find(y)] = find(x)
    groups = {}
    for x in space.support:
        groups.setdefault(find(x), []).append(x)
    null = [[x] for x in range(space.size) if x not in space.support]
    return list(groups.values()) + null


def invariant_partition_by_search(relation, space):
    """Blocks of the connected components of a transition relation over the
    live outcomes of `space` (relation[x][y] indexes the live outcomes in
    order), found by breadth-first search with an edge either way; each
    block is labelled by its first outcome, every null outcome alone."""
    live = space.live_index().tolist()
    labels = list(range(space.size))
    seen = [False] * len(live)
    for start in range(len(live)):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        while queue:
            x = queue.popleft()
            labels[live[x]] = live[start]
            for y in range(len(live)):
                if (relation[x][y] or relation[y][x]) and not seen[y]:
                    seen[y] = True
                    queue.append(y)
    return Partition.from_labels(labels)


def csv_by_rows(result, cfg) -> bytes:
    """An experiment's CSV as written one row at a time: `csv.writer` over
    `_fmt` of every cell, then the two footer comments."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(result.columns)
    for row in result.rows:
        writer.writerow([_fmt(v, cfg) for v in row])
    out.write(f"# exercises: {result.footer}\n# verdict: {result.verdict}\n")
    return out.getvalue().encode("ascii")


def truncation_maps_dense(n):
    """The truncation chain as n dense n x n matrices: the identity with
    diagonal entry i zeroed in matrix i."""
    out = []
    for i in range(n):
        m = np.eye(n)
        m[i, i] = 0.0
        out.append(m)
    return out


def _named_norm(x, kind):
    if kind == "euclidean":
        return float(np.linalg.norm(x))
    if kind == "sup":
        return float(np.max(np.abs(x))) if x.size else 0.0
    return float(np.sum(np.abs(x)))


def _named_operator_norm(m, kind):
    if kind == "euclidean":
        return float(np.linalg.norm(m, 2))
    if kind == "sup":
        return float(np.max(np.sum(np.abs(m), axis=1))) if m.size else 0.0
    return float(np.max(np.sum(np.abs(m), axis=0))) if m.size else 0.0


def colimit_seminorm_recursive(maps, a, start=0, norm="euclidean", tol=1e-8):
    """The colimit seminorm by definition, on dense matrices: check every
    remaining map's operator norm, run the chain with nonincreasing norms,
    then restart one step later from the pushed-forward vector and require
    the same value, recursing once per starting index."""
    if start < 0 or start >= len(maps) + 1:
        raise NotAChainError(f"start index {start} outside the chain")
    maps = [np.asarray(m, dtype=np.float64) for m in maps[start:]]
    for m in maps:
        if _named_operator_norm(m, norm) > 1.0 + tol:
            raise NotLipschitzError("chain map exceeds operator norm 1")
    x = np.asarray(a, dtype=np.float64)
    value = _named_norm(x, norm)
    for m in maps:
        x = m @ x
        nxt = _named_norm(x, norm)
        if nxt > value + tol:
            raise NotLipschitzError("norms increased along the chain")
        value = nxt
    if maps:
        y = maps[0] @ np.asarray(a, dtype=np.float64)
        later = colimit_seminorm_recursive(maps[1:], y, 0, norm, tol)
        if abs(later - value) > tol:
            raise NotAChainError("seminorm depends on the starting index")
    return value


# --- kernels by Fractions ---------------------------------------------------


def compose_by_definition(k, l):
    """Rows of the composite: sum_y k(y|x) l(z|y), one Fraction product each."""
    return [
        [sum(k.rows[x][y] * l.rows[y][z] for y in range(k.codomain.size)) for z in range(l.codomain.size)]
        for x in range(k.domain.size)
    ]


def as_equal_by_rows(domain, a, b):
    """Rows a and b agree at every supported domain outcome."""
    return all(list(a[x]) == list(b[x]) for x in range(domain.size) if not domain.is_null(x))


def idem_leq_by_definition(e1, e2):
    """e1 <= e2: both composites of the rows equal e1's rows almost surely."""
    k1, k2 = e1.kernel, e2.kernel
    rows = k1.rows
    return as_equal_by_rows(k1.domain, compose_by_definition(k1, k2), rows) and as_equal_by_rows(
        k1.domain, compose_by_definition(k2, k1), rows
    )


def order_table_by_definition(kernels):
    """(m, m) table of e_i <= e_j for endo-kernels of one space, from public
    `compose` and `as_equal_kernels`: both composites of every pair are
    formed once, and each decides both directions of the pair."""
    m = len(kernels)
    table = np.eye(m, dtype=bool)
    for i in range(m):
        for j in range(i + 1, m):
            ij = fp.compose(kernels[i], kernels[j])
            ji = fp.compose(kernels[j], kernels[i])
            table[i, j] = fp.as_equal_kernels(ij, kernels[i]) and fp.as_equal_kernels(ji, kernels[i])
            table[j, i] = fp.as_equal_kernels(ij, kernels[j]) and fp.as_equal_kernels(ji, kernels[j])
    return table


def chain_bound_by_definition(chain, increasing=None):
    """What the chain checks must find for idempotents of one space, read off
    the order table by definition (`order_table_by_definition`).

    With `increasing` None the direction is found as `levi_property_check`
    finds it: from the first adjacent pair that is not a.s. equal
    (increasing for a constant chain); an incomparable such pair raises
    NotMonotoneError. A pair out of order in the direction raises
    NotAChainError. Returns (increasing, k): chain[k] lies above
    (increasing) or below every element, so it is the chain's optimum up to
    a.s. equality. The messages are the library's."""
    leq = order_table_by_definition([e.kernel for e in chain])
    m = len(chain)
    if increasing is None:
        increasing = True
        for i in range(m - 1):
            up, down = leq[i, i + 1], leq[i + 1, i]
            if up != down:
                increasing = bool(up)
                break
            if not up:
                raise NotMonotoneError("adjacent chain elements are incomparable")
    order = leq if increasing else leq.T
    for i in range(m - 1):
        if not order[i, i + 1]:
            word = "increasing" if increasing else "decreasing"
            raise NotAChainError(f"chain is not {word} in the idempotent order")
    return increasing, next(k for k in range(m) if order[:, k].all())


def random_mp_kernel_by_fractions(rng, nrows, ncols, null_rows=0):
    """Rational `sampling.random_mp_kernel` as lists of Fractions: the same
    draws, each table entry and weight a Fraction, and row x the table row
    over p(x), or q where p(x) = 0."""
    while True:
        raw = rng.integers(0, 10, size=(nrows, ncols))
        kill = rng.permutation(nrows)[:null_rows]
        raw[kill, :] = 0
        if raw.sum() > 0 and (raw.sum(axis=0) > 0).any():
            break
    total = int(raw.sum())
    table = [[Fraction(int(v), total) for v in row] for row in raw]
    p = [sum(row) for row in table]
    q = [sum(table[x][y] for x in range(nrows)) for y in range(ncols)]
    rows = [list(q) if p[x] == 0 else [v / p[x] for v in table[x]] for x in range(nrows)]
    mode = fp.rational_mode()
    return fp.Kernel(rows, fp.ProbSpace(p, mode), fp.ProbSpace(q, mode))


def random_mp_kernel_from_by_fractions(rng, domain, ncols):
    """Rational `sampling.random_mp_kernel_from` as lists of Fractions: the
    same draws, and the codomain weights as Python sums of Fractions."""
    rows = []
    for _ in range(domain.size):
        raw = rng.integers(0, 10, size=ncols)
        if raw.sum() == 0:
            raw[int(rng.integers(0, ncols))] = 1
        total = int(raw.sum())
        rows.append([Fraction(int(v), total) for v in raw])
    q = [sum(domain.weights[x] * rows[x][y] for x in range(domain.size)) for y in range(ncols)]
    return fp.Kernel(rows, domain, fp.ProbSpace(q, domain.mode))


def _order_by_composites(mode, live, rows):
    """(m, m) table of e_i <= e_j for the row matrices of idempotents: both
    composites of e_i and e_j equal e_i at every supported row. Exact rows
    are scaled to integer numerators over one denominator per kernel, so
    the composite of e_i and e_j carries den_i * den_j and is compared with
    e_i scaled by den_j."""
    if mode.exact:
        nums, dens = zip(*(_int_scale(r) for r in rows))
        dtype = np.int64 if max(dens) ** 2 <= np.iinfo(np.int64).max else object
        nums, dens = np.array(nums, dtype=dtype), np.array(dens, dtype=dtype)
    else:
        nums, dens = np.array(rows, dtype=np.float64), np.ones(len(rows))
    composites = np.matmul(nums[:, None], nums[None, :])[:, :, live]
    scaled = nums[:, None, live] * dens[None, :, None, None]
    ij = mode.close_mask(composites, scaled).all(axis=(2, 3))
    ji = mode.close_mask(composites.transpose(1, 0, 2, 3), scaled).all(axis=(2, 3))
    return ij & ji


def galois_roundtrips_by_kernels(space):
    """The Galois audit one kernel at a time, by definition: each
    conditioning kernel from `cond_exp_kernel_by_definition`, each
    invariant partition by subset enumeration, the idempotent roundtrip by
    building the kernel of each invariant partition again and comparing
    its supported rows, and the order by every composite of two kernels."""
    n = space.size
    mode = space.mode
    weights = list(space.weights)
    live = [x for x in range(n) if not space.is_null(x)]
    parts = list(fp.all_partitions(n))
    rows = [cond_exp_kernel_by_definition(weights, p.blocks) for p in parts]
    invariants = [
        invariant_partition_bruteforce(SimpleNamespace(space=space, kernel=SimpleNamespace(rows=r)))
        for r in rows
    ]
    completions = [fp.complete_partition(p, space) for p in parts]
    m = len(parts)
    completion_failures = tuple((i,) for i in range(m) if invariants[i] != completions[i])
    roundtrip_failures = tuple(
        (i,)
        for i in range(m)
        if not mode.close_mask(
            np.array(cond_exp_kernel_by_definition(weights, invariants[i].blocks))[live],
            np.array(rows[i])[live],
        ).all()
    )
    leq = _order_by_composites(mode, live, rows)

    same_part, same_inv = _same_block(parts), _same_block(invariants)
    adjunction_failures = []
    monotonicity_failures = []
    for i in range(m):
        contained = ~(same_inv & ~same_part[i]).any(axis=(1, 2))
        for e in np.flatnonzero(contained != leq[i]):
            adjunction_failures.append((i, int(e), bool(contained[e]), bool(leq[i, e])))
        up = ~(same_part & ~same_part[i]).any(axis=(1, 2)) & ~leq[i]
        down = leq[i] & (same_inv & ~same_inv[i]).any(axis=(1, 2))
        for j in np.flatnonzero(up | down):
            if up[j]:
                monotonicity_failures.append(("partition-to-kernel", i, int(j)))
            if down[j]:
                monotonicity_failures.append(("kernel-to-partition", i, int(j)))
    return fp.GaloisReport(
        size=n,
        n_partitions=m,
        adjunction_failures=tuple(adjunction_failures),
        roundtrip_failures=roundtrip_failures,
        completion_failures=completion_failures,
        monotonicity_failures=tuple(monotonicity_failures),
    )


def kernel_block(kernels):
    """Kernels of one shape, each with its own spaces, in the block form that
    `sampling.random_mp_stack` returns: (numerators, denominators) pairs of
    the stacked kernels, domain weights and codomain weights, with one
    denominator per kernel (1 for float rows)."""
    parts = [((k.num, k.den), k.domain.int_weights(), k.codomain.int_weights()) for k in kernels]
    return tuple(
        (np.stack([num for num, _ in pairs]), np.array([den for _, den in pairs]))
        for pairs in zip(*parts)
    )


def mix_weights(a, exact):
    """Per-sequence lists of mixing weights in the form that
    `experiments._slide_block` takes: numerators over denominators, float
    ones over int64 ones."""
    if not exact:
        a = np.array(a, dtype=np.float64)
        return a, np.ones(a.shape, dtype=np.int64)
    a = [[Fraction(t) for t in row] for row in a]
    return tuple(np.array([[getattr(t, part) for t in row] for row in a]) for part in ("numerator", "denominator"))


def float_slide(limit, q, a):
    """Float rows (1 - a[s, t]) k_s + a[s, t] q_s of a block of float
    kernels k_s over ones, codomain weights q_s and mixing weights a, as
    float arithmetic alone writes them: the reference for the float bytes
    of `experiments._slide_block`."""
    (k, _), (w, _) = limit, q
    a = np.asarray(a, dtype=np.float64)[..., None, None]
    return (1 - a) * k[:, None] + a * w[:, None, None]


# --- vector random variables: the per-component and per-outcome bodies that
# preceded the (n, d) value core, kept as references -----------------------


def vector_cond_expectation_by_components(g, p):
    """Rows of E[g | p]: one real-valued conditional expectation per component."""
    cols = [fp.cond_expectation(g.component(j), p).values for j in range(g.dim)]
    return np.stack(cols, axis=-1).tolist()


def vector_pullback_by_fractions(k, g):
    """Rows of k*g: every entry a Python sum of the kernel's row entries
    times g's values (Fractions in rational mode)."""
    rows, values = k.rows, g.values
    return [
        [sum(rows[x][y] * values[y][j] for y in range(len(values))) for j in range(g.dim)]
        for x in range(len(rows))
    ]


def bochner_norm_by_outcome(g, n=1, vnorm="euclidean"):
    """The Bochner L^n norm from one value norm per supported outcome, added
    up in Python. A euclidean norm is the root of the sum of squares, so an
    even power of it is a power of that sum and the ess-sup is the root of
    the largest sum; an odd n takes one root per outcome. The result is exact
    when every term is rational, a float otherwise."""
    space = g.space
    mode = space.mode
    live = [x for x in range(space.size) if space.weights[x] > 0]
    rows = [list(g.values[x]) for x in live]
    if vnorm == "euclidean":
        squares = [sum(v * v for v in row) for row in rows]
        if n == float("inf"):
            return fp.nth_root(max(squares), 2, mode)
        if n % 2 == 0:
            terms = [s ** (n // 2) for s in squares]
        else:
            terms = [fp.nth_root(s, 2, mode) ** n for s in squares]
    else:
        norms = [max(map(abs, row)) if vnorm == "max" else sum(map(abs, row)) for row in rows]
        if n == float("inf"):
            return max(norms)
        terms = [m**n for m in norms]
    if all(isinstance(t, Fraction) for t in terms):
        total = sum(space.weights[x] * t for x, t in zip(live, terms))
        return total if n == 1 else fp.nth_root(total, n, mode)
    total = sum(float(space.weights[x]) * float(t) for x, t in zip(live, terms))
    return total if n == 1 else total ** (1.0 / n)


# --- float row conditioning as each caller wrote it before one function
# conditioned them all: the references for the float bytes ------------------


def float_conditioned_rows(table, p, q):
    """Rows of a float joint table, or of a stack of them with their weight
    stacks, conditioned on the rows: table[x] / p(x) divided into C-ordered
    rows, and q where p(x) = 0."""
    rows = np.empty_like(table, order="C")
    rows[...] = q[..., None, :]
    return np.divide(table, p[..., None], out=rows, where=p[..., None] > 0)


def float_bayes_inverse_rows(k):
    p, q = k.domain.weights, k.codomain.weights
    return float_conditioned_rows((k.num * p[:, None]).T, q, p)


def float_kernel_from_coupling_rows(c):
    return float_conditioned_rows(c.num, c.domain.weights, c.codomain.weights)


def float_canonical_rows(k):
    rows = k.num * 1
    rows[k.domain.weights == 0] = k.codomain.weights
    return rows


def float_conditioning_rows(space, parts):
    """(m, n, n) rows of the conditioning kernels of m partitions: w(y) over
    the mass of y's block on x's block, and w at a null x."""
    labels = np.array([p.labels for p in parts])
    m, n = labels.shape
    bins = (labels + n * np.arange(m)[:, None]).ravel()
    w = space.weights
    mass = block_sums(np.tile(w, m), bins, m * n)[bins].reshape(m, n)
    cond = np.divide(w, mass, out=np.zeros((m, n)), where=mass > 0)
    rows = np.where(_same_block(parts), cond[:, None, :], 0)
    rows[:, w == 0] = w
    return rows


def float_mp_stack_rows(rng, count, nrows, ncols, null_rows):
    """Rows of `sampling.random_mp_stack` in float mode out of the same draws."""
    raw = np.stack([random_joint_table(rng, nrows, ncols, null_rows) for _ in range(count)])
    table = raw / raw.sum(axis=(1, 2))[:, None, None]
    return float_conditioned_rows(table, table.sum(axis=2), table.sum(axis=1))


def float_mp_kernel_from_rows(rng, domain, ncols):
    """Rows of `sampling.random_mp_kernel_from` in float mode out of the same draws."""
    raw = rng.uniform(0.01, 1.0, size=(domain.size, ncols))
    return raw / raw.sum(axis=1, keepdims=True)
