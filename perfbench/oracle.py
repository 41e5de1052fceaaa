"""Reference computations for the benchmark's output checks.

Nothing here imports posetlab.  Every value is computed from raw element and
cover lists with plain Python integers, so a fault in the package cannot
pass a check by agreeing with its own code path.
"""

from __future__ import annotations


class Order:
    """The reflexive order generated by a list of cover pairs.

    `above[i]` and `below[i]` are bitsets over element positions: bit j of
    `above[i]` is set exactly when element i <= element j.
    """

    def __init__(self, elements, covers):
        self.elements = list(elements)
        self.pos = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        self.up = [[] for _ in range(n)]
        indeg = [0] * n
        for a, b in covers:
            ia, ib = self.pos[a], self.pos[b]
            self.up[ia].append(ib)
            indeg[ib] += 1
        ready = [i for i in range(n) if indeg[i] == 0]
        topo = []
        while ready:
            i = ready.pop()
            topo.append(i)
            for j in self.up[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    ready.append(j)
        if len(topo) != n:
            raise ValueError("cover pairs contain a cycle")
        self.topo = topo
        self.above = [0] * n
        for i in reversed(topo):
            bits = 1 << i
            for j in self.up[i]:
                bits |= self.above[j]
            self.above[i] = bits
        self.below = [0] * n
        for i in range(n):
            bits = self.above[i]
            while bits:
                low = bits & -bits
                self.below[low.bit_length() - 1] |= 1 << i
                bits ^= low

    def __len__(self):
        return len(self.elements)

    def leq(self, i, j):
        return (self.above[i] >> j) & 1 == 1

    def minimum(self):
        full = (1 << len(self)) - 1
        for i, bits in enumerate(self.above):
            if bits == full:
                return i
        return None

    def maximal(self):
        return [i for i in range(len(self)) if not self.up[i]]

    def atoms(self):
        m = self.minimum()
        return sorted(self.up[m]) if m is not None else []

    def ranks(self):
        """Length of the longest cover chain from the minimum to each element."""
        m = self.minimum()
        if m is None:
            raise ValueError("the order has no minimum")
        rank = [-1] * len(self)
        rank[m] = 0
        for i in self.topo:
            if rank[i] < 0:
                continue
            for j in self.up[i]:
                rank[j] = max(rank[j], rank[i] + 1)
        return rank

    def comparable_pairs(self):
        return sum(bin(bits).count("1") for bits in self.above)

    def signed_chains_from(self, i):
        """Hall's count: for each z >= i, the sum of (-1)^k over all chains
        i = x0 < x1 < ... < xk = z, by dynamic programming on the last step."""
        signed = [0] * len(self)
        signed[i] = 1
        for z in self.topo:
            if z == i or not self.leq(i, z):
                continue
            between = self.above[i] & self.below[z] & ~(1 << z)
            total = 0
            while between:
                low = between & -between
                total += signed[low.bit_length() - 1]
                between ^= low
            signed[z] = -total
        return signed

    def mu_to_new_top(self, i):
        """Möbius value from element i to a maximum attached above everything."""
        return -sum(self.signed_chains_from(i))

    def chain_counts(self, members=None):
        """counts[k] = number of chains with k elements among `members`
        (all elements by default); counts[0] == 1 counts the empty chain."""
        if members is None:
            mask = (1 << len(self)) - 1
        else:
            mask = 0
            for i in members:
                mask |= 1 << i
        by_end = {}
        counts = [1]
        for z in self.topo:
            if not (mask >> z) & 1:
                continue
            ending = [0, 1]
            lower = self.below[z] & mask & ~(1 << z)
            while lower:
                low = lower & -lower
                for k, c in enumerate(by_end[low.bit_length() - 1]):
                    if k + 1 >= len(ending):
                        ending.append(0)
                    ending[k + 1] += c
                lower ^= low
            by_end[z] = ending
            for k, c in enumerate(ending):
                if k >= len(counts):
                    counts.append(0)
                counts[k] += c
        return counts

    def chain_lengths(self, start):
        """(longest, shortest) cover-chain length from `start` to each element
        above it; None for elements not above it."""
        longest = [None] * len(self)
        shortest = [None] * len(self)
        longest[start] = shortest[start] = 0
        for i in self.topo:
            if longest[i] is None:
                continue
            for j in self.up[i]:
                if longest[j] is None:
                    longest[j], shortest[j] = longest[i] + 1, shortest[i] + 1
                else:
                    longest[j] = max(longest[j], longest[i] + 1)
                    shortest[j] = min(shortest[j], shortest[i] + 1)
        return longest, shortest

    def graded(self):
        """All maximal chains have one length.  For an order with a minimum:
        each element's longest and shortest chains from it agree, and all
        maximal elements share one rank."""
        longest, shortest = self.chain_lengths(self.minimum())
        tops = {longest[t] for t in self.maximal()}
        return longest == shortest and len(tops) == 1

    def lower_eulerian(self):
        """Every interval [x, z] is graded and has Hall's Möbius value
        (-1)^(length of [x, z]), and the order has a minimum."""
        if self.minimum() is None:
            return False
        for x in range(len(self)):
            longest, shortest = self.chain_lengths(x)
            if longest != shortest:
                return False
            signed = self.signed_chains_from(x)
            for z in range(len(self)):
                if longest[z] is not None and signed[z] != (-1) ** longest[z]:
                    return False
        return True

    def chains(self, mask):
        """Every nonempty chain among the elements in bitset `mask`, as a
        tuple in increasing order."""
        out = []

        def extend(chain, above):
            out.append(chain)
            rest = above
            while rest:
                low = rest & -rest
                j = low.bit_length() - 1
                extend(chain + (j,), above & self.above[j] & ~low)
                rest ^= low

        for i in range(len(self)):
            if (mask >> i) & 1:
                extend((i,), mask & self.above[i] & ~(1 << i))
        return out

    def reduced_betti(self, mask, p):
        """Reduced Betti numbers over F_p of the order complex of the elements
        in bitset `mask`, by sparse column reduction of its boundary maps.
        Index k is dimension k - 1, so index 0 is the empty face."""
        by_size = {0: [()]}
        for chain in self.chains(mask):
            by_size.setdefault(len(chain), []).append(chain)
        top = max(by_size)
        ranks = [0] * (top + 2)
        for size in range(1, top + 1):
            row_of = {face: r for r, face in enumerate(by_size[size - 1])}
            pivots = {}
            for face in by_size[size]:
                col = {}
                for k in range(size):
                    col[row_of[face[:k] + face[k + 1:]]] = (-1) ** k % p
                while col:
                    low = max(col)
                    if low not in pivots:
                        inv = pow(col[low], p - 2, p)
                        pivots[low] = {r: v * inv % p for r, v in col.items()}
                        break
                    f = col[low]
                    for r, v in pivots[low].items():
                        w = (col.get(r, 0) - f * v) % p
                        if w:
                            col[r] = w
                        else:
                            col.pop(r, None)
            ranks[size] = len(pivots)
        return [len(by_size[k]) - ranks[k] - ranks[k + 1] for k in range(top + 1)]

    def cohen_macaulay(self, p):
        """Whether the order complex of the order minus its minimum is
        Cohen-Macaulay over F_p: the order is graded and every open interval
        (x, y) of it with a maximum attached has reduced homology only in its
        top degree (Reisner's criterion; the links of a chain are joins of
        such intervals)."""
        if self.minimum() is None or not self.graded():
            return False
        full = (1 << len(self)) - 1
        longest, _ = self.chain_lengths(self.minimum())
        height = max(longest) + 1
        for x in range(len(self)):
            for y in list(range(len(self))) + [None]:
                if y is None:
                    between, length = self.above[x] & ~(1 << x), height - longest[x]
                else:
                    if y == x or not self.leq(x, y):
                        continue
                    between = self.above[x] & self.below[y] & ~(1 << x) & ~(1 << y)
                    length = longest[y] - longest[x]
                if not between:
                    continue
                betti = self.reduced_betti(between & full, p)
                if any(betti[: length - 1]):
                    return False
        return True


def reduced_euler(chain_counts):
    """Reduced Euler characteristic of the order complex with these chain
    counts: a chain of k elements is a face of dimension k - 1."""
    return sum((-1) ** ((k - 1) % 2) * c for k, c in enumerate(chain_counts))


def main_inequality_sides(order):
    """(sum over atoms of |mu(x, top)|, alpha * |mu(bottom, top)|) in the poset
    with a maximum attached, alpha being the least number of atoms below a
    maximal element."""
    atoms = order.atoms()
    lhs = sum(abs(order.mu_to_new_top(x)) for x in atoms)
    alpha = min(
        sum(1 for x in atoms if order.leq(x, y)) for y in order.maximal()
    )
    return lhs, alpha * abs(order.mu_to_new_top(order.minimum()))


def rank_mod_p(vectors, p):
    """Rank of a list of integer vectors over the field with p elements."""
    rows = [[v % p for v in vec] for vec in vectors]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# -- h-vectors from rank counts ------------------------------------------------


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_pow(a, k):
    out = [1]
    for _ in range(k):
        out = _poly_mul(out, a)
    return out


def _poly_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return out


def _padded(a, length):
    if any(a[length:]):
        raise ValueError("polynomial longer than its expected length")
    return (a + [0] * length)[:length]


def rank_counts(order):
    ranks = order.ranks()
    counts = [0] * (max(ranks) + 1)
    for r in ranks:
        counts[r] += 1
    return counts


def simplicial_h(counts):
    """h(q) = sum_i f_{i-1} q^i (1-q)^(d-i), where f_{i-1} = counts[i]."""
    d = len(counts) - 1
    total = [0]
    for i, c in enumerate(counts):
        term = _poly_mul([0] * i + [c], _poly_pow([1, -1], d - i))
        total = _poly_add(total, term)
    return _padded(total, d + 1)


def short_cubical_h(counts):
    """h^sc(q) = sum_{i<d} f_i (2q)^i (1-q)^(d-1-i), where f_i = counts[i+1]."""
    d = len(counts) - 1
    total = [0]
    for i in range(d):
        term = _poly_mul(
            [0] * i + [counts[i + 1] * 2**i], _poly_pow([1, -1], d - 1 - i)
        )
        total = _poly_add(total, term)
    return _padded(total, d)


def cubical_h(counts):
    """Adin's cubical h: (2^(d-1) + q h^sc(q) + (-2)^(d-1) chi q^(d+1)) / (1+q),
    with chi the alternating rank count in which the minimum counts -1."""
    d = len(counts) - 1
    chi = sum((-1) ** ((r - 1) % 2) * c for r, c in enumerate(counts))
    dividend = _poly_add([2 ** (d - 1)], [0] + short_cubical_h(counts))
    dividend = _poly_add(dividend, [0] * (d + 1) + [(-2) ** (d - 1) * chi])
    # Synthetic division by (1 + q), from the top coefficient down.
    quotient = [0] * (len(dividend) - 1)
    rest = list(dividend)
    for k in range(len(dividend) - 1, 0, -1):
        quotient[k - 1] = rest[k]
        rest[k - 1] -= rest[k]
        rest[k] = 0
    if rest[0] != 0:
        raise ValueError("cubical dividend is not divisible by 1 + q")
    return _padded(quotient, d + 1)
