# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled enumeration kernel.

Same visiting order, slices and return values as _corepy, with C arrays
and 64-bit edge masks.  The mask width caps it at n <= 11; every caller
in the package stays well below that, and asking for more raises.
"""

ctypedef unsigned long long u64

_KINDS = ("m1", "m2", "em1", "em2")

DEF MAXN = 12
DEF MAXE = 66


cdef class _Driver:
    cdef int E, n, m, lastg, mode, kind
    cdef int U[MAXE]
    cdef int V[MAXE]
    cdef int deg[MAXN]
    cdef int sel[MAXE]
    cdef int par[MAXN]
    cdef long long s[MAXN]
    cdef long long q[MAXN]
    cdef long long visited, vmin, vmax
    cdef bint has_val
    cdef list min_masks, max_masks, out
    cdef object callback

    def __cinit__(self, int n, int m):
        cdef int k = 0, u, v
        self.n = n
        self.m = m
        for v in range(1, n):
            for u in range(v):
                self.U[k] = u
                self.V[k] = v
                k += 1
        self.E = k
        self.lastg = k - (n - 1)
        for u in range(n):
            self.deg[u] = 0
        self.visited = 0
        self.has_val = False
        self.min_masks = []
        self.max_masks = []
        self.out = []

    cdef long long value(self):
        cdef long long t = 0
        cdef int jj, j, u, v, ed
        if self.kind == 2:  # em1
            for jj in range(self.m):
                j = self.sel[jj]
                ed = self.deg[self.U[j]] + self.deg[self.V[j]] - 2
                t += <long long> ed * ed
            return t
        if self.kind == 0:  # m1
            for u in range(self.n):
                t += <long long> self.deg[u] * self.deg[u]
            return t
        if self.kind == 1:  # m2
            for jj in range(self.m):
                j = self.sel[jj]
                t += <long long> self.deg[self.U[j]] * self.deg[self.V[j]]
            return t
        # em2: group incident edge pairs per shared endpoint
        for u in range(self.n):
            self.s[u] = 0
            self.q[u] = 0
        for jj in range(self.m):
            j = self.sel[jj]
            u = self.U[j]
            v = self.V[j]
            ed = self.deg[u] + self.deg[v] - 2
            self.s[u] += ed
            self.s[v] += ed
            self.q[u] += <long long> ed * ed
            self.q[v] += <long long> ed * ed
        for u in range(self.n):
            t += (self.s[u] * self.s[u] - self.q[u]) >> 1
        return t

    cdef void leaf(self) except *:
        cdef int t, jj, j, a, b, comps
        cdef long long val
        cdef u64 mask
        for t in range(self.n):
            self.par[t] = t
        comps = self.n
        for jj in range(self.m):
            j = self.sel[jj]
            a = self.U[j]
            while self.par[a] != a:
                self.par[a] = self.par[self.par[a]]
                a = self.par[a]
            b = self.V[j]
            while self.par[b] != b:
                self.par[b] = self.par[self.par[b]]
                b = self.par[b]
            if a != b:
                self.par[a] = b
                comps -= 1
        if comps != 1:
            return
        self.visited += 1
        mask = 0
        for jj in range(self.m):
            mask |= (<u64> 1) << self.sel[jj]

        if self.mode == 1:
            self.callback(mask)
            return
        if self.mode == 2:
            for t in range(self.n):
                if self.deg[t] < 2:
                    return
            self.out.append(mask)
            return

        val = self.value()
        if not self.has_val:
            self.has_val = True
            self.vmin = val
            self.vmax = val
            self.min_masks.append(mask)
            self.max_masks.append(mask)
            return
        if val < self.vmin:
            self.vmin = val
            self.min_masks.clear()
            self.min_masks.append(mask)
        elif val == self.vmin:
            self.min_masks.append(mask)
        if val > self.vmax:
            self.vmax = val
            self.max_masks.clear()
            self.max_masks.append(mask)
        elif val == self.vmax:
            self.max_masks.append(mask)

    cdef int tail_cap(self, int depth):
        cdef int t, jj, j, a, b, mmin
        for t in range(self.n):
            self.par[t] = t
        for jj in range(depth):
            j = self.sel[jj]
            a = self.U[j]
            while self.par[a] != a:
                self.par[a] = self.par[self.par[a]]
                a = self.par[a]
            b = self.V[j]
            while self.par[b] != b:
                self.par[b] = self.par[self.par[b]]
                b = self.par[b]
            if a != b:
                if a < b:
                    self.par[a] = b
                else:
                    self.par[b] = a
        mmin = 0
        for t in range(self.n):
            if self.par[t] == t:
                mmin = t
                break
        return self.lastg + mmin

    cdef void rec(self, int start, int need) except *:
        cdef int limit = self.E - need
        cdef int at = self.m - need
        cdef int nd = need - 1
        cdef int seg1, i, i2, lim2, u, v
        seg1 = limit if limit < self.lastg - 1 else self.lastg - 1
        for i in range(start, seg1 + 1):
            u = self.U[i]
            v = self.V[i]
            self.deg[u] += 1
            self.deg[v] += 1
            self.sel[at] = i
            if nd:
                self.rec(i + 1, nd)
            else:
                self.leaf()
            self.deg[u] -= 1
            self.deg[v] -= 1
        if limit >= self.lastg:
            lim2 = self.tail_cap(at)
            if lim2 > limit:
                lim2 = limit
            i2 = start if start > self.lastg else self.lastg
            for i in range(i2, lim2 + 1):
                u = self.U[i]
                v = self.V[i]
                self.deg[u] += 1
                self.deg[v] += 1
                self.sel[at] = i
                if nd:
                    self.rec(i + 1, nd)
                else:
                    self.leaf()
                self.deg[u] -= 1
                self.deg[v] -= 1

    cdef long long run(self, int lo, int hi) except? -1:
        cdef int top_end, i, u, v
        if hi > self.E:
            hi = self.E
        if self.m == 0:
            if self.n == 1 and lo == 0:
                self.leaf()
            return self.visited
        if self.m > self.E or lo >= hi:
            return 0
        top_end = hi - 1
        if self.E - self.m < top_end:
            top_end = self.E - self.m
        if self.lastg < top_end:
            top_end = self.lastg
        for i in range(lo, top_end + 1):
            u = self.U[i]
            v = self.V[i]
            self.deg[u] += 1
            self.deg[v] += 1
            self.sel[0] = i
            if self.m > 1:
                self.rec(i + 1, self.m - 1)
            else:
                self.leaf()
            self.deg[u] -= 1
            self.deg[v] -= 1
        return self.visited


cdef _Driver _make(int n, int m):
    if m < 0:
        raise ValueError(f"edge count must be nonnegative, got {m}")
    if n >= MAXN:
        raise ValueError(f"compiled kernel caps n at {MAXN - 1}, got {n}")
    return _Driver(max(n, 0), m)


def scan_extremal(int n, int m, str index, int lo=0, hi=None):
    """Min/max of the index over connected (n, m) graphs with witnesses.

    Returns (visited, min_value, max_value, min_masks, max_masks); the
    None/empty variant when the range [lo, hi) contains no graph.
    """
    if index not in _KINDS:
        raise ValueError(f"unknown index {index!r}")
    cdef _Driver d = _make(n, m)
    d.mode = 0
    d.kind = _KINDS.index(index)
    cdef long long visited = d.run(lo, d.E if hi is None else <int> hi)
    if not d.has_val:
        return visited, None, None, [], []
    return visited, d.vmin, d.vmax, d.min_masks, d.max_masks


def visit_connected(int n, int m, int lo, hi, callback):
    """Call callback(mask) once per connected labeled (n, m) graph."""
    cdef _Driver d = _make(n, m)
    d.mode = 1
    d.callback = callback
    return d.run(lo, d.E if hi is None else <int> hi)


def census_masks(int n, int m, int lo=0, hi=None):
    """Masks of the connected (n, m) graphs with minimum degree >= 2."""
    cdef _Driver d = _make(n, m)
    d.mode = 2
    d.run(lo, d.E if hi is None else <int> hi)
    return d.out
