//! Fill-reducing column order for [`SparseLu`](crate::SparseLu):
//! approximate minimum degree (Amestoy, Davis & Duff) on the quotient
//! graph of the symmetrized pattern `A + Aᵀ`.
//!
//! Eliminating a variable turns it into an *element*: the clique its
//! elimination would create, stored as a member list instead of as fill
//! edges, so the graph never grows. A variable's degree is replaced by
//! the ADD approximate external degree, an upper bound that needs only
//! each adjacent element's overlap with the newest element. Elements
//! that lie wholly inside the newest element are absorbed into it. Ties
//! break by lowest index, so the order is a pure function of the
//! pattern.
//!
//! Storage is flat: the variable adjacency is a CSR array pruned in
//! place, and element member lists and per-variable element lists live
//! in append-only arenas addressed by `(start, len)` pairs. The live
//! variables sit in an indexed binary heap keyed by `(degree, index)`,
//! so a degree change re-sifts the variable in place and every pop is a
//! live variable.

/// A binary min-heap of the live variables keyed by `(degree[v], v)`,
/// with each variable's slot tracked so a degree update re-sifts it in
/// place instead of leaving a stale entry behind.
struct DegreeHeap {
    heap: Vec<usize>,
    /// `slot[v]` = position of variable `v` in `heap`.
    slot: Vec<usize>,
}

impl DegreeHeap {
    /// Heapifies the variables `0..degree.len()`.
    fn new(degree: &[usize]) -> Self {
        let n = degree.len();
        let mut h = DegreeHeap { heap: (0..n).collect(), slot: (0..n).collect() };
        for i in (0..n / 2).rev() {
            h.sift_down(degree, i);
        }
        h
    }

    fn less(degree: &[usize], a: usize, b: usize) -> bool {
        (degree[a], a) < (degree[b], b)
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.slot[self.heap[i]] = i;
        self.slot[self.heap[j]] = j;
    }

    fn sift_up(&mut self, degree: &[usize], mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if !Self::less(degree, self.heap[i], self.heap[parent]) {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, degree: &[usize], mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut least = i;
            if l < self.heap.len() && Self::less(degree, self.heap[l], self.heap[least]) {
                least = l;
            }
            if r < self.heap.len() && Self::less(degree, self.heap[r], self.heap[least]) {
                least = r;
            }
            if least == i {
                break;
            }
            self.swap(i, least);
            i = least;
        }
    }

    /// Removes and returns the variable of least `(degree, index)`.
    fn pop(&mut self, degree: &[usize]) -> Option<usize> {
        let top = *self.heap.first()?;
        let last = self.heap.len() - 1;
        self.swap(0, last);
        self.heap.pop();
        self.sift_down(degree, 0);
        Some(top)
    }

    /// Restores the heap order after `degree[v]` changed.
    fn update(&mut self, degree: &[usize], v: usize) {
        self.sift_up(degree, self.slot[v]);
        self.sift_down(degree, self.slot[v]);
    }
}

/// Returns `q` with `q[k]` = the column eliminated at step `k`, for the
/// `n × n` pattern given in CSC form (`colptr`, `rowidx`). Diagonal
/// entries and duplicates are ignored.
pub(crate) fn amd_order(n: usize, colptr: &[usize], rowidx: &[usize]) -> Vec<usize> {
    // --- A + Aᵀ without the diagonal, as CSR rows `adj_start[i]..+adj_len[i]`.
    let mut adj_start = vec![0usize; n + 1];
    let offdiag = || {
        (0..n).flat_map(move |j| rowidx[colptr[j]..colptr[j + 1]].iter().map(move |&i| (i, j)))
    };
    for (i, j) in offdiag().filter(|&(i, j)| i != j) {
        adj_start[i + 1] += 1;
        adj_start[j + 1] += 1;
    }
    for i in 0..n {
        adj_start[i + 1] += adj_start[i];
    }
    let mut adj = vec![0usize; adj_start[n]];
    let mut adj_len = vec![0usize; n];
    for (i, j) in offdiag().filter(|&(i, j)| i != j) {
        adj[adj_start[i] + adj_len[i]] = j;
        adj_len[i] += 1;
        adj[adj_start[j] + adj_len[j]] = i;
        adj_len[j] += 1;
    }
    // `mark[v] == tag` flags membership in the set being built; tags
    // `0..n` deduplicate the rows, tags `n + step` mark `L_p`.
    let mut mark = vec![usize::MAX; n];
    for i in 0..n {
        let s = adj_start[i];
        let mut len = 0;
        for k in s..s + adj_len[i] {
            let v = adj[k];
            if mark[v] != i {
                mark[v] = i;
                adj[s + len] = v;
                len += 1;
            }
        }
        adj_len[i] = len;
    }

    // `degree[i]` is the key of live variable `i` in the heap; an
    // eliminated variable's degree is `usize::MAX`.
    let mut degree = adj_len.clone();
    let mut heap = DegreeHeap::new(&degree);
    // Element `e` holds `elem[elem_start[e]..+elem_len[e]]`; variable `i`
    // touches elements `vel[vel_start[i]..+vel_len[i]]`.
    let mut elem: Vec<usize> = Vec::with_capacity(adj.len() + n);
    let (mut elem_start, mut elem_len) = (vec![0usize; n], vec![0usize; n]);
    let mut vel: Vec<usize> = Vec::with_capacity(adj.len() + n);
    let (mut vel_start, mut vel_len) = (vec![0usize; n], vec![0usize; n]);
    // `w[e]` = |L_e \ L_p| for elements seen under the current tag.
    let (mut w, mut w_tag) = (vec![0usize; n], vec![usize::MAX; n]);
    let mut order = Vec::with_capacity(n);

    while let Some(p) = heap.pop(&degree) {
        let step = order.len();
        let tag = n + step;
        order.push(p);
        degree[p] = usize::MAX;
        mark[p] = tag;

        // L_p: p's variable neighbours plus the members of its elements,
        // which p absorbs. Live elements never hold eliminated variables
        // (eliminating v absorbs every element containing v).
        let lp_start = elem.len();
        for k in adj_start[p]..adj_start[p] + adj_len[p] {
            let v = adj[k];
            if mark[v] != tag {
                mark[v] = tag;
                elem.push(v);
            }
        }
        for k in vel_start[p]..vel_start[p] + vel_len[p] {
            let e = vel[k];
            for m in elem_start[e]..elem_start[e] + elem_len[e] {
                let v = elem[m];
                if mark[v] != tag {
                    mark[v] = tag;
                    elem.push(v);
                }
            }
            (w_tag[e], w[e]) = (tag, 0);
        }
        let lp_len = elem.len() - lp_start;
        (elem_start[p], elem_len[p]) = (lp_start, lp_len);

        // w[e] = |L_e \ L_p| for every element next to L_p; 0 marks an
        // element absorbed into p (those of E_p, and any L_e ⊆ L_p).
        for k in lp_start..lp_start + lp_len {
            let i = elem[k];
            for m in vel_start[i]..vel_start[i] + vel_len[i] {
                let e = vel[m];
                if w_tag[e] != tag {
                    (w_tag[e], w[e]) = (tag, elem_len[e]);
                }
                w[e] = w[e].saturating_sub(1);
            }
        }

        let live = n - step - 1;
        for k in lp_start..lp_start + lp_len {
            let i = elem[k];
            // E_i ← surviving elements plus p, rewritten at the arena end.
            let start = vel.len();
            let mut external = 0;
            for m in vel_start[i]..vel_start[i] + vel_len[i] {
                let e = vel[m];
                if w[e] > 0 {
                    external += w[e];
                    vel.push(e);
                }
            }
            vel.push(p);
            (vel_start[i], vel_len[i]) = (start, vel.len() - start);
            // A_i ← A_i \ (L_p ∪ {p}): element p now covers those edges.
            let s = adj_start[i];
            let mut len = 0;
            for m in s..s + adj_len[i] {
                let v = adj[m];
                if mark[v] != tag {
                    adj[s + len] = v;
                    len += 1;
                }
            }
            adj_len[i] = len;
            // ADD bound: min(n_live − 1, d_old + |L_p \ i|,
            // |A_i| + |L_p \ i| + Σ_e |L_e \ L_p|).
            let d = (len + lp_len - 1 + external).min(degree[i] + lp_len - 1).min(live - 1);
            if d != degree[i] {
                degree[i] = d;
                heap.update(&degree, i);
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Triplet;

    fn order_of(t: &Triplet<f64>) -> Vec<usize> {
        let a = t.to_csc();
        amd_order(a.nrows(), a.colptr(), a.rowidx())
    }

    fn is_perm(q: &[usize], n: usize) -> bool {
        let mut sorted = q.to_vec();
        sorted.sort_unstable();
        sorted == (0..n).collect::<Vec<_>>()
    }

    #[test]
    fn order_is_a_permutation_of_any_pattern() {
        // n = 0, n = 1, an isolated node, and two disconnected components.
        assert!(amd_order(0, &[0], &[]).is_empty());
        let mut one = Triplet::new(1, 1);
        one.push(0, 0, 1.0);
        assert_eq!(order_of(&one), vec![0]);
        let mut t = Triplet::new(6, 6);
        for i in 0..6 {
            t.push(i, i, 1.0);
        }
        for (i, j) in [(0, 1), (1, 2), (4, 5)] {
            t.push(i, j, -0.5);
            t.push(j, i, -0.5);
        }
        let q = order_of(&t);
        assert!(is_perm(&q, 6), "{q:?}");
        // Isolated node 3 has degree 0 and goes first; then the lowest-
        // index degree-1 leaf.
        assert_eq!(&q[..2], &[3, 0]);
        // An unsymmetric pattern orders by A + Aᵀ.
        let mut u = Triplet::new(3, 3);
        u.push(0, 2, 1.0);
        u.push(1, 0, 1.0);
        u.push(2, 1, 1.0);
        assert!(is_perm(&order_of(&u), 3));
        // A scattered pattern: the order depends on it alone, not on
        // the values.
        let mut t = Triplet::new(30, 30);
        for i in 0..30 {
            t.push(i, i, 4.0);
            t.push(i, (i * 7 + 3) % 30, -1.0);
            t.push((i * 11 + 5) % 30, i, -1.0);
        }
        let q = order_of(&t);
        assert!(is_perm(&q, 30));
        let a = t.to_csc().map(|v| v * 3.0 + 1.0);
        assert_eq!(q, amd_order(30, a.colptr(), a.rowidx()));
    }
}
