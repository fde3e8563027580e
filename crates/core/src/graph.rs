//! The one order kernel behind every hb1 and G′ query.
//!
//! The paper's analysis needs three graph operations: path existence in
//! the (possibly cyclic) happens-before-1 graph of a weak execution, the
//! strongly connected components of the augmented graph G′ (Section 4.2),
//! and the partial order `P` between components. Both graphs are program
//! order — one chain per processor — plus a few *cross* edges: `so1`,
//! and for G′ both directions of each data race. [`ChainOrder`] answers
//! all three from that shape: Tarjan's algorithm condenses the cycles,
//! then one topological sweep gives every component a clock of one word
//! per processor — the vector-clock idea, applied to the condensation.
//! That is `O(V + C·P)` words for `V` events, `C` components and `P`
//! processors, and `O((V + E)·P)` time. The same clocks give race
//! detection its unit of work: the window of one chain's events left
//! unordered with a given event. Both ends of a window only grow as
//! the event walks its own chain, so [`Windows`] tracks them with one
//! forward cursor per chain, with no search.

use std::fmt;

use wmrd_trace::EventId;

/// Path existence, strongly connected components and their order over
/// per-processor chains plus cross edges.
///
/// Events are chain positions: `EventId { proc: p, index: i }` is the
/// `i`-th node of chain `p`, and each node has an implicit edge to the
/// next one on its chain. A path of length ≥ 1 leads from `a` to `b`
/// iff `clock(comp(b))[proc(a)] > index(a)`: the nodes of one chain
/// with a path into a component form a prefix of the chain, so its
/// length is the whole answer.
pub(crate) struct ChainOrder {
    /// `offsets[p]` is the dense node of chain `p`'s first event;
    /// `offsets[P]` is the node count.
    offsets: Vec<u32>,
    /// The strongly connected component of each node, numbered in
    /// reverse topological order: an edge between two components runs
    /// from the higher id to the lower.
    comp_of: Vec<u32>,
    /// `clocks[c * P + p]`: how many events of chain `p` have a path of
    /// length ≥ 1 into component `c`.
    clocks: Vec<u32>,
}

impl ChainOrder {
    /// Builds the order of chains with the given lengths plus the
    /// `(from, to)` cross edges.
    ///
    /// The component search visits a node's chain successor first and
    /// then its cross edges in the order given, so component ids are a
    /// function of the chains and the edge order.
    ///
    /// # Errors
    ///
    /// Returns the first cross-edge endpoint that is not a chain
    /// position.
    pub(crate) fn new(
        chain_lens: impl IntoIterator<Item = usize>,
        cross: impl IntoIterator<Item = (EventId, EventId)>,
    ) -> Result<Self, EventId> {
        let mut offsets = vec![0u32];
        for len in chain_lens {
            offsets.push(offsets[offsets.len() - 1] + len as u32);
        }
        let edges = Edges::new(&offsets, cross)?;
        let (comp_of, members, bounds) = tarjan(&edges);
        let clocks = sweep(&edges, &comp_of, &members, &bounds);
        Ok(ChainOrder { offsets, comp_of, clocks })
    }

    /// Number of events over all chains.
    pub(crate) fn num_nodes(&self) -> usize {
        self.comp_of.len()
    }

    /// The length of each chain.
    pub(crate) fn chain_lens(&self) -> impl Iterator<Item = usize> + '_ {
        self.offsets.windows(2).map(|w| (w[1] - w[0]) as usize)
    }

    /// The dense node of an event; `None` for an unknown chain or an
    /// index at or past its chain's last event.
    pub(crate) fn node(&self, event: EventId) -> Option<u32> {
        node_in(&self.offsets, event)
    }

    /// Number of strongly connected components.
    pub(crate) fn num_components(&self) -> usize {
        self.clocks.len() / self.num_chains().max(1)
    }

    /// The strongly connected component of an event.
    pub(crate) fn component(&self, event: EventId) -> Option<u32> {
        Some(self.comp_of[self.node(event)? as usize])
    }

    /// `true` iff a path of length ≥ 1 leads from `a` to `b`; unknown
    /// events are unordered.
    pub(crate) fn ordered(&self, a: EventId, b: EventId) -> bool {
        match (self.node(a), self.node(b)) {
            (Some(_), Some(nb)) => {
                let row = self.comp_of[nb as usize] as usize * self.num_chains();
                self.clocks[row + a.proc.index()] > a.index
            }
            _ => false,
        }
    }

    /// The unordered windows of chain `p`'s events, for events visited
    /// in chain order.
    pub(crate) fn windows(&self, p: usize) -> Windows<'_> {
        Windows { order: self, p, last: vec![(u32::MAX, 0, 0); self.num_chains()] }
    }

    /// `clock(comp(node))[q]`: how many events of chain `q` have a path
    /// into `node`.
    fn clock(&self, node: u32, q: usize) -> u32 {
        self.clocks[self.comp_of[node as usize] as usize * self.num_chains() + q]
    }

    /// Number of chains.
    pub(crate) fn num_chains(&self) -> usize {
        self.offsets.len() - 1
    }
}

impl fmt::Debug for ChainOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ChainOrder({} events on {} chains, {} components)",
            self.num_nodes(),
            self.num_chains(),
            self.num_components()
        )
    }
}

/// The windows of one source chain `p` on every chain, walked with
/// monotone cursors ([`ChainOrder::windows`]).
///
/// The events of chain `q` unordered with `a` (on `p`) in both
/// directions are the indices `[lo, hi)`, empty when `lo ≥ hi`. `a`'s
/// predecessors on `q` are the prefix below `lo = clock(comp(a))[q]`.
/// Its successors are a suffix, since `clock(comp(b))[p]` only grows
/// along `q`: `hi` is the first `b` on `q` where it passes `index(a)`.
/// On an hb1 cycle the prefix and suffix overlap and the window is
/// empty. Along `p` both ends only grow — every path into `a` also
/// enters `a`'s successor, and a later `a` has a larger index for
/// `hi` to pass — so `hi` is one cursor per `q` that only moves
/// forward, and walking all of `p` against `q` costs
/// `O(len(p) + len(q))`. Asking again for the same event and chain,
/// as an event does once per location it shares with the chain, reads
/// the last window back.
#[derive(Debug)]
pub(crate) struct Windows<'a> {
    order: &'a ChainOrder,
    p: usize,
    /// `(index, lo, hi)` of the last window asked for on each chain;
    /// no event has index `u32::MAX`.
    last: Vec<(u32, u32, u32)>,
}

impl Windows<'_> {
    /// The window `[lo, hi)` of chain `q` unordered with the event at
    /// `index` on `p`, which must be an event of `p`. Across calls for
    /// one `q`, `index` must not decrease.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not a chain.
    pub(crate) fn window(&mut self, index: u32, q: usize) -> (u32, u32) {
        let order = self.order;
        debug_assert!(index < order.offsets[self.p + 1] - order.offsets[self.p], "not on chain");
        let (at, lo, hi) = &mut self.last[q];
        if *at != index {
            *at = index;
            *lo = order.clock(order.offsets[self.p] + index, q);
            let (start, len) = (order.offsets[q], order.offsets[q + 1] - order.offsets[q]);
            while *hi < len && order.clock(start + *hi, self.p) <= index {
                *hi += 1;
            }
        }
        (*lo, *hi)
    }
}

/// The node of `event` under a chain-offset table.
fn node_in(offsets: &[u32], event: EventId) -> Option<u32> {
    let p = event.proc.index();
    let (&start, &end) = (offsets.get(p)?, offsets.get(p + 1)?);
    let node = start.checked_add(event.index)?;
    (node < end).then_some(node)
}

/// The edges of a chain graph while its order is built: chain
/// successors are implicit, cross edges are grouped by source in
/// insertion order.
struct Edges<'a> {
    offsets: &'a [u32],
    /// The chain of each node.
    chain_of: Vec<u32>,
    /// Node `v`'s cross targets are `targets[start[v]..start[v + 1]]`.
    start: Vec<u32>,
    targets: Vec<u32>,
}

impl<'a> Edges<'a> {
    fn new(
        offsets: &'a [u32],
        cross: impl IntoIterator<Item = (EventId, EventId)>,
    ) -> Result<Self, EventId> {
        let n = offsets[offsets.len() - 1] as usize;
        let node = |e: EventId| node_in(offsets, e).ok_or(e);
        let pairs = cross
            .into_iter()
            .map(|(a, b)| Ok((node(a)?, node(b)?)))
            .collect::<Result<Vec<_>, _>>()?;
        // A stable counting sort by source keeps each node's edges in
        // insertion order.
        let mut start = vec![0u32; n + 1];
        for &(from, _) in &pairs {
            start[from as usize + 1] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        let mut next = start.clone();
        let mut targets = vec![0u32; pairs.len()];
        for (from, to) in pairs {
            targets[next[from as usize] as usize] = to;
            next[from as usize] += 1;
        }
        let mut chain_of = Vec::with_capacity(n);
        for (p, w) in offsets.windows(2).enumerate() {
            chain_of.resize(w[1] as usize, p as u32);
        }
        Ok(Edges { offsets, chain_of, start, targets })
    }

    fn len(&self) -> usize {
        self.chain_of.len()
    }

    /// Node `v`'s chain and index on it.
    fn position(&self, v: u32) -> (usize, u32) {
        let p = self.chain_of[v as usize] as usize;
        (p, v - self.offsets[p])
    }

    /// The `k`-th successor of `v`: its chain successor (if any) comes
    /// first, then its cross edges in insertion order.
    fn successor(&self, v: u32, k: usize) -> Option<u32> {
        let on_chain = v + 1 < self.offsets[self.chain_of[v as usize] as usize + 1];
        let k = match (on_chain, k) {
            (true, 0) => return Some(v + 1),
            (true, k) => k - 1,
            (false, k) => k,
        };
        let (lo, hi) = (self.start[v as usize] as usize, self.start[v as usize + 1] as usize);
        (lo + k < hi).then(|| self.targets[lo + k])
    }

    fn successors(&self, v: u32) -> impl Iterator<Item = u32> + '_ {
        (0..).map_while(move |k| self.successor(v, k))
    }
}

/// Tarjan's strongly connected components, iterative so that long
/// chains cannot overflow the stack, started from every node in order.
///
/// Returns each node's component, numbered in reverse topological order,
/// and the nodes grouped by component: component `c` is
/// `members[bounds[c]..bounds[c + 1]]`.
fn tarjan(g: &Edges<'_>) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let n = g.len();
    let mut index = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut comp_of = vec![u32::MAX; n];
    let mut members = Vec::with_capacity(n);
    let mut bounds = vec![0u32];
    let mut next_index = 0u32;

    // Explicit DFS frames: (node, next-successor position).
    let mut frames: Vec<(u32, usize)> = Vec::new();
    for start in 0..n as u32 {
        if index[start as usize] != u32::MAX {
            continue;
        }
        let mut discovered = Some(start);
        loop {
            if let Some(v) = discovered.take() {
                index[v as usize] = next_index;
                low[v as usize] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v as usize] = true;
                frames.push((v, 0));
            }
            let Some(&mut (v, ref mut pos)) = frames.last_mut() else { break };
            if let Some(w) = g.successor(v, *pos) {
                *pos += 1;
                if index[w as usize] == u32::MAX {
                    discovered = Some(w);
                } else if on_stack[w as usize] {
                    low[v as usize] = low[v as usize].min(index[w as usize]);
                }
                continue;
            }
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                low[parent as usize] = low[parent as usize].min(low[v as usize]);
            }
            if low[v as usize] == index[v as usize] {
                let comp = bounds.len() as u32 - 1;
                loop {
                    let w = stack.pop().expect("tarjan stack underflow");
                    on_stack[w as usize] = false;
                    comp_of[w as usize] = comp;
                    members.push(w);
                    if w == v {
                        break;
                    }
                }
                bounds.push(members.len() as u32);
            }
        }
    }
    (comp_of, members, bounds)
}

/// The per-component clocks of [`ChainOrder`], in one sweep over the
/// components from sources to sinks (descending ids).
fn sweep(g: &Edges<'_>, comp_of: &[u32], members: &[u32], bounds: &[u32]) -> Vec<u32> {
    let procs = g.offsets.len() - 1;
    let mut clocks = vec![0u32; (bounds.len() - 1) * procs];
    let count = |clocks: &mut [u32], comp: usize, v: u32| {
        let (p, i) = g.position(v);
        let slot = &mut clocks[comp * procs + p];
        *slot = (*slot).max(i + 1);
    };
    for c in (0..bounds.len() - 1).rev() {
        let group = &members[bounds[c] as usize..bounds[c + 1] as usize];
        // A member with an edge inside the component lies on a cycle
        // through it; count those first, so the clock is complete
        // before it flows on.
        for &u in group {
            if g.successors(u).any(|v| comp_of[v as usize] as usize == c) {
                count(&mut clocks, c, u);
            }
        }
        for &u in group {
            for v in g.successors(u) {
                let d = comp_of[v as usize] as usize;
                if d == c {
                    continue;
                }
                // `d < c`: everything reaching `c` also reaches `d`.
                let (to, from) = clocks.split_at_mut(c * procs);
                for (t, &f) in to[d * procs..(d + 1) * procs].iter_mut().zip(&from[..procs]) {
                    *t = (*t).max(f);
                }
                count(&mut clocks, d, u);
            }
        }
    }
    clocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmrd_trace::ProcId;

    /// A plain adjacency-list graph whose DFS [`has_path`](Self::has_path)
    /// is the reference the kernel is checked against.
    struct DiGraph {
        adj: Vec<Vec<u32>>,
    }

    impl DiGraph {
        fn new(n: usize) -> Self {
            DiGraph { adj: vec![Vec::new(); n] }
        }

        fn num_nodes(&self) -> usize {
            self.adj.len()
        }

        fn num_edges(&self) -> usize {
            self.adj.iter().map(Vec::len).sum()
        }

        fn add_edge(&mut self, from: u32, to: u32) {
            assert!((to as usize) < self.adj.len(), "edge target out of range");
            self.adj[from as usize].push(to);
        }

        fn successors(&self, node: u32) -> &[u32] {
            &self.adj[node as usize]
        }

        /// `true` iff a path of length ≥ 1 leads from `from` to `to`.
        fn has_path(&self, from: u32, to: u32) -> bool {
            let mut seen = vec![false; self.adj.len()];
            let mut stack: Vec<u32> = self.successors(from).to_vec();
            while let Some(n) = stack.pop() {
                if n == to {
                    return true;
                }
                if !std::mem::replace(&mut seen[n as usize], true) {
                    stack.extend_from_slice(self.successors(n));
                }
            }
            false
        }
    }

    /// The events of chains with the given lengths, in node order.
    fn events(lens: &[usize]) -> Vec<EventId> {
        let chains = lens.iter().enumerate();
        chains
            .flat_map(|(p, &len)| {
                (0..len as u32).map(move |i| EventId::new(ProcId::new(p as u16), i))
            })
            .collect()
    }

    /// The kernel over `lens` chains plus `cross` edges (given as dense
    /// nodes), and the same graph as a [`DiGraph`].
    fn chains(lens: &[usize], cross: &[(u32, u32)]) -> (ChainOrder, DiGraph, Vec<EventId>) {
        let ev = events(lens);
        let mut g = DiGraph::new(ev.len());
        for (v, w) in ev.windows(2).enumerate() {
            if w[0].proc == w[1].proc {
                g.add_edge(v as u32, v as u32 + 1);
            }
        }
        for &(a, b) in cross {
            g.add_edge(a, b);
        }
        let edges = cross.iter().map(|&(a, b)| (ev[a as usize], ev[b as usize]));
        let order = ChainOrder::new(lens.iter().copied(), edges).unwrap();
        (order, g, ev)
    }

    /// A diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, as chains [0, 1] and
    /// [2, 3] with cross edges 0 -> 2 and 1 -> 3.
    fn diamond() -> (ChainOrder, DiGraph, Vec<EventId>) {
        chains(&[2, 2], &[(0, 2), (1, 3)])
    }

    /// Two 2-cycles joined: 0 <-> 1 -> 2 <-> 3.
    fn two_cycles() -> (ChainOrder, DiGraph, Vec<EventId>) {
        chains(&[2, 2], &[(1, 0), (1, 2), (3, 2)])
    }

    #[test]
    fn digraph_basics() {
        let (_, g, _) = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.successors(0), &[1, 2]);
        assert!(g.successors(3).is_empty());
    }

    #[test]
    #[should_panic(expected = "edge target out of range")]
    fn add_edge_checks_range() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 5);
    }

    #[test]
    fn has_path_dfs() {
        let (_, g, _) = diamond();
        assert!(g.has_path(0, 3));
        assert!(g.has_path(1, 3));
        assert!(!g.has_path(3, 0));
        assert!(!g.has_path(1, 2));
        assert!(!g.has_path(0, 0), "no self-path without a cycle");
        let (_, c, _) = two_cycles();
        assert!(c.has_path(0, 0), "cycle gives a self-path");
        assert!(c.has_path(0, 3));
        assert!(!c.has_path(2, 1));
    }

    /// Component ids follow the search order — a node's chain
    /// successor first, then its cross edges as inserted — which is the
    /// adjacency order G′ partitions were always numbered by.
    #[test]
    fn scc_of_dag_is_singletons() {
        let (order, _, ev) = diamond();
        assert_eq!(order.num_components(), 4);
        let comps: Vec<_> = ev.iter().map(|&e| order.component(e).unwrap()).collect();
        // 0 -> 1 -> 3 finishes 3 then 1; 0 -> 2 finishes 2; then 0.
        assert_eq!(comps, [3, 1, 2, 0]);
        let (fan, _, ev) = chains(&[1, 1, 1], &[(0, 2), (0, 1)]);
        let comps: Vec<_> = ev.iter().map(|&e| fan.component(e).unwrap()).collect();
        assert_eq!(comps, [2, 1, 0], "cross edges are searched in insertion order");
    }

    #[test]
    fn scc_finds_cycles() {
        let (order, _, ev) = two_cycles();
        let comp = |v: usize| order.component(ev[v]).unwrap();
        assert_eq!(order.num_components(), 2);
        assert_eq!(comp(0), comp(1));
        assert_eq!(comp(2), comp(3));
        assert_ne!(comp(0), comp(2));
    }

    #[test]
    fn scc_component_numbering_is_reverse_topological() {
        let (order, _, ev) = two_cycles();
        // Edge {0,1} -> {2,3}: source component id must be greater.
        assert!(order.component(ev[0]) > order.component(ev[2]));
    }

    #[test]
    fn reachability_on_dag() {
        let (order, _, ev) = diamond();
        let ordered = |a: usize, b: usize| order.ordered(ev[a], ev[b]);
        assert!(ordered(0, 3));
        assert!(ordered(0, 1));
        assert!(!ordered(3, 0));
        assert!(!ordered(1, 2) && !ordered(2, 1));
        assert!(!ordered(0, 0));
    }

    #[test]
    fn reachability_with_cycles() {
        let (order, _, ev) = two_cycles();
        let ordered = |a: usize, b: usize| order.ordered(ev[a], ev[b]);
        assert!(ordered(0, 1) && ordered(1, 0), "same nontrivial SCC is mutually reachable");
        assert!(ordered(0, 0), "on a cycle, a node reaches itself");
        assert!(ordered(0, 3));
        assert!(!ordered(2, 0));
    }

    /// The kernel against the DFS reference on random chains (1–6 of
    /// them) with random cross edges, cycles and self-loops included:
    /// every pair's order, SCC membership as mutual reachability, and
    /// reverse-topological component ids.
    #[test]
    fn chain_order_matches_dfs_on_random_chains() {
        let mut rng = wmrd_trace::SplitMix64::new(42);
        for _ in 0..200 {
            let lens: Vec<usize> = (0..rng.range(1..7)).map(|_| rng.range(0..8)).collect();
            let n = lens.iter().sum::<usize>() as u32;
            let cross: Vec<(u32, u32)> = match n {
                0 => Vec::new(),
                _ => (0..rng.range(0..2 * n)).map(|_| (rng.range(0..n), rng.range(0..n))).collect(),
            };
            let (order, g, ev) = chains(&lens, &cross);
            for a in 0..n {
                for b in 0..n {
                    let (ea, eb) = (ev[a as usize], ev[b as usize]);
                    let ctx = format!("{a}->{b} on chains {lens:?} with cross {cross:?}");
                    assert_eq!(order.ordered(ea, eb), g.has_path(a, b), "{ctx}");
                    let mutual = a == b || (g.has_path(a, b) && g.has_path(b, a));
                    assert_eq!(order.component(ea) == order.component(eb), mutual, "{ctx}");
                    if g.successors(a).contains(&b) && !mutual {
                        assert!(order.component(ea) > order.component(eb), "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn long_chains_order_by_index() {
        let (order, _, ev) = chains(&[200], &[]);
        assert_eq!(order.num_components(), 200);
        assert!(order.ordered(ev[0], ev[199]));
        assert!(order.ordered(ev[100], ev[150]));
        assert!(!order.ordered(ev[150], ev[100]));
        assert!(!order.ordered(ev[0], ev[0]));
    }

    #[test]
    fn empty_graph() {
        for lens in [&[][..], &[0, 0]] {
            let (order, _, _) = chains(lens, &[]);
            assert_eq!(order.num_components(), 0);
            assert_eq!(order.num_nodes(), 0);
            let e = EventId::new(ProcId::new(0), 0);
            assert!(order.component(e).is_none());
            assert!(!order.ordered(e, e));
        }
    }

    #[test]
    fn self_loop_node() {
        let (order, g, ev) = chains(&[2], &[(0, 0)]);
        // A self-loop is a singleton component that still reaches itself.
        assert_eq!(order.num_components(), 2);
        assert!(g.has_path(0, 0));
        assert!(order.ordered(ev[0], ev[0]));
        assert!(!order.ordered(ev[1], ev[1]));
    }

    #[test]
    fn unknown_cross_endpoints_are_errors() {
        let e = |p: u16, i: u32| EventId::new(ProcId::new(p), i);
        for bad in [e(0, 2), e(1, 0), e(0, u32::MAX)] {
            let err = ChainOrder::new([2], [(e(0, 0), e(0, 1)), (e(0, 0), bad)]).unwrap_err();
            assert_eq!(err, bad);
        }
        // An index past a chain's end is not the next chain's first node.
        let err = ChainOrder::new([1, 1], [(e(0, 1), e(1, 0))]).unwrap_err();
        assert_eq!(err, e(0, 1));
    }
}
