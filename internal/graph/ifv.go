package graph

import "fmt"

// IFV describes one independent feature vector: the output of one feature
// generator (paper section 4.1). Feature generators form disjoint subgraphs;
// the features of an IFV are computed independently of all other IFVs.
type IFV struct {
	// Root is the feature generator's root node: the non-commutative node
	// closest to the model whose output is the IFV.
	Root NodeID
	// Nodes are all nodes of the feature generator (including Root),
	// excluding preprocessing nodes, in topological order.
	Nodes []NodeID
	// Sources are the raw-input nodes the generator reads, in declaration
	// order. They key the feature-level cache for this IFV.
	Sources []NodeID
	// LeafPos is the position of the IFV among the spine's leaves in
	// left-to-right concatenation order; it determines the IFV's column span
	// in the full feature vector.
	LeafPos int
}

// Analysis is the result of IFV identification on a graph.
type Analysis struct {
	// IFVs in concatenation (leaf) order.
	IFVs []IFV
	// Spine is the set of commutative nodes between the feature generators
	// and the model (the concatenation spine), in topological order.
	Spine []NodeID
	// Preprocessing nodes: ancestors of more than one feature-generator
	// root. Each executes when a generator that descends from it is first
	// computed (see ExecutionOrder), not ahead of every generator.
	Preprocessing []NodeID

	ifvOfNode map[NodeID]int // node -> index into IFVs, -1 for spine/preprocessing
}

// IFVOf returns the index in IFVs of the feature generator containing the
// node, or -1 if the node is a source, spine, or preprocessing node.
func (a *Analysis) IFVOf(id NodeID) int {
	if i, ok := a.ifvOfNode[id]; ok {
		return i
	}
	return -1
}

// Analyze identifies the graph's independent feature vectors and feature
// generators using the three rules of paper section 5.1:
//
//  1. Any ancestor of a commutative node that is not itself commutative is
//     the root node of a feature generator.
//  2. Any ancestor of the root node of exactly one feature generator is part
//     of that feature generator.
//  3. Any ancestor of the root nodes of multiple feature generators is a
//     preprocessing node: it belongs to no generator, so its cost is charged
//     to none. The paper runs these before any feature is computed; operators
//     being pure, here a preprocessing node runs on demand — when, and for
//     the rows for which, the first generator descending from it is computed
//     — which yields the same values while an efficient IFV that does not
//     read it never pays for it (ExecutionOrder answers what a given IFV set
//     needs).
//
// The descent starts at the node closest to the model (the graph output) and
// recursively descends commutative nodes. If the output node itself is not
// commutative, the whole graph forms a single feature generator.
func Analyze(g *Graph) (*Analysis, error) {
	a := &Analysis{ifvOfNode: make(map[NodeID]int)}

	// Walk the commutative spine from the output toward the inputs,
	// recording the feature-generator roots in left-to-right leaf order.
	spine := make(map[NodeID]bool)
	var roots []NodeID
	rootSeen := make(map[NodeID]bool)
	var descend func(id NodeID)
	descend = func(id NodeID) {
		n := g.Node(id)
		if !n.IsSource() && n.Op.Commutative() {
			spine[id] = true
			for _, in := range n.Inputs {
				descend(in)
			}
			return
		}
		// Rule 1: non-commutative ancestor of a commutative node (or a bare
		// source feeding the spine) roots a feature generator.
		if !rootSeen[id] {
			rootSeen[id] = true
			roots = append(roots, id)
		}
	}
	out := g.Node(g.Output())
	if !out.IsSource() && out.Op.Commutative() {
		descend(g.Output())
	} else {
		roots = append(roots, g.Output())
	}

	// Rules 2 and 3: assign every non-spine node to the generator(s) whose
	// root it reaches. Reaching multiple roots makes it preprocessing.
	reachedRoots := make(map[NodeID]map[NodeID]bool) // node -> set of roots reachable downstream
	for _, r := range roots {
		reachedRoots[r] = map[NodeID]bool{r: true}
		for anc := range g.AncestorsOf(r) {
			if reachedRoots[anc] == nil {
				reachedRoots[anc] = make(map[NodeID]bool)
			}
			reachedRoots[anc][r] = true
		}
	}

	rootIdx := make(map[NodeID]int, len(roots))
	for i, r := range roots {
		rootIdx[r] = i
		src := g.SourcesOf(r)
		a.IFVs = append(a.IFVs, IFV{Root: r, Sources: src, LeafPos: i})
	}

	for _, id := range g.Topo() {
		n := g.Node(id)
		if spine[id] {
			a.Spine = append(a.Spine, id)
			continue
		}
		rs := reachedRoots[id]
		switch {
		case len(rs) == 0:
			if id == g.Output() || n.IsSource() {
				continue
			}
			return nil, fmt.Errorf("graph: node %d (%s) reaches no feature generator", id, n.Label)
		case len(rs) == 1:
			if n.IsSource() {
				continue // sources are recorded via IFV.Sources, not Nodes
			}
			var root NodeID
			for r := range rs {
				root = r
			}
			i := rootIdx[root]
			a.IFVs[i].Nodes = append(a.IFVs[i].Nodes, id)
			a.ifvOfNode[id] = i
		default:
			if n.IsSource() {
				continue
			}
			a.Preprocessing = append(a.Preprocessing, id)
		}
	}

	// Feature generators must be disjoint by construction; verify as a
	// defensive invariant.
	seen := make(map[NodeID]int)
	for i, ifv := range a.IFVs {
		for _, id := range ifv.Nodes {
			if j, dup := seen[id]; dup {
				return nil, fmt.Errorf("graph: node %d assigned to generators %d and %d", id, j, i)
			}
			seen[id] = i
		}
	}
	return a, nil
}

// NonDeterministic is an optional Op extension: operators whose output is
// not a pure function of their inputs (sampling transforms, wall-clock
// features) implement it to opt their feature generator out of feature-level
// caching. Operators without the method are assumed deterministic.
type NonDeterministic interface {
	NonDeterministic() bool
}

// Cacheable reports whether IFV i can be served from a feature-level cache:
// its generator must read at least one raw source (the cache key) and every
// generator op must be deterministic, so a cached row is a faithful stand-in
// for recomputation. The cache planner consults this before assigning any
// budget.
func (a *Analysis) Cacheable(g *Graph, i int) bool {
	ifv := a.IFVs[i]
	if len(ifv.Sources) == 0 {
		return false
	}
	for _, id := range ifv.Nodes {
		if nd, ok := g.Node(id).Op.(NonDeterministic); ok && nd.NonDeterministic() {
			return false
		}
	}
	return true
}

// Span is a half-open column interval [Start, End) in the full feature vector.
type Span struct {
	Start, End int
}

// Width returns End - Start.
func (s Span) Width() int { return s.End - s.Start }

// ColumnSpans maps each IFV to its column span in the full concatenated
// feature vector, given the output width of every feature-generator root
// (widths are known only after fitting, e.g. TF-IDF vocabulary size).
// Spans follow leaf order, which is the concatenation order of the spine.
func (a *Analysis) ColumnSpans(widths map[NodeID]int) ([]Span, error) {
	spans := make([]Span, len(a.IFVs))
	off := 0
	for i, ifv := range a.IFVs {
		w, ok := widths[ifv.Root]
		if !ok {
			return nil, fmt.Errorf("graph: no width recorded for IFV root %d", ifv.Root)
		}
		if w < 0 {
			return nil, fmt.Errorf("graph: negative width %d for IFV root %d", w, ifv.Root)
		}
		spans[i] = Span{Start: off, End: off + w}
		off += w
	}
	return spans, nil
}

// ExecutionOrder returns the node ids needed to compute the given subset of
// IFVs (by index) — the preprocessing nodes the selected generators descend
// from, followed by the generators' own nodes — in global topological order.
// A preprocessing node no selected generator reads is not listed. Passing
// every IFV index yields the order for the full feature vector minus the
// spine. The compiled executor lays its per-IFV step lists out from this.
func (a *Analysis) ExecutionOrder(g *Graph, ifvs []int) []NodeID {
	want := make(map[NodeID]bool)
	for _, i := range ifvs {
		anc := g.AncestorsOf(a.IFVs[i].Root)
		for _, id := range a.Preprocessing {
			if anc[id] {
				want[id] = true
			}
		}
		for _, id := range a.IFVs[i].Nodes {
			want[id] = true
		}
	}
	var order []NodeID
	for _, id := range g.Topo() {
		if want[id] {
			order = append(order, id)
		}
	}
	return order
}
