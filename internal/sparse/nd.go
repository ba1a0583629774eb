package sparse

import "sort"

// Nested dissection: recursive level-structure bisection of the symmetrized
// graph of a square sparse matrix. Each bisection step runs a breadth-first
// level structure from a pseudo-peripheral root and removes one whole BFS
// level as the separator — BFS levels only touch adjacent levels, so deleting
// a level provably disconnects the prefix from the suffix. Recursing to depth
// log₂(parts) yields the bordered block diagonal (BBD) form the domain-
// decomposed factorization consumes: independent domains plus one interface
// block collecting every separator, with no edge joining two distinct
// domains.
//
// Everything here is deterministic: roots are picked by (level, degree,
// index), components are walked in ascending node order, and separators are
// appended in the fixed recursion order — the same matrix always dissects
// identically, which the bitwise-reproducibility contract of FactorBBD
// builds on.

// Dissection is the result of Dissect: a partition of 0..n−1 into
// independent domains and one interface (separator) set.
type Dissection struct {
	// Domains holds the independent node sets, each sorted ascending. No
	// stored nonzero of the dissected matrix couples two distinct domains.
	Domains [][]int
	// Iface holds the separator nodes, sorted ascending.
	Iface []int
}

// ndLeafMin is the node count below which a subgraph is kept as a leaf
// domain instead of being split further: separators on tiny subgraphs cost
// more interface unknowns than the split saves.
const ndLeafMin = 32

// Dissect partitions the symmetrized graph of the square matrix a into at
// most parts independent domains plus a separator. parts is rounded down to
// a power of two (minimum 2); subgraphs too small or too dense to bisect
// become leaf domains early, so fewer than parts domains may come back.
func Dissect(a *CSR, parts int) *Dissection {
	n := a.R
	adj := symAdjacency(a)
	depth := 0
	for p := 2; p <= parts; p *= 2 {
		depth++
	}
	if depth == 0 {
		depth = 1
	}
	d := &Dissection{}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	// inSet stamps restrict the global adjacency to the current subgraph;
	// level doubles as the BFS level index within a bisection.
	inSet := make([]int, n)
	for i := range inSet {
		inSet[i] = -1
	}
	level := make([]int, n)
	var epoch int
	var split func(nodes []int, depth int)
	split = func(nodes []int, depth int) {
		if depth == 0 || len(nodes) < ndLeafMin {
			d.Domains = append(d.Domains, nodes)
			return
		}
		left, sep, right := bisect(adj, nodes, inSet, level, &epoch)
		if sep == nil {
			// The subgraph refused to split (degenerate level structure).
			d.Domains = append(d.Domains, nodes)
			return
		}
		d.Iface = append(d.Iface, sep...)
		split(left, depth-1)
		split(right, depth-1)
	}
	split(all, depth)
	for _, dom := range d.Domains {
		sort.Ints(dom)
	}
	sort.Ints(d.Iface)
	return d
}

// bisect splits nodes into (left, separator, right) with no edge between
// left and right, or returns a nil separator when no useful split exists.
// inSet and level are caller-owned n-length scratch; *epoch stamps inSet.
func bisect(adj [][]int, nodes []int, inSet, level []int, epoch *int) (left, sep, right []int) {
	*epoch++
	e := *epoch
	for _, v := range nodes {
		inSet[v] = e
		level[v] = -1
	}
	// Components, discovered in ascending node order. A disconnected subgraph
	// splits for free: distribute whole components across the two halves,
	// largest first, no separator nodes needed.
	var comps [][]int
	for _, v := range nodes {
		if level[v] >= 0 {
			continue
		}
		comp := []int{v}
		level[v] = 0
		for head := 0; head < len(comp); head++ {
			for _, w := range adj[comp[head]] {
				if inSet[w] == e && level[w] < 0 {
					level[w] = 0
					comp = append(comp, w)
				}
			}
		}
		comps = append(comps, comp)
	}
	if len(comps) > 1 {
		sort.SliceStable(comps, func(i, j int) bool { return len(comps[i]) > len(comps[j]) })
		for _, c := range comps {
			if len(left) <= len(right) {
				left = append(left, c...)
			} else {
				right = append(right, c...)
			}
		}
		return left, []int{}, right
	}
	for _, v := range nodes {
		level[v] = -1
	}

	// Connected: BFS level structure from a pseudo-peripheral root — start at
	// the lowest-index node, re-root twice at a deepest-level minimum-degree
	// node to stretch the structure along the graph diameter (long, thin
	// level structures give small separators on mesh-like graphs).
	root := nodes[0]
	for _, v := range nodes {
		if v < root {
			root = v
		}
	}
	var levels [][]int
	for pass := 0; pass < 3; pass++ {
		levels = levelStructure(adj, root, inSet, level, e)
		last := levels[len(levels)-1]
		next := last[0]
		for _, v := range last {
			if len(adj[v]) < len(adj[next]) || (len(adj[v]) == len(adj[next]) && v < next) {
				next = v
			}
		}
		if next == root {
			break
		}
		root = next
	}
	if len(levels) < 3 {
		return nil, nil, nil
	}
	// Cut at the level whose removal best balances the two sides.
	total := len(nodes)
	prefix := 0
	bestC, bestBal := -1, total+1
	for c := 1; c < len(levels)-1; c++ {
		prefix += len(levels[c-1])
		a, b := prefix, total-prefix-len(levels[c])
		bal := a - b
		if bal < 0 {
			bal = -bal
		}
		if bal < bestBal {
			bestBal, bestC = bal, c
		}
	}
	for c, lv := range levels {
		switch {
		case c < bestC:
			left = append(left, lv...)
		case c == bestC:
			sep = append(sep, lv...)
		default:
			right = append(right, lv...)
		}
	}
	return left, sep, right
}

// levelStructure runs BFS from root over the subgraph stamped with e,
// reusing the caller's level scratch, and returns the nodes grouped by BFS
// level. Neighbors are visited in the ascending order of the adjacency
// lists, so the grouping is deterministic.
func levelStructure(adj [][]int, root int, inSet, level []int, e int) [][]int {
	frontier := []int{root}
	level[root] = 0
	var levels [][]int
	visited := []int{root}
	for len(frontier) > 0 {
		levels = append(levels, frontier)
		var next []int
		for _, v := range frontier {
			for _, w := range adj[v] {
				if inSet[w] == e && level[w] < 0 {
					level[w] = len(levels)
					next = append(next, w)
					visited = append(visited, w)
				}
			}
		}
		frontier = next
	}
	// Clear for the next pass (re-rooting reuses the same stamp epoch).
	for _, v := range visited {
		level[v] = -1
	}
	return levels
}
