package sparse

import "sort"

// symAdjacency builds the undirected adjacency lists of the symmetrized
// sparsity pattern of a (pattern of A + Aᵀ, no self loops), each list sorted
// ascending with duplicates removed. It is the shared graph substrate of the
// RCM, AMD and nested-dissection orderings. The construction is merge-based — two
// counted passes over the nonzeros plus one sort/dedup per row — instead of a
// hash-set of edges, which is what lets the orderings scale to the n=10⁵
// grids the BBD factorization targets; the resulting lists are identical to
// the ones the historical map-based builder produced.
func symAdjacency(a *CSR) [][]int {
	n := a.R
	count := make([]int, n+1)
	for i := 0; i < n; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if j := a.ColIdx[p]; j != i {
				count[i+1]++
				count[j+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		count[i+1] += count[i]
	}
	flat := make([]int, count[n])
	next := append([]int(nil), count[:n]...)
	for i := 0; i < n; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.ColIdx[p]
			if j == i {
				continue
			}
			flat[next[i]] = j
			next[i]++
			flat[next[j]] = i
			next[j]++
		}
	}
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		row := flat[count[i]:count[i+1]]
		sort.Ints(row)
		k := 0
		for _, v := range row {
			if k == 0 || row[k-1] != v {
				row[k] = v
				k++
			}
		}
		adj[i] = row[:k]
	}
	return adj
}

// RCM computes a reverse Cuthill–McKee ordering of the symmetrized sparsity
// pattern of the square matrix a. The returned slice maps new index → old
// index. RCM reduces bandwidth, which bounds fill-in of the subsequent LU
// factorization on the mesh-like matrices that circuit grids produce; Factor
// orders with AMD, which leaves less fill on those matrices, and RCM stays
// as the bandwidth-reducing reference.
//
// Disconnected graphs — including fully isolated nodes, which circuit
// matrices produce for source-only node families — are handled by restarting
// the BFS once per component, so the result is always a complete permutation
// of 0..n−1. Roots are chosen in ascending (degree, index) order, which keeps
// the ordering deterministic and component restarts O(n log n) overall
// instead of rescanning all nodes per component.
func RCM(a *CSR) []int {
	n := a.R
	adj := symAdjacency(a)
	deg := make([]int, n)
	for i := range adj {
		deg[i] = len(adj[i])
	}

	// Root candidates sorted by (degree, index): the first unvisited candidate
	// is exactly the minimum-degree lowest-index node the per-component scan
	// would pick (a cheap stand-in for a pseudo-peripheral node).
	roots := make([]int, n)
	for i := range roots {
		roots[i] = i
	}
	sort.SliceStable(roots, func(x, y int) bool { return deg[roots[x]] < deg[roots[y]] })

	order := make([]int, 0, n)
	visited := make([]bool, n)
	queue := make([]int, 0, n)
	nextRoot := 0
	for len(order) < n {
		// Restart BFS at the next component's root.
		for visited[roots[nextRoot]] {
			nextRoot++
		}
		root := roots[nextRoot]
		visited[root] = true
		queue = append(queue[:0], root)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			// Enqueue unvisited neighbors in increasing-degree order.
			var nbrs []int
			for _, w := range adj[v] {
				if !visited[w] {
					visited[w] = true
					nbrs = append(nbrs, w)
				}
			}
			sort.Slice(nbrs, func(x, y int) bool { return deg[nbrs[x]] < deg[nbrs[y]] })
			queue = append(queue, nbrs...)
		}
	}
	// Reverse for RCM.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// Bandwidth returns the maximum |i−j| over stored nonzeros, a quick metric
// for evaluating orderings in tests.
func Bandwidth(a *CSR) int {
	bw := 0
	for i := 0; i < a.R; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			d := i - a.ColIdx[p]
			if d < 0 {
				d = -d
			}
			if d > bw {
				bw = d
			}
		}
	}
	return bw
}
