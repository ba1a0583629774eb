package sparse

import "math"

// Approximate minimum degree (AMD) ordering, after Amestoy, Davis and Duff
// (SIAM J. Matrix Anal. Appl. 17(4), 1996) in the compact form of Davis's
// CSparse cs_amd. Elimination runs on the quotient graph of the symmetrized
// pattern: every eliminated pivot becomes an element whose variable list
// stands for the clique its elimination creates, so the graph never grows
// beyond the original nonzeros plus elbow room. Degrees are the AMD upper
// bound |A_i \ L_k| + Σ_e |L_e \ L_k| (the set differences come from one scan
// of the new element's variables), variables with identical adjacency merge
// into supervariables found by hashing, elements covered by the new element
// are absorbed, and variables left with no external degree are eliminated
// with the pivot (mass elimination). Rows denser than max(16, 10·√n) are
// ordered last.
//
// The ordering is deterministic: ties in the degree lists go to the most
// recently inserted variable, and nothing depends on map order or timing.

// amdDense returns the degree above which a row is ordered last.
func amdDense(n int) int {
	d := max(16, int(10*math.Sqrt(float64(n))))
	return min(n-2, d)
}

// flip encodes a node index as a negative pointer (its own inverse).
func flip(i int) int { return -i - 2 }

// AMD returns an approximate-minimum-degree fill-reducing ordering of the
// symmetrized sparsity pattern of the square matrix a (new index → old
// index), a complete permutation of 0..n−1 for any pattern, disconnected or
// empty.
func AMD(a *CSR) []int {
	n := a.R
	if n == 0 {
		return []int{}
	}
	adj := symAdjacency(a)
	cnz := 0
	for _, row := range adj {
		cnz += len(row)
	}
	// The quotient graph lives in one index array: cp[i] points at node i's
	// list (its elements first, elen[i] of them, then its variables) or, once
	// the node is absorbed, holds flip(parent). Elbow room lets each new
	// element be appended at the end; garbage collection compacts the array
	// when it runs out.
	ci := make([]int, cnz+cnz/5+2*n)
	cp := make([]int, n+1)
	length := make([]int, n+1) // list lengths
	q := 0
	for i, row := range adj {
		cp[i] = q
		length[i] = len(row)
		q += copy(ci[q:], row)
	}
	cp[n] = q

	nv := make([]int, n+1)     // supervariable sizes; 0 once absorbed, −size while in L_k
	next := make([]int, n+1)   // degree-list and hash-bucket links
	last := make([]int, n+1)   // degree-list back links; hash of a variable during the scan
	head := make([]int, n+1)   // degree-list heads
	elen := make([]int, n+1)   // element counts; −1 dead variable, −2 element
	degree := make([]int, n+1) // approximate external degrees
	w := make([]int, n+1)      // set-difference marks; 0 marks a dead element
	hhead := make([]int, n+1)  // hash-bucket heads
	for i := 0; i <= n; i++ {
		head[i], last[i], next[i], hhead[i] = -1, -1, -1, -1
		nv[i], w[i] = 1, 1
		degree[i] = length[i]
	}
	mark := wclear(0, 0, w, n)
	// Node n is the element that collects the dense rows.
	elen[n] = -2
	cp[n] = -1
	w[n] = 0

	dense := amdDense(n)
	nel := 0 // eliminated variables so far
	for i := 0; i < n; i++ {
		d := degree[i]
		switch {
		case d == 0: // isolated: a root of the assembly tree right away
			elen[i] = -2
			nel++
			cp[i] = -1
			w[i] = 0
		case d > dense: // absorbed into element n, ordered last
			nv[i] = 0
			elen[i] = -1
			nel++
			cp[i] = flip(n)
			nv[n]++
		default:
			if head[d] != -1 {
				last[head[d]] = i
			}
			next[i] = head[d]
			head[d] = i
		}
	}

	mindeg, lemax := 0, 0
	for nel < n {
		// Select the variable k of minimum approximate degree.
		k := -1
		for ; mindeg < n; mindeg++ {
			if k = head[mindeg]; k != -1 {
				break
			}
		}
		if next[k] != -1 {
			last[next[k]] = -1
		}
		head[mindeg] = next[k]
		elenk, nvk := elen[k], nv[k]
		nel += nvk

		// Garbage collection: compact every live list to the front of ci.
		if elenk > 0 && cnz+mindeg >= len(ci) {
			for j := 0; j < n; j++ {
				if p := cp[j]; p >= 0 {
					cp[j] = ci[p]
					ci[p] = flip(j)
				}
			}
			q, p := 0, 0
			for p < cnz {
				j := flip(ci[p])
				p++
				if j >= 0 {
					ci[q] = cp[j]
					cp[j] = q
					q++
					for k3 := 0; k3 < length[j]-1; k3++ {
						ci[q] = ci[p]
						q++
						p++
					}
				}
			}
			cnz = q
		}

		// Construct the new element L_k: k's variables plus those of every
		// element adjacent to k, which are absorbed into k.
		dk := 0
		nv[k] = -nvk
		p := cp[k]
		pk1 := cnz // built in place when k has no elements
		if elenk == 0 {
			pk1 = p
		}
		pk2 := pk1
		for k1 := 1; k1 <= elenk+1; k1++ {
			var e, pj, ln int
			if k1 > elenk {
				e, pj, ln = k, p, length[k]-elenk
			} else {
				e = ci[p]
				p++
				pj, ln = cp[e], length[e]
			}
			for k2 := 1; k2 <= ln; k2++ {
				i := ci[pj]
				pj++
				nvi := nv[i]
				if nvi <= 0 { // dead, or already in L_k
					continue
				}
				dk += nvi
				nv[i] = -nvi
				ci[pk2] = i
				pk2++
				// Unlink i from its degree list.
				if next[i] != -1 {
					last[next[i]] = last[i]
				}
				if last[i] != -1 {
					next[last[i]] = next[i]
				} else {
					head[degree[i]] = next[i]
				}
			}
			if e != k {
				cp[e] = flip(k)
				w[e] = 0
			}
		}
		if elenk != 0 {
			cnz = pk2
		}
		degree[k] = dk
		cp[k] = pk1
		length[k] = pk2 - pk1
		elen[k] = -2

		// Scan 1: w[e] − mark = |L_e \ L_k| for every element e adjacent to
		// a variable of L_k.
		mark = wclear(mark, lemax, w, n)
		for pk := pk1; pk < pk2; pk++ {
			i := ci[pk]
			eln := elen[i]
			if eln <= 0 {
				continue
			}
			nvi := -nv[i]
			wnvi := mark - nvi
			for p := cp[i]; p <= cp[i]+eln-1; p++ {
				e := ci[p]
				if w[e] >= mark {
					w[e] -= nvi
				} else if w[e] != 0 {
					w[e] = degree[e] + wnvi
				}
			}
		}

		// Scan 2: degree update, element pruning and aggressive absorption,
		// mass elimination, and the supervariable hash of each variable.
		for pk := pk1; pk < pk2; pk++ {
			i := ci[pk]
			p1 := cp[i]
			p2 := p1 + elen[i] - 1
			pn := p1
			var h uint
			d := 0
			for p := p1; p <= p2; p++ {
				e := ci[p]
				if w[e] == 0 {
					continue
				}
				if dext := w[e] - mark; dext > 0 {
					d += dext
					ci[pn] = e
					pn++
					h += uint(e)
				} else { // L_e ⊆ L_k: absorb e into k
					cp[e] = flip(k)
					w[e] = 0
				}
			}
			elen[i] = pn - p1 + 1
			p3 := pn
			p4 := p1 + length[i]
			for p := p2 + 1; p < p4; p++ {
				j := ci[p]
				nvj := nv[j]
				if nvj <= 0 { // dead, or in L_k (now reached through k)
					continue
				}
				d += nvj
				ci[pn] = j
				pn++
				h += uint(j)
			}
			if d == 0 { // mass elimination: i is eliminated with k
				cp[i] = flip(k)
				nvi := -nv[i]
				dk -= nvi
				nvk += nvi
				nel += nvi
				nv[i] = 0
				elen[i] = -1
			} else {
				degree[i] = min(degree[i], d)
				// Make k the first element of i's list.
				ci[pn] = ci[p3]
				ci[p3] = ci[p1]
				ci[p1] = k
				length[i] = pn - p1 + 1
				hb := int(h % uint(n))
				next[i] = hhead[hb]
				hhead[hb] = i
				last[i] = hb
			}
		}
		degree[k] = dk
		lemax = max(lemax, dk)
		mark = wclear(mark+lemax, lemax, w, n)

		// Supervariable detection: variables of L_k in one hash bucket with
		// identical element and variable lists merge.
		for pk := pk1; pk < pk2; pk++ {
			i := ci[pk]
			if nv[i] >= 0 {
				continue
			}
			hb := last[i]
			i = hhead[hb]
			hhead[hb] = -1
			for ; i != -1 && next[i] != -1; i, mark = next[i], mark+1 {
				ln, eln := length[i], elen[i]
				for p := cp[i] + 1; p <= cp[i]+ln-1; p++ {
					w[ci[p]] = mark
				}
				jlast := i
				for j := next[i]; j != -1; {
					ok := length[j] == ln && elen[j] == eln
					for p := cp[j] + 1; ok && p <= cp[j]+ln-1; p++ {
						if w[ci[p]] != mark {
							ok = false
						}
					}
					if ok { // absorb j into i
						cp[j] = flip(i)
						nv[i] += nv[j]
						nv[j] = 0
						elen[j] = -1
						j = next[j]
						next[jlast] = j
					} else {
						jlast = j
						j = next[j]
					}
				}
			}
		}

		// Finalize L_k: restore the sizes of its live variables and put them
		// back in the degree lists at their new external degrees.
		p = pk1
		for pk := pk1; pk < pk2; pk++ {
			i := ci[pk]
			nvi := -nv[i]
			if nvi <= 0 {
				continue
			}
			nv[i] = nvi
			d := min(degree[i]+dk-nvi, n-nel-nvi)
			if head[d] != -1 {
				last[head[d]] = i
			}
			next[i] = head[d]
			last[i] = -1
			head[d] = i
			mindeg = min(mindeg, d)
			degree[i] = d
			ci[p] = i
			p++
		}
		nv[k] = nvk
		if length[k] = p - pk1; length[k] == 0 {
			cp[k] = -1
			w[k] = 0
		}
		if elenk != 0 {
			cnz = p
		}
	}

	// Postorder the assembly tree: every absorbed variable and element hangs
	// off its parent, the roots (and the dense element n, last) are walked
	// depth first, so each supervariable's members come out together.
	for i := 0; i < n; i++ {
		cp[i] = flip(cp[i])
	}
	for j := 0; j <= n; j++ {
		head[j] = -1
	}
	for j := n; j >= 0; j-- {
		if nv[j] > 0 {
			continue
		}
		next[j] = head[cp[j]]
		head[cp[j]] = j
	}
	for e := n; e >= 0; e-- {
		if nv[e] <= 0 {
			continue
		}
		if cp[e] != -1 {
			next[e] = head[cp[e]]
			head[cp[e]] = e
		}
	}
	post := make([]int, 0, n+1)
	stack := w
	for i := 0; i <= n; i++ {
		if cp[i] == -1 {
			post = treePostorder(i, head, next, post, stack)
		}
	}
	return post[:n]
}

// wclear resets the marks when mark+lemax could overflow or before the
// first use, so w[i] < mark holds for every live element on return.
func wclear(mark, lemax int, w []int, n int) int {
	if mark < 2 || mark+lemax < 0 {
		for k := 0; k < n; k++ {
			if w[k] != 0 {
				w[k] = 1
			}
		}
		mark = 2
	}
	return mark
}

// treePostorder appends the depth-first postorder of the tree rooted at j
// (children lists head/next, consumed) to post, using stack as scratch.
func treePostorder(j int, head, next, post, stack []int) []int {
	top := 0
	stack[0] = j
	for top >= 0 {
		p := stack[top]
		if i := head[p]; i == -1 {
			top--
			post = append(post, p)
		} else {
			head[p] = next[i]
			top++
			stack[top] = i
		}
	}
	return post
}
