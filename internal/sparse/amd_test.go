package sparse

import (
	"math/rand"
	"testing"
)

// checkPermutation asserts perm is a permutation of 0..n−1.
func checkPermutation(t *testing.T, perm []int, n int) {
	t.Helper()
	if len(perm) != n {
		t.Fatalf("permutation has %d entries, want %d", len(perm), n)
	}
	seen := make([]bool, n)
	for _, v := range perm {
		if v < 0 || v >= n || seen[v] {
			t.Fatalf("invalid or duplicate permutation entry %d in %v", v, perm)
		}
		seen[v] = true
	}
}

// TestAMDDegeneratePatterns covers the patterns with nothing to eliminate
// or several pieces to eliminate: an empty matrix, one without stored
// entries, a diagonal, and a graph of a path, a star, a component with a
// row denser than max(16, 10·√n), which is ordered last, and isolated nodes.
func TestAMDDegeneratePatterns(t *testing.T) {
	checkPermutation(t, AMD(&CSR{RowPtr: []int{0}}), 0)
	checkPermutation(t, AMD(&CSR{R: 5, C: 5, RowPtr: make([]int, 6)}), 5)
	checkPermutation(t, AMD(Identity(70)), 70)

	const n = 300
	coo := NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4)
	}
	for i := 0; i+1 < 20; i++ { // path on 0..19
		coo.Add(i, i+1, -1)
		coo.Add(i+1, i, -1)
	}
	for leaf := 21; leaf < 30; leaf++ { // star centered at 20
		coo.Add(20, leaf, -1)
	}
	for j := 31; j < 290; j++ { // node 30 couples to 259 others: a dense row
		coo.Add(30, j, -1)
		coo.Add(j, j-1, 0.5)
	}
	// 290..299 isolated.
	a := coo.ToCSR()
	perm := AMD(a)
	checkPermutation(t, perm, n)
	if perm[n-1] != 30 {
		t.Fatalf("dense row 30 ordered at %v, want last", perm)
	}
	if _, err := Factor(a, Options{}); err != nil {
		t.Fatalf("factorization through AMD on a disconnected graph: %v", err)
	}
}

// TestAMDRandomPatternsArePermutations runs AMD over random unsymmetric
// patterns dense enough to trigger element absorption, supervariables and
// the quotient graph's garbage collection, and checks each result factors
// and solves.
func TestAMDRandomPatternsArePermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 64 + rng.Intn(200)
		a := randomSparseSquare(rng, n, 0.5*rng.Float64()*rng.Float64())
		perm := AMD(a)
		checkPermutation(t, perm, n)
		f, err := Factor(a, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		r := a.MulVec(x, nil)
		for i := range r {
			if d := r[i] - b[i]; d > 1e-9 || d < -1e-9 {
				t.Fatalf("trial %d (n=%d): residual %g at row %d", trial, n, d, i)
			}
		}
	}
}
