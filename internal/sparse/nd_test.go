package sparse

import (
	"math"
	"testing"
)

// gridCSR builds an nx×ny 5-point-stencil matrix with deterministic,
// nonsymmetric values on a symmetric structure — diagonally dominant, so
// every principal submatrix (in particular every BBD diagonal block) is
// nonsingular. It is the separator-friendly fixture the dissection and BBD
// tests share.
func gridCSR(nx, ny int) *CSR {
	n := nx * ny
	coo := NewCOO(n, n)
	id := func(x, y int) int { return y*nx + x }
	link := func(i, j int) {
		coo.Add(i, j, -1+0.2*math.Sin(float64(3*i+j)))
		coo.Add(j, i, -1+0.2*math.Cos(float64(i+5*j)))
	}
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := id(x, y)
			coo.Add(i, i, 5+0.5*math.Sin(float64(7*i)))
			if x+1 < nx {
				link(i, id(x+1, y))
			}
			if y+1 < ny {
				link(i, id(x, y+1))
			}
		}
	}
	return coo.ToCSR()
}

// checkDissection asserts the structural contract FactorBBD relies on:
// domains and interface partition [0,n), and no stored nonzero couples two
// distinct domains.
func checkDissection(t *testing.T, a *CSR, d *Dissection) {
	t.Helper()
	n := a.R
	where := make([]int, n)
	for i := range where {
		where[i] = -2
	}
	for _, v := range d.Iface {
		if where[v] != -2 {
			t.Fatalf("node %d assigned twice", v)
		}
		where[v] = -1
	}
	for dom, nodes := range d.Domains {
		for _, v := range nodes {
			if where[v] != -2 {
				t.Fatalf("node %d assigned twice", v)
			}
			where[v] = dom
		}
	}
	for _, w := range where {
		if w == -2 {
			t.Fatal("dissection did not cover every node")
		}
	}
	for i := 0; i < n; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.ColIdx[p]
			if where[i] >= 0 && where[j] >= 0 && where[i] != where[j] {
				t.Fatalf("edge (%d,%d) couples domains %d and %d", i, j, where[i], where[j])
			}
		}
	}
}

func TestDissectGridInvariants(t *testing.T) {
	for _, tc := range []struct{ nx, ny, parts int }{
		{16, 16, 2},
		{16, 16, 4},
		{24, 24, 8},
		{40, 10, 4},
	} {
		a := gridCSR(tc.nx, tc.ny)
		d := Dissect(a, tc.parts)
		checkDissection(t, a, d)
		if len(d.Domains) < 2 {
			t.Fatalf("%dx%d parts=%d: got %d domains", tc.nx, tc.ny, tc.parts, len(d.Domains))
		}
		if len(d.Iface) == 0 {
			t.Fatalf("%dx%d parts=%d: empty interface despite a split", tc.nx, tc.ny, tc.parts)
		}
		// Separators of a planar grid should stay a small fraction of n.
		if len(d.Iface) > a.R/3 {
			t.Fatalf("%dx%d parts=%d: interface %d of %d nodes is too large", tc.nx, tc.ny, tc.parts, len(d.Iface), a.R)
		}
	}
}

func TestDissectDisconnectedGraph(t *testing.T) {
	// Two disjoint grids in one matrix: bisection must distribute whole
	// components without inventing an interface between them.
	g := gridCSR(8, 8)
	n := g.R
	coo := NewCOO(2*n, 2*n)
	for i := 0; i < n; i++ {
		for p := g.RowPtr[i]; p < g.RowPtr[i+1]; p++ {
			coo.Add(i, g.ColIdx[p], g.Val[p])
			coo.Add(n+i, n+g.ColIdx[p], g.Val[p])
		}
	}
	a := coo.ToCSR()
	d := Dissect(a, 2)
	checkDissection(t, a, d)
	if len(d.Domains) != 2 {
		t.Fatalf("expected 2 domains, got %d", len(d.Domains))
	}
	if len(d.Iface) != 0 {
		t.Fatalf("disjoint components should need no interface, got %d nodes", len(d.Iface))
	}
}

func TestDissectTinyGraphDegrades(t *testing.T) {
	a := gridCSR(3, 3)
	d := Dissect(a, 4)
	checkDissection(t, a, d)
}
