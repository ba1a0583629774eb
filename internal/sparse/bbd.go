package sparse

//lint:hot

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"opmsim/internal/mat"
	"opmsim/internal/vecops"
)

// Bordered block diagonal (BBD) factorization: the supernodal / domain-
// decomposed fast path for large circuit pencils. Dissect (nd.go) splits the
// matrix graph into independent domains D₁..D_P plus an interface block, so
// in the dissected ordering
//
//	A = ⎡D₁        F₁⎤      S = C − Σᵢ Gᵢ·Dᵢ⁻¹·Fᵢ
//	    ⎢   ⋱      ⋮ ⎥
//	    ⎢      D_P F_P⎥
//	    ⎣G₁ ⋯  G_P  C ⎦
//
// Each domain factors independently (Gilbert–Peierls LU with its own AMD
// ordering and a row substitution plan — rowPlan in lu.go), its Schur
// contribution Gᵢ·Dᵢ⁻¹·Fᵢ is
// assembled through 32-wide panel solves (the SubMulRows kernels of
// panel.go), and the dense interface Schur complement S is factored in place
// by the blocked dense LU of internal/mat. Solves run block forward
// elimination and back substitution:
//
//	yᵢ = Dᵢ⁻¹·bᵢ,   z = S⁻¹·(b_S − Σᵢ Gᵢ·yᵢ),   xᵢ = Dᵢ⁻¹·(bᵢ − Fᵢ·z),  x_S = z
//
// Determinism contract: domain factorizations, Schur patches and the
// per-domain phases of every solve run in parallel across Options.Workers
// goroutines, but each task is a pure function of its own domain and writes
// only that domain's buffers, and every cross-domain reduction (the Schur
// fold, the interface right-hand side Σᵢ Gᵢ·yᵢ) runs serially in ascending
// domain order on the calling goroutine — so factors and solutions are
// bitwise-identical for every worker count. The interface solve z = S⁻¹·r is
// serial.
//
// Pivoting is confined to the diagonal blocks (threshold pivoting inside
// each Dᵢ, partial pivoting inside S). A matrix that is regular but has a
// singular diagonal block in the dissected ordering fails FactorBBD with
// ErrSingular; callers (the tiered chain in internal/core) fall back to the
// global scalar sparse LU, whose pivoting is unrestricted.

// BBDOptions configures FactorBBD.
type BBDOptions struct {
	// Workers bounds the goroutines factoring domains and running the
	// per-domain solve phases concurrently; 0 means GOMAXPROCS. Results are
	// bitwise-identical for every value.
	Workers int
	// Parts is the target domain count (rounded down to a power of two);
	// 0 picks a size-based default.
	Parts int
}

// bbdParts picks the default domain count: enough parts that domain
// factorization and Schur assembly shrink (sparse fill grows superlinearly
// in block size, so splitting keeps paying well past the obvious point), few
// enough that the dense interface stays small. Tuned on the netgen power
// grids: at n=10⁵, 16 parts beats 8 by 2× while 32 loses it again to the
// O(ni³) Schur factor.
func bbdParts(n int) int {
	switch {
	case n >= 3000:
		return 16
	case n >= 600:
		return 8
	default:
		return 2
	}
}

// bbdDomain is one independent diagonal block and its interface coupling.
type bbdDomain struct {
	nodes []int          // original indices, ascending
	f     *Factorization // LU of A(dom, dom) with its row plan
	fi    *CSR           // A(dom, iface): len(nodes) × ni
	gi    *CSR           // A(iface, dom): ni × len(nodes)
	fiT   *CSR           // fi transposed (iface-slot rows), for panel fills and transpose solves
	act   []int          // iface slots with a nonzero fi column (ascending)
	actR  []int          // iface slots with a nonzero gi row (ascending)
	patch []float64      // |actR| × |act| Schur contribution, freed after the fold
	off   int            // offset of this domain's rows in the local slabs
	gy    []float64      // per-view solve scratch: (Gᵢ·yᵢ)[actR]
}

// BBD is a ready-to-solve bordered-block-diagonal factorization.
type BBD struct {
	n     int
	a     *CSR
	doms  []*bbdDomain
	iface []int // original indices, ascending
	ni    int
	schur *mat.LU
	nloc  int // Σ len(doms[i].nodes)
	// workers bounds the goroutines of the per-domain solve phases (≤ 0:
	// GOMAXPROCS); per view.
	workers int

	// Solve scratch, lazily sized, per view (Share detaches it).
	lb, ly, lt []float64 // domain-local slabs, indexed by dom.off
	iz         []float64 // interface rhs, solved in place into the interface solution
	derr       []error   // per-domain errors of the vector solve phases
	jx, jb     []float64 // the current vector solve's x and b (the view is its domain job)
}

// FactorBBD dissects and factors the square matrix a. It returns an error
// when the dissection degenerates (graph too small or too dense to split) or
// when a diagonal block is singular under block-confined pivoting; both are
// recoverable by the caller falling back to a global factorization.
func FactorBBD(a *CSR, opt BBDOptions) (*BBD, error) {
	n := a.R
	if a.C != n {
		return nil, fmt.Errorf("sparse: FactorBBD of non-square %dx%d matrix", a.R, a.C)
	}
	parts := opt.Parts
	if parts <= 0 {
		parts = bbdParts(n)
	}
	dis := Dissect(a, parts)
	if len(dis.Domains) < 2 || len(dis.Iface) == 0 {
		return nil, fmt.Errorf("sparse: dissection of n=%d produced no usable split", n)
	}

	b := &BBD{n: n, a: a, iface: dis.Iface, ni: len(dis.Iface), workers: opt.Workers}

	// Global placement maps: where[v] = domain id (or −1 for interface),
	// slot[v] = local index within its block.
	where := make([]int, n)
	slot := make([]int, n)
	for t, v := range dis.Iface {
		where[v] = -1
		slot[v] = t
	}
	off := 0
	for d, nodes := range dis.Domains {
		for t, v := range nodes {
			where[v] = d
			slot[v] = t
		}
		b.doms = append(b.doms, &bbdDomain{nodes: nodes, off: off})
		off += len(nodes)
	}
	b.nloc = off

	// Extract the blocks in one pass over the rows. Dissect guarantees no
	// stored nonzero couples two distinct domains; verify defensively.
	ni := b.ni
	dcoo := make([]*COO, len(b.doms))
	fcoo := make([]*COO, len(b.doms))
	gcoo := make([]*COO, len(b.doms))
	for d, dom := range b.doms {
		nd := len(dom.nodes)
		dcoo[d] = NewCOO(nd, nd)
		fcoo[d] = NewCOO(nd, ni)
		gcoo[d] = NewCOO(ni, nd)
	}
	schur := mat.NewDense(ni, ni)
	schurDense := schur.Data()
	for i := 0; i < n; i++ {
		di := where[i]
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.ColIdx[p]
			v := a.Val[p]
			dj := where[j]
			switch {
			case di >= 0 && dj == di:
				dcoo[di].Add(slot[i], slot[j], v)
			case di >= 0 && dj < 0:
				fcoo[di].Add(slot[i], slot[j], v)
			case di < 0 && dj >= 0:
				gcoo[dj].Add(slot[i], slot[j], v)
			case di < 0 && dj < 0:
				schurDense[slot[i]*ni+slot[j]] += v
			default:
				return nil, fmt.Errorf("sparse: dissection leaked edge (%d,%d) across domains %d,%d", i, j, di, dj)
			}
		}
	}
	for d, dom := range b.doms {
		dom.fi = fcoo[d].ToCSR()
		dom.gi = gcoo[d].ToCSR()
		dom.fiT = dom.fi.T()
		dom.act = activeSlots(dom.fiT)
		dom.actR = activeSlots(dom.gi)
	}

	// Factor the domains and assemble their Schur patches in parallel; every
	// domain is independent, so scheduling cannot affect any bit.
	if err := b.eachDomain(&bbdBuild{b: b, dcoo: dcoo}, 0, make([]error, len(b.doms))); err != nil {
		return nil, err
	}

	// Serial Schur fold in ascending domain order — the deterministic
	// reduction that makes the factors worker-count-independent.
	for _, dom := range b.doms {
		na := len(dom.act)
		for ri, r := range dom.actR {
			srow := schurDense[r*ni : (r+1)*ni]
			prow := dom.patch[ri*na : (ri+1)*na]
			for ci, c := range dom.act {
				srow[c] -= prow[ci]
			}
		}
		dom.patch = nil
	}
	f, err := mat.LUFactorInPlace(schur)
	if err != nil {
		return nil, fmt.Errorf("sparse: interface Schur complement: %w", err)
	}
	b.schur = f
	return b, nil
}

// bbdBuild is FactorBBD's domain job (one phase): factor Dᵢ and assemble
// its Schur patch.
type bbdBuild struct {
	b    *BBD
	dcoo []*COO
}

func (j *bbdBuild) domain(_, d int) error {
	f, err := Factor(j.dcoo[d].ToCSR(), Options{})
	if err != nil {
		return fmt.Errorf("sparse: domain %d: %w", d, err)
	}
	dom := j.b.doms[d]
	dom.f = f
	return dom.assemblePatch()
}

// activeSlots returns the sorted distinct row indices of m with at least one
// stored nonzero.
func activeSlots(m *CSR) []int {
	var act []int
	for i := 0; i < m.R; i++ {
		if m.RowPtr[i] < m.RowPtr[i+1] {
			act = append(act, i)
		}
	}
	return act
}

// assemblePatch computes the domain's Schur contribution G·D⁻¹·F restricted
// to its active interface rows and columns, 32 panel columns at a time: each
// panel of F columns is solved through the supernodal domain factorization
// (SolvePanelInto — fused SubMulRows kernels), then folded against the
// sparse rows of G with vecops.AddMul.
func (dom *bbdDomain) assemblePatch() error {
	na := len(dom.act)
	if na == 0 || len(dom.actR) == 0 {
		dom.patch = nil
		return nil
	}
	nd := len(dom.nodes)
	dom.patch = make([]float64, len(dom.actR)*na)
	const w = 32
	bp := mat.NewDense(nd, w)
	yp := mat.NewDense(nd, w)
	ps := dom.f.NewPanelScratch(w)
	for c0 := 0; c0 < na; c0 += w {
		c1 := c0 + w
		if c1 > na {
			c1 = na
		}
		cw := c1 - c0
		// Scatter the panel's F columns (zero-padding the last panel keeps
		// the scratch shape fixed; all-zero columns cost only the skip scan).
		for i := range bp.Data() {
			bp.Data()[i] = 0
		}
		for ci := c0; ci < c1; ci++ {
			s := dom.act[ci]
			for p := dom.fiT.RowPtr[s]; p < dom.fiT.RowPtr[s+1]; p++ {
				bp.Row(dom.fiT.ColIdx[p])[ci-c0] = dom.fiT.Val[p]
			}
		}
		if err := dom.f.SolvePanelInto(yp, bp, ps); err != nil {
			return err
		}
		// patch[r, c] += Σ_k g[r,k]·y[k,c], rows in ascending slot order.
		for ri, r := range dom.actR {
			prow := dom.patch[ri*na+c0 : ri*na+c1]
			for p := dom.gi.RowPtr[r]; p < dom.gi.RowPtr[r+1]; p++ {
				vecops.AddMul(prow, yp.Row(dom.gi.ColIdx[p])[:cw], dom.gi.Val[p])
			}
		}
	}
	return nil
}

// N returns the factored dimension.
func (b *BBD) N() int { return b.n }

// Parts returns the number of independent domains.
func (b *BBD) Parts() int { return len(b.doms) }

// IfaceN returns the interface (Schur) dimension.
func (b *BBD) IfaceN() int { return b.ni }

// NNZFactors returns the stored nonzeros across the domain factors plus the
// dense Schur factor.
func (b *BBD) NNZFactors() int {
	nnz := b.ni * b.ni
	for _, dom := range b.doms {
		nnz += dom.f.NNZFactors()
	}
	return nnz
}

// MulAdds returns the multiply-adds of the factorization: each domain's LU,
// its Schur patch (one solve per active interface column and the fold
// against G), and the dense LU of the ni×ni interface.
func (b *BBD) MulAdds() int {
	ops := b.ni * b.ni * b.ni / 3
	for _, dom := range b.doms {
		na := len(dom.act)
		ops += dom.f.MulAdds() + na*(dom.f.NNZFactors()+dom.gi.NNZ())
	}
	return ops
}

// Share returns a view sharing the immutable factors with private solve
// scratch, mirroring Factorization.Share: views on different goroutines can
// solve concurrently, bitwise-identically.
func (b *BBD) Share() *BBD {
	c := &BBD{n: b.n, a: b.a, iface: b.iface, ni: b.ni, schur: b.schur, nloc: b.nloc, workers: b.workers}
	for _, dom := range b.doms {
		c.doms = append(c.doms, &bbdDomain{
			nodes: dom.nodes, f: dom.f.Share(), fi: dom.fi, gi: dom.gi, fiT: dom.fiT,
			act: dom.act, actR: dom.actR, off: dom.off,
		})
	}
	return c
}

// SetWorkers sets the goroutine count of this view's per-domain solve
// phases; w ≤ 0 means GOMAXPROCS. Results are bitwise-identical for every
// value. Callers that already run several views concurrently pass 1.
func (b *BBD) SetWorkers(w int) { b.workers = w }

func (b *BBD) ensureScratch() {
	if b.lb == nil {
		b.lb = make([]float64, b.nloc)
		b.ly = make([]float64, b.nloc)
		b.lt = make([]float64, b.nloc)
		b.iz = make([]float64, b.ni)
		b.derr = make([]error, len(b.doms))
		nr := 0
		for _, dom := range b.doms {
			nr += len(dom.actR)
		}
		gy := make([]float64, nr)
		for _, dom := range b.doms {
			dom.gy, gy = gy[:len(dom.actR)], gy[len(dom.actR):]
		}
	}
}

// Phases of a block solve that run per domain (see domainJob).
const (
	phaseForward = iota // scatter bᵢ, yᵢ = Dᵢ⁻¹·bᵢ, the Gᵢ·yᵢ row dots
	phaseBack           // tᵢ = bᵢ − Fᵢ·z, xᵢ = Dᵢ⁻¹·tᵢ, gathered into x
)

// domainJob is per-domain work — FactorBBD's build or a phase of a block
// solve: domain(p, d) runs phase p for domain d and writes only d's slabs
// and buffers (and d's rows of a solution), so the domains of a phase may
// run in any order on any goroutine.
type domainJob interface {
	domain(p, d int) error
}

// eachDomain runs phase p of job for every domain on up to the view's worker
// count of goroutines, the caller included, recording each domain's error in
// errs (len = domain count). It returns the lowest-indexed domain's error; a
// panicking task becomes its domain's error. No goroutine outlives the call.
func (b *BBD) eachDomain(job domainJob, p int, errs []error) error {
	w := b.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w = min(w, len(b.doms)); w <= 1 {
		for d := range b.doms {
			errs[d] = runDomain(job, p, d)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for g := 1; g < w; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				drainDomains(job, p, errs, &next)
			}()
		}
		drainDomains(job, p, errs, &next)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// drainDomains claims domains from next until none are left.
func drainDomains(job domainJob, p int, errs []error, next *atomic.Int64) {
	for d := int(next.Add(1)) - 1; d < len(errs); d = int(next.Add(1)) - 1 {
		errs[d] = runDomain(job, p, d)
	}
}

// runDomain runs one domain task, turning a panic into an error.
func runDomain(job domainJob, p, d int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sparse: domain %d task panicked: %v", d, r)
		}
	}()
	return job.domain(p, d)
}

// domain is the domain job of SolveInto, on b.jx and b.jb.
func (b *BBD) domain(p, d int) error {
	dom := b.doms[d]
	lo, hi := dom.off, dom.off+len(dom.nodes)
	lb, ly := b.lb[lo:hi], b.ly[lo:hi]
	if p == phaseForward {
		for t, v := range dom.nodes {
			lb[t] = b.jb[v]
		}
		if err := dom.f.SolveInto(ly, lb); err != nil {
			return err
		}
		// MulVecAdd's row sums over the rows that have entries.
		gi := dom.gi
		for ri, r := range dom.actR {
			acc := 0.0
			for q := gi.RowPtr[r]; q < gi.RowPtr[r+1]; q++ {
				acc += gi.Val[q] * ly[gi.ColIdx[q]]
			}
			dom.gy[ri] = acc
		}
		return nil
	}
	lt := b.lt[lo:hi]
	dom.fi.MulVec(b.iz, lt)
	for t := range lt {
		lt[t] = lb[t] - lt[t]
	}
	if err := dom.f.SolveInto(ly, lt); err != nil {
		return err
	}
	for t, v := range dom.nodes {
		b.jx[v] = ly[t]
	}
	return nil
}

// SolveInto solves A·x = b into x (len N() each; x must not alias b),
// reusing scratch kept on the view. Results are bitwise-identical across
// views, worker counts, and repeated calls.
func (b *BBD) SolveInto(x, bv []float64) error {
	if len(x) != b.n || len(bv) != b.n {
		return fmt.Errorf("sparse: BBD SolveInto lengths %d,%d != %d", len(x), len(bv), b.n)
	}
	b.ensureScratch()
	b.jx, b.jb = x, bv
	for t, v := range b.iface {
		b.iz[t] = bv[v]
	}
	// yᵢ = Dᵢ⁻¹·bᵢ per domain; then the interface rhs r = b_S − Σᵢ Gᵢ·yᵢ,
	// folded in ascending domain order. r − acc is r + (−1)·acc exactly,
	// MulVecAdd's arithmetic.
	if err := b.eachDomain(b, phaseForward, b.derr); err != nil {
		return err
	}
	for _, dom := range b.doms {
		for ri, r := range dom.actR {
			b.iz[r] -= dom.gy[ri]
		}
	}
	// z = S⁻¹·r.
	b.schur.Solve(b.iz)
	// xᵢ = Dᵢ⁻¹·(bᵢ − Fᵢ·z) per domain.
	if err := b.eachDomain(b, phaseBack, b.derr); err != nil {
		return err
	}
	for t, v := range b.iface {
		x[v] = b.iz[t]
	}
	return nil
}

// Solve solves A·x = b into a fresh vector without modifying b. It runs
// SolveInto on a private view, so concurrent calls are safe.
func (b *BBD) Solve(bv []float64) ([]float64, error) {
	x := make([]float64, b.n)
	if err := b.Share().SolveInto(x, bv); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveTranspose solves Aᵀ·x = b without modifying b. In the
// dissected ordering Aᵀ swaps the roles of F and G and transposes every
// block, and the Schur complement of Aᵀ is Sᵀ — so the sweep reuses the
// domain factors' transpose solves and the dense factor's transpose
// substitution. It exists for the 1-norm condition estimator.
func (b *BBD) SolveTranspose(bv []float64) ([]float64, error) {
	if len(bv) != b.n {
		return nil, fmt.Errorf("sparse: BBD SolveTranspose length %d != %d", len(bv), b.n)
	}
	b.ensureScratch()
	x := make([]float64, b.n)
	for _, dom := range b.doms {
		lb := b.lb[dom.off : dom.off+len(dom.nodes)]
		for t, v := range dom.nodes {
			lb[t] = bv[v]
		}
	}
	for t, v := range b.iface {
		b.iz[t] = bv[v]
	}
	// yᵢ = Dᵢ⁻ᵀ·bᵢ; r = b_S − Σᵢ Fᵢᵀ·yᵢ.
	for _, dom := range b.doms {
		nd := len(dom.nodes)
		y, err := dom.f.SolveTranspose(b.lb[dom.off : dom.off+nd])
		if err != nil {
			return nil, err
		}
		copy(b.ly[dom.off:dom.off+nd], y)
		mulTAdd(dom.fi, -1, y, b.iz)
	}
	b.schur.SolveTranspose(b.iz)
	// xᵢ = Dᵢ⁻ᵀ·(bᵢ − Gᵢᵀ·z).
	for _, dom := range b.doms {
		nd := len(dom.nodes)
		lt := b.lt[dom.off : dom.off+nd]
		for t := range lt {
			lt[t] = 0
		}
		mulTAdd(dom.gi, 1, b.iz, lt)
		lb := b.lb[dom.off : dom.off+nd]
		for t := range lt {
			lt[t] = lb[t] - lt[t]
		}
		xd, err := dom.f.SolveTranspose(lt)
		if err != nil {
			return nil, err
		}
		for t, v := range dom.nodes {
			x[v] = xd[t]
		}
	}
	for t, v := range b.iface {
		x[v] = b.iz[t]
	}
	return x, nil
}

// mulTAdd accumulates y += s·Aᵀ·x (x over rows of a, y over columns),
// iterating rows then entries in ascending order for determinism.
func mulTAdd(a *CSR, s float64, x, y []float64) {
	for i := 0; i < a.R; i++ {
		xi := s * x[i]
		if isExactZero(xi) {
			continue
		}
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			y[a.ColIdx[p]] += a.Val[p] * xi
		}
	}
}

// Cond1Est estimates κ₁(A) with the Hager iteration the scalar
// factorization uses (cond1Est), driven by the block solves.
func (b *BBD) Cond1Est() float64 {
	return cond1Est(b.a, b.SolveInto, b.SolveTranspose)
}

// BBDPanelScratch owns the per-group working panels of BBD.SolvePanelInto:
// block-local right-hand-side/solution/temp panels per domain, the
// per-domain Gᵢ·Yᵢ rows, and the interface panels. One scratch per
// concurrently solving task, bound to a panel width. The scratch is also the
// panel solve's domain job.
type BBDPanelScratch struct {
	k          int
	db, dy, dt []*mat.Dense // per-domain nd×k panels
	dg         []*mat.Dense // per-domain |actR|×k rows of Gᵢ·Yᵢ
	ds         []*PanelScratch
	iz         *mat.Dense // ni×k interface rhs, solved in place into Z
	errs       []error    // per-domain errors of the solve phases

	b     *BBD       // the view solving, for the current call
	x, bp *mat.Dense // the current call's solution and right-hand side
}

// NewPanelScratch returns scratch for SolvePanelInto calls on panels of
// exactly k right-hand sides.
func (b *BBD) NewPanelScratch(k int) *BBDPanelScratch {
	s := &BBDPanelScratch{
		k:    k,
		iz:   mat.NewDense(b.ni, k),
		errs: make([]error, len(b.doms)),
	}
	for _, dom := range b.doms {
		nd := len(dom.nodes)
		s.db = append(s.db, mat.NewDense(nd, k))
		s.dy = append(s.dy, mat.NewDense(nd, k))
		s.dt = append(s.dt, mat.NewDense(nd, k))
		s.dg = append(s.dg, mat.NewDense(len(dom.actR), k))
		s.ds = append(s.ds, dom.f.NewPanelScratch(k))
	}
	return s
}

// SolvePanelInto solves A·X = B for an n×K panel without modifying b. Every
// step runs the panel twin of the vector sweep — domain panel solves, the
// Gᵢ/Fᵢ panel couplings, and the dense Schur panel solve — so each column of
// x is bitwise-identical to a SolveInto call on the matching column of b. s
// must come from NewPanelScratch(K) on this BBD (or a Share sibling);
// concurrent calls need distinct scratch.
func (b *BBD) SolvePanelInto(x, bp *mat.Dense, s *BBDPanelScratch) error {
	if bp.Rows() != b.n || x.Rows() != b.n || x.Cols() != bp.Cols() {
		return fmt.Errorf("sparse: BBD SolvePanelInto dims %dx%d vs %dx%d (n=%d)",
			x.Rows(), x.Cols(), bp.Rows(), bp.Cols(), b.n)
	}
	if x.Cols() != s.k {
		return fmt.Errorf("sparse: BBD SolvePanelInto scratch is for %d right-hand sides, got %d", s.k, x.Cols())
	}
	s.b, s.x, s.bp = b, x, bp
	for t, v := range b.iface {
		copy(s.iz.Row(t), bp.Row(v))
	}
	// Yᵢ = Dᵢ⁻¹·Bᵢ per domain; R = B_S − Σᵢ Gᵢ·Yᵢ folded in ascending domain
	// order, per column MulVecAdd's arithmetic.
	if err := b.eachDomain(s, phaseForward, s.errs); err != nil {
		return err
	}
	for d, dom := range b.doms {
		for ri, r := range dom.actR {
			vecops.AddMul(s.iz.Row(r), s.dg[d].Row(ri), -1)
		}
	}
	// Z = S⁻¹·R: per column bitwise the vector path's Schur solve.
	b.schur.SolveMatrixInto(s.iz, s.iz)
	// Xᵢ = Dᵢ⁻¹·(Bᵢ − Fᵢ·Z) per domain.
	if err := b.eachDomain(s, phaseBack, s.errs); err != nil {
		return err
	}
	for t, v := range b.iface {
		copy(x.Row(v), s.iz.Row(t))
	}
	return nil
}

func (s *BBDPanelScratch) domain(p, d int) error {
	dom := s.b.doms[d]
	db, dy := s.db[d], s.dy[d]
	if p == phaseForward {
		for t, v := range dom.nodes {
			copy(db.Row(t), s.bp.Row(v))
		}
		if err := dom.f.SolvePanelInto(dy, db, s.ds[d]); err != nil {
			return err
		}
		// MulPanelAdd's per-row accumulators over the rows that have entries.
		gi := dom.gi
		for ri, r := range dom.actR {
			acc := s.dg[d].Row(ri)
			for t := range acc {
				acc[t] = 0
			}
			for q := gi.RowPtr[r]; q < gi.RowPtr[r+1]; q++ {
				vecops.AddMul(acc, dy.Row(gi.ColIdx[q]), gi.Val[q])
			}
		}
		return nil
	}
	dt := s.dt[d]
	dom.fi.MulPanelInto(dt, s.iz)
	td, bd := dt.Data(), db.Data()
	for i, v := range td {
		td[i] = bd[i] - v
	}
	if err := dom.f.SolvePanelInto(dy, dt, s.ds[d]); err != nil {
		return err
	}
	for t, v := range dom.nodes {
		copy(s.x.Row(v), dy.Row(t))
	}
	return nil
}
