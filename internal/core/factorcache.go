package core

import (
	"container/list"
	"math"
	"sync"

	"opmsim/internal/sparse"
)

// DefaultFactorCacheCap is the entry capacity NewFactorCache uses when the
// caller passes a non-positive capacity. Sixteen covers the step-size ladder
// of an adaptive run (maxStepRetries halvings plus the controller's usual
// working set) and typical sweep cardinalities without hoarding factor memory.
const DefaultFactorCacheCap = 16

// FactorCache is a process-shareable LRU cache of leading-pencil
// factorizations, keyed by the *contents* of the assembled pencil (an FNV-1a
// fingerprint over the CSR structure and Float64bits of the values) together
// with the step size h, the dominant fractional order α, and whether the
// supernodal tier is engaged — the one Options decision that steers the
// factorization tier chain. Keying by contents rather than identity means
// mutating a matrix in place and re-solving can never return the stale
// factorization — the fingerprint changes with the values — while
// re-assembling an identical pencil (a repeated sweep point, an adaptive
// halved-h retry revisiting a step size, the K scenarios of a batch) hits.
//
// Cached entries are templates: every request is served through a fresh
// per-run view (sparse.Factorization.Share) whose solve scratch is private,
// so runs on different goroutines can solve through the same cached factors
// concurrently. The factor arrays themselves are immutable after
// construction. A cache attached to Options.FactorCache is consulted by
// Solve, SolveAdaptive, SolveAdaptiveAuto, and SolveBatch; hit/miss counts
// are mirrored into each run's SolveReport.
type FactorCache struct {
	mu         sync.Mutex
	cap        int
	order      *list.List // front = most recently used; values are *factorEntry
	byKey      map[factorKey]*list.Element
	hits       int
	updateHits int
	misses     int
}

// factorKey identifies one factorization-equivalent pencil configuration.
// Floats are stored as bit patterns so key equality is exact bit equality
// (and NaN-proof), mirroring the bitwise-determinism contract of the solvers.
type factorKey struct {
	fp        uint64 // content fingerprint of the assembled pencil
	n, nnz    int
	hBits     uint64 // step size h
	alphaBits uint64 // dominant fractional order α
	// Supernodal-tier engagement changes which tier factors, so two
	// configurations differing here must not share an entry; two that
	// resolve alike build the same factorization and do share one.
	supernodal bool
}

// factorEntry couples the cached view with the fallback record to replay
// into the report of every run the entry serves, so a hit still documents
// which tier is solving.
type factorEntry struct {
	key      factorKey
	pf       *pencilFactor // never solved through, so its scratch stays nil
	fallback *Fallback     // non-nil when the factorization sits below sparse LU
}

// NewFactorCache returns an empty cache holding at most capacity
// factorizations (DefaultFactorCacheCap when capacity ≤ 0).
func NewFactorCache(capacity int) *FactorCache {
	if capacity <= 0 {
		capacity = DefaultFactorCacheCap
	}
	return &FactorCache{cap: capacity, order: list.New(), byKey: map[factorKey]*list.Element{}}
}

// Stats returns the cumulative counts of the three ways a factorization
// request was served: hits (a cached pencil factorization reused as-is),
// updateHits (a cached base factorization reused through the SMW UpdatedSolve
// tier — a low-rank Woodbury correction instead of a refactorization), and
// misses (a fresh factorization built and cached).
func (c *FactorCache) Stats() (hits, updateHits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.updateHits, c.misses
}

// noteUpdateHit counts one scenario served through the SMW update tier
// against a cached base factorization.
func (c *FactorCache) noteUpdateHit() {
	c.mu.Lock()
	c.updateHits++
	c.mu.Unlock()
}

// Len returns the number of cached factorizations.
func (c *FactorCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// lookup returns the entry for key (promoting it to most recently used) or
// nil, counting the hit or miss.
func (c *FactorCache) lookup(key factorKey) *factorEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.hits++
		c.order.MoveToFront(el)
		return el.Value.(*factorEntry)
	}
	c.misses++
	return nil
}

// store inserts (or refreshes) an entry, evicting from the LRU tail beyond
// capacity.
func (c *FactorCache) store(e *factorEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[e.key]; ok {
		el.Value = e
		c.order.MoveToFront(el)
		return
	}
	c.byKey[e.key] = c.order.PushFront(e)
	for c.order.Len() > c.cap {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.byKey, back.Value.(*factorEntry).key)
	}
}

// fingerprintCSR folds the full contents of a — dimensions, row structure,
// column indices, and the exact bit patterns of the values — into a 64-bit
// FNV-1a hash. O(nnz) per call, which is noise next to a factorization.
func fingerprintCSR(a *sparse.CSR) uint64 {
	h := fpMix64(uint64(14695981039346656037), uint64(a.R))
	h = fpMix64(h, uint64(a.C))
	for _, p := range a.RowPtr {
		h = fpMix64(h, uint64(p))
	}
	for _, ci := range a.ColIdx {
		h = fpMix64(h, uint64(ci))
	}
	for _, v := range a.Val {
		h = fpMix64(h, math.Float64bits(v))
	}
	return h
}

// fpMix64 folds one 64-bit word into an FNV-1a accumulator, low byte first.
func fpMix64(h, v uint64) uint64 {
	const prime = 1099511628211
	for b := 0; b < 8; b++ {
		h ^= (v >> (8 * b)) & 0xff
		h *= prime
	}
	return h
}

// cacheKey builds the lookup key for pencil a under the given step size,
// dominant order, and factorization-relevant options.
func cacheKey(a *sparse.CSR, h, alpha float64, opt *Options) factorKey {
	return factorKey{
		fp:         fingerprintCSR(a),
		n:          a.R,
		nnz:        a.NNZ(),
		hBits:      math.Float64bits(h),
		alphaBits:  math.Float64bits(alpha),
		supernodal: supernodalEngaged(a.R, opt),
	}
}

// instantiate returns a view of pf: shared immutable factors, private solve
// scratch (the sparse factorizations are detached via Share), and workers
// goroutines for the supernodal tier's per-domain solve phases (see
// setSolveWorkers). Solves through a view are bitwise-identical to solves
// through pf. The cache stores views that are never solved through, so their
// lazily-sized scratch stays nil and concurrent Share calls from cache hits
// are race-free.
func (pf *pencilFactor) instantiate(workers int) *pencilFactor {
	inst := &pencilFactor{tier: pf.tier, dense: pf.dense, qr: pf.qr, a: pf.a, cond: pf.cond}
	if pf.sp != nil {
		inst.sp = pf.sp.Share()
	}
	if pf.bbd != nil {
		inst.bbd = pf.bbd.Share()
	}
	inst.setSolveWorkers(workers)
	return inst
}

// setSolveWorkers sets the goroutine count of the supernodal tier's
// per-domain solve phases (≤ 0: GOMAXPROCS); other tiers solve serially.
// Like the group's history engine, a factorization solved inside one of
// several concurrent group tasks takes 1. No value changes a result bit.
func (pf *pencilFactor) setSolveWorkers(workers int) {
	if pf.bbd != nil {
		pf.bbd.SetWorkers(workers)
	}
}

// factorPencilCached is factorPencil behind Options.FactorCache: a hit reuses
// the cached factorization through a fresh view (replaying its fallback
// record and condition estimate into this run's report); a miss factors,
// serves, and caches a view. With no cache attached — or with
// factorization fault injection active, whose per-call hooks a cached entry
// would bypass — it degrades to plain factorPencil.
func factorPencilCached(a *sparse.CSR, h, alpha float64, col int, t float64, opt *Options, rep *SolveReport) (*pencilFactor, error) {
	c := opt.FactorCache
	if c == nil || (opt.Fault != nil && opt.Fault.FactorFail != nil) {
		return factorPencil(a, col, t, opt, rep)
	}
	key := cacheKey(a, h, alpha, opt)
	if e := c.lookup(key); e != nil {
		rep.FactorCacheHits++
		rep.observeCond(e.pf.cond)
		if e.fallback != nil {
			fb := *e.fallback
			fb.Column = col
			rep.Fallbacks = append(rep.Fallbacks, fb)
		}
		return e.pf.instantiate(opt.Workers), nil
	}
	rep.FactorCacheMisses++
	pf, err := factorPencil(a, col, t, opt, rep)
	if err != nil {
		return nil, err
	}
	e := &factorEntry{key: key, pf: pf.instantiate(opt.Workers)}
	if pf.tier != TierSparseLU && len(rep.Fallbacks) > 0 {
		fb := rep.Fallbacks[len(rep.Fallbacks)-1]
		fb.Reason += " (cached)"
		e.fallback = &fb
	}
	c.store(e)
	return pf, nil
}
