package fft

//lint:hot

import (
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// A Plan holds the precomputed tables for transforms of one fixed length n:
// the bit-reversal permutation and stage-contiguous twiddle tables of the
// iterative radix-2 kernels for powers of two, the chirp and padded-kernel
// spectrum of Bluestein's algorithm otherwise, and for even n the half-length sub-plan
// driving the packed real transforms. Plans are immutable after construction
// and safe for concurrent use; PlanFor caches one per size for the life of
// the process, which is what makes the history engine's repeated
// same-size transforms cheap.
type Plan struct {
	n    int
	pow2 bool

	// Radix-2 tables (power-of-two lengths). The twiddles are stored stage
	// by stage: the butterflies of span 2h read fwd[h−1 : 2h−1], whose k-th
	// entry is exp(−2πi·k/2h) — the value tw[k·n/2h] of the single table
	// tw[k] = exp(−2πi·k/n) — so every stage streams one contiguous run;
	// inv holds the conjugates for the inverse direction.
	perm []int32 // bit-reversal permutation
	fwd  []complex128
	inv  []complex128

	// Bluestein tables (other lengths).
	chirp []complex128 // chirp[k] = exp(−πi·k²/n), k < n
	bspec []complex128 // forward FFT of the padded conj-chirp kernel
	sub   *Plan        // power-of-two convolution plan, size ≥ 2n−1

	// Packed-real tables (even lengths).
	half *Plan        // complex plan of length n/2
	rtw  []complex128 // rtw[k] = exp(−2πi·k/n), k ≤ n/2
}

var planCache sync.Map // int → *Plan

// PlanFor returns the cached transform plan for length n, building it on
// first use. Lengths ≤ 1 yield a trivial plan whose transforms are no-ops.
func PlanFor(n int) *Plan {
	if v, ok := planCache.Load(n); ok {
		return v.(*Plan)
	}
	v, _ := planCache.LoadOrStore(n, newPlan(n))
	return v.(*Plan)
}

func newPlan(n int) *Plan {
	p := &Plan{n: n}
	switch {
	case n <= 1:
		p.pow2 = true
	case n&(n-1) == 0:
		p.pow2 = true
		shift := 64 - uint(bits.TrailingZeros(uint(n)))
		p.perm = make([]int32, n)
		for i := 0; i < n; i++ {
			p.perm[i] = int32(bits.Reverse64(uint64(i)) >> shift)
		}
		tw := make([]complex128, n/2)
		for k := range tw {
			tw[k] = cmplx.Rect(1, -2*math.Pi*float64(k)/float64(n))
		}
		p.fwd = make([]complex128, n-1)
		p.inv = make([]complex128, n-1)
		for h := 1; h < n; h <<= 1 {
			stride := n / (2 * h)
			for k := 0; k < h; k++ {
				w := tw[k*stride]
				p.fwd[h-1+k] = w
				p.inv[h-1+k] = complex(real(w), -imag(w))
			}
		}
	default:
		// Chirp exponent k² reduced mod 2n to avoid precision loss at large k.
		p.chirp = make([]complex128, n)
		for k := 0; k < n; k++ {
			kk := (int64(k) * int64(k)) % int64(2*n)
			p.chirp[k] = cmplx.Rect(1, -math.Pi*float64(kk)/float64(n))
		}
		m := 1
		for m < 2*n-1 {
			m <<= 1
		}
		p.sub = PlanFor(m)
		b := make([]complex128, m)
		for k := 0; k < n; k++ {
			b[k] = cmplx.Conj(p.chirp[k])
		}
		for k := 1; k < n; k++ {
			b[m-k] = cmplx.Conj(p.chirp[k])
		}
		p.sub.radix2(b, false)
		p.bspec = b
	}
	if n >= 2 && n%2 == 0 {
		p.half = PlanFor(n / 2)
		p.rtw = make([]complex128, n/2+1)
		for k := range p.rtw {
			p.rtw[k] = cmplx.Rect(1, -2*math.Pi*float64(k)/float64(n))
		}
	}
	return p
}

// N returns the transform length the plan was built for.
func (p *Plan) N() int { return p.n }

// Forward replaces x (length N()) with its DFT,
// X[k] = Σ_t x[t]·exp(−2πi·kt/N).
func (p *Plan) Forward(x []complex128) { p.transform(x, false) }

// Inverse replaces x with its inverse DFT, normalized by 1/N so that
// Inverse(Forward(x)) = x.
func (p *Plan) Inverse(x []complex128) {
	p.transform(x, true)
	inv := complex(1/float64(p.n), 0)
	for i := range x {
		x[i] *= inv
	}
}

// transform is the in-place transform in either direction, unnormalized (the
// inverse omits the 1/N factor, matching the internal convolution uses).
func (p *Plan) transform(x []complex128, inverse bool) {
	switch {
	case p.n <= 1:
	case p.pow2:
		p.radix2(x, inverse)
	case inverse:
		// Unnormalized IDFT(x) = conj(DFT(conj(x))).
		for i := range x {
			x[i] = cmplx.Conj(x[i])
		}
		p.bluestein(x)
		for i := range x {
			x[i] = cmplx.Conj(x[i])
		}
	default:
		p.bluestein(x)
	}
}

// radix2 is the table-driven iterative Cooley–Tukey kernel: the bit-reversal
// permutation followed by the decimation-in-time stages.
func (p *Plan) radix2(x []complex128, inverse bool) {
	x = x[:p.n]
	for i, j := range p.perm {
		if int(j) > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	if inverse {
		ditStages(x, p.inv, 1)
	} else {
		ditStages(x, p.fwd, 1)
	}
}

// ditStages runs the radix-2 decimation-in-time butterflies of half-span
// h0, 2h0, …, n/2 over x; from h0 = 1 that takes a bit-reversed input to
// its transform in natural order. tws is a stage-contiguous twiddle table
// (Plan.fwd or Plan.inv).
func ditStages(x, tws []complex128, h0 int) {
	for h := h0; h < len(x); h <<= 1 {
		ditStage(x, tws[h-1:2*h-1], h)
	}
}

// difStages runs the radix-2 decimation-in-frequency butterflies of
// half-span h0, h0/2, …, h1 over x; from h0 = n/2 down to h1 = 1 that takes
// a natural-order input to its transform in bit-reversed order.
func difStages(x, tws []complex128, h0, h1 int) {
	for h := h0; h >= h1; h >>= 1 {
		difStage(x, tws[h-1:2*h-1], h)
	}
}

// The loops below are the reference kernels: the portable build runs them,
// and the amd64 AVX kernels (kernels_amd64.s) perform exactly their IEEE
// operations, lane by lane, so both give the same bits (see kernels.go).

// ditStageGo runs one decimation-in-time stage of half-span h over x, with
// w the stage's h twiddles.
func ditStageGo(x, w []complex128, h int) {
	for s := 0; s < len(x); s += 2 * h {
		lo := x[s : s+h]
		hi := x[s+h : s+2*h]
		hi = hi[:len(lo)]
		w := w[:len(lo)]
		for k := range lo {
			a := lo[k]
			b := hi[k] * w[k]
			lo[k] = a + b
			hi[k] = a - b
		}
	}
}

// difStageGo runs one decimation-in-frequency stage of half-span h over x,
// with w the stage's h twiddles.
func difStageGo(x, w []complex128, h int) {
	for s := 0; s < len(x); s += 2 * h {
		lo := x[s : s+h]
		hi := x[s+h : s+2*h]
		hi = hi[:len(lo)]
		w := w[:len(lo)]
		for k := range lo {
			a, b := lo[k], hi[k]
			lo[k] = a + b
			hi[k] = (a - b) * w[k]
		}
	}
}

// mulGo sets dst[k] = a[k]·w[k] for k < len(dst).
func mulGo(dst, a, w []complex128) {
	a = a[:len(dst)]
	w = w[:len(dst)]
	for k := range dst {
		dst[k] = a[k] * w[k]
	}
}

// convMiddleGo does, one aligned block of four samples at a time, the two
// last DIF stages (half-span 2, then 1), the product with spec, and the two
// first inverse DIT stages (half-span 1, then 2). None of them reaches
// outside the block, so one pass over x replaces five. The span-4 twiddles
// are exactly −i forward and +i inverse, applied as swaps.
func convMiddleGo(x, spec []complex128) {
	spec = spec[:len(x)]
	for s := 0; s+3 < len(x); s += 4 {
		b := x[s : s+4 : s+4]
		k := spec[s : s+4 : s+4]
		y0, y1 := b[0]+b[2], b[1]+b[3]
		y2, d := b[0]-b[2], b[1]-b[3]
		y3 := complex(imag(d), -real(d)) // d·(−i)
		z0 := (y0 + y1) * k[0]
		z1 := (y0 - y1) * k[1]
		z2 := (y2 + y3) * k[2]
		z3 := (y2 - y3) * k[3]
		u0, u1 := z0+z1, z0-z1
		u2, e := z2+z3, z2-z3
		v := complex(-imag(e), real(e)) // e·i
		b[0], b[2] = u0+u2, u0-u2
		b[1], b[3] = u1+v, u1-v
	}
}

// scalePartsGo multiplies the real parts of z by sr and the imaginary parts
// by si.
func scalePartsGo(z []complex128, sr, si float64) {
	for p, v := range z {
		z[p] = complex(real(v)*sr, imag(v)*si)
	}
}

// addRealGo adds real(z[r])·u into dst[r] for r < len(dst).
func addRealGo(dst []float64, z []complex128, u float64) {
	z = z[:len(dst)]
	for r, v := range z {
		dst[r] += real(v) * u
	}
}

// addImagGo adds imag(z[r])·u into dst[r] for r < len(dst).
func addImagGo(dst []float64, z []complex128, u float64) {
	z = z[:len(dst)]
	for r, v := range z {
		dst[r] += imag(v) * u
	}
}

// ForwardDIF replaces x (natural order, length N(), a power of two) with its
// DFT in bit-reversed order, the order Convolve takes its kernel spectrum
// in. It panics on a non-power-of-two plan.
func (p *Plan) ForwardDIF(x []complex128) {
	p.mustPow2("ForwardDIF")
	difStages(x[:p.n], p.fwd, p.n/2, 1)
}

// Convolve replaces x (natural order, length N(), a power of two ≥ 8) with
// the unnormalized circular convolution N·IDFT(DFT(x)·S), where spec holds S
// in the bit-reversed order ForwardDIF leaves. x[N/2:] is zero padding: those
// samples are never read, so the first forward stage collapses to one
// twiddle multiply per butterfly. No bit-reversal pass runs: the
// decimation-in-frequency forward transform meets spec in its own order,
// and the decimation-in-time inverse takes that order back to natural. It
// panics on a non-power-of-two plan or N < 8.
func (p *Plan) Convolve(x, spec []complex128) {
	p.mustPow2("Convolve")
	n := p.n
	if n < 8 {
		panic("fft: Convolve needs a length of at least 8")
	}
	x, spec = x[:n], spec[:n]
	h := n / 2
	mul(x[h:], x[:h], p.fwd[h-1:2*h-1])
	difStages(x, p.fwd, h/2, 4)
	convMiddle(x, spec)
	ditStages(x, p.inv, 4)
}

func (p *Plan) mustPow2(op string) {
	if !p.pow2 {
		panic("fft: " + op + " needs a power-of-two length")
	}
}

// bluestein evaluates the forward DFT of arbitrary length as a power-of-two
// circular convolution against the cached chirp (chirp-z transform).
func (p *Plan) bluestein(x []complex128) {
	n, m := p.n, p.sub.n
	a := GetComplex(m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * p.chirp[k]
	}
	for k := n; k < m; k++ {
		a[k] = 0
	}
	p.sub.radix2(a, false)
	for i, bv := range p.bspec {
		a[i] *= bv
	}
	p.sub.radix2(a, true)
	inv := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		x[k] = a[k] * inv * p.chirp[k]
	}
	PutComplex(a)
}

// RealForward computes the non-redundant half spectrum of the real sequence
// x (length N()) into dst (length N()/2+1, not aliasing x):
// dst[k] = Σ_t x[t]·exp(−2πi·kt/N) for k = 0..N/2. Even lengths run one
// complex transform of half the size on the packed sequence
// z[t] = x[2t] + i·x[2t+1]; odd lengths fall back to a full complex
// transform.
func (p *Plan) RealForward(dst []complex128, x []float64) {
	n := p.n
	if n == 0 {
		return
	}
	if n == 1 {
		dst[0] = complex(x[0], 0)
		return
	}
	if p.half == nil { // odd length
		buf := GetComplex(n)
		for i, v := range x {
			buf[i] = complex(v, 0)
		}
		p.transform(buf, false)
		copy(dst, buf[:n/2+1])
		PutComplex(buf)
		return
	}
	h := n / 2
	z := GetComplex(h)
	for k := 0; k < h; k++ {
		z[k] = complex(x[2*k], x[2*k+1])
	}
	p.half.transform(z, false)
	// Unpack: with E/O the half-length DFTs of the even/odd subsequences,
	// E[k] = (Z[k]+conj(Z[h−k]))/2, O[k] = (Z[k]−conj(Z[h−k]))/(2i), and
	// X[k] = E[k] + w^k·O[k].
	for k := 0; k <= h; k++ {
		zk := z[k%h]
		zc := cmplx.Conj(z[(h-k)%h])
		even := halve(zk + zc)
		odd := halveOverI(zk - zc)
		dst[k] = even + p.rtw[k]*odd
	}
	PutComplex(z)
}

// RealInverse recovers a real sequence from its half spectrum: given
// spec[k] = X[k] for k = 0..N/2 (the Hermitian-redundancy-free half, not
// aliasing dst), it writes the normalized length-N inverse DFT into dst.
// RealInverse(y, RealForward(s, x)) restores x up to roundoff.
func (p *Plan) RealInverse(dst []float64, spec []complex128) {
	n := p.n
	if n == 0 {
		return
	}
	if n == 1 {
		dst[0] = real(spec[0])
		return
	}
	if p.half == nil { // odd length: rebuild the full Hermitian spectrum
		buf := GetComplex(n)
		copy(buf, spec[:n/2+1])
		for k := n/2 + 1; k < n; k++ {
			buf[k] = cmplx.Conj(spec[n-k])
		}
		p.transform(buf, true)
		inv := 1 / float64(n)
		for i := range dst {
			dst[i] = real(buf[i]) * inv
		}
		PutComplex(buf)
		return
	}
	// Repack: E[k] = (S[k]+conj(S[h−k]))/2, O[k] = (S[k]−conj(S[h−k]))/2·w^{−k},
	// Z[k] = E[k] + i·O[k]; the half-length inverse then interleaves back as
	// z[t] = x[2t] + i·x[2t+1].
	h := n / 2
	z := GetComplex(h)
	for k := 0; k < h; k++ {
		sk := spec[k]
		sc := cmplx.Conj(spec[h-k])
		even := halve(sk + sc)
		odd := halve(sk-sc) * cmplx.Conj(p.rtw[k])
		z[k] = even + odd*complex(0, 1)
	}
	p.half.transform(z, true)
	inv := 1 / float64(h)
	for k := 0; k < h; k++ {
		dst[2*k] = real(z[k]) * inv
		dst[2*k+1] = imag(z[k]) * inv
	}
	PutComplex(z)
}

// halve returns c/2 without a runtime complex division: for finite c it
// has the bits of c/2 up to the sign of an exact-zero part.
func halve(c complex128) complex128 { return complex(real(c)*0.5, imag(c)*0.5) }

// halveOverI returns c/(2i) as a swap-and-negate times 0.5, with the bits
// of the complex division for finite c up to the sign of an exact-zero part.
func halveOverI(c complex128) complex128 { return complex(imag(c)*0.5, -real(c)*0.5) }

// Scratch pools shared by all transform sizes. GetComplex/GetFloat return a
// slice of exactly the requested length with arbitrary contents;
// PutComplex/PutFloat recycle it. They keep the history engine's per-row
// convolutions allocation-free in steady state.
var (
	complexPool sync.Pool
	floatPool   sync.Pool
)

// GetComplex returns a pooled []complex128 of length n (contents arbitrary).
func GetComplex(n int) []complex128 {
	//lint:ignore poolput ownership transfers to the caller; PutComplex returns the buffer
	if v := complexPool.Get(); v != nil {
		if s := v.([]complex128); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]complex128, n)
}

// PutComplex returns a slice obtained from GetComplex to the pool.
func PutComplex(s []complex128) {
	if cap(s) > 0 {
		complexPool.Put(s[:cap(s)]) //nolint:staticcheck // slice reuse is the point
	}
}

// GetFloat returns a pooled []float64 of length n (contents arbitrary).
func GetFloat(n int) []float64 {
	//lint:ignore poolput ownership transfers to the caller; PutFloat returns the buffer
	if v := floatPool.Get(); v != nil {
		if s := v.([]float64); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]float64, n)
}

// PutFloat returns a slice obtained from GetFloat to the pool.
func PutFloat(s []float64) {
	if cap(s) > 0 {
		floatPool.Put(s[:cap(s)]) //nolint:staticcheck // slice reuse is the point
	}
}
