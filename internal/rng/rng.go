// Package rng provides deterministic, splittable pseudo-random number
// streams together with the distribution samplers needed by the rest of
// the library (normal, log-normal, gamma, Student-t, exponential).
//
// Every stochastic component of the system (profiler noise, particle
// filter, candidate sampling, ...) owns its own named stream derived from
// a single experiment seed, so that experiments are reproducible
// regardless of the order in which components consume randomness.
//
// The generator is PCG XSL-RR 128/64 (O'Neill, 2014) implemented from
// scratch on top of math/bits 128-bit arithmetic. Distinct streams use
// distinct odd increments, which PCG guarantees produce uncorrelated
// sequences for the same seed.
package rng

import (
	"hash/fnv"
	"math"
	"math/bits"
)

// Stream is a deterministic pseudo-random number generator. It is not
// safe for concurrent use; split one stream per goroutine instead.
type Stream struct {
	hi, lo    uint64 // 128-bit LCG state
	incHi     uint64 // 128-bit odd increment (stream selector)
	incLo     uint64
	haveSpare bool // cached second normal variate (polar method)
	spare     float64
}

const (
	mulHi = 2549297995355413924
	mulLo = 4865540595714422341
)

// New returns a stream seeded with seed on the default stream.
func New(seed uint64) *Stream {
	return NewStream(seed, 0xda3e39cb94b95bdb)
}

// NewStream returns a stream seeded with seed on the given stream
// selector. Streams with different selectors are statistically
// independent even for identical seeds.
func NewStream(seed, stream uint64) *Stream {
	s := &Stream{}
	s.Reset(seed, stream)
	return s
}

// Reset reseeds s in place to the start of NewStream(seed, stream),
// spare normal cleared. A Stream declared as a local and Reset stays
// off the heap, which per-call streams on hot paths rely on.
func (s *Stream) Reset(seed, stream uint64) {
	// The increment must be odd; fold the selector into both halves.
	s.incHi = splitmix(stream)
	s.incLo = splitmix(stream+0x9e3779b97f4a7c15) | 1
	s.hi = 0
	s.lo = 0
	s.haveSpare = false
	s.spare = 0
	s.step()
	s.addSeed(splitmix(seed), splitmix(seed^0xbf58476d1ce4e5b9))
	s.step()
}

// Split derives an independent child stream identified by name. Children
// with distinct names are independent of each other and of the parent.
// Splitting does not consume randomness from the parent.
func (s *Stream) Split(name string) *Stream {
	h := fnv.New64a()
	// The parent's increment identifies its position in the stream tree.
	var buf [16]byte
	putUint64(buf[0:8], s.incHi)
	putUint64(buf[8:16], s.incLo)
	h.Write(buf[:])
	h.Write([]byte(name))
	child := NewStream(s.hi^s.lo, h.Sum64())
	return child
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (s *Stream) addSeed(hi, lo uint64) {
	var carry uint64
	s.lo, carry = bits.Add64(s.lo, lo, 0)
	s.hi, _ = bits.Add64(s.hi, hi, carry)
}

// step advances the 128-bit LCG state.
func (s *Stream) step() {
	// state = state*mul + inc (mod 2^128)
	hi, lo := bits.Mul64(s.lo, mulLo)
	hi += s.hi*mulLo + s.lo*mulHi
	var carry uint64
	lo, carry = bits.Add64(lo, s.incLo, 0)
	hi, _ = bits.Add64(hi, s.incHi, carry)
	s.hi, s.lo = hi, lo
}

// Uint64 returns a uniformly distributed 64-bit value.
func (s *Stream) Uint64() uint64 {
	s.step()
	// XSL-RR output function: xor-shift-low, random rotate.
	xored := s.hi ^ s.lo
	rot := uint(s.hi >> 58)
	return bits.RotateLeft64(xored, -int(rot))
}

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method, unbiased.
	un := uint64(n)
	x := s.Uint64()
	hi, lo := bits.Mul64(x, un)
	if lo < un {
		threshold := -un % un
		for lo < threshold {
			x = s.Uint64()
			hi, lo = bits.Mul64(x, un)
		}
	}
	return int(hi)
}

// Int63 returns a uniform non-negative int64.
func (s *Stream) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct indices drawn uniformly from [0, n) in
// selection order. It panics if k > n or k < 0.
func (s *Stream) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample with k out of range")
	}
	if k == 0 {
		return nil
	}
	// Floyd's algorithm: O(k) memory, no O(n) permutation.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := s.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	// Floyd yields a uniform set but a biased order; shuffle the order.
	s.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Norm returns a standard normal variate (Marsaglia polar method).
func (s *Stream) Norm() float64 {
	if s.haveSpare {
		s.haveSpare = false
		return s.spare
	}
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(q) / q)
		s.spare = v * f
		s.haveSpare = true
		return u * f
	}
}

// NormMS returns a normal variate with the given mean and standard
// deviation.
func (s *Stream) NormMS(mean, stddev float64) float64 {
	return mean + stddev*s.Norm()
}

// LogNormal returns exp(N(mu, sigma^2)).
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.Norm())
}

// Exp returns an exponential variate with the given rate (lambda).
func (s *Stream) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	for {
		u := s.Float64()
		if u > 0 {
			return -math.Log(u) / rate
		}
	}
}

// Gamma returns a Gamma(shape, scale) variate using the Marsaglia-Tsang
// squeeze method (with Johnk-style boost for shape < 1).
func (s *Stream) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Gamma with non-positive parameter")
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a)
		u := s.Float64()
		for u == 0 {
			u = s.Float64()
		}
		return s.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := s.Norm()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := s.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// ChiSquared returns a chi-squared variate with df degrees of freedom.
func (s *Stream) ChiSquared(df float64) float64 {
	return s.Gamma(df/2, 2)
}

// StudentT returns a Student-t variate with df degrees of freedom.
func (s *Stream) StudentT(df float64) float64 {
	if df <= 0 {
		panic("rng: StudentT with non-positive df")
	}
	z := s.Norm()
	w := s.ChiSquared(df)
	return z / math.Sqrt(w/df)
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool {
	return s.Float64() < p
}

// Categorical samples an index proportionally to the (non-negative,
// not necessarily normalised) weights. It panics if the weights are all
// zero or any is negative or NaN.
func (s *Stream) Categorical(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("rng: Categorical with negative or NaN weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: Categorical with zero total weight")
	}
	u := s.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1 // floating-point slack
}

// State captures the stream's exact position as six words: LCG state
// (hi, lo), increment (hi, lo), the spare-normal flag, and the spare
// normal's bit pattern. Together with SetState it lets snapshots
// preserve draw sequences bit-exactly, including a cached polar-method
// variate that would otherwise be lost.
func (s *Stream) State() [6]uint64 {
	var spare uint64
	if s.haveSpare {
		spare = math.Float64bits(s.spare)
	}
	flag := uint64(0)
	if s.haveSpare {
		flag = 1
	}
	return [6]uint64{s.hi, s.lo, s.incHi, s.incLo, flag, spare}
}

// SetState restores a position previously captured with State. The
// stream then produces exactly the sequence the captured stream would
// have produced.
func (s *Stream) SetState(st [6]uint64) {
	s.hi, s.lo = st[0], st[1]
	s.incHi, s.incLo = st[2], st[3]
	s.haveSpare = st[4] != 0
	if s.haveSpare {
		s.spare = math.Float64frombits(st[5])
	} else {
		s.spare = 0
	}
}
