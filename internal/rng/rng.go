// Package rng provides deterministic, stream-splittable pseudo-randomness
// for the simulator.
//
// Every stochastic component in the study draws from its own RNG stream,
// derived from a parent seed and a string label. Splitting streams by label
// rather than sharing a single source keeps results bit-reproducible even
// when components are added, removed, or reordered: adding a new consumer
// never perturbs the draws seen by existing ones.
//
// The generator is xoshiro256**, seeded through SplitMix64, matching the
// construction recommended by its authors. It is not cryptographically
// secure and must never be used for security purposes; the simulator only
// needs statistical quality and speed.
package rng

import (
	"hash/fnv"
	"math"
)

// RNG is a single xoshiro256** stream. It is NOT safe for concurrent use;
// give each goroutine its own stream via Split.
type RNG struct {
	s       [4]uint64
	lineage uint64 // seed material, fixed at construction, used by Split
}

// New returns a stream seeded from seed. Two RNGs built from the same seed
// produce identical sequences.
func New(seed uint64) *RNG {
	r := seeded(seed)
	return &r
}

// seeded is New by value.
func seeded(seed uint64) RNG {
	r := RNG{lineage: seed}
	// SplitMix64 expansion of the seed into 256 bits of state, per the
	// xoshiro reference implementation.
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro's state must not be all zero; SplitMix64 of any seed cannot
	// produce that, so no further check is needed.
	return r
}

// Split derives an independent child stream identified by label. The child
// depends only on the parent's seed material and the label, not on how many
// values the parent has produced, so consumers can split in any order.
func (r *RNG) Split(label string) *RNG {
	h := fnv.New64a()
	h.Write([]byte(label))
	// Mix the label hash with the parent's construction-time seed so the
	// child is a pure function of (parent seed, label), unaffected by how
	// many values the parent has already produced.
	return New(h.Sum64() ^ (r.lineage * 0x9e3779b97f4a7c15))
}

// Fork derives an independent child stream identified by an integer id —
// the per-actor analogue of Split. The child is a pure function of
// (parent seed, id): it does not depend on how many values the parent has
// produced, on how many siblings were forked, or on the order forks
// happen in. This is the contract stepping relies on: every actor draws
// from its own Fork(actorID) stream, so which other actors plan in the
// same section, and in what order, can never change the numbers any
// actor sees.
func (r *RNG) Fork(id uint64) *RNG {
	c := r.ForkValue(id)
	return &c
}

// ForkValue is Fork returning the child by value, for a stream held
// inline in a table row rather than as a heap object of its own.
func (r *RNG) ForkValue(id uint64) RNG {
	// SplitMix64 finalizer on the id keeps adjacent ids far apart in seed
	// space, then mix with the parent's construction-time seed material.
	z := id + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return seeded(z ^ (r.lineage * 0xd1342543de82ef95))
}

// State is the complete serializable state of a stream: the xoshiro256**
// state words plus the lineage that Split and Fork derive children from.
// Capturing State and later applying it with SetState resumes the stream
// exactly — the restored RNG produces the same future draws and the same
// children as the original would have.
type State struct {
	S       [4]uint64
	Lineage uint64
}

// State returns a snapshot of the stream's current state.
func (r *RNG) State() State { return State{S: r.s, Lineage: r.lineage} }

// FromState builds a stream positioned exactly at a captured state.
func FromState(st State) *RNG { return &RNG{s: st.S, lineage: st.Lineage} }

// SetState overwrites the stream with a previously captured snapshot.
func (r *RNG) SetState(st State) {
	r.s = st.S
	r.lineage = st.Lineage
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Rejection sampling to remove modulo bias.
	max := math.MaxUint64 - math.MaxUint64%n
	for {
		v := r.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p (clamped to [0,1]).
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard-normal variate (mean 0, stddev 1) using the
// Marsaglia polar method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// LogNormal returns a log-normal variate with the given parameters of the
// underlying normal (mu, sigma). Degree distributions in online social
// networks are well approximated by log-normals.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Poisson returns a Poisson variate with the given mean. For large means it
// uses a normal approximation, which is adequate for workload generation.
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := mean + math.Sqrt(mean)*r.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	// Knuth's method.
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct indices drawn uniformly from [0, n) in selection
// order. If k >= n it returns a permutation of all n indices.
func (r *RNG) Sample(n, k int) []int {
	if k >= n {
		return r.Perm(n)
	}
	// Floyd's algorithm: O(k) expected time, O(k) space.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}
