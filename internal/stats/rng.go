// Package stats provides the deterministic random-number generation and
// summary-statistics utilities shared by the simulators and the evaluation
// harness. Every stochastic process in the repository (genome generation,
// read sampling, Monte-Carlo process variation) draws from this package with
// an explicit seed so that all experiments regenerate byte-identically.
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** seeded via splitmix64). It is not safe for concurrent use;
// use Split to derive independent streams for parallel work.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via splitmix64 so that even
// adjacent seeds produce decorrelated streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives an independent generator from the current state. The parent
// advances, so successive Split calls yield distinct streams.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xa0761d6478bd642f)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Ziggurat tables for NormFloat64 (Marsaglia–Tsang, 128 layers), computed
// once at init rather than pasted as literals. zigRN is the start of the
// right tail; each layer (and the tail) has area 9.91256303526217e-3.
const (
	zigRN = 3.442619855899
	zigM1 = 1 << 31
)

var (
	zigKN [128]uint32  // acceptance thresholds on the raw 32-bit draw
	zigWN [128]float64 // layer widths: x = j * zigWN[i]
	zigFN [128]float64 // f(x) at the layer boundaries
)

func init() {
	const vn = 9.91256303526217e-3
	dn, tn := zigRN, zigRN
	q := vn / math.Exp(-0.5*dn*dn)
	zigKN[0] = uint32(dn / q * zigM1)
	zigKN[1] = 0
	zigWN[0] = q / zigM1
	zigWN[127] = dn / zigM1
	zigFN[0] = 1
	zigFN[127] = math.Exp(-0.5 * dn * dn)
	for i := 126; i >= 1; i-- {
		dn = math.Sqrt(-2 * math.Log(vn/dn+math.Exp(-0.5*dn*dn)))
		zigKN[i+1] = uint32(dn / tn * zigM1)
		tn = dn
		zigFN[i] = math.Exp(-0.5 * dn * dn)
		zigWN[i] = dn / zigM1
	}
}

// NormFloat64 returns a standard normal variate via the 128-layer ziggurat.
// ~98.8 % of calls consume one Uint64 and cost a multiply and two compares;
// the transcendental slow path runs only on layer-edge and tail draws. This
// replaced a Box-Muller sampler whose sqrt/log/cos per call dominated the
// Monte-Carlo variation study.
func (r *RNG) NormFloat64() float64 {
	for {
		j := int32(uint32(r.Uint64() >> 32)) // signed 32-bit draw
		i := j & 0x7f
		x := float64(j) * zigWN[i]
		abs := uint32(j)
		if j < 0 {
			abs = uint32(-j)
		}
		if abs < zigKN[i] {
			return x // inside the layer rectangle: accept immediately
		}
		if i == 0 {
			// Tail beyond zigRN: Marsaglia's exponential-rejection sample.
			for {
				x = -math.Log(1-r.Float64()) / zigRN
				y := -math.Log(1 - r.Float64())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return zigRN + x
			}
			return -(zigRN + x)
		}
		if zigFN[i]+r.Float64()*(zigFN[i-1]-zigFN[i]) < math.Exp(-0.5*x*x) {
			return x
		}
	}
}

// Gaussian returns a normal variate with the given mean and standard
// deviation.
func (r *RNG) Gaussian(mean, sigma float64) float64 {
	return mean + sigma*r.NormFloat64()
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
