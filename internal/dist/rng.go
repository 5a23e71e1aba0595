package dist

import "math/rand"

// RNG is a deterministic random source for Monte Carlo characterization
// and path simulation. All stochastic stages of the reproduction draw
// from an RNG seeded from the experiment configuration so every table and
// figure regenerates bit-identically.
//
// The stream is math/rand's rand.New(rand.NewSource(seed)), bit for bit,
// but the source is a lazySource: a fork costs no register seeding up
// front, which matters because characterization forks once per
// (instance, cell) and draws only two normals from most forks.
type RNG struct {
	r    *rand.Rand
	src  lazySource
	seed int64
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	g := &RNG{seed: seed}
	g.src.Seed(seed)
	g.r = rand.New(&g.src)
	return g
}

// Fork derives an independent child generator from this one. Children
// created in the same order are identical across runs, which lets
// per-cell / per-instance sampling be order-independent of unrelated
// draws.
func (g *RNG) Fork() *RNG {
	return NewRNG(g.r.Int63())
}

// ForkNamed derives a child generator whose stream depends only on the
// parent's seed and the given name — not on how much of the parent's
// stream has been consumed — so adding a new named consumer does not
// shift the streams of existing ones.
func (g *RNG) ForkNamed(name string) *RNG {
	h := int64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(name); i++ {
		h ^= int64(name[i])
		h *= 1099511628211
	}
	return NewRNG(h ^ g.seed)
}

// ForkNamedBytes is ForkNamed for a key assembled in a caller-owned
// byte buffer, hashing the identical FNV-1a stream: for any name,
// ForkNamedBytes([]byte(name)) derives the same child as
// ForkNamed(name). Hot paths (the per-(instance, cell) mismatch draws)
// build keys with strconv.AppendInt into a stack buffer and fork here
// without the fmt.Sprintf allocation. The buffer is not retained.
func (g *RNG) ForkNamedBytes(name []byte) *RNG {
	h := int64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(name); i++ {
		h ^= int64(name[i])
		h *= 1099511628211
	}
	return NewRNG(h ^ g.seed)
}

// Float64 returns a uniform sample in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Normal returns a sample from N(mu, sigma).
func (g *RNG) Normal(mu, sigma float64) float64 {
	return mu + sigma*g.r.NormFloat64()
}

// StandardNormal returns a sample from N(0, 1).
func (g *RNG) StandardNormal() float64 { return g.r.NormFloat64() }

// Intn returns a uniform integer in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// The constants of math/rand's additive lagged Fibonacci source
// (rngSource in math/rand/rng.go): the register has rngLen words (see
// rngcooked.go), draws add the word rngTap positions ahead, and seeding
// walks the Lehmer generator x' = 48271·x mod (2^31−1).
const (
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	// seedSteps is how many Lehmer steps rngSource's Seed takes: 20
	// warm-up steps, then three per register word.
	seedSteps = 20 + 3*rngLen
	// lazyDraws is how many draws a lazySource serves from seeded words
	// computed on demand before it materializes the register. It must
	// stay at most rngTap (see lazySource).
	lazyDraws = 16
)

// lehmerPow[p] is 48271^p mod (2^31−1): the Lehmer state p steps after
// x0 is lehmerPow[p]·x0 mod (2^31−1), so any seeded register word can
// be computed directly instead of by walking the 1,841-step chain.
var lehmerPow = func() (pw [seedSteps + 1]uint32) {
	pw[0] = 1
	for p := 1; p < len(pw); p++ {
		pw[p] = uint32(uint64(pw[p-1]) * 48271 % int32max)
	}
	return pw
}()

// lazySource is a rand.Source64 producing exactly the stream of
// rand.NewSource(seed), Uint64 included, without seeding the 607-word
// register up front.
//
// Why it is exact: rngSource.Seed fills word i from the Lehmer states at
// steps 21+3i, 22+3i and 23+3i (mixed with rngCooked[i]); its seedrand
// is Schrage's exact evaluation of 48271·x mod (2^31−1), so those states
// are lehmerPow[p]·x0 mod (2^31−1). Draw k (1-based) adds the words at
// feed = 334−k and tap = 607−k and writes the sum back at feed. A tap
// position is first written 273 draws after the draw that reads it, so
// each of the first 273 draws is the sum of two seeded words. The first
// lazyDraws draws are served that way, their written words kept in
// head; the next draw materializes the register — every seeded word,
// then head over the positions it overwrote — with tap and feed where
// rngSource would have them, and from then on steps exactly as
// rngSource does.
type lazySource struct {
	x0   uint64           // reduced seed: the Lehmer state before step 1
	n    int              // draws served from seeded words
	head [lazyDraws]int64 // words written by those draws, at feed 333, 332, ...
	vec  *[rngLen]int64   // the register once materialized, else nil
	tap  int              // index into vec
	feed int              // index into vec
}

// Seed resets the source to rand.NewSource(seed)'s initial state.
func (s *lazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	*s = lazySource{x0: uint64(seed)}
}

// word returns seeded register word i.
func (s *lazySource) word(i int) int64 {
	p := 21 + 3*i
	x1 := int64(uint64(lehmerPow[p]) * s.x0 % int32max)
	x2 := int64(uint64(lehmerPow[p+1]) * s.x0 % int32max)
	x3 := int64(uint64(lehmerPow[p+2]) * s.x0 % int32max)
	return x1<<40 ^ x2<<20 ^ x3 ^ rngCooked[i]
}

func (s *lazySource) materialize() {
	s.vec = new([rngLen]int64)
	for i := range s.vec {
		s.vec[i] = s.word(i)
	}
	for j, x := range s.head[:s.n] {
		s.vec[rngLen-rngTap-1-j] = x
	}
	s.tap = rngLen - s.n
	s.feed = rngLen - rngTap - s.n
}

// Uint64 returns the next 64-bit value of the stream.
func (s *lazySource) Uint64() uint64 {
	if s.vec == nil {
		if s.n < lazyDraws {
			k := s.n + 1
			x := s.word(rngLen-rngTap-k) + s.word(rngLen-k)
			s.head[s.n] = x
			s.n = k
			return uint64(x)
		}
		s.materialize()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative 63-bit value, as rngSource does.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }
