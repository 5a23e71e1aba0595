package dist

import (
	"math/rand"
	"testing"
)

// exactnessSeeds returns the seeds the lazy source is checked on: the
// edge cases of rngSource.Seed's reduction (zero, negatives, multiples
// and neighbours of 2^31−1, the int64 extremes) plus a spread of
// ordinary and FNV-sized seeds, 1,000+ in all.
func exactnessSeeds() []int64 {
	const m = int32max
	seeds := []int64{0, 1, -1, 2, -2, m, -m, 2 * m, -2 * m, 7 * m, -7 * m,
		m - 1, m + 1, -m + 1, -m - 1, 89482311, 1<<63 - 1, -1 << 63, 1 << 31, -1 << 31}
	g := rand.New(rand.NewSource(20140324))
	for len(seeds) < 1008 {
		switch len(seeds) % 4 {
		case 0:
			seeds = append(seeds, int64(len(seeds)))
		case 1:
			seeds = append(seeds, -g.Int63())
		case 2:
			seeds = append(seeds, int64(g.Uint64()))
		default:
			seeds = append(seeds, g.Int63n(1000)*m)
		}
	}
	return seeds
}

// TestLazySourceMatchesRandSource: the lazy source must reproduce
// rand.NewSource bit for bit on every seed, through the lazy draws, the
// materialization and well past one register wrap (1,500 > 607 draws),
// for Uint64 and Int63 interleaved.
func TestLazySourceMatchesRandSource(t *testing.T) {
	for _, seed := range exactnessSeeds() {
		ref := rand.NewSource(seed).(rand.Source64)
		var lz lazySource
		lz.Seed(seed)
		for d := 0; d < 1500; d++ {
			if d%3 == 1 {
				if got, want := lz.Int63(), ref.Int63(); got != want {
					t.Fatalf("seed %d draw %d: Int63 %d, want %d", seed, d, got, want)
				}
				continue
			}
			if got, want := lz.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Uint64 %d, want %d", seed, d, got, want)
			}
		}
	}
}

// refRNG is RNG as it was built on math/rand's own source: the
// reference every dist.RNG method is compared against.
type refRNG struct {
	r    *rand.Rand
	seed int64
}

func newRefRNG(seed int64) *refRNG { return &refRNG{r: rand.New(rand.NewSource(seed)), seed: seed} }

func (g *refRNG) fork() *refRNG { return newRefRNG(g.r.Int63()) }

func (g *refRNG) forkNamed(name string) *refRNG {
	h := int64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h ^= int64(name[i])
		h *= 1099511628211
	}
	return newRefRNG(h ^ g.seed)
}

// TestRNGMatchesRandSource drives every RNG method (Float64, Normal,
// StandardNormal, Intn, Perm, Fork, ForkNamed, ForkNamedBytes) in a
// mixed sequence long enough to wrap the register, and requires the
// exact values of an RNG built on rand.NewSource.
func TestRNGMatchesRandSource(t *testing.T) {
	for _, seed := range exactnessSeeds() {
		got, want := NewRNG(seed), newRefRNG(seed)
		check := func(d int, op string, a, b float64) {
			t.Helper()
			if a != b {
				t.Fatalf("seed %d op %d (%s): %v, want %v", seed, d, op, a, b)
			}
		}
		for d := 0; d < 700; d++ {
			op := d % 5 // the four draw methods, Perm included
			if d%64 == 0 {
				op = 5 + d/64%3 // a fork every 64 draws, the three kinds in turn
			}
			switch op {
			case 0:
				check(d, "Float64", got.Float64(), want.r.Float64())
			case 1:
				check(d, "Normal", got.Normal(1, 0.5), 1+0.5*want.r.NormFloat64())
			case 2:
				check(d, "StandardNormal", got.StandardNormal(), want.r.NormFloat64())
			case 3:
				check(d, "Intn", float64(got.Intn(1000+d)), float64(want.r.Intn(1000+d)))
			case 4:
				gp, wp := got.Perm(7), want.r.Perm(7)
				for i := range gp {
					check(d, "Perm", float64(gp[i]), float64(wp[i]))
				}
			case 5:
				gc, wc := got.Fork(), want.fork()
				check(d, "Fork", gc.StandardNormal(), wc.r.NormFloat64())
			case 6:
				gc, wc := got.ForkNamed("mc3/ND2_4"), want.forkNamed("mc3/ND2_4")
				check(d, "ForkNamed", gc.StandardNormal(), wc.r.NormFloat64())
			case 7:
				gc, wc := got.ForkNamedBytes([]byte("noise7")), want.forkNamed("noise7")
				for i := 0; i < 40; i++ {
					check(d, "ForkNamedBytes", gc.Float64(), wc.r.Float64())
				}
			}
		}
	}
}

// TestLazyForkDoesNotSeedRegister: a fork that draws only a few values
// (the per-(instance, cell) mismatch draw) never materializes the
// 607-word register.
func TestLazyForkDoesNotSeedRegister(t *testing.T) {
	g := NewRNG(1).ForkNamed("mc0/INV_1")
	g.StandardNormal()
	g.StandardNormal()
	if g.src.vec != nil {
		t.Fatal("two normals materialized the register")
	}
	allocs := testing.AllocsPerRun(100, func() {
		c := g.ForkNamed("mc0/INV_2")
		c.StandardNormal()
		c.StandardNormal()
	})
	if allocs > 2 {
		t.Fatalf("fork + two normals: %v allocs, want ≤ 2", allocs)
	}
}
