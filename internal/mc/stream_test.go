package mc

import (
	"math"
	"math/rand"
	"testing"
)

// TestTrialSourceMatchesMathRand compares the worker generator with a fresh
// math/rand generator over 10⁵ seeds — the edges of math/rand's seed
// reduction, random int64s and the trial seeds of a run — drawing a
// different count per seed so that every count from 1 to 1000 is checked,
// through a mix of the Rand methods the systems call. One trialSource is
// reseeded for every seed, as a worker reseeds it for every trial.
func TestTrialSourceMatchesMathRand(t *testing.T) {
	const seeds, maxDraws = 100000, 1000
	edges := []int64{0, 1, -1, lcgMod, -lcgMod, lcgMod - 1, -(lcgMod - 1), lcgMod + 1, 2 * lcgMod, -2 * lcgMod,
		zeroSeed, -zeroSeed, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	pick := rand.New(rand.NewSource(1))
	lazy := rand.New(newTrialSource())
	for k := 0; k < seeds; k++ {
		var seed int64
		switch {
		case k < len(edges):
			seed = edges[k]
		case k%2 == 0:
			seed = int64(pick.Uint64())
		default:
			seed = trialSeed(int64(k/1000), k)
		}
		draws := 1 + k%maxDraws
		ref := rand.New(rand.NewSource(seed))
		lazy.Seed(seed)
		for d := 0; d < draws; d++ {
			var got, want float64
			switch d % 4 {
			case 0:
				got, want = float64(lazy.Uint64()), float64(ref.Uint64())
			case 1:
				got, want = float64(lazy.Int63()), float64(ref.Int63())
			case 2:
				got, want = lazy.NormFloat64(), ref.NormFloat64()
			default:
				got, want = lazy.Float64(), ref.Float64()
			}
			if got != want {
				t.Fatalf("seed %d, draw %d of %d: got %v, want %v", seed, d+1, draws, got, want)
			}
		}
	}
}

// TestFirstDrawMatchesSeeding pins the O(1) first draw on its own, the only
// draw a screened weakest-link trial takes, against math/rand's Uint64 and
// Int63 over every seed reduction class near 0 and the modulus.
func TestFirstDrawMatchesSeeding(t *testing.T) {
	for _, base := range []int64{0, lcgMod, -lcgMod, 1 << 40} {
		for d := int64(-3); d <= 3; d++ {
			seed := base + d
			if got, want := firstDraw(seed), rand.NewSource(seed).(rand.Source64).Uint64(); got != want {
				t.Errorf("firstDraw(%d) = %d, want %d", seed, got, want)
			}
			s := newTrialSource()
			s.Seed(seed)
			if got, want := s.Int63(), rand.NewSource(seed).Int63(); got != want {
				t.Errorf("Int63 after Seed(%d) = %d, want %d", seed, got, want)
			}
		}
	}
}
