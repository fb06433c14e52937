package mc

import "math/rand"

// trialSource is the worker generator's rand.Source64. It yields exactly the
// stream of rand.NewSource(seed) but materializes it lazily: Seed only
// records the seed, the first draw is computed in O(1) from the seed, and
// only a second draw pays for math/rand's 607-word seeding, on a stdlib
// source built once per worker. A screened weakest-link trial takes one draw
// from its trial generator, so per-trial reseeding stops dominating it;
// trials that draw more (IR-drop cascades, via-array characterization) see
// the same stream as before, bit for bit.
type trialSource struct {
	seed  int64
	drawn int           // draws taken since Seed, saturating at 2
	std   rand.Source64 // the stdlib source, seeded on the second draw
}

func newTrialSource() *trialSource {
	return &trialSource{std: rand.NewSource(0).(rand.Source64)}
}

func (s *trialSource) Seed(seed int64) { s.seed, s.drawn = seed, 0 }

func (s *trialSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

func (s *trialSource) Uint64() uint64 {
	switch s.drawn {
	case 0:
		s.drawn = 1
		return firstDraw(s.seed)
	case 1:
		s.drawn = 2
		s.std.Seed(s.seed)
		s.std.Uint64() // the first draw, already handed out
	}
	return s.std.Uint64()
}

// The constants of math/rand's seeding (rng.go): the seed is reduced modulo
// the Lehmer modulus 2³¹−1, and each of the 607 state words vec[i] is three
// consecutive states of the LCG x ← 48271·x mod (2³¹−1), after 20 warm-up
// steps, XORed with the table word rngCooked[i].
const (
	lcgMod      = 1<<31 - 1
	lcgMul      = 48271
	zeroSeed    = 89482311             // what a seed ≡ 0 is replaced by
	cooked333   = -4633371852008891965 // rngCooked[333]
	cooked606   = 4152330101494654406  // rngCooked[606]
	warmupSteps = 20
)

// jump333 and jump606 advance the seeding LCG from the seed to the first of
// the three states that build vec[333] and vec[606]: steps 20+3·i+1.
var (
	jump333 = powMod(lcgMul, warmupSteps+3*333+1)
	jump606 = powMod(lcgMul, warmupSteps+3*606+1)
)

// firstDraw returns the first Uint64 of rand.NewSource(seed): the sum of the
// state words vec[333] and vec[606], where a freshly seeded source's feed
// and tap indices land on their first step.
func firstDraw(seed int64) uint64 {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	x := uint64(seed)
	return uint64(stateWord(x*jump333%lcgMod, cooked333) + stateWord(x*jump606%lcgMod, cooked606))
}

// stateWord builds a vec word from the first of its three LCG states, as
// rngSource.Seed does.
func stateWord(x uint64, cooked int64) int64 {
	u := int64(x) << 40
	x = x * lcgMul % lcgMod
	u ^= int64(x) << 20
	x = x * lcgMul % lcgMod
	u ^= int64(x)
	return u ^ cooked
}

// powMod returns b^e mod (2³¹−1).
func powMod(b uint64, e int) uint64 {
	r := uint64(1)
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			r = r * b % lcgMod
		}
		b = b * b % lcgMod
	}
	return r
}
