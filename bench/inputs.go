package main

import (
	"math/rand"

	"emvia/internal/serve"
)

// The inputs of every workload come from fixed pools: a run's seed picks the
// order in which jobs are drawn from a pool. Fixed pools keep the work per
// job the same across seeds, and let testdata/reference.json hold the
// expected output of every job any seed can produce.

// libraryPoolSize is the number of distinct jobs of a library workload.
const libraryPoolSize = 16

// libraryPool returns the distinct jobs of ir-cascade or wl-screened. Jobs
// differ only in their Monte-Carlo seed, so each does about the same work and
// the seed-dependent choice of jobs in a run does not move its metrics.
func libraryPool(workload string, tiny bool) []serve.JobSpec {
	pool := make([]serve.JobSpec, libraryPoolSize)
	for i := range pool {
		var spec serve.JobSpec
		switch workload {
		case "ir-cascade":
			// The IR-drop criterion re-solves the grid after every array
			// that opens, so trials are long cascades of solver updates.
			// 32 trials are two trial groups, one per worker.
			spec = serve.JobSpec{Engine: "mc", Criterion: "ir", IRFrac: 0.10, Trials: 32,
				Grid: &serve.GridSource{NX: 64, NY: 64, CalibrateIR: 0.065}}
			if tiny {
				spec.Trials, spec.Grid.NX, spec.Grid.NY = 8, 12, 12
			}
		case "wl-screened":
			// A large grid resolved three times (calibrate, reference current,
			// system), then a screened weakest-link run whose trials end at
			// the first failure: factorization and sampling, no updates.
			// nx100 (10 000 arrays, 20 000 nodes) takes the nested-dissection
			// and supernodal paths of nx200 at a quarter of its job time.
			spec = serve.JobSpec{Engine: "both", Criterion: "wl", Trials: 4000,
				Grid: &serve.GridSource{NX: 100, NY: 100, CalibrateIR: 0.01}}
			if tiny {
				spec.Trials, spec.Grid.NX, spec.Grid.NY = 200, 16, 16
			}
		default:
			panic("bench: no library pool for " + workload)
		}
		spec.Grid.Seed = 1
		spec.Seed = int64(1000 + i)
		pool[i] = spec
	}
	return pool
}

// warmupSpec is the untimed job every set-up runs once.
func warmupSpec() *serve.JobSpec {
	return &serve.JobSpec{Engine: "mc", Criterion: "ir", Trials: 16, Seed: 7,
		Grid: &serve.GridSource{NX: 16, NY: 16, Seed: 1, CalibrateIR: 0.065}}
}

// shuffled returns the pool's indices in the order seed draws them.
func shuffled(n int, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// libraryJobs returns a library run's job sequence: its pool in seed order.
func libraryJobs(workload string, tiny bool, seed int64) []serve.JobSpec {
	pool := libraryPool(workload, tiny)
	out := make([]serve.JobSpec, len(pool))
	for k, i := range shuffled(len(pool), seed) {
		out[k] = pool[i]
	}
	return out
}

// arrayCharSeeds returns an array-char run's via-array Monte-Carlo seeds,
// one per round: its pool of seeds in seed order.
func arrayCharSeeds(seed int64) []int64 {
	out := make([]int64, arrayCharPool)
	for k, i := range shuffled(arrayCharPool, seed) {
		out[k] = int64(100 + i)
	}
	return out
}
