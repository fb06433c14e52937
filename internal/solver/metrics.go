package solver

import "emvia/internal/telemetry"

// recordCG publishes the outcome of one CG solve. With telemetry disabled
// this is a single atomic pointer load; the per-iteration loop itself is
// never instrumented, so the kernel hot path carries no telemetry cost at
// all.
func recordCG(st Stats) {
	r := telemetry.Default()
	if r == nil {
		return
	}
	r.Counter(telemetry.CGSolves).Inc()
	r.Counter(telemetry.CGIterations).Add(int64(st.Iterations))
	r.Histogram(telemetry.CGItersPerSolve).Observe(float64(st.Iterations))
}

// record counts one direct-factor operation (a dense or supernodal Cholesky
// factorization, update, downdate or solve) under name.
func record(name string) {
	if r := telemetry.Default(); r != nil {
		r.Counter(name).Inc()
	}
}
