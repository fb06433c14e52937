package spice

import "emvia/internal/telemetry"

// circuitMetrics holds the telemetry handles of one compiled circuit. The
// handles are fetched once at compile time, so the per-solve hot path
// records through cached pointers — with telemetry disabled every
// handle is nil and each record call is a nil-receiver no-op.
type circuitMetrics struct {
	solves        *telemetry.Counter
	factorSeconds *telemetry.Histogram
}

// newCircuitMetrics snapshots the process-wide registry into per-circuit
// handles and counts the compilation itself.
func newCircuitMetrics() circuitMetrics {
	r := telemetry.Default() // nil when disabled: all handles stay nil
	r.Counter(telemetry.SpiceCompiles).Inc()
	return circuitMetrics{
		solves:        r.Counter(telemetry.SpiceSparseSolves),
		factorSeconds: r.Histogram(telemetry.SpiceFactorSeconds),
	}
}
