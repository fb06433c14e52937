// Package emvia is a stress-aware electromigration (EM) reliability
// analyzer for on-chip power grids with via arrays — a from-scratch Go
// implementation of Mishra, Jain, Marella and Sapatnekar, "Incorporating the
// Role of Stress on Electromigration in Power Grids with Via Arrays",
// DAC 2017.
//
// The library spans the paper's entire stack:
//
//   - internal/fem + internal/mesh: 3-D thermoelastic finite-element
//     analysis of Cu dual-damascene structures (the ABAQUS substitute),
//     on a home-grown sparse CSR / preconditioned-CG stack
//     (internal/sparse, internal/solver).
//   - internal/cudd: via-array structure builder and the per-via
//     thermomechanical-stress (σ_T) extraction; internal/core memoizes and
//     persists each solve.
//   - internal/emdist: the Korhonen void-nucleation TTF model, lognormal
//     critical stress, and calibration.
//   - internal/viaarray + internal/mc: Algorithm-1 Monte Carlo of
//     sequential via failures with current crowding and redistribution.
//   - internal/spice + internal/pdn: SPICE-dialect power-grid decks
//     (IBM-benchmark style), nodal analysis, synthetic benchmark
//     generation, the steady-state EM screen, criticality reports, and
//     the grid-level TTF Monte Carlo.
//   - internal/korhonen: the 1-D stress-evolution PDE behind equation (1).
//   - internal/baseline: Black's equation and j_max screening — the
//     traditional methodology the paper improves on.
//   - internal/thermal: compact die thermal network for local-temperature
//     TTF derating.
//   - internal/core: the end-to-end pipeline.
//
// Start with ExampleAnalyzer_CharacterizeViaArray in internal/core, or run
// cmd/paperfigs to regenerate every figure and table of the paper.
package emvia
