package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"emvia/internal/serve"
)

// referenceJSON holds the expected outputs of every job the input pools can
// produce, keyed by content hash (or, for array-char, by pool position), as
// written by -update:
//
//	cd bench && go run . -update
//
//go:embed testdata/reference.json
var referenceJSON []byte

// referencePath is where -update writes the reference outputs, relative to
// this directory.
const referencePath = "testdata/reference.json"

// referenceRelTol matches the paper-figure goldens: outputs are
// deterministic, and the tolerance only absorbs floating-point contraction
// differences across architectures.
const referenceRelTol = 1e-9

var reference = func() map[string]float64 {
	ref := make(map[string]float64)
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		panic("bench: testdata/reference.json: " + err.Error())
	}
	return ref
}()

// checkReference compares one output against its reference value.
func checkReference(tl *tally, key string, got float64) {
	want, ok := reference[key]
	tl.check(ok && withinRelTol(got, want), "reference %s: got %.17g, want %.17g (present %v; regenerate with -update after an intended change)", key, got, want, ok)
}

func withinRelTol(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= referenceRelTol*math.Max(math.Abs(a), math.Abs(b))
}

// writeReference recomputes the reference outputs of every pool at both
// scales and writes them to referencePath.
func writeReference(ctx context.Context, log io.Writer) error {
	ref := make(map[string]float64)
	for _, tiny := range []bool{false, true} {
		for _, w := range []string{"ir-cascade", "wl-screened"} {
			fmt.Fprintf(log, "bench: reference for %s (%s)\n", w, scaleName(tiny))
			for _, spec := range libraryPool(w, tiny) {
				job, err := runLibraryJob(ctx, &spec, nil, 0)
				if err != nil {
					return fmt.Errorf("%s: %w", w, err)
				}
				if !job.hasP50 {
					return fmt.Errorf("%s: a pool job never failed", w)
				}
				hash, err := spec.ContentHash()
				if err != nil {
					return err
				}
				ref[hash+".p50_years"] = job.p50Years
			}
		}
		fmt.Fprintf(log, "bench: reference for array-char (%s)\n", scaleName(tiny))
		if err := arrayCharReference(tiny, ref); err != nil {
			return err
		}
	}
	buf, err := json.MarshalIndent(ref, "", "  ") // keys sorted: stable diffs
	if err != nil {
		return err
	}
	if err := os.WriteFile(referencePath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(log, "bench: wrote %d reference values to %s\n", len(ref), referencePath)
	return nil
}

// specBody encodes a job spec as the POST /v1/jobs body and returns its
// content hash.
func specBody(spec *serve.JobSpec) ([]byte, string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, "", err
	}
	hash, err := spec.ContentHash()
	return body, hash, err
}
