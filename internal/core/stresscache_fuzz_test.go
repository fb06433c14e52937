package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"testing"
)

// FuzzStressCacheGet throws arbitrary bytes at the on-disk entry decoder:
// whatever a crashed writer, a manual edit or a skewed build leaves in the
// cache directory, Get must never panic and must only report a hit for
// exactly the bytes Put writes for that key and the matrix Get returned. A
// hit on anything else would silently feed garbage stress values into the
// TTF model.
func FuzzStressCacheGet(f *testing.F) {
	const key = "fuzzkey"

	// Seeds: a valid entry plus the corruption classes Get must reject.
	seedCache, err := OpenStressCache(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := seedCache.Put(key, [][]float64{{1e8, 2e8}, {3e8, 4e8}}); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seedCache.path(key))
	if err != nil {
		f.Fatal(err)
	}
	nAt := len(stressEntryMagic) + 8 + len(key)
	edit := func(at int, v uint64) []byte {
		b := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(b[at:], v)
		return b
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                                                    // truncated mid-write
	f.Add([]byte{})                                                                // empty file
	f.Add([]byte("not an entry at all"))                                           // garbage
	f.Add(edit(len(stressEntryMagic), stressCacheVersion+1))                       // version skew
	f.Add(append([]byte(stressEntryMagic), valid[len(stressEntryMagic):nAt-1]...)) // short header
	f.Add(edit(nAt, 0))                                                            // n = 0
	f.Add(edit(nAt, 1))                                                            // n too small for the body
	f.Add(edit(nAt, 3))                                                            // n too large for the body
	f.Add(append(append([]byte(nil), valid...), 0))                                // one byte over
	f.Add(edit(nAt+8, math.Float64bits(math.NaN())))                               // NaN value
	f.Add([]byte(`{"version":2,"key":"fuzzkey","peak_sigma_t_pa":[[1]]}`))         // old JSON entry

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := OpenStressCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(c.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		sigma, ok := c.Get(key)
		if !ok {
			if sigma != nil {
				t.Fatalf("miss returned a non-nil matrix (%d rows)", len(sigma))
			}
			return
		}
		// A hit must be byte for byte what Put writes for the returned
		// matrix under this key; Put independently re-checks the shape
		// and finiteness Get promises its caller.
		ref, err := OpenStressCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Put(key, sigma); err != nil {
			t.Fatalf("hit returned a matrix Put refuses: %v", err)
		}
		want, err := os.ReadFile(ref.path(key))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("hit on %d bytes that differ from Put's %d", len(data), len(want))
		}
	})
}

// TestStressCacheGetMissVsCorrupt pins the miss/corrupt split the telemetry
// layer reports: a nonexistent entry is a plain miss, while present-but-bad
// entries are classified corrupt — and both present as misses to the caller.
func TestStressCacheGetMissVsCorrupt(t *testing.T) {
	c, err := OpenStressCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, outcome := c.get("absent"); outcome != cacheMiss {
		t.Errorf("nonexistent entry classified %d, want miss", outcome)
	}
	if err := os.WriteFile(c.path("bad"), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, outcome := c.get("bad"); outcome != cacheCorrupt {
		t.Errorf("truncated entry classified %d, want corrupt", outcome)
	}
	if sigma, ok := c.Get("bad"); ok || sigma != nil {
		t.Error("corrupt entry surfaced as a hit to the caller")
	}
}
