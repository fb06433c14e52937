package core

import (
	"encoding/binary"
	"math"
	"os"
	"reflect"
	"testing"

	"emvia/internal/cudd"
	"emvia/internal/fem"
	"emvia/internal/telemetry"
)

// TestStressCacheKeyCoversAllParams walks every leaf field of cudd.Params by
// reflection, perturbs it, and requires the cache key to change: a field the
// binary encoder misses would alias physically different structures onto one
// cache entry. The field-count pin makes adding a Params field a compile-time
// reminder to extend appendParams and bump stressCacheVersion.
func TestStressCacheKeyCoversAllParams(t *testing.T) {
	rt := reflect.TypeOf(cudd.Params{})
	if rt.NumField() != stressKeyParamFields {
		t.Fatalf("cudd.Params has %d fields but the cache key encodes %d: "+
			"extend appendParams, bump stressCacheVersion and update stressKeyParamFields together",
			rt.NumField(), stressKeyParamFields)
	}

	// Collect the index path of every leaf (int or float64) field,
	// descending into embedded structs like LayerPair.
	type leaf struct {
		path []int
		name string
	}
	var leaves []leaf
	var walk func(t reflect.Type, path []int, name string)
	walk = func(t reflect.Type, path []int, name string) {
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			p := append(append([]int(nil), path...), i)
			n := name + f.Name
			if f.Type.Kind() == reflect.Struct {
				walk(f.Type, p, n+".")
				continue
			}
			leaves = append(leaves, leaf{path: p, name: n})
		}
	}
	walk(rt, nil, "")

	c := testCache(t)
	base := cudd.DefaultParams()
	baseKey := c.Key(base, fem.SolveOptions{})
	for _, lf := range leaves {
		q := base
		v := reflect.ValueOf(&q).Elem().FieldByIndex(lf.path)
		switch v.Kind() {
		case reflect.Int:
			v.SetInt(v.Int() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 1)
		default:
			t.Fatalf("cudd.Params.%s has kind %s: extend the key encoder and this test", lf.name, v.Kind())
		}
		if c.Key(q, fem.SolveOptions{}) == baseKey {
			t.Errorf("perturbing cudd.Params.%s did not change the cache key", lf.name)
		}
	}
}

// TestStressCacheStrictDecoder feeds Get malformed binary entries, each a
// small edit of the bytes Put writes: every one must miss and be counted
// corrupt, never reach the caller as a matrix.
func TestStressCacheStrictDecoder(t *testing.T) {
	c := testCache(t)
	key := c.Key(cudd.DefaultParams(), fem.SolveOptions{})
	if err := c.Put(key, [][]float64{{1, 2}, {3, 4}}); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(c.path(key))
	if err != nil {
		t.Fatal(err)
	}
	magicEnd := len(stressEntryMagic)
	keyAt := magicEnd + 8
	nAt := keyAt + len(key)
	bodyAt := nAt + 8
	edit := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), valid...))
	}
	putU64 := func(at int, v uint64) []byte {
		return edit(func(b []byte) []byte { binary.LittleEndian.PutUint64(b[at:], v); return b })
	}
	putF64 := func(v float64) []byte { return putU64(bodyAt+8, math.Float64bits(v)) }

	reject := map[string][]byte{
		"empty file":      {},
		"short header":    valid[:bodyAt-1],
		"header only":     valid[:bodyAt],
		"wrong magic":     edit(func(b []byte) []byte { b[0] ^= 0xff; return b }),
		"version+1":       putU64(magicEnd, stressCacheVersion+1),
		"version-1":       putU64(magicEnd, stressCacheVersion-1),
		"key mismatch":    edit(func(b []byte) []byte { b[keyAt] ^= 1; return b }),
		"n = 0":           putU64(nAt, 0),
		"n too large":     putU64(nAt, 3),
		"n too small":     putU64(nAt, 1),
		"n overflowing":   putU64(nAt, 1<<32),
		"one byte short":  valid[:len(valid)-1],
		"one byte over":   append(append([]byte(nil), valid...), 0),
		"one value over":  append(append([]byte(nil), valid...), valid[bodyAt:bodyAt+8]...),
		"NaN value":       putF64(math.NaN()),
		"+Inf value":      putF64(math.Inf(1)),
		"-Inf value":      putF64(math.Inf(-1)),
		"old JSON format": []byte(`{"version":3,"key":"` + key + `","peak_sigma_t_pa":[[1,2],[3,4]]}`),
	}
	reg := telemetry.New()
	telemetry.SetDefault(reg)
	t.Cleanup(func() { telemetry.SetDefault(nil) })
	for name, in := range reject {
		if err := os.WriteFile(c.path(key), in, 0o644); err != nil {
			t.Fatal(err)
		}
		before := reg.Counter(telemetry.StressDiskBad).Value()
		if sigma, ok := c.Get(key); ok || sigma != nil {
			t.Errorf("%s: hit %v", name, sigma)
		}
		if got := reg.Counter(telemetry.StressDiskBad).Value() - before; got != 1 {
			t.Errorf("%s: disk_corrupt moved by %d, want 1", name, got)
		}
	}
	// The untouched entry still decodes, so the table above tests the edits.
	if err := os.WriteFile(c.path(key), valid, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); !ok {
		t.Fatal("Put's own bytes missed")
	}
}

// TestStressCacheRoundTripBitExact stores an entry through Put and requires
// Get to return every value bit for bit, signed zero, the smallest
// subnormal and the largest finite value included.
func TestStressCacheRoundTripBitExact(t *testing.T) {
	c := testCache(t)
	key := c.Key(cudd.DefaultParams(), fem.SolveOptions{})
	want := [][]float64{
		{4.1e8, -2.75e-19, math.Copysign(0, -1)},
		{1.0 / 3.0, 5e-324, -math.MaxFloat64},
		{math.MaxFloat64, 6.02214076e23, 0},
	}
	if err := c.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("Put's own entry missed")
	}
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("row %d has %d values, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Errorf("sigma[%d][%d] = %v (%#x), want %v (%#x)", i, j,
					got[i][j], math.Float64bits(got[i][j]), want[i][j], math.Float64bits(want[i][j]))
			}
		}
	}
}

// TestStressCacheWarmPathAllocs pins the per-lookup allocation budget of the
// warm disk path (Key derivation + Get): the key hex string, the path string,
// its NUL-terminated syscall copy, and the two matrix slices. Regressing this
// shows up directly in BenchmarkStressCacheWarm.
func TestStressCacheWarmPathAllocs(t *testing.T) {
	c := testCache(t)
	p := cudd.DefaultParams()
	key := c.Key(p, fem.SolveOptions{})
	sigma := make([][]float64, 4)
	for i := range sigma {
		sigma[i] = []float64{4.1e8, 4.2e8, 4.3e8, 4.4e8}
	}
	if err := c.Put(key, sigma); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		k := c.Key(p, fem.SolveOptions{})
		s, ok := c.Get(k)
		if !ok || s[2][2] != 4.3e8 {
			t.Fatalf("warm lookup failed: ok=%v", ok)
		}
	})
	if allocs > 6 {
		t.Errorf("warm Key+Get costs %.0f allocs, want ≤ 6", allocs)
	}
}
