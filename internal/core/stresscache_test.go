package core

import (
	"encoding/binary"
	"os"
	"strings"
	"sync"
	"testing"

	"emvia/internal/cudd"
	"emvia/internal/fem"
	"emvia/internal/phys"
)

func testCache(t *testing.T) *StressCache {
	t.Helper()
	c, err := OpenStressCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testSigma() [][]float64 {
	return [][]float64{{4.1e8, 4.2e8}, {4.3e8, 4.4e8}}
}

func TestStressCacheHitMiss(t *testing.T) {
	c := testCache(t)
	p := cudd.DefaultParams()
	key := c.Key(p, fem.SolveOptions{})
	if _, ok := c.Get(key); ok {
		t.Fatal("empty cache reported a hit")
	}
	if err := c.Put(key, testSigma()); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("cache missed a stored entry")
	}
	if got[1][0] != 4.3e8 {
		t.Errorf("got[1][0] = %g, want 4.3e8", got[1][0])
	}
	// A different geometry must produce a different key (and thus miss).
	p2 := p
	p2.ArrayN++
	if k2 := c.Key(p2, fem.SolveOptions{}); k2 == key {
		t.Error("distinct params hashed to the same key")
	} else if _, ok := c.Get(k2); ok {
		t.Error("unrelated key hit")
	}
}

// TestStressCacheKeySolverSettings checks that solver settings that change
// the converged result participate in the key, with zero values resolved to
// fem.Solve's defaults so "default by omission" and "default explicitly"
// share entries.
func TestStressCacheKeySolverSettings(t *testing.T) {
	c := testCache(t)
	p := cudd.DefaultParams()
	base := c.Key(p, fem.SolveOptions{})
	if got := c.Key(p, fem.SolveOptions{Tol: 1e-8, Precond: "auto"}); got != base {
		t.Error("explicit defaults keyed differently from zero options")
	}
	if got := c.Key(p, fem.SolveOptions{Tol: 1e-4}); got == base {
		t.Error("looser tolerance did not change the key")
	}
	if got := c.Key(p, fem.SolveOptions{Precond: "jacobi"}); got == base {
		t.Error("preconditioner choice did not change the key")
	}
	// Worker count must NOT change the key: parallel kernels are
	// bit-identical to serial.
	if got := c.Key(p, fem.SolveOptions{Workers: 7}); got != base {
		t.Error("worker count changed the key")
	}
}

func TestStressCacheCorruptEntryIsMiss(t *testing.T) {
	c := testCache(t)
	p := cudd.DefaultParams()
	key := c.Key(p, fem.SolveOptions{})
	if err := c.Put(key, testSigma()); err != nil {
		t.Fatal(err)
	}
	path := c.path(key)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncated write (e.g. torn copy from another filesystem).
	if err := os.WriteFile(path, buf[:len(buf)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("truncated entry reported a hit")
	}
	// Recompute-and-rewrite restores the entry.
	if err := c.Put(key, testSigma()); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); !ok {
		t.Fatal("rewritten entry missed")
	}
	// A non-square sigma is refused before anything reaches the disk.
	other := c.Key(p, fem.SolveOptions{Tol: 1e-4})
	if err := c.Put(other, [][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("Put accepted a ragged sigma")
	}
	if _, err := os.Stat(c.path(other)); !os.IsNotExist(err) {
		t.Fatalf("ragged Put left an entry behind (stat err %v)", err)
	}
}

func TestStressCacheVersionBumpInvalidates(t *testing.T) {
	c := testCache(t)
	p := cudd.DefaultParams()
	key := c.Key(p, fem.SolveOptions{})
	if err := c.Put(key, testSigma()); err != nil {
		t.Fatal(err)
	}
	path := c.path(key)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// An entry written by a future format.
	binary.LittleEndian.PutUint64(buf[len(stressEntryMagic):], stressCacheVersion+1)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("version-mismatched entry reported a hit")
	}
}

func TestStressCacheConcurrentWriters(t *testing.T) {
	c := testCache(t)
	p := cudd.DefaultParams()
	key := c.Key(p, fem.SolveOptions{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := c.Put(key, testSigma()); err != nil {
					t.Error(err)
					return
				}
				if s, ok := c.Get(key); ok && s[0][0] != 4.1e8 {
					t.Errorf("torn read: %v", s[0])
					return
				}
			}
		}()
	}
	wg.Wait()
	got, ok := c.Get(key)
	if !ok || got[1][1] != 4.4e8 {
		t.Fatalf("final entry bad: ok=%v got=%v", ok, got)
	}
	// The atomic renames must not leave temp litter behind.
	ents, err := os.ReadDir(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if strings.HasPrefix(de.Name(), ".tmp-") {
			t.Errorf("leftover temp file %s", de.Name())
		}
	}
}

func TestResolveStressCacheDir(t *testing.T) {
	if got := ResolveStressCacheDir("/x/y"); got != "/x/y" {
		t.Errorf("explicit dir: got %q", got)
	}
	t.Setenv("EMVIA_STRESS_CACHE", "/env/cache")
	if got := ResolveStressCacheDir(""); got != "/env/cache" {
		t.Errorf("env dir: got %q", got)
	}
	t.Setenv("EMVIA_STRESS_CACHE", "")
	if got := ResolveStressCacheDir(""); got == "" {
		t.Error("fallback dir empty")
	}
}

// TestNewCLIAnalyzer pins the -fast structure the command-line tools share
// and the -stresscache resolution: empty disables the cache, "auto" takes
// the default location, anything else is the directory.
func TestNewCLIAnalyzer(t *testing.T) {
	a, err := NewCLIAnalyzer(false, "")
	if err != nil {
		t.Fatal(err)
	}
	if a.Base != cudd.DefaultParams() || a.Disk != nil {
		t.Errorf("default analyzer: Base %+v, Disk %v", a.Base, a.Disk)
	}
	fast, err := NewCLIAnalyzer(true, "")
	if err != nil {
		t.Fatal(err)
	}
	want := cudd.DefaultParams()
	want.Margin = 1.0 * phys.Micron
	want.SubstrateThickness = 0.8 * phys.Micron
	want.StepOutside = 0.5 * phys.Micron
	want.StepZBulk = 1.0 * phys.Micron
	if fast.Base != want {
		t.Errorf("-fast structure %+v, want %+v", fast.Base, want)
	}
	env := t.TempDir()
	t.Setenv("EMVIA_STRESS_CACHE", env)
	auto, err := NewCLIAnalyzer(false, "auto")
	if err != nil {
		t.Fatal(err)
	}
	if auto.Disk == nil || auto.Disk.Dir() != env {
		t.Errorf(`-stresscache auto: cache %v, want one in %s`, auto.Disk, env)
	}
	dir := t.TempDir()
	explicit, err := NewCLIAnalyzer(false, dir)
	if err != nil {
		t.Fatal(err)
	}
	if explicit.Disk == nil || explicit.Disk.Dir() != dir {
		t.Errorf("-stresscache %s: cache %v", dir, explicit.Disk)
	}
}

// TestAnalyzerPersistentCache proves StressFor consults the disk cache: a
// pre-seeded entry under the exact key the analyzer derives is returned
// without running any FEA (the seeded values are physically impossible, so a
// real solve could not produce them).
func TestAnalyzerPersistentCache(t *testing.T) {
	dir := t.TempDir()
	a := fastAnalyzer()
	if err := a.EnableStressCache(dir); err != nil {
		t.Fatal(err)
	}

	// First run: cold cache, real FEA, entry written to disk.
	s1, err := a.StressFor(cudd.Plus, a.Base.LayerPair, 2, 2*phys.Micron)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("cache dir has %d entries after first solve, want 1", len(ents))
	}

	// Second analyzer, same cache dir: must read the stored matrix back.
	b := fastAnalyzer()
	if err := b.EnableStressCache(dir); err != nil {
		t.Fatal(err)
	}
	s2, err := b.StressFor(cudd.Plus, b.Base.LayerPair, 2, 2*phys.Micron)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		for j := range s1[i] {
			if s1[i][j] != s2[i][j] {
				t.Fatalf("disk round-trip changed sigma[%d][%d]: %g != %g", i, j, s1[i][j], s2[i][j])
			}
		}
	}

	// Third analyzer with a poisoned entry: StressFor must return the
	// poisoned values, proving the FEA was skipped on a warm cache.
	p := b.Base
	p.Pattern = cudd.Plus
	p.ArrayN = 2
	p.WireWidth = 2 * phys.Micron
	key := b.Disk.Key(p, b.FEA)
	want := [][]float64{{-1, -2}, {-3, -4}}
	if err := b.Disk.Put(key, want); err != nil {
		t.Fatal(err)
	}
	cDir := fastAnalyzer()
	if err := cDir.EnableStressCache(dir); err != nil {
		t.Fatal(err)
	}
	got, err := cDir.StressFor(cudd.Plus, cDir.Base.LayerPair, 2, 2*phys.Micron)
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0] != -1 || got[1][1] != -4 {
		t.Errorf("warm-cache StressFor ran FEA instead of reading disk: %v", got)
	}
}
