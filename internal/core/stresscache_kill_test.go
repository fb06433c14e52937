//go:build unix

package core

import (
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"emvia/internal/cudd"
	"emvia/internal/fem"
	"emvia/internal/telemetry"
)

// stressKillDirEnv carries the cache directory to the writer child of
// TestStressCacheSurvivesKill; its presence marks the child.
const stressKillDirEnv = "EMVIA_TEST_STRESS_KILL_DIR"

// stressKillKeys derives the writer's keys, one per array size.
func stressKillKeys(c *StressCache) []string {
	keys := make([]string, 4)
	for i := range keys {
		p := cudd.DefaultParams()
		p.ArrayN = i + 1
		keys[i] = c.Key(p, fem.SolveOptions{})
	}
	return keys
}

// stressKillMatrix is the matrix the writer stores under key i: large
// enough that a write takes a while, distinct for every key.
func stressKillMatrix(i int) [][]float64 {
	const n = 64
	sigma := make([][]float64, n)
	for r := range sigma {
		sigma[r] = make([]float64, n)
		for col := range sigma[r] {
			sigma[r][col] = float64(i+1)*1e8 + float64(r*n+col)
		}
	}
	return sigma
}

// TestStressCacheSurvivesKill runs a writer that loops Put over a few keys
// in a child process, SIGKILLs it mid-loop, and requires every entry left
// behind to read back exactly as written: the temp-file-and-rename write
// never exposes a torn entry, and leftover temp files are never read.
func TestStressCacheSurvivesKill(t *testing.T) {
	if dir := os.Getenv(stressKillDirEnv); dir != "" {
		c, err := OpenStressCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		keys := stressKillKeys(c)
		// The deadline only bounds an orphaned child; the parent kills it
		// long before.
		for i, end := 0, time.Now().Add(30*time.Second); time.Now().Before(end); i++ {
			if err := c.Put(keys[i%len(keys)], stressKillMatrix(i%len(keys))); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	dir := t.TempDir()
	c, err := OpenStressCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := stressKillKeys(c)
	child := exec.Command(os.Args[0], "-test.run=^TestStressCacheSurvivesKill$")
	child.Env = append(os.Environ(), stressKillDirEnv+"="+dir)
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait for the first entry, so the kill lands inside the write loop.
	for end := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if _, err := os.Stat(c.path(keys[0])); err == nil {
			break
		}
		if time.Now().After(end) {
			child.Process.Kill()
			child.Wait()
			t.Fatal("writer produced no entry within 10 s")
		}
	}
	time.Sleep(200 * time.Millisecond)
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = child.Wait() // reports the kill

	reg := telemetry.New()
	telemetry.SetDefault(reg)
	t.Cleanup(func() { telemetry.SetDefault(nil) })
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, temps := 0, 0
	for _, de := range ents {
		name := de.Name()
		switch {
		case strings.HasPrefix(name, ".tmp-"):
			// Entries are looked up only by c.path(key); a temp name can
			// never be one.
			temps++
			if strings.HasSuffix(name, ".bin") {
				t.Errorf("temp file %s carries the entry suffix", name)
			}
		case strings.HasSuffix(name, ".bin"):
			entries++
			i := -1
			for k, key := range keys {
				if name == key+".bin" {
					i = k
				}
			}
			if i < 0 {
				t.Errorf("entry %s is under no key the writer used", name)
				continue
			}
			got, ok := c.Get(keys[i])
			if !ok {
				t.Errorf("entry %s missed after the kill", name)
				continue
			}
			want := stressKillMatrix(i)
			for r := range want {
				for col := range want[r] {
					if math.Float64bits(got[r][col]) != math.Float64bits(want[r][col]) {
						t.Fatalf("entry %s: sigma[%d][%d] = %g, want %g", name, r, col, got[r][col], want[r][col])
					}
				}
			}
		default:
			t.Errorf("unexpected file %s in the cache directory", name)
		}
	}
	if entries == 0 {
		t.Fatal("no entry survived the kill")
	}
	if bad := reg.Counter(telemetry.StressDiskBad).Value(); bad != 0 {
		t.Errorf("%d corrupt entries after the kill", bad)
	}
	t.Logf("%d entries, %d leftover temp files", entries, temps)

	// The directory stays usable: a new Put over a killed key reads back.
	fresh := [][]float64{{-1, -2}, {-3, -4}}
	if err := c.Put(keys[0], fresh); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get(keys[0]); !ok || got[1][0] != -3 {
		t.Fatalf("Put/Get after the kill: ok=%v got=%v", ok, got)
	}
}
