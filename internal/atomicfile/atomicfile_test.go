package atomicfile

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestWriteReplaces: Write creates the directory, and a second Write of the
// same name replaces the first's bytes and leaves no temp file behind.
func TestWriteReplaces(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	for _, want := range [][]byte{[]byte("first"), []byte("second, longer")} {
		if err := Write(dir, "a.bin", ".a.tmp-", want); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(filepath.Join(dir, "a.bin")); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read back %q (err %v), want %q", got, err, want)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("directory holds %d entries, want only a.bin", len(ents))
	}
}

// TestWriteRemovesStaleTemps: after a write, the name's temp files older
// than StaleTempAge are gone; a fresh one (a live writer's) and an old temp
// file of another name stay.
func TestWriteRemovesStaleTemps(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, ".a.tmp-stale")
	fresh := filepath.Join(dir, ".a.tmp-fresh")
	other := filepath.Join(dir, ".b.tmp-stale")
	old := time.Now().Add(-StaleTempAge - time.Minute)
	for _, p := range []string{stale, fresh, other} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
		if p != fresh {
			if err := os.Chtimes(p, old, old); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := Write(dir, "a.bin", ".a.tmp-", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale temp file survived the write: %v", err)
	}
	for _, p := range []string{fresh, other} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("%s removed: %v", filepath.Base(p), err)
		}
	}
}

// TestWriteFailureLeavesNoTemp: a rename that fails (the name is a
// non-empty directory) is an error and removes its temp file.
func TestWriteFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "a.bin", "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Write(dir, "a.bin", ".a.tmp-", []byte("x")); err == nil {
		t.Fatal("write onto a directory succeeded")
	}
	if m, _ := filepath.Glob(filepath.Join(dir, ".a.tmp-*")); len(m) != 0 {
		t.Errorf("temp files left after a failed write: %v", m)
	}
}

// BenchmarkWrite times one Write into a directory that already holds 10 000
// entries, the size of a long-lived result directory.
func BenchmarkWrite(b *testing.B) {
	dir := b.TempDir()
	for i := 0; i < 10000; i++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%05d.json", i)), nil, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	buf := bytes.Repeat([]byte("x"), 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Write(dir, "a.json", ".a.tmp", buf); err != nil {
			b.Fatal(err)
		}
	}
}
