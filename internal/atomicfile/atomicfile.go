// Package atomicfile is the one write path of every on-disk cache (the FEA
// stress cache, emserve's result and partial manifests): a file is written
// whole to a temp file in its directory and renamed onto its name, so a
// reader sees the old file, the new file or no file, never a torn one —
// also when the writer is killed in the middle of a write.
package atomicfile

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// StaleTempAge is how old a temp file must be before Write takes it for the
// leftover of a writer killed between creating it and renaming it. A live
// writer holds its temp file for the length of one write.
const StaleTempAge = time.Hour

// Write stores buf as dir/name, creating dir on first use. The bytes go to
// a temp file dir/<tmpPrefix><random>, which is closed and renamed onto
// name; on any error the temp file is removed. tmpPrefix starts with a dot,
// so temp files are hidden and told apart from entries. After the rename
// Write removes the temp files named tmpPrefix* that were older than
// StaleTempAge when the process first wrote into dir, so each name's
// leftovers go with its next write. That sweep is best-effort: the file is
// already in place, so a failure costs only disk space.
func Write(dir, name, tmpPrefix string, buf []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, tmpPrefix+"*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(buf)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	removeStaleTemps(dir, tmpPrefix)
	return nil
}

// staleTemps remembers, per directory, the stale temp files not yet
// removed. Only a killed writer leaves one behind, so each directory is
// listed once per process, at its first Write, and a write into a
// directory of n files costs O(1) instead of O(n) afterwards.
var staleTemps = struct {
	sync.Mutex
	dirs map[string][]string // directory → names of stale temp files
}{dirs: make(map[string][]string)}

// removeStaleTemps deletes the remembered stale temp files of dir named
// tmpPrefix*, listing dir first if no Write of this process has.
func removeStaleTemps(dir, tmpPrefix string) {
	dir = filepath.Clean(dir)
	staleTemps.Lock()
	defer staleTemps.Unlock()
	names, listed := staleTemps.dirs[dir]
	if !listed {
		names = listStaleTemps(dir)
	}
	kept := names[:0]
	for _, name := range names {
		if strings.HasPrefix(name, tmpPrefix) {
			os.Remove(filepath.Join(dir, name))
		} else {
			kept = append(kept, name)
		}
	}
	staleTemps.dirs[dir] = kept
}

// listStaleTemps returns the names of dir's files that look like temp files
// (a leading dot) and are older than StaleTempAge.
func listStaleTemps(dir string) []string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, de := range ents {
		if !strings.HasPrefix(de.Name(), ".") {
			continue
		}
		if fi, err := de.Info(); err == nil && time.Since(fi.ModTime()) > StaleTempAge {
			names = append(names, de.Name())
		}
	}
	return names
}
