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
	"time"
)

// StaleTempAge is how old a temp file must be before Write takes it for the
// leftover of a writer killed between creating it and renaming it. A live
// writer holds its temp file for the length of one write.
const StaleTempAge = time.Hour

// Write stores buf as dir/name, creating dir on first use. The bytes go to
// a temp file dir/<tmpPrefix><random>, which is closed and renamed onto
// name; on any error the temp file is removed. After the rename Write
// removes the temp files named tmpPrefix* that are older than StaleTempAge,
// so each name's leftovers go with its next write. That sweep is
// best-effort: the file is already in place, so a failure costs only disk
// space.
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

// removeStaleTemps deletes dir's files named tmpPrefix* older than
// StaleTempAge.
func removeStaleTemps(dir, tmpPrefix string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, de := range ents {
		if !strings.HasPrefix(de.Name(), tmpPrefix) {
			continue
		}
		if fi, err := de.Info(); err == nil && time.Since(fi.ModTime()) > StaleTempAge {
			os.Remove(filepath.Join(dir, de.Name()))
		}
	}
}
