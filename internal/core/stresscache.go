package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"emvia/internal/cudd"
	"emvia/internal/fem"
	"emvia/internal/mat"
	"emvia/internal/telemetry"
)

// StressCache is the persistent on-disk layer under the Analyzer's in-memory
// stress map: one binary file per FEA characterization, addressed by a
// content hash of everything the result depends on — the full structure
// parameters (geometry, temperatures, mesh steps), the material table and
// the solver settings that affect the converged solution. Repeated CLI
// invocations with the same technology therefore skip the FEA entirely.
//
// An entry <key>.bin is a fixed little-endian layout: stressEntryMagic, the
// format version (u64), the key, n (u64), then the n×n per-via peak stress
// matrix as float64 bits, row-major. It round-trips every finite value bit
// for bit.
//
// Writes go through a temp file in the cache directory followed by an atomic
// rename, so concurrent writers (or a crash mid-write) can never leave a
// partially written entry: readers see either the old file, the new file or
// no file. Unreadable, truncated or version-mismatched entries are treated
// as misses and rewritten after recompute.
type StressCache struct {
	dir string
}

// stressCacheVersion is bumped whenever the FEA discretization, the key
// schema or the entry format changes meaning; old entries then miss and are
// recomputed. Version 2 switched the key payload from JSON to the fixed
// binary layout below; version 3 switched the entry from JSON to binary
// and renamed it from <key>.json to <key>.bin.
const stressCacheVersion = 3

// stressEntryMagic opens every entry file.
const stressEntryMagic = "emvia-sigma-t\n"

// stressKeyParamFields pins the number of cudd.Params fields the binary key
// encoding covers. appendParams must encode every field, so adding a field
// to cudd.Params requires extending appendParams, bumping stressCacheVersion
// and updating this count — a reflection test enforces all three.
const stressKeyParamFields = 21

// ResolveStressCacheDir picks the cache directory: an explicit dir wins,
// then the EMVIA_STRESS_CACHE environment variable, then
// os.UserCacheDir()/emvia/stress.
func ResolveStressCacheDir(dir string) string {
	if dir != "" {
		return dir
	}
	if env := os.Getenv("EMVIA_STRESS_CACHE"); env != "" {
		return env
	}
	base, err := os.UserCacheDir()
	if err != nil {
		return ".emvia-stress-cache"
	}
	return filepath.Join(base, "emvia", "stress")
}

// OpenStressCache opens a cache rooted at dir; empty dir resolves via
// ResolveStressCacheDir. The directory itself is created lazily on first
// Put, so opening (which happens on every CLI start, and once per iteration
// in the warm-cache benchmark) touches the filesystem not at all.
func OpenStressCache(dir string) (*StressCache, error) {
	return &StressCache{dir: ResolveStressCacheDir(dir)}, nil
}

// Dir returns the cache directory.
func (c *StressCache) Dir() string { return c.dir }

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// appendParams lays out every cudd.Params field in declaration order. The
// layout is fixed-width, so no separators are needed for injectivity (the
// one variable-length key component, the preconditioner name, is
// length-prefixed by the caller).
func appendParams(b []byte, p *cudd.Params) []byte {
	b = appendU64(b, uint64(p.Pattern))
	b = appendU64(b, uint64(p.LayerPair.Lower))
	b = appendU64(b, uint64(p.LayerPair.Upper))
	b = appendU64(b, uint64(p.ArrayN))
	b = appendF64(b, p.WireWidth)
	b = appendF64(b, p.ViaArea)
	b = appendF64(b, p.ViaSpacing)
	b = appendF64(b, p.AnnealT)
	b = appendF64(b, p.OperatingT)
	b = appendF64(b, p.MetalThicknessIntermediate)
	b = appendF64(b, p.MetalThicknessTop)
	b = appendF64(b, p.ViaHeight)
	b = appendF64(b, p.CapThickness)
	b = appendF64(b, p.LinerThickness)
	b = appendF64(b, p.Margin)
	b = appendF64(b, p.SubstrateThickness)
	b = appendF64(b, p.UnderILD)
	b = appendF64(b, p.OverILD)
	b = appendF64(b, p.StepArray)
	b = appendF64(b, p.StepOutside)
	b = appendF64(b, p.StepZMetal)
	b = appendF64(b, p.StepZBulk)
	return b
}

// Key derives the content-addressed cache key for one characterization: a
// SHA-256 over a fixed binary payload covering the schema version, every
// structure parameter, the solver settings that change the converged result
// (worker count deliberately excluded — parallel kernels are bit-identical)
// and the material table. The payload fits a stack buffer, so deriving a key
// costs a single allocation (the hex string).
func (c *StressCache) Key(p cudd.Params, opt fem.SolveOptions) string {
	tol := opt.Tol
	if tol == 0 {
		tol = 1e-8 // fem.Solve's default
	}
	precond := opt.Precond
	if precond == "" {
		precond = "auto"
	}
	var arr [512]byte
	b := append(arr[:0], "emvia-stress"...)
	b = appendU64(b, stressCacheVersion)
	b = appendParams(b, &p)
	b = appendF64(b, tol)
	b = appendU64(b, uint64(opt.MaxIter))
	b = appendU64(b, uint64(len(precond)))
	b = append(b, precond...)
	// The material table is a map; scanning the full (one-byte) ID space in
	// order makes the encoding deterministic without sorting allocations.
	for id := 0; id < 256; id++ {
		e, ok := mat.Table1[mat.ID(id)]
		if !ok {
			continue
		}
		b = append(b, byte(id))
		b = appendF64(b, e.E)
		b = appendF64(b, e.Nu)
		b = appendF64(b, e.CTE)
	}
	sum := sha256.Sum256(b)
	var dst [2 * sha256.Size]byte
	hex.Encode(dst[:], sum[:])
	return string(dst[:])
}

func (c *StressCache) path(key string) string {
	return c.dir + string(os.PathSeparator) + key + ".bin"
}

// Get loads the entry for key. Any read, decode, version or key mismatch is
// reported as a miss — the caller recomputes and rewrites.
func (c *StressCache) Get(key string) ([][]float64, bool) {
	sigma, outcome := c.get(key)
	if r := telemetry.Default(); r != nil {
		switch outcome {
		case cacheHit:
			r.Counter(telemetry.StressDiskHits).Inc()
		case cacheMiss:
			r.Counter(telemetry.StressDiskMisses).Inc()
		case cacheCorrupt:
			r.Counter(telemetry.StressDiskBad).Inc()
		}
	}
	return sigma, outcome == cacheHit
}

// cacheOutcome distinguishes a plain miss (the entry does not exist) from a
// corrupt entry (present but unreadable, truncated, version-skewed or
// shape-invalid). Both behave as misses toward the caller; telemetry counts
// them separately because corruption indicates a real problem — a crashed
// writer bypassing the atomic rename, manual edits, a skewed build — while
// misses are just cold caches.
type cacheOutcome int

const (
	cacheHit cacheOutcome = iota
	cacheMiss
	cacheCorrupt
)

// stressReadBuf recycles the file-content scratch across Gets (and across
// StressCache instances — the bytes never outlive one get call, which copies
// the decoded floats out before returning).
var stressReadBuf = sync.Pool{New: func() any { b := make([]byte, 0, 16<<10); return &b }}

func (c *StressCache) get(key string) ([][]float64, cacheOutcome) {
	bp := stressReadBuf.Get().(*[]byte)
	defer func() { stressReadBuf.Put(bp) }()
	buf, err := readEntryFile(c.path(key), *bp)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, cacheMiss
		}
		return nil, cacheCorrupt
	}
	*bp = buf
	sigma, ok := decodeStressEntry(buf, key)
	if !ok {
		return nil, cacheCorrupt
	}
	return sigma, cacheHit
}

// staleTempAge is how old a key's temp file must be before Put takes it for
// the leftover of a writer killed between CreateTemp and Rename. A live
// writer holds its temp file for the length of one write.
const staleTempAge = time.Hour

// Put stores sigma under key via write-to-temp + atomic rename, creating the
// cache directory on first use (deferred out of OpenStressCache so opening a
// cache stays read-only). An empty, non-square or non-finite matrix is an
// error and writes nothing: Get would count such an entry corrupt forever.
// After a successful rename Put removes the key's temp files older than
// staleTempAge.
func (c *StressCache) Put(key string, sigma [][]float64) error {
	n := len(sigma)
	if n == 0 {
		return errors.New("core: stress cache: empty stress matrix")
	}
	buf := make([]byte, 0, len(stressEntryMagic)+8+len(key)+8+8*n*n)
	buf = append(buf, stressEntryMagic...)
	buf = appendU64(buf, stressCacheVersion)
	buf = append(buf, key...)
	buf = appendU64(buf, uint64(n))
	for i, row := range sigma {
		if len(row) != n {
			return fmt.Errorf("core: stress cache: row %d has %d values, want %d", i, len(row), n)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("core: stress cache: sigma[%d][%d] = %g is not finite", i, j, v)
			}
			buf = appendF64(buf, v)
		}
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return fmt.Errorf("core: stress cache dir: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, ".tmp-"+key+"-*")
	if err != nil {
		return fmt.Errorf("core: stress cache write: %w", err)
	}
	_, werr := tmp.Write(buf)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr == nil {
			werr = cerr
		}
		return fmt.Errorf("core: stress cache write: %w", werr)
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("core: stress cache rename: %w", err)
	}
	c.removeStaleTemps(key)
	return nil
}

// removeStaleTemps deletes key's temp files older than staleTempAge. It is
// best-effort: an entry is already in place, so a failure here costs only
// disk space.
func (c *StressCache) removeStaleTemps(key string) {
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	prefix := ".tmp-" + key + "-"
	for _, de := range ents {
		if !strings.HasPrefix(de.Name(), prefix) {
			continue
		}
		if fi, err := de.Info(); err == nil && time.Since(fi.ModTime()) > staleTempAge {
			os.Remove(filepath.Join(c.dir, de.Name()))
		}
	}
}

// decodeStressEntry accepts exactly the bytes Put writes for key: the magic,
// the current version, the key, n, then exactly n² finite values. The
// matrix comes back as one backing slice plus a row-header slice, so a warm
// Get performs two matrix allocations regardless of size.
func decodeStressEntry(buf []byte, key string) ([][]float64, bool) {
	hdr := len(stressEntryMagic) + 8 + len(key) + 8
	if len(buf) < hdr || string(buf[:len(stressEntryMagic)]) != stressEntryMagic {
		return nil, false
	}
	b := buf[len(stressEntryMagic):hdr]
	if binary.LittleEndian.Uint64(b) != stressCacheVersion || string(b[8:8+len(key)]) != key {
		return nil, false
	}
	n := binary.LittleEndian.Uint64(b[8+len(key):])
	body := buf[hdr:]
	// The body must hold exactly n² values; the division form cannot
	// overflow for any n.
	m := uint64(len(body)) / 8
	if n == 0 || uint64(len(body))%8 != 0 || m/n != n || m%n != 0 {
		return nil, false
	}
	backing := make([]float64, m)
	for i := range backing {
		v := math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, false
		}
		backing[i] = v
	}
	rows := make([][]float64, n)
	for r := range rows {
		rows[r] = backing[uint64(r)*n : uint64(r+1)*n : uint64(r+1)*n]
	}
	return rows, true
}
