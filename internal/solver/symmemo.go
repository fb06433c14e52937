package solver

import (
	"container/list"
	"fmt"
	"slices"
	"sync"

	"emvia/internal/sparse"
	"emvia/internal/telemetry"
)

// symbolicBudget bounds the bytes the process-wide symbolic memo retains:
// patterns plus symbolic structures, about 2.8 MB for an nx100 power grid and
// 11.5 MB for nx200.
const symbolicBudget = 64 << 20

// symbolics is the memo behind NewSupernodalCholeskyFromCSR.
var symbolics = newSymbolicMemo(symbolicBudget)

// symbolicMemo maps a sparsity pattern to its AMD ordering and supernodal
// symbolic structure, so every factor of one pattern in a process shares a
// single analysis. An entry is a pure function of the pattern and holds no
// numeric value; a lookup matches on a hash of the pattern and then confirms
// by comparing the whole pattern. Concurrent misses on one pattern analyse it
// once: the first inserts a pending entry and the others wait for it. Ready
// entries are evicted least recently used first once their bytes exceed the
// budget.
type symbolicMemo struct {
	mu      sync.Mutex
	budget  int
	bytes   int                         // retained by the ready entries in lru
	buckets map[uint64][]*symbolicEntry // by pattern hash; pending and ready
	lru     list.List                   // ready entries, most recently used first
}

// symbolicEntry is one pattern and its analysis. ptr and cols are a private
// copy of the pattern. sym and size are written once, before done closes.
type symbolicEntry struct {
	hash uint64
	ptr  []int
	cols []int32
	done chan struct{}
	sym  snSymbolic
	size int
	elem *list.Element // position in lru; nil while pending
}

func newSymbolicMemo(budget int) *symbolicMemo {
	return &symbolicMemo{budget: budget, buckets: make(map[uint64][]*symbolicEntry)}
}

// factor is NewSupernodalCholeskyFromCSR against memo m. An empty matrix is
// rejected here: the symbolic analysis cannot partition zero columns, and a
// miss that panicked would leave its pending entry for others to wait on.
func (m *symbolicMemo) factor(a *sparse.CSR) (*SupernodalCholesky, error) {
	n, cols := a.Dims()
	if n != cols || n == 0 {
		return nil, fmt.Errorf("solver: supernodal factor needs a non-empty square matrix, got %d×%d", n, cols)
	}
	return newNumeric(m.symbolic(patternHash(a), a), a)
}

// symbolic returns the ordering and symbolic structure of a's pattern, whose
// hash is h: from a matching entry, waiting for it if it is still being
// analysed, or by analysing a and storing the result.
func (m *symbolicMemo) symbolic(h uint64, a *sparse.CSR) snSymbolic {
	ptr, cols := a.Pattern()
	m.mu.Lock()
	for _, e := range m.buckets[h] {
		if slices.Equal(e.ptr, ptr) && slices.Equal(e.cols, cols) {
			if e.elem != nil {
				m.lru.MoveToFront(e.elem)
			}
			m.mu.Unlock()
			record(telemetry.SparseSymbolicHits)
			<-e.done
			return e.sym
		}
	}
	e := &symbolicEntry{hash: h, ptr: slices.Clone(ptr), cols: slices.Clone(cols), done: make(chan struct{})}
	m.buckets[h] = append(m.buckets[h], e)
	m.mu.Unlock()
	record(telemetry.SparseSymbolicMisses)

	perm := AMDOrder(a)
	e.sym = snSymbolic{n: len(perm), perm: perm}
	e.sym.symbolic(a, InversePermutation(perm))
	e.size = e.sym.bytes() + 8*len(e.ptr) + 4*len(e.cols)
	close(e.done)

	m.mu.Lock()
	e.elem = m.lru.PushFront(e)
	m.bytes += e.size
	for m.bytes > m.budget {
		m.evict(m.lru.Back().Value.(*symbolicEntry))
	}
	m.mu.Unlock()
	return e.sym
}

// evict drops ready entry e from the memo; factors built on it keep their
// copy of its structure. m.mu must be held.
func (m *symbolicMemo) evict(e *symbolicEntry) {
	m.lru.Remove(e.elem)
	m.bytes -= e.size
	bucket := slices.DeleteFunc(m.buckets[e.hash], func(x *symbolicEntry) bool { return x == e })
	if len(bucket) == 0 {
		delete(m.buckets, e.hash)
	} else {
		m.buckets[e.hash] = bucket
	}
}

// patternHash hashes a's dimension, row pointers and column indices word by
// word (FNV-1a's offset and prime over words instead of bytes). It only
// picks a bucket; a lookup confirms every match against the stored pattern.
func patternHash(a *sparse.CSR) uint64 {
	const prime = 0x100000001b3
	n, _ := a.Dims()
	ptr, cols := a.Pattern()
	h := (uint64(0xcbf29ce484222325) ^ uint64(n)) * prime
	for _, p := range ptr {
		h = (h ^ uint64(p)) * prime
	}
	for _, c := range cols {
		h = (h ^ uint64(c)) * prime
	}
	return h
}

// bytes returns the memory held by the structure's slices.
func (s *snSymbolic) bytes() int {
	return 8*(len(s.perm)+len(s.snRptr)+len(s.pptr)+len(s.asColPtr)+len(s.uptr)) +
		4*(len(s.snCol)+len(s.snOf)+len(s.snRows)+len(s.asSlot)+len(s.asRI)+
			len(s.updSrc)+len(s.updRS)+len(s.updNC))
}
