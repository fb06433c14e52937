package solver

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"emvia/internal/sparse"
	"emvia/internal/telemetry"
)

// resetSymbolics empties the process-wide symbolic memo, so the next factor
// of any pattern orders and analyses it afresh.
func resetSymbolics() { symbolics = newSymbolicMemo(symbolicBudget) }

// sameFactor fails unless got and want have the same ordering and
// bit-identical panels.
func sameFactor(t *testing.T, what string, got, want *SupernodalCholesky) {
	t.Helper()
	if len(got.Perm()) != len(want.Perm()) || len(got.px) != len(want.px) {
		t.Fatalf("%s: n %d, %d panel values; want %d, %d", what, len(got.Perm()), len(got.px), len(want.Perm()), len(want.px))
	}
	for k, p := range want.Perm() {
		if got.Perm()[k] != p {
			t.Fatalf("%s: perm[%d] = %d, want %d", what, k, got.Perm()[k], p)
		}
	}
	for i, v := range want.px {
		if math.Float64bits(got.px[i]) != math.Float64bits(v) {
			t.Fatalf("%s: panel value %d is %v, want %v", what, i, got.px[i], v)
		}
	}
}

// TestSymbolicMemoHitMatchesMiss factors one matrix through a memo that has
// already analysed its pattern (from other values) and through an empty one:
// the hit reuses the stored ordering and must match the miss, and the
// unmemoized AMD-ordered factor, in ordering, panel bits, solves and the
// ErrNotSPD message of an indefinite matrix.
func TestSymbolicMemoHitMatchesMiss(t *testing.T) {
	a := gridLaplacian(13, 11)
	n, _ := a.Dims()
	primed := newSymbolicMemo(symbolicBudget)
	first, err := primed.factor(withDiagonal(a, map[int]float64{0: 7, 5: 9}))
	if err != nil {
		t.Fatal(err)
	}
	hit, err := primed.factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if &hit.Perm()[0] != &first.Perm()[0] {
		t.Fatal("second factor of the pattern did not reuse the stored ordering")
	}
	miss, err := newSymbolicMemo(symbolicBudget).factor(a)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := newSupernodalCholeskyOrdered(a, AMDOrder(a))
	if err != nil {
		t.Fatal(err)
	}
	sameFactor(t, "hit vs miss", hit, miss)
	sameFactor(t, "hit vs unmemoized", hit, direct)

	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i) + 0.5)
	}
	xh, xm := make([]float64, n), make([]float64, n)
	if err := hit.SolveInto(xh, b); err != nil {
		t.Fatal(err)
	}
	if err := miss.SolveInto(xm, b); err != nil {
		t.Fatal(err)
	}
	for i := range xm {
		if math.Float64bits(xh[i]) != math.Float64bits(xm[i]) {
			t.Fatalf("solution %d: hit %v, miss %v", i, xh[i], xm[i])
		}
	}

	bad := withDiagonal(a, map[int]float64{n / 2: -1})
	_, errHit := primed.factor(bad)
	_, errMiss := newSymbolicMemo(symbolicBudget).factor(bad)
	if errHit == nil || errMiss == nil || errHit.Error() != errMiss.Error() {
		t.Fatalf("indefinite matrix: hit error %v, miss error %v; want the same ErrNotSPD", errHit, errMiss)
	}
}

// TestSymbolicMemoRejectsEmptyMatrix: a 0×0 matrix is an error, every time,
// instead of a panic in the symbolic analysis that would leave a pending
// memo entry behind for the next lookup to wait on forever.
func TestSymbolicMemoRejectsEmptyMatrix(t *testing.T) {
	m := newSymbolicMemo(symbolicBudget)
	for i := 0; i < 2; i++ {
		if _, err := m.factor(sparse.NewTriplet(0, 0, 0).ToCSR()); err == nil {
			t.Fatal("factored an empty matrix")
		}
	}
	if len(m.buckets) != 0 {
		t.Fatalf("empty matrix left %d buckets", len(m.buckets))
	}
}

// TestSymbolicMemoVerifiesPattern forces two patterns with equal dimension
// and entry count but different columns into one hash bucket: each must get
// its own analysis, and a repeat lookup must find its own.
func TestSymbolicMemoVerifiesPattern(t *testing.T) {
	a1, a2 := gridLaplacian(6, 8), gridLaplacian(8, 6)
	n1, _ := a1.Dims()
	n2, _ := a2.Dims()
	if n1 != n2 || a1.NNZ() != a2.NNZ() {
		t.Fatalf("patterns differ in size: n %d/%d, nnz %d/%d", n1, n2, a1.NNZ(), a2.NNZ())
	}
	const forced = 42
	m := newSymbolicMemo(symbolicBudget)
	s1 := m.symbolic(forced, a1)
	s2 := m.symbolic(forced, a2)
	if &s1.perm[0] == &s2.perm[0] {
		t.Fatal("a colliding pattern reused another pattern's analysis")
	}
	if got := len(m.buckets[forced]); got != 2 {
		t.Fatalf("bucket holds %d entries, want 2", got)
	}
	want2 := AMDOrder(a2)
	for k := range want2 {
		if s2.perm[k] != want2[k] {
			t.Fatalf("second pattern's perm[%d] = %d, want %d", k, s2.perm[k], want2[k])
		}
	}
	if again := m.symbolic(forced, a1); &again.perm[0] != &s1.perm[0] {
		t.Fatal("repeat lookup of the first pattern did not find its entry")
	}
	if again := m.symbolic(forced, a2); &again.perm[0] != &s2.perm[0] {
		t.Fatal("repeat lookup of the second pattern did not find its entry")
	}
}

// TestSymbolicMemoEvictsWithinBudget factors a run of distinct patterns
// through a memo whose budget holds only a few: the retained bytes must stay
// under the budget, the newest pattern must stay, and a pattern larger than
// the whole budget must still factor without being retained.
func TestSymbolicMemoEvictsWithinBudget(t *testing.T) {
	probe := newSymbolicMemo(symbolicBudget)
	probe.symbolic(patternHash(gridLaplacian(16, 16)), gridLaplacian(16, 16))
	m := newSymbolicMemo(3 * probe.bytes)
	for k := 10; k <= 24; k++ {
		a := gridLaplacian(k, k)
		s := m.symbolic(patternHash(a), a)
		retained, entries := 0, 0
		for el := m.lru.Front(); el != nil; el = el.Next() {
			retained += el.Value.(*symbolicEntry).size
			entries++
		}
		buckets := 0
		for _, b := range m.buckets {
			buckets += len(b)
		}
		if m.bytes > m.budget || retained != m.bytes || buckets != entries {
			t.Fatalf("after %d×%d: %d bytes retained (%d counted, %d entries, %d in buckets), budget %d",
				k, k, m.bytes, retained, entries, buckets, m.budget)
		}
		if again := m.symbolic(patternHash(a), a); &again.perm[0] != &s.perm[0] {
			t.Fatalf("after %d×%d: the newest pattern was evicted", k, k)
		}
	}
	tiny := newSymbolicMemo(1)
	a := gridLaplacian(9, 9)
	c, err := tiny.factor(a)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newSupernodalCholeskyOrdered(a, AMDOrder(a))
	if err != nil {
		t.Fatal(err)
	}
	sameFactor(t, "over-budget pattern", c, want)
	if tiny.bytes != 0 || tiny.lru.Len() != 0 || len(tiny.buckets) != 0 {
		t.Fatalf("memo with a 1-byte budget retains %d bytes in %d entries", tiny.bytes, tiny.lru.Len())
	}
}

// TestSymbolicMemoConcurrentMisses factors three patterns from eight
// goroutines at once through NewSupernodalCholeskyFromCSR: each pattern must
// be analysed exactly once (three misses, the rest hits) and every factor
// must match the serial unmemoized one bit for bit.
func TestSymbolicMemoConcurrentMisses(t *testing.T) {
	reg := telemetry.New()
	telemetry.SetDefault(reg)
	t.Cleanup(func() { telemetry.SetDefault(nil) })
	resetSymbolics()
	t.Cleanup(resetSymbolics)

	mats := []*sparse.CSR{gridLaplacian(20, 20), gridLaplacian(17, 23), blockDiag(laplacian1D(50), gridLaplacian(12, 9))}
	want := make([]*SupernodalCholesky, len(mats))
	for i, a := range mats {
		var err error
		if want[i], err = newSupernodalCholeskyOrdered(a, AMDOrder(a)); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 8
	got := make([][]*SupernodalCholesky, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		got[w] = make([]*SupernodalCholesky, len(mats))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range mats {
				i := (w + k) % len(mats)
				if got[w][i], errs[w] = NewSupernodalCholeskyFromCSR(mats[i]); errs[w] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		for i := range mats {
			sameFactor(t, "concurrent vs serial", got[w][i], want[i])
			if &got[w][i].Perm()[0] != &got[0][i].Perm()[0] {
				t.Fatalf("workers 0 and %d hold different analyses of pattern %d", w, i)
			}
		}
	}
	if miss := reg.Counter(telemetry.SparseSymbolicMisses).Value(); miss != int64(len(mats)) {
		t.Errorf("%d symbolic misses, want %d", miss, len(mats))
	}
	if hit := reg.Counter(telemetry.SparseSymbolicHits).Value(); hit != int64(workers*len(mats)-len(mats)) {
		t.Errorf("%d symbolic hits, want %d", hit, workers*len(mats)-len(mats))
	}
}

// twoLayerLaplacian builds the conductance matrix of a two-layer nx×nx power
// grid: layer 0 wires run along x, layer 1 wires along y, a via joins the two
// layers at every crossing, and a small leak sits on every diagonal. Its
// 2·nx² unknowns match the free-node count of a PG1 grid of the same nx.
func twoLayerLaplacian(nx int) *sparse.CSR {
	n := 2 * nx * nx
	tr := sparse.NewTriplet(n, n, 7*n)
	id := func(l, ix, iy int) int { return (l*nx+ix)*nx + iy }
	edge := func(i, j int, g float64) {
		tr.Add(i, i, g)
		tr.Add(j, j, g)
		tr.Add(i, j, -g)
		tr.Add(j, i, -g)
	}
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < nx; iy++ {
			tr.Add(id(0, ix, iy), id(0, ix, iy), 1e-3)
			tr.Add(id(1, ix, iy), id(1, ix, iy), 1e-3)
			edge(id(0, ix, iy), id(1, ix, iy), 5)
			if ix+1 < nx {
				edge(id(0, ix, iy), id(0, ix+1, iy), 1)
			}
			if iy+1 < nx {
				edge(id(1, ix, iy), id(1, ix, iy+1), 1)
			}
		}
	}
	return tr.ToCSR()
}

var coldFactor *SupernodalCholesky

// BenchmarkSupernodalColdFactor times the cold path of a grid factor, which
// the symbolic memo hides from every later factor of a pattern: the memo is
// emptied before each op, so every op pays AMD ordering, symbolic analysis
// and the numeric factorization of a two-layer grid Laplacian.
func BenchmarkSupernodalColdFactor(b *testing.B) {
	for _, nx := range []int{64, 100} {
		a := twoLayerLaplacian(nx)
		b.Run(fmt.Sprintf("nx%d", nx), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				resetSymbolics()
				b.StartTimer()
				c, err := NewSupernodalCholeskyFromCSR(a)
				if err != nil {
					b.Fatal(err)
				}
				coldFactor = c
			}
			resetSymbolics()
		})
	}
}
