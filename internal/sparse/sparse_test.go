package sparse

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// at returns entry (i, j) of m, zero when it is not stored.
func at(m *CSR, i, j int) float64 {
	if s := m.SlotIndex(i, j); s >= 0 {
		return m.ValueAt(s)
	}
	return 0
}

func TestTripletToCSRBasic(t *testing.T) {
	tr := NewTriplet(3, 3, 0)
	tr.Add(0, 0, 1)
	tr.Add(1, 1, 2)
	tr.Add(2, 2, 3)
	tr.Add(0, 2, 4)
	tr.Add(2, 0, 5)
	m := tr.ToCSR()
	if r, c := m.Dims(); r != 3 || c != 3 {
		t.Fatalf("Dims = %d×%d, want 3×3", r, c)
	}
	want := [][]float64{{1, 0, 4}, {0, 2, 0}, {5, 0, 3}}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if got := at(m, i, j); got != want[i][j] {
				t.Errorf("At(%d,%d) = %g, want %g", i, j, got, want[i][j])
			}
		}
	}
	if m.NNZ() != 5 {
		t.Errorf("NNZ = %d, want 5", m.NNZ())
	}
}

func TestTripletDuplicatesSum(t *testing.T) {
	tr := NewTriplet(2, 2, 0)
	for i := 0; i < 10; i++ {
		tr.Add(0, 1, 0.5)
		tr.Add(1, 1, -0.25)
	}
	m := tr.ToCSR()
	if got := at(m, 0, 1); math.Abs(got-5) > 1e-12 {
		t.Errorf("summed duplicate At(0,1) = %g, want 5", got)
	}
	if got := at(m, 1, 1); math.Abs(got+2.5) > 1e-12 {
		t.Errorf("summed duplicate At(1,1) = %g, want -2.5", got)
	}
	if m.NNZ() != 2 {
		t.Errorf("NNZ after dedup = %d, want 2", m.NNZ())
	}
}

func TestAddZeroIsNoop(t *testing.T) {
	tr := NewTriplet(2, 2, 0)
	tr.Add(0, 0, 0)
	if tr.NNZ() != 0 {
		t.Errorf("NNZ after adding zero = %d, want 0", tr.NNZ())
	}
}

func TestAddOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add out of range did not panic")
		}
	}()
	tr := NewTriplet(2, 2, 0)
	tr.Add(2, 0, 1)
}

func TestEmptyMatrix(t *testing.T) {
	tr := NewTriplet(4, 3, 0)
	m := tr.ToCSR()
	x := []float64{1, 2, 3}
	y := []float64{1, 1, 1, 1}
	m.MulVecTo(y, x)
	for i, v := range y {
		if v != 0 {
			t.Errorf("empty matrix MulVecTo[%d] = %g, want 0", i, v)
		}
	}
	if m.NNZ() != 0 {
		t.Errorf("NNZ = %d, want 0", m.NNZ())
	}
}

// randomTriplet builds a random matrix in both triplet and dense form.
func randomTriplet(rng *rand.Rand, r, c, adds int) (*Triplet, []float64) {
	tr := NewTriplet(r, c, adds)
	dense := make([]float64, r*c)
	for k := 0; k < adds; k++ {
		i, j := rng.Intn(r), rng.Intn(c)
		v := rng.NormFloat64()
		tr.Add(i, j, v)
		dense[i*c+j] += v
	}
	return tr, dense
}

func TestCSRMatchesDenseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		r, c := 1+rng.Intn(12), 1+rng.Intn(12)
		tr, dense := randomTriplet(rng, r, c, rng.Intn(60))
		m := tr.ToCSR()
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if got, want := at(m, i, j), dense[i*c+j]; math.Abs(got-want) > 1e-9 {
					t.Fatalf("trial %d: At(%d,%d) = %g, want %g", trial, i, j, got, want)
				}
			}
		}
	}
}

func TestMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		r, c := 1+rng.Intn(10), 1+rng.Intn(10)
		tr, dense := randomTriplet(rng, r, c, rng.Intn(50))
		m := tr.ToCSR()
		x := make([]float64, c)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := make([]float64, r)
		m.MulVecTo(y, x)
		for i := 0; i < r; i++ {
			want := 0.0
			for j := 0; j < c; j++ {
				want += dense[i*c+j] * x[j]
			}
			if math.Abs(y[i]-want) > 1e-9 {
				t.Fatalf("trial %d: MulVecTo[%d] = %g, want %g", trial, i, y[i], want)
			}
		}
	}
}

func TestDiagonal(t *testing.T) {
	tr := NewTriplet(3, 3, 0)
	tr.Add(0, 0, 7)
	tr.Add(1, 2, 1)
	tr.Add(2, 2, -3)
	m := tr.ToCSR()
	d := m.Diagonal()
	want := []float64{7, 0, -3}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("Diagonal[%d] = %g, want %g", i, d[i], want[i])
		}
	}
}

func TestMulVecToDimensionPanics(t *testing.T) {
	m := NewTriplet(2, 3, 0).ToCSR()
	defer func() {
		if recover() == nil {
			t.Fatal("MulVecTo with bad dims did not panic")
		}
	}()
	m.MulVecTo(make([]float64, 2), make([]float64, 2))
}

// TestInt32DimensionGuard checks that NewTriplet, NewCSR and ToCSR refuse a
// dimension beyond the int32 column-index range before allocating anything
// of that size; the largest int32 dimension is accepted.
func TestInt32DimensionGuard(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("dimensions beyond int32 need a 64-bit int")
	}
	big := math.MaxInt32
	big++
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if msg, _ := r.(string); !strings.Contains(msg, "int32") {
				t.Errorf("%s: recovered %v, want a panic naming the int32 range", name, r)
			}
		}()
		f()
	}
	mustPanic("NewTriplet rows", func() { NewTriplet(big, 1, 0) })
	mustPanic("NewTriplet cols", func() { NewTriplet(1, big, 0) })
	mustPanic("NewCSR", func() { NewCSR(1, big, []int{0, 0}, nil, nil) })
	mustPanic("ToCSR", func() { (&Triplet{nrows: big, ncols: 1}).ToCSR() })
	if tr := NewTriplet(1, math.MaxInt32, 0); tr.ncols != math.MaxInt32 {
		t.Errorf("NewTriplet(1, MaxInt32) has %d columns", tr.ncols)
	}
}
