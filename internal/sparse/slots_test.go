package sparse

import "testing"

// slotFixture builds the 3×3 CSR
//
//	[ 2 -1  0 ]
//	[-1  2 -1 ]
//	[ 0 -1  2 ]
//
// whose pattern the slot API operates on.
func slotFixture() *CSR {
	tr := NewTriplet(3, 3, 9)
	for i := 0; i < 3; i++ {
		tr.Add(i, i, 2)
		if i > 0 {
			tr.Add(i, i-1, -1)
		}
		if i < 3-1 {
			tr.Add(i, i+1, -1)
		}
	}
	return tr.ToCSR()
}

func TestSlotIndex(t *testing.T) {
	m := slotFixture()
	seen := make(map[int]bool)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			s := m.SlotIndex(i, j)
			inPattern := i == j || i == j+1 || i == j-1
			if inPattern {
				if s < 0 || s >= m.NNZ() {
					t.Errorf("SlotIndex(%d,%d) = %d, want valid slot", i, j, s)
				}
				if seen[s] {
					t.Errorf("SlotIndex(%d,%d) = %d reused", i, j, s)
				}
				seen[s] = true
				want := -1.0
				if i == j {
					want = 2
				}
				if got := m.ValueAt(s); got != want {
					t.Errorf("ValueAt(slot(%d,%d)) = %g, want %g", i, j, got, want)
				}
			} else if s != -1 {
				t.Errorf("SlotIndex(%d,%d) = %d for structural zero, want -1", i, j, s)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("SlotIndex accepted out-of-range coordinates")
		}
	}()
	m.SlotIndex(3, 0)
}
