package sim

import (
	"math/rand"
	"testing"
)

func residentPages(m *memory) int {
	n := 0
	for _, p := range m.pages {
		if p != nil {
			n++
		}
	}
	return n
}

// TestMemoryMatchesFlat runs random get/set/clear sequences against a flat
// slice of the same size, with addresses drawn mostly near page
// boundaries and the ends of memory, and values that are often zero.
func TestMemoryMatchesFlat(t *testing.T) {
	const words = 3*pageWords + 100 // last page partly outside memory
	r := rand.New(rand.NewSource(1))
	addr := func() int64 {
		switch r.Intn(4) {
		case 0:
			return 1 + r.Int63n(words-1)
		case 1:
			return []int64{1, words - 1}[r.Intn(2)]
		default:
			a := int64(1+r.Intn(3))*pageWords + int64(r.Intn(5)) - 2
			return min(a, words-1)
		}
	}
	for seq := 0; seq < 50; seq++ {
		m := newMemory(words)
		flat := make([]uint64, words)
		for op := 0; op < 400; op++ {
			switch r.Intn(4) {
			case 0, 1:
				a, v := addr(), uint64(0)
				if r.Intn(2) == 0 {
					v = r.Uint64()
				}
				m.set(a, v)
				flat[a] = v
			case 2:
				lo := addr()
				hi := min(lo+r.Int63n(2*pageWords), words)
				m.clear(lo, hi)
				clear(flat[lo:hi])
			case 3:
				a := addr()
				if got := m.get(a); got != flat[a] {
					t.Fatalf("seq %d op %d: get(%d) = %d, flat has %d", seq, op, a, got, flat[a])
				}
			}
		}
		for a := int64(0); a < words; a++ {
			if got := m.get(a); got != flat[a] {
				t.Fatalf("seq %d: final get(%d) = %d, flat has %d", seq, a, got, flat[a])
			}
		}
	}
}

func TestMemoryCloneIndependent(t *testing.T) {
	m := newMemory(2 * pageWords)
	m.set(pageWords+3, 7)
	c := m.clone()
	c.set(pageWords+3, 9)
	c.set(5, 1)
	if m.get(pageWords+3) != 7 || m.get(5) != 0 {
		t.Error("clone shares pages with the original")
	}
	if c.get(pageWords+3) != 9 || c.get(5) != 1 {
		t.Error("clone lost its own stores")
	}
	if residentPages(&m) != 1 {
		t.Errorf("original has %d resident pages after stores to the clone, want 1", residentPages(&m))
	}
}

// TestMemoryEqualAbsentVersusZero checks that an absent page equals a
// present page that holds only zeros, in either order, and that a single
// differing word in either memory is seen.
func TestMemoryEqualAbsentVersusZero(t *testing.T) {
	a, b := newMemory(2*pageWords), newMemory(2*pageWords)
	b.set(pageWords+1, 5)
	b.set(pageWords+1, 0) // page stays resident, all zero
	if !a.equal(&b) || !b.equal(&a) {
		t.Error("absent page should equal an all-zero present page")
	}
	b.set(2*pageWords-1, 1)
	if a.equal(&b) || b.equal(&a) {
		t.Error("a non-zero word in a present page went unseen")
	}
	a.set(2*pageWords-1, 1)
	if !a.equal(&b) {
		t.Error("memories with the same contents should be equal")
	}
	if c := newMemory(3 * pageWords); a.equal(&c) {
		t.Error("memories of different sizes should not be equal")
	}
}
