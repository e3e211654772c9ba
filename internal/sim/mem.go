package sim

// Memory is paged so that a run pays only for the words it touches: the
// default address space is 32 MiB, but a typical program dirties its
// globals, a little heap and the top of the stack, a few pages in all.
const (
	pageShift = 12
	pageWords = 1 << pageShift // 32 KiB per page
	pageMask  = pageWords - 1
)

type page [pageWords]uint64

// memory is a word-addressed memory of a fixed size whose pages are
// allocated on their first non-zero store. An absent page reads as zeros,
// so it is indistinguishable from a present page that holds only zeros.
// Callers bounds-check addresses against words.
type memory struct {
	words int64
	pages []*page
}

func newMemory(words int) memory {
	return memory{words: int64(words), pages: make([]*page, (words+pageMask)>>pageShift)}
}

func (m *memory) get(addr int64) uint64 {
	if p := m.pages[addr>>pageShift]; p != nil {
		return p[addr&pageMask]
	}
	return 0
}

func (m *memory) set(addr int64, v uint64) {
	p := m.pages[addr>>pageShift]
	if p == nil {
		if v == 0 {
			return
		}
		p = new(page)
		m.pages[addr>>pageShift] = p
	}
	p[addr&pageMask] = v
}

// clear zeroes the words in [lo, hi). Absent pages are already zero and
// are skipped whole; present ones must be cleared, because the heap can
// grow into words that an earlier, deeper stack frame dirtied.
func (m *memory) clear(lo, hi int64) {
	for lo < hi {
		base := lo &^ pageMask
		end := min(base+pageWords, hi)
		if p := m.pages[lo>>pageShift]; p != nil {
			clear(p[lo-base : end-base])
		}
		lo = end
	}
}

// clone deep-copies the present pages.
func (m *memory) clone() memory {
	c := memory{words: m.words, pages: make([]*page, len(m.pages))}
	for i, p := range m.pages {
		if p != nil {
			cp := *p
			c.pages[i] = &cp
		}
	}
	return c
}

// equal reports whether two memories have the same size and contents,
// treating an absent page as all zeros.
func (m *memory) equal(o *memory) bool {
	if m.words != o.words {
		return false
	}
	for i, p := range m.pages {
		q := o.pages[i]
		switch {
		case p == q:
		case p == nil:
			if *q != (page{}) {
				return false
			}
		case q == nil:
			if *p != (page{}) {
				return false
			}
		case *p != *q:
			return false
		}
	}
	return true
}
