package demand

import "sync"

// Inbox accumulates demand deltas for a later, single fold into a Matrix.
// Add is O(1): a dense cell update plus, on a cell's first touch, one
// append to the touched-cell list. None of the Matrix's incremental
// structure (sums, bitsets, sorted column lists) is maintained until
// FoldInto, which visits only the touched cells. This is the ingest
// buffer of the online service: producers pay for one array write, and
// the epoch pays for the Matrix bookkeeping once per touched cell.
//
// An Inbox only accumulates: amounts must be positive, and callers are
// responsible for keeping every cell within int64 (the service bounds its
// whole backlog, which bounds every cell).
type Inbox struct {
	n       int
	v       []int64
	touched []cell // nonzero cells in first-touch order
}

// cell is one touched (row, column) pair. Keeping both coordinates spares
// FoldInto a division per cell to recover them from a flat index.
type cell struct{ i, j int32 }

// inboxPools holds one sync.Pool of zeroed inboxes per dimension. The
// dense cell array is n² words, so recycling matters as much as it does
// for matrices.
var inboxPools sync.Map // int -> *sync.Pool

func inboxPoolFor(n int) *sync.Pool {
	if p, ok := inboxPools.Load(n); ok {
		return p.(*sync.Pool)
	}
	p, _ := inboxPools.LoadOrStore(n, &sync.Pool{
		New: func() any { return &Inbox{n: n, v: make([]int64, n*n)} },
	})
	return p.(*sync.Pool)
}

// InboxFromPool returns an empty n x n inbox from the shared pool. It
// panics if n <= 0.
func InboxFromPool(n int) *Inbox {
	if n <= 0 {
		panic("demand: inbox size must be positive")
	}
	return inboxPoolFor(n).Get().(*Inbox)
}

// Release zeroes the touched cells and returns b to the pool. The caller
// must not use b afterwards.
func (b *Inbox) Release() {
	b.Reset()
	inboxPoolFor(b.n).Put(b)
}

// Add accumulates bits of demand on cell (i, j). Non-positive amounts are
// ignored.
//
//hybridsched:hotpath
func (b *Inbox) Add(i, j int, bits int64) {
	if bits <= 0 {
		return
	}
	idx := i*b.n + j
	if b.v[idx] == 0 {
		//hybridsched:alloc-ok amortized growth of the inbox's own touched list
		b.touched = append(b.touched, cell{int32(i), int32(j)})
	}
	b.v[idx] += bits
}

// FoldInto adds every touched cell to m and leaves b empty. Cost is
// O(touched cells) plus m's per-cell bookkeeping. m must have b's
// dimension.
//
//hybridsched:hotpath
func (b *Inbox) FoldInto(m *Matrix) {
	if m.n != b.n {
		panic("demand: FoldInto dimension mismatch")
	}
	for _, c := range b.touched {
		idx := int(c.i)*b.n + int(c.j)
		m.Add(int(c.i), int(c.j), b.v[idx])
		b.v[idx] = 0
	}
	b.touched = b.touched[:0]
}

// Reset discards every accumulated delta in O(touched cells).
func (b *Inbox) Reset() {
	for _, c := range b.touched {
		b.v[int(c.i)*b.n+int(c.j)] = 0
	}
	b.touched = b.touched[:0]
}
