// Package demand is a stub of the pooled demand-matrix vocabulary for
// the poolpair fixture: same import path and same acquirer/Release
// names as the real package, with none of the implementation.
package demand

// Matrix is a pooled demand matrix.
type Matrix struct{ n int }

// FromPool leases a matrix from the per-size pool.
func FromPool(n int) *Matrix { return &Matrix{n: n} }

// Clone leases a pooled copy of m.
func (m *Matrix) Clone() *Matrix { return &Matrix{n: m.n} }

// Quantize leases a pooled quantized copy of m.
func (m *Matrix) Quantize(q int64) *Matrix { return &Matrix{n: m.n} }

// Stuff leases a pooled doubly-stochastic completion of m.
func (m *Matrix) Stuff() *Matrix { return &Matrix{n: m.n} }

// Inbox is a pooled ingest inbox.
type Inbox struct{ n int }

// InboxFromPool leases an inbox from the per-size pool.
func InboxFromPool(n int) *Inbox { return &Inbox{n: n} }

// Release returns b to the pool.
func (b *Inbox) Release() {}

// Add accumulates demand on one cell.
func (b *Inbox) Add(i, j int, bits int64) {}

// Release returns m to the pool.
func (m *Matrix) Release() {}

// Total sums all entries.
func (m *Matrix) Total() int64 { return 0 }
