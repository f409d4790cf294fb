// Package sched is the poolpair fixture: pooled matrix acquisitions
// that leak, and the ownership shapes (Release, return, hand-off,
// chained Release) that satisfy the contract.
package sched

import "hybridsched/internal/demand"

// Leak acquires a pooled matrix, uses it locally, and drops it.
func Leak(n int) {
	m := demand.FromPool(n) // want `m acquired from a demand pool is never Released and never handed to another owner`
	m.Total()
}

// LeakInbox acquires a pooled inbox and drops it.
func LeakInbox(n int) {
	b := demand.InboxFromPool(n) // want `b acquired from a demand pool is never Released and never handed to another owner`
	b.Add(0, 1, 1)
}

// PairedInbox acquires an inbox, uses it, and Releases it: clean.
func PairedInbox(n int) {
	b := demand.InboxFromPool(n)
	b.Add(0, 1, 1)
	b.Release()
}

// Peek discards an unbound pooled clone in place.
func Peek(m *demand.Matrix) {
	m.Clone().Total() // want `pooled matrix from m.Clone is discarded without Release`
}

// Paired acquires, uses, and Releases: clean.
func Paired(n int) int64 {
	m := demand.FromPool(n)
	t := m.Total()
	m.Release()
	return t
}

// Snapshot hands ownership of the clone to the caller: clean.
func Snapshot(m *demand.Matrix) *demand.Matrix {
	c := m.Clone()
	return c
}

// HandOff transfers ownership to consume, which Releases: clean.
func HandOff(n int) {
	m := demand.FromPool(n)
	consume(m)
}

func consume(m *demand.Matrix) { m.Release() }

// Churn pairs an unbound acquisition with an immediate Release: clean.
func Churn(n int) {
	demand.FromPool(n).Release()
}
