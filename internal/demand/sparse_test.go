package demand

import (
	"testing"
	"testing/quick"

	"hybridsched/internal/rng"
	"hybridsched/internal/units"
)

// The white-box suite for the sparse bookkeeping the scaling refactor
// added to Matrix: the per-row nonzero index lists behind Row/NonZeros
// and the incremental row/column/total sums, validated against dense
// recomputation under randomized Set/Add churn, plus the pool round trip.

// checkInvariants recomputes every incrementally-maintained quantity of m
// densely and fails on any divergence.
func checkInvariants(t *testing.T, m *Matrix) {
	t.Helper()
	n := m.N()
	var tot int64
	nz := 0
	for i := 0; i < n; i++ {
		var rsum int64
		rnz := 0
		for j := 0; j < n; j++ {
			v := m.At(i, j)
			if v < 0 {
				t.Fatalf("negative entry (%d,%d) = %d", i, j, v)
			}
			rsum += v
			if v != 0 {
				rnz++
			}
		}
		if got := m.RowSum(i); got != rsum {
			t.Fatalf("RowSum(%d) = %d, dense %d", i, got, rsum)
		}
		if got := m.RowNonZeros(i); got != rnz {
			t.Fatalf("RowNonZeros(%d) = %d, dense %d", i, got, rnz)
		}
		// The Row view must list exactly the nonzero cells, ascending.
		row := m.Row(i)
		if row.Len() != rnz {
			t.Fatalf("Row(%d).Len = %d, dense %d", i, row.Len(), rnz)
		}
		prev := -1
		for k := 0; k < row.Len(); k++ {
			j, v := row.Entry(k)
			if j <= prev {
				t.Fatalf("Row(%d) not ascending: %d after %d", i, j, prev)
			}
			prev = j
			if want := m.At(i, j); v != want || v == 0 {
				t.Fatalf("Row(%d) entry %d = (%d,%d), At = %d", i, k, j, v, want)
			}
		}
		tot += rsum
		nz += rnz
	}
	for j := 0; j < n; j++ {
		var csum int64
		for i := 0; i < n; i++ {
			csum += m.At(i, j)
		}
		if got := m.ColSum(j); got != csum {
			t.Fatalf("ColSum(%d) = %d, dense %d", j, got, csum)
		}
	}
	if got := m.Total(); got != tot {
		t.Fatalf("Total = %d, dense %d", got, tot)
	}
	if got := m.NonZeros(); got != nz {
		t.Fatalf("NonZeros = %d, dense %d", got, nz)
	}
}

func TestSparseInvariantsUnderChurn(t *testing.T) {
	property := func(seed uint64, n8 uint8) bool {
		n := 1 + int(n8%9)
		r := rng.New(seed)
		m := NewMatrix(n)
		for step := 0; step < 200; step++ {
			i, j := r.Intn(n), r.Intn(n)
			switch step % 4 {
			case 0:
				m.Set(i, j, r.Int63n(1000))
			case 1:
				m.Add(i, j, r.Int63n(500)-250) // exercises clamping too
			case 2:
				m.Set(i, j, 0) // removal path
			case 3:
				m.Add(i, j, 1)
			}
		}
		checkInvariants(t, m)
		m.Reset()
		checkInvariants(t, m)
		if m.Total() != 0 || m.NonZeros() != 0 {
			t.Fatal("Reset left residue")
		}
		return !t.Failed()
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneAndCopyFrom(t *testing.T) {
	r := rng.New(5)
	m := NewMatrix(6)
	for k := 0; k < 30; k++ {
		m.Set(r.Intn(6), r.Intn(6), r.Int63n(100))
	}
	c := m.Clone()
	checkInvariants(t, c)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if c.At(i, j) != m.At(i, j) {
				t.Fatalf("clone differs at (%d,%d)", i, j)
			}
		}
	}
	// Mutating the clone must not touch the original.
	c.Set(0, 0, 9999)
	if m.At(0, 0) == 9999 {
		t.Fatal("clone aliases original")
	}
	// CopyFrom over a dirty destination.
	dst := NewMatrix(6)
	dst.Set(5, 5, 123)
	dst.CopyFrom(m)
	checkInvariants(t, dst)
	if dst.At(5, 5) != m.At(5, 5) {
		t.Fatal("CopyFrom kept stale entry")
	}
	// Dimension mismatch panics.
	defer func() {
		if recover() == nil {
			t.Fatal("expected dimension-mismatch panic")
		}
	}()
	dst.CopyFrom(NewMatrix(3))
}

func TestPoolRoundTrip(t *testing.T) {
	m := FromPool(4)
	checkInvariants(t, m)
	if m.Total() != 0 || m.NonZeros() != 0 {
		t.Fatal("pooled matrix not zeroed")
	}
	m.Set(1, 2, 7)
	m.Release()
	// Whatever comes out next (possibly the same object) must be clean.
	again := FromPool(4)
	if again.Total() != 0 || again.NonZeros() != 0 || again.At(1, 2) != 0 {
		t.Fatal("released matrix came back dirty")
	}
	checkInvariants(t, again)
	// Distinct sizes draw from distinct pools.
	other := FromPool(7)
	if other.N() != 7 {
		t.Fatalf("pool size mix-up: got %d", other.N())
	}
}

func TestQuantizeAndStuffKeepInvariants(t *testing.T) {
	r := rng.New(11)
	m := NewMatrix(5)
	for k := 0; k < 12; k++ {
		m.Set(r.Intn(5), r.Intn(5), 1+r.Int63n(10_000))
	}
	q := m.Quantize(1500)
	checkInvariants(t, q)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			want := (m.At(i, j) + 1499) / 1500
			if q.At(i, j) != want {
				t.Fatalf("Quantize(%d,%d) = %d, want %d", i, j, q.At(i, j), want)
			}
		}
	}
	s := m.Stuff()
	checkInvariants(t, s)
	target := s.MaxLineSum()
	for i := 0; i < 5; i++ {
		if s.RowSum(i) != target || s.ColSum(i) != target {
			t.Fatalf("stuffed line %d sums (%d,%d), want %d",
				i, s.RowSum(i), s.ColSum(i), target)
		}
	}
}

func TestOccupancySinkMatchesPerPairFeed(t *testing.T) {
	// Feeding the same backlog through SetOccupancyMatrix and through n²
	// SetOccupancy calls must leave the estimator in the same state —
	// including clearing stale pairs.
	occ := NewMatrix(4)
	occ.Set(0, 1, 100)
	occ.Set(2, 3, 50)

	viaSink := NewOccupancy(4)
	viaSink.SetOccupancy(0, 3, 3, 999) // stale pair that must clear
	viaSink.SetOccupancyMatrix(0, occ)

	viaPairs := NewOccupancy(4)
	viaPairs.SetOccupancy(0, 3, 3, 999)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			viaPairs.SetOccupancy(0, i, j, occ.At(i, j))
		}
	}

	a, b := viaSink.Snapshot(0), viaPairs.Snapshot(0)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if a.At(i, j) != b.At(i, j) {
				t.Fatalf("sink/per-pair divergence at (%d,%d): %d != %d",
					i, j, a.At(i, j), b.At(i, j))
			}
		}
	}
	var _ OccupancySink = (*Occupancy)(nil)
	var _ OccupancySink = (*Window)(nil)
	var _ OccupancySink = (*EWMA)(nil)
}

func TestSnapshotsAreCallerOwned(t *testing.T) {
	// An estimator snapshot must not alias estimator state: releasing it
	// and dirtying the pool must not corrupt the next snapshot.
	o := NewOccupancy(3)
	o.SetOccupancy(0, 0, 1, 42)
	s1 := o.Snapshot(0)
	s1.Set(0, 1, 7)
	s1.Release()
	s2 := o.Snapshot(units.Time(1))
	if s2.At(0, 1) != 42 {
		t.Fatalf("snapshot corrupted by released predecessor: %d", s2.At(0, 1))
	}
}
