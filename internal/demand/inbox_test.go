package demand

import (
	"math/rand/v2"
	"testing"
)

// TestInboxFoldEqualsDirectAdds: folding accumulated deltas into a matrix
// gives exactly the matrix the same deltas build when added directly —
// entries, sums and nonzero structure — and leaves the inbox empty.
func TestInboxFoldEqualsDirectAdds(t *testing.T) {
	for _, n := range []int{1, 5, 64, 130} {
		rng := rand.New(rand.NewPCG(uint64(n), 7))
		direct, folded := NewMatrix(n), NewMatrix(n)
		// A nonzero starting state, as the service's backlog is.
		for k := 0; k < n; k++ {
			i, j, v := rng.IntN(n), rng.IntN(n), 1+rng.Int64N(100)
			direct.Add(i, j, v)
			folded.Add(i, j, v)
		}
		b := InboxFromPool(n)
		for round := 0; round < 3; round++ {
			for k := 0; k < 4*n; k++ {
				i, j, v := rng.IntN(n), rng.IntN(n), rng.Int64N(100)
				if v > 0 {
					direct.Add(i, j, v)
				}
				b.Add(i, j, v)
			}
			b.FoldInto(folded)
			if !folded.Equal(direct) || folded.String() != direct.String() {
				t.Fatalf("n=%d round %d: folded\n%v\ndirect\n%v", n, round, folded, direct)
			}
			for i := 0; i < n; i++ {
				if folded.RowSum(i) != direct.RowSum(i) || folded.ColSum(i) != direct.ColSum(i) {
					t.Fatalf("n=%d: line sums differ at %d", n, i)
				}
			}
			if len(b.touched) != 0 {
				t.Fatalf("n=%d: %d cells left after FoldInto", n, len(b.touched))
			}
			for idx, v := range b.v {
				if v != 0 {
					t.Fatalf("n=%d: cell %d = %d after FoldInto", n, idx, v)
				}
			}
		}
		b.Release()
	}
}

// TestInboxReleaseZeroes: a released inbox goes back to the pool with no
// cell set, so the next owner starts empty.
func TestInboxReleaseZeroes(t *testing.T) {
	const n = 9
	b := InboxFromPool(n)
	b.Add(0, 1, 5)
	b.Add(8, 8, 7)
	b.Add(0, 1, 2)
	b.Add(3, 4, 0)  // ignored
	b.Add(3, 4, -1) // ignored
	if len(b.touched) != 2 {
		t.Fatalf("touched %d, want 2", len(b.touched))
	}
	b.Release()
	for idx, v := range b.v {
		if v != 0 {
			t.Fatalf("cell %d = %d after Release", idx, v)
		}
	}
	if len(b.touched) != 0 {
		t.Fatalf("touched %d after Release", len(b.touched))
	}
	c := InboxFromPool(n)
	defer c.Release()
	m := NewMatrix(n)
	c.FoldInto(m)
	if len(c.touched) != 0 || m.NonZeros() != 0 || m.Total() != 0 {
		t.Fatalf("pooled inbox not empty: touched %d, folded %d nonzeros", len(c.touched), m.NonZeros())
	}
}
