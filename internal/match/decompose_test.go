package match

import (
	"fmt"
	"slices"
	"testing"

	"hybridsched/internal/demand"
	"hybridsched/internal/rng"
)

// Tests for the frame-decomposition engine (decompose.go): lineage
// equivalence against the preserved sparse and dense references, the
// warm-equals-cold contract of every warm-start mechanism, compute-ahead
// transparency, and the steady-state allocation pin the hot-path
// annotations promise.

// slotsEqual fails the test unless the two slot sequences match exactly
// — same length, same matchings, same weights, in order.
func slotsEqual(t *testing.T, label string, got, want []Slot) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d slots, want %d", label, len(got), len(want))
	}
	for k := range got {
		if !got[k].Match.Equal(want[k].Match) || got[k].Weight != want[k].Weight {
			t.Fatalf("%s: slot %d = (%v, %d), want (%v, %d)",
				label, k, got[k].Match, got[k].Weight, want[k].Match, want[k].Weight)
		}
	}
}

func matricesEqual(t *testing.T, label string, got, want *demand.Matrix) {
	t.Helper()
	n := got.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("%s: (%d,%d) = %d, want %d", label, i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

// sparseFrameDemand builds the controlled-sparsity demand the larger
// equivalence sizes use: k random peers per port, values in [1, maxV].
func sparseFrameDemand(r *rng.Rand, n, k int, maxV int64) *demand.Matrix {
	d := demand.NewMatrix(n)
	for i := 0; i < n; i++ {
		for p := 0; p < k; p++ {
			j := r.Intn(n)
			if j == i {
				continue
			}
			d.Set(i, j, 1+r.Int63n(maxV))
		}
	}
	return d
}

// TestThreeWayDecompositionEquivalence locks the decomposition lineage
// together at and beyond the word boundary: the live bitset engine, the
// preserved sparse-list recursion (sparse_decompose_ref_test.go) and —
// where it is affordable — the dense O(n²)-scan reference must produce
// identical slot sequences and residuals. n=64 runs the one-word kernel,
// n=128 the two-word specialization, n=256 the generic multi-word path.
func TestThreeWayDecompositionEquivalence(t *testing.T) {
	for _, n := range []int{64, 128, 256} {
		r := rng.New(uint64(n)*313 + 7)
		rounds := 3
		if n >= 256 {
			rounds = 1
		}
		for round := 0; round < rounds; round++ {
			d := sparseFrameDemand(r, n, 4, 60)
			if d.Total() == 0 {
				continue
			}
			label := fmt.Sprintf("bvn n=%d round=%d", n, round)
			got := DecomposeBvN(d)
			slotsEqual(t, label+" vs sparse", got, sparseDecomposeBvN(d))
			if n <= 64 {
				slotsEqual(t, label+" vs dense", got, denseDecomposeBvN(d))
			}

			minWorth := d.MaxLineSum() / 16
			label = fmt.Sprintf("maxmin n=%d round=%d", n, round)
			gotSlots, gotRes := DecomposeMaxMin(d, minWorth)
			spSlots, spRes := sparseDecomposeMaxMin(d, minWorth)
			slotsEqual(t, label+" vs sparse", gotSlots, spSlots)
			matricesEqual(t, label+" residual", gotRes, spRes)
			if n <= 64 {
				deSlots, deRes := denseDecomposeMaxMin(d, minWorth)
				slotsEqual(t, label+" vs dense", gotSlots, deSlots)
				matricesEqual(t, label+" dense residual", gotRes, deRes)
				deRes.Release()
			}
			gotRes.Release()
			spRes.Release()
		}
	}
}

// mutateDemand applies a randomized epoch-over-epoch delta to d: with
// probability ~1/4 it changes nothing (the identical-input fast path),
// otherwise it scales a few existing entries (value-only changes keep
// the stuffed support replayable) and occasionally adds or removes a
// cell (structural changes force live extraction mid-frame).
func mutateDemand(r *rng.Rand, d *demand.Matrix) {
	switch r.Intn(4) {
	case 0:
		return
	case 1:
		// Value-only: scale a handful of existing entries.
		for t := 0; t < 3; t++ {
			i := r.Intn(d.N())
			row := d.Row(i)
			if row.Len() == 0 {
				continue
			}
			j, v := row.Entry(r.Intn(row.Len()))
			d.Set(i, j, 1+(v*int64(1+r.Intn(3)))/2)
		}
	case 2:
		// Structural: add a cell.
		i, j := r.Intn(d.N()), r.Intn(d.N())
		if i != j {
			d.Set(i, j, 1+r.Int63n(1000))
		}
	default:
		// Structural: remove a cell.
		i := r.Intn(d.N())
		row := d.Row(i)
		if row.Len() > 0 {
			j, _ := row.Entry(r.Intn(row.Len()))
			d.Set(i, j, 0)
		}
	}
}

// TestWarmColdEquivalence is the warm-start contract: a Decomposer
// retained across a trajectory of mutating demand matrices must produce,
// at every epoch, exactly the slots (and residual) a freshly constructed
// engine produces for that epoch's input alone — bit for bit, through
// the identical-input, support-replay and threshold-seed mechanisms and
// across both buffer sides.
func TestWarmColdEquivalence(t *testing.T) {
	for _, n := range []int{16, 64, 128} {
		for _, maxmin := range []bool{false, true} {
			r := rng.New(uint64(n)*501 + 11)
			warm := NewDecomposer(n)
			d := sparseFrameDemand(r, n, 5, 200)
			for epoch := 0; epoch < 12; epoch++ {
				label := fmt.Sprintf("n=%d maxmin=%v epoch=%d", n, maxmin, epoch)
				cold := NewDecomposer(n)
				if maxmin {
					minWorth := d.MaxLineSum() / 16
					gotSlots, gotRes := warm.MaxMin(d, minWorth)
					wantSlots, wantRes := cold.MaxMin(d, minWorth)
					slotsEqual(t, label, gotSlots, wantSlots)
					matricesEqual(t, label+" residual", gotRes, wantRes)
					gotRes.Release()
					wantRes.Release()
				} else {
					slotsEqual(t, label, warm.BvN(d), cold.BvN(d))
				}
				mutateDemand(r, d)
			}
		}
	}
}

// TestDecomposerSlotLifetime pins the double-buffer ownership contract:
// the slots one decomposition returns must remain intact through the
// NEXT decomposition on the same engine (that is what lets a frame play
// back while its successor computes).
func TestDecomposerSlotLifetime(t *testing.T) {
	n := 32
	r := rng.New(77)
	dc := NewDecomposer(n)
	d1 := sparseFrameDemand(r, n, 4, 100)
	d2 := sparseFrameDemand(r, n, 4, 100)

	first := dc.BvN(d1)
	want := cloneSlots(first, n)
	dc.BvN(d2) // must not disturb first's storage
	slotsEqual(t, "slots after one subsequent decomposition", first, want)
}

// TestComputeAheadEquivalence: a frame scheduler with the background
// decomposition worker enabled must emit exactly the matchings the
// synchronous scheduler emits, across frame boundaries, demand shifts
// and Reset — speculation may only ever change where the work runs.
func TestComputeAheadEquivalence(t *testing.T) {
	for _, name := range []string{"bvn", "maxmin"} {
		n := 64
		r := rng.New(991)
		sync, _ := New(name, n, 1)
		ahead, _ := New(name, n, 1)
		ahead.(*FrameScheduler).EnableComputeAhead()
		defer ahead.(*FrameScheduler).Close()

		d := sparseFrameDemand(r, n, 5, 300)
		for step := 0; step < 400; step++ {
			got := ahead.Schedule(d).Clone()
			want := sync.Schedule(d)
			if !got.Equal(want) {
				t.Fatalf("%s step %d: compute-ahead %v != sync %v", name, step, got, want)
			}
			// Shift demand mid-playback sometimes, between frames other
			// times; occasionally drain to zero and reset.
			if step%37 == 0 {
				mutateDemand(r, d)
			}
			if step == 211 {
				sync.Reset()
				ahead.Reset()
			}
		}
	}
}

// TestFrameSchedulerSteadyStateAllocs pins the refill boundary's promise:
// once warm, a frame scheduler driven through repeated full frames —
// including the decompositions themselves — allocates nothing, even with
// the demand alternating so the identical-input fast path cannot carry
// every refill.
func TestFrameSchedulerSteadyStateAllocs(t *testing.T) {
	for _, name := range []string{"bvn", "maxmin"} {
		n := 32
		r := rng.New(uint64(len(name)))
		alg, _ := New(name, n, 1)
		f := alg.(*FrameScheduler)
		a := sparseFrameDemand(r, n, 4, 100)
		b := sparseFrameDemand(r, n, 4, 100)
		// Warm up: both buffer sides, both inputs, all arenas at final cap.
		for i := 0; i < 8*maxPlayback; i++ {
			if i%maxPlayback == 0 && (i/maxPlayback)%2 == 1 {
				a, b = b, a
			}
			f.Schedule(a)
		}
		per := testing.AllocsPerRun(3, func() {
			for i := 0; i < 2*maxPlayback; i++ {
				f.Schedule(a)
			}
			a, b = b, a
		})
		if per != 0 {
			t.Errorf("%s-frame steady state allocates %.1f allocs per double frame, want 0", name, per)
		}
	}
}

// FuzzWarmStartRepair drives the warm repair path with fuzzed demand
// deltas: decompose a base matrix, apply an arbitrary mutation sequence,
// decompose again on the same warm engine, and require bit-for-bit
// agreement with a cold engine seeing only the final matrix. The fuzzer
// hunts for support evolutions where replay validation (zeroed-set
// comparison, threshold seeding, memoized extraction) would wrongly keep
// stale work.
func FuzzWarmStartRepair(f *testing.F) {
	f.Add(uint64(1), []byte{0x10, 0x82, 0x3f})
	f.Add(uint64(7), []byte{0x00, 0x00, 0xff, 0x41, 0x07, 0x30})
	f.Add(uint64(42), []byte{0x91, 0x22, 0x13, 0x84, 0x75, 0x66, 0x57, 0x48})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		n := 16
		r := rng.New(seed)
		d := sparseFrameDemand(r, n, 4, 40)
		warm := NewDecomposer(n)
		warm.BvN(d)
		warmMM := NewDecomposer(n)
		_, res := warmMM.MaxMin(d, d.MaxLineSum()/16)
		res.Release()

		// Interpret each op byte as one cell edit: high nibble picks the
		// cell (wrapping), low nibble the new value (0 removes).
		for _, op := range ops {
			i := int(op>>4) % n
			j := int(op) % n
			if i == j {
				continue
			}
			d.Set(i, j, int64(op&0x0f))
		}

		cold := NewDecomposer(n)
		got, want := warm.BvN(d), cold.BvN(d)
		slotsEqual(t, "bvn warm repair", got, want)

		coldMM := NewDecomposer(n)
		minWorth := d.MaxLineSum() / 16
		gotS, gotR := warmMM.MaxMin(d, minWorth)
		wantS, wantR := coldMM.MaxMin(d, minWorth)
		slotsEqual(t, "maxmin warm repair", gotS, wantS)
		matricesEqual(t, "maxmin warm residual", gotR, wantR)
		gotR.Release()
		wantR.Release()
	})
}

// TestGreedyRadixMatchesComparator pins the greedy arbiter's radix sort
// against the comparator order at fabric scale, where the radix path is
// the one that runs: identical matchings, including heavy tie regimes
// (quantized weights) that stress the stability-as-tie-break argument.
func TestGreedyRadixMatchesComparator(t *testing.T) {
	for _, n := range []int{128, 512, 2048} {
		for _, quantize := range []int64{0, 64} {
			r := rng.New(uint64(n) + uint64(quantize)*17)
			g := NewGreedy(n)
			for round := 0; round < 3; round++ {
				d := sparseFrameDemand(r, n, 8, 100_000)
				if quantize > 0 {
					// Collapse weights onto a few values so ties dominate.
					for i := 0; i < n; i++ {
						row := d.Row(i)
						for k := 0; k < row.Len(); k++ {
							j, v := row.Entry(k)
							d.Set(i, j, 1+(v/quantize)*quantize)
						}
					}
				}
				got := g.Schedule(d).Clone()

				// Comparator reference: same collection, comparison sort,
				// same selection.
				var edges []greedyEdge
				for i := 0; i < n; i++ {
					row := d.Row(i)
					for k := 0; k < row.Len(); k++ {
						j, v := row.Entry(k)
						edges = append(edges, greedyEdge{v, i, j})
					}
				}
				slices.SortFunc(edges, compareGreedyEdges)
				want := NewMatching(n)
				for i := range want {
					want[i] = Unmatched
				}
				colUsed := make([]bool, n)
				for _, e := range edges {
					if want[e.i] == Unmatched && !colUsed[e.j] {
						want[e.i] = e.j
						colUsed[e.j] = true
					}
				}
				if !got.Equal(want) {
					t.Fatalf("n=%d quantize=%d round=%d: radix greedy diverges from comparator reference",
						n, quantize, round)
				}
			}
		}
	}
}
