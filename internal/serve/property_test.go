package serve

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"

	"hybridsched/internal/demand"
	"hybridsched/internal/match"
	"hybridsched/internal/trace"
)

// refModel is the reference the scheduler is checked against: a plain
// dense demand table and a same-name, same-seed algorithm instance that
// schedules a freshly built matrix every epoch.
type refModel struct {
	n                        int
	name                     string
	seed                     uint64
	slot                     int64
	d                        [][]int64
	alg                      match.Algorithm
	epoch                    uint64
	offered, served, backlog int64
}

func newRefModel(t *testing.T, name string, n int, seed uint64, slot int64) *refModel {
	t.Helper()
	r := &refModel{n: n, name: name, seed: seed, slot: slot, d: make([][]int64, n)}
	for i := range r.d {
		r.d[i] = make([]int64, n)
	}
	r.resetAlg(t)
	return r
}

func (r *refModel) resetAlg(t *testing.T) {
	t.Helper()
	if c, ok := r.alg.(interface{ Close() }); ok {
		c.Close()
	}
	alg, err := match.New(r.name, r.n, r.seed)
	if err != nil {
		t.Fatal(err)
	}
	r.alg = alg
}

func (r *refModel) offer(src, dst int, bits int64) {
	if src == dst || bits <= 0 {
		return
	}
	r.d[src][dst] += bits
	r.offered += bits
	r.backlog += bits
}

func (r *refModel) step() Frame {
	m := demand.FromPool(r.n)
	for i, row := range r.d {
		for j, v := range row {
			m.Set(i, j, v)
		}
	}
	mt := r.alg.Schedule(m).Clone()
	m.Release()
	f := Frame{Match: mt}
	for in, out := range mt {
		if out == match.Unmatched {
			continue
		}
		f.Pairs++
		take := min(r.d[in][out], r.slot)
		r.d[in][out] -= take
		f.ServedBits += take
	}
	r.epoch++
	r.served += f.ServedBits
	r.backlog -= f.ServedBits
	f.Epoch = r.epoch
	f.BacklogBits = r.backlog
	return f
}

// TestSchedulerMatchesReferenceModel drives random Offer / OfferRecords /
// Step / Snapshot->Restore sequences through the scheduler and the
// reference model: every frame must be equal, the books must balance
// (offered = served + backlog, nothing negative), and after each epoch
// the scheduler's folded demand must equal the reference table cell by
// cell.
func TestSchedulerMatchesReferenceModel(t *testing.T) {
	const slot = 1000
	for _, name := range []string{"islip", "greedy", "tdma", "bvn"} {
		for _, n := range []int{4, 16} {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/n=%d/seed=%d", name, n, seed), func(t *testing.T) {
					checkAgainstReference(t, name, n, seed, slot)
				})
			}
		}
	}
}

func checkAgainstReference(t *testing.T, name string, n int, seed uint64, slot int64) {
	cfg := Config{Ports: n, Algorithm: name, Seed: seed, SlotBits: slot}
	s := newTestScheduler(t, cfg)
	ref := newRefModel(t, name, n, seed, slot)
	defer ref.resetAlg(t) // closes the last instance's worker, if any
	rng := rand.New(rand.NewPCG(seed, uint64(n)))
	bits := func() int64 {
		if rng.IntN(8) == 0 {
			return 0
		}
		return rng.Int64N(3 * slot)
	}
	for op := 0; op < 400; op++ {
		switch k := rng.IntN(10); {
		case k < 5:
			src, dst, b := rng.IntN(n), rng.IntN(n), bits()
			if err := s.Offer(src, dst, b); err != nil {
				t.Fatalf("op %d: Offer: %v", op, err)
			}
			ref.offer(src, dst, b)
		case k < 6:
			recs := make([]trace.Record, 1+rng.IntN(4))
			for i := range recs {
				recs[i] = trace.Record{Src: uint16(rng.IntN(n)), Dst: uint16(rng.IntN(n)), Size: uint32(bits())}
			}
			if err := s.OfferRecords(recs); err != nil {
				t.Fatalf("op %d: OfferRecords: %v", op, err)
			}
			for _, r := range recs {
				ref.offer(int(r.Src), int(r.Dst), int64(r.Size))
			}
		case k < 9:
			got, err := s.Step()
			if err != nil {
				t.Fatalf("op %d: Step: %v", op, err)
			}
			want := ref.step()
			if got.Epoch != want.Epoch || !got.Match.Equal(want.Match) || got.Pairs != want.Pairs ||
				got.ServedBits != want.ServedBits || got.BacklogBits != want.BacklogBits {
				t.Fatalf("op %d: frame %+v, reference %+v", op, got, want)
			}
			checkFolded(t, op, s, ref)
		default:
			var buf bytes.Buffer
			if err := s.Snapshot(&buf); err != nil {
				t.Fatalf("op %d: Snapshot: %v", op, err)
			}
			if err := s.Restore(&buf); err != nil {
				t.Fatalf("op %d: Restore: %v", op, err)
			}
			ref.resetAlg(t)
			ref.offered, ref.served = ref.backlog, 0
		}
		st := s.Stats()
		if st.OfferedBits != ref.offered || st.ServedBits != ref.served || st.BacklogBits != ref.backlog {
			t.Fatalf("op %d: stats offered %d served %d backlog %d, reference %d %d %d", op,
				st.OfferedBits, st.ServedBits, st.BacklogBits, ref.offered, ref.served, ref.backlog)
		}
		if st.OfferedBits != st.ServedBits+st.BacklogBits || st.ServedBits < 0 || st.BacklogBits < 0 {
			t.Fatalf("op %d: books do not balance: offered %d served %d backlog %d",
				op, st.OfferedBits, st.ServedBits, st.BacklogBits)
		}
	}
}

// checkFolded compares the scheduler's demand matrix with the reference
// table right after an epoch, when the inbox holds nothing.
func checkFolded(t *testing.T, op int, s *Scheduler, ref *refModel) {
	t.Helper()
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	var sum int64
	for i, row := range ref.d {
		for j, v := range row {
			if got := s.cur.At(i, j); got != v {
				t.Fatalf("op %d: cell (%d,%d) = %d, reference %d", op, i, j, got, v)
			}
			sum += v
		}
	}
	if s.cur.Total() != sum {
		t.Fatalf("op %d: Total %d, cell sum %d", op, s.cur.Total(), sum)
	}
}
