package match

import (
	"fmt"
	"math/bits"

	"hybridsched/internal/demand"
)

// ISLIP is the iterative round-robin crossbar arbiter of McKeown's iSLIP,
// the workhorse scheduler of input-queued electrical packet switches. Each
// iteration runs three parallel phases — request, grant, accept — with
// per-port round-robin pointers that advance only on accepted grants in the
// first iteration, which is what de-synchronizes the pointers and yields
// 100% throughput under uniform traffic.
//
// The implementation is word-parallel: the request phase is free (the
// demand matrix maintains per-column requester bitsets incrementally),
// the grant phase finds each output's nearest-clockwise unmatched
// requester with masked bits.TrailingZeros64 scans over those bitsets
// (demand.ClockwiseBit — 64 candidate ports per word), and the accept
// phase runs the same scan over per-input grant bitset rows. All scratch
// is reused across calls; one iteration costs O(ports · ceil(ports/64))
// words instead of the textbook O(n²) cell scan.
type ISLIP struct {
	n          int
	words      int // uint64 words per bitset row: ceil(n/64)
	iterations int
	grantPtr   []int // per output
	acceptPtr  []int // per input

	// Scratch reused across Schedule calls. out is the returned matching
	// (see Algorithm.Schedule for the ownership contract).
	out       Matching
	busyIn    *demand.Bitset // inputs matched in earlier iterations
	grantReg  []grantReg     // per input: this iteration's first two grants
	grantBits []uint64       // per input: spill row, used once grants > 2
	activeOut []int32        // outputs scanned this iteration (all unmatched)
	loserOut  []int32        // ping-pong twin of activeOut
	grantees  []int32        // inputs granted this iteration, arrival order
}

// grantReg is an input's per-iteration grant register: how many grants it
// holds and the first two granting outputs (g1 duplicates g0 while cnt is
// 1, making the two-candidate accept branchless). Padded to 16 bytes so
// the randomly-indexed grant write touches a single cache line.
type grantReg struct {
	cnt, g0, g1, _ int32
}

// NewISLIP returns an iSLIP arbiter with the given iteration count
// (typically log2(n); 1 gives basic SLIP).
func NewISLIP(n, iterations int) *ISLIP {
	if n <= 0 || iterations <= 0 {
		panic("match: iSLIP needs positive n and iterations")
	}
	words := (n + 63) / 64
	return &ISLIP{
		n: n, words: words, iterations: iterations,
		grantPtr:  make([]int, n),
		acceptPtr: make([]int, n),
		out:       NewMatching(n),
		busyIn:    demand.NewBitset(n),
		grantReg:  make([]grantReg, n),
		grantBits: make([]uint64, n*words),
		activeOut: make([]int32, 0, n),
		loserOut:  make([]int32, 0, n),
		grantees:  make([]int32, 0, n),
	}
}

// Name implements Algorithm.
func (s *ISLIP) Name() string { return fmt.Sprintf("islip-%d", s.iterations) }

// Reset implements Algorithm.
func (s *ISLIP) Reset() {
	for i := range s.grantPtr {
		s.grantPtr[i] = 0
		s.acceptPtr[i] = 0
	}
}

// modelFill is the per-port peer count the software-cost models assume
// for the data-dependent terms of the bitset kernels (per-nonzero
// scatters and sorts). Fabric-scale demand is sparse — each port
// converses with a handful of peers — and the whole performance layer
// (BenchmarkMatch, BENCH_core.json, the S1 experiment) standardizes on
// ~8 peers/port, so Complexity models report software cost at that
// reference fill rather than the dense worst case the pre-bitset
// metadata assumed. TestComplexityMatchesInstrumentedOps pins the
// reported counts against instrumented kernels at this fill.
const modelFill = 8

// bitsetWords returns ceil(n/64), the words per bitset row — the unit
// the software-cost models count.
func bitsetWords(n int) int { return (n + 63) / 64 }

// Complexity implements Algorithm. In hardware each iteration is a
// request, grant and accept step with all 2n arbiters in parallel: depth
// 3 per iteration. In software each iteration is word-parallel: the
// grant phase scans up to 2·words request words per output and the
// accept phase up to 2·words grant words (plus a words-wide clear) per
// input, with O(n) loop bookkeeping — no per-nonzero work at all, since
// the request bitsets are maintained by the demand matrix.
func (s *ISLIP) Complexity(n int) Complexity {
	w := bitsetWords(n)
	return Complexity{
		HardwareDepth: 3 * s.iterations,
		SoftwareOps:   s.iterations*(5*n*w+2*n) + 3*n,
	}
}

// activeOutputs appends to buf[:0] the outputs with at least one
// requester, ascending. Column j has a requester iff its column sum is
// positive (entries are non-negative), so this is one O(n) scan of the
// incrementally-maintained sums — the only per-Schedule request-phase
// work the bitset arbiters do.
func activeOutputs(d *demand.Matrix, buf []int32) []int32 {
	buf = buf[:0]
	n := d.N()
	for j := 0; j < n; j++ {
		if d.ColSum(j) > 0 {
			buf = append(buf, int32(j))
		}
	}
	return buf
}

// nearerClockwise returns whichever of a or b is nearest clockwise from
// ptr over [0, n). The circular distances are distinct when a != b, so
// the winner is unique — this is ClockwiseBit for a two-candidate set.
//
//hybridsched:hotpath
func nearerClockwise(a, b, ptr, n int) int {
	da, db := a-ptr, b-ptr
	if da < 0 {
		da += n
	}
	if db < 0 {
		db += n
	}
	if db < da {
		return b
	}
	return a
}

// Schedule implements Algorithm.
//
// Beyond the word-parallel scans, the loop exploits three structural
// facts of request/grant/accept to keep the op count near the number of
// decisions actually made:
//
//   - Within a grant phase busyIn is frozen and each output reads only
//     its own pointer and column, so grant order is irrelevant; within an
//     accept phase the granted inputs are disjoint, their accepted
//     outputs are disjoint (an output grants at most one input), and each
//     touches only its own pointers, so accept order is irrelevant too.
//     Both phases may therefore run over compact work lists in whatever
//     order those lists hold.
//   - Every granted input accepts exactly one granter, so the outputs
//     that stay contested into the next iteration are exactly this
//     iteration's losing granters. The accept phase rebuilds the scan
//     list from them directly: matched outputs and outputs whose
//     requesters are exhausted (busyIn only grows) drop out for free, and
//     no busy-output bookkeeping is needed at all.
//   - Most inputs collect one or two grants per iteration, so the first
//     two are held in per-input registers (grant1 duplicating grant0 on
//     the first grant makes the two-candidate accept branchless); the
//     words-wide grant row is only materialized — and later cleared — for
//     the rare input granted by three or more outputs.
//
//hybridsched:hotpath
func (s *ISLIP) Schedule(d *demand.Matrix) Matching {
	n, words := s.n, s.words
	inMatch := s.out
	s.busyIn.Zero()
	cur := activeOutputs(d, s.activeOut[:0])
	next := s.loserOut[:0]
	grantees := s.grantees[:0]
	busyIn := s.busyIn.Words()

	for iter := 0; iter < s.iterations; iter++ {
		// Phase 2 — grant: each contested output grants the requesting
		// unmatched input closest (clockwise) to its grant pointer. The
		// requester set is the matrix's column bitset; matched inputs are
		// masked out a word at a time. The first iteration carries the
		// bulk of the work and nothing is matched yet, so its scan is
		// specialized: no busyIn mask, and the clockwise word scan is
		// inlined (ClockwiseBit's call overhead is comparable to the two
		// or three word loads an 8-peer column actually needs). The wrap
		// segment may read word wp unmasked because the forward segment
		// just proved its bits >= ptr are clear.
		for _, j32 := range cur {
			j := int(j32)
			cb := d.ColBits(j)
			ptr := s.grantPtr[j]
			wp := ptr >> 6
			rr := uint(ptr) & 63
			wi := wp
			var w uint64
			if iter == 0 {
				w = cb[wp] >> rr << rr
				for w == 0 && wi+1 < words {
					wi++
					w = cb[wi]
				}
				if w == 0 {
					for wi = 0; wi <= wp; wi++ {
						if w = cb[wi]; w != 0 {
							break
						}
					}
				}
			} else {
				w = (cb[wp] &^ busyIn[wp]) >> rr << rr
				for w == 0 && wi+1 < words {
					wi++
					w = cb[wi] &^ busyIn[wi]
				}
				if w == 0 {
					for wi = 0; wi <= wp; wi++ {
						if w = cb[wi] &^ busyIn[wi]; w != 0 {
							break
						}
					}
				}
			}
			if w == 0 {
				continue // requesters exhausted; stays unmatched
			}
			best := wi<<6 + bits.TrailingZeros64(w)
			reg := &s.grantReg[best]
			cnt := reg.cnt
			reg.cnt = cnt + 1
			switch cnt {
			case 0:
				reg.g0 = j32
				reg.g1 = j32
				grantees = append(grantees, int32(best))
			case 1:
				reg.g1 = j32
			default:
				row := s.grantBits[best*words : (best+1)*words]
				if cnt == 2 {
					g0, g1 := reg.g0, reg.g1
					row[uint(g0)>>6] |= 1 << (uint(g0) & 63)
					row[uint(g1)>>6] |= 1 << (uint(g1) & 63)
				}
				row[j>>6] |= 1 << (uint(j) & 63)
			}
		}
		if len(grantees) == 0 {
			break // converged: no grants means no accepts
		}
		// Phase 3 — accept: each granted input accepts the granter closest
		// (clockwise) to its accept pointer; the losers become the next
		// iteration's scan list.
		next = next[:0]
		for _, i32 := range grantees {
			i := int(i32)
			reg := &s.grantReg[i]
			cnt := reg.cnt
			reg.cnt = 0
			var best int
			if cnt <= 2 {
				g0, g1 := int(reg.g0), int(reg.g1)
				best = nearerClockwise(g0, g1, s.acceptPtr[i], n)
				if cnt == 2 {
					next = append(next, int32(g0+g1-best))
				}
			} else {
				row := s.grantBits[i*words : (i+1)*words]
				best = demand.ClockwiseBit(row, nil, s.acceptPtr[i], n)
				for wi := range row {
					w := row[wi]
					row[wi] = 0
					for w != 0 {
						jj := wi<<6 + bits.TrailingZeros64(w)
						w &= w - 1
						if jj != best {
							next = append(next, int32(jj))
						}
					}
				}
			}
			inMatch[i] = best
			busyIn[uint(i)>>6] |= 1 << (uint(i) & 63)
			// Pointers advance one past the matched port, and only on
			// grants accepted in the FIRST iteration (McKeown's rule;
			// this is what prevents pointer synchronization).
			if iter == 0 {
				gp, ap := i+1, best+1
				if gp == n {
					gp = 0
				}
				if ap == n {
					ap = 0
				}
				s.grantPtr[best] = gp
				s.acceptPtr[i] = ap
			}
		}
		grantees = grantees[:0]
		cur, next = next, cur
	}
	// Inputs that never accepted keep stale entries from the previous
	// call; fix them up from the complement of busyIn — near-maximal
	// matchings make this far cheaper than pre-clearing all n entries.
	for wi := 0; wi < words; wi++ {
		w := ^busyIn[wi]
		if wi == words-1 {
			if r := uint(n) & 63; r != 0 {
				w &= 1<<r - 1
			}
		}
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			inMatch[i] = Unmatched
		}
	}
	// Keep the ping-pong buffers' backing arrays for the next call.
	s.activeOut, s.loserOut, s.grantees = cur[:0], next[:0], grantees
	return inMatch
}

func init() {
	Register("islip", func(n int, _ uint64) Algorithm {
		return NewISLIP(n, log2ceil(n))
	})
	Register("islip1", func(n int, _ uint64) Algorithm {
		return NewISLIP(n, 1)
	})
	// islipn runs n iterations — the "fully converged" upper bound used
	// by the iteration-count ablation (A2). McKeown showed log2(n)
	// iterations capture almost all of the benefit; registering the
	// extreme makes that measurable here.
	Register("islipn", func(n int, _ uint64) Algorithm {
		return NewISLIP(n, n)
	})
}

func log2ceil(n int) int {
	k, v := 0, 1
	for v < n {
		v <<= 1
		k++
	}
	if k == 0 {
		k = 1
	}
	return k
}
