package main

import (
	"math"
	"math/rand/v2"
)

// pktBits is the size of one offer: one 1500-byte packet.
const pktBits = 1500 * 8

// flowGen is the benchmark's load generator. Every input port runs one
// flow at a time to a uniformly chosen other port and offers it packet
// by packet; a port's packet count per epoch is Poisson with mean
// load × slot packets, so the offered load is a stated fraction of slot
// capacity. Flow lengths are geometric. The same seed gives the same
// offers, epoch by epoch, however fast the program runs.
type flowGen struct {
	rng      *rand.Rand
	ports    int
	expNeg   float64 // e^-lambda, for Poisson draws
	pFlowEnd float64 // per-packet flow-end probability
	dst      []int32
	left     []int32

	packets int64 // offers generated
	flows   int64 // flows started
}

func newFlowGen(seed, stream uint64, ports int, load, slotPkts, meanFlowPkts float64) *flowGen {
	return &flowGen{
		rng:      rand.New(rand.NewPCG(seed, stream)),
		ports:    ports,
		expNeg:   math.Exp(-load * slotPkts),
		pFlowEnd: 1 / meanFlowPkts,
		dst:      make([]int32, ports),
		left:     make([]int32, ports),
	}
}

// offer is one generated packet: src << 16 | dst.
type offer uint32

func (o offer) src() int { return int(o >> 16) }
func (o offer) dst() int { return int(o & 0xffff) }

// epoch appends one epoch of offers to buf and returns it.
func (g *flowGen) epoch(buf []offer) []offer {
	for src := 0; src < g.ports; src++ {
		// Knuth's Poisson draw: lambda is a few packets, so the loop is
		// short.
		k, p := 0, g.rng.Float64()
		for p > g.expNeg {
			k++
			p *= g.rng.Float64()
		}
		for ; k > 0; k-- {
			if g.left[src] == 0 {
				d := g.rng.IntN(g.ports - 1)
				if d >= src {
					d++
				}
				g.dst[src] = int32(d)
				g.left[src] = g.flowLen()
				g.flows++
			}
			g.left[src]--
			buf = append(buf, offer(src<<16|int(g.dst[src])))
			g.packets++
		}
	}
	return buf
}

// flowLen draws a geometric flow length in packets.
func (g *flowGen) flowLen() int32 {
	u := 1 - g.rng.Float64() // (0, 1]
	n := 1 + int32(math.Log(u)/math.Log1p(-g.pFlowEnd))
	return min(n, 1<<20)
}

// meanFlow is the mean length of the flows started so far, in packets.
func (g *flowGen) meanFlow() float64 {
	if g.flows == 0 {
		return 0
	}
	return float64(g.packets) / float64(g.flows)
}
