package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span names. Spans are recorded by this program around its own calls
// into the scheduler's layers; nothing inside the program is traced.
const (
	spEpoch    uint8 = iota // one epoch: its offers, its step, and the mirror's work
	spOffers                // all of an epoch's Offer calls
	spOffer                 // one sampled Offer call (or one offer round trip on the daemon)
	spStep                  // Service.Step (or one step round trip on the daemon)
	spCopy                  // mirror: snapshot copy of the pending matrix
	spSchedule              // mirror: one Schedule call of the same-seed algorithm
	spDrain                 // mirror: draining the served demand
	spFrame                 // daemon: step written until its frame reached the subscriber
	spRun                   // batch: one Scenario.Run
	spInterval              // batch: wall time between two observer samples
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"epoch", "offers", "offer", "step", "mirror.copy", "mirror.schedule",
	"mirror.drain", "frame", "run", "interval",
}

// span is one timed interval. Times are nanoseconds since the tracer's
// origin; parent is the index of the enclosing span or -1.
type span struct {
	start, end int64
	parent     int32
	epoch      uint32
	name       uint8
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span and returns its index.
func (t *tracer) begin(name uint8, parent int32, epoch uint64) int32 {
	t.spans = append(t.spans, span{start: t.now(), end: -1, parent: parent, epoch: uint32(epoch), name: name})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) { t.spans[i].end = t.now() }

// add records a span whose times were taken elsewhere.
func (t *tracer) add(name uint8, parent int32, epoch uint64, start, end time.Time) int32 {
	t.spans = append(t.spans, span{
		start: int64(start.Sub(t.origin)), end: int64(end.Sub(t.origin)),
		parent: parent, epoch: uint32(epoch), name: name,
	})
	return int32(len(t.spans) - 1)
}

func (s span) dur() float64 { return float64(s.end - s.start) }

// durations returns the durations (ns) of every span with the name.
func (t *tracer) durations(name uint8) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 {
			out = append(out, s.dur())
		}
	}
	return out
}

// byEpoch sums the durations (ns) of the named spans per epoch.
func (t *tracer) byEpoch(name uint8) map[uint32]float64 {
	out := map[uint32]float64{}
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 {
			out[s.epoch] += s.dur()
		}
	}
	return out
}

// selfTimes returns each span name's total self time in ns: its spans'
// durations minus the part their child spans cover.
func (t *tracer) selfTimes() [numSpanNames]float64 {
	var self [numSpanNames]float64
	for _, s := range t.spans {
		if s.end >= 0 {
			self[s.name] += s.dur()
		}
	}
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			self[t.spans[s.parent].name] -= s.dur()
		}
	}
	return self
}

// selfTimeNotes renders selfTimes as report notes, largest first.
func (t *tracer) selfTimeNotes(rep *report) {
	self := t.selfTimes()
	idx := make([]int, 0, numSpanNames)
	for i, v := range self {
		if v != 0 {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return self[idx[a]] > self[idx[b]] })
	for _, i := range idx {
		rep.note("self time %-16s %12.1f ms", spanNames[i], self[i]/1e6)
	}
}

// write dumps the spans as gzip-compressed CSV to dir/spans/name.csv.gz.
// Each traced run of a workload replaces the previous dump.
func (t *tracer) write(dir, name string) (string, error) {
	path := filepath.Join(dir, "spans", name+".csv.gz")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "name,epoch,parent,start_ns,end_ns")
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%s,%d,%d,%d,%d\n", spanNames[s.name], s.epoch, s.parent, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
