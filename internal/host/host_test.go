package host

import (
	"testing"

	"hybridsched/internal/packet"
	"hybridsched/internal/sim"
	"hybridsched/internal/units"
)

// landing is one released packet reaching the switch.
type landing struct {
	at units.Time
	p  *packet.Packet
}

// testBank returns a 4-port bank and the log of its arrivals at the
// switch, in arrival order.
func testBank(t *testing.T) (*sim.Simulator, *Bank, *[]landing) {
	t.Helper()
	s := sim.New()
	var log []landing
	b := New(s, Config{
		Ports:     4,
		NICRate:   10 * units.Gbps,
		LinkDelay: units.Microsecond,
	}, nil, func(p *packet.Packet) { log = append(log, landing{s.Now(), p}) })
	return s, b, &log
}

func TestEnqueueAndBacklog(t *testing.T) {
	_, b, _ := testBank(t)
	p := &packet.Packet{Src: 1, Dst: 2, Size: 1500 * units.Byte}
	if !b.Enqueue(0, p) {
		t.Fatal("enqueue failed")
	}
	if b.Backlog(1, 2) != 1500*units.Byte {
		t.Fatalf("backlog = %v", b.Backlog(1, 2))
	}
	if b.TotalBits() != 1500*units.Byte || b.PeakBits() != 1500*units.Byte {
		t.Fatal("aggregate accounting wrong")
	}
}

func TestReleasePacingAndDelay(t *testing.T) {
	s, b, arrivals := testBank(t)
	for i := 0; i < 3; i++ {
		b.Enqueue(0, &packet.Packet{ID: uint64(i), Src: 0, Dst: 1, Size: 1500 * units.Byte})
	}
	released := b.Release(0, 1, 10*1500*units.Byte)
	if released != 3*1500*units.Byte {
		t.Fatalf("released %v", released)
	}
	s.Run()
	if len(*arrivals) != 3 {
		t.Fatalf("arrivals = %d", len(*arrivals))
	}
	// 1500B at 10Gbps = 1.2us tx; arrivals at 1.2+1, 2.4+1, 3.6+1 us.
	tx := 1200 * units.Nanosecond
	for i, a := range *arrivals {
		want := units.Time(units.Duration(i+1)*tx + units.Microsecond)
		if a.at != want {
			t.Fatalf("arrival %d at %v, want %v", i, a.at, want)
		}
		if a.p.ID != uint64(i) {
			t.Fatal("order broken")
		}
	}
	if b.Backlog(0, 1) != 0 {
		t.Fatal("queue should be drained")
	}
}

func TestReleaseRespectsBudget(t *testing.T) {
	s, b, _ := testBank(t)
	for i := 0; i < 5; i++ {
		b.Enqueue(0, &packet.Packet{Src: 0, Dst: 1, Size: 1500 * units.Byte})
	}
	released := b.Release(0, 1, 2*1500*units.Byte)
	if released != 2*1500*units.Byte {
		t.Fatalf("released %v, want 2 packets", released)
	}
	if b.Backlog(0, 1) != 3*1500*units.Byte {
		t.Fatalf("backlog = %v", b.Backlog(0, 1))
	}
	s.Run()
}

func TestNICSharedAcrossDestinations(t *testing.T) {
	s, b, log := testBank(t)
	b.Enqueue(0, &packet.Packet{Src: 0, Dst: 1, Size: 1500 * units.Byte})
	b.Enqueue(0, &packet.Packet{Src: 0, Dst: 2, Size: 1500 * units.Byte})
	b.Release(0, 1, units.Gigabyte)
	b.Release(0, 2, units.Gigabyte)
	s.Run()
	arrivals := *log
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	// Second release must queue behind the first on the shared NIC:
	// arrivals 1.2us apart, not simultaneous.
	if arrivals[1].at.Sub(arrivals[0].at) != 1200*units.Nanosecond {
		t.Fatalf("NIC pacing broken: %v vs %v", arrivals[0].at, arrivals[1].at)
	}
}

func TestQueueLimitDrops(t *testing.T) {
	s := sim.New()
	b := New(s, Config{
		Ports: 2, NICRate: 10 * units.Gbps,
		QueueLimit: 2000 * units.Byte,
	}, nil, func(*packet.Packet) {})
	b.Enqueue(0, &packet.Packet{Src: 0, Dst: 1, Size: 1500 * units.Byte})
	if b.Enqueue(0, &packet.Packet{Src: 0, Dst: 1, Size: 1500 * units.Byte}) {
		t.Fatal("should tail-drop")
	}
	if b.Drops() != 1 {
		t.Fatalf("drops = %d", b.Drops())
	}
}

func TestValidation(t *testing.T) {
	s := sim.New()
	for _, cfg := range []Config{
		{Ports: 0, NICRate: units.Gbps},
		{Ports: 2, NICRate: 0},
	} {
		func() {
			defer func() { recover() }()
			New(s, cfg, nil, func(*packet.Packet) {})
			t.Errorf("expected panic for %+v", cfg)
		}()
	}
}

// TestUplinkPacesPerHost: each host's sends serialize back to back on its
// own NIC and land one link delay later, in order; hosts do not share a
// NIC, and a send after an idle gap starts at the current time.
func TestUplinkPacesPerHost(t *testing.T) {
	s := sim.New()
	type got struct {
		at units.Time
		v  string
	}
	var log []got
	u := NewUplink(s, 3, 10*units.Gbps, units.Microsecond, func(v string) { log = append(log, got{s.Now(), v}) })
	u.Send(1, 1500*units.Byte, "a1")
	u.Send(1, 1500*units.Byte, "a2")
	u.Send(2, 1500*units.Byte, "b1")
	s.RunUntil(units.Time(10 * units.Microsecond))
	u.Send(1, 1500*units.Byte, "a3")
	s.Run()
	ns := func(n int) units.Time { return units.Time(units.Duration(n) * units.Nanosecond) }
	want := []got{{ns(2200), "a1"}, {ns(2200), "b1"}, {ns(3400), "a2"}, {ns(12200), "a3"}}
	if len(log) != len(want) {
		t.Fatalf("arrivals %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("arrivals %v, want %v", log, want)
		}
	}
}
