package netsim

import (
	"strings"
	"testing"
	"testing/quick"

	"pdq/internal/obsv"
	"pdq/internal/sim"
)

// collector is an Agent recording delivered packets and their times.
type collector struct {
	host *Host
	got  []*Packet
	at   []sim.Time
}

func (c *collector) Receive(pkt *Packet, ingress *Link) {
	c.got = append(c.got, pkt)
	c.at = append(c.at, c.host.net.Sim.Now())
}

// line builds host A — switch — host B with duplex links and returns the
// forward path A→B.
func line(t testing.TB) (*Network, *Host, *Host, []*Link) {
	t.Helper()
	n := NewNetwork(sim.New(), 1)
	a := n.NewHost()
	sw := n.NewSwitch()
	b := n.NewHost()
	l1 := n.NewDuplexLink(a, sw)
	l2 := n.NewDuplexLink(sw, b)
	a.Access, b.Access = l1, l2.Peer
	ca := &collector{host: a}
	cb := &collector{host: b}
	a.Agent, b.Agent = ca, cb
	return n, a, b, []*Link{l1, l2}
}

func mkpkt(a, b *Host, path []*Link, wire int) *Packet {
	return &Packet{Flow: 1, Kind: DATA, Src: a.ID(), Dst: b.ID(), Payload: wire - IPTCPHeader - SchedHdrWire, Wire: wire, Path: path}
}

func TestEndToEndDeliveryTiming(t *testing.T) {
	n, a, b, path := line(t)
	pkt := mkpkt(a, b, path, 1500)
	n.Send(pkt)
	n.Sim.Run()
	cb := b.Agent.(*collector)
	if len(cb.got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(cb.got))
	}
	// Per hop: tx = 1500*8ns = 12µs at 1Gbps, prop 0.1µs, proc 25µs.
	perHop := sim.Time(12*sim.Microsecond) + DefaultPropDelay + DefaultProcDelay
	if want := 2 * perHop; cb.at[0] != want {
		t.Errorf("delivery at %v, want %v", cb.at[0], want)
	}
}

func TestQueueingDelayFIFO(t *testing.T) {
	n, a, b, path := line(t)
	p1 := mkpkt(a, b, path, 1500)
	p2 := mkpkt(a, b, path, 1500)
	n.Send(p1)
	n.Send(p2) // same instant: must serialize behind p1 on link 1
	n.Sim.Run()
	cb := b.Agent.(*collector)
	if len(cb.got) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(cb.got))
	}
	if cb.got[0] != p1 {
		t.Error("FIFO order violated")
	}
	tx := sim.Time(12 * sim.Microsecond)
	if delta := cb.at[1] - cb.at[0]; delta != tx {
		t.Errorf("inter-delivery gap %v, want one tx time %v", delta, tx)
	}
}

func TestTailDrop(t *testing.T) {
	n, a, b, path := line(t)
	path[0].QueueCap = 3000 // fits two 1500B packets
	var pkts []*Packet
	for i := 0; i < 5; i++ {
		p := mkpkt(a, b, path, 1500)
		pkts = append(pkts, p)
		n.Send(p)
	}
	n.Sim.Run()
	cb := b.Agent.(*collector)
	if len(cb.got) != 2 {
		t.Fatalf("delivered %d packets, want 2 (rest tail-dropped)", len(cb.got))
	}
	if path[0].Drops() != 3 {
		t.Errorf("Drops = %d, want 3", path[0].Drops())
	}
	if cb.got[0] != pkts[0] || cb.got[1] != pkts[1] {
		t.Error("wrong packets survived tail drop")
	}
}

func TestQueueDrainsAsPacketsSerialize(t *testing.T) {
	n, a, b, path := line(t)
	for i := 0; i < 3; i++ {
		n.Send(mkpkt(a, b, path, 1500))
	}
	if q := path[0].QueueBytes(); q != 4500 {
		t.Fatalf("queue = %d, want 4500", q)
	}
	n.Sim.RunUntil(12*sim.Microsecond + 1)
	if q := path[0].QueueBytes(); q != 3000 {
		t.Fatalf("after one tx, queue = %d, want 3000", q)
	}
	n.Sim.Run()
	if q := path[0].QueueBytes(); q != 0 {
		t.Fatalf("final queue = %d, want 0", q)
	}
	if path[0].TxPackets() != 3 || path[0].TxBytes() != 4500 {
		t.Errorf("counters: %d pkts %d bytes", path[0].TxPackets(), path[0].TxBytes())
	}
}

func TestLossInjection(t *testing.T) {
	n, a, b, path := line(t)
	path[0].LossRate = 0.3
	const N = 2000
	for i := 0; i < N; i++ {
		n.Send(mkpkt(a, b, path, 1500))
		n.Sim.Run() // run each to keep queue empty
	}
	cb := b.Agent.(*collector)
	got := len(cb.got)
	if got < 1200 || got > 1600 {
		t.Errorf("with 30%% loss, delivered %d of %d", got, N)
	}
	if int(path[0].LossDrops())+got != N {
		t.Errorf("LossDrops %d + delivered %d != %d", path[0].LossDrops(), got, N)
	}
}

func TestReversePath(t *testing.T) {
	_, _, _, path := line(t)
	rev := ReversePath(path)
	if len(rev) != 2 || rev[0] != path[1].Peer || rev[1] != path[0].Peer {
		t.Fatal("ReversePath wrong")
	}
	// Reverse of reverse is the original.
	rr := ReversePath(rev)
	for i := range path {
		if rr[i] != path[i] {
			t.Fatal("double reverse != identity")
		}
	}
}

func TestAckDeliveryOnReversePath(t *testing.T) {
	n, a, b, path := line(t)
	ack := &Packet{Flow: 1, Kind: ACK, Src: a.ID(), Dst: b.ID(), Wire: ControlWire, Path: ReversePath(path)}
	n.Send(ack)
	n.Sim.Run()
	ca := a.Agent.(*collector)
	if len(ca.got) != 1 || ca.got[0].Kind != ACK {
		t.Fatal("ACK not delivered to A")
	}
}

func TestKinds(t *testing.T) {
	fwd := []Kind{SYN, DATA, PROBE, TERM}
	rev := []Kind{SYNACK, ACK, PROBEACK, TERMACK}
	for i, k := range fwd {
		if !k.Forward() {
			t.Errorf("%v.Forward() = false", k)
		}
		if k.Ack() != rev[i] {
			t.Errorf("%v.Ack() = %v, want %v", k, k.Ack(), rev[i])
		}
		if rev[i].Forward() {
			t.Errorf("%v.Forward() = true", rev[i])
		}
	}
	for _, k := range append(fwd, rev...) {
		if k.String() == "" {
			t.Errorf("empty String for %d", uint8(k))
		}
	}
}

func TestSwitchLogicDrop(t *testing.T) {
	n, a, b, path := line(t)
	sw := path[0].To.(*Switch)
	sw.Logic = dropAll{}
	n.Send(mkpkt(a, b, path, 1500))
	n.Sim.Run()
	if len(b.Agent.(*collector).got) != 0 {
		t.Fatal("packet should have been dropped by switch logic")
	}
}

type dropAll struct{}

func (dropAll) Process(at Node, pkt *Packet, in, out *Link) bool { return false }

func TestHeaderForwardRoundTrip(t *testing.T) {
	h := SchedHeader{
		Rate:     950_000_000,
		PauseBy:  7,
		Deadline: 20 * sim.Millisecond,
		TTrans:   1300 * sim.Microsecond,
	}
	b, err := h.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != SchedHdrWire {
		t.Fatalf("wire size %d, want %d", len(b), SchedHdrWire)
	}
	var got SchedHeader
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if got.Rate != h.Rate || got.PauseBy != h.PauseBy || got.Deadline != h.Deadline || got.TTrans != h.TTrans {
		t.Fatalf("round trip: got %+v want %+v", got, h)
	}
}

func TestHeaderReverseRoundTrip(t *testing.T) {
	h := SchedHeader{Rate: 1_000_000, PauseBy: PauseNone, InterProbe: 3.2, RTT: 151_500}
	b, err := h.MarshalReverse()
	if err != nil {
		t.Fatal(err)
	}
	var got SchedHeader
	if err := got.UnmarshalReverse(b); err != nil {
		t.Fatal(err)
	}
	if got.PauseBy != PauseNone {
		t.Errorf("PauseBy = %v, want PauseNone", got.PauseBy)
	}
	if got.InterProbe < 3.199 || got.InterProbe > 3.201 {
		t.Errorf("InterProbe = %v", got.InterProbe)
	}
	if got.RTT != 151_500 {
		t.Errorf("RTT = %v", got.RTT)
	}
}

func TestHeaderShort(t *testing.T) {
	var h SchedHeader
	if err := h.UnmarshalBinary(make([]byte, 8)); err != ErrShortHeader {
		t.Errorf("err = %v, want ErrShortHeader", err)
	}
	if err := h.UnmarshalReverse(nil); err != ErrShortHeader {
		t.Errorf("err = %v, want ErrShortHeader", err)
	}
}

// Property: marshal/unmarshal round-trips exactly for values already on the
// quantization grid.
func TestPropertyHeaderRoundTrip(t *testing.T) {
	f := func(rateK, deadU, ttransU uint32, pause uint16) bool {
		h := SchedHeader{
			Rate:     int64(rateK) * rateUnit,
			PauseBy:  NodeID(pause),
			Deadline: sim.Time(deadU) * timeUnit,
			TTrans:   sim.Time(ttransU) * timeUnit,
		}
		b, _ := h.MarshalBinary()
		var got SchedHeader
		if got.UnmarshalBinary(b) != nil {
			return false
		}
		return got.Rate == h.Rate && got.PauseBy == h.PauseBy &&
			got.Deadline == h.Deadline && got.TTrans == h.TTrans
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMSSAccounting(t *testing.T) {
	if MSS+IPTCPHeader+SchedHdrWire != MTU {
		t.Fatalf("MSS %d inconsistent with MTU", MSS)
	}
	// Header overhead ~3.7% with the 16B scheduling header, ~2.7% without,
	// bracketing the paper's "~3% bandwidth loss" (§5.4).
	over := float64(IPTCPHeader+SchedHdrWire) / float64(MTU)
	if over < 0.02 || over > 0.05 {
		t.Errorf("overhead %.3f out of expected range", over)
	}
}

// TestDeliveryStreamOneEntryPerLink pins the delivery stream: a burst on
// one link holds a single engine entry however many deliveries it has
// pending, every delivery still counts as a pending event, and the
// packets arrive in FIFO order one serialization time apart.
func TestDeliveryStreamOneEntryPerLink(t *testing.T) {
	n, a, b, path := line(t)
	st := &obsv.EngineStats{}
	n.Sim.SetStats(st)
	const burst = 10
	var sent []*Packet
	for i := 0; i < burst; i++ {
		sent = append(sent, mkpkt(a, b, path, 1500))
		n.Send(sent[i])
	}
	if got := n.Sim.Pending(); got != burst {
		t.Fatalf("pending = %d, want %d", got, burst)
	}
	if got := st.QueueHWM.Value(); got != 1 {
		t.Fatalf("queue high-water = %d after a one-link burst, want 1", got)
	}
	n.Sim.Run()
	cb := b.Agent.(*collector)
	if len(cb.got) != burst {
		t.Fatalf("delivered %d packets, want %d", len(cb.got), burst)
	}
	tx := sim.Time(12 * sim.Microsecond)
	for i := range sent {
		if cb.got[i] != sent[i] {
			t.Fatalf("delivery %d is not the %d-th packet sent: FIFO order violated", i, i)
		}
		if i > 0 && cb.at[i]-cb.at[i-1] != tx {
			t.Fatalf("delivery %d at %v, previous at %v: want one tx time %v apart", i, cb.at[i], cb.at[i-1], tx)
		}
	}
	if got, want := st.Fired.Value(), uint64(2*burst); got != want {
		t.Errorf("fired = %d, want %d (one delivery per packet per hop)", got, want)
	}
}

// TestDeliveryStreamOrderGuard pins the precondition the delivery stream
// rests on: a link's deliveries must be due in enqueue order. Cutting a
// link's processing delay under an in-flight packet makes the next
// packet due before it, and emitDelivery must refuse rather than let the
// engine fire deliveries out of order.
func TestDeliveryStreamOrderGuard(t *testing.T) {
	n, a, b, path := line(t)
	n.Send(mkpkt(a, b, path, 1500))
	path[0].ProcDelay = 0
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("out-of-order delivery did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "precedes the pending delivery") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	n.Send(mkpkt(a, b, path, 40))
}
