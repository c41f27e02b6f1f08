package interconnect

import (
	"slices"
	"testing"

	"destset/internal/event"
	"destset/internal/nodeset"
)

func setup() (*event.Loop, *Crossbar) {
	loop := &event.Loop{}
	x := New(DefaultConfig(16), loop)
	return loop, x
}

func TestUnloadedLatency(t *testing.T) {
	loop, x := setup()
	var delivered event.Time = -1
	x.OnDeliver = func(now event.Time, dst nodeset.NodeID, msg *Message) {
		delivered = now
	}
	x.Send(&Message{From: 0, To: nodeset.Of(5), Bytes: 8})
	loop.Run()
	// Cut-through: unloaded latency is the pure 50ns traversal.
	want := event.Time(50 * event.Nanosecond)
	if delivered != want {
		t.Errorf("delivery at %v ps, want %v ps", delivered, want)
	}
}

func TestOrderingPointTime(t *testing.T) {
	loop, x := setup()
	var ordered event.Time = -1
	x.OnOrdered = func(now event.Time, seq uint64, msg *Message) { ordered = now }
	x.Send(&Message{From: 3, To: nodeset.Of(4), Bytes: 8})
	loop.Run()
	want := event.Time(25 * event.Nanosecond) // half traversal, cut-through
	if ordered != want {
		t.Errorf("ordered at %v, want %v", ordered, want)
	}
}

func TestTotalOrderIsGlobal(t *testing.T) {
	loop, x := setup()
	var seqs []uint64
	x.OnOrdered = func(now event.Time, seq uint64, msg *Message) {
		seqs = append(seqs, seq)
	}
	// Two senders race; ordering must produce distinct, increasing seqs.
	x.Send(&Message{From: 0, To: nodeset.Of(2), Bytes: 8})
	x.Send(&Message{From: 1, To: nodeset.Of(2), Bytes: 8})
	loop.Run()
	if len(seqs) != 2 || seqs[0] >= seqs[1] {
		t.Errorf("sequence numbers = %v", seqs)
	}
}

func TestBroadcastDeliversToAll(t *testing.T) {
	loop, x := setup()
	got := nodeset.Set(0)
	x.OnDeliver = func(now event.Time, dst nodeset.NodeID, msg *Message) {
		got = got.Add(dst)
	}
	x.Send(&Message{From: 0, To: nodeset.All(16).Remove(0), Bytes: 8})
	loop.Run()
	if got != nodeset.All(16).Remove(0) {
		t.Errorf("delivered to %v", got)
	}
}

func TestEgressSerialization(t *testing.T) {
	loop, x := setup()
	var times []event.Time
	x.OnDeliver = func(now event.Time, dst nodeset.NodeID, msg *Message) {
		times = append(times, now)
	}
	// Two 72-byte data messages from the same node: the second serializes
	// behind the first on the egress link (7.2ns each).
	x.Send(&Message{From: 0, To: nodeset.Of(1), Bytes: 72})
	x.Send(&Message{From: 0, To: nodeset.Of(2), Bytes: 72})
	loop.Run()
	if len(times) != 2 {
		t.Fatalf("deliveries = %d", len(times))
	}
	gap := times[1] - times[0]
	if gap != 7200*event.Picosecond {
		t.Errorf("egress serialization gap = %v ps, want 7200", gap)
	}
}

func TestIngressContention(t *testing.T) {
	loop, x := setup()
	var times []event.Time
	x.OnDeliver = func(now event.Time, dst nodeset.NodeID, msg *Message) {
		if dst == 9 {
			times = append(times, now)
		}
	}
	// Two different senders target node 9 simultaneously; the second copy
	// queues on 9's ingress link.
	x.Send(&Message{From: 0, To: nodeset.Of(9), Bytes: 72})
	x.Send(&Message{From: 1, To: nodeset.Of(9), Bytes: 72})
	loop.Run()
	if len(times) != 2 {
		t.Fatalf("deliveries = %d", len(times))
	}
	if times[1]-times[0] != 7200*event.Picosecond {
		t.Errorf("ingress gap = %v ps, want 7200", times[1]-times[0])
	}
}

func TestEndpointBytesAccounting(t *testing.T) {
	loop, x := setup()
	x.Send(&Message{From: 0, To: nodeset.Of(1, 2, 3), Bytes: 8})
	loop.Run()
	msgs, bytes := x.Stats()
	if msgs != 1 {
		t.Errorf("messages = %d, want 1", msgs)
	}
	if bytes != 24 {
		t.Errorf("endpoint bytes = %d, want 24 (3 copies x 8B)", bytes)
	}
}

func TestEmptyDestinationIsNoOp(t *testing.T) {
	loop, x := setup()
	x.Send(&Message{From: 0, To: 0, Bytes: 8})
	if !loop.Empty() {
		t.Error("empty-destination send should schedule nothing")
	}
	msgs, _ := x.Stats()
	if msgs != 0 {
		t.Error("empty send counted")
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	loop, x := setup()
	type tag struct{ id int }
	var got interface{}
	x.OnDeliver = func(now event.Time, dst nodeset.NodeID, msg *Message) { got = msg.Payload }
	x.Send(&Message{From: 0, To: nodeset.Of(1), Bytes: 8, Payload: tag{7}})
	loop.Run()
	if tg, ok := got.(tag); !ok || tg.id != 7 {
		t.Errorf("payload = %v", got)
	}
}

func TestNewPanics(t *testing.T) {
	loop := &event.Loop{}
	for name, cfg := range map[string]Config{
		"zero nodes":   {Nodes: 0, BytesPerNs: 10, Traversal: 50},
		"no bandwidth": {Nodes: 4, BytesPerNs: 0, Traversal: 50},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			New(cfg, loop)
		}()
	}
}

// drain runs the loop to completion and returns the number of events it
// processed.
func drain(loop *event.Loop) int {
	steps := 0
	for loop.Step() {
		steps++
	}
	return steps
}

func TestIdleBroadcastIsOneDeliveryEvent(t *testing.T) {
	loop, x := setup()
	var got []nodeset.NodeID
	x.OnDeliver = func(now event.Time, dst nodeset.NodeID, msg *Message) {
		if now != 50*event.Nanosecond {
			t.Errorf("copy to %d delivered at %v ps, want 50000", dst, now)
		}
		got = append(got, dst)
	}
	x.Send(&Message{From: 0, To: nodeset.All(16).Remove(0), Bytes: 8})
	// One ordering event, then every copy in one delivery group.
	if steps := drain(loop); steps != 2 {
		t.Errorf("idle 15-destination broadcast took %d events, want 2", steps)
	}
	if want := nodeset.All(16).Remove(0).Nodes(); !slices.Equal(got, want) {
		t.Errorf("delivery order %v, want %v", got, want)
	}
}

// TestContendedDeliveryOrder sends a 72-byte message to nodes 3 and 7
// and, from another node at the same instant, a broadcast ordered right
// behind it: the broadcast's copies to 3 and 7 queue on their ingress
// links and arrive 7.2 ns after the other thirteen. The crossbar must
// deliver in exactly the order one event per copy would — by arrival
// time, then ordering step, then ascending node — using one event per
// arrival instant, and release each message once, after its last copy.
func TestContendedDeliveryOrder(t *testing.T) {
	loop, x := setup()
	data := &Message{From: 0, To: nodeset.Of(3, 7), Bytes: 72}
	bcast := &Message{From: 1, To: nodeset.All(16).Remove(1), Bytes: 8}
	type rec struct {
		at  event.Time
		dst nodeset.NodeID
		msg *Message
	}
	const released nodeset.NodeID = 255 // marks an OnRelease call
	var got []rec
	x.OnDeliver = func(now event.Time, dst nodeset.NodeID, msg *Message) {
		got = append(got, rec{now, dst, msg})
	}
	x.OnRelease = func(msg *Message) {
		got = append(got, rec{loop.Now(), released, msg})
	}
	x.Send(data)
	x.Send(bcast)
	// Two ordering events, one delivery group for the data message and
	// two for the broadcast (idle links at 50 ns, 3 and 7 at 57.2 ns).
	if steps := drain(loop); steps != 5 {
		t.Errorf("drained in %d events, want 5", steps)
	}

	idle, queued := 50*event.Nanosecond, 57200*event.Picosecond
	want := []rec{{idle, 3, data}, {idle, 7, data}, {idle, released, data}}
	for _, dst := range bcast.To.Remove(3).Remove(7).Nodes() {
		want = append(want, rec{idle, dst, bcast})
	}
	want = append(want, rec{queued, 3, bcast}, rec{queued, 7, bcast}, rec{queued, released, bcast})
	if !slices.Equal(got, want) {
		t.Errorf("delivery sequence\n got %v\nwant %v", got, want)
	}

	msgs, bytes := x.Stats()
	if msgs != 2 || bytes != 2*72+15*8 {
		t.Errorf("Stats = %d messages, %d bytes; want 2, %d", msgs, bytes, 2*72+15*8)
	}
}

// TestResetStartsOver: a crossbar reset in the middle of a run, onto
// another node count and bandwidth, charges every message size the
// link arithmetic's own expression, and orders, delivers and counts a
// script of messages exactly as a new crossbar of that configuration
// does.
func TestResetStartsOver(t *testing.T) {
	cfg := Config{Nodes: 8, BytesPerNs: 0.3, Traversal: 50 * event.Nanosecond}
	type rec struct {
		at  event.Time
		seq uint64 // 0 for a delivery
		dst nodeset.NodeID
	}
	script := func(loop *event.Loop, x *Crossbar) ([]rec, uint64, uint64) {
		var got []rec
		x.OnOrdered = func(now event.Time, seq uint64, msg *Message) { got = append(got, rec{now, seq, msg.From}) }
		x.OnDeliver = func(now event.Time, dst nodeset.NodeID, msg *Message) { got = append(got, rec{now, 0, dst}) }
		for i, bytes := range []int{8, 72, 1000, 72, 8, tabled - 1, tabled} {
			from := nodeset.NodeID(i % 3)
			x.Send(&Message{From: from, To: nodeset.All(cfg.Nodes).Remove(from), Bytes: bytes})
		}
		loop.Run()
		msgs, bytes := x.Stats()
		return got, msgs, bytes
	}
	newLoop := &event.Loop{}
	want, wantMsgs, wantBytes := script(newLoop, New(cfg, newLoop))

	loop, x := setup()
	for i := 0; i < 4; i++ {
		x.Send(&Message{From: nodeset.NodeID(i), To: nodeset.All(16), Bytes: 72})
	}
	loop.Step()
	loop.Step()
	loop.Reset()
	x.Reset(cfg)
	for b := 0; b < 2*tabled; b++ {
		if got, want := x.occupancy(b), event.Time(float64(b)/cfg.BytesPerNs*float64(event.Nanosecond)); got != want {
			t.Fatalf("a %d-byte message occupies a link for %d ps after Reset, want %d", b, got, want)
		}
	}
	got, msgs, bytes := script(loop, x)
	if !slices.Equal(got, want) {
		t.Errorf("reset crossbar's sequence\n got %v\nwant %v", got, want)
	}
	if msgs != wantMsgs || bytes != wantBytes {
		t.Errorf("reset crossbar's Stats = %d messages, %d bytes; want %d, %d", msgs, bytes, wantMsgs, wantBytes)
	}
}
