// Package interconnect models the totally-ordered interconnect of the
// paper's target system (§5.1/§5.2): processor/memory nodes connected by
// single physical links to one crossbar switch.
//
// All three protocols the paper compares (broadcast snooping, directory
// and multicast snooping) require a total order of requests, which the
// crossbar provides: every message is ordered at the instant it reaches
// the switch, and deliveries follow in that order. The model charges
//
//   - serialization on the sender's egress link (size / bandwidth),
//   - half the traversal latency to the switch (ordering point),
//   - serialization on each receiver's ingress link — so a broadcast
//     consumes end-point bandwidth at every node, the §1 argument for why
//     broadcast does not scale,
//   - half the traversal latency to the receiver.
//
// Links are FIFO resources; contention queues messages and is the
// mechanism that lets bandwidth-hungry protocols slow themselves down.
//
// The crossbar schedules one delivery event per distinct arrival instant
// of a message, not one per destination copy: copies whose ingress links
// are idle all arrive together, so an uncontended broadcast costs one
// ordering and one delivery event. The delivery hands the copies to
// OnDeliver in ascending node order — the order per-copy events would
// fire in, since copies scheduled by one ordering step hold consecutive
// sequence numbers.
//
// The crossbar is allocation-free per message in steady state: ordering
// and delivery events are scheduled through the event loop's typed-arg
// API (no closures), delivery groups come from an internal free list,
// and senders that set OnRelease get each message back once its last
// copy is delivered, so they can pool messages too.
package interconnect

import (
	"fmt"

	"destset/internal/event"
	"destset/internal/nodeset"
)

// Config describes the interconnect, defaulting to the paper's Table 4
// parameters via DefaultConfig.
type Config struct {
	// Nodes is the number of endpoints.
	Nodes int
	// BytesPerNs is the link bandwidth (10 GB/s = 10 bytes/ns).
	BytesPerNs float64
	// Traversal is the total unloaded node-to-node latency (50 ns),
	// charged half to reach the switch and half to leave it.
	Traversal event.Time
}

// DefaultConfig is the paper's interconnect: 10 GB/s links, 50 ns
// traversal.
func DefaultConfig(nodes int) Config {
	return Config{Nodes: nodes, BytesPerNs: 10, Traversal: 50 * event.Nanosecond}
}

// Message is a multicast message in flight. Send takes ownership: the
// crossbar references the message until every destination copy has been
// delivered, then hands it to OnRelease (when set) for reuse.
type Message struct {
	From  nodeset.NodeID
	To    nodeset.Set // destinations; may include From (self-delivery)
	Bytes int
	// Payload is opaque protocol state carried to the handlers. Storing a
	// pointer keeps Send allocation-free.
	Payload interface{}

	// pending counts undelivered delivery groups after ordering.
	pending int
}

// delivery is the group of an ordered message's copies that arrive at
// one instant, pooled in the crossbar's free list so scheduling never
// allocates.
type delivery struct {
	msg *Message
	at  event.Time
	to  nodeset.Set
}

// link is a FIFO serialization resource.
type link struct {
	freeAt event.Time
}

// acquire occupies the link for size bytes starting no earlier than now
// and returns the start time. The link is cut-through: the head flit
// proceeds at the start time while serialization continues to occupy the
// link's bandwidth behind it, so unloaded latency is pure traversal time
// and contention appears as queuing delay.
func (l *link) acquire(now event.Time, bytes int, bytesPerNs float64) event.Time {
	start := now
	if l.freeAt > start {
		start = l.freeAt
	}
	l.freeAt = start + event.Time(float64(bytes)/bytesPerNs*float64(event.Nanosecond))
	return start
}

// Crossbar is the switch plus all node links.
type Crossbar struct {
	cfg     Config
	loop    *event.Loop
	egress  []link
	ingress []link
	seq     uint64

	// OnOrdered is invoked at the instant a message is ordered at the
	// switch, with its global sequence number. Protocol engines commit
	// coherence-state transitions here.
	OnOrdered func(now event.Time, seq uint64, msg *Message)
	// OnDeliver is invoked when a message copy reaches one destination.
	OnDeliver func(now event.Time, dst nodeset.NodeID, msg *Message)
	// OnRelease, if set, is invoked once the last copy of a message has
	// been delivered (or immediately for a message with no destinations).
	// Senders use it to recycle messages; after it fires the crossbar
	// holds no reference to the message.
	OnRelease func(msg *Message)

	// orderedEvt and deliverEvt are the long-lived event handlers bound
	// at construction; scheduling them allocates nothing.
	orderedEvt event.ArgHandler
	deliverEvt event.ArgHandler
	delFree    []*delivery
	// groups holds the delivery groups of the message being ordered.
	groups []*delivery

	// statistics
	totalBytes    uint64
	totalMessages uint64
}

// New builds a crossbar bound to an event loop.
func New(cfg Config, loop *event.Loop) *Crossbar {
	if cfg.Nodes <= 0 || cfg.Nodes > nodeset.MaxNodes {
		panic(fmt.Sprintf("interconnect: bad node count %d", cfg.Nodes))
	}
	if cfg.BytesPerNs <= 0 {
		panic("interconnect: bandwidth must be positive")
	}
	x := &Crossbar{
		cfg:     cfg,
		loop:    loop,
		egress:  make([]link, cfg.Nodes),
		ingress: make([]link, cfg.Nodes),
	}
	x.orderedEvt = func(now event.Time, arg any) { x.ordered(now, arg.(*Message)) }
	x.deliverEvt = func(now event.Time, arg any) { x.deliver(now, arg.(*delivery)) }
	return x
}

// Send injects a message. The sender's egress link serializes it once
// (the crossbar replicates multicasts); each destination's ingress link
// serializes its own copy, charging end-point bandwidth per destination.
func (x *Crossbar) Send(msg *Message) {
	if msg.To.Empty() {
		x.release(msg)
		return
	}
	half := x.cfg.Traversal / 2
	atSwitch := x.egress[msg.From].acquire(x.loop.Now(), msg.Bytes, x.cfg.BytesPerNs) + half
	x.loop.AtArg(atSwitch, x.orderedEvt, msg)
}

// ordered is the total-order point: the message takes its global sequence
// number and each destination copy joins the delivery group of its
// arrival instant. A group's event is scheduled when its lowest
// destination is found, taking that copy's place in the event order; the
// group's other copies would have followed it with no event in between.
func (x *Crossbar) ordered(now event.Time, msg *Message) {
	x.seq++
	seq := x.seq
	x.totalMessages++
	x.totalBytes += uint64(msg.Bytes) * uint64(msg.To.Count())
	if x.OnOrdered != nil {
		x.OnOrdered(now, seq, msg)
	}
	half := x.cfg.Traversal / 2
	groups := x.groups[:0]
	for rest := msg.To; !rest.Empty(); {
		dst := rest.First()
		rest = rest.Remove(dst)
		at := x.ingress[dst].acquire(now, msg.Bytes, x.cfg.BytesPerNs) + half
		if d := findGroup(groups, at); d != nil {
			d.to = d.to.Add(dst)
			continue
		}
		d := x.getDelivery()
		d.msg, d.at, d.to = msg, at, nodeset.Of(dst)
		groups = append(groups, d)
		x.loop.AtArg(at, x.deliverEvt, d)
	}
	msg.pending = len(groups)
	x.groups = groups[:0]
}

// findGroup returns the group arriving at instant at, or nil.
func findGroup(groups []*delivery, at event.Time) *delivery {
	for _, d := range groups {
		if d.at == at {
			return d
		}
	}
	return nil
}

// deliver hands one group's copies to the protocol in ascending node
// order and releases the message after its last group.
func (x *Crossbar) deliver(now event.Time, d *delivery) {
	msg, to := d.msg, d.to
	d.msg = nil
	x.delFree = append(x.delFree, d)
	if x.OnDeliver != nil {
		for rest := to; !rest.Empty(); {
			dst := rest.First()
			rest = rest.Remove(dst)
			x.OnDeliver(now, dst, msg)
		}
	}
	msg.pending--
	if msg.pending == 0 {
		x.release(msg)
	}
}

func (x *Crossbar) getDelivery() *delivery {
	if n := len(x.delFree); n > 0 {
		d := x.delFree[n-1]
		x.delFree = x.delFree[:n-1]
		return d
	}
	return &delivery{}
}

func (x *Crossbar) release(msg *Message) {
	if x.OnRelease != nil {
		x.OnRelease(msg)
	}
}

// Stats returns total messages ordered and total end-point bytes
// delivered (each destination copy counted).
func (x *Crossbar) Stats() (messages, bytes uint64) {
	return x.totalMessages, x.totalBytes
}

// Config returns the interconnect configuration.
func (x *Crossbar) Config() Config { return x.cfg }
