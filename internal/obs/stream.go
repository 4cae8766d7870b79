package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// StreamEvent is one event pushed to live subscribers (SSE clients): job
// progress, clock edges, phase changes, watcher alerts. Seq is a
// broker-global sequence number suitable for SSE `id:` fields, so clients
// can detect gaps introduced by the slow-consumer policy.
type StreamEvent struct {
	Seq  uint64         `json:"seq"`
	Time time.Time      `json:"time"`
	Kind string         `json:"kind"`
	Job  string         `json:"job,omitempty"`
	Data map[string]any `json:"data,omitempty"`
}

// Broker fans StreamEvents out to any number of subscribers with a strict
// slow-consumer policy: Publish never blocks, and a subscriber whose buffer
// is full loses the event (counted per subscriber and broker-wide). That
// trade — drop rather than stall — is what lets one slow SSE client coexist
// with the simulation hot path.
//
// All methods are safe for concurrent use. A nil *Broker is a no-op
// publisher, so event sources never branch on "is streaming on".
type Broker struct {
	mu      sync.Mutex
	subs    map[*Sub]struct{}
	seq     uint64
	clients *Gauge   // optional metrics wiring
	events  *Counter // events published
	drops   *Counter // events dropped across all subscribers
}

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	return &Broker{subs: make(map[*Sub]struct{})}
}

// Metrics wires the broker's accounting into reg:
//
//	sse_subscribers              currently connected subscribers
//	sse_events_published_total   events offered to subscribers
//	sse_events_dropped_total     events lost to full subscriber buffers
func (b *Broker) Metrics(reg *Registry) {
	if b == nil || reg == nil {
		return
	}
	b.mu.Lock()
	b.clients = reg.Gauge("sse_subscribers")
	b.events = reg.Counter("sse_events_published_total")
	b.drops = reg.Counter("sse_events_dropped_total")
	b.mu.Unlock()
}

// Publish stamps ev with the next sequence number and offers it to every
// subscriber whose filter accepts it. It never blocks: subscribers with a
// full buffer drop the event.
func (b *Broker) Publish(ev StreamEvent) {
	if b == nil {
		return
	}
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	b.mu.Lock()
	b.seq++
	ev.Seq = b.seq
	if b.events != nil {
		b.events.Inc()
	}
	for s := range b.subs {
		if s.filter != nil && !s.filter(ev) {
			continue
		}
		select {
		case s.ch <- ev:
		default:
			s.dropped.Add(1)
			if b.drops != nil {
				b.drops.Inc()
			}
		}
	}
	b.mu.Unlock()
}

// Subscribe registers a new subscriber with the given buffer capacity
// (0 selects 256). filter, when non-nil, selects which events are delivered;
// it runs under the broker lock and must be fast and non-blocking.
func (b *Broker) Subscribe(buf int, filter func(StreamEvent) bool) *Sub {
	if buf <= 0 {
		buf = 256
	}
	s := &Sub{b: b, ch: make(chan StreamEvent, buf), filter: filter}
	s.C = s.ch
	b.mu.Lock()
	b.subs[s] = struct{}{}
	if b.clients != nil {
		b.clients.Add(1)
	}
	b.mu.Unlock()
	return s
}

// Sub is one subscription. Receive from C; events arrive in publish order,
// with gaps (detectable via Seq) where the slow-consumer policy dropped.
type Sub struct {
	C <-chan StreamEvent

	b       *Broker
	ch      chan StreamEvent
	filter  func(StreamEvent) bool
	dropped atomic.Uint64
	closed  atomic.Bool
}

// Dropped returns how many events this subscriber has lost so far.
func (s *Sub) Dropped() uint64 { return s.dropped.Load() }

// Close unregisters the subscriber. C is not closed (events already buffered
// remain readable); Close is idempotent.
func (s *Sub) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.b.mu.Lock()
	delete(s.b.subs, s)
	if s.b.clients != nil {
		s.b.clients.Add(-1)
	}
	s.b.mu.Unlock()
}

// BrokerObserver adapts a Broker into an Observer: semantic simulation
// events (clock edges, phase changes, alerts) are published as StreamEvents
// tagged with Job, which is how a served sweep's per-point telemetry reaches
// SSE clients. It is stateless and safe to share across concurrent
// simulations.
type BrokerObserver struct {
	Base
	B   *Broker
	Job string
}

// OnClockEdge publishes a clock_edge stream event.
func (o *BrokerObserver) OnClockEdge(e ClockEdge) {
	o.B.Publish(StreamEvent{Kind: "clock_edge", Job: o.Job, Data: map[string]any{
		"t": e.T, "species": e.Species, "rising": e.Rising, "level": e.Level,
	}})
}

// OnPhaseChange publishes a phase_change stream event.
func (o *BrokerObserver) OnPhaseChange(e PhaseChange) {
	o.B.Publish(StreamEvent{Kind: "phase_change", Job: o.Job, Data: map[string]any{
		"t": e.T, "from": e.From, "to": e.To,
	}})
}

// OnAlert publishes an alert stream event.
func (o *BrokerObserver) OnAlert(e Alert) {
	o.B.Publish(StreamEvent{Kind: "alert", Job: o.Job, Data: map[string]any{
		"t": e.T, "rule": e.Rule, "subject": e.Subject,
		"value": e.Value, "limit": e.Limit, "detail": e.Detail,
	}})
}
