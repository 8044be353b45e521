// Package linkemu emulates the satellite link in real time: a pair of
// tunnel.Transport endpoints connected by two independent one-way channels
// with configurable propagation delay, jitter, random loss, and a
// serialization rate. It lets the live PEP (package pep) run over a
// realistic 550 ms GEO path entirely in-process — the ERRANT-style
// emulation the paper released for the research community.
package linkemu

import (
	"errors"
	"sync"
	"time"

	"satwatch/internal/dist"
)

// Link describes one direction of the emulated path.
type Link struct {
	// Delay is the one-way propagation delay (≈270 ms for GEO).
	Delay time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter) — the MAC
	// and scheduling variability. Jitter also produces reordering.
	Jitter time.Duration
	// Loss is the independent datagram loss probability in [0,1].
	Loss float64
	// RateBps is the serialization rate in bytes/second; zero means
	// infinite (no serialization delay).
	RateBps float64
}

// GEO returns the deployment-shaped link: ~270 ms one way with moderate
// jitter, matching the paper's ~550 ms round trip.
func GEO() Link {
	return Link{Delay: 270 * time.Millisecond, Jitter: 30 * time.Millisecond, Loss: 0.005, RateBps: 10e6 / 8}
}

// Conditions are live adjustments layered on top of a direction's base
// Link — the hook the fault injector uses to play rain fades, beam
// outages, and gateway switches into a running link without touching
// its base shape.
type Conditions struct {
	// ExtraDelay is added to the propagation delay (a gateway switch to
	// a farther ground station).
	ExtraDelay time.Duration
	// ExtraLoss combines with the base loss as independent drop
	// processes: p = 1-(1-Loss)(1-ExtraLoss). 1 means total outage.
	ExtraLoss float64
}

// ErrClosed is returned by ReadDatagram after Close.
var ErrClosed = errors.New("linkemu: closed")

const (
	// inboxSlots is each endpoint's receive queue: a datagram delivered to
	// a full inbox is tail-dropped, as a real modem queue would.
	inboxSlots = 4096
	// freeSlots bounds a pair's packet free list. Buffers returned to a
	// full list are left to the garbage collector.
	freeSlots = 1024
	// pktSize is the capacity of a pooled packet buffer; larger datagrams
	// get a buffer of their own.
	pktSize = 2048
)

// Endpoint is one side of the pair; it implements tunnel.Transport.
type Endpoint struct {
	out  *direction // the direction this endpoint writes into
	in   chan []byte
	done chan struct{}
	once sync.Once
	// free recycles packet buffers between WriteDatagram's copy and the
	// release of the previous ReadDatagram result. Both endpoints of a
	// pair share it; a channel passes slice headers by value, so a
	// return allocates nothing.
	free chan []byte
	// prev is the buffer handed out by the last ReadDatagram, recycled on
	// the next call. ReadDatagram therefore expects a single reader (the
	// tunnel's read loop), matching the Transport contract.
	prev []byte
}

// direction carries packets one way. Written packets wait in a min-heap
// ordered by delivery time; one goroutine per direction (run) sleeps
// until the head is due and moves every due packet into the peer's inbox.
type direction struct {
	link Link

	mu       sync.Mutex
	r        *dist.Rand
	cond     Conditions
	nextFree time.Time // when the serializer is free again
	q        []inFlight
	seq      uint64 // write order: equal delivery times leave FIFO
	stopped  bool   // the receiving endpoint closed; run has exited

	wake chan struct{} // the head of q changed
}

type inFlight struct {
	at  time.Time
	seq uint64
	pkt []byte
}

func (f inFlight) before(g inFlight) bool {
	return f.at.Before(g.at) || (f.at.Equal(g.at) && f.seq < g.seq)
}

// push adds f to the heap and reports whether it became the head. The
// caller holds d.mu. The heap is hand-rolled: container/heap would box
// every element in an interface.
func (d *direction) push(f inFlight) bool {
	d.q = append(d.q, f)
	i := len(d.q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !d.q[i].before(d.q[parent]) {
			break
		}
		d.q[i], d.q[parent] = d.q[parent], d.q[i]
		i = parent
	}
	return i == 0
}

// pop removes and returns the head. The caller holds d.mu.
func (d *direction) pop() inFlight {
	head := d.q[0]
	last := len(d.q) - 1
	d.q[0] = d.q[last]
	d.q[last] = inFlight{}
	d.q = d.q[:last]
	for i := 0; ; {
		least, l, r := i, 2*i+1, 2*i+2
		if l < last && d.q[l].before(d.q[least]) {
			least = l
		}
		if r < last && d.q[r].before(d.q[least]) {
			least = r
		}
		if least == i {
			break
		}
		d.q[i], d.q[least] = d.q[least], d.q[i]
		i = least
	}
	return head
}

// NewPair builds two connected endpoints. aToB shapes datagrams written by
// the first endpoint, bToA those written by the second. The seed drives
// loss and jitter deterministically (delivery order can still vary with
// goroutine scheduling, as on a real link). Each direction runs one
// delivery goroutine, which exits when its receiving endpoint closes.
func NewPair(aToB, bToA Link, seed uint64) (a, b *Endpoint) {
	base := dist.NewRand(seed)
	free := make(chan []byte, freeSlots)
	newEndpoint := func(link Link, label string) *Endpoint {
		return &Endpoint{
			out:  &direction{link: link, r: base.Fork(label), wake: make(chan struct{}, 1)},
			in:   make(chan []byte, inboxSlots),
			done: make(chan struct{}),
			free: free,
		}
	}
	a, b = newEndpoint(aToB, "a2b"), newEndpoint(bToA, "b2a")
	go a.out.run(b)
	go b.out.run(a)
	return a, b
}

// SetConditions applies live fault conditions to the direction this
// endpoint writes into. Degrading a whole link means calling it on both
// endpoints of the pair.
func (e *Endpoint) SetConditions(c Conditions) {
	e.out.mu.Lock()
	e.out.cond = c
	e.out.mu.Unlock()
}

func (e *Endpoint) getPkt(n int) []byte {
	if n <= pktSize {
		select {
		case b := <-e.free:
			return b[:n]
		default:
			return make([]byte, n, pktSize)
		}
	}
	return make([]byte, n)
}

func (e *Endpoint) putPkt(b []byte) {
	if cap(b) != pktSize {
		return
	}
	select {
	case e.free <- b:
	default:
	}
}

// WriteDatagram schedules delivery at the peer after loss, serialization,
// propagation, and jitter.
func (e *Endpoint) WriteDatagram(b []byte) error {
	select {
	case <-e.done:
		return ErrClosed
	default:
	}
	d := e.out
	d.mu.Lock()
	loss := d.link.Loss
	if d.cond.ExtraLoss > 0 {
		loss = 1 - (1-loss)*(1-d.cond.ExtraLoss)
	}
	if d.stopped || (loss > 0 && d.r.Bool(loss)) {
		d.mu.Unlock()
		return nil // lost on the air interface, or nobody left to receive it
	}
	now := time.Now()
	txStart := now
	if txStart.Before(d.nextFree) {
		txStart = d.nextFree
	}
	var ser time.Duration
	if d.link.RateBps > 0 {
		ser = time.Duration(float64(len(b)) / d.link.RateBps * float64(time.Second))
	}
	d.nextFree = txStart.Add(ser)
	extra := d.cond.ExtraDelay
	if d.link.Jitter > 0 {
		extra += time.Duration(d.r.Float64() * float64(d.link.Jitter))
	}
	// Copy into a pooled buffer: the caller may recycle b the moment we
	// return (tunnel.Transport contract).
	pkt := e.getPkt(len(b))
	copy(pkt, b)
	d.seq++
	head := d.push(inFlight{at: txStart.Add(ser + d.link.Delay + extra), seq: d.seq, pkt: pkt})
	d.mu.Unlock()
	if head {
		select {
		case d.wake <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
	return nil
}

// run delivers d's packets into to's inbox as they fall due, until to
// closes. A timer that fires stale (go.mod predates Go 1.23, so Reset
// does not drain its channel) only causes one more look at the head.
func (d *direction) run(to *Endpoint) {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		d.mu.Lock()
		now := time.Now()
		for len(d.q) > 0 && !d.q[0].at.After(now) {
			pkt := d.pop().pkt
			select {
			case to.in <- pkt:
			default:
				to.putPkt(pkt) // inbox full: tail-drop
			}
		}
		if len(d.q) > 0 {
			timer.Reset(d.q[0].at.Sub(now))
		}
		d.mu.Unlock()

		select {
		case <-d.wake:
		case <-timer.C:
		case <-to.done:
			d.mu.Lock()
			d.stopped = true
			for _, f := range d.q {
				to.putPkt(f.pkt)
			}
			d.q = nil
			d.mu.Unlock()
			return
		}
	}
}

// ReadDatagram blocks for the next delivered datagram. The returned
// slice is valid until the next ReadDatagram call on this endpoint.
func (e *Endpoint) ReadDatagram() ([]byte, error) {
	select {
	case pkt := <-e.in:
		e.putPkt(e.prev)
		e.prev = pkt
		return pkt, nil
	case <-e.done:
		return nil, ErrClosed
	}
}

// Close shuts this endpoint down; pending reads fail, and the goroutine
// delivering to this endpoint exits.
func (e *Endpoint) Close() error {
	e.once.Do(func() { close(e.done) })
	return nil
}
