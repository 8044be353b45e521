// Package tunnel implements the bidirectional reliable tunnel the PEP runs
// between the customer CPE and the ground station (§2.1: "forwards TCP
// payload to the ground station via a bidirectional reliable tunnel over
// UDP"). It multiplexes many proxied TCP connections as ordered, reliable
// byte streams over a single unreliable datagram transport, using
// per-stream sequence numbers, cumulative acknowledgements, a fixed send
// window, and timer-driven retransmission — a deliberately simple ARQ that
// tolerates the loss and reordering a satellite link produces.
package tunnel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Transport is the unreliable datagram layer under the tunnel: a UDP
// socket in deployment, an emulated satellite link in tests and demos.
type Transport interface {
	// WriteDatagram sends one datagram (best effort). The buffer is only
	// valid for the duration of the call: implementations that retain it
	// past returning must copy (the tunnel recycles frame buffers).
	WriteDatagram(b []byte) error
	// ReadDatagram blocks for the next datagram. It returns an error
	// when the transport is closed. The returned slice is only valid
	// until the next ReadDatagram call on the same transport, which
	// lets implementations recycle receive buffers; the tunnel's read
	// loop copies everything it keeps.
	ReadDatagram() ([]byte, error)
	Close() error
}

// Frame types.
const (
	frameOpen uint8 = iota + 1
	frameOpenAck
	frameData
	frameAck
	frameFin
	frameReset
)

const headerLen = 1 + 4 + 4 + 2

// Config tunes the ARQ.
type Config struct {
	// RTO is the retransmission timeout; set it above the link RTT
	// (≥1.5x the ~550 ms satellite round trip in deployment).
	RTO time.Duration
	// Window is the per-stream send window in frames.
	Window int
	// MaxPayload is the maximum DATA payload per frame, so no frame
	// ever exceeds the link MTU the value models.
	MaxPayload int
	// AcceptBacklog bounds pending un-Accept()ed streams.
	AcceptBacklog int
}

// maxRetransmits caps how often one frame is retransmitted before the
// stream is torn down with ErrTimeout: a dead peer must produce an error,
// not infinite RTO probes.
const maxRetransmits = 15

// DefaultConfig returns deployment-shaped defaults.
func DefaultConfig() Config {
	return Config{RTO: 900 * time.Millisecond, Window: 128, MaxPayload: 1200,
		AcceptBacklog: 64}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.RTO <= 0 {
		c.RTO = d.RTO
	}
	if c.Window <= 0 {
		c.Window = d.Window
	}
	if c.MaxPayload <= 0 || c.MaxPayload > 60000 {
		c.MaxPayload = d.MaxPayload
	}
	if c.AcceptBacklog <= 0 {
		c.AcceptBacklog = d.AcceptBacklog
	}
	return c
}

// ErrClosed is returned on operations over a closed tunnel or stream.
var ErrClosed = errors.New("tunnel: closed")

// Tunnel is one endpoint of the reliable tunnel.
type Tunnel struct {
	tr  Transport
	cfg Config

	mu      sync.Mutex
	streams map[uint32]*Stream
	// dead holds TIME_WAIT tombstones for recently closed streams so that
	// peer retransmissions (whose ACKs we lost) are re-acknowledged
	// instead of answered with a reset that could race ahead of data.
	dead map[uint32]tombstone
	// early buffers DATA/FIN frames that arrived before their stream's
	// OPEN (jitter reorders the first flight on a satellite link); they
	// replay as soon as the OPEN lands instead of waiting out an RTO.
	early  map[uint32][]earlyFrame
	nextID uint32
	closed bool

	acceptCh chan *Stream
	done     chan struct{}
	loopErr  error

	// Buffer pools for the datagram hot path: wire frames (header +
	// payload), the DATA payloads a stream keeps until acknowledgement
	// or until Read drains them, and ReadFrom's read buffers.
	framePool   *bufPool
	payloadPool *bufPool
	relayPool   *bufPool

	// Adaptive retransmission timeout (Jacobson/Karels smoothing over
	// RTT samples that pass Karn's rule). Config.RTO is the initial and
	// upper-anchor value.
	rttMu  sync.Mutex
	srtt   time.Duration
	rttvar time.Duration
	rto    time.Duration
}

// New creates a tunnel endpoint over a transport and starts its receive
// and retransmission loops. isClient selects the stream-ID parity so the
// two endpoints never collide when opening streams.
func New(tr Transport, cfg Config, isClient bool) *Tunnel {
	t := &Tunnel{
		tr:       tr,
		cfg:      cfg.withDefaults(),
		streams:  make(map[uint32]*Stream),
		dead:     make(map[uint32]tombstone),
		early:    make(map[uint32][]earlyFrame),
		acceptCh: make(chan *Stream, cfg.withDefaults().AcceptBacklog),
		done:     make(chan struct{}),
	}
	t.framePool = newBufPool(headerLen+t.cfg.MaxPayload, frameSlots)
	t.payloadPool = newBufPool(t.cfg.MaxPayload, payloadSlots)
	t.relayPool = newBufPool(relayBufSize, relaySlots)
	t.rto = t.cfg.RTO
	if isClient {
		t.nextID = 1
	} else {
		t.nextID = 2
	}
	go t.readLoop()
	go t.retransmitLoop()
	return t
}

// OpenStream opens a new stream whose peer should connect to dst (an
// opaque destination label, typically "host:port").
func (t *Tunnel) OpenStream(dst string) (*Stream, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	id := t.nextID
	t.nextID += 2
	s := newStream(t, id, dst)
	t.streams[id] = s
	t.mu.Unlock()
	mStreamsActive.Add(1)

	// The OPEN frame is retransmitted like data (seq 0 carries the dst).
	s.sendSegment(frameOpen, []byte(dst))
	return s, nil
}

// sampleRTT folds one clean RTT measurement into the smoothed estimator
// (RFC 6298 constants) and updates the retransmission timeout.
func (t *Tunnel) sampleRTT(rtt time.Duration) {
	t.rttMu.Lock()
	defer t.rttMu.Unlock()
	if t.srtt == 0 {
		t.srtt = rtt
		t.rttvar = rtt / 2
	} else {
		d := t.srtt - rtt
		if d < 0 {
			d = -d
		}
		t.rttvar = (3*t.rttvar + d) / 4
		t.srtt = (7*t.srtt + rtt) / 8
	}
	rto := t.srtt + 4*t.rttvar
	// Keep the adaptive value inside sane bounds around the configured
	// anchor: never quicker than an eighth (spurious-retransmit guard on
	// jittery satellite links), never slower than 4x.
	if min := t.cfg.RTO / 8; rto < min {
		rto = min
	}
	if max := 4 * t.cfg.RTO; rto > max {
		rto = max
	}
	t.rto = rto
}

// currentRTO returns the retransmission timeout in force.
func (t *Tunnel) currentRTO() time.Duration {
	t.rttMu.Lock()
	defer t.rttMu.Unlock()
	return t.rto
}

// Accept blocks for the next incoming stream and its destination label.
func (t *Tunnel) Accept() (*Stream, string, error) {
	select {
	case s := <-t.acceptCh:
		return s, s.dst, nil
	case <-t.done:
		return nil, "", t.closeReason()
	}
}

func (t *Tunnel) closeReason() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.loopErr != nil {
		return t.loopErr
	}
	return ErrClosed
}

// Close tears the tunnel and every stream down.
func (t *Tunnel) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	streams := make([]*Stream, 0, len(t.streams))
	for _, s := range t.streams {
		streams = append(streams, s)
	}
	t.mu.Unlock()
	close(t.done)
	for _, s := range streams {
		s.teardown(ErrClosed)
	}
	return t.tr.Close()
}

// NumStreams returns the number of live streams in the stream table. It
// is the leak check of the load harness and stress tests: once every
// flow has drained it must return to zero.
func (t *Tunnel) NumStreams() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.streams)
}

// buildFrame serializes one frame into a pooled buffer; pass it to
// writeFrame (which recycles it) or return it with framePool.put.
func (t *Tunnel) buildFrame(typ uint8, id, seq uint32, payload []byte) []byte {
	buf := t.framePool.get(headerLen + len(payload))
	buf[0] = typ
	binary.BigEndian.PutUint32(buf[1:5], id)
	binary.BigEndian.PutUint32(buf[5:9], seq)
	binary.BigEndian.PutUint16(buf[9:11], uint16(len(payload)))
	copy(buf[headerLen:], payload)
	return buf
}

// writeFrame hands a built frame to the transport and recycles the
// buffer (Transport.WriteDatagram must not retain it).
func (t *Tunnel) writeFrame(buf []byte) error {
	err := t.tr.WriteDatagram(buf)
	t.framePool.put(buf)
	mFramesSent.Inc()
	return err
}

func (t *Tunnel) send(typ uint8, id, seq uint32, payload []byte) error {
	if len(payload) > 0xffff {
		return fmt.Errorf("tunnel: payload %d too large", len(payload))
	}
	return t.writeFrame(t.buildFrame(typ, id, seq, payload))
}

func (t *Tunnel) readLoop() {
	for {
		dgram, err := t.tr.ReadDatagram()
		if err != nil {
			t.mu.Lock()
			if !t.closed {
				t.loopErr = err
				t.closed = true
				close(t.done)
			}
			streams := make([]*Stream, 0, len(t.streams))
			for _, s := range t.streams {
				streams = append(streams, s)
			}
			t.mu.Unlock()
			for _, s := range streams {
				s.teardown(err)
			}
			return
		}
		t.dispatch(dgram)
	}
}

func (t *Tunnel) dispatch(dgram []byte) {
	if len(dgram) < headerLen {
		return // runt datagram: drop
	}
	typ := dgram[0]
	id := binary.BigEndian.Uint32(dgram[1:5])
	seq := binary.BigEndian.Uint32(dgram[5:9])
	n := int(binary.BigEndian.Uint16(dgram[9:11]))
	if headerLen+n > len(dgram) {
		return // truncated: drop
	}
	payload := dgram[headerLen : headerLen+n]

	t.mu.Lock()
	s, ok := t.streams[id]
	if !ok {
		if d, wasDead := t.dead[id]; wasDead {
			t.mu.Unlock()
			if typ == frameData || typ == frameFin || typ == frameOpen {
				if d.reset {
					// The stream ended in a reset on our side: the peer
					// must not be talked back into believing it is
					// established — repeat the reset, never an ACK.
					_ = t.send(frameReset, id, 0, nil)
				} else {
					// TIME_WAIT: the peer retransmitted because our
					// final ACK was lost — repeat it rather than
					// resetting.
					_ = t.send(frameAck, id, d.recvNext, nil)
				}
			}
			return
		}
		if typ == frameOpen && !t.closed {
			// New incoming stream.
			s = newStream(t, id, string(payload))
			s.recvNext = 1 // the OPEN consumed seq 0
			t.streams[id] = s
			replay := t.early[id]
			delete(t.early, id)
			t.mu.Unlock()
			mStreamsActive.Add(1)
			s.sendAck(1)
			select {
			case t.acceptCh <- s:
			default:
				// Backlog full: reset the stream. The removal must leave
				// a reset tombstone, not an ACKing one — an ACKing
				// tombstone would re-acknowledge the peer's
				// retransmissions and leave it believing the stream is
				// established while our side has discarded it.
				mStreamsReset.Inc()
				_ = t.send(frameReset, id, 0, nil)
				t.removeStream(id, true)
				return
			}
			// Replay the first flight that outran its OPEN.
			for _, f := range replay {
				s.handleFrame(f.typ, f.seq, f.payload)
			}
			return
		}
		if (typ == frameData || typ == frameFin) && !t.closed {
			// The first flight outran its OPEN (jitter reordering) or
			// the OPEN was lost and is being retransmitted: buffer a
			// bounded amount and replay once the OPEN lands, instead of
			// making the peer wait out a full RTO.
			if len(t.early) < 64 && len(t.early[id]) < 32 {
				cp := make([]byte, len(payload))
				copy(cp, payload)
				t.early[id] = append(t.early[id], earlyFrame{typ: typ, seq: seq, payload: cp, at: time.Now()})
			}
		}
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	s.handleFrame(typ, seq, payload)
}

type tombstone struct {
	recvNext uint32
	at       time.Time
	// reset marks a stream that ended in a reset (backlog overflow,
	// max-retransmit teardown, peer abort): its tombstone answers
	// retransmissions with another reset instead of an ACK.
	reset bool
}

type earlyFrame struct {
	typ     uint8
	seq     uint32
	payload []byte
	at      time.Time
}

// removeStream drops a stream from the table and installs its TIME_WAIT
// tombstone. reset selects the tombstone flavour: a gracefully closed
// stream re-ACKs peer retransmissions, a reset stream repeats the reset.
func (t *Tunnel) removeStream(id uint32, reset bool) {
	t.mu.Lock()
	if s, ok := t.streams[id]; ok {
		delete(t.streams, id)
		s.mu.Lock()
		next := s.recvNext
		s.mu.Unlock()
		t.dead[id] = tombstone{recvNext: next, at: time.Now(), reset: reset}
		mStreamsActive.Add(-1)
	}
	t.mu.Unlock()
}

// pruneDead expires TIME_WAIT tombstones and stale early-frame buffers
// older than several RTOs.
func (t *Tunnel) pruneDead(now time.Time) {
	linger := 8 * t.cfg.RTO
	t.mu.Lock()
	for id, d := range t.dead {
		if now.Sub(d.at) > linger {
			delete(t.dead, id)
		}
	}
	for id, frames := range t.early {
		if len(frames) > 0 && now.Sub(frames[0].at) > linger {
			delete(t.early, id)
		}
	}
	t.mu.Unlock()
}

func (t *Tunnel) retransmitLoop() {
	interval := t.cfg.RTO / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var streams []*Stream // the tick's snapshot, reused across ticks
	for {
		select {
		case <-t.done:
			return
		case <-tick.C:
		}
		t.mu.Lock()
		for _, s := range t.streams {
			streams = append(streams, s)
		}
		t.mu.Unlock()
		now := time.Now()
		for _, s := range streams {
			s.retransmitDue(now)
		}
		clear(streams) // let finished streams go
		streams = streams[:0]
		t.pruneDead(now)
	}
}
