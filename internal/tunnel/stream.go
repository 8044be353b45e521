package tunnel

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// ErrReset is returned when the peer aborted the stream.
var ErrReset = errors.New("tunnel: stream reset by peer")

// ErrTimeout is returned when the max-retransmit policy gives up on a
// frame: the peer is dead or unreachable past any plausible outage.
var ErrTimeout = errors.New("tunnel: stream timed out (max retransmissions exceeded)")

type pending struct {
	typ     uint8
	payload []byte
	firstTx time.Time
	lastTx  time.Time
	txCount int
}

type oooSegment struct {
	fin  bool
	data []byte
}

// Stream is one ordered reliable byte stream inside a tunnel. Read and
// Write follow io semantics; Close performs a graceful half-close (the
// peer's Read drains buffered data, then sees io.EOF).
type Stream struct {
	t   *Tunnel
	id  uint32
	dst string

	mu       sync.Mutex
	sendCond *sync.Cond
	recvCond *sync.Cond

	// Sender state. unacked holds the frames sequenced from sendBase to
	// sendNext-1, oldest first: an ACK pops from the front and the
	// retransmission timer probes the front.
	sendNext uint32
	sendBase uint32
	unacked  ring[pending]

	// Receiver state. recvq holds the in-order payload chunks (pooled
	// copies) until Read or WriteTo drains them; Read has consumed the
	// first recvOff bytes of the front chunk.
	recvNext uint32
	recvq    ring[[]byte]
	recvOff  int
	ooo      map[uint32]oooSegment // frames ahead of recvNext; nil until one arrives
	peerFin  bool                  // FIN delivered in order

	err    error
	closed bool // Close called: the FIN holds the stream's last sequence number
}

func newStream(t *Tunnel, id uint32, dst string) *Stream {
	s := &Stream{t: t, id: id, dst: dst}
	s.sendCond = sync.NewCond(&s.mu)
	s.recvCond = sync.NewCond(&s.mu)
	return s
}

// Err returns the stream's terminal error (nil while healthy; ErrReset
// after a peer abort, ErrTimeout after a max-retransmit teardown, the
// transport error after a tunnel failure).
func (s *Stream) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// reserveLocked assigns the next sequence number to a frame and
// registers it for retransmission; the caller holds s.mu and transmits
// after unlocking. Keeping the reservation under the caller's lock is
// what makes the window check atomic with sequencing: concurrent
// writers cannot overshoot the window, and no DATA can be sequenced
// after a racing Close's FIN.
func (s *Stream) reserveLocked(typ uint8, payload []byte) uint32 {
	seq := s.sendNext
	s.sendNext++
	now := time.Now()
	s.unacked.push(pending{typ: typ, payload: payload, firstTx: now, lastTx: now, txCount: 1})
	return seq
}

// sendSegment reserves and transmits one frame (OPEN; DATA and FIN have
// their own paths so the window check and Close stay atomic).
func (s *Stream) sendSegment(typ uint8, payload []byte) {
	s.mu.Lock()
	seq := s.reserveLocked(typ, payload)
	s.mu.Unlock()
	_ = s.t.send(typ, s.id, seq, payload)
}

// Write implements io.Writer, blocking while the send window is full.
// Writes racing a Close fail with ErrClosed rather than sequencing data
// after the FIN.
func (s *Stream) Write(b []byte) (int, error) {
	total := 0
	for len(b) > 0 {
		n := len(b)
		if n > s.t.cfg.MaxPayload {
			n = s.t.cfg.MaxPayload
		}

		s.mu.Lock()
		stalled := false
		for s.err == nil && !s.closed && s.sendNext-s.sendBase >= uint32(s.t.cfg.Window) {
			if !stalled {
				stalled = true
				mWindowStalls.Inc()
			}
			s.sendCond.Wait()
		}
		if s.err != nil {
			err := s.err
			s.mu.Unlock()
			return total, err
		}
		if s.closed {
			s.mu.Unlock()
			return total, ErrClosed
		}
		// Copy into a pooled payload buffer (owned by unacked until the
		// ACK frees it) and sequence it under the same lock as the
		// window check above.
		chunk := s.t.payloadPool.get(n)
		copy(chunk, b[:n])
		seq := s.reserveLocked(frameData, chunk)
		s.mu.Unlock()

		_ = s.t.send(frameData, s.id, seq, chunk)
		b = b[n:]
		total += n
	}
	return total, nil
}

// ReadFrom implements io.ReaderFrom: it writes everything it reads from
// r to the stream, through a read buffer the tunnel recycles, until r
// reports io.EOF (returning nil) or an error. It does not close the
// stream.
func (s *Stream) ReadFrom(r io.Reader) (int64, error) {
	buf := s.t.relayPool.get(relayBufSize)
	defer s.t.relayPool.put(buf)
	var total int64
	for {
		n, err := r.Read(buf)
		if n > 0 {
			m, werr := s.Write(buf[:n])
			total += int64(m)
			if werr != nil {
				return total, werr
			}
		}
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

// waitReadableLocked blocks until a chunk is queued, the peer's FIN was
// delivered, or the stream failed. The caller holds s.mu.
func (s *Stream) waitReadableLocked() {
	for s.recvq.len() == 0 && !s.peerFin && s.err == nil {
		s.recvCond.Wait()
	}
}

// Read implements io.Reader: it blocks until data, EOF (peer FIN), or a
// stream error. Buffered data always comes before EOF or the error.
func (s *Stream) Read(b []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.waitReadableLocked()
	if s.recvq.len() == 0 {
		if s.peerFin {
			return 0, io.EOF
		}
		return 0, s.err
	}
	n := 0
	for n < len(b) && s.recvq.len() > 0 {
		chunk := *s.recvq.front()
		m := copy(b[n:], chunk[s.recvOff:])
		n += m
		s.recvOff += m
		if s.recvOff == len(chunk) {
			s.t.payloadPool.put(s.recvq.pop())
			s.recvOff = 0
		}
	}
	return n, nil
}

// WriteTo implements io.WriterTo, so io.Copy(w, s) needs no copy buffer:
// each queued chunk goes straight to w and back to the tunnel's pool. It
// returns nil after the peer's FIN and the stream error after a failure,
// in both cases once the buffered data is written. A chunk w fails to
// take is dropped with w's error, as io.Copy drops a buffer it could
// not write.
func (s *Stream) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for {
		s.mu.Lock()
		s.waitReadableLocked()
		if s.recvq.len() == 0 {
			err := s.err
			if s.peerFin {
				err = nil
			}
			s.mu.Unlock()
			return total, err
		}
		chunk, off := s.recvq.pop(), s.recvOff
		s.recvOff = 0
		s.mu.Unlock()
		n, err := w.Write(chunk[off:])
		s.t.payloadPool.put(chunk)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
}

// Close performs a graceful close: a FIN is sequenced after all written
// data — atomically with setting the closed flag, so no concurrent
// Write can slip a DATA frame behind it — and retransmitted until
// acknowledged. Safe to call multiple times.
func (s *Stream) Close() error {
	s.mu.Lock()
	if s.closed || s.err != nil {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	seq := s.reserveLocked(frameFin, nil)
	s.mu.Unlock()
	_ = s.t.send(frameFin, s.id, seq, nil)
	return nil
}

// Reset aborts the stream immediately: a RESET frame tells the peer
// (best effort — if it is lost, the peer's next retransmission hits our
// reset tombstone and is answered with another RESET), and local
// readers and writers fail with ErrReset.
func (s *Stream) Reset() {
	mStreamsReset.Inc()
	_ = s.t.send(frameReset, s.id, 0, nil)
	s.teardown(ErrReset)
}

// teardown aborts the stream with an error, waking all waiters and
// recycling any in-flight payload buffers.
func (s *Stream) teardown(err error) {
	s.mu.Lock()
	first := s.err == nil
	if first {
		s.err = err
		for s.unacked.len() > 0 {
			if p := s.unacked.pop(); p.typ == frameData {
				s.t.payloadPool.put(p.payload)
			}
		}
		s.sendBase = s.sendNext
	}
	s.mu.Unlock()
	s.recvCond.Broadcast()
	s.sendCond.Broadcast()
	// A torn-down stream never ACKs again: its tombstone answers with a
	// reset so a still-talking peer learns the stream is gone.
	s.t.removeStream(s.id, true)
}

func (s *Stream) sendAck(next uint32) {
	_ = s.t.send(frameAck, s.id, next, nil)
}

// handleFrame processes one incoming frame for this stream.
func (s *Stream) handleFrame(typ uint8, seq uint32, payload []byte) {
	switch typ {
	case frameAck:
		now := time.Now()
		var sample time.Duration
		s.mu.Lock()
		// An ACK beyond sendNext acknowledges frames never sent. Taking
		// it would put sendBase past sendNext, and the window would look
		// full forever.
		if seq > s.sendBase && seq <= s.sendNext {
			for ; s.sendBase < seq; s.sendBase++ {
				p := s.unacked.pop()
				// Karn's rule: only never-retransmitted frames produce
				// RTT samples.
				if p.txCount == 1 {
					sample = now.Sub(p.firstTx)
				}
				if p.typ == frameData {
					s.t.payloadPool.put(p.payload)
				}
			}
			s.sendCond.Broadcast()
		}
		done := s.fullyClosedLocked()
		s.mu.Unlock()
		if sample > 0 {
			s.t.sampleRTT(sample)
		}
		if done {
			s.t.removeStream(s.id, false)
		}
	case frameData, frameFin:
		s.mu.Lock()
		switch {
		case seq < s.recvNext:
			// Duplicate of something already delivered: re-ack.
		case seq >= s.recvNext+uint32(4*s.t.cfg.Window):
			// Absurdly far ahead: drop without ack.
			s.mu.Unlock()
			return
		case seq == s.recvNext:
			// In order: deliver, then everything it unblocks.
			s.deliverLocked(typ == frameFin, s.chunk(typ, payload))
			for {
				seg, ok := s.ooo[s.recvNext]
				if !ok {
					break
				}
				delete(s.ooo, s.recvNext)
				s.deliverLocked(seg.fin, seg.data)
			}
		default:
			if _, dup := s.ooo[seq]; !dup {
				if s.ooo == nil {
					s.ooo = make(map[uint32]oooSegment)
				}
				s.ooo[seq] = oooSegment{fin: typ == frameFin, data: s.chunk(typ, payload)}
			}
		}
		next := s.recvNext
		// The peer's FIN can be the last frame of the conversation: when
		// our own FIN is already acknowledged, this branch — not the ACK
		// branch — is where the stream completes, and skipping the check
		// here leaks the stream in the table forever.
		done := s.fullyClosedLocked()
		s.recvCond.Broadcast()
		s.mu.Unlock()
		s.sendAck(next)
		if done {
			s.t.removeStream(s.id, false)
		}
	case frameReset:
		mStreamsReset.Inc()
		s.teardown(ErrReset)
	case frameOpen:
		// Duplicate OPEN (our ACK was lost): re-ack seq 1.
		s.mu.Lock()
		next := s.recvNext
		s.mu.Unlock()
		if next >= 1 {
			s.sendAck(next)
		}
	}
}

// chunk copies a DATA payload into a pooled buffer (the dispatch buffer
// is recycled on the next ReadDatagram). A FIN's payload, or an empty
// one, yields nil.
func (s *Stream) chunk(typ uint8, payload []byte) []byte {
	if typ != frameData || len(payload) == 0 {
		return nil
	}
	data := s.t.payloadPool.get(len(payload))
	copy(data, payload)
	return data
}

// deliverLocked consumes sequence number recvNext: a FIN marks the end
// of the peer's data, a chunk is queued for Read and WriteTo. The caller
// holds s.mu.
func (s *Stream) deliverLocked(fin bool, data []byte) {
	s.recvNext++
	if fin {
		s.peerFin = true
	}
	if data != nil {
		s.recvq.push(data)
	}
}

// fullyClosedLocked reports whether both directions have finished: our
// FIN is sent and acknowledged, and the peer's FIN was delivered in
// order. The caller holds s.mu.
func (s *Stream) fullyClosedLocked() bool {
	return s.closed && s.unacked.len() == 0 && s.peerFin
}

// retransmitDue resends the oldest unacknowledged frame when its RTO has
// expired (go-back-one: one probe per RTO avoids retransmission storms on
// a long-delay link). Past the max-retransmit cap the stream is torn
// down with ErrTimeout and the peer told via a best-effort reset.
func (s *Stream) retransmitDue(now time.Time) {
	rto := s.t.currentRTO()
	s.mu.Lock()
	if s.unacked.len() == 0 || s.err != nil || now.Sub(s.unacked.front().lastTx) < rto {
		s.mu.Unlock()
		return
	}
	p := s.unacked.front()
	if p.txCount > maxRetransmits {
		s.mu.Unlock()
		mStreamsTimedOut.Inc()
		_ = s.t.send(frameReset, s.id, 0, nil)
		s.teardown(ErrTimeout)
		return
	}
	p.lastTx = now
	p.txCount++
	// Serialize under the lock: the payload buffer is pooled and may be
	// recycled by an ACK the moment we let go of s.mu.
	buf := s.t.buildFrame(p.typ, s.id, s.sendBase, p.payload)
	s.mu.Unlock()
	mRetransmits.Inc()
	_ = s.t.writeFrame(buf)
}

// String implements fmt.Stringer for diagnostics.
func (s *Stream) String() string {
	return fmt.Sprintf("stream(%d→%s)", s.id, s.dst)
}
