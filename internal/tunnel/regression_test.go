package tunnel

// Regression tests for the lifecycle bugs found in the AUDIT.md sweep.
// Each test fails on the pre-fix code.

import (
	"encoding/binary"
	"errors"
	"io"
	"sync"
	"testing"
	"time"
)

// recordingTransport wraps a Transport and keeps a copy of every frame
// written through it, so tests can assert on the wire conversation.
type recordingTransport struct {
	Transport
	mu     sync.Mutex
	frames [][]byte
}

func (r *recordingTransport) WriteDatagram(b []byte) error {
	cp := make([]byte, len(b))
	copy(cp, b)
	r.mu.Lock()
	r.frames = append(r.frames, cp)
	r.mu.Unlock()
	return r.Transport.WriteDatagram(b)
}

func (r *recordingTransport) snapshot() [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([][]byte, len(r.frames))
	copy(out, r.frames)
	return out
}

func mkFrame(typ uint8, id, seq uint32, payload []byte) []byte {
	buf := make([]byte, headerLen+len(payload))
	buf[0] = typ
	binary.BigEndian.PutUint32(buf[1:5], id)
	binary.BigEndian.PutUint32(buf[5:9], seq)
	binary.BigEndian.PutUint16(buf[9:11], uint16(len(payload)))
	copy(buf[headerLen:], payload)
	return buf
}

func waitDrained(t *testing.T, label string, tn *Tunnel, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		if tn.NumStreams() == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s leaked %d streams (stream table not empty after drain)", label, tn.NumStreams())
}

// TestPeerFinLastDoesNotLeakStream reproduces the stream leak: when the
// peer's FIN is the last frame to arrive (our own FIN already ACKed),
// the fully-closed condition used to be checked only in the ACK branch
// of handleFrame, so the stream stayed in Tunnel.streams forever.
func TestPeerFinLastDoesNotLeakStream(t *testing.T) {
	at, bt := newChanPair(0, 0, 21)
	client := New(at, testConfig(), true)
	server := New(bt, testConfig(), false)
	defer client.Close()
	defer server.Close()

	s, err := client.OpenStream("leakcheck")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		s.Write([]byte("request"))
		s.Close() // client FIN goes out first and is ACKed first
	}()

	srv, _, err := server.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(srv); err != nil {
		t.Fatal(err)
	}
	srv.Write([]byte("response"))
	srv.Close() // server FIN is the last frame the client sees
	if _, err := io.ReadAll(s); err != nil {
		t.Fatal(err)
	}

	waitDrained(t, "client", client, 2*time.Second)
	waitDrained(t, "server", server, 2*time.Second)
}

// TestBacklogFullResetTombstoneAnswersReset reproduces the backlog-full
// reset bug: dispatch used to send frameReset and then install a normal
// TIME_WAIT tombstone, which re-ACKed the peer's retransmitted OPEN —
// convincing the peer the stream was established while our side had
// discarded it. The tombstone of a reset stream must answer with a
// reset.
func TestBacklogFullResetTombstoneAnswersReset(t *testing.T) {
	at, bt := newChanPair(0, 0, 22)
	cfg := testConfig()
	cfg.AcceptBacklog = 1
	server := New(bt, cfg, false)
	defer server.Close()
	defer at.Close()

	// Nobody calls Accept: stream 1 fills the backlog, stream 3 overflows
	// it and is reset.
	at.WriteDatagram(mkFrame(frameOpen, 1, 0, []byte("a")))
	at.WriteDatagram(mkFrame(frameOpen, 3, 0, []byte("b")))

	// Drain the server's responses to the first flight (ACK for 1, ACK
	// then RESET for 3, in some order).
	deadline := time.Now().Add(2 * time.Second)
	sawReset := false
	for !sawReset && time.Now().Before(deadline) {
		f := readFrameWithin(t, at, 200*time.Millisecond)
		if f != nil && f[0] == frameReset && binary.BigEndian.Uint32(f[1:5]) == 3 {
			sawReset = true
		}
	}
	if !sawReset {
		t.Fatal("overflowing the accept backlog did not produce a reset")
	}

	// The peer, whose RESET was lost, retransmits its OPEN for stream 3.
	at.WriteDatagram(mkFrame(frameOpen, 3, 0, []byte("b")))
	for time.Now().Before(deadline) {
		f := readFrameWithin(t, at, 200*time.Millisecond)
		if f == nil || binary.BigEndian.Uint32(f[1:5]) != 3 {
			continue
		}
		switch f[0] {
		case frameReset:
			return // correct: the tombstone repeats the reset
		case frameAck:
			t.Fatal("reset stream's tombstone re-ACKed the retransmitted OPEN (peer now believes the stream is established)")
		}
	}
	t.Fatal("no response to the retransmitted OPEN")
}

func readFrameWithin(t *testing.T, tr *chanTransport, d time.Duration) []byte {
	t.Helper()
	type res struct {
		b   []byte
		err error
	}
	ch := make(chan res, 1)
	go func() {
		b, err := tr.ReadDatagram()
		ch <- res{b, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			return nil
		}
		return r.b
	case <-time.After(d):
		return nil
	}
}

// TestConcurrentWritersCannotOvershootWindow reproduces the send-window
// race: the window check and the seq reservation used to happen under
// separate lock acquisitions, so concurrent writers could all pass the
// check and overshoot the window. With ACKs never arriving, the number
// of sequenced frames must stay at exactly Window.
func TestConcurrentWritersCannotOvershootWindow(t *testing.T) {
	at, bt := newChanPair(0, 0, 23)
	rec := &recordingTransport{Transport: at}
	cfg := testConfig()
	cfg.Window = 4
	cfg.RTO = time.Hour // no retransmissions muddying the count
	client := New(rec, cfg, true)
	_ = bt // no peer tunnel: nothing ever ACKs

	s, err := client.OpenStream("windowed")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Write([]byte("x")) // blocks on the full window until teardown
		}()
	}
	time.Sleep(100 * time.Millisecond)

	seqs := map[uint32]bool{}
	for _, f := range rec.snapshot() {
		if f[0] == frameOpen || f[0] == frameData || f[0] == frameFin {
			seqs[binary.BigEndian.Uint32(f[5:9])] = true
		}
	}
	if len(seqs) > cfg.Window {
		t.Fatalf("sequenced %d frames with window %d: concurrent writers overshot", len(seqs), cfg.Window)
	}
	client.Close() // unblock the stalled writers
	wg.Wait()
}

// TestWriteRacingCloseNeverSequencesDataAfterFin: a Write racing Close
// must either be sequenced before the FIN or rejected — DATA after FIN
// corrupts the peer's EOF position.
func TestWriteRacingCloseNeverSequencesDataAfterFin(t *testing.T) {
	for round := 0; round < 20; round++ {
		at, bt := newChanPair(0, 0, 24)
		rec := &recordingTransport{Transport: at}
		cfg := testConfig()
		client := New(rec, cfg, true)
		server := New(bt, cfg, false)

		s, err := client.OpenStream("race")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if _, err := s.Write([]byte("d")); err != nil {
						return
					}
				}
			}()
		}
		time.Sleep(2 * time.Millisecond)
		s.Close()
		wg.Wait()

		var finSeq uint32
		hasFin := false
		for _, f := range rec.snapshot() {
			if f[0] == frameFin {
				finSeq = binary.BigEndian.Uint32(f[5:9])
				hasFin = true
			}
		}
		if !hasFin {
			t.Fatal("no FIN recorded")
		}
		for _, f := range rec.snapshot() {
			if f[0] == frameData && binary.BigEndian.Uint32(f[5:9]) > finSeq {
				t.Fatalf("DATA seq %d sequenced after FIN seq %d", binary.BigEndian.Uint32(f[5:9]), finSeq)
			}
		}
		client.Close()
		server.Close()
	}
}

// TestDeadPeerTimesOut: the max-retransmit policy must turn a dead peer
// into ErrTimeout instead of probing forever.
func TestDeadPeerTimesOut(t *testing.T) {
	at, bt := newChanPair(1.0, 0, 26) // total loss: the peer never hears us
	cfg := testConfig()
	cfg.RTO = 20 * time.Millisecond
	client := New(at, cfg, true)
	server := New(bt, cfg, false)
	defer client.Close()
	defer server.Close()

	s, err := client.OpenStream("into the void")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !errors.Is(s.Err(), ErrTimeout) {
		t.Fatalf("stream error %v, want ErrTimeout", s.Err())
	}
	if _, err := s.Write([]byte("x")); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Write on timed-out stream: %v, want ErrTimeout", err)
	}
	waitDrained(t, "client", client, 2*time.Second)
}

// TestAckBeyondSendNextIsIgnored: an ACK for frames never sent used to
// move sendBase past sendNext. The window arithmetic then wrapped, the
// window looked full forever, and the next Write blocked for good.
func TestAckBeyondSendNextIsIgnored(t *testing.T) {
	at, bt := newChanPair(0, 0, 27)
	client := New(at, testConfig(), true)
	server := New(bt, testConfig(), false)
	defer client.Close()
	defer server.Close()

	s, err := client.OpenStream("bogus-ack")
	if err != nil {
		t.Fatal(err)
	}
	srv, _, err := server.Accept()
	if err != nil {
		t.Fatal(err)
	}
	// The peer's side of the link delivers a forged ACK for seq 1000;
	// only the OPEN (seq 0) has been sent.
	bt.WriteDatagram(mkFrame(frameAck, s.id, 1000, nil))
	time.Sleep(20 * time.Millisecond)

	want := []byte("still flowing after a bogus ack")
	go func() {
		s.Write(want)
		s.Close()
	}()
	got := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(srv)
		got <- b
	}()
	select {
	case b := <-got:
		if string(b) != string(want) {
			t.Fatalf("peer read %q, want %q", b, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write after an ACK beyond sendNext never reached the peer")
	}
}
