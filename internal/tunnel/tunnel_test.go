package tunnel

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"satwatch/internal/dist"
)

// chanTransport is an in-memory Transport pair with optional loss and
// reordering injected deterministically.
type chanTransport struct {
	out     chan<- []byte
	in      <-chan []byte
	done    chan struct{}
	once    sync.Once
	mu      sync.Mutex
	r       *dist.Rand
	loss    float64
	reorder float64
	held    [][]byte
}

func newChanPair(loss, reorder float64, seed uint64) (*chanTransport, *chanTransport) {
	ab := make(chan []byte, 4096)
	ba := make(chan []byte, 4096)
	base := dist.NewRand(seed)
	a := &chanTransport{out: ab, in: ba, done: make(chan struct{}), r: base.Fork("a"), loss: loss, reorder: reorder}
	b := &chanTransport{out: ba, in: ab, done: make(chan struct{}), r: base.Fork("b"), loss: loss, reorder: reorder}
	return a, b
}

func (c *chanTransport) WriteDatagram(b []byte) error {
	select {
	case <-c.done:
		return ErrClosed
	default:
	}
	cp := make([]byte, len(b))
	copy(cp, b)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.loss > 0 && c.r.Bool(c.loss) {
		return nil
	}
	if c.reorder > 0 && c.r.Bool(c.reorder) {
		// Hold this datagram back; release it after the next one.
		c.held = append(c.held, cp)
		return nil
	}
	c.deliver(cp)
	for _, h := range c.held {
		c.deliver(h)
	}
	c.held = nil
	return nil
}

func (c *chanTransport) deliver(b []byte) {
	select {
	case c.out <- b:
	default:
	}
}

func (c *chanTransport) ReadDatagram() ([]byte, error) {
	select {
	case b := <-c.in:
		return b, nil
	case <-c.done:
		return nil, ErrClosed
	}
}

func (c *chanTransport) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}

func testConfig() Config {
	return Config{RTO: 40 * time.Millisecond, Window: 64, MaxPayload: 512, AcceptBacklog: 16}
}

func TestOpenAcceptRoundTrip(t *testing.T) {
	at, bt := newChanPair(0, 0, 1)
	client := New(at, testConfig(), true)
	server := New(bt, testConfig(), false)
	defer client.Close()
	defer server.Close()

	s, err := client.OpenStream("origin.example:443")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		s.Write([]byte("hello over 550ms"))
		s.Close()
	}()

	srv, dst, err := server.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if dst != "origin.example:443" {
		t.Fatalf("dst %q", dst)
	}
	got, err := io.ReadAll(srv)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello over 550ms" {
		t.Fatalf("got %q", got)
	}
}

func TestBidirectionalEcho(t *testing.T) {
	at, bt := newChanPair(0, 0, 2)
	client := New(at, testConfig(), true)
	server := New(bt, testConfig(), false)
	defer client.Close()
	defer server.Close()

	go func() {
		s, _, err := server.Accept()
		if err != nil {
			return
		}
		io.Copy(s, s) // echo
		s.Close()
	}()

	s, err := client.OpenStream("echo")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("ping across the satellite")
	if _, err := s.Write(msg); err != nil {
		t.Fatal(err)
	}
	s.Close()
	got, err := io.ReadAll(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo mismatch: %q", got)
	}
}

func TestBulkTransferOverLossyReorderingLink(t *testing.T) {
	at, bt := newChanPair(0.05, 0.05, 3)
	client := New(at, testConfig(), true)
	server := New(bt, testConfig(), false)
	defer client.Close()
	defer server.Close()

	payload := make([]byte, 300<<10) // 300 KiB
	r := dist.NewRand(4)
	for i := range payload {
		payload[i] = byte(r.Uint64())
	}
	wantSum := sha256.Sum256(payload)

	go func() {
		s, _, err := server.Accept()
		if err != nil {
			return
		}
		io.Copy(s, s)
		s.Close()
	}()

	s, err := client.OpenStream("bulk")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		s.Write(payload)
		s.Close()
	}()
	got, err := io.ReadAll(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payload) {
		t.Fatalf("echoed %d bytes, want %d", len(got), len(payload))
	}
	if sha256.Sum256(got) != wantSum {
		t.Fatal("payload corrupted across the lossy link")
	}
}

func TestManyConcurrentStreams(t *testing.T) {
	at, bt := newChanPair(0.02, 0.02, 5)
	client := New(at, testConfig(), true)
	server := New(bt, testConfig(), false)
	defer client.Close()
	defer server.Close()

	go func() {
		for {
			s, _, err := server.Accept()
			if err != nil {
				return
			}
			go func(s *Stream) {
				io.Copy(s, s)
				s.Close()
			}(s)
		}
	}()

	const streams = 12
	var wg sync.WaitGroup
	errs := make(chan error, streams)
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := client.OpenStream("multi")
			if err != nil {
				errs <- err
				return
			}
			msg := bytes.Repeat([]byte{byte(i + 1)}, 4096+i*17)
			go func() {
				s.Write(msg)
				s.Close()
			}()
			got, err := io.ReadAll(s)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, msg) {
				errs <- errors.New("stream payload mismatch")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestStreamIDParity(t *testing.T) {
	at, bt := newChanPair(0, 0, 6)
	client := New(at, testConfig(), true)
	server := New(bt, testConfig(), false)
	defer client.Close()
	defer server.Close()
	s1, _ := client.OpenStream("a")
	s2, _ := client.OpenStream("b")
	if s1.id%2 != 1 || s2.id%2 != 1 {
		t.Fatal("client streams must use odd IDs")
	}
	if s1.id == s2.id {
		t.Fatal("duplicate stream IDs")
	}
}

func TestCloseUnblocksEverything(t *testing.T) {
	at, bt := newChanPair(0, 0, 7)
	client := New(at, testConfig(), true)
	server := New(bt, testConfig(), false)

	s, err := client.OpenStream("x")
	if err != nil {
		t.Fatal(err)
	}
	readDone := make(chan error, 1)
	go func() {
		_, err := s.Read(make([]byte, 10))
		readDone <- err
	}()
	time.Sleep(20 * time.Millisecond)
	client.Close()
	server.Close()
	select {
	case err := <-readDone:
		if err == nil {
			t.Fatal("blocked Read returned nil after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Read still blocked after Close")
	}
}

func TestCloseUnblocksAccept(t *testing.T) {
	at, bt := newChanPair(0, 0, 13)
	New(at, testConfig(), true)
	server := New(bt, testConfig(), false)
	acceptDone := make(chan error, 1)
	go func() {
		_, _, err := server.Accept()
		acceptDone <- err
	}()
	time.Sleep(20 * time.Millisecond)
	server.Close()
	select {
	case err := <-acceptDone:
		if err == nil {
			t.Fatal("Accept returned nil after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Accept still blocked after Close")
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	at, bt := newChanPair(0, 0, 8)
	client := New(at, testConfig(), true)
	server := New(bt, testConfig(), false)
	defer client.Close()
	defer server.Close()
	s, _ := client.OpenStream("x")
	s.Close()
	if _, err := s.Write([]byte("late")); err == nil {
		t.Fatal("write after close succeeded")
	}
}

func TestOpenOnClosedTunnel(t *testing.T) {
	at, bt := newChanPair(0, 0, 9)
	client := New(at, testConfig(), true)
	New(bt, testConfig(), false)
	client.Close()
	if _, err := client.OpenStream("x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("err %v, want ErrClosed", err)
	}
}

func TestRuntAndTruncatedDatagramsIgnored(t *testing.T) {
	at, bt := newChanPair(0, 0, 10)
	client := New(at, testConfig(), true)
	server := New(bt, testConfig(), false)
	defer client.Close()
	defer server.Close()
	// Inject garbage at the raw transport level.
	at.WriteDatagram([]byte{1, 2, 3})
	bad := make([]byte, headerLen)
	bad[0] = frameData
	bad[9] = 0xff // claims 65280-byte payload, carries none
	bad[10] = 0
	at.WriteDatagram(bad)
	// The tunnel must still work.
	s, err := client.OpenStream("ok")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		s.Write([]byte("fine"))
		s.Close()
	}()
	srv, _, err := server.Accept()
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(srv)
	if string(got) != "fine" {
		t.Fatalf("got %q", got)
	}
}

func TestDataBeforeOpenIsHarmless(t *testing.T) {
	// A DATA frame arriving before its stream's OPEN (lost or reordered)
	// must be dropped silently — a reset here would race the
	// retransmitted OPEN and kill a healthy stream.
	at, bt := newChanPair(0, 0, 11)
	client := New(at, testConfig(), true)
	server := New(bt, testConfig(), false)
	defer client.Close()
	defer server.Close()
	buf := make([]byte, headerLen+1)
	buf[0] = frameData
	buf[4] = 99 // stream id 99, never opened
	buf[10] = 1
	buf[headerLen] = 'x'
	at.WriteDatagram(buf)
	time.Sleep(30 * time.Millisecond)
	// The tunnel must still accept new streams normally.
	s, err := client.OpenStream("still-alive")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		s.Write([]byte("ok"))
		s.Close()
	}()
	srv, _, err := server.Accept()
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(srv)
	if string(got) != "ok" {
		t.Fatalf("got %q", got)
	}
}

func TestLostOpenRecoveredByRetransmission(t *testing.T) {
	// Force the very first datagram (the OPEN) to be lost, then verify
	// the ARQ re-establishes the stream and delivers everything.
	at, bt := newChanPair(0, 0, 14)
	at.mu.Lock()
	at.loss = 1.0 // lose everything for now
	at.mu.Unlock()
	client := New(at, testConfig(), true)
	server := New(bt, testConfig(), false)
	defer client.Close()
	defer server.Close()

	s, err := client.OpenStream("recover")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		s.Write([]byte("through the storm"))
		s.Close()
	}()
	time.Sleep(30 * time.Millisecond) // OPEN and first data are gone
	at.mu.Lock()
	at.loss = 0
	at.mu.Unlock()

	srv, dst, err := server.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if dst != "recover" {
		t.Fatalf("dst %q", dst)
	}
	got, err := io.ReadAll(srv)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "through the storm" {
		t.Fatalf("got %q", got)
	}
}

func TestHalfCloseDeliversEOFAfterData(t *testing.T) {
	at, bt := newChanPair(0, 0, 12)
	client := New(at, testConfig(), true)
	server := New(bt, testConfig(), false)
	defer client.Close()
	defer server.Close()

	s, _ := client.OpenStream("half")
	s.Write([]byte("tail"))
	s.Close()

	srv, _, err := server.Accept()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := io.ReadFull(srv, buf[:4])
	if err != nil || n != 4 {
		t.Fatalf("read %d, %v", n, err)
	}
	if _, err := srv.Read(buf); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF after FIN, got %v", err)
	}
	// The server can still write back after the client's half-close.
	if _, err := srv.Write([]byte("resp")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if _, err := io.ReadFull(s, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "resp" {
		t.Fatalf("got %q", got)
	}
}

func TestEarlyDataReplayedAfterLateOpen(t *testing.T) {
	// Deliver DATA before its OPEN (jitter reordering): once the OPEN
	// arrives the buffered first flight must replay immediately, without
	// waiting out an RTO.
	cfg := testConfig()
	cfg.RTO = 5 * time.Second // a retransmission would blow the deadline
	at, bt := newChanPair(0, 0, 15)
	client := New(at, cfg, true)
	server := New(bt, cfg, false)
	defer client.Close()
	defer server.Close()

	// Handcraft the reordered flight for stream id 1: DATA seq 1, then
	// FIN seq 2, then the OPEN (seq 0).
	payload := []byte("early bird")
	buf := make([]byte, headerLen+len(payload))
	buf[0] = frameData
	buf[4] = 1 // stream id
	buf[8] = 1 // seq 1
	buf[9] = byte(len(payload) >> 8)
	buf[10] = byte(len(payload))
	copy(buf[headerLen:], payload)
	at.WriteDatagram(buf)

	fin := make([]byte, headerLen)
	fin[0] = frameFin
	fin[4] = 1
	fin[8] = 2
	at.WriteDatagram(fin)

	open := make([]byte, headerLen+3)
	open[0] = frameOpen
	open[4] = 1
	open[10] = 3
	copy(open[headerLen:], "dst")
	at.WriteDatagram(open)

	done := make(chan string, 1)
	go func() {
		s, _, err := server.Accept()
		if err != nil {
			done <- "accept error"
			return
		}
		data, _ := io.ReadAll(s)
		done <- string(data)
	}()
	select {
	case got := <-done:
		if got != "early bird" {
			t.Fatalf("got %q", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("early data not replayed promptly (waited past any jitter, under the 5s RTO)")
	}
}

// TestUnknownFrameTypeIsDropped: a well-formed frame of a type this
// endpoint does not know (a newer or foreign peer) is discarded, on an
// unknown stream ID and on a live one, and the stream carries on.
func TestUnknownFrameTypeIsDropped(t *testing.T) {
	at, bt := newChanPair(0, 0, 16)
	client := New(at, testConfig(), true)
	server := New(bt, testConfig(), false)
	defer client.Close()
	defer server.Close()

	s, err := client.OpenStream("origin.example:443")
	if err != nil {
		t.Fatal(err)
	}
	srv, _, err := server.Accept()
	if err != nil {
		t.Fatal(err)
	}
	const frameUnknown = frameReset + 1
	for _, id := range []uint32{s.id, 9999} {
		if err := client.send(frameUnknown, id, 0, []byte("ignored")); err != nil {
			t.Fatal(err)
		}
	}
	go func() {
		s.Write([]byte("still here"))
		s.Close()
	}()
	got, err := io.ReadAll(srv)
	if err != nil || string(got) != "still here" {
		t.Fatalf("stream after unknown frames: %q, %v", got, err)
	}
	if n := server.NumStreams(); n > 1 {
		t.Fatalf("unknown frame created a stream: %d in table", n)
	}
}

func TestAdaptiveRTOLearnsLinkRTT(t *testing.T) {
	cfg := testConfig()
	cfg.RTO = 400 * time.Millisecond // pessimistic initial
	at, bt := newChanPair(0, 0, 19)
	client := New(at, cfg, true)
	server := New(bt, cfg, false)
	defer client.Close()
	defer server.Close()

	go func() {
		for {
			s, _, err := server.Accept()
			if err != nil {
				return
			}
			go func(s *Stream) {
				io.Copy(io.Discard, s)
			}(s)
		}
	}()

	s, err := client.OpenStream("fast-link")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := s.Write(bytes.Repeat([]byte{1}, 256)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	deadline := time.Now().Add(3 * time.Second)
	srtt := func() time.Duration {
		client.rttMu.Lock()
		defer client.rttMu.Unlock()
		return client.srtt
	}
	for srtt() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if srtt() == 0 {
		t.Fatal("no RTT samples collected")
	}
	// In-memory link: RTT is microseconds-to-milliseconds; the adaptive
	// RTO must have dropped well below the 400 ms anchor.
	if rto := client.currentRTO(); rto >= cfg.RTO {
		t.Fatalf("RTO %v did not adapt below the initial %v (srtt %v)", rto, cfg.RTO, srtt())
	}
	if rto := client.currentRTO(); rto < cfg.RTO/8 {
		t.Fatalf("RTO %v fell below the spurious-retransmit floor", rto)
	}
}
