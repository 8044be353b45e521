package tunnel

// Stress suite: stream-lifecycle churn under loss and reordering, run
// with -race in CI. The 1k-flow drain test is the leak detector the
// ISSUE calls for: after every flow completes, both stream tables must
// be empty.

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"time"
)

// TestStressLifecycleUnderLossAndReorder churns concurrent
// open/write/close/reset through a lossy, reordering link while the
// race detector watches the locking.
func TestStressLifecycleUnderLossAndReorder(t *testing.T) {
	at, bt := newChanPair(0.03, 0.03, 31)
	cfg := testConfig()
	cfg.AcceptBacklog = 64
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
				io.Copy(s, s)
				s.Close()
			}(s)
		}
	}()

	const (
		workers        = 8
		flowsPerWorker = 25
	)
	var wg sync.WaitGroup
	errCh := make(chan error, workers*flowsPerWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < flowsPerWorker; i++ {
				s, err := client.OpenStream("stress")
				if err != nil {
					errCh <- err
					return
				}
				msg := bytes.Repeat([]byte{byte(w*31 + i + 1)}, 700+i*13)
				// Two concurrent writers per stream plus a racing close
				// exercise the window/FIN atomicity.
				var sw sync.WaitGroup
				half := len(msg) / 2
				sw.Add(2)
				go func() { defer sw.Done(); s.Write(msg[:half]) }()
				go func() { defer sw.Done(); s.Write(msg[half:]) }()
				sw.Wait()
				s.Close()
				got, err := io.ReadAll(s)
				if err != nil {
					errCh <- err
					continue
				}
				if len(got) != len(msg) {
					// Interleaving of the two writers is arbitrary, but the
					// byte count must survive.
					errCh <- io.ErrShortWrite
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	waitDrained(t, "client", client, 10*time.Second)
	waitDrained(t, "server", server, 10*time.Second)
}

// TestDrain1kFlowsLeavesEmptyStreamTables is the leak-detection test:
// 1000 request/response flows, then both stream tables must drain to
// exactly zero.
func TestDrain1kFlowsLeavesEmptyStreamTables(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-flow drain test skipped in -short mode")
	}
	at, bt := newChanPair(0.01, 0.01, 32)
	cfg := testConfig()
	cfg.AcceptBacklog = 256
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
				s.Write([]byte("done"))
				s.Close()
			}(s)
		}
	}()

	const flows = 1000
	sem := make(chan struct{}, 64)
	var wg sync.WaitGroup
	errCh := make(chan error, flows)
	for i := 0; i < flows; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			s, err := client.OpenStream("drain")
			if err != nil {
				errCh <- err
				return
			}
			s.Write(bytes.Repeat([]byte{byte(i)}, 200))
			s.Close()
			if _, err := io.ReadAll(s); err != nil {
				errCh <- err
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	waitDrained(t, "client", client, 15*time.Second)
	waitDrained(t, "server", server, 15*time.Second)
}

// TestStressResetStorm tears streams down mid-flight from both ends and
// checks the tables still drain (resets must not leave ACKing tombstones
// or leaked entries). The link is clean: a RESET is sent once, so this
// test pins down abort propagation, while the lossy-link tests above
// cover the ARQ (a lost RESET is repaired by the reset tombstone only
// when the peer retransmits into it).
func TestStressResetStorm(t *testing.T) {
	at, bt := newChanPair(0, 0, 33)
	cfg := testConfig()
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
				// Read a little, then abandon abruptly half the time.
				buf := make([]byte, 256)
				s.Read(buf)
				if s.id%4 == 0 {
					s.Reset()
					return
				}
				io.Copy(io.Discard, s)
				s.Close()
			}(s)
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 60; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := client.OpenStream("storm")
			if err != nil {
				return
			}
			s.Write(bytes.Repeat([]byte{1}, 2000))
			if i%3 == 0 {
				s.Reset() // local abort must notify the peer
				return
			}
			s.Close()
			io.ReadAll(s)
		}(i)
	}
	wg.Wait()
	waitDrained(t, "client", client, 10*time.Second)
	waitDrained(t, "server", server, 10*time.Second)
}
