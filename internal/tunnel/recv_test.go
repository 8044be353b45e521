package tunnel

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"satwatch/internal/dist"
	"satwatch/internal/linkemu"
)

func randomBytes(r *dist.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Uint64())
	}
	return b
}

// writeInPieces writes b in random-size pieces, then closes s.
func writeInPieces(s *Stream, b []byte, r *dist.Rand) {
	for len(b) > 0 {
		n := min(len(b), 1+r.IntN(3000))
		if _, err := s.Write(b[:n]); err != nil {
			return
		}
		b = b[n:]
	}
	s.Close()
}

// readInPieces reads s with random-size buffers until an error, which it
// returns with everything read. A zero-length Read must not fail.
func readInPieces(s *Stream, r *dist.Rand) ([]byte, error) {
	var got []byte
	for {
		buf := make([]byte, r.IntN(2000))
		n, err := s.Read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			return got, err
		}
	}
}

// waitQueued blocks until s has delivered seqs in order up to (not
// including) next.
func waitQueued(t *testing.T, s *Stream, next uint32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		got := s.recvNext
		s.mu.Unlock()
		if got >= next {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream delivered up to seq %d, want %d", got, next)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReadAndWriteToSeeTheSameBytes: over a lossy, reordering link, one
// stream drained by Read with random buffer sizes and one drained by
// WriteTo both see exactly the bytes written, then the end of stream.
func TestReadAndWriteToSeeTheSameBytes(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		r := dist.NewRand(seed)
		at, bt := newChanPair(0.03, 0.05, seed)
		client := New(at, testConfig(), true)
		server := New(bt, testConfig(), false)

		wantRead := randomBytes(r, r.IntN(80<<10))
		wantCopy := randomBytes(r, r.IntN(80<<10))
		for _, want := range [][]byte{wantRead, wantCopy} {
			s, err := client.OpenStream("prop")
			if err != nil {
				t.Fatal(err)
			}
			go writeInPieces(s, want, r.Fork(s.String()))
		}
		accept := func() *Stream {
			s, _, err := server.Accept()
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		first, second := accept(), accept()
		if first.id != 1 {
			first, second = second, first
		}

		copied := make(chan error, 1)
		var buf bytes.Buffer
		go func() {
			_, err := second.WriteTo(&buf)
			copied <- err
		}()
		got, err := readInPieces(first, r.Fork("reader"))
		if err != io.EOF {
			t.Fatalf("seed %d: Read ended with %v, want io.EOF", seed, err)
		}
		if !bytes.Equal(got, wantRead) {
			t.Fatalf("seed %d: Read saw %d bytes, want %d (or different bytes)", seed, len(got), len(wantRead))
		}
		if n, err := first.Read(make([]byte, 10)); n != 0 || err != io.EOF {
			t.Fatalf("seed %d: Read after EOF returned %d, %v", seed, n, err)
		}
		if err := <-copied; err != nil {
			t.Fatalf("seed %d: WriteTo returned %v after the FIN, want nil", seed, err)
		}
		if !bytes.Equal(buf.Bytes(), wantCopy) {
			t.Fatalf("seed %d: WriteTo saw %d bytes, want %d (or different bytes)", seed, buf.Len(), len(wantCopy))
		}
		client.Close()
		server.Close()
	}
}

// TestBufferedDataPrecedesReset: bytes that arrived before the peer's
// RESET are still handed out, by Read and by WriteTo, before ErrReset.
func TestBufferedDataPrecedesReset(t *testing.T) {
	at, bt := newChanPair(0, 0, 31)
	client := New(at, testConfig(), true)
	server := New(bt, testConfig(), false)
	defer client.Close()
	defer server.Close()

	r := dist.NewRand(31)
	want := randomBytes(r, 10*testConfig().MaxPayload+7)
	var peers [2]*Stream
	for i := range peers {
		s, err := client.OpenStream("reset")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Write(want); err != nil {
			t.Fatal(err)
		}
		if peers[i], _, err = server.Accept(); err != nil {
			t.Fatal(err)
		}
		waitQueued(t, peers[i], 1+11) // the OPEN, then 11 DATA frames
		s.Reset()
		for peers[i].Err() == nil {
			time.Sleep(time.Millisecond)
		}
	}

	got, err := readInPieces(peers[0], r)
	if !errors.Is(err, ErrReset) || !bytes.Equal(got, want) {
		t.Fatalf("Read: %d bytes then %v, want %d bytes then ErrReset", len(got), err, len(want))
	}
	var buf bytes.Buffer
	if _, err := peers[1].WriteTo(&buf); !errors.Is(err, ErrReset) || !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteTo: %d bytes then %v, want %d bytes then ErrReset", buf.Len(), err, len(want))
	}
}

// failingWriter takes ok writes, then records and rejects the next one.
type failingWriter struct {
	ok       int
	took     []byte
	rejected []byte
}

var errWriterFailed = errors.New("writer failed")

func (w *failingWriter) Write(b []byte) (int, error) {
	if w.ok == 0 {
		w.rejected = append(w.rejected, b...)
		return 0, errWriterFailed
	}
	w.ok--
	w.took = append(w.took, b...)
	return len(b), nil
}

// TestWriteToFailureReturnsEveryChunkOnce: a WriteTo whose writer fails
// mid-stream, with data still arriving, then a Read to EOF, return every
// received chunk to the pool exactly once. The pool is primed with more
// buffers than the stream ever holds, so afterwards it must hold exactly
// those buffers, each once.
func TestWriteToFailureReturnsEveryChunkOnce(t *testing.T) {
	at, bt := newChanPair(0, 0, 32)
	client := New(at, testConfig(), true)
	server := New(bt, testConfig(), false)
	defer client.Close()
	defer server.Close()

	const primed = 256
	pool := server.payloadPool
	owned := map[*byte]bool{}
	for i := 0; i < primed; i++ {
		b := make([]byte, pool.size)
		owned[unsafe.SliceData(b)] = true
		pool.put(b)
	}

	want := randomBytes(dist.NewRand(32), 120*testConfig().MaxPayload)
	s, err := client.OpenStream("fail")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		s.Write(want)
		s.Close()
	}()
	srv, _, err := server.Accept()
	if err != nil {
		t.Fatal(err)
	}
	w := &failingWriter{ok: 3}
	if _, err := srv.WriteTo(w); !errors.Is(err, errWriterFailed) {
		t.Fatalf("WriteTo returned %v, want the writer's error", err)
	}
	rest, err := io.ReadAll(srv)
	if err != nil {
		t.Fatal(err)
	}
	if got := append(append(w.took, w.rejected...), rest...); !bytes.Equal(got, want) {
		t.Fatalf("taken + rejected + read = %d bytes, want the %d written", len(got), len(want))
	}

	seen := map[*byte]bool{}
	for len(pool.free) > 0 {
		p := unsafe.SliceData(<-pool.free)
		if seen[p] {
			t.Fatal("a buffer was returned to the pool twice")
		}
		if !owned[p] {
			t.Fatal("the pool ran dry and allocated although it was primed")
		}
		seen[p] = true
	}
	if len(seen) != primed {
		t.Fatalf("pool holds %d of its %d buffers: %d chunks were never returned", len(seen), primed, primed-len(seen))
	}
}

// TestStreamAllocationBudget: once the pools are warm, a stream pays for
// its set-up and nothing per frame. A 4 MiB transfer over a zero-delay
// link, written with Write and drained with WriteTo, must allocate fewer
// than 0.1 objects per DATA frame. It holds under -race too: no buffer
// goes through a sync.Pool, which the race detector drains at random.
//
// The receiver acknowledges on receipt, so a reader the scheduler starves
// lets the receive queue grow toward the whole stream, and every chunk
// past what the pool has held before is a new buffer. The warm-up stream
// is therefore queued in full before it is read.
func TestStreamAllocationBudget(t *testing.T) {
	a, b := linkemu.NewPair(linkemu.Link{}, linkemu.Link{}, 1)
	cfg := DefaultConfig()
	client, server := New(a, cfg, true), New(b, cfg, false)
	defer client.Close()
	defer server.Close()

	const size = 4 << 20
	frames := (size + cfg.MaxPayload - 1) / cfg.MaxPayload
	chunk := make([]byte, 32<<10)
	transfer := func(readAfterFin bool) {
		s, err := client.OpenStream("budget")
		if err != nil {
			t.Fatal(err)
		}
		srv, _, err := server.Accept()
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		drain := func() {
			n, err := srv.WriteTo(io.Discard)
			if err == nil && n != size {
				err = fmt.Errorf("read %d bytes, want %d", n, size)
			}
			done <- err
		}
		if !readAfterFin {
			go drain()
		}
		for sent := 0; sent < size; sent += len(chunk) {
			if _, err := s.Write(chunk); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		if readAfterFin {
			waitQueued(t, srv, uint32(1+frames+1)) // OPEN, DATA, FIN
			go drain()
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	transfer(true)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	transfer(false)
	runtime.ReadMemStats(&after)
	perFrame := float64(after.Mallocs-before.Mallocs) / float64(frames)
	t.Logf("%d objects over %d data frames: %.3f per frame", after.Mallocs-before.Mallocs, frames, perFrame)
	if perFrame >= 0.1 {
		t.Fatalf("%.3f objects per data frame, budget 0.1", perFrame)
	}
}
