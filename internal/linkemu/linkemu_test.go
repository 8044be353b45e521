package linkemu

import (
	"runtime"
	"testing"
	"time"
)

func fastLink(delay time.Duration) Link {
	return Link{Delay: delay, Jitter: 0, Loss: 0, RateBps: 0}
}

func TestDeliveryAndDelay(t *testing.T) {
	a, b := NewPair(fastLink(30*time.Millisecond), fastLink(30*time.Millisecond), 1)
	defer a.Close()
	defer b.Close()
	start := time.Now()
	if err := a.WriteDatagram([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadDatagram()
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if string(got) != "ping" {
		t.Fatalf("got %q", got)
	}
	if elapsed < 25*time.Millisecond {
		t.Fatalf("delivered in %v, want ≥ ~30ms propagation", elapsed)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("delivered in %v, absurdly late", elapsed)
	}
}

func TestBothDirections(t *testing.T) {
	a, b := NewPair(fastLink(5*time.Millisecond), fastLink(5*time.Millisecond), 2)
	defer a.Close()
	defer b.Close()
	a.WriteDatagram([]byte("up"))
	b.WriteDatagram([]byte("down"))
	if got, _ := b.ReadDatagram(); string(got) != "up" {
		t.Fatalf("b got %q", got)
	}
	if got, _ := a.ReadDatagram(); string(got) != "down" {
		t.Fatalf("a got %q", got)
	}
}

func TestTotalLoss(t *testing.T) {
	lossy := Link{Delay: time.Millisecond, Loss: 1.0}
	a, b := NewPair(lossy, fastLink(time.Millisecond), 3)
	defer a.Close()
	defer b.Close()
	a.WriteDatagram([]byte("vanish"))
	done := make(chan struct{})
	go func() {
		b.ReadDatagram()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("datagram survived a 100% lossy link")
	case <-time.After(100 * time.Millisecond):
	}
}

func TestPartialLossStatistics(t *testing.T) {
	lossy := Link{Delay: 0, Loss: 0.3}
	a, b := NewPair(lossy, fastLink(0), 4)
	defer a.Close()
	const n = 2000
	for i := 0; i < n; i++ {
		a.WriteDatagram([]byte{byte(i)})
	}
	received := make(chan int, 1)
	go func() {
		count := 0
		for {
			if _, err := b.ReadDatagram(); err != nil {
				received <- count
				return
			}
			count++
		}
	}()
	time.Sleep(200 * time.Millisecond)
	b.Close()
	got := <-received
	frac := float64(got) / n
	if frac < 0.6 || frac > 0.8 {
		t.Fatalf("received %.2f of datagrams through a 30%% lossy link", frac)
	}
}

func TestRateSerialization(t *testing.T) {
	// 10 KB through a 100 KB/s link: serialization alone is ~100 ms.
	rated := Link{Delay: 0, RateBps: 100_000}
	a, b := NewPair(rated, fastLink(0), 5)
	defer a.Close()
	defer b.Close()
	start := time.Now()
	const chunks = 10
	for i := 0; i < chunks; i++ {
		a.WriteDatagram(make([]byte, 1000))
	}
	for i := 0; i < chunks; i++ {
		if _, err := b.ReadDatagram(); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if elapsed < 80*time.Millisecond {
		t.Fatalf("10 KB crossed a 100 KB/s link in %v", elapsed)
	}
}

func TestCloseUnblocksRead(t *testing.T) {
	a, b := NewPair(fastLink(time.Millisecond), fastLink(time.Millisecond), 6)
	errCh := make(chan error, 1)
	go func() {
		_, err := b.ReadDatagram()
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	b.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("read returned nil after close")
		}
	case <-time.After(time.Second):
		t.Fatal("read still blocked after close")
	}
	if err := a.WriteDatagram([]byte("x")); err != nil {
		t.Fatal("writes to the open side should still succeed")
	}
	a.Close()
	if err := a.WriteDatagram([]byte("x")); err == nil {
		t.Fatal("write after close succeeded")
	}
}

func TestConditionsExtraLossOutage(t *testing.T) {
	a, b := NewPair(fastLink(time.Millisecond), fastLink(time.Millisecond), 7)
	defer a.Close()
	defer b.Close()
	a.SetConditions(Conditions{ExtraLoss: 1.0}) // beam outage
	a.WriteDatagram([]byte("lost"))
	done := make(chan struct{})
	go func() {
		b.ReadDatagram()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("datagram survived a total-outage condition")
	case <-time.After(50 * time.Millisecond):
	}
	a.SetConditions(Conditions{}) // fault clears
	a.WriteDatagram([]byte("back"))
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("link did not recover after the condition cleared")
	}
}

func TestConditionsExtraDelay(t *testing.T) {
	a, b := NewPair(fastLink(time.Millisecond), fastLink(time.Millisecond), 8)
	defer a.Close()
	defer b.Close()
	a.SetConditions(Conditions{ExtraDelay: 80 * time.Millisecond}) // gateway switch
	start := time.Now()
	a.WriteDatagram([]byte("rerouted"))
	if _, err := b.ReadDatagram(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Fatalf("delivered in %v despite an 80ms extra-delay condition", elapsed)
	}
}

func TestReadBufferValidUntilNextRead(t *testing.T) {
	// The Transport contract: the slice from ReadDatagram is valid until
	// the next call. Contents must be intact in that window even with
	// pooled buffers behind the scenes.
	a, b := NewPair(fastLink(0), fastLink(0), 9)
	defer a.Close()
	defer b.Close()
	a.WriteDatagram([]byte("first"))
	got1, err := b.ReadDatagram()
	if err != nil || string(got1) != "first" {
		t.Fatalf("got %q, %v", got1, err)
	}
	cp := string(got1) // capture before the next read recycles it
	a.WriteDatagram([]byte("second"))
	got2, err := b.ReadDatagram()
	if err != nil || string(got2) != "second" {
		t.Fatalf("got %q, %v", got2, err)
	}
	if cp != "first" {
		t.Fatalf("first buffer corrupted before the next read: %q", cp)
	}
}

func TestGEOProfile(t *testing.T) {
	l := GEO()
	if l.Delay < 230*time.Millisecond || l.Delay > 300*time.Millisecond {
		t.Fatalf("GEO one-way delay %v outside the physical band", l.Delay)
	}
	if l.Loss <= 0 || l.Loss > 0.05 {
		t.Fatalf("GEO loss %v implausible", l.Loss)
	}
}

func TestZeroJitterDeliversInWriteOrder(t *testing.T) {
	a, b := NewPair(fastLink(time.Millisecond), fastLink(time.Millisecond), 10)
	defer a.Close()
	defer b.Close()
	const n = 2000
	for i := 0; i < n; i++ {
		if err := a.WriteDatagram([]byte{byte(i >> 8), byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		got, err := b.ReadDatagram()
		if err != nil {
			t.Fatal(err)
		}
		if seq := int(got[0])<<8 | int(got[1]); seq != i {
			t.Fatalf("datagram %d arrived in position %d", seq, i)
		}
	}
}

func TestSchedulerHeapOrder(t *testing.T) {
	// Delivery times drawn from a few values, so many are equal: the heap
	// must pop in time order and, within one time, in write order.
	var d direction
	base := time.Now()
	for seq := uint64(1); seq <= 500; seq++ {
		d.push(inFlight{at: base.Add(time.Duration(seq*7919%5) * time.Millisecond), seq: seq})
	}
	prev := d.pop()
	for len(d.q) > 0 {
		next := d.pop()
		if next.at.Before(prev.at) || next.at.Equal(prev.at) && next.seq < prev.seq {
			t.Fatalf("popped (%v, seq %d) after (%v, seq %d)", next.at.Sub(base), next.seq, prev.at.Sub(base), prev.seq)
		}
		prev = next
	}
}

func TestFullInboxTailDrops(t *testing.T) {
	a, b := NewPair(fastLink(0), fastLink(0), 11)
	defer a.Close()
	defer b.Close()
	for i := 0; i < 5000; i++ {
		if err := a.WriteDatagram([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Nobody reads b: once the scheduler has moved every packet, the
	// inbox holds exactly its capacity and the rest were dropped.
	deadline := time.Now().Add(5 * time.Second)
	for {
		a.out.mu.Lock()
		queued := len(a.out.q)
		a.out.mu.Unlock()
		if queued == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d datagrams still scheduled", queued)
		}
		time.Sleep(time.Millisecond)
	}
	if got := len(b.in); got != inboxSlots {
		t.Fatalf("inbox holds %d datagrams after 5000 writes, want %d", got, inboxSlots)
	}
}

func TestCloseStopsSchedulers(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		a, b := NewPair(fastLink(time.Hour), fastLink(time.Millisecond), uint64(i))
		a.WriteDatagram([]byte("never delivered"))
		b.WriteDatagram([]byte("delivered"))
		a.Close()
		b.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after closing every pair, %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}
