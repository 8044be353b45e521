// Package pep implements a working RFC 3135 Performance Enhancing Proxy:
// the split-TCP pair the SatCom operator runs (§2.1). The CPE side
// terminates customer TCP connections locally — so the three-way handshake
// completes without crossing the satellite — and relays the byte stream
// over the reliable tunnel (package tunnel); the gateway side terminates
// the tunnel streams and opens the real TCP connections to origin servers.
// The two TCP congestion-control loops are thereby fully decoupled.
package pep

import (
	"errors"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"satwatch/internal/tunnel"
)

// Stats counts proxy activity; all fields are atomically updated.
type Stats struct {
	Connections atomic.Int64
	BytesUp     atomic.Int64 // customer → internet
	BytesDown   atomic.Int64 // internet → customer
	Errors      atomic.Int64
}

// CPE is the customer-side proxy: it owns the CPE end of the tunnel.
type CPE struct {
	tn    *tunnel.Tunnel
	Stats Stats
	log   *slog.Logger
}

// NewCPE builds the CPE proxy over a satellite transport.
func NewCPE(tr tunnel.Transport, cfg tunnel.Config, logger *slog.Logger) *CPE {
	if logger == nil {
		logger = slog.Default()
	}
	return &CPE{tn: tunnel.New(tr, cfg, true), log: logger}
}

// Close tears down the tunnel and all proxied connections.
func (c *CPE) Close() error { return c.tn.Close() }

// ActiveStreams reports the live entries in the tunnel's stream table —
// the load harness's leak check after a full drain.
func (c *CPE) ActiveStreams() int { return c.tn.NumStreams() }

// ServeListener accepts customer TCP connections on ln and proxies each to
// dst through the satellite tunnel. It returns when the listener fails
// (e.g. is closed).
func (c *CPE) ServeListener(ln net.Listener, dst string) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go c.ProxyConn(conn, dst)
	}
}

// ProxyConn relays one already-accepted customer connection to dst. By the
// time this runs the customer's TCP handshake has already completed
// locally — the RFC 3135 acceleration — and any early data is forwarded
// immediately without waiting for the satellite round trip.
func (c *CPE) ProxyConn(conn net.Conn, dst string) {
	defer conn.Close()
	stream, err := c.tn.OpenStream(dst)
	if err != nil {
		c.Stats.Errors.Add(1)
		c.log.Error("pep/cpe: opening stream", "dst", dst, "err", err)
		return
	}
	c.Stats.Connections.Add(1)
	up, down := relay(conn, stream)
	c.Stats.BytesUp.Add(up)
	c.Stats.BytesDown.Add(down)
}

// Gateway dial-retry defaults: a transient origin dial failure (listener
// backlog blip, ephemeral port exhaustion, flapping route) is retried a
// few times with capped exponential backoff before the customer pays the
// satellite-RTT cost of a reset.
const (
	// DefaultDialRetries is the number of re-dials after the first
	// failure before the stream is Reset.
	DefaultDialRetries = 3
	// DefaultDialRetryBase is the first backoff step; each retry doubles
	// it, capped at DefaultDialRetryCap, with ±50% jitter to decorrelate
	// a burst of failing streams.
	DefaultDialRetryBase = 50 * time.Millisecond
	DefaultDialRetryCap  = time.Second
)

// Gateway is the ground-station side: it accepts tunnel streams and opens
// the real TCP connections toward the internet.
type Gateway struct {
	tn    *tunnel.Tunnel
	dial  func(dst string) (net.Conn, error)
	Stats Stats
	log   *slog.Logger

	// DialRetries / DialRetryBase / DialRetryCap tune the dial-retry
	// policy. The zero values take the Default* constants; DialRetries
	// < 0 disables retrying. Set them before Serve.
	DialRetries   int
	DialRetryBase time.Duration
	DialRetryCap  time.Duration

	// sleep is swapped out by tests to observe backoff without waiting.
	sleep func(time.Duration)
}

// NewGateway builds the gateway over a satellite transport. dial opens the
// internet-side connections; nil means net.Dial("tcp", dst).
func NewGateway(tr tunnel.Transport, cfg tunnel.Config, dial func(string) (net.Conn, error), logger *slog.Logger) *Gateway {
	if dial == nil {
		dial = func(dst string) (net.Conn, error) { return net.Dial("tcp", dst) }
	}
	if logger == nil {
		logger = slog.Default()
	}
	return &Gateway{tn: tunnel.New(tr, cfg, false), dial: dial, log: logger}
}

// Close tears down the tunnel and all proxied connections.
func (g *Gateway) Close() error { return g.tn.Close() }

// ActiveStreams reports the live entries in the tunnel's stream table.
func (g *Gateway) ActiveStreams() int { return g.tn.NumStreams() }

// Serve accepts tunnel streams until the tunnel closes. Each stream's
// destination label is dialed on the internet side; a dial failure simply
// closes the stream (the customer sees a reset after the satellite RTT, as
// in the real system).
func (g *Gateway) Serve() error {
	for {
		stream, dst, err := g.tn.Accept()
		if err != nil {
			if errors.Is(err, tunnel.ErrClosed) {
				return nil
			}
			return err
		}
		go g.handle(stream, dst)
	}
}

// dialWithRetry dials dst, retrying transient failures with capped
// exponential backoff and jitter. A stream that dies while we back off
// (peer reset, tunnel teardown) aborts the retry loop early.
func (g *Gateway) dialWithRetry(stream *tunnel.Stream, dst string) (net.Conn, error) {
	retries := g.DialRetries
	if retries == 0 {
		retries = DefaultDialRetries
	}
	base := g.DialRetryBase
	if base <= 0 {
		base = DefaultDialRetryBase
	}
	cap := g.DialRetryCap
	if cap <= 0 {
		cap = DefaultDialRetryCap
	}
	sleep := g.sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	conn, err := g.dial(dst)
	for attempt := 0; err != nil && attempt < retries; attempt++ {
		backoff := base << attempt
		if backoff > cap {
			backoff = cap
		}
		// ±50% jitter decorrelates a burst of streams all re-dialing a
		// briefly unreachable origin.
		backoff = backoff/2 + time.Duration(rand.Int63n(int64(backoff)))
		sleep(backoff)
		if stream.Err() != nil {
			return nil, err
		}
		mDialRetries.Inc()
		conn, err = g.dial(dst)
	}
	return conn, err
}

func (g *Gateway) handle(stream *tunnel.Stream, dst string) {
	conn, err := g.dialWithRetry(stream, dst)
	if err != nil {
		g.Stats.Errors.Add(1)
		mDialErrors.Inc()
		g.log.Error("pep/gw: dialing", "dst", dst, "err", err)
		// Abort rather than half-close: the customer must see a reset,
		// not a clean empty response.
		stream.Reset()
		return
	}
	defer conn.Close()
	g.Stats.Connections.Add(1)
	down, up := relay(conn, stream)
	g.Stats.BytesDown.Add(down)
	g.Stats.BytesUp.Add(up)
}

// relay pumps bytes both ways between a TCP connection and a tunnel
// stream, propagating half-closes, and returns (bytes conn→stream,
// bytes stream→conn) once both directions finish.
func relay(conn net.Conn, stream *tunnel.Stream) (toStream, toConn int64) {
	mRelays.Inc()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		// Not io.Copy(stream, conn): io.Copy prefers conn's WriteTo,
		// whose generic path allocates a 32 KiB buffer per call, over the
		// stream's ReadFrom and its recycled buffer.
		n, _ := stream.ReadFrom(conn)
		toStream = n
		// Customer/server finished sending: half-close the stream so the
		// peer sees EOF after draining.
		stream.Close()
	}()
	go func() {
		defer wg.Done()
		// The stream's WriteTo hands each received chunk straight to conn.
		n, _ := io.Copy(conn, stream)
		toConn = n
		if stream.Err() != nil {
			// The stream died (reset or tunnel failure): tear the TCP
			// side down fully so the other copy unblocks.
			conn.Close()
			return
		}
		// Stream EOF: propagate as a TCP half-close when supported.
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.CloseWrite()
		} else {
			conn.Close()
		}
	}()
	wg.Wait()
	if stream.Err() != nil {
		mRelayErrors.Inc()
	}
	return toStream, toConn
}
