package tunnel

// Free-list bounds: what an idle tunnel keeps, about 7 MB at most. A
// payload is held from Write until its ACK, or from receipt until Read
// drains it; the receiver acknowledges on receipt, so a reader that
// falls behind can queue a whole stream's payloads.
const (
	frameSlots   = 64 // a frame lives from buildFrame until WriteDatagram returns
	payloadSlots = 4096
	relaySlots   = 64
	relayBufSize = 32 << 10 // io.Copy's buffer size
)

// bufPool recycles the fixed-size byte buffers of the datagram hot path:
// wire frames (header + payload), the DATA payload copies a stream keeps
// until acknowledgement or until Read drains them, and the relay buffer
// of ReadFrom. Oversized requests fall back to plain allocation and
// undersized returns are dropped, so the pool only ever holds full-size
// buffers and get never returns a buffer another owner could still
// touch. The free list is a buffered channel: it passes slice headers by
// value, so unlike a sync.Pool a return allocates nothing, and it keeps
// its buffers under the race detector too. Buffers returned to a full
// list are left to the garbage collector.
type bufPool struct {
	size int
	free chan []byte
}

func newBufPool(size, slots int) *bufPool {
	return &bufPool{size: size, free: make(chan []byte, slots)}
}

// get returns a buffer of length n. Buffers longer than the pool's size
// class are allocated directly (and later dropped by put).
func (bp *bufPool) get(n int) []byte {
	if n > bp.size {
		return make([]byte, n)
	}
	select {
	case b := <-bp.free:
		return b[:n]
	default:
		return make([]byte, n, bp.size)
	}
}

// put recycles b if it belongs to this pool's size class. Foreign
// buffers (OPEN destinations, oversized fallbacks, nil FIN payloads)
// are left to the garbage collector.
func (bp *bufPool) put(b []byte) {
	if cap(b) != bp.size {
		return
	}
	select {
	case bp.free <- b[:bp.size]:
	default:
	}
}
