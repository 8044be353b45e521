package packet

import (
	"fmt"
	"net/netip"
)

// Endpoint is one side of a transport conversation.
type Endpoint struct {
	Addr netip.Addr
	Port uint16
}

func (e Endpoint) String() string { return fmt.Sprintf("%s:%d", e.Addr, e.Port) }

// Less orders endpoints by address then port, for canonicalization.
func (e Endpoint) Less(o Endpoint) bool {
	switch e.Addr.Compare(o.Addr) {
	case -1:
		return true
	case 1:
		return false
	}
	return e.Port < o.Port
}

// FiveTuple identifies a transport flow: protocol plus both endpoints, in
// the direction of the packet it was extracted from.
type FiveTuple struct {
	Proto uint8
	Src   Endpoint
	Dst   Endpoint
}

func (f FiveTuple) String() string {
	proto := "?"
	switch f.Proto {
	case ProtoTCP:
		proto = "tcp"
	case ProtoUDP:
		proto = "udp"
	}
	return fmt.Sprintf("%s %s > %s", proto, f.Src, f.Dst)
}

// Reverse returns the tuple of the opposite direction.
func (f FiveTuple) Reverse() FiveTuple {
	return FiveTuple{Proto: f.Proto, Src: f.Dst, Dst: f.Src}
}

// Canonical returns a direction-independent tuple (the lesser endpoint
// first) plus whether this tuple was swapped to get there. Both directions
// of a conversation map to the same canonical key.
func (f FiveTuple) Canonical() (FiveTuple, bool) {
	if f.Dst.Less(f.Src) {
		return f.Reverse(), true
	}
	return f, false
}
