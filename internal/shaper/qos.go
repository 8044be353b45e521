package shaper

import "satwatch/internal/services"

// Class is a QoS traffic class. The operator prioritizes interactive
// traffic and shapes video streaming using L3/L4 and domain-name-specific
// rules (§2.1).
type Class uint8

// The operator's traffic classes.
const (
	// ClassInteractive is prioritized: DNS, handshakes, messaging.
	ClassInteractive Class = iota
	// ClassBulk is best-effort web and downloads.
	ClassBulk
	// ClassVideo is shaped: streaming platforms get a per-subscriber
	// rate cap to protect the shared beam.
	ClassVideo
)

func (c Class) String() string {
	switch c {
	case ClassInteractive:
		return "interactive"
	case ClassVideo:
		return "video"
	default:
		return "bulk"
	}
}

// ClassifyFlow applies the operator's rules: the server domain decides
// video shaping (the paper's domain-name-specific rules); small-port
// control protocols are interactive; everything else is bulk.
func ClassifyFlow(domain string, serverPort uint16) Class {
	if serverPort == 53 || serverPort == 123 {
		return ClassInteractive
	}
	if domain != "" {
		if svc, ok := services.Classify(domain); ok {
			switch svc.Category {
			case services.CategoryVideo:
				return ClassVideo
			case services.CategoryChat:
				return ClassInteractive
			}
		}
	}
	return ClassBulk
}
