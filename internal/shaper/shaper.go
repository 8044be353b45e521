// Package shaper implements the ground station's QoS machinery (§2.1): a
// token-bucket rate limiter used to enforce the commercial plan caps (up to
// 5 Mb/s uplink; 10/20/30/50/100 Mb/s downlink) and to shape video flows.
//
// Two pieces live here. The commercial side is the Plan lineup and the
// TokenBucket that meters a subscriber's traffic against it: the bucket
// answers "when may these bytes leave" rather than dropping, which is how
// the operator treats non-interactive traffic. The policy side (qos.go)
// classifies flows into the operator's traffic classes — interactive,
// bulk, shaped video — from L3/L4 fields and domain-specific rules. The
// simulator applies the plan caps analytically (internal/netsim); the
// bucket itself is exercised only by the benchmark's micro layer.
package shaper

import (
	"fmt"
	"sync"
	"time"
)

// Plan is a commercial subscription tier.
type Plan struct {
	Name     string
	DownMbps float64
	UpMbps   float64
}

// The operator's plan lineup. The paper reports 10 and 30 Mb/s plans sold
// in Africa and 30/50/100 Mb/s popular in Europe, all with up to 5 Mb/s up.
var (
	Plan10  = Plan{Name: "sat10", DownMbps: 10, UpMbps: 2}
	Plan20  = Plan{Name: "sat20", DownMbps: 20, UpMbps: 3}
	Plan30  = Plan{Name: "sat30", DownMbps: 30, UpMbps: 5}
	Plan50  = Plan{Name: "sat50", DownMbps: 50, UpMbps: 5}
	Plan100 = Plan{Name: "sat100", DownMbps: 100, UpMbps: 5}
)

// Plans returns the lineup in increasing-capacity order.
func Plans() []Plan { return []Plan{Plan10, Plan20, Plan30, Plan50, Plan100} }

// TokenBucket is a classic token bucket: tokens are bytes, refilled at Rate
// bytes/sec up to Burst. It answers "when may these bytes leave" rather
// than dropping, which is how the operator's shaper treats non-interactive
// traffic. Safe for concurrent use.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // bytes per second
	burst  float64 // bytes
	tokens float64
	last   time.Duration // last refill instant (caller-supplied clock)
}

// NewTokenBucket builds a bucket that starts full.
func NewTokenBucket(rateBytesPerSec, burstBytes float64) (*TokenBucket, error) {
	if rateBytesPerSec <= 0 {
		return nil, fmt.Errorf("shaper: rate must be positive, got %v", rateBytesPerSec)
	}
	if burstBytes <= 0 {
		return nil, fmt.Errorf("shaper: burst must be positive, got %v", burstBytes)
	}
	return &TokenBucket{rate: rateBytesPerSec, burst: burstBytes, tokens: burstBytes}, nil
}

// ForPlan builds the downlink bucket of a plan with a 1-second burst.
func ForPlan(p Plan) *TokenBucket {
	rate := p.DownMbps * 1e6 / 8
	tb, err := NewTokenBucket(rate, rate)
	if err != nil {
		panic(err)
	}
	return tb
}

// Take requests n bytes at instant now (a monotonic simulation or wall
// offset) and returns how long the bytes must wait before leaving. The
// bucket may go negative internally — that debt is what produces the wait.
func (tb *TokenBucket) Take(n int, now time.Duration) time.Duration {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if now > tb.last {
		tb.tokens += tb.rate * (now - tb.last).Seconds()
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
		tb.last = now
	}
	tb.tokens -= float64(n)
	if tb.tokens >= 0 {
		return 0
	}
	return time.Duration(-tb.tokens / tb.rate * float64(time.Second))
}
