package tstat

import (
	"fmt"
	"io"
	"math"
	"net/netip"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"satwatch/internal/obs"
)

// Protocol is the Table 1 protocol class of a flow.
type Protocol uint8

// Protocol classes, matching the paper's Table 1 rows.
const (
	ProtoUnknown Protocol = iota
	ProtoHTTPS
	ProtoHTTP
	ProtoTCPOther
	ProtoQUIC
	ProtoRTP
	ProtoDNS
	ProtoUDPOther
)

// protocolNames is indexed by Protocol.
var protocolNames = [...]string{
	ProtoUnknown:  "Unknown",
	ProtoHTTPS:    "TCP/HTTPS",
	ProtoHTTP:     "TCP/HTTP",
	ProtoTCPOther: "Other TCP",
	ProtoQUIC:     "UDP/QUIC",
	ProtoRTP:      "UDP/RTP",
	ProtoDNS:      "UDP/DNS",
	ProtoUDPOther: "Other UDP",
}

func (p Protocol) String() string {
	if int(p) < len(protocolNames) {
		return protocolNames[p]
	}
	return fmt.Sprintf("Protocol(%d)", uint8(p))
}

// parseProtocol is the inverse of Protocol.String.
func parseProtocol(s string) Protocol {
	for p, name := range protocolNames {
		if name == s {
			return Protocol(p)
		}
	}
	return ProtoUnknown
}

// RTTStats summarizes the RTT samples of one flow (min/avg/max/std), the
// §2.2 statistics.
type RTTStats struct {
	Samples int
	Min     time.Duration
	Avg     time.Duration
	Max     time.Duration
	Std     time.Duration
}

// add folds one sample into the summary using streaming moments.
type rttAccum struct {
	n          int
	sum, sumSq float64
	min, max   time.Duration
}

func (a *rttAccum) add(d time.Duration) {
	if a.n == 0 || d < a.min {
		a.min = d
	}
	if d > a.max {
		a.max = d
	}
	a.n++
	f := float64(d)
	a.sum += f
	a.sumSq += f * f
}

func (a *rttAccum) stats() RTTStats {
	if a.n == 0 {
		return RTTStats{}
	}
	mean := a.sum / float64(a.n)
	varr := a.sumSq/float64(a.n) - mean*mean
	if varr < 0 {
		varr = 0
	}
	return RTTStats{
		Samples: a.n,
		Min:     a.min,
		Avg:     time.Duration(mean),
		Max:     a.max,
		Std:     time.Duration(math.Sqrt(varr)),
	}
}

// FlowRecord is the per-flow log line, the equivalent of a Tstat
// log_tcp_complete row restricted to the fields the paper uses.
type FlowRecord struct {
	// Client is the (anonymized) customer endpoint; Server the internet
	// endpoint.
	Client netip.Addr
	Server netip.Addr
	CPort  uint16
	SPort  uint16

	Proto  Protocol
	Domain string // from DPI: SNI, Host, or QUIC SNI; "" when opaque

	Start time.Duration // first segment, offset from trace epoch
	End   time.Duration // last segment

	BytesUp   int64 // client → server payload bytes
	BytesDown int64 // server → client payload bytes
	PktsUp    int64
	PktsDown  int64

	// First10 are the capture times of the first up-to-10 segments.
	First10 []time.Duration

	// GroundRTT summarizes data→ACK samples toward the server (§2.2
	// measurement iii).
	GroundRTT RTTStats

	// SatRTT is the satellite-segment RTT estimated from the TLS
	// handshake (ServerHello → ClientKeyExchange/CCS), zero when the
	// flow completed no TLS negotiation (§2.2 measurement ii).
	SatRTT time.Duration
}

// Duration returns the flow's first-to-last segment time.
func (f *FlowRecord) Duration() time.Duration { return f.End - f.Start }

// DNSRecord is one logged DNS transaction (§2.2: "logs each requested
// domain and obtained responses, including the DNS server IP address").
type DNSRecord struct {
	Client       netip.Addr // anonymized customer
	Resolver     netip.Addr
	Query        string
	RCode        uint8
	Answer       netip.Addr // first A answer, if any
	T            time.Duration
	ResponseTime time.Duration // request→response at the vantage point
}

// TruncateToLog rounds every time in flows and dns toward zero to whole
// microseconds, the logs' resolution, in place. The records a run
// analyzes are then the records a replay of its logs reads back; they
// encode to the same bytes either way.
func TruncateToLog(flows []FlowRecord, dns []DNSRecord) {
	const us = time.Microsecond
	for i := range flows {
		f := &flows[i]
		f.Start, f.End, f.SatRTT = f.Start.Truncate(us), f.End.Truncate(us), f.SatRTT.Truncate(us)
		g := &f.GroundRTT
		g.Min, g.Avg, g.Max, g.Std = g.Min.Truncate(us), g.Avg.Truncate(us), g.Max.Truncate(us), g.Std.Truncate(us)
		for j, t := range f.First10 {
			f.First10[j] = t.Truncate(us)
		}
	}
	for i := range dns {
		d := &dns[i]
		d.T, d.ResponseTime = d.T.Truncate(us), d.ResponseTime.Truncate(us)
	}
}

// --- TSV serialization -------------------------------------------------

const flowHeader = "client\tcport\tserver\tsport\tproto\tdomain\tstart_us\tend_us\tbytes_up\tbytes_down\tpkts_up\tpkts_down\trtt_n\trtt_min_us\trtt_avg_us\trtt_max_us\trtt_std_us\tsat_rtt_us\tfirst10_us"

// rowBufSize is the serial encoder's one buffer. It is handed to the
// writer whenever it is half full, which leaves room for the next row:
// only a row over 32 KiB ever grows it.
const rowBufSize = 64 << 10

// encodeScratch is what the buffers of one parallel encode hold in all,
// whatever the number of workers.
const encodeScratch = 256 << 10

// parallelEncodeMin is the smallest log encoded on several goroutines.
const parallelEncodeMin = 1 << 14

// writeRows writes header and one line per record, each rendered by
// appendRow, on GOMAXPROCS goroutines once the log is large enough.
func writeRows[T any](w io.Writer, header string, recs []T, appendRow func([]byte, *T) []byte) error {
	p := runtime.GOMAXPROCS(0)
	if len(recs) < parallelEncodeMin {
		p = 1
	}
	return writeRowsP(w, header, recs, appendRow, p)
}

// writeRowsP is writeRows on p goroutines. The calling goroutine renders
// the header and the rows that fill half a buffer; that row count is the
// block of the rest. Worker k renders blocks k, k+p, k+2p, … into its two
// buffers in turn, and the calling goroutine hands the blocks to w in
// block order, so w sees the bytes of a serial encode. On the first
// failed Write the workers stop, and that error is returned once they
// have.
func writeRowsP[T any](w io.Writer, header string, recs []T, appendRow func([]byte, *T) []byte, p int) error {
	if p < 2 || len(recs) == 0 {
		b := append(append(make([]byte, 0, rowBufSize), header...), '\n')
		for i := range recs {
			if b = appendRow(b, &recs[i]); len(b) >= rowBufSize/2 {
				if _, err := w.Write(b); err != nil {
					return err
				}
				b = b[:0]
			}
		}
		_, err := w.Write(b)
		return err
	}
	bufSize := encodeScratch / (2*p + 1)
	b := append(append(make([]byte, 0, bufSize), header...), '\n')
	n := 0
	for n < len(recs) && (n == 0 || len(b) < bufSize/2) {
		b = appendRow(b, &recs[n])
		n++
	}
	rest := recs[n:]
	blocks := (len(rest) + n - 1) / n
	p = min(p, blocks)
	type worker struct{ free, full chan []byte }
	workers := make([]worker, p)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for k := range workers {
		wk := &workers[k]
		// Two buffers a worker: it renders into one while the other waits
		// to be written.
		wk.free, wk.full = make(chan []byte, 2), make(chan []byte, 2)
		wk.free <- make([]byte, 0, bufSize)
		wk.free <- make([]byte, 0, bufSize)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for blk := k; blk < blocks; blk += p {
				var buf []byte
				select {
				case buf = <-wk.free:
				case <-stop:
					return
				}
				for i := blk * n; i < min((blk+1)*n, len(rest)); i++ {
					buf = appendRow(buf, &rest[i])
				}
				wk.full <- buf
			}
		}()
	}
	_, err := w.Write(b)
	for blk := 0; err == nil && blk < blocks; blk++ {
		wk := &workers[blk%p]
		buf := <-wk.full
		if _, err = w.Write(buf); err == nil {
			wk.free <- buf[:0]
		}
	}
	close(stop)
	wg.Wait()
	return err
}

// appendAddr appends what %s prints for an address: Addr.String, which
// unlike Addr.AppendTo names the zero Addr.
func appendAddr(b []byte, a netip.Addr) []byte {
	if !a.IsValid() {
		return append(b, "invalid IP"...)
	}
	return a.AppendTo(b)
}

// appendUsec appends a tab and d in whole microseconds.
func appendUsec(b []byte, d time.Duration) []byte {
	return strconv.AppendInt(append(b, '\t'), d.Microseconds(), 10)
}

// appendFlowRow appends one flow log line, newline included.
func appendFlowRow(b []byte, r *FlowRecord) []byte {
	b = appendAddr(b, r.Client)
	b = strconv.AppendUint(append(b, '\t'), uint64(r.CPort), 10)
	b = appendAddr(append(b, '\t'), r.Server)
	b = strconv.AppendUint(append(b, '\t'), uint64(r.SPort), 10)
	b = append(append(b, '\t'), r.Proto.String()...)
	b = append(append(b, '\t'), r.Domain...)
	b = appendUsec(b, r.Start)
	b = appendUsec(b, r.End)
	for _, v := range [...]int64{r.BytesUp, r.BytesDown, r.PktsUp, r.PktsDown, int64(r.GroundRTT.Samples)} {
		b = strconv.AppendInt(append(b, '\t'), v, 10)
	}
	for _, d := range [...]time.Duration{r.GroundRTT.Min, r.GroundRTT.Avg, r.GroundRTT.Max, r.GroundRTT.Std, r.SatRTT} {
		b = appendUsec(b, d)
	}
	b = append(b, '\t')
	for j, t := range r.First10 {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, t.Microseconds(), 10)
	}
	return append(b, '\n')
}

// WriteFlows writes records as a TSV log with a header line.
func WriteFlows(w io.Writer, recs []FlowRecord) error {
	return writeRows(w, flowHeader, recs, appendFlowRow)
}

// parseFlowLine parses one data line of a flow TSV log.
func parseFlowLine(text string) (FlowRecord, error) {
	var rec FlowRecord
	fields := strings.Split(text, "\t")
	if len(fields) != 19 {
		return rec, fmt.Errorf("%d fields, want 19", len(fields))
	}
	var err error
	if rec.Client, err = netip.ParseAddr(fields[0]); err != nil {
		return rec, fmt.Errorf("client: %w", err)
	}
	if rec.Server, err = netip.ParseAddr(fields[2]); err != nil {
		return rec, fmt.Errorf("server: %w", err)
	}
	ints := make([]int64, 0, 14)
	for _, idx := range []int{1, 3, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17} {
		v, err := strconv.ParseInt(fields[idx], 10, 64)
		if err == nil && (idx == 6 || idx == 7 || idx >= 13) { // the microsecond fields
			_, err = usec(v)
		}
		if err != nil {
			return rec, fmt.Errorf("field %d: %w", idx, err)
		}
		ints = append(ints, v)
	}
	rec.CPort = uint16(ints[0])
	rec.SPort = uint16(ints[1])
	rec.Proto = parseProtocol(fields[4])
	rec.Domain = fields[5]
	rec.Start = time.Duration(ints[2]) * time.Microsecond
	rec.End = time.Duration(ints[3]) * time.Microsecond
	rec.BytesUp, rec.BytesDown = ints[4], ints[5]
	rec.PktsUp, rec.PktsDown = ints[6], ints[7]
	rec.GroundRTT = RTTStats{
		Samples: int(ints[8]),
		Min:     time.Duration(ints[9]) * time.Microsecond,
		Avg:     time.Duration(ints[10]) * time.Microsecond,
		Max:     time.Duration(ints[11]) * time.Microsecond,
		Std:     time.Duration(ints[12]) * time.Microsecond,
	}
	rec.SatRTT = time.Duration(ints[13]) * time.Microsecond
	if fields[18] != "" {
		parts := strings.Split(fields[18], ",")
		rec.First10 = make([]time.Duration, 0, len(parts))
		for _, part := range parts {
			us, err := strconv.ParseInt(part, 10, 64)
			var d time.Duration
			if err == nil {
				d, err = usec(us)
			}
			if err != nil {
				return rec, fmt.Errorf("first10: %w", err)
			}
			rec.First10 = append(rec.First10, d)
		}
	}
	return rec, nil
}

// usec converts a logged microsecond count, rejecting one no Duration
// holds: such a field is damage, and accepting it would read back a time
// the writer never wrote.
func usec(v int64) (time.Duration, error) {
	const max = math.MaxInt64 / int64(time.Microsecond)
	if v > max || v < -max {
		return 0, fmt.Errorf("%d us overflows", v)
	}
	return time.Duration(v) * time.Microsecond, nil
}

// interner holds one copy of each distinct name a read has seen. A parsed
// field is a substring of its line and would keep the whole line alive; a
// log names a few hundred domains in a few hundred thousand lines.
type interner map[string]string

func (in interner) intern(s string) string {
	c, ok := in[s]
	if !ok {
		c = strings.Clone(s)
		in[c] = c
	}
	return c
}

// ReadFlowsTolerant parses a TSV flow log written by WriteFlows under
// the salvage policy of obs.ReadLines: corrupt lines are skipped and
// counted, a foreign header is an error.
func ReadFlowsTolerant(r io.Reader) ([]FlowRecord, obs.ReadStats, error) {
	var out []FlowRecord
	domains := interner{}
	st, err := obs.ReadLines(r, "tstat:", flowHeader, func(line []byte) error {
		rec, err := parseFlowLine(string(line))
		if err == nil {
			rec.Domain = domains.intern(rec.Domain)
			out = append(out, rec)
		}
		return err
	})
	return out, st, err
}

// ReadFlows is ReadFlowsTolerant failing on the first corrupt line.
func ReadFlows(r io.Reader) ([]FlowRecord, error) {
	recs, st, err := ReadFlowsTolerant(r)
	if err == nil {
		err = st.First
	}
	return recs, err
}

const dnsHeader = "client\tresolver\tquery\trcode\tanswer\tt_us\tresp_us"

// appendDNSRow appends one DNS log line, newline included. An absent
// answer is an empty field.
func appendDNSRow(b []byte, r *DNSRecord) []byte {
	b = appendAddr(b, r.Client)
	b = appendAddr(append(b, '\t'), r.Resolver)
	b = append(append(b, '\t'), r.Query...)
	b = strconv.AppendUint(append(b, '\t'), uint64(r.RCode), 10)
	b = r.Answer.AppendTo(append(b, '\t'))
	b = appendUsec(b, r.T)
	b = appendUsec(b, r.ResponseTime)
	return append(b, '\n')
}

// WriteDNS writes DNS transaction records as TSV.
func WriteDNS(w io.Writer, recs []DNSRecord) error {
	return writeRows(w, dnsHeader, recs, appendDNSRow)
}

// parseDNSLine parses one data line of a DNS TSV log.
func parseDNSLine(text string) (DNSRecord, error) {
	var rec DNSRecord
	fields := strings.Split(text, "\t")
	if len(fields) != 7 {
		return rec, fmt.Errorf("%d fields, want 7", len(fields))
	}
	var err error
	if rec.Client, err = netip.ParseAddr(fields[0]); err != nil {
		return rec, err
	}
	if rec.Resolver, err = netip.ParseAddr(fields[1]); err != nil {
		return rec, err
	}
	rec.Query = fields[2]
	rc, err := strconv.ParseUint(fields[3], 10, 8)
	if err != nil {
		return rec, err
	}
	rec.RCode = uint8(rc)
	if fields[4] != "" {
		if rec.Answer, err = netip.ParseAddr(fields[4]); err != nil {
			return rec, err
		}
	}
	for i, dst := range []*time.Duration{&rec.T, &rec.ResponseTime} {
		us, err := strconv.ParseInt(fields[5+i], 10, 64)
		if err == nil {
			*dst, err = usec(us)
		}
		if err != nil {
			return rec, err
		}
	}
	return rec, nil
}

// ReadDNSTolerant parses a TSV DNS log written by WriteDNS, skipping and
// counting corrupt lines.
func ReadDNSTolerant(r io.Reader) ([]DNSRecord, obs.ReadStats, error) {
	var out []DNSRecord
	queries := interner{}
	st, err := obs.ReadLines(r, "tstat: dns", dnsHeader, func(line []byte) error {
		rec, err := parseDNSLine(string(line))
		if err == nil {
			rec.Query = queries.intern(rec.Query)
			out = append(out, rec)
		}
		return err
	})
	return out, st, err
}

// ReadDNS is ReadDNSTolerant failing on the first corrupt line.
func ReadDNS(r io.Reader) ([]DNSRecord, error) {
	recs, st, err := ReadDNSTolerant(r)
	if err == nil {
		err = st.First
	}
	return recs, err
}
