package packet

import (
	"bytes"
	"fmt"
	"strings"
)

// HTTPRequest is the head of an HTTP/1.x request: what a probe can observe
// of plain-text web traffic (paper §2.2: the Host header names the server).
type HTTPRequest struct {
	Method  string
	Target  string
	Version string
	Headers []HTTPHeader
}

// HTTPHeader is one request header field.
type HTTPHeader struct {
	Name, Value string
}

// Host returns the Host header value (without any port), or "".
func (r *HTTPRequest) Host() string {
	for _, h := range r.Headers {
		if strings.EqualFold(h.Name, "Host") {
			host := h.Value
			if i := strings.LastIndexByte(host, ':'); i > 0 && !strings.Contains(host[i+1:], "]") {
				host = host[:i]
			}
			return host
		}
	}
	return ""
}

// Encode serializes the request head (no body).
func (r *HTTPRequest) Encode() []byte {
	var b strings.Builder
	method := r.Method
	if method == "" {
		method = "GET"
	}
	target := r.Target
	if target == "" {
		target = "/"
	}
	version := r.Version
	if version == "" {
		version = "HTTP/1.1"
	}
	fmt.Fprintf(&b, "%s %s %s\r\n", method, target, version)
	for _, h := range r.Headers {
		fmt.Fprintf(&b, "%s: %s\r\n", h.Name, h.Value)
	}
	b.WriteString("\r\n")
	return []byte(b.String())
}

var httpMethods = [...]string{"GET", "POST", "PUT", "HEAD", "DELETE", "OPTIONS", "PATCH", "CONNECT", "TRACE"}

// LooksLikeHTTPRequest reports whether data starts with an HTTP/1.x request
// line, without fully parsing it — the DPI fast path.
func LooksLikeHTTPRequest(data []byte) bool {
	for _, m := range httpMethods {
		if len(data) > len(m) && string(data[:len(m)]) == m && data[len(m)] == ' ' {
			return true
		}
	}
	return false
}

// ParseHTTPRequest parses a request head from the start of data. It accepts
// a partial header block (stops at the end of input), because the probe may
// only hold the first segment of the stream.
func ParseHTTPRequest(data []byte) (*HTTPRequest, error) {
	if !LooksLikeHTTPRequest(data) {
		return nil, fmt.Errorf("http: no request line")
	}
	// Bound the head to the header/body separator when present.
	if i := bytes.Index(data, []byte("\r\n\r\n")); i >= 0 {
		data = data[:i+2]
	}
	lines := strings.Split(string(data), "\r\n")
	if !bytes.HasSuffix(data, []byte("\r\n")) && len(lines) > 0 {
		// The segment was cut mid-line; the trailing fragment is not a
		// complete header field and must not be half-parsed.
		lines = lines[:len(lines)-1]
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("http: no complete request line")
	}
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/") {
		return nil, fmt.Errorf("http: malformed request line %q", lines[0])
	}
	req := &HTTPRequest{Method: parts[0], Target: parts[1], Version: parts[2]}
	for _, ln := range lines[1:] {
		if ln == "" {
			break
		}
		name, value, ok := strings.Cut(ln, ":")
		if !ok {
			// Tolerate a trailing partial header line from a cut segment.
			break
		}
		req.Headers = append(req.Headers, HTTPHeader{Name: strings.TrimSpace(name), Value: strings.TrimSpace(value)})
	}
	return req, nil
}
