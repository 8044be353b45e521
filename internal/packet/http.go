package packet

import "bytes"

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

// AppendBinary appends the request head (no body) to b. It never fails.
func (r *HTTPRequest) AppendBinary(b []byte) ([]byte, error) {
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
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, target...)
	b = append(b, ' ')
	b = append(b, version...)
	b = append(b, "\r\n"...)
	for _, h := range r.Headers {
		b = append(b, h.Name...)
		b = append(b, ": "...)
		b = append(b, h.Value...)
		b = append(b, "\r\n"...)
	}
	return append(b, "\r\n"...), nil
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

// HTTPRequestHost reads the head of an HTTP/1.x request in place. It
// accepts a partial head, because the probe may hold only the first
// segment of the stream: ok reports whether data opens with a complete
// request line (a known method, a target, an HTTP/ version). host is the
// value of the first Host field among the complete header lines before the
// blank line or the first line that is not a header field, trimmed and
// without a port; it is empty when there is none. A trailing line the
// segment cut is never read, so a truncated name is not reported.
func HTTPRequestHost(data []byte) (host []byte, ok bool) {
	if !LooksLikeHTTPRequest(data) {
		return nil, false
	}
	line, rest, ok := bytes.Cut(data, []byte("\r\n"))
	if !ok {
		return nil, false
	}
	_, version, _ := bytes.Cut(line, []byte(" ")) // LooksLikeHTTPRequest saw the first space
	if _, version, ok = bytes.Cut(version, []byte(" ")); !ok || !bytes.HasPrefix(version, []byte("HTTP/")) {
		return nil, false
	}
	for {
		if line, rest, ok = bytes.Cut(rest, []byte("\r\n")); !ok || len(line) == 0 {
			return nil, true
		}
		name, value, field := bytes.Cut(line, []byte(":"))
		if !field {
			return nil, true
		}
		if bytes.EqualFold(bytes.TrimSpace(name), []byte("Host")) {
			host = bytes.TrimSpace(value)
			if i := bytes.LastIndexByte(host, ':'); i > 0 && bytes.IndexByte(host[i+1:], ']') < 0 {
				host = host[:i]
			}
			return host, true
		}
	}
}
